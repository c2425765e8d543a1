"""Bench text for an n-bit carry-ripple array multiplier.

Only 2-input AND/XOR/OR gates are used, because the bundled technology
profiles define delays only up to fan-in 4.  Partial products are the n*n
``AND(a_i, b_j)``; row 1 adds two half adders and n-2 full adders, every
later row one half adder and n-1 full adders, so the circuit has
n*n + 5*n*(n-2) + 2*n gates: 64, 320 and 768 for n = 4, 8 and 12.

Inputs are ``a0..a{n-1}`` then ``b0..b{n-1}``; outputs are declared in
product-bit order, least significant first.  The circuit is combinational,
so ``seusim`` wraps it with boundary registers before a campaign.

Run ``python3 perfbench/mulgen.py 12 > mul12.bench`` to write one out.
"""

import sys


def multiplier_bench(n):
    """Bench text for an n x n -> 2n bit unsigned array multiplier."""
    if n < 2:
        raise ValueError(f"multiplier width must be >= 2, got {n}")
    lines = [f"# {n}-bit carry-ripple array multiplier"]
    lines += [f"INPUT(a{i})" for i in range(n)]
    lines += [f"INPUT(b{i})" for i in range(n)]
    gates = []

    def gate(out, kind, x, y):
        gates.append(f"{out} = {kind}({x}, {y})")
        return out

    def half_adder(tag, x, y):
        return gate(f"{tag}_s", "XOR", x, y), gate(f"{tag}_c", "AND", x, y)

    def full_adder(tag, x, y, cin):
        t = gate(f"{tag}_t", "XOR", x, y)
        s = gate(f"{tag}_s", "XOR", t, cin)
        g = gate(f"{tag}_g", "AND", x, y)
        p = gate(f"{tag}_p", "AND", t, cin)
        return s, gate(f"{tag}_c", "OR", g, p)

    def pp(i, j):
        return gate(f"pp{i}_{j}", "AND", f"a{i}", f"b{j}")

    row0 = [pp(i, 0) for i in range(n)]
    product = [row0[0]]
    acc = row0[1:]                      # running sum, weights j .. j+len-1
    for j in range(1, n):
        new, carry = [], None
        for i in range(n):
            tag = f"r{j}_{i}"
            ops = [pp(i, j)] + acc[i:i + 1] + ([carry] if carry else [])
            if len(ops) == 2:
                s, carry = half_adder(tag, *ops)
            else:
                s, carry = full_adder(tag, *ops)
            new.append(s)
        new.append(carry)
        product.append(new[0])
        acc = new[1:]
    product += acc
    lines += [f"OUTPUT({net})" for net in product]
    return "\n".join(lines + [""] + gates) + "\n"


if __name__ == "__main__":
    sys.stdout.write(multiplier_bench(int(sys.argv[1])))
