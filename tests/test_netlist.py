"""Tests for bench parsing, validation, levelization, and boundary wrapping."""

import dataclasses
import re
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.errors import BenchParseError, InputError, InvariantError
from seusim.golden import Stimulus, simulate_reference
from seusim.injector import SimContext
from seusim.netlist import (
    CONTROLLING,
    GATE_KINDS,
    Circuit,
    Diagnostic,
    Diagnostics,
    Flop,
    Gate,
    parse_bench,
    validate,
    wrap_combinational,
)
from seusim.techmodel import load_bundled_profile

from conftest import (BUNDLED_CIRCUITS, bundled_bench_text, bundled_circuit,
                      driver_map, flop_by_id, multiplier_bench,
                      serialize_bench)


def latches(circuit):
    """The data net -> flops index that ``SimContext.bind`` builds."""
    trace = simulate_reference(circuit, Stimulus.random(3, seed=1))
    profile = load_bundled_profile("toy-equal")
    return SimContext.build(circuit, profile).bind(trace).latches


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_circuit():
    c = parse_bench(
        """
        # two-gate sample
        INPUT(a)
        INPUT(b)
        OUTPUT(z)
        n1 = NAND(a, b)
        z = NOT(n1)
        """,
        name="mini",
    )
    assert c.name == "mini"
    assert c.primary_inputs == ("a", "b")
    assert c.primary_outputs == ("z",)
    assert [g.id for g in c.gates] == ["n1", "z"]
    assert c.gate_by_id["n1"].kind == "NAND"
    assert c.gate_by_id["n1"].inputs == ("a", "b")
    assert c.flops == ()
    assert set(c.nets) == {"a", "b", "n1", "z"}


def test_parse_flop_and_gate_kinds():
    c = parse_bench(
        """
        INPUT(x)
        OUTPUT(q)
        q = DFF(d)
        d = XOR(x, q)
        """
    )
    assert len(c.flops) == 1
    f = c.flops[0]
    assert (f.id, f.data) == ("q", "d")
    assert c.gate_by_id["d"].kind == "XOR"
    assert latches(c) == {"d": [(0, "q", "d")]}


def test_parse_lowercase_kind_normalized():
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = not(a)\n")
    assert c.gates[0].kind == "NOT"


def test_parse_comments_and_blank_lines():
    c = parse_bench("# header\n\nINPUT(a)  # trailing\nOUTPUT(z)\nz = NOT(a)\n")
    assert c.stats() == {"inputs": 1, "outputs": 1, "gates": 1, "flops": 0, "nets": 2}


def test_parse_c17_counts():
    c = bundled_circuit("c17")
    assert c.stats() == {"inputs": 5, "outputs": 2, "gates": 6, "flops": 0, "nets": 11}
    assert c.primary_inputs == ("1", "2", "3", "6", "7")
    assert c.primary_outputs == ("22", "23")
    assert all(g.kind == "NAND" for g in c.gates)
    assert c.gate_by_id["22"].inputs == ("10", "16")


def test_parse_s27_counts():
    c = bundled_circuit("s27")
    assert c.stats() == {"inputs": 4, "outputs": 1, "gates": 10, "flops": 3, "nets": 17}
    kinds = sorted(g.kind for g in c.gates)
    assert kinds == ["AND", "NAND", "NOR", "NOR", "NOR", "NOR", "NOT", "NOT", "OR", "OR"]
    assert flop_by_id(c)["G7"].data == "G13"
    assert c.primary_outputs == ("G17",)


@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_bundled_circuits_parse_and_validate(name):
    c = bundled_circuit(name)
    diag = validate(c)
    assert diag.ok, diag.errors
    assert not diag.errors


def test_parse_unknown_kind_reports_position():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n")
    assert "unknown gate kind 'FOO'" in str(exc.value)
    assert exc.value.line == 3
    assert exc.value.col == 5


def test_parse_empty_argument_list():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND()\n")
    assert "empty argument list" in str(exc.value)
    assert exc.value.line == 3


def test_parse_dff_arity_enforced():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = DFF(a, b)\n")
    assert "DFF takes exactly one input" in str(exc.value)
    assert exc.value.line == 4


def test_parse_malformed_line():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND a\n")
    assert "cannot parse line" in str(exc.value)

    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT a\nOUTPUT(z)\nz = NOT(a)\n")
    assert exc.value.line == 1


def test_parse_duplicate_driver_collected():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a)\nz = NOT(b)\n")
    assert "already driven" in str(exc.value)
    codes = [code for code, *_ in exc.value.errors]
    assert codes == ["duplicate-driver"]


def test_parse_undeclared_net_collected():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")
    assert "undeclared net 'ghost'" in str(exc.value)
    codes = [code for code, *_ in exc.value.errors]
    assert codes == ["undeclared-net"]


_BENCH_TOKENS = ("INPUT", "OUTPUT", "DFF", "dff", "NAND", "AND", "NOT", "BUF",
                 "XOR", "MUX", "(", ")", ",", "=", " ", "\t", "\r", "\n", "#",
                 "a", "b", "z", "1", "\x00", "\u00e9")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(_BENCH_TOKENS), max_size=60).map("".join),
    # real lines, dropped, repeated and reordered
    st.lists(st.sampled_from(bundled_bench_text("s27").splitlines()),
             max_size=30).map("\n".join),
))
def test_parse_bench_parses_or_raises_input_error(text):
    try:
        parse_bench(text, name="fuzz")
    except InputError:
        pass


# The parser as it was before its per-line work was cut down, kept as the
# reference: ``parse_bench`` must give the same Circuit or the same error.
_REF_DECL_RE = re.compile(r"(INPUT|OUTPUT)\s*\(\s*([^\s(),=#]+)\s*\)\s*$")
_REF_ASSIGN_RE = re.compile(
    r"([^\s(),=#]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^()#]*?)\s*\)\s*$"
)
_REF_BAD_ARG_RE = re.compile(r"[\s(),=#]")


def reference_parse_bench(text, name="bench"):
    pis, pos, gates, flops = [], [], [], []
    declared = {}
    refs = []
    dup_errors = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        body = line.lstrip()
        if not body:
            continue
        col0 = len(line) - len(body) + 1

        m = _REF_DECL_RE.match(body)
        if m:
            kw, net = m.group(1), m.group(2)
            if kw == "INPUT":
                if net in declared:
                    dup_errors.append(
                        ("duplicate-driver",
                         f"net '{net}' already driven", lineno, col0))
                else:
                    declared[net] = (lineno, col0)
                pis.append(net)
            else:
                pos.append(net)
                refs.append((net, lineno, col0, None))
            continue

        m = _REF_ASSIGN_RE.match(body)
        if m:
            target, kind_raw, argtext = m.group(1), m.group(2), m.group(3)
            kind = kind_raw.upper()
            kind_col = col0 + m.start(2)
            if kind != "DFF" and kind not in GATE_KINDS:
                raise BenchParseError(
                    f"unknown gate kind '{kind_raw}'", lineno, kind_col)
            args = [a.strip() for a in argtext.split(",")] if argtext.strip() else []
            if not args or any(not a for a in args):
                raise BenchParseError(
                    f"empty argument list for '{target}'", lineno,
                    col0 + m.start(3))
            for a in args:
                if _REF_BAD_ARG_RE.search(a):
                    raise BenchParseError(
                        f"malformed argument '{a}'", lineno, col0 + m.start(3))
                refs.append((a, lineno, col0, target))
            if net_dup := declared.get(target):
                dup_errors.append(
                    ("duplicate-driver",
                     f"net '{target}' already driven (first at line {net_dup[0]})",
                     lineno, col0))
            else:
                declared[target] = (lineno, col0)
            if kind == "DFF":
                if len(args) != 1:
                    raise BenchParseError(
                        "DFF takes exactly one input", lineno, col0)
                flops.append(Flop(id=target, data=args[0]))
            else:
                gates.append(Gate(id=target, kind=kind, inputs=tuple(args)))
            continue

        raise BenchParseError(f"cannot parse line: '{body.rstrip()}'",
                              lineno, col0)

    errors = list(dup_errors)
    for net, lineno, col, target in refs:
        if net not in declared:
            what = ("output declaration" if target is None
                    else f"input of '{target}'")
            errors.append(
                ("undeclared-net",
                 f"reference to undeclared net '{net}' in {what}",
                 lineno, col))
    if errors:
        code, msg, line, col = errors[0]
        raise BenchParseError(msg, line, col, errors=errors)

    return Circuit(
        name=name,
        primary_inputs=tuple(pis),
        primary_outputs=tuple(pos),
        gates=tuple(gates),
        flops=tuple(flops),
        nets=frozenset(declared),
    )


def reference_gate_order(circuit):
    """Kahn's levelization as ``Circuit.gate_order`` computed it before it
    stopped going through the driver map."""
    driver = driver_map(circuit)
    indeg = {}
    succs = {g.id: [] for g in circuit.gates}
    for g in circuit.gates:
        count = 0
        for n in g.inputs:
            kind, drv = driver.get(n, (None, None))
            if kind == "gate":
                count += 1
                succs[drv.id].append(g.id)
        indeg[g.id] = count
    ready = deque(g.id for g in circuit.gates if indeg[g.id] == 0)
    order = []
    while ready:
        gid = ready.popleft()
        order.append(gid)
        for nxt in succs[gid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(circuit.gates):
        stuck = sorted(gid for gid, d in indeg.items() if d > 0)
        return "combinational cycle through gates: " + ", ".join(stuck[:8])
    return tuple(order)


def parse_outcome(parse, text):
    """The Circuit ``parse`` returns with its gate order (or cycle message),
    or everything its error carries."""
    try:
        circuit = parse(text, name="fuzz")
    except BenchParseError as exc:
        return ("error", str(exc), exc.line, exc.col, exc.errors)
    if parse is reference_parse_bench:
        return circuit, reference_gate_order(circuit)
    try:
        return circuit, circuit.gate_order
    except InvariantError as exc:
        return circuit, str(exc)


_NETS = ("a", "b", "G1", "n_2", "q", "z")
_KINDS = (*GATE_KINDS, "DFF", "dff", "nand", "Xor", "MUX", "foo")
_PAD = st.sampled_from(("", " ", "  ", "\t"))
_BAD_ARGS = ("", " ", "a b", "a\tb", "a=b", "=", "a\xa0b")


@st.composite
def bench_lines(draw):
    """One line of the bench grammar, with padding around every token."""
    p = [draw(_PAD) for _ in range(6)]
    net = st.sampled_from(_NETS)
    shape = draw(st.sampled_from(("input", "output", "gate", "comment", "")))
    if shape in ("input", "output"):
        line = f"{p[0]}{shape.upper()}{p[1]}({p[2]}{draw(net)}{p[3]}){p[4]}"
    elif shape == "gate":
        # mostly net names, sometimes empty, blank or with a space or '='
        arg = st.one_of(net, net, net, st.sampled_from(_BAD_ARGS))
        args = draw(st.lists(arg, max_size=4))
        sep = draw(_PAD) + "," + draw(_PAD)
        line = (f"{p[0]}{draw(net)}{p[1]}={p[2]}{draw(st.sampled_from(_KINDS))}"
                f"{p[3]}({p[4]}{sep.join(args)}{p[5]})")
    else:
        line = p[0]
    if draw(st.booleans()):
        line += f"{draw(_PAD)}# {draw(st.sampled_from(_NETS))}"
    return line


# Characters that break a line in one of the ways the grammar has to reject
# or tolerate: a stray '=', a space or a comma inside an argument, a comment
# start, parentheses, and characters str.splitlines treats as line breaks.
_MUTATIONS = ("=", " ", ",", ",,", "#", "(", ")", "\r", "\x0c", "\x1c",
              " ", "\xa0", "\r\n")


@st.composite
def mutated_bench_texts(draw):
    lines = draw(st.lists(bench_lines(), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from(_MUTATIONS)) + lines[i][j:]
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))      # a repeated line
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    mutated_bench_texts(),
    st.lists(st.sampled_from(_BENCH_TOKENS), max_size=60).map("".join),
))
def test_parse_bench_matches_reference_parser(text):
    assert (parse_outcome(parse_bench, text)
            == parse_outcome(reference_parse_bench, text))


@pytest.mark.parametrize("name", [*BUNDLED_CIRCUITS, "mul12"])
def test_parse_bench_matches_reference_parser_on_real_netlists(name):
    text = multiplier_bench(12) if name == "mul12" else bundled_bench_text(name)
    assert (parse_outcome(parse_bench, text)
            == parse_outcome(reference_parse_bench, text))


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_serialize_round_trip(name):
    c = bundled_circuit(name)
    again = parse_bench(serialize_bench(c), name=c.name)
    assert again.stats() == c.stats()
    assert again.primary_inputs == c.primary_inputs
    assert again.primary_outputs == c.primary_outputs
    assert {(g.id, g.kind, g.inputs) for g in again.gates} == {
        (g.id, g.kind, g.inputs) for g in c.gates
    }
    assert {(f.id, f.data) for f in again.flops} == {
        (f.id, f.data) for f in c.flops
    }


@st.composite
def random_dags(draw):
    """Random layered combinational circuits plus a sprinkling of flops."""
    n_pi = draw(st.integers(1, 4))
    pis = [f"i{k}" for k in range(n_pi)]
    nets = list(pis)
    gates = []
    n_gates = draw(st.integers(1, 8))
    two_in = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]
    for k in range(n_gates):
        out = f"g{k}"
        kind = draw(st.sampled_from(two_in + ["NOT", "BUF"]))
        arity = 1 if kind in ("NOT", "BUF") else 2
        ins = tuple(draw(st.sampled_from(nets)) for _ in range(arity))
        gates.append((out, kind, ins))
        nets.append(out)
    n_ff = draw(st.integers(0, 2))
    flops = []
    for k in range(n_ff):
        q = f"q{k}"
        flops.append((q, draw(st.sampled_from(nets))))
        nets.append(q)
    pos = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3, unique=True))
    return pis, pos, gates, flops


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_identity_on_random_circuits(spec):
    pis, pos, gates, flops = spec
    lines = [f"INPUT({p})" for p in pis]
    lines += [f"OUTPUT({p})" for p in pos]
    lines += [f"{q} = DFF({d})" for q, d in flops]
    lines += [f"{o} = {kind}({', '.join(ins)})" for o, kind, ins in gates]
    text = "\n".join(lines) + "\n"
    c = parse_bench(text, name="fuzz")
    again = parse_bench(serialize_bench(c), name="fuzz")
    assert {(g.id, g.kind, g.inputs) for g in again.gates} == {
        (g.id, g.kind, g.inputs) for g in c.gates
    }
    assert {(f.id, f.data) for f in again.flops} == {(f.id, f.data) for f in c.flops}
    assert again.primary_inputs == c.primary_inputs
    assert again.primary_outputs == c.primary_outputs


# ---------------------------------------------------------------------------
# validation diagnostics


def test_validate_combinational_cycle():
    c = parse_bench("INPUT(x)\nOUTPUT(a)\na = NOT(b)\nb = NOT(a)\n")
    diag = validate(c)
    assert not diag.ok
    assert [d.code for d in diag.errors] == ["combinational-cycle"]
    assert "a, b" in diag.errors[0].message


def test_validate_cycle_broken_by_flop_is_fine():
    c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(x, q)\n")
    assert validate(c).ok


def test_validate_dangling_reference():
    c = Circuit(
        name="bad",
        primary_inputs=("a",),
        primary_outputs=("z",),
        gates=(Gate(id="z", kind="AND", inputs=("a", "ghost")),),
        flops=(),
        nets=("a", "z"),
    )
    codes = [d.code for d in validate(c).errors]
    assert codes == ["dangling-ref"]


def test_validate_undriven_net():
    c = Circuit(
        name="bad",
        primary_inputs=("a",),
        primary_outputs=("z",),
        gates=(Gate(id="z", kind="AND", inputs=("a", "loose")),),
        flops=(),
        nets=("a", "z", "loose"),
    )
    codes = [d.code for d in validate(c).errors]
    assert codes == ["undriven-net"]
    assert "'loose'" in validate(c).errors[0].message


def test_validate_bad_fanin():
    c = Circuit(
        name="bad",
        primary_inputs=("a",),
        primary_outputs=("z",),
        gates=(Gate(id="z", kind="NOT", inputs=("a", "a")),),
        flops=(),
        nets=("a", "z"),
    )
    codes = [d.code for d in validate(c).errors]
    assert codes == ["bad-fanin"]


def test_validate_unknown_kind_on_handbuilt_circuit():
    c = Circuit(
        name="bad",
        primary_inputs=("a",),
        primary_outputs=("z",),
        gates=(Gate(id="z", kind="MUX", inputs=("a",)),),
        flops=(),
        nets=("a", "z"),
    )
    codes = [d.code for d in validate(c).errors]
    assert codes == ["unknown-kind"]


def reference_validate(circuit):
    """``validate`` as it was before its set checks, levelizing with
    ``reference_gate_order``."""
    diags = Diagnostics()
    pis, gates, flops = circuit.primary_inputs, circuit.gates, circuit.flops
    drivers = Counter(pis)
    drivers.update(g.id for g in gates)
    drivers.update(f.id for f in flops)

    for net, count in drivers.items():
        if count > 1:
            who = (["primary input"] * pis.count(net)
                   + [f"gate '{g.id}'" for g in gates if g.id == net]
                   + [f"flop '{f.id}'" for f in flops if f.id == net])
            diags.errors.append(Diagnostic(
                "duplicate-driver",
                f"net '{net}' driven by {count} cells: {', '.join(who)}"))
    nets = circuit.nets
    for net in nets:
        if net not in drivers:
            diags.errors.append(Diagnostic(
                "undriven-net", f"net '{net}' has no driver"))

    def dangling(net, what):
        diags.errors.append(Diagnostic(
            "dangling-ref", f"{what} references undeclared net '{net}'"))

    for g in gates:
        if g.kind not in GATE_KINDS:
            diags.errors.append(Diagnostic(
                "unknown-kind", f"gate '{g.id}' has unknown kind '{g.kind}'"))
        if len(g.inputs) < 1:
            diags.errors.append(Diagnostic(
                "bad-fanin", f"gate '{g.id}' has no inputs"))
        elif g.kind in ("NOT", "BUF") and len(g.inputs) != 1:
            diags.errors.append(Diagnostic(
                "bad-fanin",
                f"{g.kind} gate '{g.id}' must have exactly 1 input, "
                f"has {len(g.inputs)}"))
        for n in (*g.inputs, g.id):
            if n not in nets:
                dangling(n, f"gate '{g.id}'")
    for f in flops:
        if f.data not in nets:
            dangling(f.data, f"flop '{f.id}'")
    for n in circuit.primary_outputs:
        if n not in nets:
            dangling(n, "output declaration")

    seen_po = set()
    for n in circuit.primary_outputs:
        if n in seen_po:
            diags.warnings.append(Diagnostic(
                "duplicate-output", f"net '{n}' declared OUTPUT more than once"))
        seen_po.add(n)

    order = reference_gate_order(circuit)
    if isinstance(order, str):
        diags.errors.append(Diagnostic("combinational-cycle", order))
    return diags


_HAND_NETS = st.sampled_from(("a", "b", "c", "d", "e"))


@st.composite
def handbuilt_circuits(draw):
    """Circuits built without the parser, so every structural defect the
    parser rejects can occur: duplicate drivers of any two kinds, undriven
    and undeclared nets, bad fan-in, unknown kinds, repeated outputs and
    cycles.  ``nets`` is a frozenset or, as in hand-written tests, a tuple."""
    gates = tuple(
        Gate(id=out, kind=draw(st.sampled_from((*GATE_KINDS, "MUX"))),
             inputs=tuple(draw(st.lists(_HAND_NETS, max_size=3))))
        for out in draw(st.lists(_HAND_NETS, max_size=4)))
    flops = tuple(Flop(id=q, data=draw(_HAND_NETS))
                  for q in draw(st.lists(_HAND_NETS, max_size=2)))
    nets = draw(st.lists(_HAND_NETS, max_size=5, unique=True))
    return Circuit(
        name="hand",
        primary_inputs=tuple(draw(st.lists(_HAND_NETS, max_size=3))),
        primary_outputs=tuple(draw(st.lists(_HAND_NETS, max_size=3))),
        gates=gates, flops=flops,
        nets=tuple(nets) if draw(st.booleans()) else frozenset(nets))


@settings(max_examples=400, deadline=None)
@given(handbuilt_circuits())
def test_validate_matches_reference_on_handbuilt_circuits(circuit):
    assert validate(circuit) == reference_validate(circuit)
    try:
        order = circuit.gate_order
    except InvariantError as exc:
        order = str(exc)
    assert order == reference_gate_order(circuit)


def test_validate_duplicate_output_is_warning_only():
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n")
    diag = validate(c)
    assert diag.ok
    assert [d.code for d in diag.warnings] == ["duplicate-output"]


# ---------------------------------------------------------------------------
# levelization


def test_levelize_chain_order():
    c = parse_bench("INPUT(a)\nOUTPUT(d)\nb = NOT(a)\nc = NOT(b)\nd = AND(b, c)\n")
    assert list(c.gate_order) == ["b", "c", "d"]


def test_levelize_covers_every_gate_once():
    for name in BUNDLED_CIRCUITS:
        c = bundled_circuit(name)
        order = c.gate_order
        driver = driver_map(c)
        assert sorted(order) == sorted(g.id for g in c.gates)
        pos = {gid: i for i, gid in enumerate(order)}
        for g in c.gates:
            for n in g.inputs:
                kind, drv = driver.get(n, (None, None))
                if kind == "gate":
                    assert pos[drv.id] < pos[g.id]


def test_levelize_deterministic():
    assert bundled_circuit("s27").gate_order == bundled_circuit("s27").gate_order


def test_levelize_raises_on_cycle():
    c = parse_bench("INPUT(x)\nOUTPUT(a)\na = NOT(b)\nb = NOT(a)\n")
    with pytest.raises(InvariantError, match="combinational cycle"):
        c.gate_order


# ---------------------------------------------------------------------------
# boundary wrapping


def test_wrap_adds_one_flop_per_port():
    c = parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NAND(a, b)\n", name="nand2"
    )
    # c is declared but unused; it still gets an input flop.
    w = wrap_combinational(c)
    assert len(w.flops) == 4
    assert w.primary_inputs == ("a_pi", "b_pi", "c_pi")
    assert w.primary_outputs == ("y_po",)
    assert flop_by_id(w)["a"].data == "a_pi"
    assert flop_by_id(w)["y_po"].data == "y"
    assert w.gates == c.gates


def test_wrap_passthrough_becomes_two_flops_in_series():
    w = wrap_combinational(parse_bench("INPUT(a)\nOUTPUT(a)\n", name="pass"))
    assert w.stats() == {"inputs": 1, "outputs": 1, "gates": 0, "flops": 2, "nets": 3}
    assert [(f.id, f.data) for f in w.flops] == [("a", "a_pi"), ("a_po", "a")]


def test_wrap_c17_flop_count():
    w = wrap_combinational(bundled_circuit("c17"))
    assert len(w.flops) == 7
    assert validate(w).ok


def test_wrap_rejects_sequential_circuit():
    with pytest.raises(InvariantError, match="already contains flip-flops"):
        wrap_combinational(bundled_circuit("s27"))


def test_wrap_avoids_net_name_collisions():
    c = parse_bench("INPUT(a)\nINPUT(a_pi)\nOUTPUT(z)\nz = AND(a, a_pi)\n")
    w = wrap_combinational(c)
    assert sorted(w.nets) == ["a", "a_pi", "a_pi_pi", "a_pi_w", "z", "z_po"]
    assert flop_by_id(w)["a"].data == "a_pi_w"
    assert flop_by_id(w)["a_pi"].data == "a_pi_pi"


def test_wrap_result_serializes_and_validates():
    for name in ("c17", "decoder3to8"):
        w = wrap_combinational(bundled_circuit(name))
        again = parse_bench(serialize_bench(w), name=w.name)
        assert validate(again).ok
        assert again.stats() == w.stats()


@pytest.mark.parametrize("name", [n for n in BUNDLED_CIRCUITS
                                  if not bundled_circuit(n).flops]
                         + ["mul4", "mul8", "mul12"])
def test_wrap_carries_a_computed_gate_order(name):
    if name.startswith("mul"):
        c = parse_bench(multiplier_bench(int(name[3:])), name=name)
    else:
        c = bundled_circuit(name)
    assert validate(c).ok
    w = wrap_combinational(c)
    assert "gate_order" in w.__dict__
    fresh = Circuit(**{f.name: getattr(w, f.name)
                       for f in dataclasses.fields(Circuit)})
    assert "gate_order" not in fresh.__dict__
    assert w.gate_order == fresh.gate_order


def test_wrap_leaves_an_uncomputed_or_cyclic_order_to_the_wrapped_circuit():
    w = wrap_combinational(bundled_circuit("c17"))
    assert "gate_order" not in w.__dict__
    assert w.gate_order == bundled_circuit("c17").gate_order
    cyclic = parse_bench("INPUT(x)\nOUTPUT(a)\na = NOT(b)\nb = NOT(a)\n")
    assert not validate(cyclic).ok
    w = wrap_combinational(cyclic)
    with pytest.raises(InvariantError, match="combinational cycle"):
        w.gate_order


# ---------------------------------------------------------------------------
# structural helpers


def test_controlling_values_table():
    assert CONTROLLING["AND"] == 0
    assert CONTROLLING["NAND"] == 0
    assert CONTROLLING["OR"] == 1
    assert CONTROLLING["NOR"] == 1
    for kind in ("XOR", "XNOR", "NOT", "BUF"):
        assert CONTROLLING[kind] is None


def test_gate_fanout_and_driver_maps():
    c = bundled_circuit("toy_mask")
    driver = driver_map(c)
    kind, drv = driver["g1"]
    assert kind == "gate" and drv.id == "g1"
    kind, drv = driver["f1"]
    assert kind == "flop" and drv.id == "f1"
    kind, _ = driver["a"]
    assert kind == "pi"
    sinks = {g.id for g in c.gate_fanout["g1"]}
    assert sinks == {"g2"}
    assert latches(c) == {"g2": [(0, "f1", "g2")], "g3": [(1, "f2", "g3")]}
