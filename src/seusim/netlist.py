"""Bench-format netlist parsing, validation, and structural transforms.

The accepted dialect is the classic ISCAS one:

    # comment
    INPUT(net)
    OUTPUT(net)
    net = KIND(net, net, ...)

with KIND one of AND, NAND, OR, NOR, NOT, BUF, XOR, XNOR plus DFF as a
pseudo-gate ``q = DFF(d)``.  Net names are case-sensitive; kinds are
normalized to upper case so files written with lower-case kinds still load.
Nets are declared by being an INPUT or the target of an assignment; every
other mention is a reference and must resolve.
"""

import re
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import BenchParseError, InvariantError

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "NOT", "BUF", "XOR", "XNOR")

# Controlling input value per kind, None where no value is controlling.
CONTROLLING = {
    "AND": 0,
    "NAND": 0,
    "OR": 1,
    "NOR": 1,
    "NOT": None,
    "BUF": None,
    "XOR": None,
    "XNOR": None,
}


@dataclass(frozen=True)
class Gate:
    """One combinational gate, named by the net it drives."""

    id: str
    kind: str
    inputs: tuple


@dataclass(frozen=True)
class Flop:
    """A D flip-flop, named by its output net."""

    id: str
    data: str


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    location: str = ""

    def __str__(self):
        loc = f" ({self.location})" if self.location else ""
        return f"{self.code}: {self.message}{loc}"


@dataclass
class Diagnostics:
    """Validation outcome: empty ``errors`` means every invariant holds."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors


@dataclass(frozen=True)
class Circuit:
    """Immutable gate-level circuit.

    ``nets`` is the set of declared nets; declaration order is preserved in
    ``primary_inputs`` / ``primary_outputs`` / ``gates`` / ``flops`` so that
    identical sources always produce identical iteration order downstream.
    """

    name: str
    primary_inputs: tuple
    primary_outputs: tuple
    gates: tuple
    flops: tuple
    nets: frozenset

    @cached_property
    def gate_by_id(self):
        return {g.id: g for g in self.gates}

    @cached_property
    def gate_fanout(self):
        """net -> tuple of gates reading it, in declaration order."""
        out = {}
        for g in self.gates:
            for n in g.inputs:
                out.setdefault(n, []).append(g)
        return {n: tuple(gs) for n, gs in out.items()}

    @cached_property
    def gate_order(self):
        """Topological order of gate ids (flop boundaries cut the graph).

        Ties are broken by declaration order, so the result is
        deterministic for a given circuit.  Raises InvariantError on a
        combinational cycle (and, not being cached then, on every access).
        """
        gates = self.gates
        # a net that is also a primary input has no gate driver
        gate_driven = {g.id for g in gates}.difference(self.primary_inputs)
        indeg = {}
        succs = {g.id: [] for g in gates}
        for g in gates:
            count = 0
            for n in g.inputs:
                if n in gate_driven:
                    count += 1
                    succs[n].append(g.id)
            indeg[g.id] = count

        ready = deque(g.id for g in gates if indeg[g.id] == 0)
        order = []
        while ready:
            gid = ready.popleft()
            order.append(gid)
            for nxt in succs[gid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(gates):
            stuck = sorted(gid for gid, d in indeg.items() if d > 0)
            raise InvariantError(
                "combinational cycle through gates: " + ", ".join(stuck[:8]))
        return tuple(order)

    def stats(self):
        return {
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "gates": len(self.gates),
            "flops": len(self.flops),
            "nets": len(self.nets),
        }


_DECL_RE = re.compile(r"(INPUT|OUTPUT)\s*\(\s*([^\s(),=#]+)\s*\)\s*$")
_ASSIGN_RE = re.compile(
    r"([^\s(),=#]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^()#]*?)\s*\)\s*$"
)
# The argument text of an assignment has no edge whitespace, so splitting it
# at commas with their surrounding whitespace strips every argument.
_ARG_SEP_RE = re.compile(r"\s*,\s*")
_BAD_ARG_RE = re.compile(r"[\s(),=#]")
_GATE_KINDS = frozenset(GATE_KINDS)
_CELL_KINDS = _GATE_KINDS | {"DFF"}
_NETS = itemgetter(0)        # the nets of a reference record
_ONE_INPUT_KINDS = frozenset(("NOT", "BUF"))


def parse_bench(text, name="bench"):
    """Parse bench-format ``text`` into a Circuit.

    Raises BenchParseError on the first syntax error and, after a full scan,
    on duplicate drivers, unknown gate kinds, or references to undeclared
    nets.  Positions are 1-based (line, col).
    """
    pis, pos, gates, flops = [], [], [], []
    declared = {}          # net -> line of its driver declaration
    refs = []              # (nets, line, col, gate they feed or None: OUTPUT)
    dup_errors = []
    match_assign, match_decl = _ASSIGN_RE.match, _DECL_RE.match
    split_args, bad_arg = _ARG_SEP_RE.split, _BAD_ARG_RE.search

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        # both patterns end in \s*$, so they match the left-stripped line
        body = line.lstrip()
        if not body:
            continue
        col0 = len(line) - len(body) + 1

        # only an assignment can hold a '=', so each line has one candidate
        if "=" not in body:
            m = match_decl(body)
            if m:
                kw, net = m.groups()
                if kw == "INPUT":
                    if net in declared:
                        dup_errors.append(
                            ("duplicate-driver",
                             f"net '{net}' already driven", lineno, col0))
                    else:
                        declared[net] = lineno
                    pis.append(net)
                else:
                    pos.append(net)
                    refs.append(((net,), lineno, col0, None))
                continue
        elif m := match_assign(body):
            target, kind_raw, argtext = m.groups()
            kind = kind_raw.upper()
            if kind not in _CELL_KINDS:
                raise BenchParseError(
                    f"unknown gate kind '{kind_raw}'", lineno,
                    col0 + m.start(2))
            args = split_args(argtext)
            if "" in args:
                raise BenchParseError(
                    f"empty argument list for '{target}'", lineno,
                    col0 + m.start(3))
            if bad_arg("".join(args)):
                bad = next(a for a in args if bad_arg(a))
                raise BenchParseError(
                    f"malformed argument '{bad}'", lineno, col0 + m.start(3))
            refs.append((args, lineno, col0, target))
            if first := declared.get(target):
                dup_errors.append(
                    ("duplicate-driver",
                     f"net '{target}' already driven (first at line {first})",
                     lineno, col0))
            else:
                declared[target] = lineno
            if kind == "DFF":
                if len(args) != 1:
                    raise BenchParseError(
                        "DFF takes exactly one input", lineno, col0)
                flops.append(Flop(target, args[0]))
            else:
                gates.append(Gate(target, kind, tuple(args)))
            continue

        raise BenchParseError(f"cannot parse line: '{body.rstrip()}'",
                              lineno, col0)

    errors = dup_errors
    # each reference is looked at only when some net is undeclared
    if not declared.keys() >= set(chain.from_iterable(map(_NETS, refs))):
        for nets, lineno, col, target in refs:
            for net in nets:
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


def validate(circuit):
    """Check structural invariants; returns Diagnostics (never raises).

    Errors: duplicate net drivers, dangling references, undriven nets,
    fan-in violations (>=1 everywhere, exactly 1 for NOT/BUF/DFF), unknown
    gate kinds, and combinational cycles.
    """
    diags = Diagnostics()
    errors = diags.errors
    pis, gates, flops = circuit.primary_inputs, circuit.gates, circuit.flops
    pos = circuit.primary_outputs
    outputs = [*pis, *[g.id for g in gates], *[f.id for f in flops]]
    driven = set(outputs)
    if len(driven) != len(outputs):
        # net -> number of driving cells; the cells are named only on error
        for net, count in Counter(outputs).items():
            if count > 1:
                who = (["primary input"] * pis.count(net)
                       + [f"gate '{g.id}'" for g in gates if g.id == net]
                       + [f"flop '{f.id}'" for f in flops if f.id == net])
                errors.append(Diagnostic(
                    "duplicate-driver",
                    f"net '{net}' driven by {count} cells: {', '.join(who)}"))
    nets = circuit.nets
    if not driven.issuperset(nets):
        for net in nets:
            if net not in driven:
                errors.append(Diagnostic(
                    "undriven-net", f"net '{net}' has no driver"))

    declared = frozenset(nets)   # hand-built circuits may pass a tuple

    def dangling(net, what):
        errors.append(Diagnostic(
            "dangling-ref", f"{what} references undeclared net '{net}'"))

    for g in gates:
        kind, ins = g.kind, g.inputs
        if kind not in _GATE_KINDS:
            errors.append(Diagnostic(
                "unknown-kind", f"gate '{g.id}' has unknown kind '{kind}'"))
        if not ins:
            errors.append(Diagnostic(
                "bad-fanin", f"gate '{g.id}' has no inputs"))
        elif len(ins) != 1 and kind in _ONE_INPUT_KINDS:
            errors.append(Diagnostic(
                "bad-fanin",
                f"{kind} gate '{g.id}' must have exactly 1 input, "
                f"has {len(ins)}"))
        if g.id not in declared or not declared.issuperset(ins):
            for n in (*ins, g.id):
                if n not in declared:
                    dangling(n, f"gate '{g.id}'")
    for f in flops:
        if f.data not in declared:
            dangling(f.data, f"flop '{f.id}'")
    for n in pos:
        if n not in declared:
            dangling(n, "output declaration")

    seen_po = set()
    for n in pos:
        if n in seen_po:
            diags.warnings.append(Diagnostic(
                "duplicate-output", f"net '{n}' declared OUTPUT more than once"))
        seen_po.add(n)

    try:
        circuit.gate_order  # computing the order raises on a cycle
    except InvariantError as exc:
        errors.append(Diagnostic("combinational-cycle", str(exc)))
    return diags


def _fresh_net(base, taken):
    name = base
    while name in taken:
        name += "_w"
    taken.add(name)
    return name


def wrap_combinational(circuit):
    """Register the boundary of a flop-free circuit.

    Every primary input gains an input flop whose output takes over the
    original net (the combinational core is untouched; the pad net feeding
    the flop gets a fresh name).  Every primary output is latched into an
    output flop whose output becomes the new primary output net.  Adds
    exactly |PI| + |PO| flops; input-to-output latency becomes two cycles.
    Wrapping adds no gate-to-gate edge, so a ``gate_order`` the core has
    already computed is carried over; one it has not is left for the
    wrapped circuit to compute (and, on a cycle, to raise) on first use.
    """
    if circuit.flops:
        raise InvariantError(
            f"circuit '{circuit.name}' already contains flip-flops")
    taken = set(circuit.nets)
    new_pis, flops = [], []
    for pi in circuit.primary_inputs:
        pad = _fresh_net(pi + "_pi", taken)
        new_pis.append(pad)
        flops.append(Flop(id=pi, data=pad))
    new_pos = []
    for po in circuit.primary_outputs:
        q = _fresh_net(po + "_po", taken)
        new_pos.append(q)
        flops.append(Flop(id=q, data=po))
    wrapped = Circuit(
        name=circuit.name,
        primary_inputs=tuple(new_pis),
        primary_outputs=tuple(new_pos),
        gates=circuit.gates,
        flops=tuple(flops),
        nets=frozenset(taken),
    )
    if "gate_order" in circuit.__dict__:
        wrapped.__dict__["gate_order"] = circuit.gate_order
    return wrapped
