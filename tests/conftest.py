"""Shared fixtures: bundled-file loaders, hand-rolled test profiles, and an
independent recursive net evaluator used as an oracle for the golden
simulator."""

import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

from seusim.netlist import parse_bench
from seusim.techmodel import load_profile


def bundled_bench_text(name):
    ref = resources.files("seusim").joinpath(f"data/circuits/{name}.bench")
    return ref.read_text(encoding="utf-8")


def bundled_circuit(name):
    return parse_bench(bundled_bench_text(name), name=name)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's n-bit array multiplier generator, reused as a test input.
multiplier_bench = _load_perfbench_module("mulgen").multiplier_bench


BUNDLED_CIRCUITS = ("c17", "s27", "decoder3to8", "lfsr8", "fsm3",
                    "toy_chain", "toy_fanout", "toy_mask")


@pytest.fixture
def load_circuit():
    return bundled_circuit


def profile_from(doc):
    return load_profile(json.dumps(doc), source="<test>")


def gate_sites(area=0.5):
    return [{"area": area, "polarity": "pulls-low"},
            {"area": area, "polarity": "pulls-high"}]


def dff_sites(state=1.0, capture=0.5):
    return [
        {"area": state, "polarity": "pulls-low",
         "ff_node_class": "state-node"},
        {"area": state, "polarity": "pulls-high",
         "ff_node_class": "state-node"},
        {"area": capture, "polarity": "pulls-low",
         "ff_node_class": "capture-node"},
        {"area": capture, "polarity": "pulls-high",
         "ff_node_class": "capture-node"},
    ]


def chain_profile_doc(**overrides):
    """Round-number profile for the hand-traced chain circuits.

    With a single NOT between the flops: critical path 100, clock period
    60 + 100 + 40 + 100 = 300, settle bound 160.
    """
    doc = {
        "node_label": "chain-test",
        "gate_delay": {"NOT1": 100, "BUF1": 100, "XOR2": 50},
        "ff_setup": 40,
        "ff_hold": 20,
        "ff_clk_to_q": 60,
        "clock_margin": 100,
        "glitch_width": 150,
        "filter_threshold": 1.0,
        "drain_spec": {
            "NOT": gate_sites(),
            "BUF": gate_sites(),
            "XOR": gate_sites(),
            "DFF": dff_sites(),
        },
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def chain_profile():
    return profile_from(chain_profile_doc())


CHAIN1 = """\
INPUT(x)
OUTPUT(B)
A = DFF(x)
B = DFF(ny)
ny = NOT(A)
"""

CHAIN2 = """\
INPUT(x)
OUTPUT(B)
A = DFF(x)
B = DFF(g2)
g1 = NOT(A)
g2 = NOT(g1)
"""

CHAIN3 = """\
INPUT(x)
OUTPUT(B)
A = DFF(x)
B = DFF(g3)
g1 = NOT(A)
g2 = NOT(g1)
g3 = NOT(g2)
"""


@pytest.fixture
def chain1():
    return parse_bench(CHAIN1, name="chain1")


@pytest.fixture
def chain2():
    return parse_bench(CHAIN2, name="chain2")


@pytest.fixture
def chain3():
    return parse_bench(CHAIN3, name="chain3")


def serialize_bench(circuit):
    """Render a Circuit back to bench text (parse -> serialize round-trips)."""
    lines = [f"# {circuit.name}"]
    lines += [f"INPUT({n})" for n in circuit.primary_inputs]
    lines += [f"OUTPUT({n})" for n in circuit.primary_outputs]
    if circuit.flops:
        lines.append("")
        lines += [f"{f.id} = DFF({f.data})" for f in circuit.flops]
    if circuit.gates:
        lines.append("")
        lines += [f"{g.id} = {g.kind}({', '.join(g.inputs)})"
                  for g in circuit.gates]
    return "\n".join(lines) + "\n"


def driver_map(circuit):
    """net -> ("pi", None) | ("gate", Gate) | ("flop", Flop); first wins."""
    out = {}
    for pi in circuit.primary_inputs:
        out.setdefault(pi, ("pi", None))
    for g in circuit.gates:
        out.setdefault(g.id, ("gate", g))
    for f in circuit.flops:
        out.setdefault(f.id, ("flop", f))
    return out


def flop_by_id(circuit):
    """flop id -> Flop of ``circuit``."""
    return {f.id: f for f in circuit.flops}


def settled_map(trace, cycle):
    """net -> settled value of every net in one cycle of a golden trace."""
    return {net: m >> cycle & 1 for net, m in trace.net_masks.items()}


def site_by_id(table, site_id):
    """The drain site called ``site_id``; KeyError when there is none."""
    for s in table.sites:
        if s.id == site_id:
            return s
    raise KeyError(site_id)


def flop_value(trace, cycle, flop_id):
    """State of flop ``flop_id`` during ``cycle`` of a golden trace: the
    value of its output net."""
    return trace.net_value(cycle, flop_id)


def flop_states(trace):
    """Per-cycle tuples of every flop's state, in ``trace.flop_ids`` order."""
    return tuple(tuple(flop_value(trace, c, f) for f in trace.flop_ids)
                 for c in range(trace.cycle_count))


def find_site(table, cell, ff_node_class=None, polarity=None):
    """The unique drain site of ``cell`` matching the given attributes."""
    hits = [s for s in table.sites
            if s.cell == cell
            and (ff_node_class is None or s.ff_node_class == ff_node_class)
            and (polarity is None or s.polarity == polarity)]
    assert len(hits) == 1, f"expected one site, found {len(hits)}"
    return hits[0]


# Independent of the golden simulator on purpose: it is tested against this,
# not against itself.
_LOGIC = {
    "AND": lambda vs: int(all(vs)),
    "NAND": lambda vs: int(not all(vs)),
    "OR": lambda vs: int(any(vs)),
    "NOR": lambda vs: int(not any(vs)),
    "XOR": lambda vs: sum(vs) % 2,
    "XNOR": lambda vs: (sum(vs) + 1) % 2,
    "NOT": lambda vs: 1 - vs[0],
    "BUF": lambda vs: vs[0],
}


def truth_eval(circuit, pi_bits, flop_bits=None):
    """Recursively evaluate every net from primary-input (and flop-state)
    assignments; returns {net: bit}.  ``pi_bits`` may be a mapping keyed by
    input name or a sequence in primary-input order."""
    if isinstance(pi_bits, dict):
        values = dict(pi_bits)
    else:
        values = dict(zip(circuit.primary_inputs, pi_bits))
    if flop_bits:
        values.update(flop_bits)
    driver = driver_map(circuit)

    def resolve(net):
        if net in values:
            return values[net]
        kind, drv = driver[net]
        assert kind == "gate", f"net '{net}' has no value and no gate driver"
        values[net] = _LOGIC[drv.kind]([resolve(n) for n in drv.inputs])
        return values[net]

    for net in circuit.nets:
        resolve(net)
    return values
