"""Tests for gate evaluation, stimulus handling, and the reference simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.errors import InvariantError, StimulusError
from seusim.golden import (
    Stimulus,
    eval_gate,
    parse_stimulus,
    simulate_reference,
)
from seusim.netlist import parse_bench, wrap_combinational

from conftest import bundled_circuit, truth_eval


# ---------------------------------------------------------------------------
# gate evaluation


@pytest.mark.parametrize(
    "kind, values, expected",
    [
        ("AND", (1, 1), 1),
        ("AND", (1, 0), 0),
        ("AND", (1, 1, 1), 1),
        ("NAND", (1, 1), 0),
        ("NAND", (0, 1), 1),
        ("OR", (0, 0), 0),
        ("OR", (0, 1), 1),
        ("NOR", (0, 0), 1),
        ("NOR", (1, 0), 0),
        ("XOR", (1, 0), 1),
        ("XOR", (1, 1), 0),
        ("XNOR", (1, 0), 0),
        ("XNOR", (0, 0), 1),
        ("NOT", (1,), 0),
        ("NOT", (0,), 1),
        ("BUF", (1,), 1),
        ("BUF", (0,), 0),
    ],
)
def test_eval_gate_truth_tables(kind, values, expected):
    assert eval_gate(kind, values) == expected


def test_eval_gate_unknown_kind():
    with pytest.raises(InvariantError, match="cannot evaluate gate kind 'MUX'"):
        eval_gate("MUX", (1, 0))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=4))
def test_eval_gate_inversion_pairs(bits):
    vals = tuple(bits)
    assert eval_gate("NAND", vals) == 1 - eval_gate("AND", vals)
    assert eval_gate("NOR", vals) == 1 - eval_gate("OR", vals)
    assert eval_gate("XNOR", vals) == 1 - eval_gate("XOR", vals)


# ---------------------------------------------------------------------------
# stimulus


def test_stimulus_requires_three_cycles():
    with pytest.raises(StimulusError, match="at least 3 cycles"):
        Stimulus.explicit([(1,)])
    with pytest.raises(StimulusError):
        Stimulus.random(2, seed=1)


def test_stimulus_rejects_unknown_mode():
    with pytest.raises(StimulusError, match="unknown stimulus mode"):
        Stimulus(mode="weird", cycle_count=5)


def test_random_stimulus_is_deterministic():
    a = Stimulus.random(8, seed=3).resolve_vectors(4)
    b = Stimulus.random(8, seed=3).resolve_vectors(4)
    c = Stimulus.random(8, seed=4).resolve_vectors(4)
    assert a == b
    assert a != c
    assert len(a) == 8
    assert all(len(v) == 4 and set(v) <= {0, 1} for v in a)


def test_parse_stimulus_random_directive():
    s = parse_stimulus("# drive it randomly\nrandom 12 7\n")
    assert s.mode == "random"
    assert s.cycle_count == 12
    assert s.rng_seed == 7


def test_parse_stimulus_explicit_lines():
    s = parse_stimulus("10\n01\n11\n")
    assert s.mode == "explicit"
    assert s.vectors == ((1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty stimulus"),
        ("random 5", "random directive must be the only line"),
        ("random 5 1\n10", "random directive must be the only line"),
        ("random x y", "integer cycles and seed"),
        ("12\n01\n00", "expected only 0/1"),
    ],
)
def test_parse_stimulus_rejects(text, message):
    with pytest.raises(StimulusError, match=message):
        parse_stimulus(text)


def test_vector_width_checked_against_circuit():
    c = parse_bench("INPUT(x)\nINPUT(y)\nOUTPUT(q)\nq = DFF(d)\nd = AND(x, y)\n")
    with pytest.raises(StimulusError, match="vector has 1 bits"):
        simulate_reference(c, Stimulus.explicit([(1,), (0,), (1,)]))


def test_initial_state_width_checked():
    c = parse_bench("INPUT(x)\nINPUT(y)\nOUTPUT(q)\nq = DFF(d)\nd = AND(x, y)\n")
    stim = Stimulus.explicit([(1, 0)] * 3, initial_state=(1, 0))
    with pytest.raises(StimulusError, match="initial state has 2 bits"):
        simulate_reference(c, stim)


# ---------------------------------------------------------------------------
# reference simulation


def test_shift_register_states():
    c = parse_bench(
        "INPUT(x)\nOUTPUT(q2)\nq1 = DFF(x)\nq2 = DFF(q1)\n", name="shift2"
    )
    tr = simulate_reference(c, Stimulus.explicit([(1,), (0,), (1,), (0,)]))
    assert tr.flop_ids == ("q1", "q2")
    assert tr.flop_states == ((0, 0), (1, 0), (0, 1), (1, 0))


def test_initial_state_is_honoured():
    c = parse_bench("INPUT(x)\nINPUT(y)\nOUTPUT(q)\nq = DFF(d)\nd = AND(x, y)\n")
    stim = Stimulus.explicit([(1, 0)] * 3, initial_state=(1,))
    tr = simulate_reference(c, stim)
    assert tr.flop_states == ((1,), (0,), (0,))


def test_wrapped_nand_two_cycle_latency():
    w = wrap_combinational(
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", name="nand2")
    )
    tr = simulate_reference(w, Stimulus.explicit([(1, 1)] * 4))
    # flops reset to 0, so the first captured NAND value is NAND(0,0) = 1;
    # the held (1,1) input only reaches the output flop one cycle later.
    assert tr.flop_value(1, "y_po") == 1
    assert tr.flop_value(2, "y_po") == 0
    assert tr.flop_value(3, "y_po") == 0


def test_trace_state_advances_by_settled_data():
    c = bundled_circuit("fsm3")
    tr = simulate_reference(c, Stimulus.random(10, seed=5))
    for cyc in range(tr.cycle_count - 1):
        settled = tr.settled_map(cyc)
        for i, f in enumerate(c.flops):
            assert tr.flop_states[cyc + 1][i] == settled[f.data]


@pytest.mark.parametrize("name", ["fsm3", "toy_mask", "s27", "lfsr8"])
def test_settled_nets_match_independent_evaluation(name):
    c = bundled_circuit(name)
    tr = simulate_reference(c, Stimulus.random(8, seed=11))
    for cyc in range(tr.cycle_count):
        pis = dict(zip(c.primary_inputs, tr.pi_vectors[cyc]))
        flops = {f.output: tr.flop_states[cyc][i] for i, f in enumerate(c.flops)}
        expected = truth_eval(c, pis, flops)
        settled = tr.settled_map(cyc)
        for net, val in expected.items():
            assert settled[net] == val, f"{name} cycle {cyc} net {net}"


def test_simulation_restarts_from_any_cycle():
    c = bundled_circuit("lfsr8")
    tr = simulate_reference(c, Stimulus.random(12, seed=9))
    k = 5
    rest = Stimulus.explicit(
        list(tr.pi_vectors[k:]), initial_state=tr.flop_states[k]
    )
    tr2 = simulate_reference(c, rest)
    assert tr2.flop_states == tr.flop_states[k:]


def test_trace_accessors():
    c = bundled_circuit("toy_chain")
    tr = simulate_reference(c, Stimulus.explicit([(1,), (1,), (0,), (1,)]))
    assert tr.cycle_count == 4
    assert tr.circuit_name == "toy_chain"
    assert set(tr.net_ids) == set(c.nets)
    assert tr.net_value(0, "x") == 1
    assert tr.net_value(2, "x") == 0
    assert tr.flop_value(0, "f1") == 0


def test_trace_csv_shape():
    c = bundled_circuit("toy_chain")
    tr = simulate_reference(c, Stimulus.random(5, seed=2))
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "cycle,flop,bit"
    assert len(lines) == 1 + 5 * len(c.flops)
    assert lines[1].startswith("0,")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_random_traces_reproducible(seed):
    c = bundled_circuit("toy_fanout")
    a = simulate_reference(c, Stimulus.random(6, seed=seed))
    b = simulate_reference(c, Stimulus.random(6, seed=seed))
    assert a.pi_vectors == b.pi_vectors
    assert a.flop_states == b.flop_states
