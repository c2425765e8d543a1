"""Tests for gate evaluation, stimulus handling, and the reference simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim import golden
from seusim.errors import InputError, InvariantError, StimulusError
from seusim.golden import (
    Stimulus,
    Trace,
    parse_stimulus,
    simulate_reference,
)
from seusim.netlist import (GATE_KINDS, Circuit, Flop, Gate, parse_bench,
                            wrap_combinational)

from conftest import (BUNDLED_CIRCUITS, bundled_circuit, flop_states,
                      flop_value, multiplier_bench, settled_map, truth_eval)


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


def reference_random_vectors(stimulus, n_inputs):
    """Random vectors drawn one ``getrandbits(1)`` call per bit, cycle by
    cycle in input order: the draw ``Stimulus.resolve_vectors`` must equal."""
    rng = random.Random(stimulus.rng_seed)
    return tuple(
        tuple(rng.getrandbits(1) for _ in range(n_inputs))
        for _ in range(stimulus.cycle_count))


@pytest.mark.parametrize("seed", [0, 1, -5, 2**70])
def test_random_vectors_match_per_bit_draws(seed):
    for cycles in (3, 4, 31, 32, 33, 64, 65, 200):
        for n_inputs in range(41):
            stim = Stimulus.random(cycles, seed)
            assert (stim.resolve_vectors(n_inputs)
                    == reference_random_vectors(stim, n_inputs)), \
                (cycles, n_inputs)


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


_STIMULUS_TOKENS = ("random", " ", "\t", "\n", "\r", "#", "0", "1", "01", "2",
                    "-", "x", "12", "99999999999999999999", "\u00e9")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(_STIMULUS_TOKENS), max_size=20).map("".join),
))
def test_parse_stimulus_parses_or_raises_input_error(text):
    try:
        parse_stimulus(text)
    except InputError:
        pass


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
    assert flop_states(tr) == ((0, 0), (1, 0), (0, 1), (1, 0))


def test_initial_state_is_honoured():
    c = parse_bench("INPUT(x)\nINPUT(y)\nOUTPUT(q)\nq = DFF(d)\nd = AND(x, y)\n")
    stim = Stimulus.explicit([(1, 0)] * 3, initial_state=(1,))
    tr = simulate_reference(c, stim)
    assert flop_states(tr) == ((1,), (0,), (0,))


def test_wrapped_nand_two_cycle_latency():
    w = wrap_combinational(
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", name="nand2")
    )
    tr = simulate_reference(w, Stimulus.explicit([(1, 1)] * 4))
    # flops reset to 0, so the first captured NAND value is NAND(0,0) = 1;
    # the held (1,1) input only reaches the output flop one cycle later.
    assert flop_value(tr, 1, "y_po") == 1
    assert flop_value(tr, 2, "y_po") == 0
    assert flop_value(tr, 3, "y_po") == 0


def test_trace_state_advances_by_settled_data():
    c = bundled_circuit("fsm3")
    tr = simulate_reference(c, Stimulus.random(10, seed=5))
    for cyc in range(tr.cycle_count - 1):
        settled = settled_map(tr, cyc)
        for f in c.flops:
            assert flop_value(tr, cyc + 1, f.id) == settled[f.data]


@pytest.mark.parametrize("name", ["fsm3", "toy_mask", "s27", "lfsr8"])
def test_settled_nets_match_independent_evaluation(name):
    c = bundled_circuit(name)
    stim = Stimulus.random(8, seed=11)
    tr = simulate_reference(c, stim)
    vectors = stim.resolve_vectors(len(c.primary_inputs))
    for cyc in range(tr.cycle_count):
        flops = {f.id: flop_value(tr, cyc, f.id) for f in c.flops}
        expected = truth_eval(c, vectors[cyc], flops)
        settled = settled_map(tr, cyc)
        for net, val in expected.items():
            assert settled[net] == val, f"{name} cycle {cyc} net {net}"


def test_simulation_restarts_from_any_cycle():
    c = bundled_circuit("lfsr8")
    stim = Stimulus.random(12, seed=9)
    tr = simulate_reference(c, stim)
    k = 5
    rest = Stimulus.explicit(
        stim.resolve_vectors(len(c.primary_inputs))[k:],
        initial_state=flop_states(tr)[k],
    )
    tr2 = simulate_reference(c, rest)
    assert flop_states(tr2) == flop_states(tr)[k:]
    assert tr2.net_masks == {n: m >> k for n, m in tr.net_masks.items()}


def test_trace_accessors():
    c = bundled_circuit("toy_chain")
    tr = simulate_reference(c, Stimulus.explicit([(1,), (1,), (0,), (1,)]))
    assert tr.cycle_count == 4
    assert tr.flop_ids == tuple(f.id for f in c.flops)
    assert set(tr.net_masks) == set(c.nets)
    assert tr.net_value(0, "x") == 1
    assert tr.net_value(2, "x") == 0
    assert flop_value(tr, 0, "f1") == 0


@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_net_masks_hold_the_settled_values(name):
    # bit c of a net's mask is its value in cycle c by an independent
    # evaluation, across packed blocks; settled_map reads the same bits
    c = bundled_circuit(name)
    stim = Stimulus.random(130, seed=2)
    tr = simulate_reference(c, stim)
    vectors = stim.resolve_vectors(len(c.primary_inputs))
    assert len(tr.net_masks) == len(c.nets)
    assert all(m >> tr.cycle_count == 0 for m in tr.net_masks.values())
    for cyc in range(tr.cycle_count):
        flops = {f.id: flop_value(tr, cyc, f.id) for f in c.flops}
        expected = truth_eval(c, vectors[cyc], flops)
        assert {net: m >> cyc & 1 for net, m in tr.net_masks.items()} == expected
        assert settled_map(tr, cyc) == expected


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
    assert a == b


# ---------------------------------------------------------------------------
# the packed simulator against a cycle-by-cycle one


def eval_gate(kind, values):
    """Value of one gate in one cycle: the rule the packed passes apply."""
    if kind == "AND":
        return 1 if all(values) else 0
    if kind == "NAND":
        return 0 if all(values) else 1
    if kind == "OR":
        return 1 if any(values) else 0
    if kind == "NOR":
        return 0 if any(values) else 1
    if kind == "XOR":
        return sum(values) & 1
    if kind == "XNOR":
        return 1 - (sum(values) & 1)
    if kind == "NOT":
        return 1 - values[0]
    if kind == "BUF":
        return values[0]
    raise InvariantError(f"cannot evaluate gate kind '{kind}'")


def reference_simulate(circuit, stimulus):
    """Cycle-by-cycle golden run: every gate once per cycle via eval_gate.

    The packed ``simulate_reference`` must return a Trace equal to this.
    """
    n_inputs = len(circuit.primary_inputs)
    if stimulus.mode == "random":
        vectors = reference_random_vectors(stimulus, n_inputs)
    else:
        vectors = stimulus.resolve_vectors(n_inputs)
    n_flops = len(circuit.flops)
    if stimulus.initial_state is None:
        state = tuple(0 for _ in range(n_flops))
    else:
        state = tuple(int(b) for b in stimulus.initial_state)
        if len(state) != n_flops:
            raise StimulusError(
                f"initial state has {len(state)} bits, circuit has "
                f"{n_flops} flops")

    order = circuit.gate_order
    gate_by_id = circuit.gate_by_id
    net_ids = (tuple(circuit.primary_inputs)
               + tuple(f.id for f in circuit.flops)
               + tuple(g.id for g in circuit.gates))

    settled_rows = []
    for vec in vectors:
        values = dict(zip(circuit.primary_inputs, vec))
        for f, bit in zip(circuit.flops, state):
            values[f.id] = bit
        for gid in order:
            g = gate_by_id[gid]
            values[gid] = eval_gate(g.kind, [values[n] for n in g.inputs])
        settled_rows.append(tuple(values[n] for n in net_ids))
        state = tuple(values[f.data] for f in circuit.flops)

    return Trace(
        cycle_count=len(vectors),
        flop_ids=tuple(f.id for f in circuit.flops),
        net_masks={net: sum(row[i] << c for c, row in enumerate(settled_rows))
                   for i, net in enumerate(net_ids)},
    )


def assert_same_trace(circuit, stimulus):
    packed = simulate_reference(circuit, stimulus)
    assert packed == reference_simulate(circuit, stimulus)
    return packed


# 64 cycles make one packed block: these straddle its edges.
@pytest.mark.parametrize("cycles", [3, 50, 63, 64, 65, 129, 1000])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_packed_matches_per_cycle_on_bundled(name, cycles):
    assert_same_trace(bundled_circuit(name), Stimulus.random(cycles, seed=7))


@pytest.mark.parametrize("cycles", [3, 64, 65, 130])
@pytest.mark.parametrize("name", ["s27", "lfsr8", "fsm3"])
def test_packed_matches_per_cycle_from_nonzero_state(name, cycles):
    c = bundled_circuit(name)
    rng = random.Random(cycles)
    vectors = [tuple(rng.getrandbits(1) for _ in c.primary_inputs)
               for _ in range(cycles)]
    state = tuple(1 - i % 2 for i in range(len(c.flops)))
    tr = assert_same_trace(c, Stimulus.explicit(vectors, initial_state=state))
    assert flop_states(tr)[0] == state


@pytest.mark.parametrize("wrapped", [False, True])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_packed_matches_per_cycle_on_multipliers(n, wrapped):
    c = parse_bench(multiplier_bench(n), name=f"mul{n}")
    if wrapped:
        c = wrap_combinational(c)
    assert_same_trace(c, Stimulus.random(70, seed=n))


def random_sequential_circuit(rng, name, flops=(1, 5)):
    """A valid netlist with every gate kind and flop-to-flop feedback.

    Gates are declared in shuffled order, so levelization matters; flop
    data nets are drawn from every net, flop outputs included.  The flop
    count is drawn from the ``flops`` range.
    """
    pis = [f"i{j}" for j in range(rng.randint(1, 3))]
    flops = [f"q{j}" for j in range(rng.randint(*flops))]
    nets, gates = pis + flops, []
    kinds = list(GATE_KINDS) + [rng.choice(GATE_KINDS)
                                for _ in range(rng.randint(0, 10))]
    rng.shuffle(kinds)
    for j, kind in enumerate(kinds):
        fanin = 1 if kind in ("NOT", "BUF") else rng.randint(1, 4)
        gates.append(Gate(id=f"g{j}", kind=kind,
                          inputs=tuple(rng.choice(nets) for _ in range(fanin))))
        nets.append(f"g{j}")
    rng.shuffle(gates)
    return Circuit(
        name=name,
        primary_inputs=tuple(pis),
        primary_outputs=(nets[-1],),
        gates=tuple(gates),
        flops=tuple(Flop(id=q, data=rng.choice(nets)) for q in flops),
        nets=frozenset(nets),
    )


def test_packed_matches_per_cycle_on_random_sequential_netlists():
    rng = random.Random(2024)
    kinds = set()
    for case in range(200):
        c = random_sequential_circuit(rng, f"rand{case}")
        kinds.update(g.kind for g in c.gates)
        cycles = rng.choice([3, 5, 63, 64, 65, rng.randint(3, 200)])
        state = None
        if rng.random() < 0.5:
            state = tuple(rng.getrandbits(1) for _ in c.flops)
        stim = Stimulus.random(cycles, seed=case, initial_state=state)
        assert simulate_reference(c, stim) == reference_simulate(c, stim), \
            f"case {case}"
    assert kinds == set(GATE_KINDS)


def count_passes(monkeypatch):
    """A list that gains one entry per packed pass over the gates."""
    passes = []
    evaluate = golden._evaluate

    def counted(*args):
        passes.append(1)
        return evaluate(*args)

    monkeypatch.setattr(golden, "_evaluate", counted)
    return passes


@pytest.mark.parametrize("name", ["fsm3", "lfsr8", "s27", "toy_chain",
                                  "toy_fanout", "toy_mask"])
def test_state_table_walk_settles_each_block_in_one_pass(name, monkeypatch):
    # one pass builds the table; each of the three blocks then starts from
    # the walked masks and settles at once, where a feedback loop would
    # otherwise take one pass per cycle
    c = bundled_circuit(name)
    passes = count_passes(monkeypatch)
    stim = Stimulus.random(150, seed=5)
    assert simulate_reference(c, stim) == reference_simulate(c, stim)
    assert len(passes) == 1 + 3


def test_state_table_walk_is_exact_on_random_sequential_netlists(monkeypatch):
    rng = random.Random(77)
    passes = count_passes(monkeypatch)
    for case in range(60):
        c = random_sequential_circuit(rng, f"rand{case}")
        state = tuple(rng.getrandbits(1) for _ in c.flops)
        stim = Stimulus.random(rng.randint(3, 200), seed=case,
                               initial_state=state)
        passes.clear()
        assert simulate_reference(c, stim) == reference_simulate(c, stim)
        assert len(passes) == 1 + -(-stim.cycle_count // 64), f"case {case}"


def test_feedback_beyond_the_state_table_iterates_to_the_same_trace(
        monkeypatch):
    # nine or more flops leave the state table out of reach, so feedback
    # settles one pass per cycle, as before the table
    rng = random.Random(78)
    passes = count_passes(monkeypatch)
    for case in range(40):
        c = random_sequential_circuit(rng, f"wide{case}", flops=(9, 12))
        stim = Stimulus.random(rng.randint(3, 150), seed=case)
        assert simulate_reference(c, stim) == reference_simulate(c, stim)
    assert len(passes) > 40 * 4


def test_packed_rejects_unknown_kind_and_non_binary_state():
    c = Circuit(name="mux", primary_inputs=("a",), primary_outputs=("m",),
                gates=(Gate(id="m", kind="MUX", inputs=("a",)),),
                flops=(), nets=frozenset({"a", "m"}))
    with pytest.raises(InvariantError, match="cannot evaluate gate kind 'MUX'"):
        simulate_reference(c, Stimulus.random(3, seed=1))
    d = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n")
    with pytest.raises(StimulusError, match="initial state bits must be 0/1"):
        simulate_reference(d, Stimulus.random(3, seed=1, initial_state=(2,)))
