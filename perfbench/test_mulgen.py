"""The benchmark's multiplier generator yields a valid, correct netlist."""

import random

import pytest

from mulgen import multiplier_bench
from seusim.golden import Stimulus, simulate_reference
from seusim.netlist import parse_bench, validate


def _products(n, pairs):
    circuit = parse_bench(multiplier_bench(n), name=f"mul{n}")
    vectors = [tuple((a >> i) & 1 for i in range(n))
               + tuple((b >> i) & 1 for i in range(n)) for a, b in pairs]
    trace = simulate_reference(circuit, Stimulus.explicit(vectors))
    return [sum(trace.net_value(c, net) << w
                for w, net in enumerate(circuit.primary_outputs))
            for c in range(len(pairs))]


@pytest.mark.parametrize("n,gates", [(4, 64), (8, 320), (12, 768)])
def test_gate_count_and_validity(n, gates):
    circuit = parse_bench(multiplier_bench(n), name=f"mul{n}")
    assert validate(circuit).ok
    assert len(circuit.gates) == gates
    assert {g.kind for g in circuit.gates} == {"AND", "XOR", "OR"}
    assert all(len(g.inputs) == 2 for g in circuit.gates)
    assert len(circuit.primary_outputs) == 2 * n
    assert not circuit.flops


def test_mul4_every_input_pair():
    pairs = [(a, b) for a in range(16) for b in range(16)]
    assert _products(4, pairs) == [a * b for a, b in pairs]


def test_mul12_random_pairs():
    rng = random.Random(12)
    pairs = [(rng.randrange(4096), rng.randrange(4096)) for _ in range(200)]
    pairs += [(0, 0), (4095, 4095), (4095, 1), (1, 4095)]
    assert _products(12, pairs) == [a * b for a, b in pairs]
