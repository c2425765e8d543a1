"""Tests for pulse injection, masking, and edge-capture semantics."""

import math
import random
import signal
from collections import Counter, deque
from contextlib import contextmanager
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.errors import ConfigError, InvariantError
from seusim.golden import Stimulus, simulate_reference
from seusim.injector import (
    INSTANT,
    CapturePolicy,
    SampleResult,
    SimContext,
    StrikeSample,
    _attenuate,
    _capture_all,
    _disturbed,
    _propagate,
    capture_at_edge,
    grid_flip_counts,
    grid_ranges,
    judge_grid,
    parse_policy,
    run_sample,
    strike_row,
)
from seusim.netlist import CONTROLLING, parse_bench, wrap_combinational
from seusim.techmodel import enumerate_drains, load_bundled_profile

from conftest import (
    BUNDLED_CIRCUITS,
    CHAIN2,
    bundled_circuit,
    chain_profile_doc,
    find_site,
    flop_by_id,
    multiplier_bench,
    profile_from,
    settled_map,
)


def held(circuit, bits, cycles=5):
    return simulate_reference(circuit, Stimulus.explicit([tuple(bits)] * cycles))


def strike(circuit, profile, trace, site, t, k=1, policy=INSTANT, rng=None, debug=None):
    return run_sample(
        SimContext.build(circuit, profile).bind(trace),
        StrikeSample(drain=site, k=k, t=t),
        policy=policy,
        rng=rng,
        debug=debug,
    )


# ---------------------------------------------------------------------------
# electrical attenuation


def test_attenuation_wide_pulse_passes_unchanged():
    assert _attenuate(300.0, 100.0, 1.0) == 300.0
    assert _attenuate(200.0, 100.0, 1.0) == 200.0


def test_attenuation_narrows_mid_width_pulses():
    assert _attenuate(150.0, 100.0, 1.0) == 100.0
    assert _attenuate(199.0, 100.0, 1.0) == pytest.approx(198.0)


def test_attenuation_filters_short_pulses():
    assert _attenuate(100.0, 100.0, 1.0) is None
    assert _attenuate(90.0, 100.0, 1.0) is None


def test_attenuation_threshold_scales_filtering():
    # theta = 2 filters anything up to twice the gate delay; wider pulses are
    # already past the no-attenuation point and pass unchanged
    assert _attenuate(150.0, 100.0, 2.0) is None
    assert _attenuate(200.0, 100.0, 2.0) is None
    assert _attenuate(201.0, 100.0, 2.0) == 201.0
    assert _attenuate(250.0, 100.0, 2.0) == 250.0


@given(
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=1.0, max_value=500.0),
)
def test_attenuation_never_widens(width, delay):
    out = _attenuate(width, delay, 1.0)
    if out is not None:
        assert out <= width
        assert out > 0.0


# ---------------------------------------------------------------------------
# capture semantics at the observation edge


@pytest.fixture(scope="module")
def prof():
    return profile_from(chain_profile_doc())  # setup 40, hold 20


def test_capture_cover_flips_bit(prof):
    assert capture_at_edge(1, [(250.0, 320.0)], 300.0, prof) == (0, False)


def test_capture_start_on_edge_only_grazes(prof):
    assert capture_at_edge(1, [(300.0, 350.0)], 300.0, prof) == (1, True)


def test_capture_grazes_in_hold_window(prof):
    assert capture_at_edge(1, [(310.0, 315.0)], 300.0, prof) == (1, True)


def test_capture_grazes_in_setup_window(prof):
    assert capture_at_edge(1, [(250.0, 270.0)], 300.0, prof) == (1, True)
    # a pulse starting exactly at the end of the hold window still grazes...
    assert capture_at_edge(1, [(320.0, 400.0)], 300.0, prof) == (1, True)
    assert capture_at_edge(1, [(200.0, 261.0)], 300.0, prof) == (1, True)


def test_capture_misses_cleanly(prof):
    assert capture_at_edge(1, [(250.0, 259.0)], 300.0, prof) == (1, False)
    # ...but one ending exactly at the start of the setup window does not
    assert capture_at_edge(1, [(200.0, 260.0)], 300.0, prof) == (1, False)
    assert capture_at_edge(1, [(330.0, 400.0)], 300.0, prof) == (1, False)
    assert capture_at_edge(0, (), 300.0, prof) == (0, False)


def test_capture_window_random_resolves_grazes(prof):
    always = CapturePolicy("window-random", 1.0)
    never = CapturePolicy("window-random", 0.0)
    graze = [(310.0, 315.0)]
    assert capture_at_edge(1, graze, 300.0, prof, policy=always, rng=random.Random(0)) == (0, True)
    assert capture_at_edge(1, graze, 300.0, prof, policy=never, rng=random.Random(0)) == (1, True)
    # covered pulses flip regardless of policy
    assert capture_at_edge(1, [(250.0, 320.0)], 300.0, prof, policy=never, rng=random.Random(0)) == (0, False)


@pytest.mark.parametrize(
    "intervals",
    [[(310.0, 315.0), (250.0, 320.0)], [(250.0, 320.0), (310.0, 315.0)]],
)
def test_capture_cover_beats_graze_in_any_order(prof, intervals):
    # reconvergent paths can bring several intervals to one flop: a covering
    # one flips the bit, counts no window hit and draws nothing from the RNG
    assert capture_at_edge(1, intervals, 300.0, prof) == (0, False)
    rng = random.Random(3)
    before = rng.getstate()
    never = CapturePolicy("window-random", 0.0)
    assert capture_at_edge(1, intervals, 300.0, prof, policy=never, rng=rng) == (0, False)
    assert rng.getstate() == before


def test_capture_several_grazes_count_one_hit_and_one_draw(prof):
    rng = random.Random(3)
    expected = random.Random(3)
    expected.random()
    pol = CapturePolicy("window-random", 0.0)
    grazes = [(250.0, 270.0), (310.0, 315.0), (330.0, 400.0)]
    assert capture_at_edge(1, grazes, 300.0, prof, policy=pol, rng=rng) == (1, True)
    assert rng.getstate() == expected.getstate()


def test_capture_window_random_needs_rng(prof):
    with pytest.raises(ConfigError, match="needs an RNG"):
        capture_at_edge(1, [(310.0, 315.0)], 300.0, prof, policy=CapturePolicy("window-random", 0.5))


_POLICIES = (INSTANT, CapturePolicy("window-random", 0.0),
             CapturePolicy("window-random", 0.5), CapturePolicy("window-random", 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), policy=st.sampled_from(_POLICIES), seed=st.integers(0, 2**32))
def test_capture_all_matches_capture_at_edge_per_flop(data, policy, seed):
    # _capture_all judges each disturbed flop inline; capture_at_edge on the
    # same shifted intervals, flop by flop in order, must give the same flip
    # set, window hits, debug lines and RNG state afterwards.  Offsets land
    # t + x exactly on the edge, on edge - ff_setup and on edge + ff_hold, or
    # near them, or anywhere.
    ctx = LATCH_CTX
    edge, prof = ctx.period, ctx.profile
    marks = (edge, edge - prof.ff_setup, edge + prof.ff_hold)
    t = data.draw(st.one_of(st.floats(0.0, edge, exclude_max=True),
                            st.sampled_from([0.0, ctx.settle])))
    exact = st.sampled_from(marks).map(lambda mark: _on_edge(t, mark))
    near = st.tuples(exact, st.sampled_from([-1.0, -0.5, 0.5, 1.0])).map(sum)
    offset = st.one_of(exact, near, st.floats(-edge, edge))
    interval = st.tuples(offset, offset).map(lambda ends: tuple(sorted(ends)))
    flops = data.draw(st.lists(st.tuples(st.integers(0, 1),
                                         st.lists(interval, max_size=4)), max_size=6))
    disturbed = tuple((f"q{i}", golden, tuple(intervals))
                      for i, (golden, intervals) in enumerate(flops))
    settled = data.draw(st.sampled_from([SampleResult(frozenset(), frozenset()),
                                         SampleResult(frozenset(["q9"]), frozenset())]))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    lines = []
    got = _capture_all(ctx, (settled, disturbed), t, policy, rng, lines)

    flips, hits, want_lines = set(), 0, []
    for flop_id, golden, intervals in disturbed:
        captured, hit = capture_at_edge(golden, [(t + s, t + e) for s, e in intervals],
                                        edge, prof, policy, ref_rng)
        hits += hit
        if captured != golden:
            flips.add(flop_id)
            want_lines.append(f"capture flop={flop_id} edge={edge:.2f} "
                              f"captured={captured} golden={golden}")
    assert got.flips_e1 == settled.flips_e1
    assert (got.flips_e2, got.window_hits) == (flips, hits)
    assert rng.getstate() == ref_rng.getstate()
    assert lines == want_lines
    if not flips and not hits:
        assert got is settled


# ---------------------------------------------------------------------------
# a strike row judged over a whole oracle grid

# x is latched by three flops, y and z by one each.
LATCH_FANOUT = """\
INPUT(a)
INPUT(b)
OUTPUT(q1)
q1 = DFF(x)
q2 = DFF(x)
q3 = DFF(x)
q4 = DFF(y)
q5 = DFF(z)
x = NAND(a, q4)
y = NOT(b)
z = AND(a, q5)
"""
LATCH = parse_bench(LATCH_FANOUT, name="latch")
LATCH_CTX = SimContext.build(LATCH, load_bundled_profile("65nm-like")).bind(held(LATCH, (0, 0)))


def _per_grid_time(row, times):
    reads = SampleResult(frozenset(), frozenset()), _disturbed(LATCH_CTX, row, 1)
    return Counter(len(_capture_all(LATCH_CTX, reads, t, INSTANT, None).flips_e2) for t in times)


def test_grid_flip_counts_on_exact_edges():
    # integer times: t + start == edge never covers, t + end == edge does
    edge = LATCH_CTX.period
    times = [edge - 3.0, edge - 2.0, edge - 1.0]
    row = {"x": [(2.0, 3.0, 2)], "y": [(1.0, 5.0, 2)]}
    assert grid_flip_counts(LATCH_CTX, row, times) == {4: 1, 1: 1, 0: 1}
    assert _per_grid_time(row, times) == {4: 1, 1: 1, 0: 1}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 7, 5000]))
def test_grid_flip_counts_match_capture_row_at_every_grid_time(data, n):
    ctx = LATCH_CTX
    edge = ctx.period
    step = (ctx.period - ctx.settle) / n
    times = [ctx.settle + i * step for i in range(n)]
    # interval ends exactly where a grid time puts them on the edge, near
    # it, or anywhere, integer or not
    on_edge = st.sampled_from(times).map(lambda t: edge - t)
    near_edge = st.tuples(on_edge, st.floats(-step, step)).map(sum)
    anywhere = st.one_of(st.floats(-edge, edge),
                         st.integers(-int(edge), int(edge)).map(float))
    point = st.one_of(on_edge, near_edge, anywhere)
    width = st.one_of(st.floats(0.0, edge), st.integers(0, int(edge)).map(float))
    interval = point.flatmap(lambda s: st.one_of(point, width.map(lambda w: s + w))
                             .map(lambda e: (min(s, e), max(s, e), 2)))
    row = data.draw(st.dictionaries(st.sampled_from(["x", "y", "z"]),
                                    st.lists(interval, min_size=1, max_size=4),
                                    min_size=1))
    got = grid_flip_counts(ctx, row, times)
    assert got == _per_grid_time(row, times)
    assert sum(got.values()) == n


def _on_edge(t, edge):
    """An offset x with ``t + x == edge`` exactly, if a neighbour of
    ``edge - t`` gives one."""
    x = edge - t
    for y in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if t + y == edge:
            return y
    return x


def _capture_brute_force(ctx, row, times, group):
    """{n_e2: grid times}: each flop's capture judged by ``capture_at_edge``
    at each grid time, from the intervals on its data net that occur in a
    cycle of ``group``."""
    counts = Counter()
    for t in times:
        flips = 0
        for flop in ctx.circuit.flops:
            captured, _ = capture_at_edge(
                0, [(t + s, t + e) for s, e, m in row.get(flop.data, ())
                    if m & group], ctx.period, ctx.profile)
            flips += captured
        counts[flips] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 7, 50]))
def test_judge_grid_matches_capture_at_edge_in_every_cycle_group(data, n):
    # rows whose intervals start or end exactly on the edge at a grid time
    # or one float away, overlap on one net, and sit on nets latched by one
    # flop (y, z) or three (x); one bisection memo serves every row on the
    # grid, and each cycle group judged from a row's ranges must equal
    # capture_at_edge at every grid time
    ctx = LATCH_CTX
    edge = ctx.period
    step = (ctx.period - ctx.settle) / n
    times = [ctx.settle + i * step for i in range(n)]
    on_edge = st.sampled_from(times).map(lambda t: _on_edge(t, edge))
    point = st.one_of(
        on_edge,
        on_edge.map(lambda x: math.nextafter(x, math.inf)),
        on_edge.map(lambda x: math.nextafter(x, -math.inf)),
        st.floats(-edge, edge))
    interval = st.tuples(point, point, st.integers(1, 15)).map(
        lambda v: (min(v[:2]), max(v[:2]), v[2]))
    rows = data.draw(st.lists(
        st.dictionaries(st.sampled_from(["x", "y", "z"]),
                        st.lists(interval, min_size=1, max_size=6),
                        min_size=1),
        min_size=1, max_size=3))
    index = {}
    for row in rows:
        ranges = grid_ranges(ctx, row, times, index)
        for group in (1, 2, 4, 8, 6, 15, data.draw(st.integers(1, 15))):
            assert (judge_grid(ranges, n, group)
                    == _capture_brute_force(ctx, row, times, group))
        assert (grid_flip_counts(ctx, row, times)
                == _capture_brute_force(ctx, row, times, -1))


# ---------------------------------------------------------------------------
# capture policies


def test_parse_policy_forms():
    assert parse_policy("instant").kind == "instant"
    p = parse_policy("window-random:0.3")
    assert p.kind == "window-random"
    assert p.p == 0.3
    assert INSTANT.label == "instant"
    assert CapturePolicy("window-random", 1.0).label == "window-random:1"


@pytest.mark.parametrize(
    "text", ["fancy", "window-random", "window-random:2.0", "window-random:x", "instant:0.5"]
)
def test_parse_policy_rejects(text):
    with pytest.raises(ConfigError):
        parse_policy(text)


def test_policy_probability_range():
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        CapturePolicy("window-random", 1.5)
    with pytest.raises(ConfigError, match="unknown capture policy"):
        CapturePolicy("bogus")


# ---------------------------------------------------------------------------
# single-inverter chain: state-node and capture-node strikes
#
# Flop A feeds one inverter feeding flop B; x is held at 1, so at the struck
# cycle A holds 1 and B is about to capture 0.  Clock period 300, flop output
# settles by 160, capture window [260, 320].


@pytest.fixture(scope="module")
def chain1_setup(prof):
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(ny)\nny = NOT(A)\n", name="chain1"
    )
    tr = held(c, (1,))
    table = enumerate_drains(c, prof)
    return c, tr, table


def test_state_strike_corrupts_both_edges(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    r = strike(c, prof, tr, site, 170.0)
    assert r.flips_e1 == frozenset({"A"})
    assert r.flips_e2 == frozenset({"B"})
    assert r.window_hits == 0
    assert r.flip_counts == (1, 1)
    # the flipped state holds right up to the point where the disturbed
    # inverter output can no longer cover the capture edge
    assert strike(c, prof, tr, site, 199.0).flips_e2 == frozenset({"B"})


def test_state_strike_late_in_cycle_heals_at_capture(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    r = strike(c, prof, tr, site, 250.0)
    assert r.flips_e1 == frozenset({"A"})
    assert r.flips_e2 == frozenset()
    assert r.window_hits == 0


def test_state_strike_graze_boundary(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    # at t=200 the disturbed inverter output starts exactly on the edge
    for t in (200.0, 205.0):
        r = strike(c, prof, tr, site, t)
        assert r.flips_e1 == frozenset({"A"})
        assert r.flips_e2 == frozenset()
        assert r.window_hits == 1


def test_state_strike_wrong_polarity_is_silent(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-high")
    r = strike(c, prof, tr, site, 170.0)
    assert r.flips_e1 == frozenset()
    assert r.flips_e2 == frozenset()
    assert r.window_hits == 0


def test_capture_strike_forces_captured_bit(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "capture-node", "pulls-low")
    r = strike(c, prof, tr, site, 170.0)
    # the incoming bit (x = 1) is inverted at the latch, visible only at E2
    assert r.flips_e1 == frozenset()
    assert r.flips_e2 == frozenset({"A"})

    mismatch = find_site(table, "A", "capture-node", "pulls-high")
    r2 = strike(c, prof, tr, mismatch, 170.0)
    assert r2.flips_e1 == r2.flips_e2 == frozenset()


def test_capture_strike_draws_nothing_and_logs_its_capture(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "capture-node", "pulls-low")
    rng = random.Random(5)
    before = rng.getstate()
    dbg = []
    r = strike(c, prof, tr, site, 205.0, policy=CapturePolicy("window-random", 0.5), rng=rng, debug=dbg)
    assert (r.flips_e2, r.window_hits) == ({"A"}, 0)
    assert rng.getstate() == before
    assert dbg[1:] == ["capture flop=A edge=300.00 captured=0 golden=1"]


def test_capture_strike_spares_flops_sharing_the_data_net(prof):
    # B and C latch the same net; a capture-node strike corrupts only the
    # struck flop's latch, while a glitch on the shared net reaches both
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nOUTPUT(C)\nA = DFF(x)\nB = DFF(ny)\nC = DFF(ny)\n"
        "ny = NOT(A)\n",
        name="shared",
    )
    tr = held(c, (1,))
    table = enumerate_drains(c, prof)
    site = find_site(table, "B", "capture-node", "pulls-high")
    r = strike(c, prof, tr, site, 170.0)
    assert r.flips_e1 == frozenset()
    assert r.flips_e2 == frozenset({"B"})
    assert r.window_hits == 0
    gate = find_site(table, "ny", polarity="pulls-high")
    assert strike(c, prof, tr, gate, 200.0).flips_e2 == frozenset({"B", "C"})


def test_gate_strike_sensitized_everywhere(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "ny", polarity="pulls-high")
    # the inverter output feeds flop B directly, and the glitch (150) is wider
    # than the whole capture window, so every launch time in the settled
    # region that reaches the edge flips B
    for t in (160.0, 200.0, 299.0):
        r = strike(c, prof, tr, site, t)
        assert r.flips_e1 == frozenset()
        assert r.flips_e2 == frozenset({"B"})
    wrong = find_site(table, "ny", polarity="pulls-low")
    assert strike(c, prof, tr, wrong, 200.0).flip_counts == (0, 0)


def test_window_random_decides_grazing_state_strike(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    always = CapturePolicy("window-random", 1.0)
    never = CapturePolicy("window-random", 0.0)
    r = strike(c, prof, tr, site, 205.0, policy=always, rng=random.Random(1))
    assert r.flips_e2 == frozenset({"B"})
    assert r.window_hits == 1
    r = strike(c, prof, tr, site, 205.0, policy=never, rng=random.Random(1))
    assert r.flips_e2 == frozenset()
    assert r.window_hits == 1


# ---------------------------------------------------------------------------
# two-inverter chain: attenuation en route to the flop
#
# g1 -> g2 -> flop B; the 150-wide glitch on g1 narrows to 100 crossing g2,
# so B only captures it when the g2 pulse covers the 400 ps edge: t in [200, 300).


@pytest.fixture(scope="module")
def chain2_setup(prof):
    c = parse_bench(CHAIN2, name="chain2")
    tr = held(c, (1,))
    table = enumerate_drains(c, prof)
    site = find_site(table, "g1", polarity="pulls-high")
    return c, tr, site


def test_attenuated_pulse_still_covers_mid_window(chain2_setup, prof):
    c, tr, site = chain2_setup
    for t in (200.0, 270.0, 299.0):
        r = strike(c, prof, tr, site, t)
        assert r.flips_e2 == frozenset({"B"}), t
        assert r.window_hits == 0


def test_attenuated_pulse_grazes_outside_coverage(chain2_setup, prof):
    c, tr, site = chain2_setup
    for t in (180.0, 199.0, 300.0, 310.0):
        r = strike(c, prof, tr, site, t)
        assert r.flips_e2 == frozenset(), t
        assert r.window_hits == 1, t


def test_attenuated_pulse_misses_entirely(chain2_setup, prof):
    c, tr, site = chain2_setup
    r = strike(c, prof, tr, site, 390.0)
    assert r.flips_e2 == frozenset()
    assert r.window_hits == 0


def test_three_inverter_chain_filters_pulse(prof):
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(g3)\n"
        "g1 = NOT(A)\ng2 = NOT(g1)\ng3 = NOT(g2)\n",
        name="chain3",
    )
    tr = held(c, (1,))
    site = find_site(enumerate_drains(c, prof), "g1", polarity="pulls-high")
    # 150 narrows to 100 at g2, and 100 <= delay at g3: filtered out
    for t in (270.0, 360.0, 400.0, 499.0):
        r = strike(c, prof, tr, site, t)
        assert r.flip_counts == (0, 0)
        assert r.window_hits == 0


# ---------------------------------------------------------------------------
# fan-out and logical masking on the bundled toy circuits


def test_fanout_strike_corrupts_both_flops():
    c = bundled_circuit("toy_fanout")
    p = load_bundled_profile("toy-equal")
    tr = held(c, (1,))
    ctx = SimContext.build(c, p).bind(tr)
    site = find_site(enumerate_drains(c, p), "t", polarity="pulls-high")
    for t in (540.0, 600.0, 659.0):
        r = run_sample(ctx, StrikeSample(drain=site, k=1, t=t))
        assert r.flips_e2 == frozenset({"f1", "f2"})
    # immediately outside the shared coverage window both sinks graze
    for t in (539.0, 660.0):
        r = run_sample(ctx, StrikeSample(drain=site, k=1, t=t))
        assert r.flips_e2 == frozenset()
        assert r.window_hits == 2
    early = run_sample(ctx, StrikeSample(drain=site, k=1, t=500.0))
    assert early.flip_counts == (0, 0)
    assert early.window_hits == 0


def test_mask_circuit_staggered_coverage():
    c = bundled_circuit("toy_mask")
    p = load_bundled_profile("toy-equal")
    tr = held(c, (1, 1))
    ctx = SimContext.build(c, p).bind(tr)
    site = find_site(enumerate_drains(c, p), "g1", polarity="pulls-low")

    def hit(t):
        return run_sample(ctx, StrikeSample(drain=site, k=1, t=t)).flips_e2

    # two sinks at different depths: f2 is one gate further than f1, so the
    # coverage windows are offset by one gate delay
    assert hit(500.0) == frozenset()
    assert hit(570.0) == frozenset({"f2"})
    assert hit(630.0) == frozenset({"f1", "f2"})
    assert hit(690.0) == frozenset({"f1"})


def test_mask_circuit_logical_masking():
    c = bundled_circuit("toy_mask")
    p = load_bundled_profile("toy-equal")
    # with b = 0 the AND gate's side input controls its output, so the pulse
    # on g1 dies there no matter when it lands
    tr = held(c, (1, 0))
    ctx = SimContext.build(c, p).bind(tr)
    site = find_site(enumerate_drains(c, p), "g1", polarity="pulls-low")
    for t in (500.0, 570.0, 630.0, 690.0):
        dbg = []
        r = run_sample(ctx, StrikeSample(drain=site, k=1, t=t), debug=dbg)
        assert r.flip_counts == (0, 0)
        assert any("masked at g2 (logical)" in line for line in dbg)


# ---------------------------------------------------------------------------
# state-node steps propagate without attenuation


def test_state_step_is_not_attenuated(prof):
    c = parse_bench(CHAIN2, name="chain2")
    tr = held(c, (1,))
    table = enumerate_drains(c, prof)
    site = find_site(table, "A", "state-node", "pulls-low")
    dbg = []
    r = strike(c, prof, tr, site, 350.0, debug=dbg)
    # the remaining 50 ps of the cycle is narrower than any gate delay, yet
    # the step survives both inverters; pulse starts are offsets from t, and
    # a step lasts a whole 400 ps period
    assert r.flips_e1 == frozenset({"A"})
    assert r.flips_e2 == frozenset()
    assert "pulse net=A start=0.00 width=400.00 value=0 step" in dbg
    assert "pulse net=g1 start=100.00 width=400.00 value=1 step" in dbg
    assert "pulse net=g2 start=200.00 width=400.00 value=0 step" in dbg

    # contrast: a 50 ps glitch from a gate dies at the first gate it crosses
    narrow = profile_from(chain_profile_doc(glitch_width=50.0))
    ntable = enumerate_drains(c, narrow)
    gsite = find_site(ntable, "g1", polarity="pulls-high")
    dbg2 = []
    r2 = strike(c, narrow, tr, gsite, 350.0, debug=dbg2)
    assert r2.flip_counts == (0, 0)
    assert any("masked at g2 (electrical)" in line for line in dbg2)


def _step_pulses(dbg):
    return [line for line in dbg if line.startswith("pulse ") and line.endswith(" step")]


def test_state_step_keeps_earliest_arrival_per_net(prof):
    # A reaches r directly (50 ps) and through two inverters (250 ps); only
    # the earlier step on r is followed, and it decides B's capture
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(r)\n"
        "g1 = NOT(A)\ng2 = NOT(g1)\nr = XOR(A, g2)\n",
        name="reconv",
    )
    tr = held(c, (1,))
    site = find_site(enumerate_drains(c, prof), "A", "state-node", "pulls-low")
    dbg = []
    r = strike(c, prof, tr, site, 310.0, debug=dbg)
    # starts are offsets from t = 310 and a step lasts the 450 ps period
    assert sorted(_step_pulses(dbg)) == [
        "pulse net=A start=0.00 width=450.00 value=0 step",
        "pulse net=g1 start=100.00 width=450.00 value=1 step",
        "pulse net=g2 start=200.00 width=450.00 value=0 step",
        "pulse net=r start=50.00 width=450.00 value=1 step",
    ]
    assert (r.flips_e1, r.flips_e2, r.window_hits) == ({"A"}, {"B"}, 0)
    # the earliest step starts 5 ps after the 450 ps edge: a graze, no cover
    always = CapturePolicy("window-random", 1.0)
    r = strike(c, prof, tr, site, 405.0, policy=always, rng=random.Random(0))
    assert (r.flips_e1, r.flips_e2, r.window_hits) == ({"A"}, {"B"}, 1)


def test_state_step_revisits_net_reached_earlier_by_a_longer_path():
    # breadth-first order reaches r through one slow inverter (at 360, offset
    # 150 from t = 210) before it reaches it through two fast buffers (at
    # 300, offset 90); the earlier step is followed too and covers the 350 ps
    # edge that the later one only grazes
    prof = profile_from(chain_profile_doc(gate_delay={"NOT1": 100, "BUF1": 20, "XOR2": 50}))
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(r)\n"
        "g1 = NOT(A)\nf1 = BUF(A)\nf2 = BUF(f1)\nr = XOR(g1, f2)\n",
        name="reconv_fast",
    )
    tr = held(c, (1,))
    site = find_site(enumerate_drains(c, prof), "A", "state-node", "pulls-low")
    dbg = []
    always = CapturePolicy("window-random", 1.0)
    r = strike(c, prof, tr, site, 210.0, policy=always, rng=random.Random(0), debug=dbg)
    assert [line for line in _step_pulses(dbg) if "net=r " in line] == [
        "pulse net=r start=150.00 width=350.00 value=0 step",
        "pulse net=r start=90.00 width=350.00 value=0 step",
    ]
    assert (r.flips_e1, r.flips_e2, r.window_hits) == ({"A"}, {"B"}, 0)


def reconvergent_ladder(kind, stages):
    """x{i+1} = kind(x{i}, BUF(x{i})) from flop x0 to flop y = DFF(x{stages})."""
    lines = ["INPUT(i)", "OUTPUT(y)", "x0 = DFF(i)", f"y = DFF(x{stages})"]
    for s in range(stages):
        lines += [f"b{s} = BUF(x{s})", f"x{s + 1} = {kind}(x{s}, b{s})"]
    return parse_bench("\n".join(lines) + "\n", name=f"{kind.lower()}_ladder")


def test_state_step_through_deep_reconvergent_ladder():
    # x{i+1} = XOR(x{i}, BUF(x{i})) over 500 stages: x500 is reachable along
    # 2**500 paths with hundreds of distinct delays, but each of the 1,001
    # nets carries one step, so a strike is cheap and needs no event cap
    stages = 500
    c = reconvergent_ladder("XOR", stages)
    p = load_bundled_profile("65nm-like")
    tr = held(c, (1,))
    ctx = SimContext.build(c, p).bind(tr)
    site = find_site(enumerate_drains(c, p), "x0", "state-node", "pulls-low")
    dbg = []
    r = run_sample(ctx, StrikeSample(drain=site, k=1, t=ctx.settle), debug=dbg)
    nets = [line.split()[1] for line in _step_pulses(dbg)]
    assert len(nets) == len(set(nets)) == 2 * stages + 1
    assert (r.flips_e1, r.flips_e2, r.window_hits) == ({"x0"}, frozenset(), 0)


def test_glitch_through_reconvergent_ladder_keeps_one_event_per_path_delay():
    # x{i+1} = AND(x{i}, BUF(x{i})) under 65nm-like: the 130 ps glitch passes
    # AND2 (65 ps) and BUF (40 ps) unnarrowed, so glitches are not collapsed
    # to one per net like steps are.  x{m} is reached along 2**(m-1) paths
    # from x1 but with only m distinct delays (65a + 105b, a + b = m - 1);
    # one event per distinct delay gives stages**2 pulse lines in all, each
    # starting at its path delay from the strike time
    stages = 40
    c = reconvergent_ladder("AND", stages)
    p = load_bundled_profile("65nm-like")
    tr = held(c, (1,))
    ctx = SimContext.build(c, p).bind(tr)
    site = find_site(enumerate_drains(c, p), "x1", polarity="pulls-low")
    dbg = []
    r = run_sample(ctx, StrikeSample(drain=site, k=1, t=700.0), debug=dbg)
    starts = {}
    for line in dbg:
        if line.startswith("pulse "):
            net, start = line.split()[1:3]
            starts.setdefault(net[len("net="):], []).append(float(start[len("start="):]))
    assert sum(len(v) for v in starts.values()) == stages**2
    for m in range(1, stages + 1):
        delays = {65.0 * a + 105 * (m - 1 - a) for a in range(m)}
        assert sorted(starts[f"x{m}"]) == sorted(delays)
        if m < stages:
            assert sorted(starts[f"b{m}"]) == sorted(d + 40 for d in delays)
    # the slowest path lands at 700 + 4095 ps, its 130 ps glitch covers the 4860 ps edge
    assert ctx.period == 4860.0
    assert (r.flips_e1, r.flips_e2, r.window_hits) == (frozenset(), {"y"}, 0)


def test_debug_trace_header(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    dbg = []
    strike(c, prof, tr, site, 170.0, debug=dbg)
    assert dbg[0] == "sample drain=A[0] class=register k=1 t=170.00 polarity=pulls-low"


# ---------------------------------------------------------------------------
# clock sizing keeps every strike observable


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_wide_glitch_at_cycle_start_always_captured(depth):
    from seusim.techmodel import period_and_settle

    gates = "".join(
        f"g{i} = NOT({'A' if i == 1 else f'g{i - 1}'})\n" for i in range(1, depth + 1)
    )
    c = parse_bench(
        f"INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(g{depth})\n{gates}",
        name=f"depth{depth}",
    )
    # a glitch spanning the whole period launched at t=0 must always be
    # captured: the clock is sized so the deepest path lands before the edge
    period, _ = period_and_settle(
        c, profile_from(chain_profile_doc(clock_margin=20.0)))
    p = profile_from(chain_profile_doc(glitch_width=period, clock_margin=20.0))
    tr = held(c, (1,))
    table = enumerate_drains(c, p)
    golden_g1 = tr.net_value(1, "g1")
    pol = "pulls-high" if golden_g1 == 0 else "pulls-low"
    site = find_site(table, "g1", polarity=pol)
    r = run_sample(SimContext.build(c, p).bind(tr), StrikeSample(drain=site, k=1, t=0.0))
    assert r.flips_e2 == frozenset({"B"})


# ---------------------------------------------------------------------------
# pulse-width monotonicity: a wider glitch never corrupts less


@pytest.mark.parametrize("name", ["toy_fanout", "toy_mask"])
def test_wider_glitches_dominate_narrower_ones(name):
    c = bundled_circuit(name)
    base = load_bundled_profile("toy-equal")
    bits = (1,) * len(c.primary_inputs)
    tr = held(c, bits)
    widths = [80.0, 100.0, 140.0, 150.0, 200.0, 300.0]
    flips_by_width = {}
    for w in widths:
        import json

        from seusim.techmodel import load_profile

        raw = json.loads(_bundled_profile_text("toy-equal"))
        raw["glitch_width"] = w
        p = load_profile(json.dumps(raw), source="<override>")
        ctx = SimContext.build(c, p).bind(tr)
        table = enumerate_drains(c, p)
        gate_sites = [s for s in table.sites if s.strike_class == "gate"]
        grid = [ctx.settle + i * (ctx.period - ctx.settle) / 40 for i in range(40)]
        flips = {}
        for s in gate_sites:
            for t in grid:
                r = run_sample(ctx, StrikeSample(drain=s, k=1, t=t))
                flips[(s.id, t)] = r.flips_e2
        flips_by_width[w] = flips
    for lo, hi in zip(widths, widths[1:]):
        for key, small in flips_by_width[lo].items():
            assert small <= flips_by_width[hi][key], (key, lo, hi)


def _bundled_profile_text(name):
    import importlib.resources as res

    return (res.files("seusim") / "data" / "profiles" / f"{name}.json").read_text()


# ---------------------------------------------------------------------------
# one propagation for many cycles


@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like", "toy-equal"])
@pytest.mark.parametrize("name", [*BUNDLED_CIRCUITS, "mul8"])
def test_masked_rows_match_one_bit_rows(name, profile_name):
    # a row propagated for many cycles at once, restricted to one of them,
    # holds the intervals of that cycle's own row in the same order
    if name == "mul8":
        c = parse_bench(multiplier_bench(8), name=name)
    else:
        c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    p = load_bundled_profile(profile_name)
    tr = simulate_reference(c, Stimulus.random(14, seed=5))
    ctx = SimContext.build(c, p).bind(tr)
    every = (1 << tr.cycle_count) - 1
    drains = [d for d in enumerate_drains(c, p).sites if d.ff_node_class != "capture-node"]
    for drain in drains:
        for live in (every, every // 3):
            row = strike_row(ctx, drain, live)
            for k in (k for k in range(tr.cycle_count) if live >> k & 1):
                one = {net: [(s, e, 1 << k) for s, e, m in ivs if m >> k & 1]
                       for net, ivs in row.items()}
                one = {net: ivs for net, ivs in one.items() if ivs}
                assert one == _propagate(ctx, strike_seed(ctx, drain, 0.0), 1 << k), (drain.id, k)


# ---------------------------------------------------------------------------
# _propagate against the PulseEvent breadth-first search it replaced


class PulseEvent(NamedTuple):
    """A disturbance interval [start, start + width) on one net; ``step``
    marks a register step that no gate attenuates.  As a tuple it is also
    the ``(net, start, width, step)`` seed ``_propagate`` takes."""

    net: str
    start: float
    width: float
    step: bool = False

    @property
    def end(self):
        return self.start + self.width


def reference_propagate(ctx, settled, seed_event, debug=None):
    """Breadth-first search over PulseEvent objects that looks up each gate's
    controlling value, side inputs and delay at every step."""
    theta = ctx.profile.filter_threshold
    flop_data = {f.data for f in ctx.circuit.flops}
    at_flops, seen = {}, {}
    queue = deque([seed_event])
    while queue:
        ev = queue.popleft()
        key = ev.net if ev.step else (ev.net, ev.start, ev.width)
        if seen.get(key, math.inf) <= ev.start:
            continue
        seen[key] = ev.start
        if debug is not None:
            debug.append(
                f"pulse net={ev.net} start={ev.start:.2f} width={ev.width:.2f} "
                f"value={1 - settled[ev.net]}" + (" step" if ev.step else "")
            )
        if ev.net in flop_data:
            at_flops.setdefault(ev.net, []).append((ev.start, ev.end))
        for gate in ctx.circuit.gate_fanout.get(ev.net, ()):
            ctrl = CONTROLLING[gate.kind]
            if ctrl is not None:
                side = [n for n in gate.inputs if n != ev.net]
                if any(settled[n] == ctrl for n in side):
                    if debug is not None:
                        debug.append(f"  masked at {gate.id} (logical)")
                    continue
            d = ctx.profile.delay(gate.kind, len(gate.inputs))
            if ev.step:
                new_width = ev.width
            else:
                new_width = _attenuate(ev.width, d, theta)
                if new_width is None:
                    if debug is not None:
                        debug.append(f"  masked at {gate.id} (electrical)")
                    continue
            queue.append(
                PulseEvent(net=gate.id, start=ev.start + d, width=new_width, step=ev.step)
            )
    return at_flops


def strike_seed(ctx, drain, t):
    """The event a gate or state-node strike at ``t`` starts from."""
    if drain.ff_node_class == "state-node":
        net = flop_by_id(ctx.circuit)[drain.cell].id
        return PulseEvent(net=net, start=t, width=ctx.period - t, step=True)
    return PulseEvent(net=drain.net, start=t, width=ctx.profile.glitch_width)


def assert_propagates_like_reference(ctx, k, seed):
    # ``ctx`` is bound to a trace; the strike is in its cycle ``k``
    got_dbg, want_dbg = [], []
    got = _propagate(ctx, seed, 1 << k, got_dbg)
    want = reference_propagate(ctx, settled_map(ctx.trace, k), seed, want_dbg)
    assert list(got.items()) == [(net, [(s, e, 1 << k) for s, e in ivs])
                                 for net, ivs in want.items()]
    assert got_dbg == want_dbg
    assert _propagate(ctx, seed, 1 << k) == got


@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like"])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_propagate_matches_pulse_event_reference(name, profile_name):
    # every gate and state-node drain, whatever its polarity; a capture-node
    # strike never propagates
    c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    p = load_bundled_profile(profile_name)
    tr = simulate_reference(c, Stimulus.random(8, seed=3))
    ctx = SimContext.build(c, p).bind(tr)
    times = [ctx.settle + i * (ctx.period - ctx.settle) / 6 for i in range(6)]
    drains = [d for d in enumerate_drains(c, p).sites if d.ff_node_class != "capture-node"]
    assert {d.ff_node_class for d in drains} == {"none", "state-node"}
    for drain in drains:
        for k in range(1, 7):
            for t in times:
                assert_propagates_like_reference(ctx, k, strike_seed(ctx, drain, t))


@contextmanager
def time_limit(seconds):
    """Fail the enclosed block once ``seconds`` of wall time have passed.

    Uses a POSIX interval timer; elsewhere the block runs unbounded.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "kind, stages, net, step, t",
    [("AND", 40, "x1", False, 700.0), ("XOR", 500, "x0", True, None)],
)
def test_propagate_matches_pulse_event_reference_on_ladders(kind, stages, net, step, t):
    # Each stage reconverges, so a dedup that lets equal events through
    # doubles the events per stage: on 40 stages that never finishes, so
    # the comparison is bounded to fail in seconds instead of hanging
    c = reconvergent_ladder(kind, stages)
    ctx = SimContext.build(c, load_bundled_profile("65nm-like")).bind(held(c, (1,)))
    t = ctx.settle if t is None else t
    width = ctx.period - t if step else ctx.profile.glitch_width
    seed = PulseEvent(net=net, start=t, width=width, step=step)
    with time_limit(2.0):
        assert_propagates_like_reference(ctx, 1, seed)


# ---------------------------------------------------------------------------
# the row path (propagate from t = 0, capture shifted by t) against a strike
# simulated from its own start time


def reference_sample(ctx, trace, sample, policy, rng):
    """(flips_e1, flips_e2, window_hits) of a gate or state-node strike:
    ``reference_propagate`` from a seed at ``t``, then ``capture_at_edge`` on
    every flop in circuit order."""
    drain, settled = sample.drain, settled_map(trace, sample.k)
    seed = strike_seed(ctx, drain, sample.t)
    if settled[seed.net] != (1 if drain.polarity == "pulls-low" else 0):
        return frozenset(), frozenset(), 0
    at_flops = reference_propagate(ctx, settled, seed)
    flips, hits = set(), 0
    for flop in ctx.circuit.flops:
        golden = settled[flop.data]
        captured, hit = capture_at_edge(golden, at_flops.get(flop.data, ()), ctx.period,
                                        ctx.profile, policy, rng)
        hits += hit
        if captured != golden:
            flips.add(flop.id)
    e1 = frozenset([drain.cell]) if seed.step else frozenset()
    return e1, frozenset(flips), hits


@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like"])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_row_path_matches_per_cell_reference(name, profile_name):
    # same flips at both edges, same window hits and the same RNG state
    # afterwards, under both capture policies
    c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    p = load_bundled_profile(profile_name)
    tr = simulate_reference(c, Stimulus.random(8, seed=4))
    ctx = SimContext.build(c, p).bind(tr)
    draw = random.Random(f"{name}/{profile_name}")
    grid = [ctx.settle + i * (ctx.period - ctx.settle) / 4 for i in range(4)]
    drains = [d for d in enumerate_drains(c, p).sites if d.ff_node_class != "capture-node"]
    hits = 0
    for policy in (INSTANT, CapturePolicy("window-random", 0.5)):
        for drain in drains:
            for k in (1, 3, 6):
                randoms = [ctx.settle + draw.random() * (ctx.period - ctx.settle) for _ in range(3)]
                for t in grid + randoms:
                    stream = draw.getrandbits(32)
                    got_rng, want_rng = random.Random(stream), random.Random(stream)
                    sample = StrikeSample(drain=drain, k=k, t=t)
                    r = run_sample(ctx, sample, policy, got_rng)
                    want = reference_sample(ctx, tr, sample, policy, want_rng)
                    assert (r.flips_e1, r.flips_e2, r.window_hits) == want, (drain.id, k, t)
                    assert got_rng.getstate() == want_rng.getstate(), (drain.id, k, t)
                    hits += r.window_hits
    assert hits


# ---------------------------------------------------------------------------
# validation and determinism


def test_run_sample_validates_strike_coordinates(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "ny", polarity="pulls-high")
    with pytest.raises(InvariantError, match="outside the clock period"):
        strike(c, prof, tr, site, 300.0)
    with pytest.raises(InvariantError, match="outside the clock period"):
        strike(c, prof, tr, site, -1.0)
    with pytest.raises(InvariantError, match=r"out of range \[1, 3\]"):
        strike(c, prof, tr, site, 170.0, k=0)
    with pytest.raises(InvariantError, match=r"out of range \[1, 3\]"):
        strike(c, prof, tr, site, 170.0, k=4)


def test_run_sample_window_random_needs_rng(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    with pytest.raises(ConfigError, match="needs an RNG"):
        strike(c, prof, tr, site, 205.0, policy=CapturePolicy("window-random", 0.5))


def test_run_sample_allows_pre_settle_times(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "ny", polarity="pulls-high")
    r = strike(c, prof, tr, site, 10.0)
    assert r.flips_e2 == frozenset()


def test_sim_context_rejects_unsettleable_circuit():
    c = parse_bench(
        "INPUT(x)\nOUTPUT(g3)\nA = DFF(x)\ng1 = NOT(A)\ng2 = NOT(g1)\ng3 = NOT(g2)\n",
        name="hang",
    )
    p = profile_from(chain_profile_doc(clock_margin=100.0))
    with pytest.raises(ConfigError, match="never settles inside the clock period"):
        SimContext.build(c, p)


def test_strike_sample_carries_strike_class(chain1_setup):
    _, _, table = chain1_setup
    reg = StrikeSample(drain=find_site(table, "A", "state-node", "pulls-low"), k=1, t=0.0)
    gate = StrikeSample(drain=find_site(table, "ny", polarity="pulls-low"), k=1, t=0.0)
    assert reg.strike_class == "register"
    assert gate.strike_class == "gate"


def test_run_sample_deterministic(chain1_setup, prof):
    c, tr, table = chain1_setup
    site = find_site(table, "A", "state-node", "pulls-low")
    pol = CapturePolicy("window-random", 0.5)
    a = strike(c, prof, tr, site, 205.0, policy=pol, rng=random.Random(7))
    b = strike(c, prof, tr, site, 205.0, policy=pol, rng=random.Random(7))
    assert (a.flips_e1, a.flips_e2, a.window_hits) == (b.flips_e1, b.flips_e2, b.window_hits)
