"""Tests for outcome classification, estimators, stopping, and the oracle."""

import dataclasses
import io
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim import campaign, injector
from seusim.campaign import (
    LOG_COLUMNS,
    CampaignConfig,
    ClassStats,
    OutcomeClass,
    Ratio,
    classify,
    derive_metrics,
    exhaustive_campaign,
    read_sample_log,
    recompute_from_log,
    run_campaign,
    sample_log_text,
    sample_rng,
    _criterion_met,
    sample_strike,
    standard_error,
    stopping_row,
    strike_cycles,
)
from seusim.errors import ConfigError, InputError, InvariantError
from seusim.golden import Stimulus, simulate_reference
from seusim.injector import (
    INSTANT,
    CapturePolicy,
    SampleResult,
    SimContext,
    StrikeSample,
    capture_at_edge,
    polarity_matches,
    run_sample,
    strike_row,
)
from seusim.netlist import parse_bench, wrap_combinational
from seusim.techmodel import enumerate_drains, load_bundled_profile, load_profile

from conftest import (BUNDLED_CIRCUITS, bundled_circuit, dff_sites, multiplier_bench,
                      profile_from)


# ---------------------------------------------------------------------------
# outcome classification


@pytest.mark.parametrize(
    "pair, label",
    [
        ((0, 0), "NN"),
        ((0, 1), "NF"),
        ((0, 2), "NF_m"),
        ((1, 0), "FN"),
        ((1, 1), "FF"),
        ((1, 3), "FF_m"),
        ((2, 0), "F_mN"),
        ((3, 1), "F_mF"),
        ((2, 2), "F_mF_m"),
    ],
)
def test_classify_all_nine_outcomes(pair, label):
    assert classify(pair).value == label


def test_classify_rejects_negative_counts():
    with pytest.raises(InvariantError):
        classify((-1, 0))
    with pytest.raises(InvariantError):
        classify((0, -2))


@given(st.integers(0, 40), st.integers(0, 40))
def test_classify_buckets_by_flip_count(n1, n2):
    label = classify((n1, n2)).value
    first = "N" if n1 == 0 else ("F" if n1 == 1 else "F_m")
    second = "N" if n2 == 0 else ("F" if n2 == 1 else "F_m")
    assert label == first + second


# ---------------------------------------------------------------------------
# estimators


def test_standard_error_known_values():
    assert standard_error(0.5, 100) == 0.05
    assert standard_error(0.0, 10) == 0.0
    assert standard_error(0.1, 900) == pytest.approx(0.01)


def test_standard_error_domain():
    with pytest.raises(InvariantError):
        standard_error(0.5, 0)
    with pytest.raises(InvariantError):
        standard_error(1.5, 10)
    with pytest.raises(InvariantError):
        standard_error(-0.1, 10)


def test_ratio_basics():
    r = Ratio(19, 38)
    assert r.defined
    assert r.value == 0.5
    assert r.display() == "0.5"
    assert r.stderr == pytest.approx((0.25 / 38) ** 0.5)
    assert Ratio(0, 5).display() == "0"
    assert Ratio(0, 5).value == 0.0


def test_ratio_undefined_renders_dash():
    r = Ratio(3, 0)
    assert not r.defined
    assert r.value is None
    assert r.stderr is None
    assert r.display() == "-"


# ---------------------------------------------------------------------------
# per-sample RNG streams


def test_sample_rng_frozen_draws():
    r = sample_rng(1, 0)
    assert [r.random() for _ in range(3)] == pytest.approx(
        [0.32643590194213423, 0.7369391511799519, 0.03132538961930631]
    )
    r2 = sample_rng(7, 123)
    assert [r2.random() for _ in range(2)] == pytest.approx(
        [0.528585322833603, 0.1253933116043101]
    )


def test_sample_rng_streams_are_independent():
    a = [sample_rng(1, i).random() for i in range(64)]
    b = [sample_rng(1, i).random() for i in range(64)]
    c = [sample_rng(2, i).random() for i in range(64)]
    assert a == b
    assert a != c
    assert len(set(a)) == 64


def test_sample_strike_respects_bounds():
    c = bundled_circuit("toy_chain")
    p = load_bundled_profile("toy-equal")
    tr = simulate_reference(c, Stimulus.random(7, seed=3))
    table = enumerate_drains(c, p)
    period, settle = 720.0, 170.0
    for i in range(500):
        s = sample_strike(sample_rng(9, i), table, strike_cycles(tr), period, settle)
        assert s.drain in table.sites
        assert 1 <= s.k <= 5
        assert settle <= s.t < period


def test_sample_strike_single_drain_table():
    c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n", name="solo")
    doc = {
        "node_label": "t",
        "gate_delay": {"NOT1": 100.0},
        "ff_setup": 30.0,
        "ff_hold": 20.0,
        "ff_clk_to_q": 50.0,
        "clock_margin": 20.0,
        "glitch_width": 120.0,
        "filter_threshold": 1.0,
        "drain_spec": {
            "DFF": [{"area": 1.0, "polarity": "pulls-low", "ff_node_class": "state-node"}]
        },
    }
    table = enumerate_drains(c, profile_from(doc))
    tr = simulate_reference(c, Stimulus.random(4, seed=1))
    for i in range(20):
        s = sample_strike(sample_rng(3, i), table, strike_cycles(tr), 100.0, 50.0)
        assert s.drain.id == "q[0]"


# ---------------------------------------------------------------------------
# campaign configuration


@pytest.fixture(scope="module")
def toy_setup():
    c = bundled_circuit("toy_chain")
    p = load_bundled_profile("toy-equal")
    tr = simulate_reference(c, Stimulus.random(6, seed=2))
    return c, p, tr


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(max_samples=0), "max_samples"),
        (dict(min_samples=0), "min_samples must be >= 1"),
        (dict(min_samples=500, max_samples=100), r"max_samples \(100\) < min_samples \(500\)"),
        (dict(stderr_target=0.0), r"stderr_target must be in \(0, 1\)"),
        (dict(stderr_target=1.5), r"stderr_target must be in \(0, 1\)"),
    ],
)
def test_campaign_config_validation(toy_setup, kwargs, message):
    c, p, tr = toy_setup
    with pytest.raises(ConfigError, match=message):
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1, **kwargs)


# ---------------------------------------------------------------------------
# Monte-Carlo campaigns


@pytest.fixture(scope="module")
def small_campaign(toy_setup):
    c, p, tr = toy_setup
    cfg = CampaignConfig(
        circuit=c, profile=p, trace=tr, rng_seed=5,
        max_samples=300, min_samples=50, stderr_target=0.2,
    )
    return cfg, run_campaign(cfg)


def test_campaign_counts_are_consistent(small_campaign):
    _, stats = small_campaign
    assert stats.stop_reason == "max-samples"
    assert stats.total_samples == 300
    total = 0
    for sclass in ("gate", "register"):
        cs = stats.per_class[sclass]
        assert sum(cs.counts.values()) == cs.n
        total += cs.n
        if cs.n:
            assert sum(cs.probs.values()) == pytest.approx(1.0, abs=1e-12)
            for oc, prob in cs.probs.items():
                assert prob == cs.counts[oc] / cs.n
    assert total == 300
    assert sum(stats.class_share.values()) == pytest.approx(1.0)


def test_campaign_records_match_counts(small_campaign):
    _, stats = small_campaign
    assert [r.index for r in stats.records] == list(range(300))
    for r in stats.records:
        assert classify((r.n_e1, r.n_e2)) is r.outcome
    for sclass in ("gate", "register"):
        subset = [r for r in stats.records if r.strike_class == sclass]
        cs = stats.per_class[sclass]
        assert len(subset) == cs.n
        for oc in OutcomeClass:
            assert cs.counts[oc] == sum(1 for r in subset if r.outcome is oc)


def test_campaign_metrics_agree_with_counts(small_campaign):
    # numerators count NF_m strictly: multi-flips riding on a corrupted first
    # edge (FF_m, F_mF_m) are not attributed to the strike itself
    _, stats = small_campaign
    gate = stats.per_class["gate"]
    reg = stats.per_class["register"]
    gate_err = sum(v for oc, v in gate.counts.items() if oc is not OutcomeClass.NN)
    reg_err = sum(v for oc, v in reg.counts.items() if oc is not OutcomeClass.NN)
    assert stats.p_gm.num == gate.counts[OutcomeClass.NFM]
    assert stats.p_gm.den == gate_err
    assert stats.p_rm.num == reg.counts[OutcomeClass.NFM]
    assert stats.p_rm.den == reg_err
    assert stats.p_m.num == gate.counts[OutcomeClass.NFM] + reg.counts[OutcomeClass.NFM]
    assert stats.p_m.den == gate_err + reg_err


def test_campaign_reruns_identically(small_campaign):
    cfg, stats = small_campaign
    again = run_campaign(cfg)
    assert sample_log_text(again.records) == sample_log_text(stats.records)


def test_campaign_seed_changes_samples(toy_setup):
    c, p, tr = toy_setup
    base = dict(circuit=c, profile=p, trace=tr, max_samples=200, min_samples=50)
    a = run_campaign(CampaignConfig(rng_seed=1, **base))
    b = run_campaign(CampaignConfig(rng_seed=2, **base))
    assert sample_log_text(a.records) != sample_log_text(b.records)


# ---------------------------------------------------------------------------
# the stopping rule, isolated behind a stubbed per-sample runner


def _flop_only_setup():
    c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n", name="solo")
    doc = {
        "node_label": "t",
        "gate_delay": {"NOT1": 100.0},
        "ff_setup": 30.0,
        "ff_hold": 20.0,
        "ff_clk_to_q": 50.0,
        "clock_margin": 20.0,
        "glitch_width": 120.0,
        "filter_threshold": 1.0,
        "drain_spec": {
            "DFF": [
                {"area": 1.0, "polarity": "pulls-low", "ff_node_class": "state-node"},
                {"area": 1.0, "polarity": "pulls-high", "ff_node_class": "state-node"},
            ]
        },
    }
    p = profile_from(doc)
    tr = simulate_reference(c, Stimulus.random(5, seed=1))
    return c, p, tr


def _bernoulli_runner(prob):
    """A stand-in for ``run_sample`` that flips one flop at the second edge
    with probability ``prob``, drawn from the sample's stream."""
    def runner(ctx, sample, policy, rng, reads=None):
        flips = frozenset({"q"}) if rng.random() < prob else frozenset()
        return SampleResult(flips_e1=frozenset(), flips_e2=flips)

    return runner


def _first_qualifying_prefix(records, min_samples, target):
    flips = 0
    for i, rec in enumerate(records, start=1):
        if rec.outcome is not OutcomeClass.NN:
            flips += 1
        if i < min_samples:
            continue
        p = flips / i
        if p == 0.0:
            return i
        if standard_error(p, i) < target * p:
            return i
    return None


def test_stopping_rule_halts_at_first_qualifying_sample(monkeypatch):
    c, p, tr = _flop_only_setup()
    cfg = CampaignConfig(
        circuit=c, profile=p, trace=tr, rng_seed=11,
        max_samples=10_000, min_samples=100, stderr_target=0.1,
    )
    monkeypatch.setattr(campaign, "run_sample", _bernoulli_runner(0.2))
    stats = run_campaign(cfg)
    assert stats.stop_reason == "stderr-met"
    assert stats.per_class["gate"].n == 0
    expected = _first_qualifying_prefix(stats.records, 100, 0.1)
    assert stats.total_samples == expected
    # a 20 % flip probability needs roughly (1 - p) / (p * target^2) samples
    assert 250 <= stats.total_samples <= 650


def test_stopping_rule_ignores_flip_free_classes(monkeypatch):
    c, p, tr = _flop_only_setup()
    cfg = CampaignConfig(
        circuit=c, profile=p, trace=tr, rng_seed=3,
        max_samples=10_000, min_samples=100, stderr_target=0.1,
    )
    monkeypatch.setattr(campaign, "run_sample", _bernoulli_runner(0.0))
    stats = run_campaign(cfg)
    assert stats.stop_reason == "stderr-met"
    assert stats.total_samples == 100
    assert stats.per_class["register"].counts[OutcomeClass.NN] == 100


def test_stopping_rule_gives_up_at_max_samples(monkeypatch):
    c, p, tr = _flop_only_setup()
    cfg = CampaignConfig(
        circuit=c, profile=p, trace=tr, rng_seed=11,
        max_samples=150, min_samples=100, stderr_target=0.01,
    )
    monkeypatch.setattr(campaign, "run_sample", _bernoulli_runner(0.2))
    stats = run_campaign(cfg)
    assert stats.stop_reason == "max-samples"
    assert stats.total_samples == 150


def _class_bernoulli_runner(gate_prob, register_prob):
    prob = {"gate": gate_prob, "register": register_prob}

    def runner(ctx, sample, policy, rng, reads=None):
        flips = frozenset({"q"}) if rng.random() < prob[sample.strike_class] else frozenset()
        return SampleResult(flips_e1=frozenset(), flips_e2=flips)

    return runner


def _full_rejudgement_stop(records, min_samples, stderr_target, max_samples):
    """(total_samples, stop_reason) of a campaign that re-judges every strike
    class with samples by ``_criterion_met`` after every sample."""
    n = {"gate": 0, "register": 0}
    erroneous = {"gate": 0, "register": 0}
    for i, rec in enumerate(records, start=1):
        n[rec.strike_class] += 1
        erroneous[rec.strike_class] += rec.outcome is not OutcomeClass.NN
        if i >= min_samples and all(_criterion_met(n[s], erroneous[s], stderr_target)
                                    for s in n if n[s]):
            return i, "stderr-met"
    return max_samples, "max-samples"


@pytest.mark.parametrize("circuit", ["toy_chain", "solo"])
@pytest.mark.parametrize("gate_prob, register_prob",
                         [(0.0, 0.0), (0.0, 0.3), (0.3, 0.0), (0.05, 0.6), (0.5, 1.0),
                          (0.3, 0.35), (0.6, 0.5)])
def test_incremental_stopping_rule_matches_full_rejudgement(monkeypatch, circuit, gate_prob,
                                                           register_prob):
    # the campaign re-judges only the class a sample changed; a full
    # re-judgement of both classes after every sample must stop at the same
    # index for the same reason.  A class that meets the rule at a flip can
    # fail it again after samples that do not flip, so every sample must be
    # re-judged.  "solo" has no gate drain, so its gate class never occurs;
    # a 0.0 rate makes a class that never flips
    if circuit == "solo":
        c, p, tr = _flop_only_setup()
    else:
        c = bundled_circuit(circuit)
        p = load_bundled_profile("toy-equal")
        tr = simulate_reference(c, Stimulus.random(6, seed=2))
    monkeypatch.setattr(campaign, "run_sample",
                        _class_bernoulli_runner(gate_prob, register_prob))
    for min_samples in (1, 40, 400):
        for target in (0.05, 0.1, 0.2, 0.3, 0.4):
            for seed in (1, 2, 3):
                cfg = CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=seed,
                                     max_samples=1500, min_samples=min_samples,
                                     stderr_target=target)
                stats = run_campaign(cfg)
                want = _full_rejudgement_stop(stats.records, min_samples, target, 1500)
                assert (stats.total_samples, stats.stop_reason) == want, (
                    min_samples, target, seed)
                assert len(stats.records) == stats.total_samples
                # the log replay that ``report --recompute`` runs
                assert stopping_row(stats.records, min_samples, target) == (
                    stats.total_samples - 1
                    if stats.stop_reason == "stderr-met" else None)


# ---------------------------------------------------------------------------
# the strike draw: run_campaign draws each strike inline, and must draw what
# sample_strike draws through the public random API


def _public_api_draw(table, cycles, period, settle, seed, index):
    """(drain, k, t, RNG state afterwards) of sample ``index``, drawn with
    the public ``random`` API: ``DrainTable.pick``, ``randrange`` and
    ``random``."""
    rng = sample_rng(seed, index)
    drain = table.pick(rng.random())
    k = rng.randrange(cycles.start, cycles.stop)
    t = settle + rng.random() * (period - settle)
    return drain, k, t, rng.getstate()


@pytest.mark.parametrize("cycle_count", [3, 4, 5, 49, 50, 66, 67],
                         ids=lambda n: f"width-{n - 2}")
def test_campaign_draws_follow_the_public_random_api(monkeypatch, cycle_count):
    # Each row's drain, k and repr(t) are those the public API draws from
    # sample_rng(seed, i), and run_sample gets the generator in the state
    # those draws leave, so window-random draws follow from the same state.
    # The strike-cycle widths cover randrange's getrandbits rejection loop
    # at 1 bit (width 1 still draws), just below and at a power of two and
    # one past it.  The runner's flip counts run 0..3 at each edge, so every
    # outcome class and the inline outcome index meet classify's.
    c = bundled_circuit("s27")
    p = load_bundled_profile("65nm-like")
    tr = simulate_reference(c, Stimulus.random(cycle_count, seed=4))
    ctx = SimContext.build(c, p).bind(tr)
    table = enumerate_drains(c, p)
    cycles = strike_cycles(tr)
    assert len(cycles) == cycle_count - 2
    seen = []

    def runner(ctx, sample, policy, rng, reads=None):
        seen.append((sample, rng.getstate()))
        n1, n2 = len(seen) % 4, len(seen) // 4 % 4
        return SampleResult(frozenset(f"a{j}" for j in range(n1)),
                            frozenset(f"b{j}" for j in range(n2)))

    monkeypatch.setattr(campaign, "run_sample", runner)
    for seed in (0, 1, 2, 7, 99, 12345, 2**32 + 1, 2**64 - 1):
        seen.clear()
        stats = run_campaign(CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=seed,
                                            max_samples=300, stderr_target=1e-6))
        assert len(stats.records) == len(seen) == 300
        for j, (rec, (sample, state)) in enumerate(zip(stats.records, seen)):
            drain, k, t, want_state = _public_api_draw(
                table, cycles, ctx.period, ctx.settle, seed, rec.index)
            where = (seed, rec.index)
            assert type(sample) is StrikeSample, where
            assert (sample.drain, sample.k, repr(sample.t)) == (drain, k, repr(t)), where
            assert (rec.drain_id, rec.strike_class, rec.k, repr(rec.t)) == (
                drain.id, drain.strike_class, k, repr(t)), where
            assert state == want_state, where
            assert sample == sample_strike(sample_rng(seed, rec.index), table, cycles,
                                           ctx.period, ctx.settle), where
            assert (rec.n_e1, rec.n_e2) == ((j + 1) % 4, (j + 1) // 4 % 4), where
            assert rec.outcome is classify((rec.n_e1, rec.n_e2)), where
        for sclass, cs in stats.per_class.items():
            rows = [rec for rec in stats.records if rec.strike_class == sclass]
            assert cs.n == len(rows)
            assert cs.counts == {oc: sum(rec.outcome is oc for rec in rows)
                                 for oc in OutcomeClass}


# ---------------------------------------------------------------------------
# derived metrics


def test_derive_metrics_frozen_example():
    gate = ClassStats()
    gate.n = 50
    gate.counts[OutcomeClass.NN] = 12
    gate.counts[OutcomeClass.NF] = 19
    gate.counts[OutcomeClass.NFM] = 19
    reg = ClassStats()
    reg.n = 600
    reg.counts[OutcomeClass.NN] = 100
    reg.counts[OutcomeClass.FN] = 490
    reg.counts[OutcomeClass.NFM] = 10
    p_m, p_gm, p_rm = derive_metrics({"gate": gate, "register": reg})
    assert (p_gm.num, p_gm.den) == (19, 38)
    assert p_gm.value == 0.5
    assert (p_rm.num, p_rm.den) == (10, 500)
    assert p_rm.value == 0.02
    assert (p_m.num, p_m.den) == (29, 538)


def test_derive_metrics_all_undefined():
    p_m, p_gm, p_rm = derive_metrics({"gate": ClassStats(), "register": ClassStats()})
    assert [m.display() for m in (p_m, p_gm, p_rm)] == ["-", "-", "-"]


def test_class_stats_flip_probability():
    cs = ClassStats()
    cs.n = 80
    cs.counts[OutcomeClass.NN] = 60
    cs.counts[OutcomeClass.NF] = 15
    cs.counts[OutcomeClass.FN] = 5
    flip = cs.flip_probability()
    assert (flip.num, flip.den) == (20, 80)


# ---------------------------------------------------------------------------
# the exhaustive oracle


def test_exhaustive_enumeration_size(toy_setup):
    c, p, tr = toy_setup
    # 12 drain sites x 4 strikable cycles x 3 grid points
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=3
    )
    assert stats.stop_reason == "exhaustive"
    assert stats.total_samples == 144
    assert not stats.records
    n = sum(stats.per_class[sc].n for sc in ("gate", "register"))
    assert n == 144


def test_exhaustive_probabilities_are_area_weighted():
    c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n", name="solo")
    doc = {
        "node_label": "t",
        "gate_delay": {"NOT1": 100.0},
        "ff_setup": 40.0,
        "ff_hold": 20.0,
        "ff_clk_to_q": 60.0,
        "clock_margin": 100.0,
        "glitch_width": 150.0,
        "filter_threshold": 1.0,
        "drain_spec": {
            "DFF": [
                {"area": 1.0, "polarity": "pulls-low", "ff_node_class": "state-node"},
                {"area": 1.0, "polarity": "pulls-high", "ff_node_class": "state-node"},
                {"area": 3.0, "polarity": "pulls-low", "ff_node_class": "capture-node"},
                {"area": 3.0, "polarity": "pulls-high", "ff_node_class": "capture-node"},
            ],
        },
    }
    p = profile_from(doc)
    tr = simulate_reference(c, Stimulus.explicit([(1,)] * 4))
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=5
    )
    reg = stats.per_class["register"]
    # raw counts are per enumeration cell (2 cycles x 5 grid points per site)
    assert reg.n == 40
    assert reg.counts[OutcomeClass.NN] == 20
    assert reg.counts[OutcomeClass.NF] == 10
    assert reg.counts[OutcomeClass.FN] == 10
    # ...but probabilities weight each site by its drain area: the capture
    # node is three times the state node, so NF outweighs FN three to one
    assert reg.probs[OutcomeClass.NN] == pytest.approx(0.5)
    assert reg.probs[OutcomeClass.NF] == pytest.approx(0.375)
    assert reg.probs[OutcomeClass.FN] == pytest.approx(0.125)


def test_exhaustive_single_point_grid(toy_setup):
    c, p, tr = toy_setup
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=1
    )
    assert stats.total_samples == 48
    assert stats.stop_reason == "exhaustive"


def test_exhaustive_rejects_bad_requests(toy_setup):
    c, p, tr = toy_setup
    cfg = CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1)
    with pytest.raises(ConfigError, match="t_grid must be >= 1"):
        exhaustive_campaign(cfg, t_grid=0)
    with pytest.raises(ConfigError, match="exceeds the 10000000 budget"):
        exhaustive_campaign(cfg, t_grid=10**9)
    wr = CampaignConfig(
        circuit=c, profile=p, trace=tr, rng_seed=1,
        policy=CapturePolicy("window-random", 0.5),
    )
    with pytest.raises(ConfigError, match="requires the instant policy"):
        exhaustive_campaign(wr, t_grid=3)


def test_exhaustive_matches_direct_average(toy_setup):
    # with equal site areas the weighted probabilities reduce to plain
    # per-sample averages, which we can recount from scratch
    c, p, tr = toy_setup
    from seusim.injector import SimContext, StrikeSample, run_sample

    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=4
    )
    ctx = SimContext.build(c, p).bind(tr)
    table = enumerate_drains(c, p)
    step = (ctx.period - ctx.settle) / 4
    counts = {"gate": dict.fromkeys(OutcomeClass, 0), "register": dict.fromkeys(OutcomeClass, 0)}
    totals = {"gate": 0, "register": 0}
    for site in table.sites:
        for k in range(1, tr.cycle_count - 1):
            for i in range(4):
                t = ctx.settle + i * step
                r = run_sample(ctx, StrikeSample(drain=site, k=k, t=t))
                counts[site.strike_class][classify(r.flip_counts)] += 1
                totals[site.strike_class] += 1
    for sclass in ("gate", "register"):
        cs = stats.per_class[sclass]
        assert cs.n == totals[sclass]
        for oc in OutcomeClass:
            assert cs.counts[oc] == counts[sclass][oc]
            assert cs.probs[oc] == pytest.approx(counts[sclass][oc] / totals[sclass])


@pytest.mark.parametrize("run", [
    run_campaign,
    lambda cfg: exhaustive_campaign(cfg, t_grid=3),
], ids=["campaign", "oracle"])
def test_two_cycle_trace_is_rejected(toy_setup, run):
    c, p, tr = toy_setup
    short = dataclasses.replace(
        tr, cycle_count=2,
        net_masks={net: m & 3 for net, m in tr.net_masks.items()})
    cfg = CampaignConfig(circuit=c, profile=p, trace=short, rng_seed=1)
    with pytest.raises(ConfigError, match="trace must cover at least 3 cycles"):
        run(cfg)


def _count_row_simulations(monkeypatch):
    """Count ``strike_row``, ``run_sample`` and ``_propagate`` calls.

    Each is wrapped where its caller looks it up: ``strike_row`` and
    ``run_sample`` in ``campaign``, ``_propagate`` in ``injector``.
    """
    calls = dict.fromkeys(("strike_row", "run_sample", "_propagate"), 0)
    for module, name in ((campaign, "strike_row"), (campaign, "run_sample"),
                         (injector, "_propagate")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def _per_cell_reference(c, p, tr, t_grid):
    """(counts, area-weighted counts, area sums) per strike class, from
    every (drain, cycle, grid time) simulated by ``run_sample``, weighted
    by area in drain order as the oracle weights them."""
    ctx = SimContext.build(c, p).bind(tr)
    table = enumerate_drains(c, p)
    step = (ctx.period - ctx.settle) / t_grid
    cells = (tr.cycle_count - 2) * t_grid
    counts = {s: dict.fromkeys(OutcomeClass, 0) for s in ("gate", "register")}
    weighted = {s: dict.fromkeys(OutcomeClass, 0.0) for s in ("gate", "register")}
    weight_sum = {"gate": 0.0, "register": 0.0}
    for site in table.sites:
        site_counts = dict.fromkeys(OutcomeClass, 0)
        for k in range(1, tr.cycle_count - 1):
            for i in range(t_grid):
                r = run_sample(ctx, StrikeSample(drain=site, k=k, t=ctx.settle + i * step))
                site_counts[classify(r.flip_counts)] += 1
        for oc, cnt in site_counts.items():
            counts[site.strike_class][oc] += cnt
            weighted[site.strike_class][oc] += site.area * (cnt / cells)
        weight_sum[site.strike_class] += site.area
    return counts, weighted, weight_sum


@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like",
                                          "toy-equal"])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_exhaustive_cone_memo_is_exact(monkeypatch, name, profile_name):
    # reference: every (drain, cycle, grid time) simulated, then the same
    # area weighting in the same order, so floats must agree bit for bit
    c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    p = load_bundled_profile(profile_name)
    tr = simulate_reference(c, Stimulus.random(20, seed=4))
    t_grid = 7
    table = enumerate_drains(c, p)
    cells = (tr.cycle_count - 2) * t_grid
    counts, weighted, weight_sum = _per_cell_reference(c, p, tr, t_grid)

    calls = _count_row_simulations(monkeypatch)
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=t_grid
    )
    assert stats.total_samples == len(table.sites) * cells
    # one propagation per struck net and node class among the gate and
    # state-node drains whose polarity matches in some cycle, shared by
    # both polarities' drains, and one strike per such capture-node drain;
    # none per drain, cycle or grid time
    matching = [site for site in table.sites
                if any(polarity_matches(site.polarity, tr.net_value(k, site.net))
                       for k in range(1, tr.cycle_count - 1))]
    capture = sum(site.ff_node_class == "capture-node" for site in matching)
    rows = len({(site.net, site.ff_node_class) for site in matching
                if site.ff_node_class != "capture-node"})
    assert calls == {"strike_row": rows, "run_sample": capture,
                     "_propagate": rows}
    assert matching
    for sclass in ("gate", "register"):
        cs = stats.per_class[sclass]
        assert cs.counts == counts[sclass]
        assert cs.probs == {oc: weighted[sclass][oc] / weight_sum[sclass]
                            for oc in OutcomeClass}


def _uneven_profile(tmp_path, base):
    """The bundled profile ``base``, edited in ``tmp_path`` so that a NOT or
    an XOR has one drain, a NAND or a flop's state node two of unequal
    area, and a NOR three, two of them of one polarity."""
    doc = json.loads(resources.files("seusim").joinpath(
        f"data/profiles/{base}.json").read_text(encoding="utf-8"))
    spec = doc["drain_spec"]
    spec["NOT"] = [{"area": 0.3, "polarity": "pulls-high"}]
    spec["XOR"] = [{"area": 0.45, "polarity": "pulls-low"}]
    spec["NAND"] = [{"area": 0.2, "polarity": "pulls-low"},
                    {"area": 0.9, "polarity": "pulls-high"}]
    spec["NOR"] = [{"area": 0.35, "polarity": "pulls-low"},
                   {"area": 0.1, "polarity": "pulls-high"},
                   {"area": 0.6, "polarity": "pulls-high"}]
    spec["DFF"][0]["area"] = 0.4
    path = tmp_path / f"{base}-uneven.json"
    path.write_text(json.dumps(doc))
    return load_profile(path.read_text(), source=str(path))


@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like"])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_exhaustive_shared_rows_are_exact(monkeypatch, tmp_path, name,
                                          profile_name):
    # the drains of one struck net share its row and its grid judgments,
    # whatever their number, polarities and areas; each drain's counts and
    # its area-weighted share must still equal the per-cell reference
    c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    p = _uneven_profile(tmp_path, profile_name)
    tr = simulate_reference(c, Stimulus.random(20, seed=4))
    t_grid = 7
    counts, weighted, weight_sum = _per_cell_reference(c, p, tr, t_grid)
    calls = _count_row_simulations(monkeypatch)
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=t_grid
    )
    drains = {}
    for site in enumerate_drains(c, p).sites:
        if site.ff_node_class != "capture-node":
            drains.setdefault((site.net, site.ff_node_class), []).append(site)
    struck = [key for key, sites in drains.items()
              if any(polarity_matches(site.polarity, tr.net_value(k, site.net))
                     for site in sites for k in range(1, tr.cycle_count - 1))]
    assert calls["strike_row"] == calls["_propagate"] == len(struck)
    if name == "s27":
        sizes = sorted(len(sites) for sites in drains.values())
        assert sizes[0] == 1 and sizes[-1] == 3
        assert any(len({site.area for site in sites}) == 2
                   for sites in drains.values() if len(sites) == 2)
    for sclass in ("gate", "register"):
        cs = stats.per_class[sclass]
        assert cs.counts == counts[sclass]
        assert cs.probs == {oc: weighted[sclass][oc] / weight_sum[sclass]
                            for oc in OutcomeClass}


def test_exhaustive_counts_wrong_polarity_rows_without_simulating(monkeypatch):
    # s27 under 180nm-like has 26 gate or state-node drains on 13 nets and
    # 6 capture-node drains.  At random:50:1000 each drain's polarity
    # matches in some of the 48 strike cycles, and the other cycles count
    # as NN without being simulated.  So each of the 13 nets propagates
    # once from t = 0, for the matching cycles of both its drains together,
    # each capture-node drain runs one strike, and no drain, cycle or grid
    # time propagates again
    c = bundled_circuit("s27")
    p = load_bundled_profile("180nm-like")
    tr = simulate_reference(c, Stimulus.random(50, 1000))
    calls = _count_row_simulations(monkeypatch)
    stats = exhaustive_campaign(
        CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1), t_grid=50
    )
    assert stats.total_samples == 76_800
    assert calls == {"strike_row": 13, "run_sample": 6, "_propagate": 13}


# ---------------------------------------------------------------------------
# the per-campaign reads table: a strike's t-independent reads are kept per
# (drain, k) and judged again at each later strike time


def _flop_order_reference(ctx, tr, sample, policy, rng):
    """SampleResult of a strike judged from its ``strike_row``, flop by flop
    in circuit order, without the reads a campaign keeps."""
    drain, k, t = sample
    if not polarity_matches(drain.polarity, tr.net_value(k, drain.net)):
        return SampleResult(frozenset(), frozenset())
    if drain.ff_node_class == "capture-node":
        return SampleResult(frozenset(), frozenset([drain.cell]))
    row = strike_row(ctx, drain, 1 << k)
    flips, hits = set(), 0
    for flop in ctx.circuit.flops:
        golden = tr.net_value(k, flop.data)
        captured, hit = capture_at_edge(
            golden, [(t + s, t + e) for s, e, _ in row.get(flop.data, ())],
            ctx.period, ctx.profile, policy, rng)
        hits += hit
        if captured != golden:
            flips.add(flop.id)
    e1 = frozenset([drain.cell]) if drain.ff_node_class == "state-node" else frozenset()
    return SampleResult(e1, frozenset(flips), hits)


@pytest.mark.parametrize("policy", [INSTANT, CapturePolicy("window-random", 0.5)],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("profile_name", ["65nm-like", "180nm-like"])
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS + ("mul8",))
def test_campaign_rows_match_cold_replays(monkeypatch, name, profile_name, policy):
    # Every row of a campaign, whose strikes reuse the reads of earlier
    # strikes at the same (drain, k), equals its sample replayed through
    # run_sample on a freshly bound context: the same strike, the same flip
    # sets and the same RNG state afterwards.  Each replay also equals a
    # flop-by-flop judgement of its strike row, and its debug capture lines
    # come in circuit flop order, so reads that lose that order (which
    # decides the window-random draws and the debug text) fail too.  The
    # bundled circuits keep the table (at most 66 drains x 18 cycles <=
    # 2000 samples); mul8 bypasses it.
    if name == "mul8":
        c = wrap_combinational(parse_bench(multiplier_bench(8), name=name))
    else:
        c = bundled_circuit(name)
        if not c.flops:
            c = wrap_combinational(c)
    p = load_bundled_profile(profile_name)
    tr = simulate_reference(c, Stimulus.random(20, seed=3))
    cfg = CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=11, max_samples=2000,
                         stderr_target=1e-6, policy=policy)
    seen = []

    def recording(ctx, sample, policy, rng, **kwargs):
        result = run_sample(ctx, sample, policy, rng, **kwargs)
        seen.append((kwargs.get("reads") is not None, result, rng.getstate()))
        return result

    monkeypatch.setattr(campaign, "run_sample", recording)
    stats = run_campaign(cfg)
    assert len(stats.records) == len(seen) == 2000
    assert {cached for cached, _, _ in seen} == {name != "mul8"}

    ctx = SimContext.build(c, p).bind(tr)
    table = enumerate_drains(c, p)
    cycles = strike_cycles(tr)
    flop_order = {flop.id: i for i, flop in enumerate(c.flops)}
    for rec, (_, got, got_state) in zip(stats.records, seen):
        rng = sample_rng(cfg.rng_seed, rec.index)
        sample = sample_strike(rng, table, cycles, ctx.period, ctx.settle)
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        lines = []
        want = run_sample(ctx, sample, policy, rng, debug=lines)
        where = (rec.index, sample.drain.id, sample.k)
        captured = [line.split()[1][len("flop="):] for line in lines
                    if line.startswith("capture flop=")]
        assert captured == sorted(captured, key=flop_order.get), where
        assert (rec.drain_id, rec.k, rec.t, rec.n_e1, rec.n_e2) == (
            sample.drain.id, sample.k, sample.t, len(want.flips_e1), len(want.flips_e2)), where
        assert got == want, where
        assert got_state == rng.getstate(), where
        assert _flop_order_reference(ctx, tr, sample, policy, ref_rng) == want, where
        assert ref_rng.getstate() == got_state, where


@pytest.mark.parametrize("max_samples, cached", [(1600, True), (1400, False)])
def test_campaign_runs_each_strike_through_run_sample(monkeypatch, max_samples, cached):
    # perfbench's traced run derives campaign.strike_key_reuse_ratio,
    # campaign.gate_strike_share and injector.flip_ratio from the calls to
    # campaign.run_sample, one per strike, and injector.pulses_at_flops from
    # the calls to injector._propagate.  s27 has 32 drains; at 50 cycles its
    # 32 x 48 = 1536 keys fit in 1600 samples, so a key's reads are stored
    # and _propagate runs once per matching gate or state-node key.  At
    # 1400 samples the table is bypassed and every matching gate or
    # state-node strike propagates.
    c = bundled_circuit("s27")
    p = load_bundled_profile("65nm-like")
    tr = simulate_reference(c, Stimulus.random(50, seed=1))
    cfg = CampaignConfig(circuit=c, profile=p, trace=tr, rng_seed=1,
                         max_samples=max_samples, stderr_target=1e-6)
    calls = _count_row_simulations(monkeypatch)
    stats = run_campaign(cfg)
    assert stats.total_samples == max_samples
    assert calls["run_sample"] == max_samples
    sites = {d.id: d for d in enumerate_drains(c, p).sites}
    propagating = [(rec.drain_id, rec.k) for rec in stats.records
                   if sites[rec.drain_id].ff_node_class != "capture-node"
                   and polarity_matches(sites[rec.drain_id].polarity,
                                        tr.net_value(rec.k, sites[rec.drain_id].net))]
    want = len(set(propagating)) if cached else len(propagating)
    assert calls["_propagate"] == want
    assert len(set(propagating)) < len(propagating)


# ---------------------------------------------------------------------------
# the sample log


def test_sample_log_round_trip(small_campaign):
    _, stats = small_campaign
    text = sample_log_text(stats.records)
    assert text.splitlines()[0] == ",".join(LOG_COLUMNS)
    rows = read_sample_log(io.StringIO(text))
    assert rows == list(stats.records)
    for rec in (rows[0], stats.records[0]):
        with pytest.raises(AttributeError):
            rec.k = 2


def test_sample_log_preserves_float_precision(small_campaign):
    _, stats = small_campaign
    rows = read_sample_log(io.StringIO(sample_log_text(stats.records)))
    assert all(a.t == b.t for a, b in zip(rows, stats.records))


def test_sample_log_rejects_unknown_header():
    with pytest.raises(InvariantError, match="unexpected sample log header"):
        read_sample_log(io.StringIO("a,b,c\n1,2,3\n"))


_LOG_FIELDS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='0123456789.-+eE,"\r\n\x00 ', max_size=8),
    st.sampled_from(["0", "g1[0]", "gate", "register", "1", "200.5", "NF", "F_mF_m", '""']),
    st.integers().map(str),
    st.floats().map(repr),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.lists(_LOG_FIELDS, max_size=10).map(",".join), st.text()),
                max_size=4))
def test_sample_log_rows_parse_or_raise_input_error(rows):
    # whatever follows a valid header either parses or is an InputError
    text = ",".join(LOG_COLUMNS) + "\n" + "\n".join(rows) + "\n"
    try:
        records = read_sample_log(io.StringIO(text))
    except InputError:
        return
    assert len(records) <= text.count("\n")


def test_recompute_from_log_matches_campaign(small_campaign):
    _, stats = small_campaign
    rows = read_sample_log(io.StringIO(sample_log_text(stats.records)))
    rebuilt = recompute_from_log(rows)
    per_class = rebuilt["per_class"]
    for sclass in ("gate", "register"):
        assert per_class[sclass].counts == stats.per_class[sclass].counts
        assert per_class[sclass].n == stats.per_class[sclass].n
    assert rebuilt["class_share"] == stats.class_share
    for key in ("p_m", "p_gm", "p_rm"):
        r, stored = rebuilt[key], getattr(stats, key)
        assert (r.num, r.den) == (stored.num, stored.den)


def test_recompute_detects_tampered_outcome(small_campaign):
    _, stats = small_campaign
    text = sample_log_text(stats.records).replace(",NN", ",NF", 1)
    with pytest.raises(InputError, match="malformed row"):
        read_sample_log(io.StringIO(text))
