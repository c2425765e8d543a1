"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS/FAIL - <description>`` line
(visible under ``pytest -s``) before asserting, so a run of this module reads
as a checklist.  Shared campaigns are computed once at module scope.
"""

import contextlib
import io
import json
import time

import pytest

from seusim import campaign, cli
from seusim.campaign import (
    CampaignConfig,
    OutcomeClass,
    classify,
    exhaustive_campaign,
    read_sample_log,
    recompute_from_log,
    run_campaign,
    sample_log_text,
    standard_error,
)
from seusim.golden import Stimulus, simulate_reference
from seusim.injector import SampleResult
from seusim.netlist import parse_bench, validate, wrap_combinational
from seusim.techmodel import load_bundled_profile

from conftest import (BUNDLED_CIRCUITS, bundled_bench_text, bundled_circuit,
                      flop_value, profile_from, truth_eval)


def _verdict(num, description, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, detail or description


def _forced_campaign(circuit, profile, trace, seed, samples):
    cfg = CampaignConfig(
        circuit=circuit, profile=profile, trace=trace, rng_seed=seed,
        max_samples=samples, min_samples=samples,
    )
    return run_campaign(cfg)


# ---------------------------------------------------------------------------
# shared campaign data


@pytest.fixture(scope="module")
def toy_results():
    """Three small circuits: 10^4 Monte-Carlo samples next to the full
    enumeration on a 200-point launch-time grid, plus the wall time spent."""
    profile = load_bundled_profile("toy-equal")
    start = time.monotonic()
    results = []
    for name, seed in (("toy_chain", 101), ("toy_fanout", 102), ("toy_mask", 103)):
        circuit = bundled_circuit(name)
        trace = simulate_reference(circuit, Stimulus.random(10, 3))
        mc = _forced_campaign(circuit, profile, trace, seed, 10_000)
        oracle = exhaustive_campaign(
            CampaignConfig(circuit=circuit, profile=profile, trace=trace, rng_seed=seed),
            t_grid=200,
        )
        results.append((name, circuit, mc, oracle))
    return time.monotonic() - start, results


@pytest.fixture(scope="module")
def real_campaigns():
    """10^4-sample campaigns on three sequential circuits at the default
    technology point (the combinational decoder gets a registered boundary)."""
    profile = load_bundled_profile("65nm-like")
    out = {}
    for name in ("decoder3to8", "lfsr8", "fsm3"):
        circuit = bundled_circuit(name)
        if not circuit.flops:
            circuit = wrap_combinational(circuit)
        trace = simulate_reference(circuit, Stimulus.random(12, 7))
        out[name] = _forced_campaign(circuit, profile, trace, 31, 10_000)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_1_monte_carlo_matches_oracle(toy_results):
    elapsed, results = toy_results
    failures = []
    worst = 0.0
    for name, circuit, mc, oracle in results:
        assert len(circuit.gates) <= 10 and len(circuit.flops) <= 4
        for sclass in ("gate", "register"):
            m, o = mc.per_class[sclass], oracle.per_class[sclass]
            for oc in OutcomeClass:
                p_mc, p_or = m.probs[oc], o.probs[oc]
                base = p_or if p_or > 0 else p_mc
                se = standard_error(base, m.n)
                if se == 0.0:
                    if p_mc != p_or:
                        failures.append((name, sclass, oc.value, p_mc, p_or, "se=0"))
                    continue
                z = abs(p_mc - p_or) / se
                worst = max(worst, z)
                if z > 3.0:
                    failures.append((name, sclass, oc.value, p_mc, p_or, f"z={z:.2f}"))
    ok = not failures and elapsed < 60.0
    _verdict(
        1,
        "10^4-sample campaigns match the exhaustive oracle within 3 SE on "
        f"three toy circuits (max |z| {worst:.2f}, {elapsed:.1f} s)",
        ok,
        f"outliers: {failures}, elapsed {elapsed:.1f} s",
    )


def test_acceptance_2_worker_count_invisible(tmp_path):
    bench = tmp_path / "fsm3.bench"
    bench.write_text(bundled_bench_text("fsm3"))
    stop_paths = {
        "stderr-met": ("5000", "0.1"),
        "max-samples": ("2000", "0.01"),
    }
    ok = True
    detail = []
    for expected_stop, (max_samples, stderr_target) in stop_paths.items():
        outputs = {}
        for workers in ("1", "4", "8"):
            out = tmp_path / f"{expected_stop}-{workers}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "campaign", "--circuit", str(bench), "--tech", "65nm-like",
                    "--stimulus", "random:12:7", "--seed", "17",
                    "--max-samples", max_samples, "--min-samples", "100",
                    "--stderr-target", stderr_target, "--workers", workers,
                    "--out", str(out)])
            if code != 0:
                ok = False
                detail.append(f"{expected_stop}: workers={workers} exit {code}")
                continue
            outputs[workers] = tuple(
                (out / name).read_bytes() for name in ("stats.json", "samples.csv"))
        if "1" not in outputs:
            continue
        stop = json.loads(outputs["1"][0])["stop_reason"]
        if stop != expected_stop:
            ok = False
            detail.append(f"{expected_stop}: got {stop}")
        for workers, files in outputs.items():
            if files != outputs["1"]:
                ok = False
                detail.append(f"{expected_stop}: workers={workers} diverged")
    _verdict(
        2,
        "campaign statistics and sample logs are byte-identical for "
        "--workers 1, 4, and 8 on both stop paths",
        ok,
        "; ".join(detail),
    )


def test_acceptance_3_exact_counts_and_log_recomputation(real_campaigns):
    ok = True
    detail = []
    for name, stats in real_campaigns.items():
        gate, reg = stats.per_class["gate"], stats.per_class["register"]
        gate_err = sum(v for oc, v in gate.counts.items() if oc is not OutcomeClass.NN)
        reg_err = sum(v for oc, v in reg.counts.items() if oc is not OutcomeClass.NN)
        identities = (
            stats.p_gm.num == gate.counts[OutcomeClass.NFM]
            and stats.p_gm.den == gate_err
            and stats.p_rm.num == reg.counts[OutcomeClass.NFM]
            and stats.p_rm.den == reg_err
            and stats.p_m.num == stats.p_gm.num + stats.p_rm.num
            and stats.p_m.den == gate_err + reg_err
        )
        rows = read_sample_log(io.StringIO(sample_log_text(stats.records)))
        rebuilt = recompute_from_log(rows)
        per_class = rebuilt["per_class"]
        replay = (
            all(
                per_class[sc].counts == stats.per_class[sc].counts
                and per_class[sc].n == stats.per_class[sc].n
                for sc in ("gate", "register")
            )
            and rebuilt["class_share"] == stats.class_share
            and all(
                (rebuilt[k].num, rebuilt[k].den)
                == (getattr(stats, k).num, getattr(stats, k).den)
                for k in ("p_m", "p_gm", "p_rm")
            )
        )
        if not (identities and replay):
            ok = False
            detail.append(f"{name}: identities={identities} replay={replay}")
    _verdict(
        3,
        "multi-flip ratios are exact integer counts and recomputing from "
        "the sample log reproduces every statistic",
        ok,
        "; ".join(detail),
    )


def test_acceptance_4_stopping_rule_calibration(monkeypatch):
    circuit = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n", name="solo")
    profile = profile_from(
        {
            "node_label": "stub",
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
    )
    trace = simulate_reference(circuit, Stimulus.random(5, 1))

    def runner(ctx, sample, policy, rng, reads=None):
        flips = frozenset({"q"}) if rng.random() < 0.2 else frozenset()
        return SampleResult(flips_e1=frozenset(), flips_e2=flips)

    monkeypatch.setattr(campaign, "run_sample", runner)

    def first_qualifying(records):
        flips = 0
        for i, rec in enumerate(records, start=1):
            if rec.outcome is not OutcomeClass.NN:
                flips += 1
            if i < 100:
                continue
            p = flips / i
            if p == 0.0 or standard_error(p, i) < 0.1 * p:
                return i
        return None

    halts = []
    ok = True
    detail = []
    for seed in range(20):
        cfg = CampaignConfig(
            circuit=circuit, profile=profile, trace=trace, rng_seed=seed,
            max_samples=10_000, min_samples=100, stderr_target=0.1,
        )
        stats = run_campaign(cfg)
        halts.append(stats.total_samples)
        if stats.stop_reason != "stderr-met":
            ok = False
            detail.append(f"seed {seed}: stopped by {stats.stop_reason}")
        expected = first_qualifying(stats.records)
        if stats.total_samples != expected:
            ok = False
            detail.append(f"seed {seed}: halted at {stats.total_samples}, first qualifying {expected}")
        if not 250 <= stats.total_samples <= 650:
            ok = False
            detail.append(f"seed {seed}: halt {stats.total_samples} outside [250, 650]")
    _verdict(
        4,
        "a 20 % Bernoulli stub halts at the first sample count whose SE "
        f"drops under 10 % of the estimate, near 400 (range {min(halts)}-{max(halts)} over 20 seeds)",
        ok,
        "; ".join(detail),
    )


def test_acceptance_5_register_strikes_dominate(real_campaigns):
    ok = True
    detail = []
    for name, stats in real_campaigns.items():
        gate_flip = stats.per_class["gate"].flip_probability().value
        reg_flip = stats.per_class["register"].flip_probability().value
        if reg_flip < 3.0 * gate_flip:
            ok = False
        detail.append(f"{name}: register {reg_flip:.3f} vs gate {gate_flip:.3f}")
    _verdict(
        5,
        "register strikes flip state at >= 3x the gate-strike rate on all "
        f"three circuits ({'; '.join(detail)})",
        ok,
        "; ".join(detail),
    )


def test_acceptance_6_outcome_shape_by_strike_class(real_campaigns):
    ok = True
    detail = []
    for name, stats in real_campaigns.items():
        gate, reg = stats.per_class["gate"], stats.per_class["register"]
        gate_err = sum(v for oc, v in gate.counts.items() if oc is not OutcomeClass.NN)
        gate_single_edge = gate.counts[OutcomeClass.NF] + gate.counts[OutcomeClass.NFM]
        gate_share = gate_single_edge / gate_err if gate_err else 1.0
        reg_err = sum(v for oc, v in reg.counts.items() if oc is not OutcomeClass.NN)
        reg_first_edge = (
            reg.counts[OutcomeClass.FN]
            + reg.counts[OutcomeClass.FF]
            + reg.counts[OutcomeClass.FFM]
        )
        reg_share = reg_first_edge / reg_err if reg_err else 1.0
        reg_nf = reg.probs[OutcomeClass.NF]
        if not (gate_share >= 0.95 and reg_share >= 0.80 and reg_nf <= 0.10):
            ok = False
        detail.append(
            f"{name}: gate NF+NF_m {gate_share:.3f}, register F* {reg_share:.3f}, "
            f"register P_NF {reg_nf:.3f}"
        )
    _verdict(
        6,
        "erroneous gate strikes surface at the capture edge (>= 95 % NF/NF_m) "
        "while register strikes corrupt the struck cycle (>= 80 % FN/FF/FF_m, "
        "P_NF <= 0.1)",
        ok,
        "; ".join(detail),
    )


def test_acceptance_7_fanout_drives_multi_flip_gap(real_campaigns):
    stats = real_campaigns["fsm3"]
    p_gm, p_rm = stats.p_gm, stats.p_rm
    spurious = sum(
        stats.per_class[sc].counts[oc]
        for sc in ("gate", "register")
        for oc in (OutcomeClass.FMN, OutcomeClass.FMF)
    )
    rm_value = p_rm.value if p_rm.defined else 0.0
    ok = (
        p_gm.defined
        and p_gm.value >= 0.05
        and p_gm.value > rm_value
        and spurious == 0
    )
    _verdict(
        7,
        "gate fan-out yields a multi-flip share P_GM "
        f"({p_gm.display()}) above both 0.05 and P_RM ({p_rm.display()}), "
        "with no F_mN/F_mF outcomes",
        ok,
        f"P_GM={p_gm.display()} P_RM={p_rm.display()} spurious={spurious}",
    )


def test_acceptance_8_bundled_circuits_and_wrapping():
    ok = True
    detail = []
    for name in BUNDLED_CIRCUITS:
        diag = validate(bundled_circuit(name))
        if not diag.ok:
            ok = False
            detail.append(f"{name}: {diag.errors}")
    for name in ("c17", "decoder3to8"):
        orig = bundled_circuit(name)
        wrapped = wrap_combinational(orig)
        expected_flops = len(orig.primary_inputs) + len(orig.primary_outputs)
        if len(wrapped.flops) != expected_flops:
            ok = False
            detail.append(f"{name}: {len(wrapped.flops)} flops, wanted {expected_flops}")
        n = len(orig.primary_inputs)
        for value in range(2**n):
            vec = tuple((value >> i) & 1 for i in range(n))
            trace = simulate_reference(wrapped, Stimulus.explicit([vec] * 4))
            expected = truth_eval(orig, vec)
            for po in orig.primary_outputs:
                if flop_value(trace, 2, f"{po}_po") != expected[po]:
                    ok = False
                    detail.append(f"{name}: vector {vec} output {po}")
    _verdict(
        8,
        "all bundled circuits parse and validate; registering a "
        "combinational boundary adds one flop per port and preserves the "
        "truth table two cycles later",
        ok,
        "; ".join(detail[:10]),
    )


def test_acceptance_9_probabilities_are_normalized(toy_results, real_campaigns):
    _, toys = toy_results
    collected = [(f"toy:{name}", mc) for name, _, mc, _ in toys]
    collected += [(f"oracle:{name}", oracle) for name, _, _, oracle in toys]
    collected += [(f"real:{name}", stats) for name, stats in real_campaigns.items()]
    ok = True
    detail = []
    for label, stats in collected:
        class_n = 0
        for sclass in ("gate", "register"):
            cs = stats.per_class[sclass]
            class_n += cs.n
            if sum(cs.counts.values()) != cs.n:
                ok = False
                detail.append(f"{label}/{sclass}: counts do not sum to n")
            if cs.n and abs(sum(cs.probs.values()) - 1.0) > 1e-12:
                ok = False
                detail.append(f"{label}/{sclass}: probs sum {sum(cs.probs.values())!r}")
        if class_n != stats.total_samples:
            ok = False
            detail.append(f"{label}: class totals {class_n} != {stats.total_samples}")
        if abs(sum(stats.class_share.values()) - 1.0) > 1e-12:
            ok = False
            detail.append(f"{label}: share sum")
    _verdict(
        9,
        "per-class outcome counts sum to the sample count and probabilities "
        f"sum to 1 within 1e-12 across {len(collected)} campaign summaries",
        ok,
        "; ".join(detail),
    )
