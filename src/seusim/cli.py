"""Command-line front end.

Subcommands:

    validate   parse a .bench file and report structural diagnostics
    golden     run the fault-free reference simulation, export the trace
    campaign   run a Monte Carlo strike campaign (stats.json + samples.csv)
    oracle     exhaustively enumerate (drain, cycle, grid time) strikes
    report     render stats/log pairs to CSV + text, optionally checking
               them against an oracle run or recomputing from the raw log

Exit codes: 0 success, 1 usage, 2 bad input artifact, 3 invariant violation.
Every failure prints a single machine-parsable ``error:<code>: <message>``
line to stderr.  All output files are deterministic for a fixed seed: no
timestamps, sorted JSON keys, fixed CSV column order, 6-significant-digit
numbers (the raw sample log keeps full-precision strike times).
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import campaign as camp
from .campaign import (STRIKE_CLASSES, CampaignConfig, CampaignStats,
                       ClassStats, OutcomeClass, Ratio, recompute_from_log,
                       sample_rng, sample_strike, standard_error)
from .errors import ConfigError, InputError, InvariantError, SeuSimError
from .golden import Stimulus, parse_stimulus, simulate_reference
from .injector import SimContext, parse_policy, run_sample
from .netlist import parse_bench, validate, wrap_combinational
from .techmodel import enumerate_drains, load_bundled_profile, load_profile_file

PAPER_CLASSES = (OutcomeClass.NN, OutcomeClass.NF, OutcomeClass.FN,
                 OutcomeClass.FF)


def _fmt(x, digits=6):
    if x is None:
        return "-"
    return f"{x:.{digits}g}"


# --- input loading ----------------------------------------------------------

def _read_lines(path, what):
    """Lines of an input file; InputError if unreadable or not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} '{path}': {exc}") from None


def _load_circuit(path):
    text = "".join(_read_lines(path, "circuit"))
    return parse_bench(text, name=Path(path).stem)


def _load_profile(spec):
    p = Path(spec)
    if p.suffix == ".json" or p.exists():
        return load_profile_file(p)
    return load_bundled_profile(spec)


def _load_stimulus(spec):
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError(
                f"bad stimulus spec '{spec}' (expected random:<cycles>:<seed>)")
        try:
            return Stimulus.random(int(parts[1]), int(parts[2]))
        except ValueError:
            raise InputError(f"bad stimulus spec '{spec}'") from None
    return parse_stimulus("".join(_read_lines(spec, "stimulus")))


def _prepare_sequential(args):
    """Load circuit/profile/trace for campaign-style commands.

    A flop-free circuit is wrapped with boundary registers first (there is
    nothing to observe otherwise); the stats record that this happened.
    """
    circuit = _load_circuit(args.circuit)
    diags = validate(circuit)
    if not diags.ok:
        raise InvariantError(
            f"circuit '{circuit.name}' fails validation: {diags.errors[0]}")
    wrapped = False
    if not circuit.flops:
        circuit = wrap_combinational(circuit)
        wrapped = True
    profile = _load_profile(args.tech)
    stimulus = _load_stimulus(args.stimulus)
    trace = simulate_reference(circuit, stimulus)
    return circuit, profile, trace, wrapped


# --- stats (de)serialization ------------------------------------------------

# (JSON key, CampaignStats attribute) for every top-level stats.json field
# except the per-class tables and the metrics.
_STATS_FIELDS = (
    ("circuit", "circuit_name"),
    ("profile", "profile_label"),
    ("policy", "policy_label"),
    ("rng_seed", "rng_seed"),
    ("period_ps", "period"),
    ("settle_ps", "settle"),
    ("stderr_target", "stderr_target"),
    ("target_estimate", "target_estimate"),
    ("min_samples", "min_samples"),
    ("max_samples", "max_samples"),
    ("stop_reason", "stop_reason"),
    ("total_samples", "total_samples"),
    ("wrapped", "wrapped"),
    ("class_share", "class_share"),
)
_METRIC_FIELDS = (("P_m", "p_m"), ("P_GM", "p_gm"), ("P_RM", "p_rm"))
# ClassStats tables keyed by outcome class, serialized by outcome label.
_CLASS_TABLES = ("counts", "probs", "stderrs")


def stats_to_dict(stats):
    doc = {key: getattr(stats, attr) for key, attr in _STATS_FIELDS}
    doc["classes"] = {
        name: {"n": cs.n, **{
            table: {c.value: getattr(cs, table)[c] for c in OutcomeClass}
            for table in _CLASS_TABLES}}
        for name, cs in stats.per_class.items()}
    doc["metrics"] = {}
    for key, attr in _METRIC_FIELDS:
        r = getattr(stats, attr)
        doc["metrics"][key] = {"num": r.num, "den": r.den, "value": r.value,
                               "stderr": r.stderr}
    return doc


def _int(value, what):
    if type(value) is not int:
        raise InputError(f"stats document has a non-integer {what}: {value!r}")
    return value


def stats_from_dict(doc):
    """Rebuild CampaignStats (without records) from a stats.json document.

    Raises InputError when a field is missing or not an integer where one
    is due, or the layout or the set of strike classes is wrong.
    """
    try:
        fields = {attr: doc[key] for key, attr in _STATS_FIELDS}
        for key, attr in _METRIC_FIELDS:
            m = doc["metrics"][key]
            fields[attr] = Ratio(_int(m["num"], f"{key} num"),
                                 _int(m["den"], f"{key} den"))
        if set(doc["classes"]) != set(STRIKE_CLASSES):
            raise InputError(f"stats document classes must be {STRIKE_CLASSES}")
        per_class = {}
        for name in STRIKE_CLASSES:
            sub = doc["classes"][name]
            cs = per_class[name] = ClassStats(n=_int(sub["n"], f"{name} n"))
            for table in _CLASS_TABLES:
                setattr(cs, table,
                        {c: sub[table][c.value] for c in OutcomeClass})
            for c, count in cs.counts.items():
                _int(count, f"{name} count {c.value}")
    except KeyError as exc:
        raise InputError(f"stats document has no key {exc}") from None
    except (TypeError, AttributeError):
        raise InputError("stats document does not have the stats.json "
                         "layout") from None
    return CampaignStats(per_class=per_class, records=[], **fields)


def _load_stats(path):
    text = "".join(_read_lines(path, "stats"))
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError(f"'{path}' is not valid JSON: {exc}") from None
    try:
        return stats_from_dict(doc)
    except InputError as exc:
        raise InputError(f"'{path}': {exc}") from None


def stats_json(stats):
    return json.dumps(stats_to_dict(stats), indent=2, sort_keys=True) + "\n"


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --- report bundle ----------------------------------------------------------

@dataclass
class ReportBundle:
    """Everything the report emitters render.

    ``outcome_rows``: one row per strike class with (probability, stderr)
    pairs per outcome class.  ``metric_rows``: P_m / P_GM / P_RM with their
    exact integer ratios.  ``flip_rows``: 1 - P_NN per strike class with a
    95% interval (normal approximation).  ``comparison``: per-class z-scores
    against an oracle run, when one was supplied.
    """

    metadata: dict
    classes: tuple
    outcome_rows: list
    metric_rows: list
    flip_rows: list
    comparison: list = None


def build_report(stats, oracle=None, paper_columns=False):
    classes = PAPER_CLASSES if paper_columns else tuple(OutcomeClass)
    outcome_rows = []
    flip_rows = []
    for name, cs in stats.per_class.items():
        outcome_rows.append({
            "circuit": stats.circuit_name,
            "strike_class": name,
            "n": cs.n,
            "cells": {c: (cs.probs[c], cs.stderrs[c]) for c in classes},
        })
        flip = cs.flip_probability()
        p, se = flip.value, flip.stderr
        ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)) \
            if p is not None else (None, None)
        flip_rows.append({
            "circuit": stats.circuit_name,
            "strike_class": name,
            "n": cs.n,
            "flip_prob": p,
            "stderr": se,
            "ci95": ci,
        })
    metric_rows = [
        {"metric": label, "ratio": ratio}
        for label, ratio in (("P_m", stats.p_m), ("P_GM", stats.p_gm),
                             ("P_RM", stats.p_rm))
    ]
    comparison = None
    if oracle is not None:
        comparison = []
        for name, cs in stats.per_class.items():
            if cs.n == 0:
                continue
            for c in classes:
                p_mc, p_or = cs.probs[c], oracle.per_class[name].probs[c]
                base = p_or if p_or > 0.0 else p_mc
                z = (p_mc - p_or) / standard_error(base, cs.n) if base else 0.0
                comparison.append({
                    "strike_class": name, "outcome": c,
                    "mc": p_mc, "oracle": p_or, "z": z,
                })
    meta = {
        "circuit": stats.circuit_name,
        "profile": stats.profile_label,
        "policy": stats.policy_label,
        "rng_seed": stats.rng_seed,
        "period_ps": stats.period,
        "settle_ps": stats.settle,
        "stop_reason": stats.stop_reason,
        "total_samples": stats.total_samples,
        "class_share": dict(stats.class_share),
        "wrapped": stats.wrapped,
        "paper_columns": paper_columns,
    }
    return ReportBundle(metadata=meta, classes=classes,
                        outcome_rows=outcome_rows, metric_rows=metric_rows,
                        flip_rows=flip_rows, comparison=comparison)


def outcome_csv(bundle):
    header = ["circuit", "strike_class", "n"]
    for c in bundle.classes:
        header += [f"P_{c.value}", f"SE_{c.value}"]
    lines = [",".join(header)]
    for row in bundle.outcome_rows:
        cells = [row["circuit"], row["strike_class"], str(row["n"])]
        for c in bundle.classes:
            p, se = row["cells"][c]
            cells += [_fmt(p), _fmt(se)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def metrics_csv(bundle, circuit_name):
    lines = ["circuit,metric,numerator,denominator,value,stderr"]
    for row in bundle.metric_rows:
        r = row["ratio"]
        lines.append(",".join([
            circuit_name, row["metric"], str(r.num), str(r.den),
            _fmt(r.value), _fmt(r.stderr)]))
    return "\n".join(lines) + "\n"


def flip_csv(bundle):
    lines = ["circuit,strike_class,n,flip_prob,stderr,ci95_lo,ci95_hi"]
    for row in bundle.flip_rows:
        lo, hi = row["ci95"]
        lines.append(",".join([
            row["circuit"], row["strike_class"], str(row["n"]),
            _fmt(row["flip_prob"]), _fmt(row["stderr"]), _fmt(lo), _fmt(hi)]))
    return "\n".join(lines) + "\n"


def render_text(bundle):
    meta = bundle.metadata
    out = []
    out.append(f"campaign report: {meta['circuit']}")
    out.append(f"  profile: {meta['profile']}   policy: {meta['policy']}"
               f"   seed: {meta['rng_seed']}")
    out.append(f"  clock period: {_fmt(meta['period_ps'])} ps   "
               f"settle bound: {_fmt(meta['settle_ps'])} ps")
    share = meta["class_share"]
    out.append(f"  samples: {meta['total_samples']} "
               f"(gate share {_fmt(share.get('gate'))}, "
               f"register share {_fmt(share.get('register'))})   "
               f"stop: {meta['stop_reason']}")
    if meta.get("wrapped"):
        out.append("  note: combinational source was wrapped with boundary "
                   "registers")
    if meta["policy"] != "instant":
        out.append(f"  note: capture policy {meta['policy']} resolves "
                   "setup/hold grazes probabilistically")
    if meta.get("paper_columns"):
        out.append("  note: projected to the NN/NF/FN/FF columns; rows no "
                   "longer sum to 1")

    out.append("")
    table = []
    for row in bundle.outcome_rows:
        cells = []
        for c in bundle.classes:
            p, se = row["cells"][c]
            cells.append(f"{_fmt(p)} ({_fmt(se, 3)})")
        table.append((row, cells))
    width = max(
        [len(f"P_{c.value}") for c in bundle.classes]
        + [len(cell) for _, cells in table for cell in cells]) + 2
    out.append(f"{'strike_class':<14}{'n':>8}  " + "".join(
        f"{'P_' + c.value:>{width}}" for c in bundle.classes))
    for row, cells in table:
        out.append(f"{row['strike_class']:<14}{row['n']:>8}  "
                   + "".join(f"{cell:>{width}}" for cell in cells))

    out.append("")
    out.append("flip probability (1 - P_NN), 95% interval by normal "
               "approximation:")
    for row in bundle.flip_rows:
        lo, hi = row["ci95"]
        if row["flip_prob"] is None:
            out.append(f"  {row['strike_class']:<10} -")
        else:
            out.append(
                f"  {row['strike_class']:<10}{_fmt(row['flip_prob'])} "
                f"+/- {_fmt(1.96 * row['stderr'], 3)}  "
                f"[{_fmt(lo)}, {_fmt(hi)}]")

    out.append("")
    out.append("multi-flip metrics ('-' = no erroneous samples to divide by):")
    for row in bundle.metric_rows:
        r = row["ratio"]
        se = _fmt(r.stderr, 3) if r.defined else "-"
        out.append(f"  {row['metric']:<5} = {r.num}/{r.den} = "
                   f"{r.display()}  (SE {se})")

    if bundle.comparison is not None:
        out.append("")
        out.append("oracle comparison (z = (mc - oracle) / SE):")
        worst = 0.0
        for row in bundle.comparison:
            worst = max(worst, abs(row["z"]))
            out.append(
                f"  {row['strike_class']:<10}{row['outcome'].value:<8}"
                f"mc={_fmt(row['mc'])}  oracle={_fmt(row['oracle'])}  "
                f"z={row['z']:+.3f}")
        out.append(f"  max |z| = {worst:.3f}")
    return "\n".join(out) + "\n"


def comparison_csv(bundle):
    lines = ["strike_class,outcome,mc,oracle,z"]
    for row in bundle.comparison or ():
        lines.append(",".join([
            row["strike_class"], row["outcome"].value,
            _fmt(row["mc"]), _fmt(row["oracle"]), f"{row['z']:.6g}"]))
    return "\n".join(lines) + "\n"


# --- subcommands ------------------------------------------------------------

def cmd_validate(args):
    circuit = _load_circuit(args.circuit)
    diags = validate(circuit)
    for d in diags.errors:
        print(f"error {d}")
    for d in diags.warnings:
        print(f"warning {d}")
    s = circuit.stats()
    print(f"{circuit.name}: {s['inputs']} inputs, {s['outputs']} outputs, "
          f"{s['gates']} gates, {s['flops']} flops, {s['nets']} nets")
    if not diags.ok:
        print(f"error:invariant-violation: {len(diags.errors)} structural "
              f"error(s) in '{args.circuit}'", file=sys.stderr)
        return 3
    print("ok")
    return 0


def cmd_golden(args):
    circuit = _load_circuit(args.circuit)
    diags = validate(circuit)
    if not diags.ok:
        raise InvariantError(
            f"circuit '{circuit.name}' fails validation: {diags.errors[0]}")
    stimulus = _load_stimulus(args.stimulus)
    trace = simulate_reference(circuit, stimulus)
    out = Path(args.out)
    _write(out / "trace.csv", trace.to_csv())
    print(f"golden: {trace.cycle_count} cycles, {len(trace.flop_ids)} flops, "
          f"{len(trace.net_ids)} nets -> {out / 'trace.csv'}")
    return 0


def _campaign_config(args, circuit, profile, trace):
    return CampaignConfig(
        circuit=circuit, profile=profile, trace=trace,
        rng_seed=args.seed,
        max_samples=args.max_samples,
        min_samples=args.min_samples,
        stderr_target=args.stderr_target,
        policy=parse_policy(args.capture_policy),
    )


def cmd_campaign(args):
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    circuit, profile, trace, wrapped = _prepare_sequential(args)
    config = _campaign_config(args, circuit, profile, trace)
    stats = camp.run_campaign(config)
    stats.wrapped = wrapped
    out = Path(args.out)
    _write(out / "stats.json", stats_json(stats))
    _write(out / "samples.csv", camp.sample_log_text(stats.records))
    if args.debug_sample is not None:
        lines = debug_sample(circuit, profile, trace, config,
                             args.debug_sample)
        _write(out / f"debug_sample_{args.debug_sample}.txt",
               "\n".join(lines) + "\n")
    for name, cs in stats.per_class.items():
        flip = cs.flip_probability()
        print(f"{name}: n={cs.n} flip={flip.display()} "
              f"(SE {_fmt(flip.stderr, 3)})")
    print(f"stop: {stats.stop_reason} after {stats.total_samples} samples "
          f"-> {out / 'stats.json'}")
    return 0


def debug_sample(circuit, profile, trace, config, index):
    """Replay one sample index with the full event log attached."""
    ctx = SimContext.build(circuit, profile)
    table = enumerate_drains(circuit, profile)
    rng = sample_rng(config.rng_seed, index)
    sample = sample_strike(rng, table, trace, ctx.period, ctx.settle)
    lines = [f"debug replay of sample {index} (seed {config.rng_seed})"]
    result = run_sample(ctx, trace, sample, config.policy, rng, debug=lines)
    lines.append(f"flips_e1={sorted(result.flips_e1)} "
                 f"flips_e2={sorted(result.flips_e2)} "
                 f"window_hits={result.window_hits}")
    lines.append(f"outcome={camp.classify(result).value}")
    return lines


def cmd_oracle(args):
    circuit, profile, trace, wrapped = _prepare_sequential(args)
    config = _campaign_config(args, circuit, profile, trace)
    stats = camp.exhaustive_campaign(config, t_grid=args.t_grid)
    stats.wrapped = wrapped
    out = Path(args.out)
    _write(out / "oracle_stats.json", stats_json(stats))
    print(f"oracle: {stats.total_samples} enumerated samples "
          f"-> {out / 'oracle_stats.json'}")
    return 0


def cmd_report(args):
    stats = _load_stats(args.stats)
    records = None
    if args.log:
        records = camp.read_sample_log(_read_lines(args.log, "sample log"))
    if args.recompute:
        if records is None:
            raise ConfigError("--recompute needs --log")
        _verify_recompute(stats, records)
        print(f"recompute: {len(records)} log rows reproduce the stored "
              "statistics exactly")
    oracle = None
    if args.oracle:
        oracle = _load_stats(args.oracle)
    bundle = build_report(stats, oracle=oracle,
                          paper_columns=args.paper_columns)
    out = Path(args.out)
    _write(out / "report.txt", render_text(bundle))
    _write(out / "outcome_probabilities.csv", outcome_csv(bundle))
    _write(out / "metrics.csv", metrics_csv(bundle, stats.circuit_name))
    _write(out / "flip_summary.csv", flip_csv(bundle))
    if bundle.comparison is not None:
        _write(out / "oracle_comparison.csv", comparison_csv(bundle))
    print(f"report -> {out / 'report.txt'}")
    return 0


def _verify_recompute(stats, records):
    """Raise unless the raw log reproduces the stored stats exactly."""
    per_class, share, metrics = recompute_from_log(records)
    if len(records) != stats.total_samples:
        raise InvariantError(
            f"log has {len(records)} rows, stats claim "
            f"{stats.total_samples} samples")
    for name, cs in per_class.items():
        stored = stats.per_class[name]
        if cs.n != stored.n or cs.counts != stored.counts:
            raise InvariantError(
                f"recomputed counts for class '{name}' do not match the "
                "stored stats")
        if cs.probs != stored.probs:
            raise InvariantError(
                f"recomputed probabilities for class '{name}' do not match")
    if share != stats.class_share:
        raise InvariantError("recomputed class share does not match")
    for got, want, label in zip(
            metrics, (stats.p_m, stats.p_gm, stats.p_rm),
            ("P_m", "P_GM", "P_RM")):
        if (got.num, got.den) != (want.num, want.den):
            raise InvariantError(f"recomputed {label} does not match: "
                                 f"{got.num}/{got.den} vs "
                                 f"{want.num}/{want.den}")


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="seusim",
                     description="gate-level strike injection campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_circuit(p):
        p.add_argument("--circuit", required=True,
                       help=".bench netlist file")

    def add_campaign_inputs(p):
        add_circuit(p)
        p.add_argument("--tech", required=True,
                       help="profile JSON path or bundled name "
                            "(180nm-like, 65nm-like, ...)")
        p.add_argument("--stimulus", required=True,
                       help="stimulus file or random:<cycles>:<seed>")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--max-samples", type=int, default=200_000)
        p.add_argument("--min-samples", type=int, default=100)
        p.add_argument("--stderr-target", type=float, default=0.10)
        p.add_argument("--capture-policy", default="instant",
                       help="instant or window-random:<p>")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("validate", help="check a netlist")
    add_circuit(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("golden", help="fault-free reference run")
    add_circuit(p)
    p.add_argument("--stimulus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("campaign", help="Monte Carlo strike campaign")
    add_campaign_inputs(p)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: campaigns "
                        "run in one thread, and the value never changes "
                        "the results")
    p.add_argument("--debug-sample", type=int, default=None, metavar="INDEX",
                   help="also write an event-by-event replay of one sample")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("oracle", help="exhaustive grid enumeration")
    add_campaign_inputs(p)
    p.add_argument("--t-grid", type=int, default=200,
                   help="uniform strike-time grid points per cycle")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="render stats to CSV + text")
    p.add_argument("--stats", required=True, help="stats.json from a campaign")
    p.add_argument("--log", help="samples.csv raw log")
    p.add_argument("--oracle", help="oracle_stats.json to compare against")
    p.add_argument("--recompute", action="store_true",
                   help="recompute statistics from the raw log and require "
                        "an exact match")
    p.add_argument("--paper-columns", action="store_true",
                   help="project outcome tables to NN/NF/FN/FF")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvariantError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2
    except SeuSimError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error:io-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
