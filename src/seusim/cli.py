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
timestamps, sorted JSON keys, fixed CSV column order.  ``stats.json`` and
``oracle_stats.json`` hold every number in full: integers as written and
floats as their shortest ``repr``, as ``json.dumps(indent=2,
sort_keys=True)`` writes them; the sample log keeps full-precision strike
times; the report's tables and text print 6 significant digits.
"""

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import campaign as camp
from .campaign import (OUTCOME_LABELS, OUTCOMES, STRIKE_CLASSES,
                       CampaignConfig, OutcomeClass, recompute_from_log,
                       sample_rng, sample_strike, standard_error,
                       stopping_row)
from .errors import ConfigError, InputError, InvariantError, SeuSimError
from .golden import Stimulus, parse_stimulus, simulate_reference
from .injector import SimContext, parse_policy, run_sample
from .netlist import parse_bench, validate, wrap_combinational
from .techmodel import (enumerate_drains, is_finite_number, load_bundled_profile,
                        load_profile)

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


def _read_text(path, what):
    """The text of an input file, read as ``_read_lines`` reads it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} '{path}': {exc}") from None


def _load_circuit(path):
    return parse_bench(_read_text(path, "circuit"), name=Path(path).stem)


def _load_profile(spec):
    """A ``.json`` path or an existing file is read; any other spec, a
    directory's name included, is a bundled profile name."""
    p = Path(spec)
    if p.suffix == ".json" or p.is_file():
        return load_profile(_read_text(p, "profile"), source=str(p))
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
    return parse_stimulus(_read_text(spec, "stimulus"))


def _load_valid_circuit(path):
    """The circuit at ``path``; InvariantError if it fails validation."""
    circuit = _load_circuit(path)
    diags = validate(circuit)
    if not diags.ok:
        raise InvariantError(
            f"circuit '{circuit.name}' fails validation: {diags.errors[0]}")
    return circuit


def _prepare_sequential(args):
    """Load circuit/profile/trace for campaign-style commands.

    A flop-free circuit is wrapped with boundary registers first (there is
    nothing to observe otherwise); the stats record that this happened.
    """
    circuit = _load_valid_circuit(args.circuit)
    wrapped = False
    if not circuit.flops:
        circuit = wrap_combinational(circuit)
        wrapped = True
    profile = _load_profile(args.tech)
    stimulus = _load_stimulus(args.stimulus)
    trace = simulate_reference(circuit, stimulus)
    return circuit, profile, trace, wrapped


# --- stats (de)serialization ------------------------------------------------

# The value kinds a stats document may hold, by the name its errors use.
# Types are matched exactly, so a bool is not an integer or a number.
_KINDS = {
    "string": lambda v: type(v) is str,
    "integer": lambda v: type(v) is int,
    # no run has more samples than the 2**64 indices that key an RNG stream
    "count": lambda v: type(v) is int and 0 <= v < 2**64,
    "number": is_finite_number,
    "boolean": lambda v: type(v) is bool,
    # an oracle's area-weighted table, which its counts cannot rebuild:
    # probabilities that sum to 1 within a tolerance of 1e-9
    "distribution": lambda v: type(v) is dict and all(
        is_finite_number(p) and 0.0 <= p <= 1.0 for p in v.values())
        and abs(sum(v.values()) - 1.0) <= 1e-9,
}

# (JSON key, CampaignStats attribute, value kind) for the run's inputs: the
# top-level stats.json fields that ``camp.build_stats`` does not decide.
_INPUT_FIELDS = (
    ("circuit", "circuit_name", "string"),
    ("profile", "profile_label", "string"),
    ("policy", "policy_label", "string"),
    ("rng_seed", "rng_seed", "integer"),
    ("period_ps", "period", "number"),
    ("settle_ps", "settle", "number"),
    ("stderr_target", "stderr_target", "number"),
    ("min_samples", "min_samples", "integer"),
    ("max_samples", "max_samples", "integer"),
    ("wrapped", "wrapped", "boolean"),
)
_METRIC_FIELDS = (("P_m", "p_m"), ("P_GM", "p_gm"), ("P_RM", "p_rm"))


def _metrics(stats):
    """(label, Ratio) for P_m, P_GM and P_RM."""
    return [(key, getattr(stats, attr)) for key, attr in _METRIC_FIELDS]


def stats_to_dict(stats):
    doc = {key: getattr(stats, attr) for key, attr, _ in _INPUT_FIELDS}
    doc.update(target_estimate=stats.target_estimate,
               stop_reason=stats.stop_reason,
               total_samples=stats.total_samples, class_share=stats.class_share)
    doc["classes"] = {
        name: {"n": cs.n, **{
            table: dict(zip(OUTCOME_LABELS,
                            map(getattr(cs, table).__getitem__, OUTCOMES)))
            for table in ("counts", "probs", "stderrs")}}
        for name, cs in stats.per_class.items()}
    doc["metrics"] = {
        key: {"num": r.num, "den": r.den, "value": r.value,
              "stderr": r.stderr}
        for key, r in _metrics(stats)}
    return doc


def _typed(value, kind, what):
    if not _KINDS[kind](value):
        raise InputError(f"stats document has a non-{kind} {what}: {value!r}")
    return value


def _differing(rebuilt, stored, path=""):
    """Dotted paths where the JSON value ``stored`` differs from ``rebuilt``
    or has a key it lacks; KeyError where ``stored`` lacks one of its keys."""
    if type(rebuilt) is dict and type(stored) is dict:
        return [p for key in sorted(rebuilt.keys() | stored.keys())
                for p in (_differing(rebuilt[key], stored[key], f"{path}{key}.")
                          if key in rebuilt else [path + key])]
    return [] if rebuilt == stored else [path[:-1]]


def stats_from_dict(doc):
    """Rebuild CampaignStats (without records) from a stats.json document.

    Only the run's inputs and the class counts are read: the inputs pass
    the checks a run makes (the policy label is one ``parse_policy`` prints
    back), each count is an integer >= 0, and the document must equal the
    serialized ``camp.build_stats`` of them, which decides the stop reason
    and every other field.  An oracle document (stop reason ``exhaustive``)
    ran the instant policy, and its counts cannot rebuild its area-weighted
    class shares and probabilities, so those are read as distributions.
    Raises InputError otherwise, naming the fields at fault.
    """
    try:
        inputs = {attr: _typed(doc[key], kind, key)
                  for key, attr, kind in _INPUT_FIELDS}
        oracle = _typed(doc["stop_reason"], "string",
                        "stop_reason") == "exhaustive"
        try:
            policy = parse_policy(inputs["policy_label"])
            if oracle and policy.kind != "instant":
                raise ConfigError("an exhaustive run's policy must be "
                                  f"'instant', got {policy.label!r}")
            CampaignConfig(None, None, None, *(inputs[k] for k in (
                "rng_seed", "max_samples", "min_samples", "stderr_target")))
        except ConfigError as exc:
            raise InputError(f"stats document: {exc}") from None
        inputs["policy_label"] = policy.label
        if not 0 <= inputs["settle"] < inputs["period"]:
            raise InputError("stats document needs 0 <= settle_ps < period_ps")
        classes = doc["classes"]
        if set(classes) != set(STRIKE_CLASSES):
            raise InputError(f"stats document classes must be {STRIKE_CLASSES}")
        tallies = {name: [
            _typed(classes[name]["counts"][label], "count",
                   f"classes.{name}.counts.{label}") for label in OUTCOME_LABELS]
            for name in STRIKE_CLASSES}
        weighted = None
        if oracle:
            share = _typed(doc["class_share"], "distribution", "class_share")
            weighted = {name: (share[name], None) for name in STRIKE_CLASSES}
            for name, row in tallies.items():
                if sum(row):
                    probs = _typed(classes[name]["probs"], "distribution",
                                   f"classes.{name}.probs")
                    weighted[name] = (share[name],
                                      [probs[label] for label in OUTCOME_LABELS])
        stats = camp.build_stats(inputs, tallies, weighted)
        differ = _differing(stats_to_dict(stats), doc)
    except KeyError as exc:
        raise InputError(f"stats document has no key {exc}") from None
    except TypeError:
        raise InputError("stats document does not have the stats.json "
                         "layout") from None
    if differ:
        raise InputError(f"stats document does not agree with its counts "
                         f"in: {', '.join(differ)}")
    return stats


def _load_stats(path):
    """(JSON document, CampaignStats) read from a stats file."""
    try:
        doc = json.loads(_read_text(path, "stats"))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"'{path}' is not valid JSON: {exc}") from None
    try:
        return doc, stats_from_dict(doc)
    except InputError as exc:
        raise InputError(f"'{path}': {exc}") from None


# The text ``json.dumps`` gives each value type a stats document holds.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_JSON_ATOMS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _NON_FINITE.get(text := float.__repr__(x), text),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_text(doc, indent="\n"):
    """``json.dumps(doc, indent=2, sort_keys=True)`` of a dict with str keys
    whose values are dicts like it, str, int, float, bool or None.

    ``json.dumps`` indents with its pure-Python encoder only; this writes
    the same text with the C string escape and the numbers' own ``repr``.
    """
    if not doc:
        return "{}"
    inner = indent + "  "
    keys = sorted(doc)
    values = [json_text(value, inner) if type(value) is dict
              else _JSON_ATOMS[type(value)](value)
              for value in map(doc.__getitem__, keys)]
    return ("{" + inner + ("," + inner).join(map(
        "{}: {}".format, map(encode_basestring_ascii, keys), values))
        + indent + "}")


def stats_json(stats):
    return json_text(stats_to_dict(stats)) + "\n"


def _write(path, text):
    data = text.encode()
    if not path.parent.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


# --- report -----------------------------------------------------------------

def _csv(header, rows):
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _flip_interval(cs):
    """(1 - P_NN, its stderr, 95% interval low, high); None when undefined.

    The interval is the normal approximation, clipped to [0, 1].
    """
    flip = cs.flip_probability()
    p, se = flip.value, flip.stderr
    if p is None:
        return None, None, None, None
    return p, se, max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)


def _oracle_rows(stats, oracle, classes):
    """(strike class, outcome, mc, oracle, z) for each class with samples.

    Where the standard error is 0 (a base probability of 0 or 1), z is 0
    if mc equals the oracle and an infinity of the sign of mc - oracle
    otherwise.
    """
    rows = []
    for name, cs in stats.per_class.items():
        if cs.n == 0:
            continue
        for c in classes:
            p_mc, p_or = cs.probs[c], oracle.per_class[name].probs[c]
            se = standard_error(p_or if p_or > 0.0 else p_mc, cs.n)
            diff = p_mc - p_or
            if se:
                z = diff / se
            else:
                z = math.copysign(math.inf, diff) if diff else 0.0
            rows.append((name, c, p_mc, p_or, z))
    return rows


def build_report(stats, oracle, paper_columns):
    """Every report file as {file name: text}.

    ``oracle_comparison.csv`` is present only when an oracle run is given.
    """
    classes = PAPER_CLASSES if paper_columns else tuple(OutcomeClass)
    comparison = None if oracle is None else _oracle_rows(stats, oracle,
                                                          classes)
    circuit = stats.circuit_name
    files = {
        "report.txt": render_text(stats, classes, comparison),
        "outcome_probabilities.csv": _csv(
            ["circuit", "strike_class", "n",
             *(f"{k}_{c.value}" for c in classes for k in ("P", "SE"))],
            [[circuit, name, str(cs.n),
              *(_fmt(x) for c in classes for x in (cs.probs[c],
                                                   cs.stderrs[c]))]
             for name, cs in stats.per_class.items()]),
        "metrics.csv": _csv(
            ["circuit", "metric", "numerator", "denominator", "value",
             "stderr"],
            [[circuit, key, str(r.num), str(r.den), _fmt(r.value),
              _fmt(r.stderr)]
             for key, r in _metrics(stats)]),
        "flip_summary.csv": _csv(
            ["circuit", "strike_class", "n", "flip_prob", "stderr",
             "ci95_lo", "ci95_hi"],
            [[circuit, name, str(cs.n), *map(_fmt, _flip_interval(cs))]
             for name, cs in stats.per_class.items()]),
    }
    if comparison is not None:
        files["oracle_comparison.csv"] = _csv(
            ["strike_class", "outcome", "mc", "oracle", "z"],
            [[name, c.value, _fmt(p_mc), _fmt(p_or), _fmt(z)]
             for name, c, p_mc, p_or, z in comparison])
    return files


def render_text(stats, classes, comparison):
    """report.txt: the outcome columns ``classes``, flip intervals, metrics
    and, when given, the oracle comparison rows."""
    share = stats.class_share
    out = [
        f"campaign report: {stats.circuit_name}",
        f"  profile: {stats.profile_label}   policy: {stats.policy_label}"
        f"   seed: {stats.rng_seed}",
        f"  clock period: {_fmt(stats.period)} ps   "
        f"settle bound: {_fmt(stats.settle)} ps",
        f"  samples: {stats.total_samples} "
        f"(gate share {_fmt(share.get('gate'))}, "
        f"register share {_fmt(share.get('register'))})   "
        f"stop: {stats.stop_reason}",
    ]
    if stats.wrapped:
        out.append("  note: combinational source was wrapped with boundary "
                   "registers")
    if stats.policy_label != "instant":
        out.append(f"  note: capture policy {stats.policy_label} resolves "
                   "setup/hold grazes probabilistically")
    if classes == PAPER_CLASSES:
        out.append("  note: projected to the NN/NF/FN/FF columns; rows no "
                   "longer sum to 1")

    out.append("")
    table = {name: [f"{_fmt(cs.probs[c])} ({_fmt(cs.stderrs[c], 3)})"
                    for c in classes]
             for name, cs in stats.per_class.items()}
    width = max(
        [len(f"P_{c.value}") for c in classes]
        + [len(cell) for cells in table.values() for cell in cells]) + 2
    out.append(f"{'strike_class':<14}{'n':>8}  " + "".join(
        f"{'P_' + c.value:>{width}}" for c in classes))
    for name, cells in table.items():
        out.append(f"{name:<14}{stats.per_class[name].n:>8}  "
                   + "".join(f"{cell:>{width}}" for cell in cells))

    out.append("")
    out.append("flip probability (1 - P_NN), 95% interval by normal "
               "approximation:")
    for name, cs in stats.per_class.items():
        p, se, lo, hi = _flip_interval(cs)
        if p is None:
            out.append(f"  {name:<10} -")
        else:
            out.append(f"  {name:<10}{_fmt(p)} +/- {_fmt(1.96 * se, 3)}  "
                       f"[{_fmt(lo)}, {_fmt(hi)}]")

    out.append("")
    out.append("multi-flip metrics ('-' = no erroneous samples to divide by):")
    for key, r in _metrics(stats):
        out.append(f"  {key:<5} = {r.num}/{r.den} = {r.display()}  "
                   f"(SE {_fmt(r.stderr, 3)})")

    if comparison is not None:
        out.append("")
        out.append("oracle comparison (z = (mc - oracle) / SE):")
        for name, c, p_mc, p_or, z in comparison:
            out.append(f"  {name:<10}{c.value:<8}mc={_fmt(p_mc)}  "
                       f"oracle={_fmt(p_or)}  z={z:+.3f}")
        worst = max([0.0] + [abs(row[-1]) for row in comparison])
        out.append(f"  max |z| = {worst:.3f}")
    return "\n".join(out) + "\n"


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
    circuit = _load_valid_circuit(args.circuit)
    stimulus = _load_stimulus(args.stimulus)
    trace = simulate_reference(circuit, stimulus)
    out = Path(args.out)
    _write(out / "trace.csv", trace.to_csv())
    print(f"golden: {trace.cycle_count} cycles, {len(trace.flop_ids)} flops, "
          f"{len(trace.net_masks)} nets -> {out / 'trace.csv'}")
    return 0


def cmd_campaign(args):
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    # a sample index keys its RNG stream as 8 unsigned bytes
    if args.debug_sample is not None and not 0 <= args.debug_sample < 2**64:
        raise ConfigError(
            f"debug sample index must be in [0, 2**64), got "
            f"{args.debug_sample}")
    circuit, profile, trace, wrapped = _prepare_sequential(args)
    config = CampaignConfig(
        circuit=circuit, profile=profile, trace=trace, rng_seed=args.seed,
        max_samples=args.max_samples, min_samples=args.min_samples,
        stderr_target=args.stderr_target,
        policy=parse_policy(args.capture_policy))
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
    ctx = SimContext.build(circuit, profile).bind(trace)
    table = enumerate_drains(circuit, profile)
    rng = sample_rng(config.rng_seed, index)
    sample = sample_strike(rng, table, camp.strike_cycles(trace), ctx.period,
                           ctx.settle)
    lines = [f"debug replay of sample {index} (seed {config.rng_seed})"]
    result = run_sample(ctx, sample, config.policy, rng, debug=lines)
    lines.append(f"flips_e1={sorted(result.flips_e1)} "
                 f"flips_e2={sorted(result.flips_e2)} "
                 f"window_hits={result.window_hits}")
    lines.append(f"outcome={camp.classify(result.flip_counts).value}")
    return lines


def cmd_oracle(args):
    circuit, profile, trace, wrapped = _prepare_sequential(args)
    config = CampaignConfig(circuit=circuit, profile=profile, trace=trace,
                            rng_seed=args.seed)
    stats = camp.exhaustive_campaign(config, t_grid=args.t_grid)
    stats.wrapped = wrapped
    path = Path(args.out) / "oracle_stats.json"
    _write(path, stats_json(stats))
    print(f"oracle: {stats.total_samples} enumerated samples -> {path}")
    return 0


def cmd_report(args):
    doc, stats = _load_stats(args.stats)
    records = None
    if args.log:
        records = camp.read_sample_log(_read_lines(args.log, "sample log"))
    if args.recompute:
        if records is None:
            raise ConfigError("--recompute needs --log")
        _verify_recompute(stats, records)
        print(f"recompute: {len(records)} log rows reproduce the stored "
              "statistics exactly")
    want = dict(doc, stop_reason="exhaustive")
    oracle_doc, oracle = (_load_stats(args.oracle) if args.oracle
                          else (want, None))
    differ = [f"{key} {want[key]!r} vs {oracle_doc[key]!r}" for key in (
        "circuit", "profile", "period_ps", "settle_ps", "wrapped",
        "stop_reason") if want[key] != oracle_doc[key]]
    if differ:
        raise InvariantError(
            f"oracle '{args.oracle}' does not describe the campaign's run: "
            f"{', '.join(differ)}")
    out = Path(args.out)
    for name, text in build_report(stats, oracle,
                                   args.paper_columns).items():
        _write(out / name, text)
    print(f"report -> {out / 'report.txt'}")
    return 0


def _verify_recompute(stats, records):
    """Raise unless the log rows are samples 0..n-1 in order, each struck
    inside the stored ``[settle, period)`` window, their per-class counts
    equal the stored ones, which decide every other stored field, and no
    row before the last already met the stored stopping rule.
    """
    for i, rec in enumerate(records):
        if rec.index != i:
            raise InvariantError(f"log row {i} holds sample_index "
                                 f"{rec.index}; indices must run 0..n-1")
        if not stats.settle <= rec.t < stats.period:
            raise InvariantError(
                f"log row {i}: strike time {rec.t!r} outside the stored "
                f"window [{stats.settle!r}, {stats.period!r})")
    logged = recompute_from_log(records)["per_class"]
    differ = [name for name, cs in stats.per_class.items()
              if logged[name].counts != cs.counts]
    if differ:
        raise InvariantError(
            f"the counts of {len(records)} log rows do not match the stored "
            f"ones in: {', '.join(differ)}")
    stop = stopping_row(records, stats.min_samples, stats.stderr_target)
    if stop is not None and stop < len(records) - 1:
        raise InvariantError(
            f"the stopping rule already holds after log row {stop} "
            f"(min_samples {stats.min_samples}, stderr_target "
            f"{stats.stderr_target!r}), but the log runs to {len(records)} "
            f"rows")


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(1)


_CIRCUIT = ("--circuit", {"required": True, "help": ".bench netlist file"})
_OUT = ("--out", {"required": True, "help": "output directory"})
# The run a campaign or an oracle strikes, and its seed.
_RUN_INPUTS = (
    _CIRCUIT,
    ("--tech", {"required": True,
                "help": "profile JSON path or bundled name "
                        "(180nm-like, 65nm-like, ...)"}),
    ("--stimulus", {"required": True,
                    "help": "stimulus file or random:<cycles>:<seed>"}),
    ("--seed", {"type": int, "default": 1}),
)

# Every subcommand: name -> (help line, handler, (option, add_argument
# keywords), ...), in the order the full parser lists them.
_COMMANDS = {
    "validate": ("check a netlist", cmd_validate, (_CIRCUIT,)),
    "golden": ("fault-free reference run", cmd_golden, (
        _CIRCUIT,
        ("--stimulus", {"required": True}),
        ("--out", {"required": True}),
    )),
    "campaign": ("Monte Carlo strike campaign", cmd_campaign, (
        *_RUN_INPUTS,
        ("--max-samples", {"type": int,
                           "default": CampaignConfig.max_samples}),
        ("--min-samples", {"type": int,
                           "default": CampaignConfig.min_samples}),
        ("--stderr-target", {"type": float,
                             "default": CampaignConfig.stderr_target}),
        ("--capture-policy", {"default": CampaignConfig.policy.label,
                              "help": "instant or window-random:<p>"}),
        _OUT,
        ("--workers", {"type": int, "default": 1,
                       "help": "accepted for compatibility and ignored: "
                               "campaigns run in one thread, and the value "
                               "never changes the results"}),
        ("--debug-sample", {"type": int, "default": None, "metavar": "INDEX",
                            "help": "also write an event-by-event replay of "
                                    "one sample"}),
    )),
    "oracle": ("exhaustive grid enumeration", cmd_oracle, (
        *_RUN_INPUTS,
        _OUT,
        ("--t-grid", {"type": int, "default": 200,
                      "help": "uniform strike-time grid points per cycle"}),
    )),
    "report": ("render stats to CSV + text", cmd_report, (
        ("--stats", {"required": True,
                     "help": "stats.json from a campaign"}),
        ("--log", {"help": "samples.csv raw log"}),
        ("--oracle", {"help": "oracle_stats.json to compare against"}),
        ("--recompute", {"action": "store_true",
                         "help": "recompute statistics from the raw log and "
                                 "require an exact match"}),
        ("--paper-columns", {"action": "store_true",
                             "help": "project outcome tables to "
                                     "NN/NF/FN/FF"}),
        ("--out", {"required": True}),
    )),
}


def build_parser():
    """The full parser, every subcommand included."""
    parser = _Parser(prog="seusim",
                     description="gate-level strike injection campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(command=name, func=func)
    return parser


def _parse_plain(name, tokens):
    """Subcommand ``name``'s namespace for ``tokens``, read from the table.

    Reads only the subcommand's own ``--flag value`` pairs and
    ``store_true`` flags, each given once, every value converted by its
    type and not starting with ``-``, every required flag present; any
    other command line gives None, for argparse to read.
    """
    _, func, options = _COMMANDS[name]
    table, given, tokens = dict(options), {}, iter(tokens)
    for flag in tokens:
        kwargs = table.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value reads as a flag
        if value.startswith("-"):
            return None
        try:
            given[flag] = kwargs.get("type", str)(value)
        except ValueError:
            return None
    args = argparse.Namespace(command=name, func=func)
    for flag, kwargs in options:
        if kwargs.get("required") and flag not in given:
            return None
        store_true = kwargs.get("action") == "store_true"
        setattr(args, flag[2:].replace("-", "_"), given.get(
            flag, False if store_true else kwargs.get("default")))
    return args


def parse_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns.

    Two paths give it: a well-formed subcommand line is read from the
    option table by ``_parse_plain`` and builds no parser; any other line
    goes to the full parser, which alone prints help and usage errors and
    sets their exit codes.
    """
    if argv and argv[0] in _COMMANDS:
        args = _parse_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
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
