"""Monte Carlo strike campaigns and their statistics.

Outcomes are observed at two consecutive capture edges and bucketed by flip
count (0 -> N, 1 -> F, >=2 -> F_m) into the nine classes NN..F_mF_m, kept
separately for gate and register strikes.  A campaign keeps drawing samples
until each strike class's flip probability 1 - P_NN is tight enough
(relative standard error below ``stderr_target``) or the sample budget runs
out.

Determinism contract: each sample index owns an RNG stream derived from
(seed, index) by a stable hash, and samples are evaluated in index order in
one thread, so the stats and the raw sample log are a pure function of the
inputs and the seed.
"""

import csv
import enum
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigError, InputError, InvariantError
from .injector import (INSTANT, SimContext, StrikeSample, grid_flip_counts,
                       polarity_matches, run_sample, strike_row)
from .techmodel import enumerate_drains

STRIKE_CLASSES = ("gate", "register")


class OutcomeClass(enum.Enum):
    """Nine two-edge outcome classes; values are the display labels."""

    NN = "NN"
    NF = "NF"
    NFM = "NF_m"
    FN = "FN"
    FF = "FF"
    FFM = "FF_m"
    FMN = "F_mN"
    FMF = "F_mF"
    FMFM = "F_mF_m"


_BUCKETS = ("N", "F", "F_m")
_BY_LABEL = {c.value: c for c in OutcomeClass}
# _BY_BUCKETS[min(n1, 2)][min(n2, 2)] is the class of flip counts (n1, n2)
_BY_BUCKETS = tuple(tuple(_BY_LABEL[b1 + b2] for b2 in _BUCKETS)
                    for b1 in _BUCKETS)


def classify(flip_counts):
    """Map a flip-count pair (first edge, second edge) to its OutcomeClass."""
    n1, n2 = flip_counts
    if n1 < 0 or n2 < 0:
        raise InvariantError(f"negative flip counts ({n1}, {n2})")
    return _BY_BUCKETS[n1 if n1 < 2 else 2][n2 if n2 < 2 else 2]


ERRONEOUS = tuple(c for c in OutcomeClass if c is not OutcomeClass.NN)


def standard_error(p, n):
    """Binomial standard error sqrt(p*(1-p)/n)."""
    if n < 1:
        raise InvariantError(f"standard error needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvariantError(f"estimate {p} outside [0, 1]")
    return math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class Ratio:
    """An estimate kept as an exact integer ratio plus its float value.

    Keeping the integers around makes consistency checks against the raw
    sample log exact instead of within-epsilon.
    """

    num: int
    den: int

    @property
    def defined(self):
        return self.den > 0

    @property
    def value(self):
        return self.num / self.den if self.den > 0 else None

    @property
    def stderr(self):
        if self.den <= 0:
            return None
        return standard_error(self.num / self.den, self.den)

    def display(self, digits=6):
        return "-" if not self.defined else f"{self.value:.{digits}g}"


def _stable_stream(seed, index):
    """64-bit stream seed from (campaign seed, sample index), platform-stable."""
    digest = hashlib.blake2b(
        index.to_bytes(8, "little", signed=False),
        digest_size=8,
        key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")


def sample_rng(seed, index):
    """The RNG stream owned by one sample index."""
    return random.Random(_stable_stream(seed, index))


def sample_strike(rng, table, trace, period, settle):
    """Draw one (drain, k, t): area-weighted site, uniform cycle, uniform t."""
    drain = table.pick(rng.random())
    k = rng.randrange(1, trace.cycle_count - 1)
    t = settle + rng.random() * (period - settle)
    return StrikeSample(drain=drain, k=k, t=t)


@dataclass(frozen=True)
class CampaignConfig:
    circuit: object
    profile: object
    trace: object
    rng_seed: int
    max_samples: int = 200_000
    min_samples: int = 100
    stderr_target: float = 0.10
    policy: object = INSTANT

    def __post_init__(self):
        if not 0.0 < self.stderr_target < 1.0:
            raise ConfigError(
                f"stderr_target must be in (0, 1), got {self.stderr_target}")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")
        if self.max_samples < self.min_samples:
            raise ConfigError(
                f"max_samples ({self.max_samples}) < min_samples "
                f"({self.min_samples})")


class SampleRecord(NamedTuple):
    """One raw log row; enough to recompute every statistic offline."""

    index: int
    drain_id: str
    strike_class: str
    k: int
    t: float
    n_e1: int
    n_e2: int
    outcome: OutcomeClass


@dataclass
class ClassStats:
    """Counts and probabilities for one strike class."""

    n: int = 0
    counts: dict = field(default_factory=lambda: {c: 0 for c in OutcomeClass})
    probs: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)

    def finalize(self):
        if self.n:
            self.probs = {c: self.counts[c] / self.n for c in OutcomeClass}
            self.stderrs = {c: standard_error(self.probs[c], self.n)
                            for c in OutcomeClass}
        else:
            self.probs = {c: 0.0 for c in OutcomeClass}
            self.stderrs = {c: None for c in OutcomeClass}
        return self

    @property
    def erroneous(self):
        return self.n - self.counts[OutcomeClass.NN]

    def flip_probability(self):
        """1 - P_NN as a Ratio (the estimate the stopping rule watches)."""
        return Ratio(self.erroneous, self.n)


@dataclass
class CampaignStats:
    circuit_name: str
    profile_label: str
    policy_label: str
    rng_seed: int
    period: float
    settle: float
    stderr_target: float
    target_estimate: str
    min_samples: int
    max_samples: int
    per_class: dict                 # "gate"/"register" -> ClassStats
    class_share: dict               # "gate"/"register" -> float
    p_m: Ratio
    p_gm: Ratio
    p_rm: Ratio
    stop_reason: str                # stderr-met | max-samples | exhaustive
    total_samples: int
    wrapped: bool = False
    records: list = field(default_factory=list, repr=False)


def derive_metrics(per_class):
    """(P_m, P_GM, P_RM) from per-strike-class outcome counts.

    Denominators are all erroneous samples (every class but NN, FF_m
    included); numerators count NF_m only, because multiple flips that ride
    on an already-corrupted first edge are not attributed to the strike
    itself.  A zero denominator leaves the metric undefined.
    """
    gate = per_class["gate"]
    reg = per_class["register"]
    nfm_g = gate.counts[OutcomeClass.NFM]
    nfm_r = reg.counts[OutcomeClass.NFM]
    err_g = gate.erroneous
    err_r = reg.erroneous
    return (
        Ratio(nfm_g + nfm_r, err_g + err_r),
        Ratio(nfm_g, err_g),
        Ratio(nfm_r, err_r),
    )


def _criterion_met(per_class, stderr_target):
    """True when each strike class's 1 - P_NN with p > 0 is tight enough."""
    for cls_stats in per_class.values():
        if cls_stats.n == 0:
            continue
        p = cls_stats.erroneous / cls_stats.n
        if p > 0.0 and standard_error(p, cls_stats.n) >= stderr_target * p:
            return False
    return True


def tally(per_class):
    """Finish ``per_class`` counts into the CampaignStats fields they decide.

    Finalizes every class and returns {field: value} for ``per_class``,
    ``class_share`` (each strike class's share of the samples),
    ``total_samples`` and the metrics ``p_m``, ``p_gm`` and ``p_rm``.
    """
    for cs in per_class.values():
        cs.finalize()
    total = sum(cs.n for cs in per_class.values())
    p_m, p_gm, p_rm = derive_metrics(per_class)
    return {
        "per_class": per_class,
        "class_share": {s: per_class[s].n / total if total else 0.0
                        for s in STRIKE_CLASSES},
        "total_samples": total,
        "p_m": p_m, "p_gm": p_gm, "p_rm": p_rm,
    }


def _build_stats(config, ctx, tallied, stop_reason, records):
    """CampaignStats for a finished run; ``tallied`` is ``tally``'s mapping.

    The stopping rule always watches 1 - P_NN, recorded as the target
    estimate ``"flip"``.
    """
    return CampaignStats(
        circuit_name=config.circuit.name,
        profile_label=config.profile.node_label,
        policy_label=config.policy.label,
        rng_seed=config.rng_seed,
        period=ctx.period,
        settle=ctx.settle,
        stderr_target=config.stderr_target,
        target_estimate="flip",
        min_samples=config.min_samples,
        max_samples=config.max_samples,
        stop_reason=stop_reason,
        records=records,
        **tallied,
    )


def _strike_cycles(trace):
    """Cycles a strike may land in: each needs a cycle on either side."""
    if trace.cycle_count < 3:
        raise ConfigError("trace must cover at least 3 cycles")
    return range(1, trace.cycle_count - 1)


def run_campaign(config, sample_runner=None):
    """Run the Monte Carlo campaign to the stopping rule.

    Samples are evaluated in index order and the stopping rule is checked
    after each one.  ``sample_runner(sample, rng) -> SampleResult`` may
    replace the real injector (used by tests to stub outcome behaviour).
    """
    circuit, profile, trace = config.circuit, config.profile, config.trace
    _strike_cycles(trace)
    table = enumerate_drains(circuit, profile)
    ctx = SimContext.build(circuit, profile).bind(trace)

    if sample_runner is None:
        def sample_runner(sample, rng):
            return run_sample(ctx, trace, sample, config.policy, rng)

    per_class = {s: ClassStats() for s in STRIKE_CLASSES}
    records = []
    stop_reason = "max-samples"
    for i in range(config.max_samples):
        rng = sample_rng(config.rng_seed, i)
        sample = sample_strike(rng, table, trace, ctx.period, ctx.settle)
        result = sample_runner(sample, rng)
        n_e1, n_e2 = len(result.flips_e1), len(result.flips_e2)
        outcome = classify((n_e1, n_e2))
        drain = sample.drain
        records.append(SampleRecord(i, drain.id, drain.strike_class,
                                    sample.k, sample.t, n_e1, n_e2, outcome))
        cs = per_class[drain.strike_class]
        cs.n += 1
        cs.counts[outcome] += 1
        if len(records) >= config.min_samples and _criterion_met(
                per_class, config.stderr_target):
            stop_reason = "stderr-met"
            break

    return _build_stats(config, ctx, tally(per_class), stop_reason, records)


_ORACLE_BUDGET = 10_000_000


def exhaustive_campaign(config, t_grid):
    """Count every (drain, cycle, grid time) exactly once.

    The instant capture policy is required (nothing else is deterministic
    per sample).  A cycle in which a drain's strike has the wrong polarity
    counts as NN at every grid time.  A gate or state-node drain propagates
    once from t = 0 for all its other (``live``) cycles, which are grouped
    by the flop events they carry; each group's row is judged at every grid
    time at once by ``grid_flip_counts``, or counts as (n_e1, 0) if it has
    no event.  A capture-node strike depends on neither t nor the cycle, so
    one strike stands for all its live cells.  Class probabilities are
    weighted by drain area within each strike class so they estimate the
    same measure Monte Carlo samples from; raw counts are also kept
    (counts/n and the weighted probabilities coincide whenever site areas
    are uniform within a class).
    """
    if config.policy.kind != "instant":
        raise ConfigError("the exhaustive oracle requires the instant policy")
    if t_grid < 1:
        raise ConfigError("t_grid must be >= 1")
    circuit, profile, trace = config.circuit, config.profile, config.trace
    table = enumerate_drains(circuit, profile)
    ctx = SimContext.build(circuit, profile).bind(trace)

    k_values = _strike_cycles(trace)
    n_samples = len(table.sites) * len(k_values) * t_grid
    if n_samples > _ORACLE_BUDGET:
        raise ConfigError(
            f"exhaustive enumeration of {n_samples} samples exceeds the "
            f"{_ORACLE_BUDGET} budget; shrink the circuit, trace, or grid")

    step = (ctx.period - ctx.settle) / t_grid
    times = [ctx.settle + i * step for i in range(t_grid)]
    strikable = (1 << k_values.stop) - (1 << k_values.start)
    per_class = {s: ClassStats() for s in STRIKE_CLASSES}
    weight_sum = {s: 0.0 for s in STRIKE_CLASSES}
    weighted = {s: {c: 0.0 for c in OutcomeClass} for s in STRIKE_CLASSES}
    for drain in table.sites:
        sclass = drain.strike_class
        golden = trace.net_masks[drain.net]
        live = strikable & (golden if polarity_matches(drain.polarity, 1)
                            else ~golden)
        n_live = live.bit_count()
        drain_counts = {c: 0 for c in OutcomeClass}
        drain_counts[OutcomeClass.NN] = (len(k_values) - n_live) * t_grid
        if n_live and drain.ff_node_class == "capture-node":
            k = (live & -live).bit_length() - 1  # first live cycle
            result = run_sample(
                ctx, trace, StrikeSample(drain=drain, k=k, t=times[0]))
            drain_counts[classify(result.flip_counts)] += n_live * t_grid
        elif n_live:
            n_e1 = int(drain.ff_node_class == "state-node")
            pulses = strike_row(ctx, drain, live)
            groups = [live]
            for m in {m for ivs in pulses.values() for _, _, m in ivs}:
                groups = [h for g in groups for h in (g & m, g & ~m) if h]
            for g in groups:
                row = {net: [iv for iv in ivs if iv[2] & g]
                       for net, ivs in pulses.items()}
                counts = (grid_flip_counts(ctx, row, times)
                          if any(row.values()) else {0: t_grid})
                for n_e2, n in counts.items():
                    drain_counts[classify((n_e1, n_e2))] += n * g.bit_count()
        cs = per_class[sclass]
        cells = len(k_values) * t_grid
        cs.n += cells
        for c, cnt in drain_counts.items():
            cs.counts[c] += cnt
            weighted[sclass][c] += drain.area * (cnt / cells)
        weight_sum[sclass] += drain.area

    tallied = tally(per_class)
    for sclass, cs in per_class.items():
        if weight_sum[sclass] > 0.0:
            cs.probs = {c: weighted[sclass][c] / weight_sum[sclass]
                        for c in OutcomeClass}
        cs.stderrs = {c: 0.0 for c in OutcomeClass}
    total_area = table.total_area
    tallied["class_share"] = {"gate": table.gate_area / total_area,
                              "register": table.flop_area / total_area}
    return _build_stats(config, ctx, tallied, "exhaustive", [])


# --- raw sample log (CSV) ---------------------------------------------------

LOG_COLUMNS = ("sample_index", "drain", "strike_class", "k", "t",
               "flips_e1", "flips_e2", "outcome")


def write_sample_log(records, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(LOG_COLUMNS)
    for r in records:
        writer.writerow([r.index, r.drain_id, r.strike_class, r.k,
                         repr(r.t), r.n_e1, r.n_e2, r.outcome.value])


def sample_log_text(records):
    buf = io.StringIO()
    write_sample_log(records, buf)
    return buf.getvalue()


def read_sample_log(fh):
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if tuple(header or ()) != LOG_COLUMNS:
            raise InvariantError(f"unexpected sample log header: {header}")
        records = []
        for row in reader:
            if not row:
                continue
            try:
                idx, drain, sclass, k, t, n1, n2, outcome = row
                rec = SampleRecord(
                    index=int(idx), drain_id=drain, strike_class=sclass,
                    k=int(k), t=float(t), n_e1=int(n1), n_e2=int(n2),
                    outcome=_BY_LABEL[outcome])
                # no campaign draws a negative index, a cycle before 1 or
                # a non-finite time
                if rec.index < 0 or rec.k < 1 or not math.isfinite(rec.t):
                    raise ValueError
                records.append(rec)
            except (ValueError, KeyError):
                raise InputError(f"sample log line {reader.line_num}: "
                                 f"malformed row {row}") from None
    except csv.Error as exc:
        # e.g. a field longer than csv's field size limit
        raise InputError(f"sample log line {reader.line_num}: {exc}") from None
    return records


def recompute_from_log(records):
    """``tally`` of the per-class counts in raw log rows alone.

    Used by the report path to prove the stored statistics are re-derivable;
    the result must match the stored values exactly (same counts, same
    float divisions).
    """
    per_class = {s: ClassStats() for s in STRIKE_CLASSES}
    for rec in records:
        if rec.strike_class not in per_class:
            raise InvariantError(
                f"unknown strike class '{rec.strike_class}' in log")
        if classify((rec.n_e1, rec.n_e2)) is not rec.outcome:
            raise InvariantError(
                f"log row {rec.index}: outcome {rec.outcome.value} does not "
                f"match flip counts ({rec.n_e1}, {rec.n_e2})")
        cs = per_class[rec.strike_class]
        cs.n += 1
        cs.counts[rec.outcome] += 1
    return tally(per_class)
