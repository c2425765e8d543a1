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
import math
import random
from bisect import bisect_right
from functools import reduce
from operator import or_
# hashlib.blake2b itself, without the OpenSSL that importing hashlib loads
from _blake2 import blake2b
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

from .errors import ConfigError, InputError, InvariantError
from .injector import (INSTANT, SimContext, StrikeSample, grid_ranges,
                       judge_grid, polarity_matches, run_sample, strike_row)
from .techmodel import POLARITIES, enumerate_drains

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

    # identity hashing in C; the name hash Enum gives runs in Python
    __hash__ = object.__hash__


OUTCOMES = tuple(OutcomeClass)
OUTCOME_LABELS = tuple(c._value_ for c in OUTCOMES)


def _outcome_index(n1, n2):
    """Position in ``OutcomeClass`` order of the class of flip counts (n1 at
    the first edge, n2 at the second).

    Each count is bucketed 0 -> N, 1 -> F, >=2 -> F_m, and the classes run
    first-edge bucket major.  Monte Carlo, the oracle and the log recompute
    all count outcomes at these indices.
    """
    if n1 < 0 or n2 < 0:
        raise InvariantError(f"negative flip counts ({n1}, {n2})")
    return 3 * (n1 if n1 < 2 else 2) + (n2 if n2 < 2 else 2)


# The ``_outcome_index`` of each class a gate or state-node strike can have.
_NN, _NF, _NFM, _FN, _FF, _FFM = (_outcome_index(n1, n2) for n1 in (0, 1)
                                  for n2 in (0, 1, 2))


def classify(flip_counts):
    """Map a flip-count pair (first edge, second edge) to its OutcomeClass."""
    return OUTCOMES[_outcome_index(*flip_counts)]


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


def _seed_key(seed):
    """BLAKE2b state keyed by a campaign seed; see ``_stable_stream``."""
    return blake2b(
        digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))


def _stable_stream(keyed, index):
    """64-bit stream seed of a sample index, platform-stable: the index's 8
    bytes hashed by a copy of the campaign seed's ``_seed_key`` state."""
    h = keyed.copy()
    h.update(index.to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def sample_rng(seed, index):
    """The RNG stream owned by one sample index."""
    return random.Random(_stable_stream(_seed_key(seed), index))


def sample_strike(rng, table, cycles, period, settle):
    """Draw one (drain, k, t): area-weighted site, uniform cycle k in the
    ``strike_cycles`` range ``cycles``, uniform t in [settle, period)."""
    drain = table.pick(rng.random())
    k = rng.randrange(cycles.start, cycles.stop)
    t = settle + rng.random() * (period - settle)
    return StrikeSample(drain, k, t)


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


# A SampleRecord or StrikeSample from a tuple of its fields, without the
# Python-level ``__new__`` a NamedTuple call goes through.
_new_tuple = tuple.__new__


@dataclass
class ClassStats:
    """Counts and probabilities for one strike class."""

    n: int = 0
    counts: dict = field(default_factory=lambda: {c: 0 for c in OutcomeClass})
    probs: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)

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


def _criterion_met(n, erroneous, stderr_target):
    """The stopping rule for one strike class with ``n`` samples: True
    unless its 1 - P_NN is above 0 and not yet tight enough.  A campaign
    stops once this holds for every strike class with samples."""
    p = erroneous / n
    return not (p > 0.0 and standard_error(p, n) >= stderr_target * p)


def _new_tallies():
    """{strike class: outcome counts in ``OutcomeClass`` order}, all 0."""
    return {s: [0] * len(OUTCOMES) for s in STRIKE_CLASSES}


def tally(tallies, weighted=None):
    """Finish ``_new_tallies`` counts into the CampaignStats fields they
    decide: {field: value} for ``per_class`` (ClassStats keyed by
    OutcomeClass), ``class_share``, ``total_samples``, ``p_m``, ``p_gm`` and
    ``p_rm``.

    A class's probabilities are its counts over n, with binomial stderrs
    (0.0 and None without samples), and its share is its share of the
    samples.  An oracle's ``weighted`` maps each strike class to its area
    share and, if the class has samples, its area-weighted probabilities in
    ``OutcomeClass`` order; these replace the share and the probabilities,
    and every stderr is 0.0.
    """
    total = sum(map(sum, tallies.values()))
    per_class, class_share = {}, {}
    for s, row in tallies.items():
        n = sum(row)
        probs = [c / n if n else 0.0 for c in row]
        if weighted is None:
            class_share[s] = n / total if total else 0.0
            stderrs = [standard_error(p, n) if n else None for p in probs]
        else:
            class_share[s], area_probs = weighted[s]
            probs = area_probs if n else probs
            stderrs = [0.0] * len(row)
        per_class[s] = ClassStats(n, *(dict(zip(OUTCOMES, values))
                                       for values in (row, probs, stderrs)))
    p_m, p_gm, p_rm = derive_metrics(per_class)
    return {"per_class": per_class, "class_share": class_share,
            "total_samples": total, "p_m": p_m, "p_gm": p_gm, "p_rm": p_rm}


def _run_inputs(config, ctx):
    """The ``build_stats`` inputs of a run of ``config`` on ``ctx``."""
    return dict(circuit_name=config.circuit.name,
                profile_label=config.profile.node_label,
                policy_label=config.policy.label, rng_seed=config.rng_seed,
                period=ctx.period, settle=ctx.settle,
                stderr_target=config.stderr_target,
                min_samples=config.min_samples, max_samples=config.max_samples)


def build_stats(inputs, tallies, weighted=None, records=()):
    """The CampaignStats of a Monte Carlo run, an oracle run or a stats
    document: ``inputs`` maps the fields a run is given (its labels, seed,
    period, settle, sampling limits and optionally ``wrapped``) to their
    values, ``tallies`` and ``weighted`` go to ``tally``, and every other
    field is decided here.

    The target estimate is ``"flip"``, the 1 - P_NN the stopping rule
    watches.  The stop reason is ``exhaustive`` for an oracle's weighted
    counts; else ``stderr-met`` when ``_criterion_met`` holds for every
    strike class with samples and min_samples <= total <= max_samples; else
    ``max-samples`` when the total is max_samples; else None, which no run
    writes.
    """
    tallied = tally(tallies, weighted)
    total = tallied["total_samples"]
    if weighted is not None:
        stop_reason = "exhaustive"
    elif (inputs["min_samples"] <= total <= inputs["max_samples"]
          and all(_criterion_met(cs.n, cs.erroneous, inputs["stderr_target"])
                  for cs in tallied["per_class"].values() if cs.n)):
        stop_reason = "stderr-met"
    elif total == inputs["max_samples"]:
        stop_reason = "max-samples"
    else:
        stop_reason = None
    return CampaignStats(**inputs, **tallied, target_estimate="flip",
                         stop_reason=stop_reason, records=records)


def strike_cycles(trace):
    """Cycles a strike may land in: each needs a cycle on either side."""
    if trace.cycle_count < 3:
        raise ConfigError("trace must cover at least 3 cycles")
    return range(1, trace.cycle_count - 1)


def run_campaign(config):
    """Run the Monte Carlo campaign to the stopping rule.

    Sample ``i`` draws its strike from ``sample_rng(seed, i)``'s stream
    (each stream is seeded from one BLAKE2b state keyed by the seed, copied
    per index) and runs it through ``run_sample``, once per sample, in index
    order.

    A strike's reads do not depend on its time t, so the campaign keeps
    them per ``(drain, k)`` in one table and later strikes at the same key
    skip propagation.  The table is kept only when the key space (drains x
    strikable cycles) is no larger than ``max_samples``; a circuit with far
    more keys than samples rarely repeats one.

    Outcomes are counted per strike class at ``_outcome_index``.  The
    campaign stops once ``_criterion_met`` holds for every class with
    samples; a sample changes one class, so only that class is re-judged.
    ``build_stats`` names the stop reason from the final counts.

    The loop body is one strike with no helper frames but ``run_sample``:
    it repeats ``_stable_stream``, ``sample_strike`` (``DrainTable.pick``
    and ``randrange``'s ``getrandbits`` rejection loop), ``_outcome_index``
    and ``_criterion_met`` inline, draw for draw and float for float.
    """
    circuit, profile, trace = config.circuit, config.profile, config.trace
    cycles = strike_cycles(trace)
    table = enumerate_drains(circuit, profile)
    ctx = SimContext.build(circuit, profile).bind(trace)
    policy, target = config.policy, config.stderr_target
    reads = ({} if len(table.sites) * len(cycles) <= config.max_samples
             else None)

    tallies = _new_tallies()
    # per strike class, in STRIKE_CLASSES order: outcome counts, samples,
    # erroneous samples and whether _criterion_met holds
    rows = [tallies[s] for s in STRIKE_CLASSES]
    ns, errs = [0] * len(rows), [0] * len(rows)
    met = [True] * len(rows)
    records = []
    append = records.append
    keyed = _seed_key(config.rng_seed)
    # One generator, reseeded per sample: for an int, the C-level seed sets
    # the state Random(x) has, without Random's Python-level wrappers.
    rng = random.Random(0)
    reseed = super(random.Random, rng).seed
    rand, getrandbits = rng.random, rng.getrandbits
    # per site: the drain, its id, its strike class and that class's
    # position in STRIKE_CLASSES
    sites = [(d, d.id, d.strike_class, STRIKE_CLASSES.index(d.strike_class))
             for d in table.sites]
    cum = table.cumulative
    k_start, width = cycles.start, len(cycles)
    k_bits = width.bit_length()
    settle, span = ctx.settle, ctx.period - ctx.settle
    first_stop = config.min_samples - 1     # the first index that may stop
    for i in range(config.max_samples):
        # reseed from _stable_stream(keyed, i)
        h = keyed.copy()
        h.update(i.to_bytes(8, "little"))
        reseed(int.from_bytes(h.digest(), "little"))
        # sample_strike: the site, k = randrange(start, stop), then t
        drain, drain_id, sclass, c = sites[bisect_right(cum, rand())]
        r = getrandbits(k_bits)
        while r >= width:
            r = getrandbits(k_bits)
        k = k_start + r
        t = settle + rand() * span
        flips_e1, flips_e2, _ = run_sample(
            ctx, _new_tuple(StrikeSample, (drain, k, t)), policy, rng,
            reads=reads)
        n_e1, n_e2 = len(flips_e1), len(flips_e2)
        # _outcome_index(n_e1, n_e2)
        o = 3 * (n_e1 if n_e1 < 2 else 2) + (n_e2 if n_e2 < 2 else 2)
        append(_new_tuple(SampleRecord, (
            i, drain_id, sclass, k, t, n_e1, n_e2, OUTCOMES[o])))
        rows[c][o] += 1
        # _criterion_met for the class this sample changed
        n = ns[c] = ns[c] + 1
        erroneous = errs[c] = errs[c] + (o != _NN)
        p = erroneous / n
        met[c] = ok = not (
            p > 0.0 and math.sqrt(p * (1.0 - p) / n) >= target * p)
        if ok and i >= first_stop and all(met):
            break

    return build_stats(_run_inputs(config, ctx), tallies, records=records)


_ORACLE_BUDGET = 10_000_000


def exhaustive_campaign(config, t_grid):
    """Count every (drain, cycle, grid time) exactly once.

    The instant capture policy is required (nothing else is deterministic
    per sample).  A cycle in which a drain's strike has the wrong polarity
    counts as NN at every grid time.  A gate or state-node strike's row
    depends on its net and node class, not on its polarity, so each struck
    net propagates once from t = 0 for the (``live``) cycles of both
    polarities' drains together.  The cycles in which a flop event occurs
    are grouped by the events they carry; ``grid_ranges`` finds each
    interval's grid times once per distinct offset, ``judge_grid`` judges
    each group at every grid time at once, and each drain adds a group's
    grid times with one flip and with more once per live cycle of its own
    in the group.  Every other live cell flips no flop.  A capture-node
    strike depends on neither t nor the cycle, so one strike stands for
    all its live cells.  Class probabilities are
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

    k_values = strike_cycles(trace)
    n_samples = len(table.sites) * len(k_values) * t_grid
    if n_samples > _ORACLE_BUDGET:
        raise ConfigError(
            f"exhaustive enumeration of {n_samples} samples exceeds the "
            f"{_ORACLE_BUDGET} budget; shrink the circuit, trace, or grid")

    step = (ctx.period - ctx.settle) / t_grid
    times = [ctx.settle + i * step for i in range(t_grid)]
    strikable = (1 << k_values.stop) - (1 << k_values.start)
    flips_one = {p: polarity_matches(p, 1) for p in POLARITIES}
    golden = trace.net_masks
    # sites are unpacked: a NamedTuple field lookup is a descriptor call
    lives, rows = [], {}
    for drain in table.sites:
        _, _, net, _, polarity, node = drain
        live = strikable & (golden[net] if flips_one[polarity]
                            else ~golden[net])
        lives.append(live)
        if live and node != "capture-node":
            key = net, node
            first, cycles = rows.get(key, (drain, 0))
            rows[key] = first, cycles | live
    # each struck net's row, over the live cycles of all its drains: the
    # cycles in which an interval occurs, split into groups that carry the
    # same intervals, each judged once as (group, grid times with one flip,
    # grid times with more); every other cycle flips no flop
    index, judged = {}, {}
    for key, (drain, cycles) in rows.items():
        ranges = grid_ranges(ctx, strike_row(ctx, drain, cycles), times,
                             index)
        masks = {m for _, intervals in ranges for _, _, m in intervals}
        groups = [reduce(or_, masks)] if masks else []
        for m in masks:
            groups = [h for g in groups for h in (g & m, g & ~m) if h]
        judgments = judged[key] = []
        for g in groups:
            flips = judge_grid(ranges, t_grid, g)
            one = flips.get(1, 0)
            judgments.append((g, one, t_grid - flips.get(0, 0) - one))

    tallies = _new_tallies()
    weighted = {s: [0.0] * len(OUTCOMES) for s in STRIKE_CLASSES}
    n_cycles = len(k_values)
    cells = n_cycles * t_grid
    for drain, live in zip(table.sites, lives):
        _, _, net, area, _, node = drain
        n_live = live.bit_count()
        nn = (n_cycles - n_live) * t_grid       # wrong-polarity cells
        if node == "capture-node":
            sclass, counts = "register", {_NN: nn}
            if n_live:
                k = (live & -live).bit_length() - 1  # first live cycle
                result = run_sample(ctx, StrikeSample(drain, k, times[0]))
                j = _outcome_index(*result.flip_counts)
                counts[j] = counts.get(j, 0) + n_live * t_grid
            counts = counts.items()
        else:
            one = more = 0
            for g, n_one, n_more in judged.get((net, node), ()):
                in_group = (g & live).bit_count()
                one += n_one * in_group
                more += n_more * in_group
            none = n_live * t_grid - one - more
            # a gate strike flips nothing at e1, a state-node strike its
            # own flop
            sclass, counts = (
                ("gate", ((_NN, nn + none), (_NF, one), (_NFM, more)))
                if node == "none" else
                ("register", ((_NN, nn), (_FN, none), (_FF, one),
                              (_FFM, more))))
        # a zero count adds +0.0 to a sum that is never -0.0: no change
        row, w = tallies[sclass], weighted[sclass]
        for j, cnt in counts:
            row[j] += cnt
            w[j] += area * (cnt / cells)

    area = {"gate": table.gate_area, "register": table.flop_area}
    total = sum(area.values())
    return build_stats(_run_inputs(config, ctx), tallies, {
        s: (a / total, [w / a for w in weighted[s]] if a else None)
        for s, a in area.items()})


# --- raw sample log (CSV) ---------------------------------------------------

LOG_COLUMNS = ("sample_index", "drain", "strike_class", "k", "t",
               "flips_e1", "flips_e2", "outcome")


def sample_log_text(records):
    """The sample log of ``records`` as csv text, one line per record.

    Only the drain id and strike class can need csv quoting, so each
    (drain id, strike class) pair is quoted once, by the csv module; the
    numbers, ``repr(t)`` and the outcome label never need it.
    """
    # writerow returns what its file's write returns, and str returns its
    # argument: one writer formats every line
    csv_line = csv.writer(SimpleNamespace(write=str),
                          lineterminator="\n").writerow
    prefixes = {}
    lines = [csv_line(LOG_COLUMNS)]
    for index, drain_id, sclass, k, t, n_e1, n_e2, outcome in records:
        prefix = prefixes.get((drain_id, sclass))
        if prefix is None:
            prefix = prefixes[drain_id, sclass] = csv_line(
                (drain_id, sclass))[:-1]
        lines.append(f"{index},{prefix},{k},{t!r},{n_e1},{n_e2},"
                     f"{outcome._value_}\n")
    return "".join(lines)


def read_sample_log(fh):
    """The SampleRecords of a sample log; InputError for a malformed row.

    A row is malformed unless it could be a campaign's: a sample index
    >= 0, a cycle >= 1, a finite time, a known strike class, flip counts
    >= 0 and the outcome label of the class of its flip counts.
    """
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
                idx, drain, sclass, k, t, n1, n2, label = row
                idx, k, t = int(idx), int(k), float(t)
                n1, n2 = int(n1), int(n2)
                if (idx < 0 or k < 1 or not math.isfinite(t)
                        or sclass not in STRIKE_CLASSES or n1 < 0 or n2 < 0):
                    raise ValueError
                outcome = OUTCOMES[_outcome_index(n1, n2)]
                if outcome._value_ != label:
                    raise ValueError
                records.append(_new_tuple(SampleRecord, (
                    idx, drain, sclass, k, t, n1, n2, outcome)))
            except ValueError:
                raise InputError(f"sample log line {reader.line_num}: "
                                 f"malformed row {row}") from None
    except csv.Error as exc:
        # e.g. a field longer than csv's field size limit
        raise InputError(f"sample log line {reader.line_num}: {exc}") from None
    return records


def stopping_row(records, min_samples, stderr_target):
    """The index of the first of ``records`` after which a run stops by its
    stopping rule, as ``run_campaign`` judges it (``_criterion_met`` for
    every strike class with samples, from ``min_samples`` rows on), or None
    if no row is such."""
    n = dict.fromkeys(STRIKE_CLASSES, 0)
    erroneous = dict.fromkeys(STRIKE_CLASSES, 0)
    met = dict.fromkeys(STRIKE_CLASSES, True)
    first_stop = min_samples - 1
    for i, rec in enumerate(records):
        sclass = rec.strike_class
        n[sclass] += 1
        erroneous[sclass] += rec.outcome is not OutcomeClass.NN
        met[sclass] = _criterion_met(n[sclass], erroneous[sclass],
                                     stderr_target)
        if i >= first_stop and all(met.values()):
            return i
    return None


def recompute_from_log(records):
    """``tally`` of the per-class counts of ``read_sample_log`` rows.

    Used by the report path to prove the stored statistics are re-derivable;
    the result must match the stored values exactly (same counts, same
    float divisions).
    """
    tallies = _new_tallies()
    for rec in records:
        tallies[rec.strike_class][_outcome_index(rec.n_e1, rec.n_e2)] += 1
    return tally(tallies)
