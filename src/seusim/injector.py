"""Single-strike fault injection against a golden trace.

One sample = one drain site, one strike cycle k, one strike time t within
the cycle.  A gate or state-node strike is played through the combinational
fanout once, from t = 0, for one cycle or a mask of many (``strike_row``);
its intervals at the flops, shifted by t, are then judged against the
capture edge (``_capture_all``, or ``grid_ranges`` and ``judge_grid`` for a
whole oracle grid).  The row depends on the struck net and its node class,
not on the strike's polarity, so the oracle builds and judges one row per
struck net for the drains of both polarities.  All strikes take this one
path, so debug pulse lines give each event's start as an offset from t.
Three masking mechanisms apply:

* logical   - a pulse passes a gate only while every side input holds a
              non-controlling golden value;
* electrical - a pulse narrower than the gate delay (scaled by the filter
              threshold) is swallowed; widths between d and 2d shrink to
              2*(w - d), wider pulses pass unchanged;
* latching-window - a disturbance only matters if the capturing flop sees it
              across the clock edge (or, under the window-random policy,
              probabilistically when it grazes the setup/hold window).

Observation convention: flips_e1 compares the register file immediately
before the capture edge that ends the strike cycle against golden, flips_e2
compares the state captured at that edge (i.e. the state during cycle k+1)
against golden.  Under this convention a gate strike can never appear at e1,
and a register strike contributes at most its own flop at e1.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, InvariantError
from .netlist import CONTROLLING
from .techmodel import period_and_settle


@dataclass(frozen=True)
class CapturePolicy:
    """How a disturbance that straddles the setup/hold window resolves.

    ``instant`` captures whatever value the data net holds just before the
    edge.  ``window-random`` additionally captures a grazing disturbance
    with probability ``p`` drawn from the sample's own RNG stream, as a
    crude stand-in for metastable resolution.
    """

    kind: str = "instant"
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("instant", "window-random"):
            raise ConfigError(f"unknown capture policy '{self.kind}'")
        if self.kind == "window-random" and not 0.0 <= self.p <= 1.0:
            raise ConfigError("window-random probability must be in [0, 1]")

    @property
    def label(self):
        if self.kind == "instant":
            return "instant"
        return f"window-random:{self.p:g}"


INSTANT = CapturePolicy("instant")


def parse_policy(text):
    if text == "instant":
        return INSTANT
    if text.startswith("window-random:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad capture policy '{text}'") from None
        return CapturePolicy("window-random", p)
    raise ConfigError(f"unknown capture policy '{text}' "
                      "(expected 'instant' or 'window-random:<p>')")


class StrikeSample(NamedTuple):
    """One sampled strike: where (drain), when (cycle k, time t)."""

    drain: object            # techmodel.DrainSite
    k: int
    t: float

    @property
    def strike_class(self):
        return self.drain.strike_class


class SampleResult(NamedTuple):
    """The flop ids flipped at each observation edge of one strike."""

    flips_e1: frozenset
    flips_e2: frozenset
    window_hits: int = 0

    @property
    def flip_counts(self):
        return (len(self.flips_e1), len(self.flips_e2))


# A SampleResult from a tuple of its fields, without the Python-level
# ``__new__`` a NamedTuple call goes through.
_new_result = tuple.__new__


@dataclass(frozen=True)
class SimContext:
    """Per-(circuit, profile) precomputation; ``bind`` adds a trace's."""

    circuit: object
    profile: object
    period: float
    settle: float
    # set by ``bind``: the trace, net -> ((gate id, delay ps, pass mask),
    # ...) in ``circuit.gate_fanout`` order, and data net -> [(flop
    # position, flop id, data net), ...] in circuit flop order
    trace: object = None
    passes: dict = None
    latches: dict = None

    @classmethod
    def build(cls, circuit, profile):
        period, settle = period_and_settle(circuit, profile)
        if settle >= period:
            raise ConfigError(
                f"circuit '{circuit.name}' never settles inside the clock "
                f"period ({settle:.1f} ps >= {period:.1f} ps); increase the "
                f"clock margin")
        return cls(circuit=circuit, profile=profile, period=period,
                   settle=settle)

    def bind(self, trace):
        """This context bound to ``trace``; a fan-out entry's pass mask holds
        the cycles in which no side input of its gate is controlling."""
        masks = trace.net_masks
        full = (1 << trace.cycle_count) - 1

        def entry(net, gate):
            ctrl, m = CONTROLLING[gate.kind], full
            for n in gate.inputs if ctrl is not None else ():
                if n != net:
                    m &= full ^ masks[n] if ctrl else masks[n]
            delay = self.profile.delay(gate.kind, len(gate.inputs))
            return gate.id, delay, m

        passes = {net: tuple(entry(net, g) for g in gates)
                  for net, gates in self.circuit.gate_fanout.items()}
        latches = {}
        for pos, flop in enumerate(self.circuit.flops):
            latches.setdefault(flop.data, []).append((pos, flop.id, flop.data))
        return SimContext(self.circuit, self.profile, self.period,
                          self.settle, trace, passes, latches)


def capture_at_edge(golden, intervals, edge, profile, policy=INSTANT,
                    rng=None):
    """Resolve one flop capture: (captured_bit, window_hit).

    ``intervals`` is a sequence of (start, end) intervals during which the
    data net holds the complement of ``golden``; an empty one is a clean
    capture.  An interval that covers the edge wins over any that only
    graze it, and a flop that is only grazed counts one window hit and,
    under ``window-random``, draws once from ``rng``.
    """
    setup_start, hold_end = edge - profile.ff_setup, edge + profile.ff_hold
    grazed = False
    for start, end in intervals:
        # The flop samples the data value immediately before the edge, so an
        # interval ending exactly at the edge still lands and one starting
        # exactly at the edge does not.
        if start < edge <= end:
            return 1 - golden, False
        grazed = grazed or (start <= hold_end and end > setup_start)
    if not grazed:
        return golden, False
    if policy.kind == "window-random":
        if rng is None:
            raise ConfigError("window-random capture needs an RNG stream")
        if rng.random() < policy.p:
            return 1 - golden, True
    return golden, True


def _attenuate(width, delay, theta):
    """Electrical masking: surviving width of a pulse crossing one gate."""
    if width <= theta * delay or width <= delay:
        return None
    if width >= 2.0 * delay:
        return width
    return 2.0 * (width - delay)


def _propagate(ctx, seed, live, debug=None):
    """Event-wise propagation through the combinational fanout of a bound
    ``ctx``, in every cycle of the ``live`` mask at once.

    ``seed`` is a ``(net, start, width, step)`` tuple.  Returns {data net ->
    [(start, end, mask), ...]} for nets that feed flops, ``mask`` holding
    the cycles the interval occurs in.  An event is followed only in cycles
    no earlier event covered: a glitch equal in (net, start, width), or a
    step (which ends past every capture edge) on its net at an earlier or
    equal start.  Restricted to cycle c, the events and their order are
    those of a call with ``live = 1 << c``; debug lines assume such a call.
    """
    theta = ctx.profile.filter_threshold
    masks, passes = ctx.trace.net_masks, ctx.passes
    latches = ctx.latches
    net, start, width, step = seed
    single = not live & (live - 1)
    at_flops, seen = {}, {}
    queue = deque([(net, start, width, live)])
    while queue:
        net, start, width, m = queue.popleft()
        key = net if step else (net, start, width)
        if single:
            # one cycle: the earliest start followed under this key
            if seen.get(key, math.inf) <= start:
                continue
            seen[key] = start
        else:
            # (start, mask) of every event already followed under this key
            earlier = seen.setdefault(key, [])
            for s, sm in earlier:
                if s <= start:
                    m &= ~sm
            if not m:
                continue
            earlier.append((start, m))
        if debug is not None:
            debug.append(f"pulse net={net} start={start:.2f} "
                         f"width={width:.2f} value={int(not masks[net] & m)}"
                         + (" step" if step else ""))
        if net in latches:
            at_flops.setdefault(net, []).append((start, start + width, m))
        for gate_id, d, pass_mask in passes.get(net, ()):
            passed = m & pass_mask
            if not passed:
                if debug is not None:
                    debug.append(f"  masked at {gate_id} (logical)")
                continue
            if step:
                new_width = width
            else:
                new_width = _attenuate(width, d, theta)
                if new_width is None:
                    if debug is not None:
                        debug.append(f"  masked at {gate_id} (electrical)")
                    continue
            queue.append((gate_id, start + d, new_width, passed))
    return at_flops


def polarity_matches(polarity, value):
    """True when a strike of ``polarity`` flips a net holding ``value``."""
    return value == (1 if polarity == "pulls-low" else 0)


def _capture_all(ctx, reads, t, policy, rng, debug=None):
    """SampleResult of the strike whose reads are ``reads``, started at
    ``t``, at the edge ending its cycle.

    Each disturbed flop judges its intervals as ``(t + start, t + end)``,
    in circuit flop order, so window-random draws come in a fixed order.  A
    strike that flips no flop and grazes none returns the reads' shared
    undisturbed result.

    The flop loop is ``capture_at_edge`` inline, on the same sums: an
    interval that covers the edge wins over any that only graze it, and a
    flop that is only grazed counts one window hit and, under
    ``window-random``, draws once from ``rng``.
    """
    settled, disturbed = reads
    edge, profile = ctx.period, ctx.profile
    setup_start, hold_end = edge - profile.ff_setup, edge + profile.ff_hold
    p = policy.p if policy.kind == "window-random" else None
    flips, hits = [], 0
    for flop_id, golden_next, intervals in disturbed:
        grazed = False
        for s, e in intervals:
            start, end = t + s, t + e
            if start < edge <= end:
                break
            grazed = grazed or (start <= hold_end and end > setup_start)
        else:
            if not grazed:
                continue
            hits += 1
            if p is None or not rng.random() < p:
                continue
        flips.append(flop_id)
        if debug is not None:
            debug.append(f"capture flop={flop_id} edge={edge:.2f} "
                         f"captured={1 - golden_next} golden={golden_next}")
    if not flips and not hits:
        return settled
    return _new_result(SampleResult, (settled.flips_e1, frozenset(flips),
                                      hits))


def strike_row(ctx, drain, live, debug=None):
    """The ``_propagate`` row a matching strike at a gate or state-node
    ``drain`` leaves at the flops, started at ``t = 0`` in the cycles of
    ``live``.  A gate drain starts a glitch of ``glitch_width`` on its net;
    a state-node drain holds its flipped bit for a whole period, past the
    capture edge.  Delays and widths do not depend on the strike time, so a
    strike at ``t`` captures these intervals shifted by ``t``.
    """
    step = drain.ff_node_class != "none"
    width = ctx.period if step else ctx.profile.glitch_width
    return _propagate(ctx, (drain.net, 0.0, width, step), live, debug)


def grid_ranges(ctx, row, times, index=None):
    """Each net of the ``strike_row`` ``row`` as (the number of flops
    latching it, [(a, b, mask), ...] sorted): the interval (s, e, mask)
    covers the edge at the ascending strike times ``times[a:b]``, and an
    interval that covers it at no grid time is left out.

    This is ``capture_at_edge``'s ``start < edge <= end`` rule on a grid:
    interval (s <= e) covers the edge at t iff ``t + s < edge <= t + e``.
    Both float sums, the ones ``_capture_all`` forms, are monotone in t, so
    the covering times are one index range [first(e), first(s)), where
    first(x) is the first index whose ``t + x`` reaches the edge.  A guess
    from the grid's spacing is moved to that index by comparing the very
    sums, so any ascending ``times`` give the exact range.  ``index`` may
    keep first(x) per offset x for every row judged on the same ``times``.
    """
    edge, n = ctx.period, len(times)
    t0 = times[0]
    step = (times[-1] - t0) / (n - 1) if n > 1 else 0.0
    index = {} if index is None else index

    def first(x):
        i = index.get(x)
        if i is None:
            i = (edge - x - t0) / step if step else 0.0
            i = 0 if not i > 0 else n if i >= n else math.ceil(i)
            while i and times[i - 1] + x >= edge:
                i -= 1
            while i < n and times[i] + x < edge:
                i += 1
            index[x] = i
        return i

    ranges = []
    for net, intervals in row.items():
        covered = [(a, b, m) for s, e, m in intervals
                   if (a := first(e)) < (b := first(s))]
        if covered:
            covered.sort()
            ranges.append((len(ctx.latches[net]), covered))
    return ranges


def judge_grid(ranges, n, group):
    """{n_e2: number of grid times} of the ``grid_ranges`` ``ranges`` on a
    grid of ``n`` times, from the intervals that occur in a cycle of
    ``group``.  Each net's merged ranges flip every flop latching it; one
    sweep over their end points counts the grid times of each total.
    """
    points = []
    for weight, intervals in ranges:
        lo = hi = 0
        for a, b, m in intervals:
            if m & group:
                if a > hi:
                    if lo < hi:
                        points += (lo, weight), (hi, -weight)
                    lo = a
                if b > hi:
                    hi = b
        if lo < hi:
            points += (lo, weight), (hi, -weight)
    points.sort()
    counts = {}
    flips = done = 0
    for x, change in points:
        if x > done:
            counts[flips] = counts.get(flips, 0) + x - done
            done = x
        flips += change
    if n > done:
        counts[0] = counts.get(0, 0) + n - done
    return counts


def grid_flip_counts(ctx, row, times):
    """{n_e2: number of grid times} of the strike whose ``strike_row`` is
    ``row``, started at each ascending ``t`` in ``times``, policy instant:
    ``judge_grid`` of its ``grid_ranges`` in every cycle."""
    return judge_grid(grid_ranges(ctx, row, times), len(times), -1)


# The result of a strike whose polarity does not match, and of a gate
# strike that flips nothing.
_EMPTY = SampleResult(frozenset(), frozenset())


def _disturbed(ctx, row, k):
    """Each disturbed flop's (flop id, golden next bit, intervals) for the
    ``strike_row`` ``row`` of a strike in cycle ``k``, in circuit flop
    order."""
    masks, latches = ctx.trace.net_masks, ctx.latches
    return tuple((flop_id, masks[net] >> k & 1,
                  tuple((s, e) for s, e, _ in row[net]))
                 for _, flop_id, net in sorted(
                     hit for net in row for hit in latches[net]))


def disturb_gate(ctx, drain, k, debug=None):
    """The reads of a glitch at a gate output drain in cycle ``k``.

    A gate strike can never alter the register file within the strike cycle,
    so flips_e1 is structurally empty here.
    """
    return _EMPTY, _disturbed(ctx, strike_row(ctx, drain, 1 << k, debug), k)


def disturb_register(ctx, drain, k, debug=None):
    """The reads of a strike at a flop drain (state-node or capture-node)."""
    if drain.ff_node_class == "capture-node":
        # A capture-node strike corrupts the value being latched: the flop
        # captures the complement of its golden next state, which always
        # differs.
        golden = ctx.trace.net_value(k, drain.net)
        if debug is not None:
            debug.append(f"capture flop={drain.cell} edge={ctx.period:.2f} "
                         f"captured={1 - golden} golden={golden}")
        return SampleResult(frozenset(), frozenset([drain.cell])), ()
    row = strike_row(ctx, drain, 1 << k, debug)
    return (SampleResult(frozenset([drain.cell]), frozenset()),
            _disturbed(ctx, row, k))


def run_sample(ctx, sample, policy=INSTANT, rng=None, debug=None, reads=None):
    """Run one strike end to end; returns the raw flip sets.

    Classification into outcome classes is the campaign's job.  ``ctx`` is
    a SimContext bound to the golden trace; ``debug`` may collect event
    lines.

    A strike is judged in two steps.  Its *reads* do not depend on the
    strike time: the polarity verdict, the result it has if no flop is
    disturbed (``flips_e1`` included) and each disturbed flop's (flop id,
    golden next bit, intervals), built by ``disturb_gate`` or
    ``disturb_register``.  ``_capture_all`` then judges them at ``t``.  A
    campaign may pass one dict as ``reads`` for all its strikes against one
    trace and drain table: the reads of each ``(drain id, k)`` are kept there
    and reused by later strikes at other times.  A debug replay passes no
    ``reads``, so it builds them afresh and logs every event.
    """
    drain, k, t = sample
    if not 0.0 <= t < ctx.period:
        raise InvariantError(
            f"strike time {t} outside the clock period [0, {ctx.period})")
    got = None if reads is None else reads.get((drain.id, k))
    if got is None and not 1 <= k <= ctx.trace.cycle_count - 2:
        raise InvariantError(
            f"strike cycle {k} out of range [1, {ctx.trace.cycle_count - 2}]")
    if policy.kind == "window-random" and rng is None:
        raise ConfigError("window-random policy needs an RNG stream")
    if got is None:
        if debug is not None:
            debug.append(f"sample drain={drain.id} class={drain.strike_class} "
                         f"k={k} t={t:.2f} polarity={drain.polarity}")
        value = ctx.trace.net_masks[drain.net] >> k & 1
        if not polarity_matches(drain.polarity, value):
            if debug is not None:
                debug.append(f"polarity mismatch at {drain.id} "
                             f"(net={drain.net} value={value})")
            got = _EMPTY, ()
        elif drain.ff_node_class == "none":
            got = disturb_gate(ctx, drain, k, debug)
        else:
            got = disturb_register(ctx, drain, k, debug)
        if reads is not None:
            reads[drain.id, k] = got
    if not got[1]:
        return got[0]
    return _capture_all(ctx, got, t, policy, rng, debug)
