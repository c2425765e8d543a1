"""Technology profiles: cell timing, drain sites, and clock-period math.

A profile is a JSON document bundling everything the injector needs to know
about a fabrication node: per-(kind, fan-in) gate delays, flop timing
(setup/hold/clk-to-q), the transient glitch width, the inertial filter
threshold, and the per-cell-kind drain site list used for strike targeting.

The bundled "180nm-like" and "65nm-like" profiles carry order-of-magnitude
placeholder numbers, not measured silicon data; their purpose is to keep the
relative behaviour of the two nodes sensible (the 65nm-like node is faster,
smaller, and sees a wider glitch relative to its clock period, so it flips
more).  Treat every number as configuration to be replaced with real
characterization data when available.
"""

import bisect
import json
import os
import re
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, truediv
from typing import NamedTuple

from .errors import ProfileError
from .netlist import GATE_KINDS

POLARITIES = ("pulls-low", "pulls-high")
FF_NODE_CLASSES = ("none", "state-node", "capture-node")
_FLOP_NODE_CLASSES, _GATE_NODE_CLASSES = FF_NODE_CLASSES[1:], ("none",)
_GATE_KINDS = frozenset(GATE_KINDS)
_CELL_KINDS = _GATE_KINDS | {"DFF"}
_NUMBER_TYPES = (int, float)
_FLOAT_MAX = sys.float_info.max
_PROFILE_DIR = os.path.join(os.path.dirname(__file__), "data", "profiles")

_SCALAR_FIELDS = ("ff_setup", "ff_hold", "ff_clk_to_q", "clock_margin",
                  "glitch_width")
_DELAY_KEY_RE = re.compile(r"([A-Z]+)(\d+)$")


class DrainTemplate(NamedTuple):
    """One drain site of a library cell: sensitive area and strike behaviour."""

    area: float                 # um^2
    polarity: str               # pulls-low | pulls-high
    ff_node_class: str = "none"  # none | state-node | capture-node


class DrainSite(NamedTuple):
    """A drain template instantiated on a concrete cell of a circuit.

    ``net`` is the net whose settled value a strike at the site inverts:
    a gate's output, a state node's stored bit (its flop's output) or a
    capture node's latched value (its flop's data net).
    """

    id: str              # "<cell>[<template index>]"
    cell: str            # gate or flop id
    net: str
    area: float
    polarity: str
    ff_node_class: str

    @property
    def strike_class(self):
        return "gate" if self.ff_node_class == "none" else "register"


_AREA = itemgetter(3)        # DrainSite.area


@dataclass(frozen=True)
class TechProfile:
    node_label: str
    gate_delay: dict          # (kind, fanin) -> ps
    ff_setup: float
    ff_hold: float
    ff_clk_to_q: float
    clock_margin: float
    glitch_width: float
    filter_threshold: float
    drain_spec: dict          # kind -> tuple of DrainTemplate

    def delay(self, kind, fanin):
        try:
            return self.gate_delay[(kind, fanin)]
        except KeyError:
            raise ProfileError(
                f"profile '{self.node_label}' has no delay for "
                f"{kind} with fan-in {fanin}") from None


@dataclass(frozen=True)
class DrainTable:
    """All drain sites of a circuit with cumulative area weights.

    ``cumulative[i]`` is the probability that an area-weighted draw falls on
    ``sites[0..i]``; the last entry is exactly 1.0, so ``pick`` maps a
    uniform u in [0, 1) to a site by binary search.
    """

    sites: tuple
    cumulative: tuple
    gate_area: float
    flop_area: float

    def pick(self, u):
        return self.sites[bisect.bisect_right(self.cumulative, u)]


def is_finite_number(value):
    """A JSON number that converts to a finite float.

    ``bool`` is an ``int`` subclass but not a number here, and the range
    test is false for NaN, for infinities and for ints beyond float range.
    """
    return (type(value) in (int, float)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _require(doc, key):
    if key not in doc:
        raise ProfileError(f"missing field '{key}'")
    return doc[key]


def load_profile(text, source="<profile>"):
    """Parse and validate a JSON profile document."""
    def reject_constant(name):
        raise ProfileError(f"{source}: non-finite number {name}")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ProfileError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProfileError(f"{source}: top level must be an object")

    # ``0 < v <= _FLOAT_MAX`` after the type test is ``is_finite_number(v)
    # and v > 0``: it is false for NaN, infinities and out-of-range ints.
    numbers, fmax, new_template = _NUMBER_TYPES, _FLOAT_MAX, tuple.__new__
    label = _require(doc, "node_label")
    raw_delay = _require(doc, "gate_delay")
    if not isinstance(raw_delay, dict):
        raise ProfileError("gate_delay must be an object")
    delays = {}
    match_key = _DELAY_KEY_RE.match
    for key, val in raw_delay.items():
        m = match_key(key)
        if not m:
            raise ProfileError(f"malformed gate_delay key '{key}' "
                               "(expected e.g. 'NAND2')")
        kind, fanin = m.groups()
        fanin = int(fanin)
        if kind not in _GATE_KINDS:
            raise ProfileError(f"unknown gate kind key '{key}'")
        if not (type(val) in numbers and 0 < val <= fmax):
            raise ProfileError(f"non-positive delay for '{key}'")
        if fanin < 1:
            raise ProfileError(f"bad fan-in in gate_delay key '{key}'")
        delays[kind, fanin] = float(val)
    if not delays:
        raise ProfileError("gate_delay table is empty")

    scalars = {}
    for name in _SCALAR_FIELDS:
        val = _require(doc, name)
        if not (type(val) in numbers and 0 < val <= fmax):
            raise ProfileError(f"non-positive value for '{name}'")
        scalars[name] = float(val)

    theta = doc.get("filter_threshold", 1.0)
    if not (type(theta) in numbers and 0 <= theta <= fmax):
        raise ProfileError("filter_threshold must be >= 0")

    raw_spec = _require(doc, "drain_spec")
    if not isinstance(raw_spec, dict):
        raise ProfileError("drain_spec must be an object")
    spec = {}
    for kind, entries in raw_spec.items():
        if kind not in _CELL_KINDS:
            raise ProfileError(f"unknown cell kind '{kind}' in drain_spec")
        if not isinstance(entries, list):
            raise ProfileError(f"drain_spec['{kind}'] must be a list")
        if not entries:
            raise ProfileError(f"empty drain site list for '{kind}'")
        is_flop = kind == "DFF"
        allowed = _FLOP_NODE_CLASSES if is_flop else _GATE_NODE_CLASSES
        templates = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ProfileError(
                    f"drain_spec['{kind}'][{i}] must be an object")
            area = entry.get("area")
            if not (type(area) in numbers and 0 < area <= fmax):
                raise ProfileError(
                    f"non-positive area in drain_spec['{kind}'][{i}]")
            pol = entry.get("polarity")
            if pol not in POLARITIES:
                raise ProfileError(
                    f"bad polarity {pol!r} in drain_spec['{kind}'][{i}]")
            node_class = entry.get("ff_node_class", "none")
            if node_class not in allowed:
                if node_class not in FF_NODE_CLASSES:
                    raise ProfileError(
                        f"bad ff_node_class {node_class!r} in "
                        f"drain_spec['{kind}'][{i}]")
                if is_flop:
                    raise ProfileError("DFF drain sites must name a "
                                       "state-node or capture-node")
                raise ProfileError(
                    f"gate kind '{kind}' cannot carry ff_node_class "
                    f"'{node_class}'")
            templates.append(new_template(DrainTemplate, (
                float(area), pol, node_class)))
        spec[kind] = tuple(templates)

    return TechProfile(
        node_label=label,
        gate_delay=delays,
        filter_threshold=float(theta),
        drain_spec=spec,
        **scalars,
    )


def bundled_profile_names():
    return sorted(n[:-5] for n in os.listdir(_PROFILE_DIR)
                  if n.endswith(".json"))


def load_bundled_profile(name):
    """Load a profile shipped with the package (e.g. "65nm-like")."""
    try:
        with open(f"{_PROFILE_DIR}/{name}.json", "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        raise ProfileError(
            f"no bundled profile '{name}' "
            f"(available: {', '.join(bundled_profile_names())})") from None
    return load_profile(text, source=f"bundled:{name}")


def enumerate_drains(circuit, profile):
    """Instantiate every drain site of ``circuit`` under ``profile``.

    Sites are emitted in cell declaration order (gates first, then flops),
    each carrying its template's area and the net its strike inverts (see
    ``DrainSite``); cumulative weights are normalized so the table can be
    sampled area-proportionally.
    """
    spec, new_site = profile.drain_spec, tuple.__new__
    # cell kind -> (id suffix, area, polarity, node class) per template
    rows_of = {}
    sites = []
    gate_area = flop_area = 0.0
    for g in circuit.gates:
        rows = rows_of.get(g.kind)
        if rows is None:
            templates = spec.get(g.kind)
            if not templates:
                raise ProfileError(
                    f"profile '{profile.node_label}' has no drain sites for "
                    f"gate kind '{g.kind}'")
            rows = rows_of[g.kind] = [
                (f"[{i}]", tpl.area, tpl.polarity, tpl.ff_node_class)
                for i, tpl in enumerate(templates)]
        gid = g.id
        for suffix, area, polarity, node_class in rows:
            sites.append(new_site(DrainSite, (
                gid + suffix, gid, gid, area, polarity, node_class)))
            gate_area += area
    templates = spec.get("DFF")
    if circuit.flops and not templates:
        raise ProfileError(
            f"profile '{profile.node_label}' has no drain sites for DFF")
    if circuit.flops:
        rows = [(f"[{i}]", tpl.ff_node_class == "capture-node", tpl.area,
                 tpl.polarity, tpl.ff_node_class)
                for i, tpl in enumerate(templates)]
    for f in circuit.flops:
        fid = f.id
        for suffix, capture, area, polarity, node_class in rows:
            sites.append(new_site(DrainSite, (
                fid + suffix, fid, f.data if capture else fid, area,
                polarity, node_class)))
            flop_area += area

    if not sites:
        raise ProfileError(
            f"circuit '{circuit.name}' exposes no drain sites")
    total = gate_area + flop_area
    # each area is finite, but their sums can overflow; then every share
    # but the last is 0.0 and the oracle's class shares are NaN
    if not total <= _FLOAT_MAX:
        raise ProfileError(
            f"profile '{profile.node_label}': the drain areas of circuit "
            f"'{circuit.name}' sum past the float range")
    # the running sum adds each site's share in site order, as a loop would
    cum = list(accumulate(map(truediv, map(_AREA, sites), repeat(total))))
    cum[-1] = 1.0
    return DrainTable(sites=tuple(sites), cumulative=tuple(cum),
                      gate_area=gate_area, flop_area=flop_area)


def _timing(circuit, profile):
    """``(critical path, settle bound)`` from one pass over the gates.

    The critical path is the longest register-to-register or
    input-to-register combinational delay.  Arrival times are kept twice:
    once with every source at 0 (for the critical path) and once with flop
    outputs moving clk-to-q after the edge (for the settle bound).  Each is
    summed as its own pass would sum it, so both are exact.
    """
    crit = dict.fromkeys(circuit.primary_inputs, 0.0)
    settle = dict(crit)
    cq = profile.ff_clk_to_q
    for f in circuit.flops:
        crit[f.id] = 0.0
        settle[f.id] = cq
    crit_at, settle_at = crit.__getitem__, settle.__getitem__
    gate_by_id, delays = circuit.gate_by_id, profile.gate_delay
    for gid in circuit.gate_order:
        g = gate_by_id[gid]
        ins = g.inputs
        try:
            d = delays[g.kind, len(ins)]
        except KeyError:
            d = profile.delay(g.kind, len(ins))  # raises ProfileError
        crit[gid] = max(map(crit_at, ins)) + d
        settle[gid] = max(map(settle_at, ins)) + d
    return (max((crit[f.data] for f in circuit.flops), default=0.0),
            max(settle.values(), default=0.0))


def period_and_settle(circuit, profile):
    """``(clock period, settle bound)`` in picoseconds, from one timing pass.

    The clock period is clk-to-q + critical path + setup + margin.  The
    settle bound is the latest time within a cycle at which any net can
    still change: primary inputs are valid from the cycle start and flop
    outputs move clk-to-q after the edge.  Strikes are only meaningful
    after this bound, once the golden values are stable everywhere.
    """
    critical, settle = _timing(circuit, profile)
    period = (profile.ff_clk_to_q + critical + profile.ff_setup
              + profile.clock_margin)
    if profile.ff_setup + profile.ff_hold >= period:
        raise ProfileError(
            f"profile '{profile.node_label}': setup + hold "
            f"({profile.ff_setup + profile.ff_hold}) does not fit inside the "
            f"clock period ({period})")
    return period, settle
