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
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .errors import InputError, ProfileError
from .netlist import GATE_KINDS

POLARITIES = ("pulls-low", "pulls-high")
FF_NODE_CLASSES = ("none", "state-node", "capture-node")

_SCALAR_FIELDS = ("ff_setup", "ff_hold", "ff_clk_to_q", "clock_margin",
                  "glitch_width")
_DELAY_KEY_RE = re.compile(r"([A-Z]+)(\d+)$")


@dataclass(frozen=True)
class DrainTemplate:
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

    @property
    def total_area(self):
        return self.gate_area + self.flop_area

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

    label = _require(doc, "node_label")
    raw_delay = _require(doc, "gate_delay")
    if not isinstance(raw_delay, dict):
        raise ProfileError("gate_delay must be an object")
    delays = {}
    for key, val in raw_delay.items():
        m = _DELAY_KEY_RE.match(key)
        if not m:
            raise ProfileError(f"malformed gate_delay key '{key}' "
                               "(expected e.g. 'NAND2')")
        kind, fanin = m.group(1), int(m.group(2))
        if kind not in GATE_KINDS:
            raise ProfileError(f"unknown gate kind key '{key}'")
        if not is_finite_number(val) or val <= 0:
            raise ProfileError(f"non-positive delay for '{key}'")
        if fanin < 1:
            raise ProfileError(f"bad fan-in in gate_delay key '{key}'")
        delays[(kind, fanin)] = float(val)
    if not delays:
        raise ProfileError("gate_delay table is empty")

    scalars = {}
    for name in _SCALAR_FIELDS:
        val = _require(doc, name)
        if not is_finite_number(val) or val <= 0:
            raise ProfileError(f"non-positive value for '{name}'")
        scalars[name] = float(val)

    theta = doc.get("filter_threshold", 1.0)
    if not is_finite_number(theta) or theta < 0:
        raise ProfileError("filter_threshold must be >= 0")

    raw_spec = _require(doc, "drain_spec")
    if not isinstance(raw_spec, dict):
        raise ProfileError("drain_spec must be an object")
    spec = {}
    for kind, entries in raw_spec.items():
        if kind != "DFF" and kind not in GATE_KINDS:
            raise ProfileError(f"unknown cell kind '{kind}' in drain_spec")
        if not isinstance(entries, list):
            raise ProfileError(f"drain_spec['{kind}'] must be a list")
        if not entries:
            raise ProfileError(f"empty drain site list for '{kind}'")
        templates = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ProfileError(
                    f"drain_spec['{kind}'][{i}] must be an object")
            area = entry.get("area")
            if not is_finite_number(area) or area <= 0:
                raise ProfileError(
                    f"non-positive area in drain_spec['{kind}'][{i}]")
            pol = entry.get("polarity")
            if pol not in POLARITIES:
                raise ProfileError(
                    f"bad polarity {pol!r} in drain_spec['{kind}'][{i}]")
            node_class = entry.get("ff_node_class", "none")
            if node_class not in FF_NODE_CLASSES:
                raise ProfileError(
                    f"bad ff_node_class {node_class!r} in "
                    f"drain_spec['{kind}'][{i}]")
            if kind == "DFF" and node_class == "none":
                raise ProfileError(
                    "DFF drain sites must name a state-node or capture-node")
            if kind != "DFF" and node_class != "none":
                raise ProfileError(
                    f"gate kind '{kind}' cannot carry ff_node_class "
                    f"'{node_class}'")
            templates.append(DrainTemplate(float(area), pol, node_class))
        spec[kind] = tuple(templates)

    return TechProfile(
        node_label=label,
        gate_delay=delays,
        filter_threshold=float(theta),
        drain_spec=spec,
        **scalars,
    )


def load_profile_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read profile '{path}': {exc}") from None
    return load_profile(text, source=str(path))


def bundled_profile_names():
    root = resources.files("seusim").joinpath("data/profiles")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_profile(name):
    """Load a profile shipped with the package (e.g. "65nm-like")."""
    ref = resources.files("seusim").joinpath(f"data/profiles/{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
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
    sites = []
    gate_area = flop_area = 0.0
    for g in circuit.gates:
        templates = spec.get(g.kind)
        if not templates:
            raise ProfileError(
                f"profile '{profile.node_label}' has no drain sites for "
                f"gate kind '{g.kind}'")
        gid, net = g.id, g.output
        for i, tpl in enumerate(templates):
            sites.append(new_site(DrainSite, (
                f"{gid}[{i}]", gid, net, tpl.area, tpl.polarity,
                tpl.ff_node_class)))
            gate_area += tpl.area
    templates = spec.get("DFF")
    if circuit.flops and not templates:
        raise ProfileError(
            f"profile '{profile.node_label}' has no drain sites for DFF")
    for f in circuit.flops:
        for i, tpl in enumerate(templates):
            net = f.data if tpl.ff_node_class == "capture-node" else f.output
            sites.append(new_site(DrainSite, (
                f"{f.id}[{i}]", f.id, net, tpl.area, tpl.polarity,
                tpl.ff_node_class)))
            flop_area += tpl.area

    if not sites:
        raise ProfileError(
            f"circuit '{circuit.name}' exposes no drain sites")
    total = gate_area + flop_area
    cum, acc = [], 0.0
    for s in sites:
        acc += s.area / total
        cum.append(acc)
    cum[-1] = 1.0
    return DrainTable(sites=tuple(sites), cumulative=tuple(cum),
                      gate_area=gate_area, flop_area=flop_area)


def _arrivals(circuit, profile, pi_offset, flop_offset):
    """Arrival time per net with the given source offsets."""
    arrival = {n: pi_offset for n in circuit.primary_inputs}
    for f in circuit.flops:
        arrival[f.output] = flop_offset
    gate_by_id, delays = circuit.gate_by_id, profile.gate_delay
    for gid in circuit.gate_order:
        g = gate_by_id[gid]
        try:
            d = delays[g.kind, len(g.inputs)]
        except KeyError:
            d = profile.delay(g.kind, len(g.inputs))  # raises ProfileError
        arrival[g.output] = max(map(arrival.__getitem__, g.inputs)) + d
    return arrival


def critical_path(circuit, profile):
    """Longest register-to-register / PI-to-register combinational delay."""
    arrival = _arrivals(circuit, profile, 0.0, 0.0)
    return max((arrival[f.data] for f in circuit.flops), default=0.0)


def clock_period(circuit, profile):
    """clk-to-q + critical path + setup + margin, in picoseconds."""
    period = (profile.ff_clk_to_q + critical_path(circuit, profile)
              + profile.ff_setup + profile.clock_margin)
    if profile.ff_setup + profile.ff_hold >= period:
        raise ProfileError(
            f"profile '{profile.node_label}': setup + hold "
            f"({profile.ff_setup + profile.ff_hold}) does not fit inside the "
            f"clock period ({period})")
    return period


def settle_bound(circuit, profile):
    """Latest time within a cycle at which any net can still change.

    Primary inputs are treated as valid from the cycle start; flop outputs
    move clk-to-q after the edge.  Strikes are only meaningful after this
    bound, once the golden values are stable everywhere.
    """
    arrival = _arrivals(circuit, profile, 0.0, profile.ff_clk_to_q)
    return max(arrival.values(), default=0.0)
