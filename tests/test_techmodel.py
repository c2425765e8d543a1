"""Tests for technology profiles, drain-site tables, and clock sizing."""

import json
import re
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.errors import InputError, ProfileError
from seusim.injector import SimContext
from seusim.netlist import GATE_KINDS, parse_bench, wrap_combinational
from seusim.techmodel import (
    DrainSite,
    DrainTable,
    DrainTemplate,
    TechProfile,
    _timing,
    bundled_profile_names,
    enumerate_drains,
    load_bundled_profile,
    load_profile,
    period_and_settle,
)

from conftest import (BUNDLED_CIRCUITS, bundled_circuit, chain_profile_doc,
                      dff_sites, flop_by_id, gate_sites, multiplier_bench,
                      profile_from, site_by_id)


def _doc(**overrides):
    base = {
        "node_label": "test-node",
        "gate_delay": {"NOT1": 100.0, "NAND2": 55.0, "AND2": 50.0},
        "ff_setup": 30.0,
        "ff_hold": 20.0,
        "ff_clk_to_q": 50.0,
        "clock_margin": 20.0,
        "glitch_width": 120.0,
        "filter_threshold": 1.0,
        "drain_spec": {
            "NOT": gate_sites(),
            "NAND": gate_sites(),
            "AND": gate_sites(),
            "DFF": dff_sites(),
        },
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# profile loading


def test_bundled_profile_names():
    assert bundled_profile_names() == ["180nm-like", "65nm-like", "toy-equal"]


def test_bundled_profiles_load():
    p65 = load_bundled_profile("65nm-like")
    assert p65.node_label == "65nm-like"
    assert p65.glitch_width == 130.0
    assert p65.ff_setup == 35.0
    p180 = load_bundled_profile("180nm-like")
    assert p180.glitch_width == 190.0
    toy = load_bundled_profile("toy-equal")
    assert toy.glitch_width == 120.0


def test_bundled_profile_missing():
    with pytest.raises(ProfileError, match="no bundled profile '7nm'"):
        load_bundled_profile("7nm")


def test_delay_lookup():
    p = load_bundled_profile("65nm-like")
    assert p.delay("NAND", 2) == 55.0
    assert p.delay("NAND", 3) == 75.0
    assert p.delay("XOR", 2) == 90.0
    assert p.delay("NOT", 1) == 40.0


def test_delay_unknown_fanin_or_kind():
    p = load_bundled_profile("65nm-like")
    with pytest.raises(ProfileError, match="no delay for NAND with fan-in 5"):
        p.delay("NAND", 5)
    with pytest.raises(ProfileError, match="MUX"):
        p.delay("MUX", 2)


_BAD_DOCUMENTS = [
    (lambda d: d.pop("ff_setup"), "missing field 'ff_setup'"),
    (
        lambda d: d["gate_delay"].__setitem__("NOT1", 0.0),
        "non-positive delay for 'NOT1'",
    ),
    (
        lambda d: d["gate_delay"].__setitem__("FOO2", 10.0),
        "unknown gate kind key 'FOO2'",
    ),
    (
        lambda d: d["gate_delay"].__setitem__("NOTx", 10.0),
        "malformed gate_delay key 'NOTx'",
    ),
    (
        lambda d: d.__setitem__("glitch_width", -1.0),
        "non-positive value for 'glitch_width'",
    ),
    (
        lambda d: d.__setitem__("filter_threshold", -0.5),
        "filter_threshold must be >= 0",
    ),
    (
        lambda d: d["drain_spec"].__setitem__(
            "DFF", [{"area": 1.0, "polarity": "pulls-low"}]
        ),
        "DFF drain sites must name a state-node or capture-node",
    ),
    (
        lambda d: d["drain_spec"].__setitem__(
            "NOT",
            [{"area": 1.0, "polarity": "pulls-low", "ff_node_class": "state-node"}],
        ),
        "cannot carry ff_node_class",
    ),
    (
        lambda d: d["drain_spec"].__setitem__(
            "NOT", [{"area": 1.0, "polarity": "sideways"}]
        ),
        "bad polarity 'sideways'",
    ),
    (
        lambda d: d["drain_spec"].__setitem__("NOT", []),
        "empty drain site list for 'NOT'",
    ),
    (
        lambda d: d["drain_spec"].__setitem__(
            "NOT", [{"area": -2.0, "polarity": "pulls-low"}]
        ),
        "non-positive area",
    ),
    (
        lambda d: d["drain_spec"].__setitem__(
            "FOO", [{"area": 1.0, "polarity": "pulls-low"}]
        ),
        "unknown cell kind 'FOO'",
    ),
]


@pytest.mark.parametrize("mutate, message", _BAD_DOCUMENTS)
def test_load_profile_rejects_bad_documents(mutate, message):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ProfileError, match=message):
        load_profile(json.dumps(doc), source="<t>")


def test_load_profile_rejects_bad_json():
    with pytest.raises(ProfileError, match="not valid JSON"):
        load_profile("{not json", source="<t>")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutated_profiles(draw):
    """A valid profile document with one value, at any depth, replaced or
    dropped."""
    doc = _doc()
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    if parent is None:
        return json.dumps(draw(_JSON_VALUES))
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), mutated_profiles()))
def test_load_profile_parses_or_raises_input_error(text):
    try:
        load_profile(text, source="<fuzz>")
    except InputError:
        pass


# The loader as it was before its checks were inlined, kept as the reference:
# ``load_profile`` must return an equal profile or raise the same error.
def _ref_is_finite_number(value):
    return (type(value) in (int, float)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _ref_require(doc, key):
    if key not in doc:
        raise ProfileError(f"missing field '{key}'")
    return doc[key]


def reference_load_profile(text, source="<profile>"):
    def reject_constant(name):
        raise ProfileError(f"{source}: non-finite number {name}")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ProfileError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProfileError(f"{source}: top level must be an object")

    label = _ref_require(doc, "node_label")
    raw_delay = _ref_require(doc, "gate_delay")
    if not isinstance(raw_delay, dict):
        raise ProfileError("gate_delay must be an object")
    delays = {}
    for key, val in raw_delay.items():
        m = re.match(r"([A-Z]+)(\d+)$", key)
        if not m:
            raise ProfileError(f"malformed gate_delay key '{key}' "
                               "(expected e.g. 'NAND2')")
        kind, fanin = m.group(1), int(m.group(2))
        if kind not in GATE_KINDS:
            raise ProfileError(f"unknown gate kind key '{key}'")
        if not _ref_is_finite_number(val) or val <= 0:
            raise ProfileError(f"non-positive delay for '{key}'")
        if fanin < 1:
            raise ProfileError(f"bad fan-in in gate_delay key '{key}'")
        delays[(kind, fanin)] = float(val)
    if not delays:
        raise ProfileError("gate_delay table is empty")

    scalars = {}
    for name in ("ff_setup", "ff_hold", "ff_clk_to_q", "clock_margin",
                 "glitch_width"):
        val = _ref_require(doc, name)
        if not _ref_is_finite_number(val) or val <= 0:
            raise ProfileError(f"non-positive value for '{name}'")
        scalars[name] = float(val)

    theta = doc.get("filter_threshold", 1.0)
    if not _ref_is_finite_number(theta) or theta < 0:
        raise ProfileError("filter_threshold must be >= 0")

    raw_spec = _ref_require(doc, "drain_spec")
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
            if not _ref_is_finite_number(area) or area <= 0:
                raise ProfileError(
                    f"non-positive area in drain_spec['{kind}'][{i}]")
            pol = entry.get("polarity")
            if pol not in ("pulls-low", "pulls-high"):
                raise ProfileError(
                    f"bad polarity {pol!r} in drain_spec['{kind}'][{i}]")
            node_class = entry.get("ff_node_class", "none")
            if node_class not in ("none", "state-node", "capture-node"):
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


def profile_outcome(load, text):
    """The profile ``load`` returns, or the type and text of its error."""
    try:
        return load(text, source="<t>")
    except InputError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", bundled_profile_names())
def test_bundled_profiles_match_reference_loader(name):
    text = (resources.files("seusim") / "data" / "profiles" / f"{name}.json"
            ).read_text(encoding="utf-8")
    loaded = load_bundled_profile(name)
    assert loaded == reference_load_profile(text, source=f"bundled:{name}")
    assert loaded == load_profile(text)


@pytest.mark.parametrize("mutate", [m for m, _ in _BAD_DOCUMENTS])
def test_bad_documents_keep_reference_messages(mutate):
    doc = _doc()
    mutate(doc)
    text = json.dumps(doc)
    want = profile_outcome(reference_load_profile, text)
    assert want[0] == "ProfileError"
    assert profile_outcome(load_profile, text) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), mutated_profiles(), st.sampled_from(
    ["[]", '{"node_label": NaN}', "{\"gate_delay\": -Infinity}", "\ufeff{}",
     json.dumps(_doc(gate_delay={"AND2": 10 ** 400})),
     json.dumps(_doc(ff_hold=1e400)), json.dumps(_doc(ff_hold=True))])))
def test_load_profile_matches_reference_loader(text):
    assert (profile_outcome(load_profile, text)
            == profile_outcome(reference_load_profile, text))


def test_filter_threshold_zero_is_allowed():
    prof = profile_from(_doc(filter_threshold=0.0))
    assert prof.filter_threshold == 0.0


# ---------------------------------------------------------------------------
# drain tables


@pytest.fixture
def nand_dff_circuit():
    return parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nn = NAND(a, b)\nq = DFF(n)\n", name="nq"
    )


@pytest.fixture
def nand_dff_table(nand_dff_circuit):
    doc = _doc(drain_spec={"NAND": gate_sites(0.5), "DFF": dff_sites(1.0, 0.5)})
    return enumerate_drains(nand_dff_circuit, profile_from(doc))


def test_enumerate_drains_layout(nand_dff_table):
    tab = nand_dff_table
    assert [s.id for s in tab.sites] == ["n[0]", "n[1]", "q[0]", "q[1]", "q[2]", "q[3]"]
    assert [s.strike_class for s in tab.sites] == ["gate"] * 2 + ["register"] * 4
    assert [s.polarity for s in tab.sites[:2]] == ["pulls-low", "pulls-high"]
    assert [s.ff_node_class for s in tab.sites[2:]] == [
        "state-node",
        "state-node",
        "capture-node",
        "capture-node",
    ]
    # the net a strike inverts: the gate's output, a state node's stored bit
    # (the flop's output) or a capture node's latched value (its data net)
    assert tab.sites[0].net == "n"
    assert tab.sites[2].net == "q"
    assert [s.net for s in tab.sites[4:]] == ["n", "n"]


@pytest.mark.parametrize("profile_name", bundled_profile_names())
@pytest.mark.parametrize("name", BUNDLED_CIRCUITS)
def test_drain_site_net_is_the_net_its_strike_inverts(name, profile_name):
    c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    sites = enumerate_drains(c, load_bundled_profile(profile_name)).sites
    assert {s.ff_node_class for s in sites} == {"none", "state-node", "capture-node"}
    for s in sites:
        if s.ff_node_class == "none":
            want = c.gate_by_id[s.cell].id
        elif s.ff_node_class == "state-node":
            want = flop_by_id(c)[s.cell].id
        else:
            want = flop_by_id(c)[s.cell].data
        assert s.net == want, s.id


def test_drain_table_register_fraction(nand_dff_table):
    tab = nand_dff_table
    assert tab.gate_area == pytest.approx(1.0)
    assert tab.flop_area == pytest.approx(3.0)
    assert tab.cumulative == pytest.approx((0.125, 0.25, 0.5, 0.75, 0.875, 1.0))


def test_drain_table_pick_boundaries(nand_dff_table):
    tab = nand_dff_table
    assert tab.pick(0.0).id == "n[0]"
    assert tab.pick(0.124).id == "n[0]"
    # a draw landing exactly on a boundary belongs to the next site
    assert tab.pick(0.125).id == "n[1]"
    assert tab.pick(0.5).id == "q[1]"
    assert tab.pick(0.9999).id == "q[3]"


def test_drain_table_by_id(nand_dff_table):
    site = site_by_id(nand_dff_table, "q[2]")
    assert site.ff_node_class == "capture-node"
    assert site.polarity == "pulls-low"
    with pytest.raises(KeyError):
        site_by_id(nand_dff_table, "zz[9]")


def test_enumerate_drains_missing_kind():
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    doc = _doc(drain_spec={"NAND": gate_sites(), "DFF": dff_sites()})
    with pytest.raises(ProfileError, match="no drain sites for gate kind 'NOT'"):
        enumerate_drains(c, profile_from(doc))


@pytest.mark.parametrize("gate_area, state_area", [
    (1e308, 1.0),           # the gate areas overflow on their own
    (1.0, 1e308),           # the flop areas do
    (5e307, 5e307),         # each class sums to 1e308, both together do not
], ids=["gate", "flop", "sum"])
def test_enumerate_drains_rejects_area_sums_past_float_range(
        nand_dff_circuit, gate_area, state_area):
    # every area is finite on its own, but a sum of inf would leave every
    # cumulative weight but the last 0.0 and the oracle's shares NaN
    doc = _doc(drain_spec={"NAND": gate_sites(gate_area),
                           "DFF": dff_sites(state_area, 1.0)})
    with pytest.raises(ProfileError, match="sum past the float range"):
        enumerate_drains(nand_dff_circuit, profile_from(doc))


def test_enumerate_drains_keeps_large_finite_area_sums(nand_dff_circuit):
    # 2 gate sites and 4 flop sites of max/8 each sum to 3/4 of max
    eighth = sys.float_info.max / 8
    doc = _doc(drain_spec={"NAND": gate_sites(eighth),
                           "DFF": dff_sites(eighth, eighth)})
    tab = enumerate_drains(nand_dff_circuit, profile_from(doc))
    assert (tab.gate_area, tab.flop_area) == (2 * eighth, 4 * eighth)
    assert tab.cumulative[0] == pytest.approx(1 / 6)
    assert tab.cumulative[-1] == 1.0


def test_scaling_all_areas_preserves_cumulative(nand_dff_circuit, nand_dff_table):
    doubled = _doc(drain_spec={"NAND": gate_sites(1.0), "DFF": dff_sites(2.0, 1.0)})
    tab2 = enumerate_drains(nand_dff_circuit, profile_from(doubled))
    assert tab2.cumulative == nand_dff_table.cumulative


def test_pick_matches_area_fractions(nand_dff_table):
    import random

    rng = random.Random(42)
    n = 100_000
    hits = sum(1 for _ in range(n) if nand_dff_table.pick(rng.random()).strike_class == "register")
    p = 0.75
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(hits / n - p) < 3 * sigma


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_pick_is_total_on_unit_interval(u):
    c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nn = NAND(a, b)\nq = DFF(n)\n")
    doc = _doc(drain_spec={"NAND": gate_sites(0.3), "DFF": dff_sites(0.7, 0.2)})
    tab = enumerate_drains(c, profile_from(doc))
    site = tab.pick(u)
    assert site in tab.sites


def test_enumerate_drains_declaration_order():
    c = parse_bench(
        "INPUT(x)\nOUTPUT(q2)\nq1 = DFF(g1)\ng1 = NOT(x)\ng2 = NOT(q1)\nq2 = DFF(g2)\n",
        name="mixed",
    )
    tab = enumerate_drains(c, profile_from(_doc()))
    cells = [s.cell for s in tab.sites]
    # all gates in declaration order first, then all flops in declaration order
    assert cells == ["g1"] * 2 + ["g2"] * 2 + ["q1"] * 4 + ["q2"] * 4


# ---------------------------------------------------------------------------
# clock sizing


def test_clock_period_three_gate_chain():
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(g3)\n"
        "g1 = NOT(A)\ng2 = NOT(g1)\ng3 = NOT(g2)\n",
        name="p400",
    )
    prof = profile_from(_doc())
    assert _timing(c, prof)[0] == 300.0
    # clk-to-q + longest path + setup + margin
    assert period_and_settle(c, prof)[0] == 50.0 + 300.0 + 30.0 + 20.0


def test_clock_period_flop_to_flop():
    c = parse_bench("INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(A)\n", name="ff")
    prof = profile_from(_doc())
    assert _timing(c, prof)[0] == 0.0
    assert period_and_settle(c, prof)[0] == 100.0


def test_clock_period_takes_longest_reconvergent_arm():
    c = parse_bench(
        "INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(m)\n"
        "s = NOT(A)\nl1 = NOT(A)\nl2 = NOT(l1)\nm = AND(s, l2)\n",
        name="diamond",
    )
    prof = profile_from(_doc())
    assert _timing(c, prof)[0] == 250.0  # two NOTs plus the AND
    assert period_and_settle(c, prof)[0] == 350.0


def test_clock_period_monotone_in_depth():
    prof = profile_from(_doc())
    last = 0.0
    for depth in range(1, 5):
        gates = "".join(
            f"g{i} = NOT({'A' if i == 1 else f'g{i - 1}'})\n" for i in range(1, depth + 1)
        )
        c = parse_bench(
            f"INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(g{depth})\n{gates}",
            name=f"d{depth}",
        )
        period, _ = period_and_settle(c, prof)
        assert period > last
        last = period


def test_clock_period_rejects_hold_heavy_profile():
    c = parse_bench("INPUT(x)\nOUTPUT(B)\nA = DFF(x)\nB = DFF(A)\n", name="ff")
    prof = profile_from(_doc(ff_hold=80.0))
    with pytest.raises(ProfileError, match=r"setup \+ hold \(110.0\)"):
        period_and_settle(c, prof)


def test_settle_bound_single_gate_chain(chain1, chain_profile):
    # clk-to-q 60 plus one 100 ns inverter
    assert period_and_settle(chain1, chain_profile) == (300.0, 160.0)


def test_settle_bound_counts_output_only_logic():
    # three inverters hang off the flop toward the primary output; they do not
    # set the critical path (no flop consumes them) but they do settle late.
    c = parse_bench(
        "INPUT(x)\nOUTPUT(g3)\nA = DFF(x)\ng1 = NOT(A)\ng2 = NOT(g1)\ng3 = NOT(g2)\n",
        name="hang",
    )
    prof = profile_from(_doc())
    assert _timing(c, prof) == (0.0, 350.0)
    assert period_and_settle(c, prof) == (100.0, 350.0)


def reference_arrivals(circuit, profile, pi_offset, flop_offset):
    """One arrival pass per source offset, as timing was computed before
    ``SimContext.build`` took both bounds from a single pass."""
    arrival = {n: pi_offset for n in circuit.primary_inputs}
    for f in circuit.flops:
        arrival[f.id] = flop_offset
    for gid in circuit.gate_order:
        g = circuit.gate_by_id[gid]
        d = profile.delay(g.kind, len(g.inputs))
        arrival[gid] = max(arrival[n] for n in g.inputs) + d
    return arrival


def _fractional_profile():
    """65nm-like with delays and clk-to-q off the integers, so that a sum
    taken in another order would round differently."""
    doc = json.loads((resources.files("seusim") / "data" / "profiles"
                      / "65nm-like.json").read_text(encoding="utf-8"))
    doc["gate_delay"] = {k: v * 1.1 + 0.01 for k, v in doc["gate_delay"].items()}
    doc["ff_clk_to_q"] = 60.3
    return profile_from(doc)


def _timing_case(name, profile_name):
    """A bundled or generated circuit, wrapped as the CLI wraps it, and a
    bundled or fractional profile."""
    if name.startswith("mul"):
        c = parse_bench(multiplier_bench(int(name[3:])), name=name)
    else:
        c = bundled_circuit(name)
    if not c.flops:
        c = wrap_combinational(c)
    if profile_name == "fractional":
        return c, _fractional_profile()
    return c, load_bundled_profile(profile_name)


_TIMING_PROFILES = ["65nm-like", "180nm-like", "toy-equal", "fractional"]
_TIMING_CIRCUITS = [*BUNDLED_CIRCUITS, "mul8", "mul12"]


@pytest.mark.parametrize("profile_name", _TIMING_PROFILES)
@pytest.mark.parametrize("name", _TIMING_CIRCUITS)
def test_context_timing_matches_two_pass_reference(name, profile_name):
    c, prof = _timing_case(name, profile_name)
    ctx = SimContext.build(c, prof)
    critical = max((reference_arrivals(c, prof, 0.0, 0.0)[f.data]
                    for f in c.flops), default=0.0)
    period = prof.ff_clk_to_q + critical + prof.ff_setup + prof.clock_margin
    settle = max(reference_arrivals(c, prof, 0.0, prof.ff_clk_to_q).values())
    assert (ctx.period, ctx.settle) == (period, settle)
    assert (ctx.period, ctx.settle) == period_and_settle(c, prof)
    assert _timing(c, prof) == (critical, settle)


def reference_enumerate_drains(circuit, profile):
    """The drain table as built before the per-kind site rows."""
    sites = []
    gate_area = flop_area = 0.0
    for g in circuit.gates:
        for i, tpl in enumerate(profile.drain_spec[g.kind]):
            sites.append(DrainSite(f"{g.id}[{i}]", g.id, g.id, tpl.area,
                                   tpl.polarity, tpl.ff_node_class))
            gate_area += tpl.area
    for f in circuit.flops:
        for i, tpl in enumerate(profile.drain_spec["DFF"]):
            net = f.data if tpl.ff_node_class == "capture-node" else f.id
            sites.append(DrainSite(f"{f.id}[{i}]", f.id, net, tpl.area,
                                   tpl.polarity, tpl.ff_node_class))
            flop_area += tpl.area
    total = gate_area + flop_area
    cum, acc = [], 0.0
    for s in sites:
        acc += s.area / total
        cum.append(acc)
    cum[-1] = 1.0
    return DrainTable(sites=tuple(sites), cumulative=tuple(cum),
                      gate_area=gate_area, flop_area=flop_area)


@pytest.mark.parametrize("profile_name", _TIMING_PROFILES)
@pytest.mark.parametrize("name", _TIMING_CIRCUITS)
def test_drain_table_matches_reference(name, profile_name):
    c, prof = _timing_case(name, profile_name)
    assert enumerate_drains(c, prof) == reference_enumerate_drains(c, prof)
