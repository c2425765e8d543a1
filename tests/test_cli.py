"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim import campaign, cli
from seusim.campaign import (LOG_COLUMNS, CampaignConfig, CampaignStats, ClassStats,
                             OutcomeClass, exhaustive_campaign, read_sample_log,
                             recompute_from_log, run_campaign)
from seusim.errors import InputError
from seusim.golden import Stimulus, simulate_reference
from seusim.netlist import parse_bench, wrap_combinational
from seusim.techmodel import load_bundled_profile

from conftest import BUNDLED_CIRCUITS as BUNDLED_CIRCUIT_NAMES
from conftest import bundled_bench_text


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def bench_dir(tmp_path):
    for name in ("toy_chain", "toy_mask", "c17"):
        (tmp_path / f"{name}.bench").write_text(bundled_bench_text(name))
    (tmp_path / "solo.bench").write_text("INPUT(x)\nOUTPUT(q)\nq = DFF(x)\n")
    (tmp_path / "cyclic.bench").write_text(
        "INPUT(x)\nOUTPUT(a)\na = NOT(b)\nb = NOT(a)\n"
    )
    return tmp_path


def campaign_args(bench_dir, circuit, out, **over):
    opts = {
        "--tech": "toy-equal",
        "--stimulus": "random:6:2",
        "--seed": "5",
        "--max-samples": "200",
        "--min-samples": "50",
    }
    opts.update(over)
    argv = ["campaign", "--circuit", str(bench_dir / f"{circuit}.bench")]
    for k, v in opts.items():
        argv += [k, v]
    return argv + ["--out", str(out)]


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_circuit(bench_dir):
    code, out, err = run_cli(["validate", "--circuit", str(bench_dir / "toy_chain.bench")])
    assert code == 0
    assert "toy_chain: 1 inputs, 1 outputs, 2 gates, 2 flops, 5 nets" in out
    assert out.rstrip().endswith("ok")
    assert err == ""


def test_validate_cyclic_circuit(bench_dir):
    code, out, err = run_cli(["validate", "--circuit", str(bench_dir / "cyclic.bench")])
    assert code == 3
    assert "combinational-cycle" in out
    assert "error:invariant-violation" in err


def test_validate_missing_file(bench_dir):
    code, out, err = run_cli(["validate", "--circuit", str(bench_dir / "nope.bench")])
    assert code == 2
    assert "error:input-error" in err


def test_usage_errors_exit_one(bench_dir):
    code, _, err = run_cli(["frobnicate"])
    assert code == 1
    assert err.startswith("error:usage:")
    code, _, err = run_cli([])
    assert code == 1
    assert err.startswith("error:usage:")
    code, _, err = run_cli(["campaign", "--circuit", str(bench_dir / "toy_chain.bench")])
    assert code == 1  # --tech and --stimulus are required


# Each subcommand with one valid argv of every option it takes.
_VALID_ARGV = {
    "validate": ["validate", "--circuit", "c.bench"],
    "golden": ["golden", "--circuit", "c.bench", "--stimulus", "random:6:2",
               "--out", "o"],
    "campaign": ["campaign", "--circuit", "c.bench", "--tech", "65nm-like",
                 "--stimulus", "random:6:2", "--seed", "-3",
                 "--max-samples", "300", "--min-samples", "50",
                 "--stderr-target", "0.05", "--capture-policy",
                 "window-random:0.5", "--workers", "2", "--debug-sample", "7",
                 "--out", "o"],
    "oracle": ["oracle", "--circuit", "c.bench", "--tech", "65nm-like",
               "--stimulus", "random:6:2", "--seed", "4", "--t-grid", "5",
               "--out", "o"],
    "report": ["report", "--stats", "s.json", "--log", "s.csv", "--oracle",
               "o.json", "--recompute", "--paper-columns", "--out", "o"],
}


def _parser_cases():
    """{test id: argv} of every argv the parsers are compared on."""
    cases = {"empty": [], "help": ["-h"], "unknown-command": ["bogus"]}
    for name, argv in _VALID_ARGV.items():
        cases[f"{name}-help"] = [name, "-h"]
        cases[f"{name}-valid"] = argv
        # the first option is required by every subcommand
        cases[f"{name}-missing-{argv[1]}"] = [name, *argv[3:]]
        for flag in ("--seed", "--t-grid", "--max-samples"):
            if flag in argv:
                cases[f"{name}-non-integer-{flag}"] = argv + [flag, "1.5"]
        cases[f"{name}-unknown-option"] = argv + ["--bogus"]
        cases[f"{name}-stray-positional"] = argv + ["stray"]
    return cases


_PARSER_CASES = _parser_cases()


def _parsed(parse, argv):
    """(namespace or exit code, stdout, stderr) of one parse of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _no_full_parser():
    raise AssertionError("built the full parser for a well-formed command")


@pytest.mark.parametrize("argv", list(_PARSER_CASES.values()),
                         ids=list(_PARSER_CASES))
def test_command_parser_matches_the_full_parser(monkeypatch, argv):
    # same help, usage errors, exit codes and namespace as the parser of
    # every subcommand, which a line read from the option table never builds
    expected = _parsed(cli.build_parser().parse_args, argv)
    if argv and argv[0] in _VALID_ARGV and cli._parse_plain(argv[0], argv[1:]):
        monkeypatch.setattr(cli, "build_parser", _no_full_parser)
    assert _parsed(cli.parse_args, argv) == expected
    assert expected[0] in (0, 1) or argv == _VALID_ARGV[argv[0]]


def test_main_parses_a_command_without_the_full_parser(bench_dir, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", _no_full_parser)
    code, out, _ = run_cli(["validate", "--circuit",
                            str(bench_dir / "toy_chain.bench")])
    assert (code, out.splitlines()[-1]) == (0, "ok")


# Tokens a command line is drawn from besides a subcommand's own flags:
# plain values, values argparse reads differently or rejects, and options
# that are not the table's.
_ARGV_TOKENS = ["7", "-3", "1.5", "1e-6", "x", "", "-h", "--", "--seed=4",
                "--circ", "--bogus"]


def _drawn_argv(name):
    """Command lines for subcommand ``name``: its required flags (each
    with a value) or not, plus flag-value pairs and single tokens, repeats
    included, in any order."""
    options = cli._COMMANDS[name][2]
    flags = [flag for flag, _ in options]
    required = [[flag, "x"] for flag, kwargs in options
                if kwargs.get("required")]
    pair = st.tuples(st.sampled_from(flags), st.sampled_from(_ARGV_TOKENS))
    single = st.sampled_from(flags + _ARGV_TOKENS).map(lambda t: [t])
    items = st.tuples(st.booleans(),
                      st.lists(st.one_of(pair.map(list), single), max_size=5))
    return items.flatmap(
        lambda drawn: st.permutations((required if drawn[0] else [])
                                      + drawn[1])
    ).map(lambda items: [token for item in items for token in item])


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plain_parse_matches_argparse(name, data):
    # a command line read from the table gives argparse's namespace, and
    # every other one still gets argparse's help, error and exit code
    argv = [name, *data.draw(_drawn_argv(name))]
    expected = _parsed(cli.build_parser().parse_args, argv)
    plain = cli._parse_plain(name, argv[1:])
    if plain is not None:
        assert expected == (vars(plain), "", "")
    assert _parsed(cli.parse_args, argv) == expected


def _no_parser(*args, **kwargs):
    raise AssertionError("built an argparse parser for a well-formed command")


def test_well_formed_commands_build_no_parser(bench_dir, tmp_path, monkeypatch):
    # the argv shapes perfbench runs are read from the option table
    monkeypatch.setattr(cli, "_Parser", _no_parser)
    common = ["--circuit", str(bench_dir / "c17.bench"), "--tech",
              "toy-equal", "--stimulus", "random:6:2", "--seed", "5"]
    mc = tmp_path / "mc"
    commands = [
        ["campaign", *common, "--max-samples", "200", "--stderr-target",
         "1e-6", "--capture-policy", "window-random:0.5", "--workers", "2",
         "--out", str(mc)],
        ["report", "--stats", str(mc / "stats.json"), "--log",
         str(mc / "samples.csv"), "--recompute", "--out", str(tmp_path / "r")],
        ["oracle", *common, "--t-grid", "5", "--out", str(tmp_path / "o")],
    ]
    assert [run_cli(argv)[0] for argv in commands] == [0, 0, 0]


# Runs every subcommand on s27 through seusim.cli.main in a fresh
# interpreter, then names the modules it loaded that no command needs:
# OpenSSL's hashlib backend, and the locale module argparse's first
# message lookup imports.
_OPENSSL_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
unneeded = {"hashlib", "_hashlib", "locale"}
before = unneeded & set(sys.modules)
from seusim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([sorted(before), codes, sorted(unneeded & set(sys.modules))]))
"""


def test_commands_never_load_openssl(tmp_path):
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    mc, orc = tmp_path / "mc", tmp_path / "orc"
    common = ["--circuit", str(bench), "--tech", "65nm-like",
              "--stimulus", "random:6:2", "--seed", "5"]
    commands = [
        ["campaign", *common, "--max-samples", "300", "--min-samples", "50",
         "--debug-sample", "146", "--out", str(mc)],
        ["oracle", *common, "--t-grid", "5", "--out", str(orc)],
        ["report", "--stats", str(mc / "stats.json"), "--log",
         str(mc / "samples.csv"), "--recompute", "--out", str(tmp_path / "r")],
        ["golden", "--circuit", str(bench), "--stimulus", "random:6:2",
         "--out", str(tmp_path / "g")],
        ["validate", "--circuit", str(bench)],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    # -S: no site hook runs, so only what seusim imports is counted
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _OPENSSL_PROBE, str(src),
         json.dumps(commands)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    before, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert (before, codes, loaded) == ([], [0] * len(commands), [])
    # the stream seeds still hash with hashlib's own BLAKE2b
    assert campaign.blake2b is hashlib.blake2b


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# The loader each input file goes through, by its file name.
_FILE_LOADERS = {"fuzz.bench": cli._load_circuit, "fuzz.json": cli._load_profile,
                 "fuzz.txt": cli._load_stimulus}


@pytest.mark.parametrize("name", sorted(_FILE_LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.one_of(
    st.binary(),
    st.text().map(str.encode),
    st.tuples(st.sampled_from([b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff", b""]),
              st.text(alphabet="01random {}[]\":,\n", max_size=20)
              .map(lambda s: s.encode("utf-16-le"))).map(b"".join),
))
def test_input_files_load_or_raise_input_error(fuzz_dir, name, data):
    # any bytes in a netlist, profile or stimulus file either load or give
    # an InputError, which the CLI turns into exit 2
    path = fuzz_dir / name
    path.write_bytes(data)
    try:
        _FILE_LOADERS[name](str(path))
    except InputError:
        pass


# ---------------------------------------------------------------------------
# golden


def test_golden_writes_reference_trace(bench_dir, tmp_path):
    out_dir = tmp_path / "g"
    code, out, _ = run_cli(
        ["golden", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--stimulus", "random:5:3", "--out", str(out_dir)]
    )
    assert code == 0
    assert "-> " in out
    circuit = parse_bench(bundled_bench_text("toy_chain"), name="toy_chain")
    expected = simulate_reference(circuit, Stimulus.random(5, 3)).to_csv()
    assert (out_dir / "trace.csv").read_text() == expected


# sha256 of trace.csv, flop count and net count of a 130-cycle golden run
# (three packed blocks, the last one partial) of each bundled feedback
# circuit.  Recorded while the trace still kept per-cycle flop tuples next to
# its net masks; any byte change to a trace shows here.
GOLDEN_DIGESTS = {
    "lfsr8": ("40d59ff173385f0faaf9b9504b2b4c51d3c001288dedb7127090f0de9343c7c6",
              8, 11),
    "s27": ("ae5bc05ee9b4494f6884f83bbc0de02d5af72fb8a09fa6084fb271e5f366f410",
            3, 17),
    "fsm3": ("e5e9fbbd959687ae772b4882b68c533e1e264ba42dad467fd62f27cca8bd3f10",
             3, 10),
}


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_golden_trace_bytes_are_pinned(tmp_path, name):
    bench = tmp_path / f"{name}.bench"
    bench.write_text(bundled_bench_text(name))
    out_dir = tmp_path / "g"
    code, out, err = run_cli(["golden", "--circuit", str(bench), "--stimulus",
                              "random:130:7", "--out", str(out_dir)])
    assert (code, err) == (0, "")
    digest, flops, nets = GOLDEN_DIGESTS[name]
    trace = out_dir / "trace.csv"
    assert out == (f"golden: 130 cycles, {flops} flops, {nets} nets "
                   f"-> {trace}\n")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def test_golden_accepts_stimulus_file(bench_dir, tmp_path):
    stim = tmp_path / "vectors.txt"
    stim.write_text("1\n0\n1\n1\n")
    out_dir = tmp_path / "g2"
    code, _, _ = run_cli(
        ["golden", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--stimulus", str(stim), "--out", str(out_dir)]
    )
    assert code == 0
    circuit = parse_bench(bundled_bench_text("toy_chain"), name="toy_chain")
    expected = simulate_reference(
        circuit, Stimulus.explicit([(1,), (0,), (1,), (1,)])
    ).to_csv()
    assert (out_dir / "trace.csv").read_text() == expected


def test_golden_rejects_bad_stimulus(bench_dir, tmp_path):
    code, _, err = run_cli(
        ["golden", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--stimulus", "random:2:1", "--out", str(tmp_path / "g3")]
    )
    assert code == 2
    assert "error:stimulus-error" in err


# ---------------------------------------------------------------------------
# campaign


def test_campaign_outputs_and_stats(bench_dir, tmp_path):
    out_dir = tmp_path / "c"
    code, out, _ = run_cli(campaign_args(bench_dir, "toy_chain", out_dir))
    assert code == 0
    assert "stop: max-samples after 200 samples" in out
    assert sorted(p.name for p in out_dir.iterdir()) == ["samples.csv", "stats.json"]
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["circuit"] == "toy_chain"
    assert stats["policy"] == "instant"
    assert stats["rng_seed"] == 5
    assert stats["total_samples"] == 200
    assert stats["stop_reason"] == "max-samples"
    assert stats["wrapped"] is False
    assert set(stats["classes"]) == {"gate", "register"}
    n_lines = (out_dir / "samples.csv").read_text().strip().splitlines()
    assert len(n_lines) == 201  # header + one row per sample


def test_campaign_binary_reproducible(bench_dir, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli(campaign_args(bench_dir, "toy_chain", a))
    run_cli(campaign_args(bench_dir, "toy_chain", b))
    run_cli(campaign_args(bench_dir, "toy_chain", c, **{"--workers": "4"}))
    for name in ("stats.json", "samples.csv"):
        ref = (a / name).read_bytes()
        assert (b / name).read_bytes() == ref
        assert (c / name).read_bytes() == ref


def test_campaign_auto_wraps_combinational_circuit(bench_dir, tmp_path):
    out_dir = tmp_path / "w"
    code, _, _ = run_cli(campaign_args(bench_dir, "c17", out_dir,
                                       **{"--tech": "65nm-like"}))
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["wrapped"] is True


def test_campaign_capture_policy_recorded(bench_dir, tmp_path):
    out_dir = tmp_path / "p"
    code, _, _ = run_cli(
        campaign_args(bench_dir, "toy_chain", out_dir,
                      **{"--capture-policy": "window-random:0.5"})
    )
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["policy"] == "window-random:0.5"


def test_campaign_debug_sample_dump(bench_dir, tmp_path):
    out_dir = tmp_path / "d"
    code, _, _ = run_cli(
        campaign_args(bench_dir, "toy_mask", out_dir, **{"--debug-sample": "3"})
    )
    assert code == 0
    dump = (out_dir / "debug_sample_3.txt").read_text()
    assert dump.startswith("debug replay of sample 3 (seed 5)")
    assert "\nsample drain=" in dump
    assert "outcome=" in dump


def test_campaign_rejects_unknown_profile(bench_dir, tmp_path):
    code, _, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x",
                      **{"--tech": "no-such-profile"})
    )
    assert code == 2
    assert "error:profile-error" in err


def test_campaign_tech_name_shadowed_by_a_directory(bench_dir, tmp_path,
                                                    monkeypatch):
    # the first run creates a directory called 65nm-like in the working
    # directory; the second must still read the bundled profile
    monkeypatch.chdir(tmp_path)
    argv = campaign_args(bench_dir, "toy_chain", "65nm-like",
                         **{"--tech": "65nm-like"})
    assert run_cli(argv)[0] == 0
    first = (tmp_path / "65nm-like" / "stats.json").read_bytes()
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert (tmp_path / "65nm-like" / "stats.json").read_bytes() == first


def test_campaign_tech_directory_without_bundled_profile(bench_dir, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notaprofile").mkdir()
    code, out, err = run_cli(
        campaign_args(bench_dir, "toy_chain", "x", **{"--tech": "notaprofile"}))
    assert code == 2
    assert err.startswith(
        "error:profile-error: no bundled profile 'notaprofile' (available: ")
    assert err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "non-utf8"])
def test_load_profile_unreadable_is_an_input_error(tmp_path, content):
    path = tmp_path / "p.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(InputError, match=re.escape(f"cannot read profile '{path}'")):
        cli._load_profile(str(path))


def _edited_profile(tmp_path, edit):
    ref = resources.files("seusim").joinpath("data/profiles/toy-equal.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["drain_spec"]["NOT"].__setitem__(0, "x"),
         "drain_spec['NOT'][0] must be an object"),
        (lambda d: d.__setitem__("glitch_width", float("nan")),
         "non-finite number NaN"),
        (lambda d: d.__setitem__("clock_margin", float("inf")),
         "non-finite number Infinity"),
        (lambda d: d.__setitem__("ff_setup", True),
         "non-positive value for 'ff_setup'"),
        (lambda d: d["drain_spec"].__setitem__("NOT", 5),
         "drain_spec['NOT'] must be a list"),
        (lambda d: d.__setitem__("gate_delay", [1]),
         "gate_delay must be an object"),
        (lambda d: d.__setitem__("glitch_width", 10 ** 400),
         "non-positive value for 'glitch_width'"),
    ],
    ids=["string-drain-entry", "nan-glitch-width", "infinite-clock-margin",
         "bool-setup", "number-drain-list", "list-gate-delay",
         "huge-glitch-width"],
)
def test_campaign_rejects_malformed_profile_values(bench_dir, tmp_path, edit,
                                                   message):
    code, out, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x",
                      **{"--tech": _edited_profile(tmp_path, edit)}))
    assert code == 2
    assert err.startswith("error:profile-error: ")
    assert err.count("\n") == 1
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000 + "]" * 200_000, '{"glitch_width": ' + "9" * 5000 + "}"],
    ids=["deeply-nested", "integer-over-the-digit-limit"],
)
def test_campaign_rejects_unparsable_profile_json(bench_dir, tmp_path, text):
    path = tmp_path / "unparsable.json"
    path.write_text(text)
    code, out, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x", **{"--tech": str(path)}))
    assert code == 2
    assert err.startswith("error:profile-error: ")
    assert err.count("\n") == 1
    assert "not valid JSON" in err
    assert out == ""


def test_campaign_rejects_bad_sample_budget(bench_dir, tmp_path):
    code, _, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x",
                      **{"--max-samples": "10", "--min-samples": "50"})
    )
    assert code == 3
    assert "error:config-error" in err


def test_campaign_rejects_bad_worker_count(bench_dir, tmp_path):
    code, _, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x", **{"--workers": "0"})
    )
    assert code == 3
    assert err.startswith("error:config-error: workers must be >= 1")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("index", ["-1", str(2**64)])
def test_campaign_rejects_debug_sample_outside_stream_range(bench_dir, tmp_path, index):
    # a sample's RNG stream is keyed by its index as 8 unsigned bytes
    code, _, err = run_cli(
        campaign_args(bench_dir, "toy_chain", tmp_path / "x", **{"--debug-sample": index})
    )
    assert code == 3
    assert err == f"error:config-error: debug sample index must be in [0, 2**64), got {index}\n"
    assert not (tmp_path / "x").exists()


def test_campaign_rejects_cyclic_circuit(bench_dir, tmp_path):
    code, _, err = run_cli(campaign_args(bench_dir, "cyclic", tmp_path / "x"))
    assert code == 3
    assert "error:invariant-violation" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_outputs(bench_dir, tmp_path):
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(
        ["oracle", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--tech", "toy-equal", "--stimulus", "random:6:2",
         "--t-grid", "5", "--out", str(out_dir)]
    )
    assert code == 0
    assert "240 enumerated samples" in out
    stats = json.loads((out_dir / "oracle_stats.json").read_text())
    assert stats["stop_reason"] == "exhaustive"
    assert stats["total_samples"] == 240


# The campaign's sampling controls, each with a value a campaign accepts.
_CAMPAIGN_ONLY = {"--max-samples": "5", "--min-samples": "5",
                  "--stderr-target": "0.5",
                  "--capture-policy": "window-random:0.5"}


@pytest.mark.parametrize("flag", list(_CAMPAIGN_ONLY))
def test_oracle_rejects_campaign_only_flags(bench_dir, tmp_path, flag):
    # the oracle enumerates every cell under the instant policy, so the
    # sampling controls are not its options
    out = tmp_path / "o2"
    code, stdout, err = run_cli(
        ["oracle", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--tech", "toy-equal", "--stimulus", "random:6:2",
         flag, _CAMPAIGN_ONLY[flag], "--out", str(out)]
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("error:usage: ") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# report


@pytest.fixture
def finished_campaign(bench_dir, tmp_path):
    camp = tmp_path / "camp"
    run_cli(campaign_args(bench_dir, "toy_chain", camp))
    orc = tmp_path / "orc"
    run_cli(
        ["oracle", "--circuit", str(bench_dir / "toy_chain.bench"),
         "--tech", "toy-equal", "--stimulus", "random:6:2",
         "--t-grid", "5", "--out", str(orc)]
    )
    return camp, orc


def test_report_basic_outputs(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    out_dir = tmp_path / "r"
    code, out, _ = run_cli(
        ["report", "--stats", str(camp / "stats.json"), "--out", str(out_dir)]
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "flip_summary.csv",
        "metrics.csv",
        "outcome_probabilities.csv",
        "report.txt",
    ]
    text = (out_dir / "report.txt").read_text()
    assert "campaign report: toy_chain" in text
    assert "flip probability (1 - P_NN)" in text
    header = (out_dir / "outcome_probabilities.csv").read_text().splitlines()[0]
    assert header.startswith("circuit,strike_class,n,P_NN,SE_NN")
    assert "P_F_mF_m" in header


def test_report_with_oracle_comparison(finished_campaign, tmp_path):
    camp, orc = finished_campaign
    out_dir = tmp_path / "r2"
    code, _, _ = run_cli(
        ["report", "--stats", str(camp / "stats.json"),
         "--oracle", str(orc / "oracle_stats.json"), "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "oracle_comparison.csv").exists()
    text = (out_dir / "report.txt").read_text()
    assert "oracle comparison" in text
    assert "max |z|" in text
    rows = (out_dir / "oracle_comparison.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 18  # header + 9 outcomes x 2 strike classes


@pytest.mark.parametrize("circuit, tech", [("s27", "180nm-like"), ("c17", "180nm-like"),
                                           ("c17", "65nm-like")])
def test_report_refuses_an_oracle_of_another_run(bench_dir, tmp_path, circuit, tech):
    # a c17 65nm-like campaign judged by an s27 180nm-like oracle used to
    # exit 0 and print max |z| = 8.779 here, so the mismatch read as a
    # model disagreement; the matching c17 65nm-like oracle is accepted
    (bench_dir / "s27.bench").write_text(bundled_bench_text("s27"))
    camp, orc = tmp_path / "c", tmp_path / "o"
    assert run_cli(campaign_args(bench_dir, "c17", camp, **{
        "--tech": "65nm-like", "--stimulus": "random:20:1", "--max-samples": "2000"}))[0] == 0
    assert run_cli(["oracle", "--circuit", str(bench_dir / f"{circuit}.bench"), "--tech", tech,
                    "--stimulus", "random:20:1", "--t-grid", "5", "--out", str(orc)])[0] == 0
    code, _, err = run_cli(["report", "--stats", str(camp / "stats.json"), "--oracle",
                            str(orc / "oracle_stats.json"), "--out", str(tmp_path / "r")])
    if (circuit, tech) == ("c17", "65nm-like"):
        assert (code, err) == (0, "")
        return
    assert code == 3
    assert err.startswith("error:invariant-violation: ") and err.count("\n") == 1
    assert ("circuit 'c17' vs 's27'" in err) == (circuit == "s27")
    assert "profile '65nm-like' vs '180nm-like'" in err
    assert "period_ps" in err and "settle_ps" in err
    assert ("wrapped True vs False" in err) == (circuit == "s27")
    assert not (tmp_path / "r").exists()


def test_report_oracle_comparison_with_certain_outcome(bench_dir, tmp_path):
    # a 1 ps glitch dies at the first gate it crosses and can only land when
    # struck within 1 ps of the edge, so here every gate strike is NN in both
    # runs: the base probability is 1 and its standard error 0
    doc = json.loads(resources.files("seusim").joinpath(
        "data/profiles/65nm-like.json").read_text())
    doc["glitch_width"] = 1.0
    tech = tmp_path / "narrow.json"
    tech.write_text(json.dumps(doc))
    common = ["--circuit", str(bench_dir / "c17.bench"), "--tech", str(tech),
              "--stimulus", "random:10:1"]
    camp, orc, out_dir = tmp_path / "c", tmp_path / "o", tmp_path / "r"
    assert run_cli(["campaign", *common, "--max-samples", "300", "--out", str(camp)])[0] == 0
    assert run_cli(["oracle", *common, "--t-grid", "5", "--out", str(orc)])[0] == 0
    code, _, err = run_cli(
        ["report", "--stats", str(camp / "stats.json"),
         "--oracle", str(orc / "oracle_stats.json"), "--out", str(out_dir)]
    )
    assert (code, err) == (0, "")
    gate_rows = [line for line in (out_dir / "report.txt").read_text().splitlines()
                 if line.startswith("  gate ") and "oracle=" in line]
    assert len(gate_rows) == 9
    assert all(line.endswith("z=+0.000") for line in gate_rows)


def test_oracle_z_is_infinite_when_the_oracle_is_certain():
    nn = OutcomeClass.NN
    mc = SimpleNamespace(per_class={"gate": ClassStats(n=10, probs={nn: 0.9})})
    oracle = SimpleNamespace(per_class={"gate": ClassStats(n=50, probs={nn: 1.0})})
    assert cli._oracle_rows(mc, oracle, (nn,)) == [("gate", nn, 0.9, 1.0, -math.inf)]


def test_report_recompute_verifies_log(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    code, out, _ = run_cli(
        ["report", "--stats", str(camp / "stats.json"),
         "--log", str(camp / "samples.csv"), "--recompute",
         "--out", str(tmp_path / "r3")]
    )
    assert code == 0
    assert "reproduce the stored statistics exactly" in out


def test_report_recompute_needs_log(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    code, _, err = run_cli(
        ["report", "--stats", str(camp / "stats.json"), "--recompute",
         "--out", str(tmp_path / "r4")]
    )
    assert code == 3
    assert "error:config-error" in err
    assert "--recompute needs --log" in err


def test_report_recompute_catches_tampering(finished_campaign, tmp_path):
    # an outcome label that is not the class of its row's flip counts makes
    # the row malformed
    camp, _ = finished_campaign
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(
        (camp / "samples.csv").read_text().replace(",NN", ",NF", 1)
    )
    code, _, err = run_cli(
        ["report", "--stats", str(camp / "stats.json"),
         "--log", str(tampered), "--recompute", "--out", str(tmp_path / "r5")]
    )
    _assert_input_error(code, err)
    assert ": malformed row [" in err


def test_report_missing_stats_file(tmp_path):
    code, _, err = run_cli(
        ["report", "--stats", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r6")]
    )
    assert code == 2
    assert "error:input-error" in err or "error:" in err


def _assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error:input-error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--stats", "--oracle"])
def test_report_rejects_invalid_json(finished_campaign, tmp_path, flag):
    camp, _ = finished_campaign
    broken = tmp_path / "broken.json"
    broken.write_text((camp / "stats.json").read_text()[:-10])
    files = {"--stats": str(camp / "stats.json"), "--oracle": str(camp / "stats.json")}
    files[flag] = str(broken)
    argv = ["report"]
    for k, v in files.items():
        argv += [k, v]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "rj")])
    _assert_input_error(code, err)
    assert "is not valid JSON" in err


@pytest.mark.parametrize(
    "path",
    [("classes",), ("period_ps",), ("metrics", "P_GM"), ("classes", "gate", "probs")],
    ids=".".join,
)
def test_report_rejects_stats_missing_key(finished_campaign, tmp_path, path):
    camp, _ = finished_campaign
    doc = json.loads((camp / "stats.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    broken = tmp_path / "missing.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run_cli(["report", "--stats", str(broken), "--out", str(tmp_path / "rk")])
    _assert_input_error(code, err)
    assert f"no key '{path[-1]}'" in err


@pytest.mark.parametrize(
    "key, value",
    [("period_ps", float("nan")), ("period_ps", float("inf")),
     ("period_ps", 10 ** 400)],
    ids=["nan", "infinity", "huge"],
)
def test_report_rejects_non_finite_stats_number(finished_campaign, tmp_path,
                                                key, value):
    camp, _ = finished_campaign
    doc = json.loads((camp / "stats.json").read_text())
    doc[key] = value
    broken = tmp_path / "non_finite.json"
    broken.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["report", "--stats", str(broken), "--out", str(tmp_path / "rn")])
    _assert_input_error(code, err)
    assert out == ""
    assert not (tmp_path / "rn").exists()


@pytest.mark.parametrize(
    "row",
    ["7,gate,1,0", "7,g1,gate,one,200.5,0,1,NF", "7,g1,gate,1,200.5,0,1,XX"],
    ids=["short", "non-numeric", "unknown-outcome"],
)
def test_report_rejects_malformed_log_row(finished_campaign, tmp_path, row):
    camp, _ = finished_campaign
    lines = (camp / "samples.csv").read_text().splitlines()
    lines[3] = row
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["report", "--stats", str(camp / "stats.json"), "--log", str(broken),
         "--out", str(tmp_path / "rl")]
    )
    _assert_input_error(code, err)
    assert "sample log line 4: malformed row" in err


def test_report_rejects_log_field_over_the_csv_limit(finished_campaign, tmp_path):
    # csv refuses a field longer than its 131,072-character limit
    camp, _ = finished_campaign
    lines = (camp / "samples.csv").read_text().splitlines()
    lines[3] = "7," + "g" * 200_000 + ",gate,1,200.5,0,1,NF"
    broken = tmp_path / "long.csv"
    broken.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        ["report", "--stats", str(camp / "stats.json"), "--log", str(broken),
         "--out", str(tmp_path / "rl")]
    )
    _assert_input_error(code, err)
    assert "sample log line 4: field larger than field limit" in err
    assert out == ""


DEEPLY_NESTED_JSON = "[" * 200_000 + "]" * 200_000


def test_report_rejects_deeply_nested_stats_json(tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text(DEEPLY_NESTED_JSON)
    code, out, err = run_cli(["report", "--stats", str(nested), "--out", str(tmp_path / "rd")])
    _assert_input_error(code, err)
    assert "is not valid JSON" in err
    assert out == ""


def test_report_paper_columns_projection(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    out_dir = tmp_path / "r7"
    code, _, _ = run_cli(
        ["report", "--stats", str(camp / "stats.json"), "--paper-columns",
         "--out", str(out_dir)]
    )
    assert code == 0
    text = (out_dir / "report.txt").read_text()
    assert "note: projected to the NN/NF/FN/FF columns" in text
    table_header = next(l for l in text.splitlines() if l.startswith("strike_class"))
    assert "P_NF_m" not in table_header
    assert "P_FF" in table_header
    csv_header = (out_dir / "outcome_probabilities.csv").read_text().splitlines()[0]
    assert csv_header == "circuit,strike_class,n,P_NN,SE_NN,P_NF,SE_NF,P_FN,SE_FN,P_FF,SE_FF"


def test_report_renders_undefined_metrics_as_dash(bench_dir, tmp_path):
    camp = tmp_path / "solo"
    code, _, _ = run_cli(
        campaign_args(bench_dir, "solo", camp,
                      **{"--stimulus": "random:5:1", "--max-samples": "120"})
    )
    assert code == 0
    out_dir = tmp_path / "r8"
    run_cli(["report", "--stats", str(camp / "stats.json"), "--out", str(out_dir)])
    metrics = (out_dir / "metrics.csv").read_text()
    assert "solo,P_GM,0,0,-,-" in metrics
    assert "P_GM  = 0/0 = -" in (out_dir / "report.txt").read_text()


def test_stats_json_round_trip(finished_campaign):
    camp, _ = finished_campaign
    text = (camp / "stats.json").read_text()
    stats = cli.stats_from_dict(json.loads(text))
    assert cli.stats_json(stats) == text


# strings with quotes, backslashes, control and non-ASCII characters and
# lone surrogates, which the writer escapes as json.dumps does
_JSON_NAMES = (st.text(st.characters(exclude_categories=()), max_size=6)
               | st.sampled_from(["", '"', "\\", "\x00\x1f\n", "\u00e9\u6f22",
                                  "\ud800", "\udfff"]))
_JSON_SCALARS = (st.none() | st.booleans() | _JSON_NAMES
                 | st.integers(-2**70, 2**70)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2**64 - 1]))
_JSON_DOCS = st.recursive(
    st.dictionaries(_JSON_NAMES, _JSON_SCALARS, max_size=4),
    lambda inner: st.dictionaries(_JSON_NAMES, inner | _JSON_SCALARS, max_size=4),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_text_matches_json_dumps(doc):
    assert cli.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_text_writes_non_finite_floats_as_json_dumps_does(value):
    doc = {"x": {"y": value}, "z": {}}
    assert cli.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(BUNDLED_CIRCUIT_NAMES))
def test_stats_documents_of_bundled_runs_match_json_dumps(name):
    # the campaign and oracle documents of every bundled profile
    circuit = parse_bench(bundled_bench_text(name), name=name)
    if not circuit.flops:
        circuit = wrap_combinational(circuit)
    for tech in ("180nm-like", "65nm-like", "toy-equal"):
        config = CampaignConfig(
            circuit=circuit, profile=load_bundled_profile(tech),
            trace=simulate_reference(circuit, Stimulus.random(8, 3)), rng_seed=3,
            max_samples=300, min_samples=50)
        for stats in (run_campaign(config), exhaustive_campaign(config, t_grid=7)):
            doc = cli.stats_to_dict(stats)
            assert cli.stats_json(stats) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["campaign", "oracle"])
def test_overflowing_clock_period_stops_before_writing(bench_dir, tmp_path, command):
    # clk-to-q + clock margin overflow the period to inf, so no strike time
    # lies inside [0, period) and no document with a non-finite number is
    # written
    doc = json.loads((resources.files("seusim") / "data" / "profiles"
                      / "180nm-like.json").read_text(encoding="utf-8"))
    doc.update(clock_margin=1e308, ff_clk_to_q=1e308)
    tech = tmp_path / "overflow.json"
    tech.write_text(json.dumps(doc))
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    out = tmp_path / "out"
    code, _, err = run_cli([command, "--circuit", str(bench), "--tech", str(tech),
                            "--stimulus", "random:10:1", "--out", str(out)])
    assert code == 3
    time = "nan" if command == "oracle" else "inf"
    assert err == (f"error:invariant-violation: strike time {time} outside the "
                   "clock period [0, inf)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["campaign", "oracle"])
def test_drain_area_sum_past_float_range_stops_before_writing(tmp_path, command):
    # each area of 1e308 is finite, but their sum is not: the sampler would
    # draw every strike at the last site and the oracle would write NaN
    # class shares that report refuses
    doc = json.loads((resources.files("seusim") / "data" / "profiles"
                      / "180nm-like.json").read_text(encoding="utf-8"))
    for sites in doc["drain_spec"].values():
        for site in sites:
            site["area"] = 1e308
    tech = tmp_path / "huge-areas.json"
    tech.write_text(json.dumps(doc))
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    out = tmp_path / "out"
    code, stdout, err = run_cli([command, "--circuit", str(bench), "--tech", str(tech),
                                 "--stimulus", "random:10:1", "--out", str(out)])
    assert code == 2
    assert err == ("error:profile-error: profile '180nm-like': the drain areas of "
                   "circuit 's27' sum past the float range\n")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["golden", "campaign", "oracle", "report"])
def test_out_on_a_regular_file_is_an_io_error(finished_campaign, bench_dir, tmp_path,
                                              command, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    run = ["--circuit", str(bench_dir / "toy_chain.bench"), "--tech", "toy-equal",
           "--stimulus", "random:6:2"]
    argv = {
        "golden": ["golden", "--circuit", str(bench_dir / "toy_chain.bench"),
                   "--stimulus", "random:6:2"],
        "campaign": ["campaign", *run, "--max-samples", "200", "--min-samples", "50"],
        "oracle": ["oracle", *run, "--t-grid", "5"],
        "report": ["report", "--stats", str(finished_campaign[0] / "stats.json")],
    }[command]
    out = blocker / "sub" if below else blocker
    code, _, err = run_cli(argv + ["--out", str(out)])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:io-error: ")
    assert blocker.read_text() == "a file, not a directory\n"


@functools.lru_cache(maxsize=None)
def _stats_text():
    circuit = parse_bench(bundled_bench_text("toy_chain"), name="toy_chain")
    config = CampaignConfig(
        circuit=circuit, profile=load_bundled_profile("toy-equal"),
        trace=simulate_reference(circuit, Stimulus.random(6, 2)), rng_seed=5,
        max_samples=200, min_samples=50)
    return cli.stats_json(run_campaign(config))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_stats_documents_parse_or_raise_input_error(data):
    # replace or delete up to three values anywhere in a valid document
    doc = json.loads(_stats_text())
    for _ in range(data.draw(st.integers(1, 3))):
        parent = doc
        while True:
            key = data.draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                            else range(len(parent))))
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
                break
            parent = child
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON_VALUES)
        if not doc:
            break
    try:
        cli.stats_from_dict(doc)
    except InputError:
        pass


@pytest.mark.parametrize("flag", ["--circuit", "--tech", "--stimulus", "--log"])
def test_non_utf8_input_is_an_input_error(finished_campaign, bench_dir, tmp_path, flag):
    bad = bench_dir / "bad.bench"
    bad.write_bytes(b"\xff\xfe\x00I\x00N\x00P\x00U\x00T\x00")
    camp, _ = finished_campaign
    out = str(tmp_path / "u")
    if flag == "--circuit":
        argv = campaign_args(bench_dir, "bad", out)
    elif flag == "--log":
        argv = ["report", "--stats", str(camp / "stats.json"), "--log", str(bad), "--out", out]
    else:
        argv = campaign_args(bench_dir, "toy_chain", out, **{flag: str(bad)})
    code, _, err = run_cli(argv)
    _assert_input_error(code, err)
    assert f"'{bad}'" in err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("change", ["drop-register", "extra-class"])
def test_report_rejects_stats_with_wrong_classes(finished_campaign, tmp_path, change):
    camp, _ = finished_campaign
    doc = json.loads((camp / "stats.json").read_text())
    if change == "drop-register":
        del doc["classes"]["register"]
    else:
        doc["classes"]["latch"] = doc["classes"]["gate"]
    broken = tmp_path / "classes.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run_cli(
        ["report", "--stats", str(broken), "--log", str(camp / "samples.csv"),
         "--recompute", "--out", str(tmp_path / "rc")]
    )
    _assert_input_error(code, err)
    assert "classes must be ('gate', 'register')" in err


# the start of the error for a document whose fields differ from what its
# counts rebuild
_DISAGREE = "does not agree with its counts in: "


@pytest.mark.parametrize(
    "path, value, message",
    [(("classes", "gate", "n"), "x",
      _DISAGREE + "classes.gate.n"),
     (("classes", "register", "counts", "NF"), 1.5,
      "has a non-count classes.register.counts.NF: 1.5"),
     (("metrics", "P_m", "num"), "3",
      _DISAGREE + "metrics.P_m.num"),
     (("metrics", "P_GM", "den"), True,
      _DISAGREE + "metrics.P_GM.den")],
    ids=["n", "count", "num", "den"],
)
def test_report_rejects_non_integer_stats_counts(finished_campaign, tmp_path, path, value,
                                                 message):
    camp, _ = finished_campaign
    doc = json.loads((camp / "stats.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    broken = tmp_path / "typed.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run_cli(["report", "--stats", str(broken), "--out", str(tmp_path / "rt")])
    _assert_input_error(code, err)
    assert err == f"error:input-error: '{broken}': stats document {message}\n"


@pytest.mark.parametrize(
    "flag, path, value, message",
    # every field the counts decide is named where it differs from its rebuild
    [("--stats", ("classes", "gate", "counts", "NN"), 10**6,
      _DISAGREE + "class_share.gate, class_share.register, "
      "classes.gate.n, classes.gate.probs.NF, classes.gate.probs.NN, "
      "classes.gate.stderrs.NF, classes.gate.stderrs.NN, stop_reason, total_samples"),
     ("--stats", ("classes", "gate", "n"), -5,
      _DISAGREE + "classes.gate.n"),
     ("--stats", ("metrics", "P_m", "den"), -3,
      _DISAGREE + "metrics.P_m.den"),
     # the class ns sum to the stored total, which is never 5
     ("--stats", ("total_samples",), 5, _DISAGREE + "total_samples"),
     ("--oracle", ("total_samples",), 5, _DISAGREE + "total_samples")],
    ids=["count-sum", "negative-n", "negative-den", "total-samples",
         "oracle-total-samples"],
)
def test_report_rejects_impossible_stats_integers(finished_campaign, tmp_path, flag, path,
                                                  value, message):
    camp, orc = finished_campaign
    files = {"--stats": camp / "stats.json", "--oracle": orc / "oracle_stats.json"}
    doc = json.loads(files[flag].read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    files[flag] = tmp_path / "impossible.json"
    files[flag].write_text(json.dumps(doc))
    argv = ["report"]
    for k, v in files.items():
        argv += [k, str(v)]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "ri")])
    _assert_input_error(code, err)
    assert err == f"error:input-error: '{files[flag]}': stats document {message}\n"


@pytest.mark.parametrize(
    "flag, path, value, message",
    [("--stats", ("period_ps",), "x", "has a non-number period_ps: 'x'"),
     ("--stats", ("classes", "gate", "probs", "NF"), "x", _DISAGREE + "classes.gate.probs.NF"),
     ("--stats", ("classes", "register", "stderrs", "NN"), "x",
      _DISAGREE + "classes.register.stderrs.NN"),
     ("--stats", ("circuit",), 5, "has a non-string circuit: 5"),
     ("--stats", ("class_share",), [1, 2], _DISAGREE + "class_share"),
     ("--stats", ("class_share", "gate"), "x", _DISAGREE + "class_share.gate"),
     # an oracle's area-weighted tables are read, not rebuilt
     ("--oracle", ("classes", "gate", "probs", "NN"), "x",
      "has a non-distribution classes.gate.probs: "),
     # numbers outside the range their field allows
     ("--stats", ("classes", "gate", "probs", "NN"), -7, _DISAGREE + "classes.gate.probs.NN"),
     ("--stats", ("classes", "gate", "probs", "FF"), 1.5, _DISAGREE + "classes.gate.probs.FF"),
     ("--stats", ("classes", "gate", "stderrs", "NN"), -1,
      _DISAGREE + "classes.gate.stderrs.NN"),
     ("--stats", ("class_share", "register"), 1.25, _DISAGREE + "class_share.register"),
     ("--oracle", ("classes", "gate", "probs", "NN"), 1.5,
      "has a non-distribution classes.gate.probs: "),
     ("--oracle", ("classes", "register", "stderrs", "NF"), -1e-9,
      _DISAGREE + "classes.register.stderrs.NF"),
     ("--oracle", ("class_share", "gate"), -0.5, "has a non-distribution class_share: ")],
    ids=["period", "prob", "stderr", "circuit", "share-list", "share-value",
         "oracle-prob", "prob-negative", "prob-above-one", "stderr-negative",
         "share-above-one", "oracle-prob-above-one", "oracle-stderr-negative",
         "oracle-share-negative"],
)
def test_report_rejects_ill_typed_stats(finished_campaign, tmp_path, flag, path, value,
                                       message):
    camp, orc = finished_campaign
    files = {"--stats": camp / "stats.json", "--oracle": orc / "oracle_stats.json"}
    doc = json.loads(files[flag].read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    files[flag] = tmp_path / "typed.json"
    files[flag].write_text(json.dumps(doc))
    argv = ["report"]
    for k, v in files.items():
        argv += [k, str(v)]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "rt")])
    _assert_input_error(code, err)
    expected = f"error:input-error: '{files[flag]}': stats document {message}"
    # a distribution's message goes on with the table it read
    assert err.startswith(expected) if message.endswith(": ") else err == expected + "\n"


# Edits of an s27 stats.json that contradict the run or its own counts, each
# with the part of the error that names the field at fault.
_RUN_EDITS = {
    "period": (("period_ps",), -5, "needs 0 <= settle_ps < period_ps"),
    "settle": (("settle_ps",), 1e9, "needs 0 <= settle_ps < period_ps"),
    "min-samples": (("min_samples",), 1000000, "< min_samples (1000000)"),
    "stderr-target": (("stderr_target",), -3, "stderr_target must be in (0, 1), got -3"),
    "gate-P_NN": (("classes", "gate", "probs", "NN"), 0, _DISAGREE + "classes.gate.probs.NN"),
    "gate-share": (("class_share", "gate"), 0.9, _DISAGREE + "class_share.gate"),
}


@pytest.mark.parametrize("edits", [*([name] for name in _RUN_EDITS), list(_RUN_EDITS)],
                         ids=[*_RUN_EDITS, "all"])
def test_report_rejects_stats_that_contradict_the_run(tmp_path, edits):
    # each of these edits, and all six at once, used to exit 0 and print
    # "clock period: -5 ps   settle bound: 1e+09 ps" and a gate share of 0.9
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    camp = tmp_path / "c"
    assert run_cli(["campaign", "--circuit", str(bench), "--tech", "65nm-like", "--stimulus",
                    "random:20:1", "--max-samples", "300", "--out", str(camp)])[0] == 0
    doc = json.loads((camp / "stats.json").read_text())
    for name in edits:
        path, value, _ = _RUN_EDITS[name]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run_cli(["report", "--stats", str(edited), "--out", str(tmp_path / "r")])
    _assert_input_error(code, err)
    assert out == ""
    # CampaignConfig's stderr_target check is the first to fail on all six
    assert _RUN_EDITS[edits[0] if len(edits) == 1 else "stderr-target"][2] in err
    assert not (tmp_path / "r").exists()


# Edits of the fields a run decides or labels, each with the stderr target
# of the s27 run it edits (0.5 stops by stderr-met after 100 samples, 0.1
# by max-samples after 300) and the error naming the field.
_REBUILT = "stats document " + _DISAGREE
_DECIDED_EDITS = {
    "stop-reason": (0.1, {"stop_reason": "banana"}, _REBUILT + "stop_reason"),
    "max-samples-short": (0.1, {"max_samples": 100_000}, _REBUILT + "stop_reason"),
    "stderr-met-below-min": (0.5, {"min_samples": 200}, _REBUILT + "stop_reason"),
    "target-estimate": (0.1, {"target_estimate": "P_m"}, _REBUILT + "target_estimate"),
    "policy-unknown": (0.1, {"policy": "bogus"},
                       "stats document: unknown capture policy 'bogus' "
                       "(expected 'instant' or 'window-random:<p>')"),
    "policy-out-of-range": (0.1, {"policy": "window-random:2"},
                            "stats document: window-random probability must be in [0, 1]"),
    "policy-unprinted": (0.1, {"policy": "window-random:0.50"}, _REBUILT + "policy"),
}


@pytest.mark.parametrize("target, edits, message", list(_DECIDED_EDITS.values()),
                         ids=list(_DECIDED_EDITS))
def test_report_rejects_stats_a_run_would_not_write(tmp_path, target, edits, message):
    # each of these edits used to exit 0: the stop reason and the target
    # estimate were read back as stored, and any policy label was accepted
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    camp = tmp_path / "c"
    assert run_cli(["campaign", "--circuit", str(bench), "--tech", "65nm-like", "--stimulus",
                    "random:20:1", "--max-samples", "300", "--stderr-target", str(target),
                    "--out", str(camp)])[0] == 0
    doc = json.loads((camp / "stats.json").read_text())
    assert doc["stop_reason"] == {0.1: "max-samples", 0.5: "stderr-met"}[target]
    doc.update(edits)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run_cli(["report", "--stats", str(edited), "--out", str(tmp_path / "r")])
    _assert_input_error(code, err)
    assert out == ""
    assert err == f"error:input-error: '{edited}': {message}\n"
    assert not (tmp_path / "r").exists()


def test_report_rejects_an_oracle_without_the_instant_policy(finished_campaign, tmp_path):
    camp, orc = finished_campaign
    doc = json.loads((orc / "oracle_stats.json").read_text())
    doc["policy"] = "window-random:0.5"
    edited = tmp_path / "oracle.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run_cli(["report", "--stats", str(camp / "stats.json"), "--oracle",
                              str(edited), "--out", str(tmp_path / "r")])
    _assert_input_error(code, err)
    assert out == ""
    assert err == (f"error:input-error: '{edited}': stats document: an exhaustive run's "
                   "policy must be 'instant', got 'window-random:0.5'\n")


@pytest.mark.parametrize("shift, code", [(0.43, 2), (1e-6, 2), (1e-12, 0)],
                         ids=["sum-1.43", "sum-1+1e-6", "within-tolerance"])
def test_report_requires_oracle_probabilities_that_sum_to_one(finished_campaign, tmp_path,
                                                              shift, code):
    # an oracle's probabilities are area-weighted, so they are read rather
    # than rebuilt: each table must sum to 1 within the stated tolerance
    camp, orc = finished_campaign
    doc = json.loads((orc / "oracle_stats.json").read_text())
    probs = doc["classes"]["gate"]["probs"]
    probs[min(probs, key=probs.get)] += shift
    edited = tmp_path / "oracle.json"
    edited.write_text(json.dumps(doc))
    got, _, err = run_cli(["report", "--stats", str(camp / "stats.json"), "--oracle",
                           str(edited), "--out", str(tmp_path / "r")])
    if code == 0:
        assert (got, err) == (0, "")
        return
    _assert_input_error(got, err)
    assert err.startswith(f"error:input-error: '{edited}': stats document has a "
                          "non-distribution classes.gate.probs: ")


def test_report_oracle_refuses_a_campaign_stats_file(finished_campaign, tmp_path):
    # a campaign's own stats.json describes the same circuit, profile and
    # clock, but it is a Monte Carlo estimate, not an enumeration
    camp, _ = finished_campaign
    stats = camp / "stats.json"
    code, out, err = run_cli(["report", "--stats", str(stats), "--oracle", str(stats),
                              "--out", str(tmp_path / "r")])
    assert (code, out) == (3, "")
    assert err == (f"error:invariant-violation: oracle '{stats}' does not describe the "
                   "campaign's run: stop_reason 'exhaustive' vs 'max-samples'\n")
    assert not (tmp_path / "r").exists()


def _rebuild(doc):
    """CampaignStats of a Monte Carlo document's inputs plus ``tally`` of
    its class counts."""
    counts = {s: [doc["classes"][s]["counts"][c.value] for c in OutcomeClass]
              for s in ("gate", "register")}
    return CampaignStats(
        circuit_name=doc["circuit"], profile_label=doc["profile"], policy_label=doc["policy"],
        rng_seed=doc["rng_seed"], period=doc["period_ps"], settle=doc["settle_ps"],
        stderr_target=doc["stderr_target"], target_estimate=doc["target_estimate"],
        min_samples=doc["min_samples"], max_samples=doc["max_samples"],
        stop_reason=doc["stop_reason"], wrapped=doc["wrapped"], **campaign.tally(counts))


# values a stats document could plausibly hold, beside arbitrary JSON
_STATS_VALUES = _JSON_VALUES | st.floats(0, 1) | st.integers(0, 300)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loaded_stats_documents_equal_their_rebuilt_counts(data):
    # replace up to three leaves of a valid document; whatever still loads
    # holds exactly what its inputs and counts decide
    doc = json.loads(_stats_text())
    for _ in range(data.draw(st.integers(1, 3))):
        parent = doc
        while True:
            key = data.draw(st.sampled_from(sorted(parent)))
            if not (isinstance(parent[key], dict) and parent[key]):
                break
            parent = parent[key]
        parent[key] = data.draw(_STATS_VALUES)
    try:
        loaded = cli.stats_from_dict(doc)
    except InputError:
        return
    rebuilt = cli.stats_json(_rebuild(doc))
    assert json.loads(rebuilt) == doc
    assert cli.stats_json(loaded) == rebuilt


def _recompute(camp, tmp_path, stats_text=None, log_text=None):
    stats, log = camp / "stats.json", camp / "samples.csv"
    if stats_text is not None:
        stats = tmp_path / "edited.json"
        stats.write_text(stats_text)
    if log_text is not None:
        log = tmp_path / "edited.csv"
        log.write_text(log_text)
    return run_cli(["report", "--stats", str(stats), "--log", str(log),
                    "--recompute", "--out", str(tmp_path / "rr")])


@pytest.mark.parametrize(
    "path", [("classes", "gate", "stderrs", "NN"), ("metrics", "P_m", "stderr")],
    ids=".".join,
)
def test_report_recompute_checks_stored_stderrs(finished_campaign, tmp_path, path):
    # the stderrs are recomputed from the stored counts as the document
    # loads, so no log is needed to catch an edited one
    camp, _ = finished_campaign
    doc = json.loads((camp / "stats.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] += 0.001
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run_cli(["report", "--stats", str(edited), "--out", str(tmp_path / "rr")])
    assert (code, out) == (2, "")
    assert err == (f"error:input-error: '{edited}': stats document does not agree with "
                   f"its counts in: {'.'.join(path)}\n")
    assert not (tmp_path / "rr").exists()


def test_report_recompute_catches_consistent_log_edit(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    text = (camp / "samples.csv").read_text()
    assert ",0,0,NN\n" in text
    code, _, err = _recompute(camp, tmp_path,
                              log_text=text.replace(",0,0,NN\n", ",0,1,NF\n", 1))
    assert code == 3
    assert err.startswith("error:invariant-violation: the counts of 200 log rows do not "
                          "match the stored ones in: ")
    assert err.count("\n") == 1


def test_report_recompute_catches_dropped_log_row(finished_campaign, tmp_path):
    camp, _ = finished_campaign
    lines = (camp / "samples.csv").read_text().splitlines(keepends=True)
    code, _, err = _recompute(camp, tmp_path, log_text="".join(lines[:-1]))
    assert code == 3
    assert err.startswith("error:invariant-violation: ")
    assert err.count("\n") == 1


def _edit_log(camp, edit):
    """The sample log text after ``edit(rows)`` on its parsed data rows."""
    header, *rows = csv.reader(io.StringIO((camp / "samples.csv").read_text()))
    edit(rows)
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _set_field(column, value, row=0):
    def edit(rows):
        rows[row][LOG_COLUMNS.index(column)] = value
    return edit


@pytest.mark.parametrize("column,value", [
    ("t", "nan"), ("t", "inf"), ("t", "-inf"), ("k", "0"), ("k", "-7"),
    ("sample_index", "-1"), ("flips_e1", "-1"), ("flips_e2", "-1"),
    ("strike_class", "banana"),
])
def test_report_log_rejects_impossible_strike_fields(finished_campaign, tmp_path,
                                                      column, value):
    camp, _ = finished_campaign
    code, out, err = _recompute(camp, tmp_path,
                                log_text=_edit_log(camp, _set_field(column, value)))
    _assert_input_error(code, err)
    assert "sample log line 2: malformed row" in err
    assert "reproduce" not in out


def test_report_log_rejects_a_row_with_every_strike_field_impossible(
        finished_campaign, tmp_path):
    camp, _ = finished_campaign

    def edit(rows):
        rows[0] = "0,no-such-drain,gate,-7,nan,0,0,NN".split(",")
    code, _, err = _recompute(camp, tmp_path, log_text=_edit_log(camp, edit))
    _assert_input_error(code, err)


def _stored_window(camp):
    doc = json.loads((camp / "stats.json").read_text())
    return doc["settle_ps"], doc["period_ps"]


@pytest.mark.parametrize("edit,message", [
    (lambda rows: rows.__setitem__(slice(0, 2), rows[1::-1]),
     "log row 0 holds sample_index 1; indices must run 0..n-1"),
    (_set_field("sample_index", "7", row=3),
     "log row 3 holds sample_index 7; indices must run 0..n-1"),
    (lambda rows: rows.append(rows[0]),
     "log row 200 holds sample_index 0; indices must run 0..n-1"),
], ids=["swapped", "renumbered", "repeated"])
def test_report_recompute_requires_indices_in_order(finished_campaign, tmp_path,
                                                    edit, message):
    # swapping or renumbering rows keeps every count, so only the index
    # check can catch it
    camp, _ = finished_campaign
    code, out, err = _recompute(camp, tmp_path, log_text=_edit_log(camp, edit))
    assert code == 3
    assert err.startswith("error:invariant-violation: ")
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("where", ["period", "below-settle", "negative", "far"])
def test_report_recompute_requires_times_inside_the_stored_window(
        finished_campaign, tmp_path, where):
    camp, _ = finished_campaign
    settle, period = _stored_window(camp)
    t = {"period": period, "below-settle": math.nextafter(settle, -math.inf),
         "negative": -7.0, "far": 1e9}[where]
    code, out, err = _recompute(camp, tmp_path,
                                log_text=_edit_log(camp, _set_field("t", repr(t), row=5)))
    assert code == 3
    assert "reproduce" not in out
    assert err == (f"error:invariant-violation: log row 5: strike time {t!r} outside "
                   f"the stored window [{settle!r}, {period!r})\n")


@pytest.mark.parametrize("where", ["settle", "below-period"])
def test_report_recompute_accepts_times_at_the_window_bounds(finished_campaign,
                                                             tmp_path, where):
    camp, _ = finished_campaign
    settle, period = _stored_window(camp)
    t = settle if where == "settle" else math.nextafter(period, -math.inf)
    code, out, _ = _recompute(camp, tmp_path,
                              log_text=_edit_log(camp, _set_field("t", repr(t))))
    assert code == 0
    assert "reproduce the stored statistics exactly" in out


def test_report_recompute_replays_the_stopping_rule(tmp_path):
    # this run stops by stderr-met after its 150 min_samples; with
    # min_samples edited to 100 its counts still match, but the same run
    # would have stopped after 100 samples, so no run writes that pair
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    camp = tmp_path / "c"
    assert run_cli(["campaign", "--circuit", str(bench), "--tech", "65nm-like",
                    "--stimulus", "random:20:1", "--max-samples", "300",
                    "--min-samples", "150", "--stderr-target", "0.5",
                    "--out", str(camp)])[0] == 0
    doc = json.loads((camp / "stats.json").read_text())
    assert (doc["total_samples"], doc["stop_reason"]) == (150, "stderr-met")
    code, out, _ = _recompute(camp, tmp_path)
    assert code == 0
    assert "150 log rows reproduce the stored statistics exactly" in out
    code, out, err = _recompute(camp, tmp_path,
                                stats_text=json.dumps(dict(doc, min_samples=100)))
    assert (code, out) == (3, "")
    assert err == ("error:invariant-violation: the stopping rule already holds "
                   "after log row 99 (min_samples 100, stderr_target 0.5), but "
                   "the log runs to 150 rows\n")


# sha256 of every report file for a fixed s27 campaign and oracle, with and
# without --paper-columns.  Recorded before report was rewritten to render
# straight from CampaignStats; any byte change to a report shows here.
REPORT_DIGESTS = {
    False: {
        "flip_summary.csv":
            "8296cc3d93174388e7914881a44ffd55c25d2212c4efdac0d04eccecef6b1ca2",
        "metrics.csv":
            "c75d2976ee183300140816eb4dee8d90ceec454688fb7092eb353ce1bd880d94",
        "oracle_comparison.csv":
            "2a238b21e70ec6c3573eaa71d947d4dd5b581ea702b7928cd193572ce10e3731",
        "outcome_probabilities.csv":
            "c0ce81423b789c0342450ee7a913ea914e574cc0c7eccc9c9143c5a0bda4d0fe",
        "report.txt":
            "6d86b8077c46ca6656eee474750f465091df23e514b38dff58c9216ac7b6a4b4",
    },
    True: {
        "flip_summary.csv":
            "8296cc3d93174388e7914881a44ffd55c25d2212c4efdac0d04eccecef6b1ca2",
        "metrics.csv":
            "c75d2976ee183300140816eb4dee8d90ceec454688fb7092eb353ce1bd880d94",
        "oracle_comparison.csv":
            "954fe90d147f00b3cd36157bfff0b11e10653e38b6ee835063b36a45d94e7a55",
        "outcome_probabilities.csv":
            "ea12dfcee7695b04df2a723f2829d28ee5530e1760464d1b2873d08efb88c27e",
        "report.txt":
            "fde58ae29fa4e3d0fc8a52148b33491182f2474ac942c176eac4f715ec70676c",
    },
}


@pytest.mark.parametrize("paper_columns", [False, True], ids=["nine", "paper"])
def test_report_bytes_are_pinned(tmp_path, paper_columns):
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    common = ["--circuit", str(bench), "--tech", "65nm-like",
              "--stimulus", "random:6:2"]
    camp, orc, rep = tmp_path / "c", tmp_path / "o", tmp_path / "r"
    assert run_cli(["campaign", *common, "--seed", "5", "--max-samples", "300",
                    "--min-samples", "50", "--stderr-target", "0.05",
                    "--capture-policy", "window-random:0.5", "--out", str(camp)])[0] == 0
    assert run_cli(["oracle", *common, "--t-grid", "5", "--out", str(orc)])[0] == 0
    argv = ["report", "--stats", str(camp / "stats.json"), "--log",
            str(camp / "samples.csv"), "--recompute", "--oracle",
            str(orc / "oracle_stats.json"), "--out", str(rep)]
    code, out, _ = run_cli(argv + ["--paper-columns"] * paper_columns)
    assert code == 0
    assert out.startswith("recompute: 300 log rows reproduce the stored statistics exactly\n")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(rep.iterdir())}
    assert digests == REPORT_DIGESTS[paper_columns]


# sha256 of the raw outputs of a fixed s27 campaign under each capture
# policy (stats.json, samples.csv and the --debug-sample replay of a gate
# strike that flips two flops) and of the s27 oracle.  These pin every byte
# the engine writes, at full precision, where the report pins above see
# only 6 significant digits.
RUN_DIGESTS = {
    "instant": {
        "debug_sample_146.txt":
            "50d29164f9be3533b5ef264b83323b8631a39b1138243e4cb8d18d3f7fb1f5ef",
        "samples.csv":
            "d37ae1a6355cd259c22dd8daeb2be185a5fcf65557db4e1a664689f9b75205d3",
        "stats.json":
            "3da458e0906c928ec11a3d1ae593c679533bd56ddaf6aa9f147543f0790998bb",
    },
    "window-random:0.5": {
        "debug_sample_146.txt":
            "a9780b577de8cf425aefe20301ad58d875db9b4c1ec01d52ae8bd23c72076b79",
        "samples.csv":
            "85ad437f5796c0c8825d340140420ee168f5c5a2ea4cec222b66c19b42804257",
        "stats.json":
            "0e7a38d17827ffaf436048307aeb10c16135e905f1328303c3f97e4f927ac3f5",
    },
    "oracle": {
        "oracle_stats.json":
            "99423cf5428d9910c54636991a2b97f19f1b771564e2bdff1a8732005519f4f6",
    },
}


def _s27_run(tmp_path, run):
    bench = tmp_path / "s27.bench"
    bench.write_text(bundled_bench_text("s27"))
    common = ["--circuit", str(bench), "--tech", "65nm-like",
              "--stimulus", "random:6:2", "--seed", "5"]
    out = tmp_path / "out"
    if run == "oracle":
        argv = ["oracle", *common, "--t-grid", "5"]
    else:
        argv = ["campaign", *common, "--max-samples", "300",
                "--min-samples", "50", "--stderr-target", "0.05",
                "--capture-policy", run, "--debug-sample", "146"]
    assert run_cli(argv + ["--out", str(out)])[0] == 0
    return out


@pytest.mark.parametrize("run", list(RUN_DIGESTS))
def test_run_output_bytes_are_pinned(tmp_path, run):
    out = _s27_run(tmp_path, run)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == RUN_DIGESTS[run]


# sha256 of the report files (each name, a NUL byte and its bytes, in name
# order) of a campaign judged against the oracle of the same run, with
# --recompute, for every bundled circuit and profile.  Recorded before the
# stats loader rebuilt documents from their counts: every real document
# still loads, and reads back to the same report.
BUNDLED_REPORT_DIGESTS = {
    ("c17", "180nm-like"):
        "b8ce7b0030416b8c3aa12d5188e765eb2b296207944c1ef2dea051c996dbb46d",
    ("c17", "65nm-like"):
        "9f9c0e5e8278c7afea56f561a3c35fba232f5b3b8fb2df693f5189a456cc56b2",
    ("c17", "toy-equal"):
        "9c12b60708aed741b83834e6851c8a17abbab9fb8075efaca10ca91151a439fa",
    ("s27", "180nm-like"):
        "5ecf75145abbb62b9aef52832ec72074a2db82a6e2ca7f4e9914c35b00961131",
    ("s27", "65nm-like"):
        "7b0e69ecd1be793107f0d127003a5ca1c99af08990cf57b11dc6f229a47cb02a",
    ("s27", "toy-equal"):
        "e4571019cd2e9b9a3f81bde489bdb3ea96ba530eb2cadca03cd31f5c1ea2645e",
    ("decoder3to8", "180nm-like"):
        "d3d233dc4c57fbf319227104d94e2601cd0536bf80a9bd17af5f102b6e4b82ba",
    ("decoder3to8", "65nm-like"):
        "4dbd787b10180fdf861dcaae004c1f9ba0ecec26b36192d8840a8683d14bb932",
    ("decoder3to8", "toy-equal"):
        "e73e07f058cf70ea68655d9509cd1cdff62e27d67a355cc7bcff0619d09d334b",
    ("lfsr8", "180nm-like"):
        "505b714a445f61ff4433a89aa6e10f0813dd4c096773c2e2d52998fc8d91c3b0",
    ("lfsr8", "65nm-like"):
        "75e3fd2d5adbdb796f488acafbc10598e3337b761da25eeefc94600c3e07fb85",
    ("lfsr8", "toy-equal"):
        "5bb29ea052a0dc931bc182300749700245451023fbe2014c82dd54dc73452c9c",
    ("fsm3", "180nm-like"):
        "bf2a84146af7b660bf1ffd87ddc33faba955c10325abaa76e7be148052ed5cc1",
    ("fsm3", "65nm-like"):
        "c740030ecaca78c72cffaaba6410bb1b0bb2ff87c3f828dfba1574a25e402929",
    ("fsm3", "toy-equal"):
        "2d5a12a5fed41dea7ff4979857e27919465e655b0449030205875d865f08b5e7",
    ("toy_chain", "180nm-like"):
        "db32ab9ec6585aa5b9b0e39fd193cdaee2944bcb59049cdea0207f30de5aa2bc",
    ("toy_chain", "65nm-like"):
        "69d7bba404fe5e50330631404017d593e8d2c99220d1b940d54677312b4c8cb7",
    ("toy_chain", "toy-equal"):
        "720321aba6263488d4fb4fb762330e8b6c1db8dd9ba4e197b91f26460c22a135",
    ("toy_fanout", "180nm-like"):
        "3204a7dec5d7e7ec34f141e4fcf3186b571dc97de75da8939fb11319e310aa2a",
    ("toy_fanout", "65nm-like"):
        "eb9e27dcd81598d130f4f39bc32419bffd3f9a0e0b1709524dda071b522a21de",
    ("toy_fanout", "toy-equal"):
        "80c52319e3854fb1445407b8e29f7f84c710b6f4de8ce41f4f94bbf91108f4de",
    ("toy_mask", "180nm-like"):
        "505fa8091ed4f7254507954f648aadb03c540c53dab73307d2dcdf546d6ef85c",
    ("toy_mask", "65nm-like"):
        "db2aa797477760303bc48f8785056bd5ebafb96f597c7527aea399bd3bd3a312",
    ("toy_mask", "toy-equal"):
        "3070907cc04bae249e98dd4b7adfea9b7939fd3228fe71fe870f38a4f3a96d89",
}


@pytest.mark.parametrize("circuit, tech", list(BUNDLED_REPORT_DIGESTS),
                         ids="-".join)
def test_bundled_runs_load_and_report_unchanged(tmp_path, circuit, tech):
    bench = tmp_path / f"{circuit}.bench"
    bench.write_text(bundled_bench_text(circuit))
    common = ["--circuit", str(bench), "--tech", tech, "--stimulus", "random:8:3"]
    camp, orc, rep = tmp_path / "c", tmp_path / "o", tmp_path / "r"
    assert run_cli(["campaign", *common, "--max-samples", "300", "--min-samples", "50",
                    "--out", str(camp)])[0] == 0
    assert run_cli(["oracle", *common, "--t-grid", "7", "--out", str(orc)])[0] == 0
    code, _, err = run_cli(["report", "--stats", str(camp / "stats.json"), "--log",
                            str(camp / "samples.csv"), "--recompute", "--oracle",
                            str(orc / "oracle_stats.json"), "--out", str(rep)])
    assert (code, err) == (0, "")
    digest = hashlib.sha256()
    for path in sorted(rep.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == BUNDLED_REPORT_DIGESTS[circuit, tech]


@pytest.mark.parametrize("policy", ["instant", "window-random:0.5"])
def test_log_tally_serializes_to_the_stored_stats(tmp_path, policy):
    out = _s27_run(tmp_path, policy)
    text = (out / "stats.json").read_text()
    stats = cli.stats_from_dict(json.loads(text))
    with open(out / "samples.csv", encoding="utf-8") as fh:
        rows = read_sample_log(fh)
    rebuilt = dataclasses.replace(stats, **recompute_from_log(rows))
    assert cli.stats_json(rebuilt) == text
