"""Strike-throughput benchmark for ``seusim``.

    python3 perfbench/run.py --workload mc-bundled --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each repetition of the workload runs in its
own fresh child process (``perfbench/worker.py``), one at a time, which
calls ``seusim.cli.main(argv)`` with the argv a user would type.
Repetition j draws its inputs from ``x = seed * 1000 + j``, which feeds both
``--stimulus random:50:<x>`` and ``--seed <x>``; repetitions continue until
``--seconds`` have passed and every metric is the median over them.  Before
measuring, one extra repetition at the default input seed is checked byte
for byte against ``perfbench/digests.json``, recorded with ``--workers 1``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions on ``x = seed * 1000`` and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` (command invocations and output
checks) and ``metrics``.

``--record-digests`` rewrites ``perfbench/digests.json`` from a
``--workers 1`` run at the default seed; run it only on a commit whose
outputs are known good.  See ``perfbench/NOTES.md`` for why each workload
exists and which layer should move which metric.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CIRCUITS = SRC / "seusim" / "data" / "circuits"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

from mulgen import multiplier_bench  # noqa: E402

DEFAULT_SEED = 1
CYCLES = 50
BUNDLED = ("c17", "decoder3to8", "fsm3", "lfsr8", "s27", "toy_chain",
           "toy_fanout", "toy_mask")
BUNDLED_SAMPLES = 4000          # per circuit
MUL12_SAMPLES = 3000
MUL12_WORKERS = 2
ORACLE_T_GRID = 50
# Far below any reachable relative standard error, so the stopping rule is
# evaluated after every sample but never fires.
UNREACHABLE_STDERR = "1e-6"
MIN_REPS = 5
MIN_TRACED_REPS = 3
REP_SEED_STRIDE = 1000
# A run must end within 180 s: no repetition starts after LAST_START_S, and
# a child still running at RUN_LIMIT_S is killed and counted as failed.
LAST_START_S = 120
RUN_LIMIT_S = 170


def _campaign(circuit, tech, seed, samples, out, extra=()):
    return {
        "kind": "strikes",
        "argv": ["campaign", "--circuit", str(circuit), "--tech", tech,
                 "--stimulus", f"random:{CYCLES}:{seed}", "--seed", str(seed),
                 "--max-samples", str(samples),
                 "--stderr-target", UNREACHABLE_STDERR, *extra,
                 "--out", str(out)],
        "stats": out / "stats.json",
        "expect": ("max-samples", samples),
        "outputs": [out / "stats.json", out / "samples.csv"],
    }


def _report(out):
    return {
        "kind": "report",
        "argv": ["report", "--stats", str(out / "stats.json"),
                 "--log", str(out / "samples.csv"), "--recompute",
                 "--out", str(out / "report")],
        "stats": out / "stats.json",
        "outputs": [],
    }


def _setup(circuit, tech, seed):
    return {"circuit": str(circuit), "tech": tech, "cycles": CYCLES,
            "stimulus_seed": seed}


def mc_bundled(out, seed, workers):
    commands, setup = [], []
    for name in BUNDLED:
        path = CIRCUITS / f"{name}.bench"
        commands += [_campaign(path, "65nm-like", seed, BUNDLED_SAMPLES,
                               out / name),
                     _report(out / name)]
        setup.append(_setup(path, "65nm-like", seed))
    return commands, setup


def mc_mul12(out, seed, workers):
    path = out / "mul12.bench"
    path.write_text(multiplier_bench(12), encoding="utf-8")
    commands = [_campaign(path, "65nm-like", seed, MUL12_SAMPLES, out / "mc",
                          ("--capture-policy", "window-random:0.5",
                           "--workers", str(workers))),
                _report(out / "mc")]
    return commands, [_setup(path, "65nm-like", seed)]


def oracle_s27(out, seed, workers):
    path = CIRCUITS / "s27.bench"
    drains = 10 * 2 + 3 * 4      # s27: 10 gates, 3 flops
    oracle = {
        "kind": "strikes",
        "argv": ["oracle", "--circuit", str(path), "--tech", "180nm-like",
                 "--stimulus", f"random:{CYCLES}:{seed}", "--seed", str(seed),
                 "--t-grid", str(ORACLE_T_GRID), "--out", str(out)],
        "stats": out / "oracle_stats.json",
        "expect": ("exhaustive", drains * (CYCLES - 2) * ORACLE_T_GRID),
        "outputs": [out / "oracle_stats.json"],
    }
    return [oracle], [_setup(path, "180nm-like", seed)]


WORKLOADS = {"mc-bundled": mc_bundled, "mc-mul12": mc_mul12,
             "oracle-s27": oracle_s27}


class Run:
    """Repetitions of one workload and the ledger of checked operations."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()

    def more(self, deadline, reps, minimum):
        """Whether to start another repetition."""
        now = time.monotonic()
        return ((now < deadline or len(reps) < minimum)
                and now < self.started + LAST_START_S)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)
        return ok

    def rep(self, seed, trace=False, workers=MUL12_WORKERS):
        """Run the workload once in a fresh child; None if it broke."""
        out = self.workdir / "rep"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        commands, setup = WORKLOADS[self.workload](out, seed, workers)
        spec = {"src": str(SRC), "trace": trace, "setup": setup,
                "commands": [c["argv"] for c in commands]}
        timeout = self.started + RUN_LIMIT_S - time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.check(False, f"child killed after {timeout:.0f} s")
            return None
        if not self.check(proc.returncode == 0,
                          f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}"):
            return None
        child = json.loads(proc.stdout.strip().splitlines()[-1])

        rep = {"setup_s": child["setup_s"],
               "rss_mib": child["maxrss_kib"] / 1024.0,
               "strikes": 0, "strike_wall_s": 0.0, "rows": 0,
               "report_wall_s": 0.0, "wall_s": 0.0, "digests": {},
               "trace": child.get("trace")}
        for cmd, res in zip(commands, child["commands"]):
            rep["wall_s"] += res["wall_s"]
            if not self.check(res["exit"] == 0,
                              f"{' '.join(cmd['argv'][:3])} exited "
                              f"{res['exit']}: {res['stderr'].strip()}"):
                return None
            try:
                stats = json.loads(cmd["stats"].read_text(encoding="utf-8"))
                got = (stats["stop_reason"], stats["total_samples"])
            except (OSError, ValueError, KeyError) as exc:
                self.check(False, f"cannot read {cmd['stats']}: {exc!r}")
                return None
            if cmd["kind"] == "report":
                rep["rows"] += got[1]
                rep["report_wall_s"] += res["wall_s"]
                continue
            self.check(got == cmd["expect"],
                       f"{cmd['stats']}: stop/samples {got}, "
                       f"expected {cmd['expect']}")
            rep["strikes"] += got[1]
            rep["strike_wall_s"] += res["wall_s"]
            for path in cmd["outputs"]:
                rep["digests"][str(path.relative_to(out))] = _sha256(path)
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def check_digests(self, got, want, label):
        for name in sorted(set(got) | set(want)):
            self.check(got.get(name) == want.get(name),
                       f"{label}: {name} digest {got.get(name)}, "
                       f"expected {want.get(name)}")


def _sha256(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def _log(rep, label):
    print(f"rep {label} wall={rep['wall_s']:.3f}s strikes={rep['strikes']} "
          f"setup={rep['setup_s'] * 1e3:.2f}ms rss={rep['rss_mib']:.1f}MiB",
          flush=True)


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def measure(run, seed, seconds):
    """End-to-end metrics, each the median over the repetitions.

    Repetition j runs on inputs made from ``seed * REP_SEED_STRIDE + j``:
    the cost of a strike is heavy-tailed (a few register strikes reach
    hundreds of flops), so one input set per run would make the run's
    figure follow its seed rather than the program.
    """
    reps = []
    deadline = time.monotonic() + seconds
    while run.more(deadline, reps, MIN_REPS):
        rep = run.rep(seed * REP_SEED_STRIDE + len(reps))
        if rep is None:
            return {}
        _log(rep, "plain")
        reps.append(rep)
    if not reps:
        return {}
    return {
        "strikes_per_s": (statistics.median(
            r["strikes"] / r["strike_wall_s"] for r in reps), "strikes/s"),
        "setup_s": (_median(reps, "setup_s"), "s"),
        "peak_rss_mib": (_median(reps, "rss_mib"), "MiB"),
    }


def measure_traced(run, seed, seconds):
    """Per-layer metrics from traced repetitions of one input set.

    Untraced and traced repetitions alternate on the same inputs, so every
    repetition must write the same bytes and every count must repeat; the
    times are medians and the overhead compares the two medians.
    """
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while run.more(deadline, traced, MIN_TRACED_REPS):
        for reps, trace in ((plain, False), (traced, True)):
            rep = run.rep(seed * REP_SEED_STRIDE, trace=trace)
            if rep is None:
                return {}
            _log(rep, "traced" if trace else "plain")
            if plain:
                run.check_digests(rep["digests"], plain[0]["digests"],
                                  f"seed {seed} repeat")
            reps.append(rep)
    if not traced:
        return {}
    counts = [{k: v for k, (v, unit) in r["trace"].items() if unit != "s"}
              for r in traced]
    run.check(all(c == counts[0] for c in counts),
              "traced counts differ between repetitions")
    metrics = {}
    for name, (value, unit) in traced[0]["trace"].items():
        if unit == "s":
            value = statistics.median(r["trace"][name][0] for r in traced)
        metrics[name] = (value, unit)
    metrics["report_rows_per_s"] = (statistics.median(
        r["rows"] / r["report_wall_s"] if r["report_wall_s"] else 0.0
        for r in plain), "rows/s")
    metrics["trace.overhead_ratio"] = (
        _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0, "ratio")
    return metrics


def check_default_seed(run):
    """Compare one repetition at the default seed with the recorded bytes."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    rep = run.rep(DEFAULT_SEED)
    if rep is not None:
        run.check_digests(rep["digests"], recorded[run.workload],
                          f"seed {DEFAULT_SEED} vs {DIGESTS.name}")


def record_digests(workdir):
    doc = {}
    for workload in WORKLOADS:
        run = Run(workload, workdir)
        rep = run.rep(DEFAULT_SEED, workers=1)
        if rep is None or run.failed:
            raise SystemExit(f"{workload}: run failed, digests not written")
        doc[workload] = rep["digests"]
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "seusim" / "cli.py").is_file():
        parser.exit(2, f"error: no seusim sources under {SRC}\n")
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workdir = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        if args.record_digests:
            record_digests(workdir)
            return 0
        run = Run(args.workload, workdir)
        check_default_seed(run)
        metrics = (measure_traced if args.trace else measure)(
            run, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()      # only if no other run is using it
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
