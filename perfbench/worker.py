"""One repetition of a benchmark workload, run in a fresh child process.

``python3 perfbench/worker.py '<spec json>'`` imports ``seusim`` from the
spec's ``src`` directory, times the workload's set-up path by calling the
library directly, then runs each command through ``seusim.cli.main(argv)``
exactly as a user would type it.  With ``"trace": true`` the public
functions of every module are wrapped first, at the name their caller looks
up, and the per-layer counts and times are added to the result.  The
result is printed as one JSON line on stdout.
"""

import contextlib
import io
import json
import resource
import sys
import threading
import time
from importlib import import_module
from pathlib import Path

# (metric name, module the caller looks the name up in, attribute there).
# Private names may disappear in a refactor; the tracer then reports their
# metrics as absent instead of failing.
TRACED = (
    ("cli.main", "seusim.cli", "main"),
    ("netlist.parse_bench", "seusim.cli", "parse_bench"),
    ("netlist.validate", "seusim.cli", "validate"),
    ("netlist.wrap_combinational", "seusim.cli", "wrap_combinational"),
    ("techmodel.load_bundled_profile", "seusim.cli", "load_bundled_profile"),
    ("golden.simulate_reference", "seusim.cli", "simulate_reference"),
    ("techmodel.enumerate_drains", "seusim.campaign", "enumerate_drains"),
    ("injector.SimContext.build", "seusim.injector", "SimContext.build"),
    ("campaign.run_campaign", "seusim.campaign", "run_campaign"),
    ("campaign.exhaustive_campaign", "seusim.campaign",
     "exhaustive_campaign"),
    ("campaign.sample_rng", "seusim.campaign", "sample_rng"),
    ("campaign.sample_strike", "seusim.campaign", "sample_strike"),
    ("campaign._criterion_met", "seusim.campaign", "_criterion_met"),
    ("campaign.classify", "seusim.campaign", "classify"),
    ("injector.run_sample", "seusim.campaign", "run_sample"),
    ("injector.disturb_gate", "seusim.injector", "disturb_gate"),
    ("injector.disturb_register", "seusim.injector", "disturb_register"),
    ("injector._propagate", "seusim.injector", "_propagate"),
    ("injector._capture_all", "seusim.injector", "_capture_all"),
    ("campaign.sample_log_text", "seusim.campaign", "sample_log_text"),
    ("cli.stats_json", "seusim.cli", "stats_json"),
    ("campaign.read_sample_log", "seusim.campaign", "read_sample_log"),
    ("campaign.recompute_from_log", "seusim.cli", "recompute_from_log"),
    ("cli.stats_from_dict", "seusim.cli", "stats_from_dict"),
    ("cli.build_report", "seusim.cli", "build_report"),
    ("cli.render_text", "seusim.cli", "render_text"),
)


class _ThreadState:
    """Span stack and accumulators of one thread; merged after the run."""

    def __init__(self):
        self.stack = []          # per open span: ns covered by its children
        self.spans = {}          # name -> [calls, busy_ns, self_ns]
        self.keys = set()        # distinct (drain, k) in this invocation
        self.counts = {"strikes": 0, "gate": 0, "flipped": 0,
                       "propagations": 0, "pulses": 0, "pulses_max": 0}


class Tracer:
    """Wraps library functions in place and times them per thread.

    Each thread keeps its own span stack, so a strike running on a pool
    thread never subtracts from a span open on another thread, and self
    time (busy time minus the time covered by wrapped children on the same
    thread) stays non-negative.  Times are integer nanoseconds.
    """

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._missing = set()
        self._broken = set()       # observers whose target changed shape
        self._distinct_keys = 0
        self._observers = {"injector.run_sample": self._on_strike,
                           "injector._propagate": self._on_propagate}

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def install(self):
        for name, module_name, attr in TRACED:
            owner = import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = getattr(owner, leaf)
            except AttributeError:
                self._missing.add(name)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(leaf, raw)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, leaf, self._wrap(name, raw))

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                acc = state.spans.get(name)
                if acc is None:
                    acc = state.spans[name] = [0, 0, 0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - covered
            if observe is not None and name not in self._broken:
                try:
                    observe(state, args, kwargs, result)
                except (AttributeError, TypeError):
                    self._broken.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _on_strike(state, args, kwargs, result):
        sample = kwargs.get("sample")
        if sample is None:
            sample = next((a for a in args
                           if hasattr(a, "drain") and hasattr(a, "k")), None)
        state.keys.add((sample.drain.id, sample.k))
        c = state.counts
        c["strikes"] += 1
        c["gate"] += sample.strike_class == "gate"
        c["flipped"] += bool(result.flips_e1 or result.flips_e2)

    @staticmethod
    def _on_propagate(state, args, kwargs, result):
        n = sum(len(events) for events in result.values())
        c = state.counts
        c["propagations"] += 1
        c["pulses"] += n
        c["pulses_max"] = max(c["pulses_max"], n)

    def end_invocation(self):
        """Fold this command's distinct strike keys into the running total.

        Keys are counted per command because drain ids repeat across
        circuits.
        """
        with self._lock:
            keys = set()
            for state in self._states:
                keys |= state.keys
                state.keys = set()
            self._distinct_keys += len(keys)

    def metrics(self):
        spans, counts = {}, {}
        for state in self._states:
            for name, (calls, busy, self_ns) in state.spans.items():
                acc = spans.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += self_ns
            for key, value in state.counts.items():
                if key == "pulses_max":
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        out = {}
        for name, _, _ in TRACED:
            if name in self._missing:
                continue
            calls, busy, self_ns = spans.get(name, (0, 0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns / 1e9, "s")
        strikes = counts.get("strikes", 0)
        if strikes and not {"injector.run_sample"} & (self._missing
                                                     | self._broken):
            out["campaign.strike_key_reuse_ratio"] = (
                1.0 - self._distinct_keys / strikes, "ratio")
            out["campaign.gate_strike_share"] = (
                counts["gate"] / strikes, "ratio")
            out["injector.flip_ratio"] = (counts["flipped"] / strikes,
                                          "ratio")
        props = counts.get("propagations", 0)
        if props and not {"injector._propagate"} & (self._missing
                                                    | self._broken):
            out["injector.pulses_at_flops.mean"] = (counts["pulses"] / props,
                                                    "count")
            out["injector.pulses_at_flops.max"] = (counts["pulses_max"],
                                                   "count")
        return out


def time_setup(circuits):
    """Wall time of the path a campaign runs before its first strike.

    Called directly on the workload's inputs and summed over its circuits;
    the files are read before the clock starts.
    """
    from seusim.golden import Stimulus, simulate_reference
    from seusim.injector import SimContext
    from seusim.netlist import parse_bench, validate, wrap_combinational
    from seusim.techmodel import enumerate_drains, load_bundled_profile

    total = 0.0
    for item in circuits:
        path = Path(item["circuit"])
        text = path.read_text(encoding="utf-8")
        t0 = time.perf_counter()
        circuit = parse_bench(text, name=path.stem)
        if not validate(circuit).ok:
            raise SystemExit(f"setup: {path} fails validation")
        if not circuit.flops:
            circuit = wrap_combinational(circuit)
        profile = load_bundled_profile(item["tech"])
        simulate_reference(
            circuit, Stimulus.random(item["cycles"], item["stimulus_seed"]))
        SimContext.build(circuit, profile)
        enumerate_drains(circuit, profile)
        total += time.perf_counter() - t0
    return total


def main(spec):
    sys.path.insert(0, spec["src"])
    import seusim.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(seusim.cli.__file__).resolve().parents:
        raise SystemExit(f"seusim imported from {seusim.cli.__file__}, "
                         f"not from {src}")
    result = {"setup_s": time_setup(spec["setup"]), "commands": []}
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = seusim.cli.main(argv)
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_invocation()
        result["commands"].append({"exit": code, "wall_s": wall,
                                   "stderr": err.getvalue()[-2000:]})
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
