"""Run one benchmark workload in this process.

Started by run.py, which pins BLAS to one thread and puts the checkout's
``src`` first on the import path; run it through run.py. The current
directory is the repository root.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import kframelab
from kframelab import PROPERTY_IDS, load_scenario, run_suite
from kframelab import cli

import envinfo
from layer_trace import LAYERS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, "_work")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

MIN_SETUPS = 5
MIN_TIMED_CALLS = 3
SETUP_CHILD = (
    "import sys, time\n"
    "import kframelab\n"
    "kframelab.load_scenario(sys.argv[1])\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

# Per layer, the functions whose calls per property-trial are reported.
COUNTED = {
    "hilbert": ("svd", "pinv", "op_norm", "loewner_leq", "range_inclusion"),
    "linalg": ("svd", "eigvalsh", "qr"),
    "frames": ("classify", "k_lower_bound", "synthesis_kernel_basis"),
    "duality": ("canonical_dual", "build_dual_from_phi"),
    "scenario": ("build_k", "build_frame"),
}


class Gate:
    """Counts property runs and the ones that fail any correctness check.

    An outcome maps a property id to [passed, worst check, max residual].
    """

    def __init__(self, props):
        self.props = props
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def report(self, outcome, first, reference=None) -> None:
        """Check one `verify` call's outcome against the warm-up call's
        outcome and, when given, the recorded reference."""
        for pid in self.props:
            self.attempted += 1
            got = (outcome or {}).get(pid)
            if got is None:
                self.fail(f"{pid}: raised or missing from the report")
            elif not got[0]:
                self.fail(f"{pid}: verdict is not pass")
            elif got != (first or {}).get(pid):
                self.fail(f"{pid}: {got} differs from the first run {(first or {}).get(pid)}")
            elif reference is not None and got != reference.get(pid):
                self.fail(f"{pid}: {got} differs from the reference {reference.get(pid)}")


def read_outcome(stdout_text: str, report_path: str) -> dict:
    """Exact residuals and verdicts from the JSON report; worst checks from
    the text table, the only output that names them for passing runs."""
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    worst = {}
    for line in stdout_text.splitlines():
        parts = line.split()
        if len(parts) == 6 and parts[5] in ("pass", "FAIL"):
            worst[parts[0]] = parts[4]
    return {p["id"]: [p["pass"], worst.get(p["id"]), p["max_residual"]] for p in report["properties"]}


def verify_once(argv, report_path):
    """One `kframelab verify` call through the CLI: (seconds, outcome or None)."""
    if os.path.exists(report_path):
        os.remove(report_path)
    text = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    if code == cli.EXIT_USAGE:
        return elapsed, None
    return elapsed, read_outcome(text.getvalue(), report_path)


def setup_once(config_path: str) -> float:
    """Seconds from starting a fresh interpreter to a validated scenario."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, config_path],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def tail_percentile(count: int) -> int:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    return max(q for q in (50, 75, 90, 95, 99) if count * (100 - q) >= 1000)


class Replayer:
    """Replays (property, trial) pairs as one-trial scenarios, in a fixed
    cycle, through ``Scenario.replay`` and ``run_suite``. Every replay of a
    pair must repeat the first one exactly."""

    def __init__(self, scenario, props, replay_trials: int, gate: Gate):
        self.scenario = scenario
        self.gate = gate
        self.pairs = [(pid, scenario.trial_offset + t) for t in range(replay_trials) for pid in props]
        self.latencies = {pair: [] for pair in self.pairs}
        self.seen = {}
        self.done = 0

    def step(self) -> None:
        pid, trial = pair = self.pairs[self.done % len(self.pairs)]
        self.done += 1
        self.gate.attempted += 1
        start = time.perf_counter()
        try:
            rec = run_suite(self.scenario.replay(trial), [pid]).properties[0]
        except Exception:
            traceback.print_exc()
            self.gate.fail(f"{pid} trial {trial}: replay raised")
            return
        self.latencies[pair].append((time.perf_counter() - start) * 1000.0)
        got = (rec.passed, rec.worst_check, rec.max_residual)
        if not rec.passed:
            self.gate.fail(f"{pid} trial {trial}: replay verdict is not pass")
        elif self.seen.setdefault(pair, got) != got:
            self.gate.fail(f"{pid} trial {trial}: replay {got} differs from {self.seen[pair]}")

    @property
    def covered(self) -> bool:
        return self.done >= len(self.pairs)

    def check_worst(self, first, trials: int) -> None:
        """The replays of the full run's trials must rebuild each property's
        worst check and residual bit for bit. They are folded the way
        run_suite folds trials: a later trial wins only if strictly worse."""
        for pid in self.gate.props:
            worst = None
            for t in range(trials):
                rec = self.seen.get((pid, self.scenario.trial_offset + t))
                if rec is not None and (worst is None or rec[2] > worst[2]):
                    worst = rec
            full = (first or {}).get(pid)
            if worst is None or full is None or [worst[1], worst[2]] != full[1:]:
                self.gate.fail(f"{pid}: worst-trial replay {worst} does not reproduce the full run {full}")

    def pair_ms(self):
        """Per pair, the median of its replay latencies."""
        return [statistics.median(v) for v in self.latencies.values() if v]


def measure(wl, argv, report_path, config_path, gate, first, seconds):
    """End-to-end metrics from one closed loop. Each round starts a fresh
    interpreter for set-up, makes one verify call, then replays pairs for
    about half as long as that call took, so all three metrics sample the
    same stretch of time."""
    replayer = Replayer(load_scenario(config_path), gate.props, wl.replay_trials, gate)
    setups, call_s = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(call_s) < MIN_TIMED_CALLS or not replayer.covered:
        setups.append(setup_once(config_path))
        elapsed, outcome = verify_once(argv, report_path)
        gate.report(outcome, first)
        call_s.append(elapsed)
        chunk_end = time.perf_counter() + elapsed / 2.0
        replayer.step()
        while time.perf_counter() < chunk_end:
            replayer.step()
    while len(setups) < MIN_SETUPS:
        setups.append(setup_once(config_path))
    replayer.check_worst(first, wl.trials_per_call)

    ptrials = wl.trials_per_call * len(gate.props)
    pair_ms = replayer.pair_ms()
    q = tail_percentile(len(pair_ms))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "property_trials_per_s": (statistics.median(ptrials / t for t in call_s), "1/s"),
        "replay_ms_p50": (statistics.median(pair_ms), "ms"),
        "replay_ms_tail": (statistics.quantiles(pair_ms, n=100, method="inclusive")[q - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "property_trials_per_s": f"median of {len(call_s)} verify calls, {ptrials} property-trials each",
        "replay_ms_p50": f"over {len(pair_ms)} (property, trial) pairs, each the median of its replays",
        "replay_ms_tail": f"p{q} of {len(pair_ms)} pairs, {replayer.done} replays in all",
    }
    return metrics, details


def measure_layers(wl, argv, report_path, gate, first, seconds):
    """Per-layer metrics. Untraced and traced verify calls alternate, so
    the tracing overhead compares calls made in the same stretch of time."""
    tracer = Tracer()
    untraced, traced, per_call_counts = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        elapsed, outcome = verify_once(argv, report_path)
        gate.report(outcome, first)
        untraced.append(elapsed)
        mark = len(tracer)
        tracer.new_scope()
        undo = tracer.install()
        try:
            elapsed, outcome = verify_once(argv, report_path)
        finally:
            undo()
        gate.report(outcome, first)
        traced.append(elapsed)
        per_call_counts.append(tracer.counts(mark))
    if any(c != per_call_counts[0] for c in per_call_counts):
        gate.fail("span counts differ between identical traced calls")
    metrics = layer_metrics(tracer, len(traced), wl, gate.props, os.path.getsize(report_path))
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    details = {"trace": f"{len(traced)} traced calls alternating with {len(untraced)} untraced, {len(tracer)} spans"}
    return metrics, details, tracer


def load_reference(workload: str, seed: int, env: dict):
    """The recorded outcome to compare against, or None with the reason."""
    if seed != DEFAULT_SEED:
        return None, f"seed {seed} is not the reference seed {DEFAULT_SEED}"
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if recorded["fingerprint"] != envinfo.fingerprint(env):
        return None, f"environment {envinfo.fingerprint(env)} differs from {recorded['fingerprint']}"
    return recorded["workloads"][workload], "exact"


def layer_metrics(tracer, calls: int, wl, props, report_bytes: int) -> dict:
    """Per-layer metrics; counts, flops and self times are per property-trial,
    report and cli figures per verify call."""
    trials = calls * wl.trials_per_call
    ptrials = trials * len(props)
    stats = tracer.summary()
    self_ns = dict.fromkeys(LAYERS + ("linalg",), 0)
    for name, (_, _, own) in stats.items():
        self_ns[name.split(".")[0]] += own

    def calls_of(name):
        return (stats.get(name, (0, 0, 0))[0] / ptrials, "count")

    def self_ms(layer):
        return (self_ns[layer] / 1e6 / ptrials, "ms")

    m = {}
    for f in COUNTED["hilbert"]:
        m[f"hilbert.{f}.calls"] = calls_of(f"hilbert.{f}")
    m["hilbert.self_ms"] = self_ms("hilbert")
    for f in COUNTED["linalg"]:
        m[f"linalg.{f}.calls"] = (tracer.linalg.calls[f] / ptrials, "count")
    m["linalg.svd.flops_computed"] = (tracer.linalg.flops["svd"] / ptrials, "flop")
    m["linalg.self_ms"] = self_ms("linalg")
    for f in COUNTED["frames"]:
        m[f"frames.{f}.calls"] = calls_of(f"frames.{f}")
    classify_calls = stats.get("frames.classify", (0, 0, 0))[0]
    m["frames.classify.useful_ratio"] = (tracer.classify_distinct / max(classify_calls, 1), "ratio")
    m["frames.self_ms"] = self_ms("frames")
    for layer in ("duality", "scenario"):
        for f in COUNTED[layer]:
            m[f"{layer}.{f}.calls"] = calls_of(f"{layer}.{f}")
        m[f"{layer}.self_ms"] = self_ms(layer)
    for pid in PROPERTY_IDS:
        m[f"suites.{pid}.ms_per_trial"] = (stats.get(f"suites.{pid}", (0, 0, 0))[1] / 1e6 / trials, "ms")
    m["suites.self_ms"] = self_ms("suites")
    m["rng.stream.calls"] = calls_of("rng.stream")
    m["rng.self_ms"] = self_ms("rng")
    measure_calls = sum(c for name, (c, _, _) in stats.items() if name.startswith("measure."))
    m["measure.calls"] = (measure_calls / ptrials, "count")
    m["measure.self_ms"] = self_ms("measure")
    m["report.emit_ms"] = (stats.get("report.emit_report", (0, 0, 0))[1] / 1e6 / calls, "ms")
    m["report.bytes"] = (float(report_bytes), "bytes")
    m["cli.self_ms"] = (self_ns["cli"] / 1e6 / calls, "ms")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> int:
    wl = WORKLOADS[workload]
    props = list(wl.properties or PROPERTY_IDS)
    os.makedirs(WORK_DIR, exist_ok=True)
    stem = os.path.join(WORK_DIR, f"{workload}-trace{int(trace)}")
    config_path, report_path = stem + ".scenario.json", stem + ".report.json"
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(wl.scenario_doc(seed), handle, indent=2)
    argv = ["verify", "--config", config_path, "--report", report_path]
    if wl.properties is not None:
        argv += ["--properties", ",".join(props)]
    env = envinfo.environment(os.path.join(os.getcwd(), "src"))
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(env))

    gate = Gate(props)
    # Untimed warm-up; its outcome anchors the repeat and replay checks.
    _, first = verify_once(argv, report_path)
    if record:
        print(json.dumps({"fingerprint": envinfo.fingerprint(env), "outcome": first}))
        return 0 if first is not None else 1
    reference, reference_mode = load_reference(workload, seed, env)
    gate.report(first, first, reference)
    print(f"reference check: {reference_mode}")
    if trace:
        metrics, details, tracer = measure_layers(wl, argv, report_path, gate, first, seconds)
        tracer.dump(stem + ".spans.npz")
    else:
        metrics, details = measure(wl, argv, report_path, config_path, gate, first, seconds)

    failed_frac = gate.failed / max(gate.attempted, 1)
    for name, (value, unit) in metrics.items():
        note = f"  ({details[name]})" if name in details else ""
        print(f"{name:<40} {value:>16.6g} {unit}{note}")
    for name, note in details.items():
        if name not in metrics:
            print(f"{name}: {note}")
    print(f"failed_frac {failed_frac:g} ({gate.failed} of {gate.attempted} property runs failed)")
    for problem in gate.problems:
        print(f"problem: {problem}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".result.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, env=env, details=details, failed_frac=failed_frac, problems=gate.problems), handle, indent=2)
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="print the warm-up outcome and exit")
    args = parser.parse_args()
    src = os.path.realpath("src")
    if not os.path.realpath(kframelab.__file__).startswith(src + os.sep):
        print(f"error: kframelab was imported from {kframelab.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
