"""Benchmark of `kframelab verify`; run from the repository root.

    python3 perfbench/run.py --workload small-dense --seed 42 --seconds 30 --trace 0

Starts a fresh worker process per run with BLAS pinned to one thread and
the checkout's ``src`` first on the import path, so the package under
test is the one in this checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). See README.md in this directory.

``--record-reference`` re-records reference.json, the per-property
outcomes at the default seed that later runs must reproduce exactly.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
WORKER_TIMEOUT_S = 170
# One BLAS thread: run times and residual bits both depend on the count.
# No bytecode files: every set-up compiles src/ the same way, and the
# benchmark writes nothing into src/.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker_env() -> dict:
    env = dict(os.environ, **FIXED_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, WORKER, *args],
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )


def record_reference() -> int:
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in sorted(WORKLOADS):
        done = run_worker(["--workload", name, "--seed", str(DEFAULT_SEED), "--record"])
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        if recorded.setdefault("fingerprint", last["fingerprint"]) != last["fingerprint"]:
            print("error: workers ran under different environments", file=sys.stderr)
            return 1
        recorded["workloads"][name] = last["outcome"]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of kframelab verify.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "kframelab", "__init__.py")):
        print("error: src/kframelab not found; run from the repository root", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        done = run_worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
    except subprocess.TimeoutExpired:
        print(f"error: the worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print(f"error: the worker exited with code {done.returncode}", file=sys.stderr)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
