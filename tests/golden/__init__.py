"""Golden digests of the verifier's output bits.

For each scenario of :data:`SCENARIOS` and each property, one SHA-256
over the per-trial check lists the runner folds into the report (trial
index, check name and ``float.hex`` of the residual, in order), plus one
SHA-256 over the report without its timing and environment fields, so
witnesses are covered too. The digests hold for one build fingerprint,
the one ``perfbench/envinfo.py`` computes (numpy, BLAS and its threads);
``golden.json`` records it next to the verdicts and worst checks.

Regenerate with ``python tests/golden/regenerate.py`` from the
repository root, and say in CHANGES.md which bits changed and why.
"""

import hashlib
import importlib.util
import json
import os
import sys
from typing import Dict, List, Sequence

from kframelab import suites
from kframelab.fixtures import fixture_scenario
from kframelab.report import report_to_dict
from kframelab.scenario import Scenario, scenario_from_dict

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "golden.json")
ROOT = os.path.dirname(os.path.dirname(GOLDEN_DIR))


def _readme(**overrides) -> dict:
    doc = {
        "dim": 3,
        "atoms": 7,
        "weights": [0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75],
        "k_spec": {"kind": "random-rank", "rank": 2, "seed": 5},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
        "tolerances": {},
        "trials": 20,
        "seed": 42,
    }
    doc.update(overrides)
    return doc


# Every property runs on every scenario, except where PROPERTIES says otherwise.
SCENARIOS: Dict[str, dict] = {
    "readme-seed-42": _readme(trials=30),
    "readme-seed-1": _readme(seed=1),
    "readme-seed-7": _readme(seed=7),
    "readme-seed-123": _readme(seed=123),
    # Every property with a nonzero residual fails, so the report digest
    # covers the witnesses.
    "readme-witnesses": _readme(trials=10, tolerances={pid: 1e-300 for pid in suites.PROPERTY_IDS}),
    "unique-dual": {
        "dim": 6,
        "atoms": 4,
        "weights": [0.5, 2.0, 1.0, 1.5],
        "k_spec": {"kind": "random-rank", "rank": 4, "seed": 5},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
        "trials": 20,
        "seed": 42,
    },
    "identity-k": _readme(k_spec={"kind": "identity"}, trials=10, seed=3),
    "diagonal-k": _readme(k_spec={"kind": "diagonal", "values": [2.0, [0.0, 0.5], 0.0]}, trials=10, seed=5),
    "zero-k": _readme(k_spec={"kind": "diagonal", "values": [0.0, 0.0, 0.0]}, trials=10, seed=13),
    "explicit-k": _readme(
        k_spec={
            "kind": "explicit",
            "matrix": [[1.0, [0.5, -0.25], 0.0], [[0.0, 1.0], 0.25, 0.5], [0.5, [0.5, 0.5], -1.0]],
        },
        trials=10,
        seed=17,
    ),
    # The synthesis kernel has width one.
    "atoms-equal-dim": _readme(atoms=3, weights=[0.5, 2.0, 1.0], trials=10, seed=19),
    # Not a Parseval K-frame, so only l3 runs on it.
    "random-bessel": _readme(frame_spec={"kind": "random-bessel", "seed": 9}, trials=10, seed=23),
    "dim-1": {
        "dim": 1,
        "atoms": 3,
        "weights": [1.0, 0.5, 2.0],
        "k_spec": {"kind": "random-rank", "rank": 1, "seed": 2},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 4},
        "trials": 10,
        "seed": 11,
    },
    "w1": fixture_scenario("W1", trials=20),
    "w1p": fixture_scenario("W1p", trials=20),
    "d24-m96": _readme(
        dim=24,
        atoms=96,
        weights=[0.5, 2.0, 1.0, 1.5] * 24,
        k_spec={"kind": "random-rank", "rank": 12, "seed": 5},
        trials=3,
        seed=29,
    ),
}

PROPERTIES: Dict[str, Sequence[str]] = {"random-bessel": ("l3",)}


def build_fingerprint() -> dict:
    """The fingerprint of ``perfbench/envinfo.py``, loaded from its file
    without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_golden_envinfo", os.path.join(ROOT, "perfbench", "envinfo.py"))
    envinfo = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(envinfo)
    finally:
        sys.dont_write_bytecode = dont_write
    return envinfo.fingerprint(envinfo.environment(os.path.join(ROOT, "src")))


def _check_lists(sc: Scenario, props: Sequence[str]) -> List[list]:
    """Per property, the (trial, check list) pairs of every trial, chunked
    as :func:`kframelab.suites.run_suite` chunks them."""
    size = max(1, suites._CHUNK_BYTES // suites._trial_bytes(sc))
    out: List[list] = [[] for _ in props]
    for first in range(0, sc.trials, size):
        indices = range(sc.trial_offset + first, sc.trial_offset + min(first + size, sc.trials))
        chunk = suites._Chunk(sc, indices)
        for j, per_trial in enumerate(suites._run_chunk(chunk, props)):
            out[j].extend(zip(chunk.indices, per_trial))
    return out


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scenario_record(doc: dict, props: Sequence[str] = suites.PROPERTY_IDS) -> dict:
    """Verdicts, worst checks and digests of one scenario document, over
    the properties ``props``."""
    sc = scenario_from_dict(doc)
    run = suites.run_suite(sc, props)
    records = {rec.prop_id: rec for rec in run.properties}
    report = report_to_dict(run)
    report.pop("wall_time_ms")
    report.pop("meta")
    checks = {}
    for pid, trials in zip(props, _check_lists(sc, props)):
        lines = [f"{index}\t{name}\t{float(value).hex()}" for index, per_trial in trials for name, value in per_trial]
        checks[pid] = {
            "pass": records[pid].passed,
            "worst_check": records[pid].worst_check,
            "sha256": _sha256(lines),
        }
    return {"report_sha256": _sha256([json.dumps(report, sort_keys=True, allow_nan=False)]), "properties": checks}


def compute() -> dict:
    return {
        "fingerprint": build_fingerprint(),
        "scenarios": {
            name: scenario_record(doc, PROPERTIES.get(name, suites.PROPERTY_IDS)) for name, doc in SCENARIOS.items()
        },
    }
