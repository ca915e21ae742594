"""Golden digests of the verifier's output bits.

For each scenario of :data:`SCENARIOS` and each property, one SHA-256
over the check tables the runner folds into the report (one line of
trial index, check name and ``float.hex`` of the residual per entry, in
trial and then check order), plus one
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

import numpy as np

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


# A rank-2 K on C^3: its third row is the sum of the first two, and its
# null space is spanned by (1, -1, 1), so P = K^+ K = I - n n^T.
LEGENDRE_K = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
# A complex rank-2 K on C^3, again with third row the sum of the first two.
CIRCLE_K = np.array([[1.0, 0.5j, 0.0], [0.0, 1.0, -0.5j], [1.0, 1.0 + 0.5j, -0.5j]])


def legendre_instance(nodes: int):
    """The Gauss-Legendre weights of N = ``nodes`` nodes x_i, the first
    three orthonormal Legendre polynomials psi_j = sqrt((2j + 1) / 2) P_j at
    the nodes, and the samples F_i = K psi(x_i), K = ``LEGENDRE_K``. The
    rule is exact up to degree 2 N - 1 (Golub & Welsch 1969), so for N >= 2
    sum_i w_i psi(x_i) psi(x_i)* = I and the frame operator is K K*."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    psi = np.stack([np.sqrt((2 * j + 1) / 2.0) * np.polynomial.legendre.Legendre.basis(j)(x) for j in range(3)], axis=1)
    return w, psi, psi @ LEGENDRE_K.T


def circle_instance(nodes: int):
    """The weights 1/N of N = ``nodes`` equispaced angles theta_i = 2 pi i /
    N, psi(theta) = (e^{i j theta})_{j=0..2} at the angles, and the samples
    F_i = K psi(theta_i), K = ``CIRCLE_K``. The trapezoid rule integrates
    e^{i (j - k) theta} against d theta / 2 pi exactly when N > |j - k|
    (Trefethen & Weideman 2014), so for N >= 3 sum_i w_i psi psi* = I and
    the frame operator is K K*."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    psi = np.exp(1j * np.outer(theta, np.arange(3)))
    return np.full(nodes, 1.0 / nodes), psi, psi @ CIRCLE_K.T


def _pairs(a: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex).tolist()]


def analytic_doc(instance, k: np.ndarray, nodes: int, trials: int = 10, seed: int = 3) -> dict:
    """The explicit scenario of an analytic Parseval K-frame sampled on
    ``nodes`` nodes by ``instance`` (:func:`legendre_instance` or
    :func:`circle_instance`)."""
    w, _, samples = instance(nodes)
    return {
        "dim": 3,
        "atoms": nodes,
        "weights": w.tolist(),
        "k_spec": {"kind": "explicit", "matrix": _pairs(k)},
        "frame_spec": {"kind": "explicit", "samples": _pairs(samples)},
        "trials": trials,
        "seed": seed,
    }


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
    # K's second singular value sits 5% above K's rank cut and below the
    # synthesis map's wider one: the kernel is cut at the larger rank.
    "near-cut-k": _readme(k_spec={"kind": "diagonal", "values": [1, 3.1622776601683795e-10, 0]}, trials=10),
    # K's second singular value, 7e-10, sits above K's rank cut and near
    # the synthesis map's: rank B is 1 on 16 trials and 2 on the other 4,
    # so l3's chunk holds trials of both ranks of B.
    "mixed-rank-b": _readme(k_spec={"kind": "diagonal", "values": [1.0, 7e-10, 0.0]}),
    # S = diag(1, 1e-12) passes the Parseval check against K K* = diag(1, 0),
    # but rank B = 2 > rank K = 1 (ROADMAP item 2's risk).
    "loose-parseval-explicit": {
        "dim": 2,
        "atoms": 3,
        "weights": [1.0, 1.0, 1.0],
        "k_spec": {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 0.0]]},
        "frame_spec": {
            "kind": "explicit",
            "samples": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 1e-6]],
        },
        "trials": 10,
        "seed": 42,
    },
    # ||K K* - S|| = 1e-18 passes the Parseval check, but rank K = 2 > m = 1,
    # so m - rank K < 0: the kernel width is clamped at 0.
    "k-rank-above-atoms": {
        "dim": 2,
        "atoms": 1,
        "weights": "uniform",
        "k_spec": {"kind": "diagonal", "values": [1.0, 1e-9]},
        "frame_spec": {"kind": "explicit", "samples": [[1.0, 0.0]]},
        "trials": 10,
        "seed": 42,
    },
    # K = Q diag(1, 3e-8, 0) Q^T, Q from the QR of a seeded 3 x 3 normal
    # draw: cond(K) = 3.3e7 on its range, past what the checks resolve, so
    # built duals break down (l5, canonical-char, t1, t4) and fail with a
    # breakdown witness.
    "rotated-k": _readme(
        weights="uniform",
        k_spec={
            "kind": "explicit",
            "matrix": [
                [0.009152290314399748, 0.007636009442415298, 0.0949221465028468],
                [0.007636009442415298, 0.006370947239936205, 0.07919610683404696],
                [0.0949221465028468, 0.07919610683404696, 0.9844767924456636],
            ],
        },
        trials=10,
    ),
    # K's singular values are about 4.2e5, 1.9, 0.13 and 2.3e-11: the frames
    # are independent on trials 1, 2 and 4 and dependent on trials 0 and 3,
    # where t2's independence verdicts disagree.
    "split-t2": {
        "dim": 4,
        "atoms": 3,
        "weights": [1.1198843077094625, 45400.36743302504, 0.001612737014173891],
        "k_spec": {
            "kind": "explicit",
            "matrix": [
                [311562.58613845706, 171524.1776510849, -13417.44761158461, 53317.452121558184],
                [171524.1776510849, 94429.44713768456, -7387.249502543868, 29352.213367184697],
                [-13417.447611584612, -7387.249502543869, 578.7290775528389, -2295.4003150683347],
                [53317.452121558184, 29352.2133671847, -2295.4003150683347, 9124.92455448449],
            ],
        },
        "frame_spec": {"kind": "generate-parseval-k", "seed": 996},
        "trials": 5,
        "seed": 216,
    },
    "w1": dict(fixture_scenario("W1"), trials=20),
    "w1p": dict(fixture_scenario("W1p"), trials=20),
    "d24-m96": _readme(
        dim=24,
        atoms=96,
        weights=[0.5, 2.0, 1.0, 1.5] * 24,
        k_spec={"kind": "random-rank", "rank": 12, "seed": 5},
        trials=3,
        seed=29,
    ),
    # Analytic Parseval K-frames on exact quadratures: S = K K* up to rounding
    # for a frame the generator did not make; real with non-uniform weights,
    # and complex with uniform ones.
    "gauss-legendre": analytic_doc(legendre_instance, LEGENDRE_K, 4),
    "circle-complex": analytic_doc(circle_instance, CIRCLE_K, 4),
}

PROPERTIES: Dict[str, Sequence[str]] = {
    "random-bessel": ("l3",),
}


def perfbench_module(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file without
    writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def build_fingerprint() -> dict:
    """The fingerprint of ``perfbench/envinfo.py``."""
    envinfo = perfbench_module("envinfo")
    return envinfo.fingerprint(envinfo.environment(os.path.join(ROOT, "src")))


def _check_lines(sc: Scenario, props: Sequence[str]) -> List[List[str]]:
    """Per property, one ``index\tname\thex`` line per entry of the check
    tables of every trial, chunked as :func:`kframelab.suites.run_suite`
    chunks them."""
    out: List[List[str]] = [[] for _ in props]
    for j, chunk, table in suites._chunk_tables(sc, props):
        for row, index in enumerate(chunk.indices):
            out[j].extend(f"{index}\t{name}\t{value.hex()}" for name, value in table.row(row))
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
    for pid, lines in zip(props, _check_lines(sc, props)):
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
