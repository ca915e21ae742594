"""The verifier's contract on a seeded set of valid scenarios.

A scenario that validation accepts ends in a report, where every failing
property carries a witness that replays to the same bits, or in a
``ScenarioError`` that is the scenario's own: a build that fails at
``k_spec`` or ``frame_spec``, or frames that are not Parseval K-frames.
A breakdown on an object a property built itself is a failure with a
witness, never an error of the scenario.
"""

import re

import numpy as np

from kframelab.scenario import ScenarioError, scenario_from_dict
from kframelab.suites import run_suite

SCENARIOS = 100
PARSEVAL_HYPOTHESIS = re.compile(r"property \S+ cannot run on this scenario: the family must be a Parseval K-frame; ")


def scenario_doc(rng: np.random.Generator) -> dict:
    """A valid scenario of 5 trials: d in 1..4, m in 1..7, uniform or
    log-uniform weights over 1e-8..1e8, a diagonal or rotated K with
    singular values log-uniform over 1e-14..1e6 (20% zeros), and a
    generated, random Bessel or hand-built explicit Parseval K-frame."""
    d, m = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    weights = "uniform" if rng.random() < 0.5 else (10.0 ** rng.uniform(-8, 8, m)).tolist()
    s = np.sort(10.0 ** rng.uniform(-14, 6, d))[::-1] * (rng.random(d) >= 0.2)
    if rng.random() < 0.5:
        q = np.eye(d)
        k_spec = {"kind": "diagonal", "values": s.tolist()}
    else:
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        k_spec = {"kind": "explicit", "matrix": (q @ np.diag(s) @ q.T).tolist()}
    kind = str(rng.choice(["generate-parseval-k", "random-bessel", "explicit"]))
    r = int(np.count_nonzero(s))
    if kind == "explicit" and r <= m:
        # Rows f_i = A v_i with A A* = K K* and sum_i w_i v_i v_i* = I.
        w = np.ones(m) if weights == "uniform" else np.array(weights)
        v = np.linalg.qr(np.sqrt(w)[:, None] * rng.standard_normal((m, r)))[0] / np.sqrt(w)[:, None]
        frame_spec = {"kind": "explicit", "samples": (v @ (q[:, :r] * s[:r]).T).tolist()}
    else:
        frame_spec = {"kind": "random-bessel" if kind == "random-bessel" else "generate-parseval-k"}
        frame_spec["seed"] = int(rng.integers(0, 1000))
    return {
        "dim": d,
        "atoms": m,
        "weights": weights,
        "k_spec": k_spec,
        "frame_spec": frame_spec,
        "trials": 5,
        "seed": int(rng.integers(0, 1000)),
    }


def test_only_the_scenarios_own_errors_raise_and_witnesses_replay():
    rng = np.random.default_rng(1)
    outcomes = {"report": 0, "scenario-error": 0, "witness": 0}
    for case in range(SCENARIOS):
        try:
            sc = scenario_from_dict(scenario_doc(rng))
        except ScenarioError:
            continue  # rejected by validation
        try:
            report = run_suite(sc)
        except ScenarioError as exc:
            path = exc.field_path or ""
            assert path.startswith(("k_spec", "frame_spec")) or PARSEVAL_HYPOTHESIS.match(str(exc)), (case, str(exc))
            outcomes["scenario-error"] += 1
            continue
        outcomes["report"] += 1
        for rec in report.properties:
            if rec.witness is None:
                continue
            outcomes["witness"] += 1
            (replay,) = run_suite(scenario_from_dict(rec.witness["scenario"]), [rec.prop_id]).properties
            assert replay.max_residual.hex() == rec.max_residual.hex(), (case, rec.prop_id)
            assert replay.worst_check == rec.worst_check, (case, rec.prop_id)
    # The set reaches every outcome.
    assert min(outcomes.values()) > 0, outcomes
