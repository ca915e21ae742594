"""The verifier's contract on a seeded set of valid scenarios.

A scenario that validation accepts ends in a report, where every failing
property carries a witness that replays to the same bits, or in a
``ScenarioError`` that is the scenario's own: a build that fails at
``k_spec`` or ``frame_spec``, or frames that are not Parseval K-frames.
A breakdown on an object a property built itself is a failure with a
witness, never an error of the scenario.
"""

import copy
import json
import math
import re

import numpy as np
import pytest

from kframelab.scenario import ScenarioError, load_scenario, scenario_from_dict
from kframelab.suites import PROPERTY_IDS, run_suite

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


# Malformed values of a number leaf (a finite double) and of an integer
# leaf. Huge integers are left out of the latter: a huge ``trials`` is
# valid (and would run for ever), and a huge ``dim`` is rejected later, at
# ``k_spec.values``.
BAD_NUMBERS = (True, "1", math.nan, math.inf, -math.inf, 10**400)
BAD_INTEGERS = (True, "1", math.nan, math.inf, 1.5)
INTEGER_LEAVES = ("dim", "atoms", "trials", "seed", "frame_spec.seed")


def valid_docs(count: int, seed: int) -> list:
    """The first ``count`` documents of :func:`scenario_doc` that validation accepts."""
    rng = np.random.default_rng(seed)
    docs = []
    while len(docs) < count:
        doc = scenario_doc(rng)
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            continue
        docs.append(doc)
    return docs


def leaves(node, path="", keys=()):
    """(path, keys) of each number in a document, the path as a
    ``ScenarioError`` names it."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key, keys + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]", keys + (i,))
    elif not isinstance(node, str):
        yield path, keys


def mutations(doc: dict, tolerance: str):
    """(expected path, mutated document) for each malformed value of each
    number leaf of ``doc`` with an added ``tolerances.<tolerance>``. Entries
    of K and of the samples are complex, and cycle through three forms: the
    bad value alone, or as the real or imaginary part of an [re, im] pair,
    whose path is the pair's own."""
    doc = dict(doc, tolerances={tolerance: 1e-9})
    for j, (path, keys) in enumerate(leaves(doc)):
        integer = path in INTEGER_LEAVES
        complex_entry = keys[0] in ("k_spec", "frame_spec") and not integer
        for b, bad in enumerate(BAD_INTEGERS if integer else BAD_NUMBERS):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in keys[:-1]:
                parent = parent[key]
            value = parent[keys[-1]]
            form = (j + b) % 3 if complex_entry else 0
            parent[keys[-1]] = (bad, [bad, 0.0], [value, bad])[form]
            yield path, mutated


def test_each_malformed_number_is_rejected_at_its_leaf():
    wrong, kinds = [], set()
    for case, doc in enumerate(valid_docs(60, seed=2)):
        for path, mutated in mutations(doc, PROPERTY_IDS[case % len(PROPERTY_IDS)]):
            kinds.add(re.sub(r"\[\d+\]", "[]", path.split(".")[0] if path.startswith("tolerances") else path))
            try:
                scenario_from_dict(mutated)
                wrong.append((case, path, "accepted"))
            except ScenarioError as exc:
                if exc.field_path != path:
                    wrong.append((case, path, exc.field_path))
    assert wrong == []
    assert kinds == set(INTEGER_LEAVES) | {
        "weights[]",
        "k_spec.values[]",
        "k_spec.matrix[][]",
        "frame_spec.samples[][]",
        "tolerances",
    }


def test_a_literal_past_the_digit_limit_names_the_file(tmp_path):
    doc = valid_docs(1, seed=2)[0]
    path = tmp_path / "long-literal.json"
    path.write_text(json.dumps(dict(doc, seed="SEED")).replace('"SEED"', "1" * 4301))
    with pytest.raises(ScenarioError, match=re.escape(str(path))):
        load_scenario(str(path))
