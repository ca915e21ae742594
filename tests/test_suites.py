"""Tests for the property suite runner and its reports."""

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from kframelab import frames, suites
from kframelab.fixtures import fixture_scenario
from kframelab.report import emit_report, report_to_dict
from kframelab.rng import complex_normal, stream
from kframelab.scenario import ScenarioError, scenario_from_dict
from kframelab.suites import PROPERTY_IDS, UnknownPropertyError, bisect_loewner_lambda, run_suite

from helpers import bisect_loewner


def generated_doc(**overrides):
    doc = {
        "dim": 3,
        "atoms": 7,
        "weights": [0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75],
        "k_spec": {"kind": "random-rank", "rank": 2, "seed": 5},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
        "trials": 6,
        "seed": 42,
    }
    doc.update(overrides)
    return doc


def strip_timing(report_dict):
    out = dict(report_dict)
    out.pop("wall_time_ms")
    return out


class TestRunSuite:
    def test_all_properties_pass_on_generated_scenario(self):
        report = run_suite(scenario_from_dict(generated_doc()))
        assert report.all_passed
        assert [rec.prop_id for rec in report.properties] == list(PROPERTY_IDS)
        for rec in report.properties:
            assert rec.instances == 6
            assert rec.max_residual <= rec.tolerance
            assert rec.witness is None

    def test_w1_fixture_scenario_t1(self):
        sc = scenario_from_dict(fixture_scenario("W1", trials=4))
        report = run_suite(sc, ["t1"])
        (rec,) = report.properties
        assert rec.passed
        # W1 has more atoms than dimensions, so the alternative-dual branch ran.
        assert rec.worst_check in ("alternative-dual", "alternative-differs")

    def test_requested_order_is_preserved(self):
        sc = scenario_from_dict(generated_doc(trials=2))
        report = run_suite(sc, ["t4", "l1"])
        assert [rec.prop_id for rec in report.properties] == ["t4", "l1"]

    def test_zero_trials_vacuous_pass(self):
        sc = scenario_from_dict(generated_doc(trials=0))
        report = run_suite(sc)
        assert report.all_passed
        for rec in report.properties:
            assert rec.instances == 0
            assert rec.max_residual == 0.0

    def test_unknown_property_id(self):
        sc = scenario_from_dict(generated_doc(trials=1))
        with pytest.raises(UnknownPropertyError, match="l99"):
            run_suite(sc, ["l99"])

    def test_duality_property_needs_parseval_scenario(self):
        sc = scenario_from_dict(
            generated_doc(frame_spec={"kind": "random-bessel", "seed": 3})
        )
        with pytest.raises(ScenarioError, match="l4"):
            run_suite(sc, ["l4"])

    def test_bessel_scenario_still_runs_substrate_properties(self):
        sc = scenario_from_dict(
            generated_doc(frame_spec={"kind": "random-bessel", "seed": 3}, trials=4)
        )
        report = run_suite(sc, ["l1", "l2", "l3"])
        assert report.all_passed

    def test_l3_agreement_when_range_escapes(self):
        # Fewer atoms than dimensions: the samples cannot span the space, so
        # the lower bound must not exist, and the two inclusion routes must
        # agree on that.
        sc = scenario_from_dict(
            generated_doc(
                dim=3,
                atoms=2,
                weights=[0.5, 2.0],
                k_spec={"kind": "random-rank", "rank": 3, "seed": 4},
                frame_spec={"kind": "random-bessel", "seed": 6},
                trials=5,
            )
        )
        report = run_suite(sc, ["l3"])
        assert report.all_passed


class TestDeterminism:
    def test_repeated_runs_agree_to_the_bit(self):
        sc = scenario_from_dict(generated_doc())
        a = run_suite(sc)
        b = run_suite(sc)
        assert strip_timing(report_to_dict(a)) == strip_timing(report_to_dict(b))

    def test_different_seed_changes_residuals(self):
        base = run_suite(scenario_from_dict(generated_doc()), ["l1"])
        other = run_suite(scenario_from_dict(generated_doc(seed=43)), ["l1"])
        assert base.properties[0].max_residual != other.properties[0].max_residual


class TestWitnessReplay:
    def test_failure_carries_replayable_witness(self):
        # An absurd tolerance override forces a failure with a witness.
        sc = scenario_from_dict(generated_doc(tolerances={"l4": 1e-30}))
        report = run_suite(sc, ["l4"])
        (rec,) = report.properties
        assert not rec.passed
        assert rec.witness is not None
        assert rec.witness["seed"] == sc.seed
        replay_doc = rec.witness["scenario"]
        assert replay_doc["trials"] == 1
        assert replay_doc["trial_offset"] == rec.witness["trial_index"]
        replayed = run_suite(scenario_from_dict(replay_doc), ["l4"])
        (replay_rec,) = replayed.properties
        assert not replay_rec.passed
        assert replay_rec.max_residual == rec.witness["residual"]
        assert replay_rec.worst_check == rec.witness["check"]

    def test_report_dict_schema(self):
        sc = scenario_from_dict(generated_doc(trials=2))
        doc = report_to_dict(run_suite(sc, ["l1"]))
        assert set(doc) == {"version", "scenario_echo", "properties", "wall_time_ms", "meta"}
        (prop,) = doc["properties"]
        assert set(prop) == {"id", "instances", "max_residual", "tolerance", "pass"}


class TestNonFiniteResiduals:
    @pytest.fixture
    def nan_scenario(self, monkeypatch):
        """The README scenario, with a NaN check appended to l4 at trial 3."""
        original = suites._PROPERTY_FUNCS["l4"]

        def with_nan(trial):
            checks = original(trial)
            return checks + [("nan", math.nan)] if trial.index == 3 else checks

        monkeypatch.setitem(suites._PROPERTY_FUNCS, "l4", with_nan)
        return scenario_from_dict(generated_doc())

    def test_nan_after_the_first_check_fails_with_witness(self, nan_scenario):
        # A NaN fails every comparison; it must still become the worst
        # residual, and the finite residuals of later trials must not
        # replace it.
        (rec,) = run_suite(nan_scenario, ["l4"]).properties
        assert not rec.passed
        assert math.isnan(rec.max_residual)
        assert rec.worst_check == "nan"
        assert rec.witness["trial_index"] == 3
        (replayed,) = run_suite(scenario_from_dict(rec.witness["scenario"]), ["l4"]).properties
        assert not replayed.passed
        assert replayed.worst_check == "nan"

    def test_nan_residual_is_written_as_a_json_string(self, nan_scenario, tmp_path):
        path = tmp_path / "report.json"
        emit_report(run_suite(nan_scenario, ["l4"]), str(path))

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        doc = json.loads(path.read_text(), parse_constant=reject)
        (prop,) = doc["properties"]
        assert prop["max_residual"] == "nan"
        assert prop["witness"]["residual"] == "nan"
        assert not prop["pass"]


def _included_pair(rng):
    """An included pair drawn like the l2 suite's: S = T theta."""
    n, p, q = int(rng.integers(2, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
    t = suites._conditioned_matrix(rng, n, p, int(rng.integers(1, min(n, p) + 1)))
    return t @ (rng.uniform(0.1, 3.0) * complex_normal(rng, p, q)), t


def _escaping_pair(rng):
    """A generic S against a rank-deficient T, so R(S) is not inside R(T)."""
    n, p, q = int(rng.integers(2, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
    t = suites._conditioned_matrix(rng, n, p, int(rng.integers(1, min(n - 1, p) + 1)))
    return complex_normal(rng, n, q), t


class TestLoewnerBisection:
    def test_matches_the_loewner_leq_oracle_bit_for_bit(self):
        rng = stream(31)
        results = Counter()
        for _ in range(60):
            s, t = _included_pair(rng)
            for scale in (1.0, 1e-6, 1e6):
                lam = bisect_loewner_lambda(scale * s, scale * t)
                assert lam == bisect_loewner(scale * s, scale * t)
                results["zero" if lam == 0.0 else "scale"] += 1
            assert bisect_loewner_lambda(np.zeros_like(s), t) == bisect_loewner(np.zeros_like(s), t) == 0.0
            s, t = _escaping_pair(rng)
            assert bisect_loewner_lambda(s, t) == bisect_loewner(s, t)
            # With the cap far below the scale at which the slack absorbs the
            # escaping directions, no scale works on either side.
            assert bisect_loewner_lambda(s, t, cap=1e3) is bisect_loewner(s, t, cap=1e3) is None
        # The 1e-6 pairs fall under the slack (scale 0); the others do not.
        assert results == {"scale": 120, "zero": 60}

    def test_overflowing_product_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                bisect_loewner_lambda(np.eye(3), 1e160 * np.eye(3))

    def test_l2_work_per_trial(self, monkeypatch):
        counts = Counter()
        for name in ("svd", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        trials = 20
        report = run_suite(scenario_from_dict(generated_doc(trials=trials)), ["l2"])
        assert report.all_passed
        # One eigvalsh per bisection decision, at most one SVD per decision
        # plus the fixed checks of the trial.
        assert counts["eigvalsh"] == 1259
        assert counts["svd"] <= 80 * trials


class TestSharedInstance:
    @pytest.mark.parametrize(
        "doc",
        [
            generated_doc(trials=3),
            generated_doc(trials=3, tolerances={pid: 1e-300 for pid in PROPERTY_IDS}),
            fixture_scenario("W1p", trials=3),
        ],
        ids=["readme", "readme-witnesses", "W1p"],
    )
    def test_each_property_matches_its_solo_run(self, doc):
        sc = scenario_from_dict(doc)
        for rec in run_suite(sc).properties:
            (solo,) = run_suite(sc, [rec.prop_id]).properties
            assert solo.max_residual == rec.max_residual, rec.prop_id
            assert solo.worst_check == rec.worst_check, rec.prop_id
            assert solo.witness == rec.witness, rec.prop_id

    def test_instance_is_built_once_per_trial(self, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(suites, "build_k", counted("build_k", suites.build_k))
        monkeypatch.setattr(suites, "build_frame", counted("build_frame", suites.build_frame))
        classify = frames.classify
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kframelab" and getattr(module, "classify", None) is classify:
                monkeypatch.setattr(module, "classify", counted("classify", classify))
        trials = 4
        report = run_suite(scenario_from_dict(generated_doc(trials=trials)))
        assert len(report.properties) == 12
        assert counts == {"build_k": trials, "build_frame": trials}
