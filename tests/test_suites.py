"""Tests for the property suite runner and its reports."""

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from kframelab import duality, frames, suites
from kframelab.fixtures import fixture_scenario
from kframelab.hilbert import _LoewnerTest, loewner_leq, op_norm
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

        def with_nan(chunk):
            per_trial = original(chunk)
            return [
                checks + [("nan", math.nan)] if index == 3 else checks
                for index, checks in zip(chunk.indices, per_trial)
            ]

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

    def test_overflowing_symmetrized_operand_raises(self):
        # T T* = diag(1e308, 1e308, 0) is finite, and so is it at scale 1,
        # but the sum that symmetrizes it overflows: the documented
        # ValueError, not eigvalsh's LinAlgError on the infinite operand.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite") as raised:
                bisect_loewner_lambda(np.eye(3), np.diag([1e154, 1e154, 0.0]))
        assert not isinstance(raised.value, np.linalg.LinAlgError)

    def test_l2_work_per_trial(self, monkeypatch):
        counts = Counter()
        for name in ("svd", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(a, *args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                counts[f"{_name} matrices"] += int(np.prod(np.shape(a)[:-2]))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        trials = 20
        report = run_suite(scenario_from_dict(generated_doc(trials=trials)), ["l2"])
        assert report.all_passed
        # The chunk's bisections decide one matrix per member and step, with
        # one stacked eigvalsh per matrix size and step, and stop once every
        # member's bisection has settled. The norm bounds settle every
        # decision here, so the SVDs are those of each trial's fixed checks.
        assert counts["eigvalsh matrices"] == 1199
        assert counts["eigvalsh"] < counts["eigvalsh matrices"] / 2
        assert counts["svd"] <= 25 * trials

    def test_lockstep_equals_per_pair_bisection_and_the_oracle(self):
        # One stack of sizes 2 to 8 mixing nested pairs, zero S (scale 0)
        # and non-nested pairs (None at cap 1e3).
        rng = stream(57)
        pairs = []
        for _ in range(8):
            pairs.append(_included_pair(rng))
            pairs.append(_escaping_pair(rng))
        s, t = _included_pair(rng)
        pairs.append((np.zeros_like(s), t))
        assert len({len(t) for _, t in pairs}) >= 5
        for cap in (1e18, 1e3):
            stacked = suites._bisect_loewner_lambdas([suites._loewner_operands(s, t) for s, t in pairs], cap=cap)
            assert stacked == [bisect_loewner_lambda(s, t, cap=cap) for s, t in pairs]
            assert stacked == [bisect_loewner(s, t, cap=cap) for s, t in pairs]
            assert 0.0 in stacked
            assert (None in stacked) == (cap == 1e3)

    def test_l2_checks_do_not_depend_on_the_chunk_size(self, monkeypatch):
        sc = scenario_from_dict(generated_doc(trials=10))

        def checks():
            size = max(1, suites._CHUNK_BYTES // suites._trial_bytes(sc))
            chunks = [suites._Chunk(sc, range(i, min(i + size, sc.trials))) for i in range(0, sc.trials, size)]
            return [[(name, value.hex()) for name, value in trial] for c in chunks for trial in suites._prop_l2(c)]

        default = checks()
        for trials in (1, 3):
            _set_chunk_trials(monkeypatch, sc, trials)
            assert checks() == default, trials

    @pytest.mark.parametrize("x", [0.5e-8, 1e-8, np.nextafter(1e-8, 1.0), 2e-8])
    def test_bounded_decision_falls_back_to_the_norm_inside_the_band(self, monkeypatch, x):
        # eigvalsh(bb - aa)[0] = -x against the slack 1e-9 * |bb| = 1e-8: the
        # bounds 10 (1 +- 1e-12) on |bb| settle x = 0.5e-8 (holds) and 2e-8
        # (fails) alone; x = 1e-8 and the next double up lie inside the band,
        # where the decision must compute the norm and match loewner_leq.
        aa, bb = np.diag([0.0, x]).astype(complex), np.diag([10.0, 0.0]).astype(complex)
        svd = np.linalg.svd
        calls = Counter()

        def counted(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        test = _LoewnerTest(aa[None], op_norm(aa[None]), (np.array([10 - 1e-11]), np.array([10 + 1e-11])))
        monkeypatch.setattr(np.linalg, "svd", counted)
        verdict = bool(test(bb[None])[0])
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert verdict == loewner_leq(aa, bb) == (x <= 1e-8)
        assert calls["svd"] == (1 if x in (1e-8, np.nextafter(1e-8, 1.0)) else 0)

    def test_overflow_in_a_chunk_raises_the_first_error_of_the_trials(self, monkeypatch):
        # Trial 2's T T* = 1e308 I overflows once the bisection symmetrizes
        # it; trial 4's pair is not nested, so its factor fails earlier in
        # the chunk, before the lockstep. Trial by trial, trial 2's error
        # comes first, and so it must in the chunk.
        sc = scenario_from_dict(generated_doc(trials=6))
        states = {
            str(stream(sc.seed, suites._PROPERTY_TAG["l2"], i).bit_generator.state): i for i in range(sc.trials)
        }
        big = np.diag([1e154, 1e154]).astype(complex)
        replaced = {2: (np.eye(2), big), 4: (np.eye(2), np.diag([1.0, 0.0]))}
        original = suites._factorization_pair

        def pair(rng):
            index = states[str(rng.bit_generator.state)]
            return replaced[index] if index in replaced else original(rng)

        monkeypatch.setattr(suites, "_factorization_pair", pair)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Exception) as first:
                bisect_loewner_lambda(*replaced[2])
            with pytest.raises(type(first.value)) as raised:
                run_suite(sc, ["l2"])
        assert str(raised.value) == str(first.value)


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
        # The builders take a chunk's trial indices; each trial must be
        # among them exactly once.
        counts = Counter()

        def counted(name, fn, trials_at=None):
            def wrapper(*args, **kwargs):
                counts[name] += 1 if trials_at is None else len(args[trials_at])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(suites, "build_ks", counted("build_k", suites.build_ks, 1))
        monkeypatch.setattr(suites, "build_frames", counted("build_frame", suites.build_frames, 3))
        classify = frames.classify
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kframelab" and getattr(module, "classify", None) is classify:
                monkeypatch.setattr(module, "classify", counted("classify", classify))
        trials = 4
        report = run_suite(scenario_from_dict(generated_doc(trials=trials)))
        assert len(report.properties) == 12
        assert counts == {"build_k": trials, "build_frame": trials}


def _tight(doc):
    """Every tolerance at 1e-300, so every property with a nonzero residual fails with a witness."""
    return dict(doc, tolerances={pid: 1e-300 for pid in PROPERTY_IDS})


def _set_chunk_trials(monkeypatch, scenario, trials):
    monkeypatch.setattr(suites, "_CHUNK_BYTES", trials * suites._trial_bytes(scenario))


class TestChunkedTrials:
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        sc = scenario_from_dict(_tight(generated_doc(trials=7)))
        default = strip_timing(report_to_dict(run_suite(sc)))
        # Properties with only 0/1 checks still pass at 1e-300; the rest
        # fail with witnesses.
        assert sum("witness" in p for p in default["properties"]) >= 8
        for trials in (1, 3):
            _set_chunk_trials(monkeypatch, sc, trials)
            assert strip_timing(report_to_dict(run_suite(sc))) == default, trials

    def test_witness_on_the_last_trial_of_a_chunk_replays(self, monkeypatch):
        sc = scenario_from_dict(_tight(generated_doc(trials=6, trial_offset=5)))
        replayed = 0
        for rec in run_suite(sc).properties:
            if rec.witness is None:
                continue
            # Cut the chunks so that the witness trial closes the first one.
            last = rec.witness["trial_index"]
            _set_chunk_trials(monkeypatch, sc, last - sc.trial_offset + 1)
            (chunked,) = run_suite(sc, [rec.prop_id]).properties
            assert chunked.witness == rec.witness, rec.prop_id
            (replay,) = run_suite(scenario_from_dict(rec.witness["scenario"]), [rec.prop_id]).properties
            assert replay.max_residual == rec.max_residual, rec.prop_id
            assert replay.worst_check == rec.worst_check, rec.prop_id
            replayed += last > sc.trial_offset
        # At least some witnesses sit past the first trial, so a chunk of
        # several trials really ended on them.
        assert replayed > 0

    def test_stacked_work_does_not_grow_with_the_trials(self, monkeypatch):
        calls = Counter()
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        counts = []
        for trials in (4, 20):
            calls.clear()
            report = run_suite(scenario_from_dict(generated_doc(trials=trials)), ["l4", "kdaggerk"])
            assert report.all_passed
            counts.append(calls["svd"])
        assert counts[0] == counts[1]

    def test_first_error_of_the_trial_major_order_is_raised(self, monkeypatch):
        # Non-Parseval frames: l1 to l3 run on every trial, then l4 raises on
        # the first trial; the error names l4 whatever the chunking.
        sc = scenario_from_dict(generated_doc(frame_spec={"kind": "random-bessel", "seed": 3}))
        with pytest.raises(ScenarioError, match="property l4 cannot run.*Parseval"):
            run_suite(sc, ["l1", "l3", "l4", "l1"])
        # l4 fails on trial 2 and l5 on trial 1: a stacked l4 meets its
        # failure first, but trial by trial l5 fails on trial 1 before l4
        # reaches trial 2.
        for pid, bad in (("l4", 2), ("l5", 1)):
            original = suites._PROPERTY_FUNCS[pid]

            def failing(chunk, original=original, bad=bad, pid=pid):
                if bad in chunk.indices:
                    raise duality.HypothesisError(f"{pid} fails on trial {bad}")
                return original(chunk)

            monkeypatch.setitem(suites._PROPERTY_FUNCS, pid, failing)
        with pytest.raises(ScenarioError, match="property l5 cannot run.*trial 1"):
            run_suite(scenario_from_dict(generated_doc()), ["l4", "l5"])


@pytest.mark.parametrize(
    "exponent", [float(e) for e in range(100, 161)] + [152.5, 153.25, 153.5, 153.75, 153.9]
)
def test_large_diagonal_k_is_verified_or_rejected(exponent):
    # K = diag(x, 1, 0) over the README frame: every x is either rejected at
    # validation or verified to the end without a warning (warnings are
    # errors here), never a crash.
    doc = generated_doc(k_spec={"kind": "diagonal", "values": [10.0**exponent, 1.0, 0.0]}, trials=2)
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError as exc:
        assert exc.field_path == "k_spec.values"
        assert exponent > 152
        return
    assert run_suite(sc).all_passed


@pytest.mark.parametrize("pid, bound", [("l1", 10), ("l2", 15)])
def test_svds_per_trial(monkeypatch, pid, bound):
    # l1 takes pinv(a) and both projectors of a from one SVD; l2 takes
    # its factor, scale and rank of T from the inclusion test's SVDs.
    counts = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    sc = scenario_from_dict(generated_doc(trials=20))
    per_trial = []
    for trial in range(sc.trials):
        counts.clear()
        assert run_suite(sc.replay(trial), [pid]).all_passed
        per_trial.append(counts["svd"])
    assert max(per_trial) <= bound, per_trial
