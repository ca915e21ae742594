"""Tests for the property suite runner and its reports."""

import json
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from kframelab import duality, frames, hilbert, suites
from kframelab.duality import ParsevalKFrame
from kframelab.fixtures import fixture_scenario
from kframelab.frames import KOperator, SampledFrame, conditioned_ops
from kframelab.hilbert import Split, _loewner_decisions, loewner_leq, op_norm, range_inclusion, ranks
from kframelab.report import emit_report, report_to_dict
from kframelab.rng import complex_normal, stream
from kframelab.scenario import ScenarioError, scenario_from_dict
from kframelab.suites import PROPERTY_IDS, UnknownPropertyError, run_suite

import golden
from helpers import bisect_loewner, loewner_inclusion_exists


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

    def test_property_table_is_pinned(self):
        # Each property's streams are keyed by its position, and under another
        # build fingerprint the golden digests compare only verdicts, so a
        # reordered table would re-key every stream without failing them.
        assert PROPERTY_IDS == (
            "l1",
            "l2",
            "l3",
            "l4",
            "l5",
            "l6",
            "canonical-char",
            "t1",
            "t2",
            "t4",
            "complement-parseval",
            "kdaggerk",
        )
        assert suites._PROPERTY_TAG == {pid: 1000 + i for i, pid in enumerate(PROPERTY_IDS)}
        assert suites.DEFAULT_TOLERANCES == {
            "l1": 1e-10,
            "l2": 1e-6,
            "l3": 1e-6,
            "l4": 1e-9,
            "l5": 1e-9,
            "l6": 1e-9,
            "canonical-char": 1e-9,
            "t1": 1e-9,
            "t2": 1e-9,
            "t4": 1e-9,
            "complement-parseval": 1e-9,
            "kdaggerk": 1e-9,
        }
        assert list(suites._PROPERTY_FUNCS) == list(PROPERTY_IDS)

    def test_w1_fixture_scenario_t1(self):
        sc = scenario_from_dict(dict(fixture_scenario("W1"), trials=4))
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

    def test_repeated_property_id(self):
        sc = scenario_from_dict(generated_doc(trials=1))
        with pytest.raises(ScenarioError, match="l4") as excinfo:
            run_suite(sc, ["l4", "l4", "t1"])
        assert excinfo.value.field_path == "properties"
        assert "t1" not in str(excinfo.value)

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
        # Built-in types, so no numpy scalar reaches the replay or the JSON.
        assert type(rec.max_residual) is float and type(rec.witness["residual"]) is float
        assert type(rec.witness["trial_index"]) is int
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
        """The README scenario, with a check appended to l4 that is NaN at trial 3 and 0.0 elsewhere."""
        original = suites._PROPERTY_FUNCS["l4"]

        def with_nan(chunk):
            table = original(chunk)
            at_3 = np.array([index == 3 for index in chunk.indices])
            return duality.CheckTable(
                [*table.names, "nan"], np.column_stack([table.residuals, np.where(at_3, math.nan, 0.0)])
            )

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
    t = conditioned_ops([rng], n, p, int(rng.integers(1, min(n, p) + 1)))[0]
    return t @ (rng.uniform(0.1, 3.0) * complex_normal(rng, p, q)), t


def _escaping_pair(rng):
    """A generic S against a rank-deficient T, so R(S) is not inside R(T)."""
    n, p, q = int(rng.integers(2, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
    t = conditioned_ops([rng], n, p, int(rng.integers(1, min(n - 1, p) + 1)))[0]
    return complex_normal(rng, n, q), t


def _one_shape_pairs(rng, n, p, q):
    """Pairs (S, T) of one shape (n x q, n x p): nested pairs and escaping
    pairs drawn as above, a zero S, and a nested pair S = T theta with
    ||theta|| = 30, whose minimal scale (up to 900) the doubling takes
    several steps to reach."""
    pairs = []
    for _ in range(4):
        t = conditioned_ops([rng], n, p, int(rng.integers(1, min(n, p) + 1)))[0]
        pairs.append((t @ (rng.uniform(0.1, 3.0) * complex_normal(rng, p, q)), t))
        t = conditioned_ops([rng], n, p, int(rng.integers(1, min(n - 1, p) + 1)))[0]
        pairs.append((complex_normal(rng, n, q), t))
    t = conditioned_ops([rng], n, p, min(n, p))[0]
    pairs.append((np.zeros((n, q), dtype=complex), t))
    theta = complex_normal(rng, p, q)
    pairs.append((t @ (30.0 * theta / op_norm(theta)), t))
    return pairs


@pytest.mark.parametrize("n, p, q", [(4, 3, 2), (3, 5, 4)])
def test_inclusion_verdicts_per_member(n, p, q):
    # Each member leaves the doubling at its own first success, so its
    # verdict in a stack is its verdict alone, and the oracle's.
    pairs = _one_shape_pairs(stream(71), n, p, q)
    assert range_inclusion(*pairs[-1]).lambda_star > 16.0
    s, t = (np.stack(ops) for ops in zip(*pairs))
    stacked = suites.loewner_inclusion_exists(s, t).tolist()
    assert stacked == [bool(suites.loewner_inclusion_exists(a[None], b[None])[0]) for a, b in pairs]
    assert stacked == [loewner_inclusion_exists(a, b) for a, b in pairs]
    assert stacked == [True, False] * 4 + [True, True]


def bisect_loewner_lambda(s_op, t_op, cap=1e18):
    """The stacked bisection's scale for one pair (S, T), on both Grams as a stack of one."""
    ss, tt = (op @ op.conj().T for op in (s_op, t_op))
    return hilbert._bisect_loewner_lambdas(ss[None], tt[None], cap)[0]


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

    @pytest.mark.parametrize("guessed", ["first", "above"])
    def test_only_a_kept_overflowing_step_raises(self, monkeypatch, guessed):
        # T T* = 1e300 I overflows only at scales that are never kept: its
        # first guess predicts a path below scale 1, and a guess above every
        # scale predicts that the doubling fails up to the cap, which
        # speculates scales that overflow, while scale 1 already holds.
        # T T* = 9e306 I, threshold 8.6, overflows on its kept path at scale
        # 16. In one stack, the second raises as the step-by-step bisection
        # does; alone, the first gets the oracle's scale.
        eye = np.eye(2, dtype=complex)
        pairs = [(1e-4 * eye, 1e150 * eye), (np.sqrt(7.74e307) * eye, np.sqrt(9e306) * eye)]
        if guessed == "above":
            monkeypatch.setattr(hilbert, "_first_guesses", lambda top, *_: np.full(len(top), math.inf))
        grams = [np.stack([op @ op.conj().T for op in ops]) for ops in zip(*pairs)]
        with np.errstate(over="ignore", invalid="ignore"):
            for cap in (1e18, 1e3):
                with pytest.raises(ValueError, match="operator entries must be finite"):
                    bisect_loewner(*pairs[1], cap=cap)
                with pytest.raises(ValueError, match="operator entries must be finite"):
                    hilbert._bisect_loewner_lambdas(*grams, cap=cap)
                assert hilbert._bisect_loewner_lambdas(*(g[:1] for g in grams), cap=cap) == [bisect_loewner(*pairs[0], cap=cap)]

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
        # Each size's first round sends to eigvalsh, per member, the two
        # anchors and the steps of its predicted path from where the path
        # comes within the rounding band of its guess; the anchors decide the
        # steps before it by monotonicity. Nine later rounds, over 32
        # matrices, finish the members whose decisions near the threshold
        # differ from the prediction: each predicts up to 32 steps from the
        # member's one guess, past the steps it kept. Each size adds one
        # call for its zero-scale decisions, 20 matrices in all: 23 calls over
        # 469 matrices decide what the step-by-step bisection decides in 1123
        # steps (399 calls, one per size and step). The norm bounds settle
        # every decision here, so the SVDs are those of each trial's fixed
        # checks.
        assert counts["eigvalsh matrices"] == 469
        assert counts["eigvalsh"] == 23
        assert counts["svd"] <= 25 * trials

    def test_lockstep_equals_per_pair_bisection_and_the_oracle(self):
        # Pairs of sizes 2 to 8 mixing nested pairs, zero S (scale 0) and
        # non-nested pairs (None at cap 1e3), bisected as one stack per
        # size, as l2 groups them.
        rng = stream(57)
        pairs = []
        for _ in range(8):
            pairs.append(_included_pair(rng))
            pairs.append(_escaping_pair(rng))
        s, t = _included_pair(rng)
        pairs.append((np.zeros_like(s), t))
        assert len({len(t) for _, t in pairs}) >= 5

        def by_size(order, cap):
            """The stacked scale of each pair of ``order``, in that order."""
            out = {}
            for n in sorted({len(pairs[j][1]) for j in order}):
                group = [j for j in order if len(pairs[j][1]) == n]
                grams = [np.stack([op @ op.conj().T for op in ops]) for ops in zip(*(pairs[j] for j in group))]
                out.update(zip(group, hilbert._bisect_loewner_lambdas(*grams, cap=cap)))
            return [out[j] for j in order]

        for cap in (1e18, 1e3):
            stacked = by_size(range(len(pairs)), cap)
            assert stacked == [bisect_loewner_lambda(s, t, cap=cap) for s, t in pairs]
            assert stacked == [bisect_loewner(s, t, cap=cap) for s, t in pairs]
            assert 0.0 in stacked
            assert (None in stacked) == (cap == 1e3)
            # The members' order does not change any member's scale.
            order = stream(58).permutation(len(pairs)).tolist()
            assert by_size(order, cap) == [stacked[j] for j in order]

    @pytest.mark.parametrize("predictor", ["hold", "fail", "random"])
    def test_predictions_never_change_a_scale(self, monkeypatch, predictor):
        # The guessed threshold only picks which steps are decided together:
        # guessing below every scale predicts that each decision holds, above
        # every scale that each fails, and a random guess splits the path
        # anywhere; ten runs each draw one random guess per member. Every
        # member still ends at the oracle's scale, on the lockstep test's
        # pairs and a pair whose T T* = 1e300 I overflows at scales that a
        # guess above every scale reaches but the bisection does not.
        rng = stream(57)
        pairs = []
        for _ in range(8):
            pairs.append(_included_pair(rng))
            pairs.append(_escaping_pair(rng))
        s, t = _included_pair(rng)
        pairs.append((np.zeros_like(s), t))
        pairs.append((1e-4 * np.eye(2), 1e150 * np.eye(2)))
        draws = np.random.default_rng(5)

        def guess(top, reach, limit, norm_t):
            if predictor != "random":
                return np.full(len(top), -math.inf if predictor == "hold" else math.inf)
            return draws.uniform(0.0, 2.0 ** draws.integers(0, 12, size=len(top)))

        monkeypatch.setattr(hilbert, "_first_guesses", guess)
        for cap in (1e18, 1e3):
            oracle = [bisect_loewner(s, t, cap=cap) for s, t in pairs]
            for _ in range(10 if predictor == "random" else 1):
                stacked = {}
                for n in sorted({len(t) for _, t in pairs}):
                    group = [j for j, (_, t) in enumerate(pairs) if len(t) == n]
                    grams = [np.stack([op @ op.conj().T for op in ops]) for ops in zip(*(pairs[j] for j in group))]
                    stacked.update(zip(group, hilbert._bisect_loewner_lambdas(*grams, cap=cap)))
                stacked = [stacked[j] for j in range(len(pairs))]
                assert stacked == oracle
                assert stacked == [bisect_loewner_lambda(s, t, cap=cap) for s, t in pairs]
                assert 0.0 in stacked and (None in stacked) == (cap == 1e3)

    @staticmethod
    def skipping_grams():
        """(S S*, T T*) of the lockstep test's pairs, of T T* = 1e300 I
        (overflowing only at scales far above its threshold), of T T* =
        9e306 I with its threshold just below the scales at which it
        overflows, of a subnormal T T*, and of a rank-deficient T with and
        without a zero S; and a T T* with a negative eigenvalue, below which
        decisions hold and above which they fail, so a scale that holds
        says nothing of those above it."""
        rng = stream(57)
        pairs = []
        for _ in range(8):
            pairs.append(_included_pair(rng))
            pairs.append(_escaping_pair(rng))
        s, t = _included_pair(rng)
        pairs.append((np.zeros_like(s), t))
        pairs.append((1e-4 * np.eye(2), 1e150 * np.eye(2)))
        pairs.append((6e153 * np.eye(3), 3e153 * np.eye(3)))
        pairs.append((1e-4 * np.eye(3), 1e-160 * np.eye(3)))
        t = conditioned_ops([rng], 5, 5, 3)[0]
        pairs.append((t @ complex_normal(rng, 5, 2), t))
        pairs.append((np.zeros((5, 2), dtype=complex), t))
        with np.errstate(over="ignore", invalid="ignore"):
            grams = [tuple(op @ op.conj().T for op in pair) for pair in pairs]
        return grams + [(np.diag([1e-3, 0.0, 0.0]).astype(complex), np.diag([1.0, -1e-7, 0.5]).astype(complex))]

    @staticmethod
    def stacked_scales(grams, cap):
        """The scale of each Gram pair, bisected in one stack per size, as
        l2 groups them, or the error that a size's stack raised."""
        out = {}
        for n in sorted({len(tt) for _, tt in grams}):
            group = [j for j, (_, tt) in enumerate(grams) if len(tt) == n]
            ss, tt = map(np.stack, zip(*(grams[j] for j in group)))
            try:
                out.update(zip(group, hilbert._bisect_loewner_lambdas(ss, tt, cap=cap)))
            except ValueError as exc:
                out.update((j, str(exc)) for j in group)
        return [out[j] for j in range(len(grams))]

    @pytest.mark.parametrize("guessed", ["exact", "1e-6", "1e3", "narrow"])
    def test_skipping_never_changes_a_scale(self, monkeypatch, guessed):
        # With an infinite band no step is skipped: each goes to eigvalsh,
        # as the speculative rounds decide it. The run that skips the steps
        # its anchors certify must end every member at the same scale, bit
        # for bit, or raise the same error, at each cap and whether its
        # guess is right, off by 1e-6 relative or off by a factor of 1e3.
        # A band of 1e-9 of the default puts the anchors next to the guess,
        # where only their margins against the rounding bound keep them from
        # certifying steps that rounding decides the other way.
        grams = self.skipping_grams()
        factor = {"1e-6": 1.0 + 1e-6, "1e3": 1e3}.get(guessed, 1.0)
        original = hilbert._first_guesses
        monkeypatch.setattr(hilbert, "_first_guesses", lambda *args: original(*args) * factor)
        if guessed == "narrow":
            monkeypatch.setattr(hilbert, "_BAND", 1e-9 * hilbert._BAND)
        eigvalsh = np.linalg.eigvalsh
        matrices = Counter()

        def counted(a, *args, **kwargs):
            matrices[hilbert._BAND] += int(np.prod(np.shape(a)[:-2]))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        # Alone, T T* = 9e306 I with threshold 8.6 overflows at scale 16.
        overflowing = [(7.74e307 * np.eye(2, dtype=complex), 9e306 * np.eye(2, dtype=complex))]
        for cap in (1e18, 1e3, 0.7):
            skipped = self.stacked_scales(grams, cap)
            raised = self.stacked_scales(overflowing, cap)
            with monkeypatch.context() as every_step:
                every_step.setattr(hilbert, "_BAND", math.inf)
                assert self.stacked_scales(grams, cap) == skipped, cap
                assert self.stacked_scales(overflowing, cap) == raised, cap
            # Zero S gives 0.0; the subnormal T T* gives None below every cap.
            assert 0.0 in skipped and None in skipped
            assert raised == (["operator entries must be finite"] if cap > 1.0 else [None])
        # On the nested pairs, an exact guess skips most steps; a wrong one,
        # or anchors too near it to clear the rounding bound, skip none.
        matrices.clear()
        nested, band = grams[:16:2], hilbert._BAND
        self.stacked_scales(nested, 1e18)
        monkeypatch.setattr(hilbert, "_BAND", math.inf)
        self.stacked_scales(nested, 1e18)
        assert (matrices[band] < matrices[math.inf] / 2) == (guessed == "exact"), matrices

    def test_l2_checks_do_not_depend_on_the_chunk_size(self, monkeypatch):
        sc = scenario_from_dict(generated_doc(trials=10))

        def checks():
            tables = [table for _, _, table in suites._chunk_tables(sc, ["l2"])]
            return [[(name, value.hex()) for name, value in t.row(i)] for t in tables for i in range(len(t.residuals))]

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

        limit = np.maximum(1.0, op_norm(aa[None]))
        monkeypatch.setattr(np.linalg, "svd", counted)
        verdict = bool(_loewner_decisions(aa[None], limit, bb[None], (np.array([10 - 1e-11]), np.array([10 + 1e-11])))[0][0])
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert verdict == loewner_leq(aa, bb) == (x <= 1e-8)
        assert calls["svd"] == (1 if x in (1e-8, np.nextafter(1e-8, 1.0)) else 0)

    def test_overflow_in_a_chunk_fails_its_trial_with_a_breakdown(self, monkeypatch):
        # Trial 2's T T* = 1e308 I overflows once the bisection symmetrizes
        # it; trial 4's pair is not nested, so its factor fails earlier in
        # the chunk, before the lockstep. Each breaks down on its own trial,
        # and the witness is the first of them.
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
            with pytest.raises(ValueError, match="finite"):
                bisect_loewner_lambda(*replaced[2])
            tables = list(suites._chunk_tables(sc, ["l2"]))
            (rec,) = run_suite(sc, ["l2"]).properties
        rows = [(index, table.row(i)) for _, chunk, table in tables for i, index in enumerate(chunk.indices)]
        assert [index for index, row in rows if row == [("breakdown", math.inf)]] == [2, 4]
        assert (rec.witness["trial_index"], rec.witness["check"], rec.max_residual) == (2, "breakdown", math.inf)


class TestSharedInstance:
    @pytest.mark.parametrize(
        "doc",
        [
            generated_doc(trials=3),
            generated_doc(trials=3, tolerances={pid: 1e-300 for pid in PROPERTY_IDS}),
            dict(fixture_scenario("W1p"), trials=3),
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
    monkeypatch.setattr(hilbert, "_CHUNK_BYTES", trials * suites._trial_bytes(scenario))


def _one_at_a_time(names, residuals, present=None):
    """The reference fold: (worst, check, trial) over the present checks one
    at a time, in trial and then check order, by the runner's rule."""
    present = np.ones(residuals.shape, dtype=bool) if present is None else present
    worst = (0.0, "", -1)
    for index, (row, mask) in enumerate(zip(residuals.tolist(), present.tolist())):
        for name, residual, taken in zip(names, row, mask):
            value, _, seen = worst
            if taken and (seen < 0 or (math.isfinite(value) and (residual > value or not math.isfinite(residual)))):
                worst = (residual, name, index)
    return worst


class TestCheckTableFold:
    """Hand-built check tables, cut into chunks, fold to the entry the fold
    over one check at a time ends on. Where a mask marks the checks each
    trial takes, a chunk's table holds the checks of its trials' one branch,
    and a chunk whose trials take different ones raises ``Split``."""

    T, F, nan, inf = True, False, math.nan, math.inf
    CASES = {
        # (rows of checks "a" and "b", present mask or None, (worst, check, trial))
        "nan-in-a-later-chunk": ([[0.5, 0.2], [0.1, 0.3], [0.4, nan], [inf, 0.9]], None, (nan, "b", 2)),
        "inf-in-a-later-chunk": ([[0.5, 0.2], [0.1, 0.3], [inf, nan]], None, (inf, "a", 2)),
        "nan-as-the-first-check": ([[nan, 2.0], [inf, 5.0]], None, (nan, "a", 0)),
        "tie-across-a-chunk-boundary": ([[0.1, 0.2], [0.3, 0.7], [0.7, 0.1]], None, (0.7, "b", 1)),
        "masked-nan-and-1e300": ([[0.1, nan], [1e300, 0.4], [0.2, 0.3]], [[T, F], [F, T], [T, T]], (0.4, "b", 1)),
    }

    @staticmethod
    def fold(monkeypatch, names, residuals, mask, chunk_trials):
        """(worst as float.hex, check, witness trial or None) of run_suite
        over the table, in chunks of ``chunk_trials`` trials (None leaves the
        chunk budget as it is)."""

        def table(chunk):
            at = list(chunk.indices)
            if mask is None:
                return duality.CheckTable(names, residuals[at])
            taken = mask[at[0]]
            if (mask[at] != taken).any():
                raise Split
            return duality.CheckTable([n for n, t in zip(names, taken) if t], residuals[at][:, taken])

        monkeypatch.setitem(suites._PROPERTY_FUNCS, "l1", table)
        sc = scenario_from_dict(generated_doc(trials=len(residuals), tolerances={"l1": 1e-300}))
        if chunk_trials is not None:
            _set_chunk_trials(monkeypatch, sc, chunk_trials)
        (rec,) = run_suite(sc, ["l1"]).properties
        return rec.max_residual.hex(), rec.worst_check, rec.witness and rec.witness["trial_index"]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_worst_does_not_depend_on_the_chunk_size(self, monkeypatch, name):
        rows, present, (value, check, trial) = self.CASES[name]
        residuals = np.array(rows)
        mask = None if present is None else np.array(present)
        reference = _one_at_a_time("ab", residuals, mask)
        assert (reference[0].hex(), *reference[1:]) == (value.hex(), check, trial)
        # The default chunks first, before the budget shrinks.
        for trials in (None, 1, 2, 3):
            assert self.fold(monkeypatch, "ab", residuals, mask, trials) == (value.hex(), check, trial), trials

    def test_random_tables_fold_as_one_check_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(7)
        values = np.array([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf])
        for case in range(300):
            trials, checks = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            names = [f"c{c}" for c in range(checks)]
            residuals = rng.choice(values, (trials, checks), p=[0.2, 0.3, 0.3, 0.08, 0.08, 0.04])
            mask = None
            if case % 2:
                # Every trial takes at least one check, as a table requires.
                mask = rng.random((trials, checks)) < 0.5
                mask[np.arange(trials), rng.integers(0, checks, trials)] = True
            value, check, trial = _one_at_a_time(names, residuals, mask)
            got = self.fold(monkeypatch, names, residuals, mask, int(rng.integers(1, trials + 1)))
            # A worst of 0.0 passes, and a passing property has no witness.
            assert got == (value.hex(), check, None if value == 0.0 else trial), case


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

    def test_hypothesis_raises_and_breakdowns_fail_their_trials(self, monkeypatch):
        # Non-Parseval frames: l1 to l3 run on every trial, then l4 raises on
        # the first trial; the error names l4 whatever the chunking.
        sc = scenario_from_dict(generated_doc(frame_spec={"kind": "random-bessel", "seed": 3}))
        with pytest.raises(ScenarioError, match="property l4 cannot run.*Parseval"):
            run_suite(sc, ["l1", "l3", "l4", "l2"])
        # l4 breaks down on trial 2 and l5 on trial 1: each fails with a
        # breakdown witness on its own trial, whatever the chunking, and the
        # witness replays.
        for pid, bad in (("l4", 2), ("l5", 1)):
            original = suites._PROPERTY_FUNCS[pid]

            def failing(chunk, original=original, bad=bad, pid=pid):
                if bad in chunk.indices:
                    raise duality.HypothesisError(f"{pid} fails on trial {bad}")
                return original(chunk)

            monkeypatch.setitem(suites._PROPERTY_FUNCS, pid, failing)
        sc = scenario_from_dict(generated_doc())
        for trials in (None, 1, 3):
            if trials is not None:
                _set_chunk_trials(monkeypatch, sc, trials)
            report = run_suite(sc, ["l4", "l5"])
            witnesses = [(r.witness["trial_index"], r.witness["check"], r.max_residual) for r in report.properties]
            assert witnesses == [(2, "breakdown", math.inf), (1, "breakdown", math.inf)], trials
            for rec in report.properties:
                (replay,) = run_suite(scenario_from_dict(rec.witness["scenario"]), [rec.prop_id]).properties
                assert replay.witness == rec.witness

    @pytest.mark.parametrize(
        "name, reruns",
        [("rotated-k", {"l5", "canonical-char", "t1", "t4"}), ("split-t2", {"t2"})],
    )
    def test_only_the_property_that_breaks_down_or_splits_reruns(self, monkeypatch, name, reruns):
        # Each golden scenario is one chunk. On rotated-k four properties
        # break down, on split-t2 t2's trials take different branches: each
        # of them reruns once per trial, and the others run once.
        calls = Counter()
        for pid, func in list(suites._PROPERTY_FUNCS.items()):

            def counted(chunk, pid=pid, func=func):
                calls[pid] += 1
                return func(chunk)

            monkeypatch.setitem(suites._PROPERTY_FUNCS, pid, counted)
        sc = scenario_from_dict(golden.SCENARIOS[name])
        run_suite(sc)
        assert calls == {pid: 1 + sc.trials * (pid in reruns) for pid in PROPERTY_IDS}

    def test_mixed_ranks_of_b_rerun_l3_alone(self):
        # On mixed-rank-b K has one rank and every kernel one width, but B's
        # rank is 1 on 16 trials and 2 on 4: l3 takes the pseudo-inverse of
        # B, so it alone reruns trial by trial.
        sc = scenario_from_dict(golden.SCENARIOS["mixed-rank-b"])
        _, _, stack = suites._Chunk(sc, range(sc.trials)).instance
        assert Counter(ranks(frames.weighted_synthesis(stack)).tolist()) == {1: 16, 2: 4}
        sizes = {pid: [] for pid in PROPERTY_IDS}
        for j, chunk, _ in suites._chunk_tables(sc, PROPERTY_IDS):
            sizes[PROPERTY_IDS[j]].append(len(chunk.indices))
        assert sizes == {pid: [1] * sc.trials if pid == "l3" else [sc.trials] for pid in PROPERTY_IDS}


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


def count_svds(monkeypatch) -> Counter:
    """Counts ``np.linalg.svd`` calls under the key "svd" from here on."""
    counts = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return counts


@pytest.mark.parametrize(
    "pid, bound", [("l1", 10), ("l2", 15), ("l5", 10), ("l6", 8), ("canonical-char", 25), ("t1", 5), ("t2", 3)]
)
def test_svds_per_trial(monkeypatch, pid, bound):
    # l1 takes pinv(a) and both projectors of a from one SVD; l2 takes
    # its factor, scale and rank of T from the inclusion test's SVDs. The
    # guards of built duals in l5, l6 and canonical-char take no SVD where
    # a Frobenius bound settles them. With more atoms than dimensions, t1's
    # uniqueness and t2's two independence verdicts are no without an SVD.
    counts = count_svds(monkeypatch)
    sc = scenario_from_dict(generated_doc(trials=20))
    per_trial = []
    for trial in range(sc.trials):
        counts.clear()
        assert run_suite(sc.replay(trial), [pid]).all_passed
        per_trial.append(counts["svd"])
    assert max(per_trial) <= bound, per_trial


def test_svds_per_benchmark_verify_call(monkeypatch):
    # The run_suite call behind one verify call of each workload of
    # perfbench/workloads.py, at seed 42. Counts do not depend on the
    # machine, so they are pinned exactly.
    counts = count_svds(monkeypatch)
    per_call = {}
    for name, workload in sorted(golden.perfbench_module("workloads").WORKLOADS.items()):
        sc = scenario_from_dict(workload.scenario_doc(42))
        counts.clear()
        assert run_suite(sc, workload.properties).all_passed
        per_call[name] = counts["svd"]
    assert per_call == {"large-lapack": 39, "small-dense": 338, "unique-dual": 23}


@pytest.mark.parametrize("v", [3.3e-10, 6e-10])
def test_near_cut_k_derived_duals_pass(v):
    # K keeps its singular value v, which the synthesis map's wider cut
    # drops; the kernel is cut at the larger rank, so kernel fields do not
    # leak through the synthesis map and the duals built from them pass.
    sc = scenario_from_dict(generated_doc(k_spec={"kind": "diagonal", "values": [1.0, v, 0.0]}, trials=10))
    for pid in ("l5", "l6", "canonical-char", "t4"):
        assert run_suite(sc, [pid]).all_passed, pid


def test_rotated_k_dual_guard_keeps_its_exact_message():
    # K = Q diag(1, 3e-8, 0) Q^T with cond(K) = 3.3e7 on its range: l5's
    # kernel field on trial 0 makes a dual that the leak check passes and
    # the duality check of the built dual fails on its exact residual.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    k_spec = {"kind": "explicit", "matrix": (q @ np.diag([1.0, 3e-8, 0.0]) @ q.T).tolist()}
    chunk = suites._Chunk(scenario_from_dict(generated_doc(weights="uniform", k_spec=k_spec)), [0])
    space, ks, frames = chunk.instance
    pk = ParsevalKFrame(SampledFrame(space, frames.samples[0]), KOperator(ks.op[0]))
    g = pk.build_dual(chunk.parseval.sample_kernel_fields(chunk.rngs("l5"))[0])
    with pytest.raises(duality.HypothesisError, match=re.escape("G is not a dual K-Bessel family (residual 2.005e-09)")):
        pk.residual_field(g)
