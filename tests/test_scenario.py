"""Tests for scenario parsing, validation and realization."""

import json

import numpy as np
import pytest

from kframelab.fixtures import fixture_scenario, fixture_w1
from kframelab.frames import KOperator, SampledFrame, classify, FrameVerdict
from kframelab.scenario import (
    Scenario,
    ScenarioError,
    build_frames,
    build_ks,
    build_space,
    load_scenario,
    scenario_from_dict,
)


def instance(sc, space, trial):
    """The operator and frame of one trial, as stacks of one."""
    ks = build_ks(sc, [trial])
    frame = SampledFrame(space, build_frames(sc, space, ks, [trial]).samples[0])
    return KOperator(ks.op[0]), frame


def minimal_doc(**overrides):
    doc = {
        "dim": 2,
        "atoms": 3,
        "weights": "uniform",
        "k_spec": {"kind": "diagonal", "values": [1.0, 0.0]},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 1},
        "trials": 10,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_round_trip(self):
        sc = scenario_from_dict(minimal_doc())
        assert sc.dim == 2
        assert sc.atoms == 3
        assert sc.weights == (1.0, 1.0, 1.0)
        assert sc.trials == 10
        assert sc.trial_offset == 0

    def test_fixture_config_matches_fixture(self):
        doc = fixture_scenario("W1")
        sc = scenario_from_dict(doc)
        space = build_space(sc)
        k, frame = instance(sc, space, trial=0)
        _, k_ref, frame_ref = fixture_w1()
        np.testing.assert_allclose(k.op, k_ref.op)
        np.testing.assert_allclose(frame.samples, frame_ref.samples)
        assert classify(frame, k).verdict is FrameVerdict.PARSEVAL_K_FRAME

    def test_missing_dim_names_the_field(self):
        doc = minimal_doc()
        del doc["dim"]
        with pytest.raises(ScenarioError, match="dim"):
            scenario_from_dict(doc)

    def test_negative_weight_names_the_index(self):
        with pytest.raises(ScenarioError, match=r"weights\[1\].*positive"):
            scenario_from_dict(minimal_doc(weights=[1.0, -1.0, 1.0]))

    def test_weight_length_mismatch(self):
        with pytest.raises(ScenarioError, match="weights"):
            scenario_from_dict(minimal_doc(weights=[1.0, 1.0]))

    def test_unknown_k_kind(self):
        with pytest.raises(ScenarioError, match="k_spec.kind"):
            scenario_from_dict(minimal_doc(k_spec={"kind": "mystery"}))

    def test_random_rank_exceeding_dim(self):
        with pytest.raises(ScenarioError, match="k_spec.rank"):
            scenario_from_dict(
                minimal_doc(k_spec={"kind": "random-rank", "rank": 3, "seed": 1})
            )

    def test_bad_complex_entry_names_the_path(self):
        with pytest.raises(ScenarioError, match=r"k_spec.values\[0\]"):
            scenario_from_dict(minimal_doc(k_spec={"kind": "diagonal", "values": ["x", 0.0]}))

    def test_explicit_matrix_shape(self):
        with pytest.raises(ScenarioError, match="k_spec.matrix"):
            scenario_from_dict(minimal_doc(k_spec={"kind": "explicit", "matrix": [[1.0]]}))

    def test_explicit_matrix_whose_gram_overflows(self):
        with pytest.raises(ScenarioError, match="k_spec.matrix"):
            scenario_from_dict(
                minimal_doc(k_spec={"kind": "explicit", "matrix": [[1e200, 0.0], [0.0, 1.0]]})
            )

    def test_explicit_samples_whose_weighted_frame_operator_overflows(self):
        # sum_i w_i f_i f_i* with f_0 = (1e150, 0): finite at unit weights,
        # past the headroom once w_0 = 1e10.
        frame_spec = {"kind": "explicit", "samples": [[1e150, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        scenario_from_dict(minimal_doc(frame_spec=frame_spec))
        with pytest.raises(ScenarioError, match="frame_spec.samples"):
            scenario_from_dict(minimal_doc(frame_spec=frame_spec, weights=[1e10, 1.0, 1.0]))

    def test_unknown_tolerance_property(self):
        with pytest.raises(ScenarioError, match="tolerances.nope"):
            scenario_from_dict(minimal_doc(tolerances={"nope": 1e-9}))

    def test_negative_trials(self):
        with pytest.raises(ScenarioError, match="trials"):
            scenario_from_dict(minimal_doc(trials=-1))

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="surprise"):
            scenario_from_dict(minimal_doc(surprise=1))

    def test_to_dict_round_trips(self):
        sc = scenario_from_dict(minimal_doc(tolerances={"l4": 1e-8}))
        again = scenario_from_dict(sc.to_dict())
        assert again == sc


class TestLoading:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()))
        sc = load_scenario(str(path))
        assert isinstance(sc, Scenario)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match=r":1:"):
            load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/scenario.json")


class TestRealization:
    def test_random_rank_k_varies_per_trial_deterministically(self):
        sc = scenario_from_dict(
            minimal_doc(k_spec={"kind": "random-rank", "rank": 2, "seed": 3})
        )
        k0a = build_ks(sc, [0])
        k0b = build_ks(sc, [0])
        k1 = build_ks(sc, [1])
        np.testing.assert_array_equal(k0a.op, k0b.op)
        assert np.linalg.norm(k0a.op - k1.op) > 1e-6
        assert k0a.rank[0] == 2
        singulars = np.linalg.svd(k0a.op[0], compute_uv=False)
        assert singulars[0] <= 2.0 + 1e-12
        assert singulars[1] >= 0.5 - 1e-12

    def test_generated_frame_is_parseval(self):
        sc = scenario_from_dict(minimal_doc())
        space = build_space(sc)
        for trial in range(3):
            k, frame = instance(sc, space, trial)
            assert classify(frame, k).verdict is FrameVerdict.PARSEVAL_K_FRAME

    def test_replay_restricts_to_one_trial(self):
        sc = scenario_from_dict(minimal_doc())
        replay = sc.replay(6)
        assert replay.trials == 1
        assert replay.trial_offset == 6
        assert replay.seed == sc.seed
