"""End-to-end tests of the command line interface."""

import json

import numpy as np
import pytest

from kframelab import cli, suites
from kframelab.fixtures import fixture_scenario
from kframelab.scenario import ScenarioError, scenario_from_dict
from kframelab.suites import run_suite

from helpers import run_cli


def write_scenario(tmp_path, doc, name="scenario.json"):
    return write_text(tmp_path, json.dumps(doc), name)


def write_text(tmp_path, text, name="scenario.json"):
    """A config file with raw text, for literals json.dumps cannot emit."""
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def generated_doc(**overrides):
    doc = {
        "dim": 2,
        "atoms": 4,
        "weights": [0.5, 2.0, 1.0, 1.5],
        "k_spec": {"kind": "random-rank", "rank": 1, "seed": 2},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 3},
        "trials": 4,
        "seed": 11,
    }
    doc.update(overrides)
    return doc


class TestFixturesCommand:
    def test_prints_valid_scenario(self, tmp_path):
        result = run_cli("fixtures", "--name", "W1p")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc == fixture_scenario("W1p")

    def test_fixture_feeds_verify(self, tmp_path):
        doc = json.loads(run_cli("fixtures", "--name", "W1").stdout)
        path = write_scenario(tmp_path, doc)
        result = run_cli("verify", "--config", path, "--properties", "t1,l4", "--trials", "3")
        assert result.returncode == 0
        assert "pass" in result.stdout

    def test_unknown_fixture_name(self):
        assert run_cli("fixtures", "--name", "W9").returncode == 2

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for name in ("W1", "W1p"):
            assert cli.main(["fixtures", "--name", name]) == 0
            assert json.loads(capsys.readouterr().out) == fixture_scenario(name)
        assert built == [1]


class TestVerifyCommand:
    def test_pass_run_writes_schema_report(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        report_path = tmp_path / "report.json"
        result = run_cli(
            "verify", "--config", path, "--report", str(report_path), "--format", "json"
        )
        assert result.returncode == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == {"version", "scenario_echo", "properties", "wall_time_ms", "meta"}
        assert len(doc["properties"]) == 12
        assert all(p["pass"] for p in doc["properties"])
        assert doc["scenario_echo"]["seed"] == 11
        # Round trip: the emitted report parses back with the same verdicts.
        assert json.loads(json.dumps(doc)) == doc

    def test_failing_property_exits_one_with_witness(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc(tolerances={"l4": 1e-30}))
        report_path = tmp_path / "report.json"
        result = run_cli(
            "verify", "--config", path, "--properties", "l4", "--report", str(report_path)
        )
        assert result.returncode == 1
        doc = json.loads(report_path.read_text())
        (prop,) = doc["properties"]
        assert not prop["pass"]
        witness = prop["witness"]
        assert witness["scenario"]["trials"] == 1
        # Replaying the witness reproduces the failure.
        replay_path = write_scenario(tmp_path, witness["scenario"], "replay.json")
        replay = run_cli("verify", "--config", replay_path, "--properties", "l4")
        assert replay.returncode == 1

    def test_determinism_across_runs(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        run_cli("verify", "--config", path, "--report", str(r1))
        run_cli("verify", "--config", path, "--report", str(r2))
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        d1.pop("wall_time_ms")
        d2.pop("wall_time_ms")
        assert d1 == d2

    def test_text_report_format(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc(trials=2))
        report_path = tmp_path / "report.txt"
        result = run_cli(
            "verify",
            "--config",
            path,
            "--properties",
            "l1",
            "--report",
            str(report_path),
            "--format",
            "text",
        )
        assert result.returncode == 0
        text = report_path.read_text()
        assert "l1" in text and "pass" in text

    def test_corrupted_config_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        result = run_cli("verify", "--config", str(path))
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_config_that_is_not_utf8_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dim": 3, \xff\xfe\x00garbage')
        result = run_cli("verify", "--config", str(path))
        assert result.returncode == 2
        assert result.stderr == f"error: {path}: not valid UTF-8 at byte 11\n"

    def test_repeated_key_exits_two(self, tmp_path):
        text = json.dumps(generated_doc(seed=1))[:-1] + ', "seed": 2, "k_spec": {"kind": "identity"}}'
        path = write_text(tmp_path, text)
        result = run_cli("verify", "--config", path, "--properties", "l4")
        assert result.returncode == 2
        assert result.stderr == f'error: {path}: the key "seed" appears more than once in one object\n'

    def test_semantic_error_names_field(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc(weights=[1.0, -1.0, 1.0, 1.0]))
        result = run_cli("verify", "--config", str(path))
        assert result.returncode == 2
        assert "weights[1]" in result.stderr

    def test_k_whose_gram_overflows_exits_two(self, tmp_path):
        # K K* = diag(1e400, 1, 0) is not finite; validation must reject it
        # by field path instead of letting l4 crash on the product.
        doc = {
            "dim": 3,
            "atoms": 7,
            "weights": [0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75],
            "k_spec": {"kind": "diagonal", "values": [1e200, 1, 0]},
            "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
            "trials": 3,
            "seed": 42,
        }
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc), "--properties", "l4")
        assert result.returncode == 2
        assert "k_spec.values" in result.stderr
        assert "Traceback" not in result.stderr

    def test_k_just_below_the_gram_overflow_exits_two(self, tmp_path):
        # K K* = diag(1e308, 1, 0) is finite, but the checks double it and
        # form quadratic forms in it; validation must keep a headroom.
        doc = {
            "dim": 3,
            "atoms": 7,
            "weights": [0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75],
            "k_spec": {"kind": "diagonal", "values": [1e154, 1, 0]},
            "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
            "trials": 3,
            "seed": 42,
        }
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc))
        assert result.returncode == 2
        assert "k_spec.values" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("prop", ["l4", "l3"])
    def test_explicit_frame_whose_frame_operator_overflows_exits_two(self, tmp_path, prop):
        # The frame operator diag(1e400, 1) is not finite: l4 used to crash
        # on it with a traceback and l3 to pass. Validation must reject it.
        doc = {
            "dim": 2,
            "atoms": 2,
            "weights": [1, 1],
            "k_spec": {"kind": "identity"},
            "frame_spec": {"kind": "explicit", "samples": [[1e200, 0], [0, 1]]},
            "trials": 2,
            "seed": 42,
        }
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc), "--properties", prop)
        assert result.returncode == 2
        assert "frame_spec.samples" in result.stderr
        assert "Traceback" not in result.stderr

    def test_generator_with_fewer_atoms_than_rank_names_frame_spec(self, tmp_path):
        # Whichever property runs first, the fault is the generated frame's.
        doc = generated_doc(dim=3, atoms=1, weights="uniform", k_spec={"kind": "random-rank", "rank": 2, "seed": 5})
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc))
        assert result.returncode == 2
        assert result.stderr.startswith("error: frame_spec: cannot reach the lower bound with 1 atoms and rank 2")

    def test_weights_alone_do_not_split_the_uniqueness_verdict(self, tmp_path):
        # rank K = rank B = m = 3, so the synthesis kernel is trivial and the
        # dual unique, while the unweighted samples, with singular values
        # (2.4e-2, 3.4e-8, 6.2e-13), have rank 2 under their own cut.
        doc = {
            "dim": 4,
            "atoms": 3,
            "weights": [0.00023521690066121863, 0.0003835803857297119, 14272256.029908078],
            "k_spec": {
                "kind": "diagonal",
                "values": [0.0, 3.761486725389326e-09, 2.1646597342327553e-10, 0.0006834821769942471],
            },
            "frame_spec": {"kind": "generate-parseval-k", "seed": 35},
            "trials": 5,
            "seed": 552,
        }
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc), "--properties", "t1")
        assert result.returncode == 0, result.stderr

    def test_unknown_property_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        result = run_cli("verify", "--config", path, "--properties", "bogus")
        assert result.returncode == 2
        assert "bogus" in result.stderr

    def test_empty_property_selection_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        result = run_cli("verify", "--config", path, "--properties", ",")
        assert result.returncode == 2
        assert "properties" in result.stderr

    def test_repeated_property_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        result = run_cli("verify", "--config", path, "--properties", "l4,l4,t1")
        assert result.returncode == 2
        assert "properties" in result.stderr and "l4" in result.stderr
        assert result.stdout == ""

    def test_run_suite_rejects_an_empty_selection(self):
        with pytest.raises(ScenarioError, match="properties"):
            run_suite(scenario_from_dict(generated_doc()), [])

    def test_integer_past_the_double_range_exits_two(self, tmp_path):
        text = json.dumps(generated_doc(weights=["W", 2.0, 1.0, 1.5])).replace('"W"', "1" + "0" * 400)
        result = run_cli("verify", "--config", write_text(tmp_path, text))
        assert result.returncode == 2
        assert "weights[0]" in result.stderr and "finite" in result.stderr
        assert "Traceback" not in result.stderr

    def test_literal_past_the_digit_limit_exits_two(self, tmp_path):
        # json.loads refuses integer literals of more than 4300 digits.
        text = json.dumps(generated_doc(seed="S")).replace('"S"', "1" * 5000)
        path = write_text(tmp_path, text)
        result = run_cli("verify", "--config", path)
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in result.stderr
        assert "5000 digits" in result.stderr and "set_int_max_str_digits" not in result.stderr

    def test_document_nested_too_deeply_exits_two(self, tmp_path):
        # json.loads recurses once per level and gives up with a RecursionError.
        path = write_text(tmp_path, "[" * 100000 + "]" * 100000)
        result = run_cli("verify", "--config", path)
        assert result.returncode == 2
        assert result.stderr == f"error: {path}: the document is nested too deeply to parse\n"

    @pytest.mark.parametrize("option", ["trials", "seed"])
    def test_negative_override_names_the_field(self, tmp_path, option):
        path = write_scenario(tmp_path, generated_doc())
        result = run_cli("verify", "--config", path, f"--{option}", "-1")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {option}: must be >= 0")

    def test_seed_override_changes_report(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        run_cli("verify", "--config", path, "--properties", "l1", "--report", str(r1))
        run_cli(
            "verify", "--config", path, "--properties", "l1", "--seed", "99", "--report", str(r2)
        )
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        assert d2["scenario_echo"]["seed"] == 99
        assert (
            d1["properties"][0]["max_residual"] != d2["properties"][0]["max_residual"]
        )

    def test_unwritable_report_path_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc(trials=1))
        result = run_cli(
            "verify", "--config", path, "--properties", "l1",
            "--report", str(tmp_path / "missing-dir" / "r.json"),
        )
        assert result.returncode == 2
        assert "cannot write report" in result.stderr


def rotated_k_doc():
    """The README shape with uniform weights and K = Q diag(1, 3e-8, 0) Q^T,
    Q from the QR of a seeded normal draw: cond(K) = 3.3e7 on its range."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    return {
        "dim": 3,
        "atoms": 7,
        "weights": "uniform",
        "k_spec": {"kind": "explicit", "matrix": (q @ np.diag([1.0, 3e-8, 0.0]) @ q.T).tolist()},
        "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
        "trials": 50,
        "seed": 42,
    }


class TestBreakdowns:
    """A property that breaks down on an object it built fails with a
    witness; only the scenario's own errors exit 2."""

    @pytest.mark.parametrize("prop, trial", [("l5", 0), ("canonical-char", 0), ("t1", 0), ("t4", 3)])
    def test_rotated_k_breakdown_fails_with_a_witness_that_replays(self, tmp_path, prop, trial):
        report_path = tmp_path / "report.json"
        result = run_cli(
            "verify", "--config", write_scenario(tmp_path, rotated_k_doc()), "--properties", prop,
            "--report", str(report_path),
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        (rec,) = json.loads(report_path.read_text())["properties"]
        witness = rec["witness"]
        assert (witness["trial_index"], witness["check"]) == (trial, "breakdown")
        (replay,) = run_suite(scenario_from_dict(witness["scenario"]), [prop]).properties
        assert (replay.witness["trial_index"], replay.worst_check) == (trial, "breakdown")

    def test_generated_samples_that_overflow_name_frame_spec(self, tmp_path):
        doc = {
            "dim": 3,
            "atoms": 3,
            "weights": [1e-320, 1, 1],
            "k_spec": {"kind": "diagonal", "values": [1e150, 1, 1]},
            "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
            "trials": 2,
            "seed": 42,
        }
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc))
        assert result.returncode == 2
        assert "error: frame_spec: sample entries must be finite" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        # In process, where warnings are errors, the overflow is not warned about either.
        with pytest.raises(ScenarioError, match="sample entries must be finite") as exc:
            run_suite(scenario_from_dict(doc))
        assert exc.value.field_path == "frame_spec"

    def test_operator_too_large_to_build_names_k_spec(self, tmp_path):
        # numpy refuses the 10**12 x 10**12 identity before allocating it.
        doc = generated_doc(dim=10**12, k_spec={"kind": "identity"})
        result = run_cli("verify", "--config", write_scenario(tmp_path, doc))
        assert result.returncode == 2
        assert result.stderr.startswith("error: k_spec: ")
        assert "Traceback" not in result.stderr

    def test_memory_error_exits_two(self, tmp_path, monkeypatch, capsys):
        def exhausted(chunk):
            raise MemoryError

        monkeypatch.setitem(suites._PROPERTY_FUNCS, "l4", exhausted)
        path = write_scenario(tmp_path, generated_doc())
        assert cli.main(["verify", "--config", path, "--properties", "l1,l4"]) == 2
        assert capsys.readouterr().err == "error: property l4 cannot run on this scenario: it does not fit in memory\n"
