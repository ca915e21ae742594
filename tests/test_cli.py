"""End-to-end tests of the command line interface."""

import json

from kframelab.fixtures import fixture_scenario

from helpers import run_cli


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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

    def test_unknown_property_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, generated_doc())
        result = run_cli("verify", "--config", path, "--properties", "bogus")
        assert result.returncode == 2
        assert "bogus" in result.stderr

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
