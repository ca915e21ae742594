"""Bit identity of the verifier's output against tests/golden/golden.json.

Under the recorded build fingerprint, every (scenario, property) digest of
the check tables (one line per present entry) and every report digest
must match. Under any other fingerprint the bits of a float may
legitimately differ, so only the verdicts and worst-check names are
compared, and the test says so.
"""

import json

import pytest

import golden

with open(golden.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


@pytest.fixture(scope="module")
def same_build():
    return golden.build_fingerprint() == GOLDEN["fingerprint"]


def test_every_scenario_is_recorded():
    assert sorted(GOLDEN["scenarios"]) == sorted(golden.SCENARIOS)


@pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
def test_scenario_matches_golden(name, same_build, capsys):
    expected = GOLDEN["scenarios"][name]
    actual = golden.scenario_record(golden.SCENARIOS[name], golden.PROPERTIES.get(name, golden.suites.PROPERTY_IDS))
    assert sorted(actual["properties"]) == sorted(expected["properties"])
    for pid, want in expected["properties"].items():
        got = actual["properties"][pid]
        assert (got["pass"], got["worst_check"]) == (want["pass"], want["worst_check"]), f"{name} {pid}"
        if same_build:
            assert got["sha256"] == want["sha256"], f"{name} {pid}: per-trial residual bits changed"
    if same_build:
        assert actual["report_sha256"] == expected["report_sha256"], f"{name}: report bytes changed"
    else:
        with capsys.disabled():
            print(f"\n{name}: build fingerprint differs from golden.json; bits were not compared")


def test_regenerate_refuses_another_fingerprint(monkeypatch, capsys):
    from golden import regenerate

    with open(golden.GOLDEN_PATH, "rb") as handle:
        before = handle.read()
    other = dict(GOLDEN["fingerprint"], blas_threads=-1)
    monkeypatch.setattr(golden, "build_fingerprint", lambda: other)

    def refused():
        raise AssertionError("the digests were recomputed")

    monkeypatch.setattr(golden, "compute", refused)
    assert regenerate.main() == 1
    err = capsys.readouterr().err
    assert '"blas_threads": -1' in err and f'"blas_threads": {GOLDEN["fingerprint"]["blas_threads"]}' in err
    with open(golden.GOLDEN_PATH, "rb") as handle:
        assert handle.read() == before


def test_regenerate_names_each_digest(monkeypatch, tmp_path, capsys):
    from golden import regenerate

    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN), encoding="utf-8")
    monkeypatch.setattr(golden, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(golden, "build_fingerprint", lambda: GOLDEN["fingerprint"])
    computed = json.loads(json.dumps(GOLDEN))
    scenarios = computed["scenarios"]
    changed = scenarios["readme-seed-42"]["properties"]["l6"]
    changed["sha256"] = changed["sha256"][::-1]
    scenarios["added-scenario"] = scenarios.pop("zero-k")
    monkeypatch.setattr(golden, "compute", lambda: computed)
    assert regenerate.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "readme-seed-42 l6: changed" in lines
    assert "readme-seed-42 l1: kept" in lines and "readme-seed-42 report: kept" in lines
    assert "added-scenario l6: added" in lines and "zero-k: removed" in lines
    assert json.loads(path.read_text(encoding="utf-8")) == computed
