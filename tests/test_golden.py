"""Bit identity of the verifier's output against tests/golden/golden.json.

Under the recorded build fingerprint, every (scenario, property) digest of
the per-trial check lists and every report digest must match. Under any
other fingerprint the bits of a float may legitimately differ, so only
the verdicts and worst-check names are compared, and the test says so.
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
    actual = golden.scenario_record(golden.SCENARIOS[name])
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
