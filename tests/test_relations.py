"""Exact relations between scenarios: pairs of runs whose check tables
must agree bit for bit.

Every weight times 4 with every sample halved leaves each weighted
product w_i F_i F_i* and each sqrt(w_i) F_i as it was, and both factors
are powers of two, so no rounding moves: the properties that build the
scenario's instances give the same check tables, entry by entry. A
routine that drops the weights, or takes them whole where their square
root belongs, breaks the equality.

Generated scenarios take part one trial at a time, turned explicit: their
K and frame samples become explicit entries. There ``canonical-char``'s
certificate decides its partners, and it must decide them the same way
under the exact change of weights.
"""

import pytest

from kframelab import duality, suites
from kframelab.scenario import scenario_from_dict

import golden

# The golden scenarios whose frames are given as explicit samples.
EXPLICIT = ("loose-parseval-explicit", "k-rank-above-atoms", "w1", "w1p", "gauss-legendre", "circle-complex")
# l1 and l2 draw their own matrices and never read the scenario.
INSTANCE_PROPERTIES = [pid for pid in suites.PROPERTY_IDS if pid not in ("l1", "l2")]


def _halved(entry):
    """A sample entry halved: a number, or a [re, im] pair."""
    return [part / 2.0 for part in entry] if isinstance(entry, list) else entry / 2.0


def rescaled(doc: dict) -> dict:
    """The scenario with every weight times 4 and every sample halved."""
    weights = [4.0] * doc["atoms"] if doc["weights"] == "uniform" else [4.0 * w for w in doc["weights"]]
    samples = [[_halved(entry) for entry in row] for row in doc["frame_spec"]["samples"]]
    return dict(doc, weights=weights, frame_spec=dict(doc["frame_spec"], samples=samples))


def _pairs(rows) -> list:
    """[re, im] pairs of a complex matrix, row by row."""
    return [[[z.real, z.imag] for z in row] for row in rows.tolist()]


def explicit_trial(doc: dict, trial: int) -> dict:
    """A generated scenario's trial, with its K and frame samples explicit."""
    _, ks, frames = suites._Chunk(scenario_from_dict(doc), [trial]).instance
    k_spec = {"kind": "explicit", "matrix": _pairs(ks.op[0])}
    return dict(doc, k_spec=k_spec, frame_spec={"kind": "explicit", "samples": _pairs(frames.samples[0])})


def check_rows(doc: dict, trials: int = 10) -> list:
    """(property, trial, check, ``float.hex`` of the residual) of every
    entry of the check tables of the first trials."""
    sc = scenario_from_dict(dict(doc, trials=trials))
    return [
        (INSTANCE_PROPERTIES[j], index, name, value.hex())
        for j, chunk, table in suites._chunk_tables(sc, INSTANCE_PROPERTIES)
        for row, index in enumerate(chunk.indices)
        for name, value in table.row(row)
    ]


@pytest.mark.parametrize("name", EXPLICIT)
def test_weights_times_four_with_halved_samples_keep_every_bit(name):
    doc = golden.SCENARIOS[name]
    assert rescaled(doc) != doc
    assert check_rows(rescaled(doc)) == check_rows(doc)


@pytest.mark.parametrize(
    "name, trial, trials",
    [("readme-seed-42", t, 10) for t in range(5)] + [("d24-m96", 0, 2)],
    ids=[f"readme-trial-{t}" for t in range(5)] + ["d24-m96-trial-0"],
)
def test_generated_trials_turned_explicit_keep_every_bit(monkeypatch, name, trial, trials):
    # Every run's certificate decides canonical-char's partners.
    decisions, certified = [], duality._partners_certified
    monkeypatch.setattr(duality, "_partners_certified", lambda *args: decisions.append(certified(*args)) or decisions[-1])
    doc = explicit_trial(golden.SCENARIOS[name], trial)
    assert check_rows(rescaled(doc), trials) == check_rows(doc, trials)
    assert decisions == [True, True]
