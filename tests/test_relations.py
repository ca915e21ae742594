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

Two more relations hold only up to rounding, so they are asserted on
verdicts. Reordering the atoms, or splitting atom i into two atoms of
weight w_i / 2 with the same sample, leaves the frame operator, the
synthesis map's range and the analysis norms as they were, but sums in
another order and draws through another kernel basis. On the scenarios
below, a property's worst residual moves by at most 6e-14 (``l6``), the
rounding band, against tolerances of 1e-9 and above: no verdict may flip.
"""

import numpy as np
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


def _weights(doc: dict) -> list:
    return [1.0] * doc["atoms"] if doc["weights"] == "uniform" else list(doc["weights"])


def permuted(doc: dict, order) -> dict:
    """The scenario with its atoms, weights and samples, in ``order``."""
    weights, samples = _weights(doc), doc["frame_spec"]["samples"]
    return dict(
        doc,
        weights=[weights[i] for i in order],
        frame_spec=dict(doc["frame_spec"], samples=[samples[i] for i in order]),
    )


def split(doc: dict, i: int) -> dict:
    """The scenario with atom i split into two atoms of half its weight
    and the same sample."""
    weights, samples = _weights(doc), doc["frame_spec"]["samples"]
    weights[i : i + 1] = [weights[i] / 2.0] * 2
    return dict(
        doc,
        atoms=doc["atoms"] + 1,
        weights=weights,
        frame_spec=dict(doc["frame_spec"], samples=samples[: i + 1] + samples[i:]),
    )


def verdicts(doc: dict, trials: int = 10) -> list:
    """(property, passed) of each instance property over the first trials."""
    report = suites.run_suite(scenario_from_dict(dict(doc, trials=trials)), INSTANCE_PROPERTIES)
    return [(rec.prop_id, rec.passed) for rec in report.properties]


# The explicit goldens, then README trials 0-2 and unique-dual's trial 0
# turned explicit.
ROUNDING_CASES = [(name, None) for name in EXPLICIT] + [("readme-seed-42", t) for t in range(3)] + [("unique-dual", 0)]
ROUNDING_IDS = [name if t is None else f"{name}-trial-{t}" for name, t in ROUNDING_CASES]


def rounding_doc(name: str, trial) -> dict:
    doc = golden.SCENARIOS[name]
    return doc if trial is None else explicit_trial(doc, trial)


@pytest.mark.parametrize("name, trial", ROUNDING_CASES, ids=ROUNDING_IDS)
def test_permuted_atoms_keep_every_verdict(name, trial):
    doc = rounding_doc(name, trial)
    expected = verdicts(doc)
    identity = list(range(doc["atoms"]))
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(doc["atoms"]).tolist()
        if order != identity:
            assert verdicts(permuted(doc, order)) == expected, order


@pytest.mark.parametrize("name, trial", ROUNDING_CASES, ids=ROUNDING_IDS)
def test_split_atoms_keep_every_verdict(name, trial):
    doc = rounding_doc(name, trial)
    expected = verdicts(doc)
    for i in range(doc["atoms"]):
        assert verdicts(split(doc, i)) == expected, i
