"""Scenario configuration: parsing, validation, and instance realization.

A scenario is a JSON document. Complex scalars are written as plain
numbers or [re, im] pairs; matrices are row-major nested arrays. Every
validation error names the offending field by path so that a corrupted
config is diagnosable without reading the source.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .frames import FrameStack, KStack, parseval_k_samples, random_bessel_samples
from .measure import MeasureSpace
from .rng import complex_normal_stack, derive_seeds, stacked, stream, streams

__all__ = [
    "ScenarioError",
    "Scenario",
    "scenario_from_dict",
    "load_scenario",
    "build_space",
]

K_KINDS = ("identity", "diagonal", "random-rank", "explicit")
FRAME_KINDS = ("generate-parseval-k", "explicit", "random-bessel")

# Substream tags keep instance draws disjoint from property probe draws.
_K_STREAM = 101
_FRAME_STREAM = 202


class ScenarioError(ValueError):
    """Configuration is unreadable or semantically invalid."""

    def __init__(self, message: str, field_path: Optional[str] = None):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration; weights are already resolved to numbers."""

    dim: int
    atoms: int
    weights: Tuple[float, ...]
    k_spec: dict
    frame_spec: dict
    tolerances: Dict[str, float] = field(default_factory=dict)
    trials: int = 100
    seed: int = 0
    trial_offset: int = 0

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.atoms,
            "weights": list(self.weights),
            "k_spec": json.loads(json.dumps(self.k_spec)),
            "frame_spec": json.loads(json.dumps(self.frame_spec)),
            "tolerances": dict(self.tolerances),
            "trials": self.trials,
            "seed": self.seed,
            "trial_offset": self.trial_offset,
        }

    def replay(self, trial_index: int) -> "Scenario":
        """Scenario that reruns exactly one trial of this one."""
        return replace(self, trials=1, trial_offset=int(trial_index))


def _need(doc: dict, key: str, path: str = ""):
    if key not in doc:
        where = f"{path}.{key}" if path else key
        raise ScenarioError("required field is missing", where)
    return doc[key]


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {value}", path)
    return int(value)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", path)
    return float(value)


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ScenarioError(f"expected a number or an [re, im] pair, got {value!r}", path)


def _parse_matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise ScenarioError(f"expected {rows} rows", path)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ScenarioError(f"expected {cols} entries", f"{path}[{i}]")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{path}[{i}][{j}]")
    if not np.isfinite(out).all():
        raise ScenarioError("matrix entries must be finite", path)
    return out


def _parse_weights(value, atoms: int) -> Tuple[float, ...]:
    if value == "uniform":
        return (1.0,) * atoms
    if not isinstance(value, list) or len(value) != atoms:
        raise ScenarioError(f'expected "uniform" or a list of {atoms} numbers', "weights")
    out = []
    for i, entry in enumerate(value):
        w = _as_number(entry, f"weights[{i}]")
        if not np.isfinite(w) or w <= 0:
            raise ScenarioError("weights must be positive", f"weights[{i}]")
        out.append(w)
    return tuple(out)


# Headroom kept between the entries of K K* and the largest double, per
# dimension of H. The checks form multiples of K K* (a symmetrized sum
# doubles it) and quadratic forms f* K K* f with probes of squared norm
# about dim; on the README frame a diagonal K first overflows once the
# entries of K K* pass about max_float / 4.5.
_GRAM_HEADROOM = 16.0


def _require_finite_gram(k: np.ndarray, path: str, weights: Optional[np.ndarray] = None) -> None:
    """Reject a K whose K K*, or explicit samples (the columns of ``k``)
    whose weighted frame operator sum_i w_i f_i f_i*, times the headroom,
    is not finite: every check forms them. Tested on the product itself,
    not read off a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if weights is not None:
            k = k * np.sqrt(weights)
        size = np.abs(k @ k.conj().T).max() * (_GRAM_HEADROOM * k.shape[0])
    if not np.isfinite(size):
        what, which = ("K K*", "operator") if weights is None else ("the frame operator", "samples")
        raise ScenarioError(
            f"{what} is too large to verify in double precision (its entries times {_GRAM_HEADROOM:g} "
            f"times dim must stay finite); scale the {which} down",
            path,
        )


def _parse_k_spec(doc, dim: int) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", "k_spec")
    kind = _need(doc, "kind", "k_spec")
    if kind not in K_KINDS:
        raise ScenarioError(f"unknown kind {kind!r}; valid kinds: {', '.join(K_KINDS)}", "k_spec.kind")
    spec = {"kind": kind}
    if kind == "diagonal":
        values = _need(doc, "values", "k_spec")
        if not isinstance(values, list) or len(values) != dim:
            raise ScenarioError(f"expected a list of {dim} entries", "k_spec.values")
        parsed = [_parse_complex(v, f"k_spec.values[{i}]") for i, v in enumerate(values)]
        _require_finite_gram(np.diag(np.array(parsed, dtype=np.complex128)), "k_spec.values")
        spec["values"] = [[z.real, z.imag] for z in parsed]
    elif kind == "random-rank":
        rank = _as_int(_need(doc, "rank", "k_spec"), "k_spec.rank", minimum=1)
        if rank > dim:
            raise ScenarioError(f"rank {rank} exceeds dim {dim}", "k_spec.rank")
        spec["rank"] = rank
        spec["seed"] = _as_int(_need(doc, "seed", "k_spec"), "k_spec.seed", minimum=0)
    elif kind == "explicit":
        matrix = _parse_matrix(_need(doc, "matrix", "k_spec"), dim, dim, "k_spec.matrix")
        _require_finite_gram(matrix, "k_spec.matrix")
        spec["matrix"] = [[[z.real, z.imag] for z in row] for row in matrix]
    return spec


def _parse_frame_spec(doc, atoms: int, dim: int, weights: Tuple[float, ...]) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", "frame_spec")
    kind = _need(doc, "kind", "frame_spec")
    if kind not in FRAME_KINDS:
        raise ScenarioError(
            f"unknown kind {kind!r}; valid kinds: {', '.join(FRAME_KINDS)}", "frame_spec.kind"
        )
    spec = {"kind": kind}
    if kind == "explicit":
        samples = _parse_matrix(_need(doc, "samples", "frame_spec"), atoms, dim, "frame_spec.samples")
        _require_finite_gram(samples.T, "frame_spec.samples", np.array(weights))
        spec["samples"] = [[[z.real, z.imag] for z in row] for row in samples]
    else:
        spec["seed"] = _as_int(_need(doc, "seed", "frame_spec"), "frame_spec.seed", minimum=0)
    return spec


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("the configuration document must be an object")
    dim = _as_int(_need(doc, "dim"), "dim", minimum=1)
    atoms = _as_int(_need(doc, "atoms"), "atoms", minimum=1)
    weights = _parse_weights(_need(doc, "weights"), atoms)
    k_spec = _parse_k_spec(_need(doc, "k_spec"), dim)
    frame_spec = _parse_frame_spec(_need(doc, "frame_spec"), atoms, dim, weights)
    trials = _as_int(_need(doc, "trials"), "trials", minimum=0)
    seed = _as_int(_need(doc, "seed"), "seed", minimum=0)
    trial_offset = _as_int(doc.get("trial_offset", 0), "trial_offset", minimum=0)
    tolerances_doc = doc.get("tolerances", {})
    if not isinstance(tolerances_doc, dict):
        raise ScenarioError("expected an object", "tolerances")
    from .suites import PROPERTY_IDS  # deferred to avoid an import cycle

    tolerances: Dict[str, float] = {}
    for key, value in tolerances_doc.items():
        if key not in PROPERTY_IDS:
            raise ScenarioError(
                f"unknown property id; valid ids: {', '.join(PROPERTY_IDS)}", f"tolerances.{key}"
            )
        tol = _as_number(value, f"tolerances.{key}")
        if not np.isfinite(tol) or tol <= 0:
            raise ScenarioError("tolerance must be positive", f"tolerances.{key}")
        tolerances[key] = tol
    unknown = set(doc) - {
        "dim",
        "atoms",
        "weights",
        "k_spec",
        "frame_spec",
        "tolerances",
        "trials",
        "seed",
        "trial_offset",
    }
    if unknown:
        raise ScenarioError("unknown field", sorted(unknown)[0])
    return Scenario(
        dim=dim,
        atoms=atoms,
        weights=weights,
        k_spec=k_spec,
        frame_spec=frame_spec,
        tolerances=tolerances,
        trials=trials,
        seed=seed,
        trial_offset=trial_offset,
    )


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return scenario_from_dict(doc)


def build_space(scenario: Scenario) -> MeasureSpace:
    return MeasureSpace(np.array(scenario.weights))


def _complex_list(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values], dtype=np.complex128)


def _k_ops(scenario: Scenario, trials: Sequence[int]) -> np.ndarray:
    """The operator matrices (n, d, d) of the given trials; random kinds
    vary with the trial, each drawing from its own stream."""
    spec = scenario.k_spec
    kind = spec["kind"]
    if kind != "random-rank":
        if kind == "identity":
            op = np.eye(scenario.dim)
        elif kind == "diagonal":
            op = np.diag(_complex_list(spec["values"]))
        else:
            op = np.array([_complex_list(row) for row in spec["matrix"]])
        return np.broadcast_to(op, (len(trials),) + op.shape)
    # random-rank: isometries from QR factors, singular values in [0.5, 2]
    # keep the operator well conditioned on its support.
    d, r = scenario.dim, spec["rank"]
    rngs = streams(spec["seed"], (_K_STREAM,), [(trial,) for trial in trials])
    # Per trial, two d x r draws and then the singular values.
    g = complex_normal_stack(rngs, d, r, count=2)
    singulars = stacked([np.sort(rng.uniform(0.5, 2.0, r))[::-1] for rng in rngs])
    q1, _ = np.linalg.qr(g[:, 0])
    q2, _ = np.linalg.qr(g[:, 1])
    return (q1 * singulars[:, None, :]) @ q2.conj().swapaxes(-1, -2)


def build_ks(scenario: Scenario, trials: Sequence[int]) -> KStack:
    """Realize the operators of the given trials as one stack."""
    return KStack(_k_ops(scenario, trials))


def build_frames(scenario: Scenario, space: MeasureSpace, ks: KStack, trials: Sequence[int]) -> FrameStack:
    """Realize the frames of the given trials, with their operators ``ks``,
    as one stack; generated kinds vary with the trial."""
    spec = scenario.frame_spec
    kind = spec["kind"]
    if kind == "explicit":
        samples = np.array([_complex_list(row) for row in spec["samples"]])
        return FrameStack(space, np.broadcast_to(samples, (len(trials),) + samples.shape))
    rngs = [stream(seed) for seed in derive_seeds(spec["seed"], (_FRAME_STREAM,), [(trial,) for trial in trials])]
    if kind == "generate-parseval-k":
        return FrameStack(space, parseval_k_samples(ks, space, rngs))
    return FrameStack(space, random_bessel_samples(scenario.dim, space, rngs))
