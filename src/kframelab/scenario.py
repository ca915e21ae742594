"""Scenario configuration: parsing, validation, and instance realization.

A scenario is a JSON document. Complex scalars are written as plain
numbers or [re, im] pairs; matrices are row-major nested arrays. Every
validation error names the offending field by path so that a corrupted
config is diagnosable without reading the source. Every number goes
through :func:`_as_number`, the one place that decides what a valid
scenario number is: a finite double.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .frames import FrameStack, KStack, conditioned_ops, parseval_k_samples, random_bessel_samples
from .measure import MeasureSpace
from .rng import Streams, derive_seeds

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
    """A finite double; a bool, a non-number, NaN, an infinity or an
    integer past the double range is rejected at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", path)
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioError("expected a finite number, got an integer beyond the double range", path) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {number!r}", path)
    return number


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        re, im = value
    elif isinstance(value, (int, float)):
        re, im = value, 0.0
    else:
        raise ScenarioError(f"expected a number or an [re, im] pair, got {value!r}", path)
    return complex(_as_number(re, path), _as_number(im, path))


def _parse_matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise ScenarioError(f"expected {rows} rows", path)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ScenarioError(f"expected {cols} entries", f"{path}[{i}]")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{path}[{i}][{j}]")
    return out


def _parse_weights(value, atoms: int) -> Tuple[float, ...]:
    if value == "uniform":
        try:
            return (1.0,) * atoms
        except (OverflowError, MemoryError):
            raise ScenarioError("too many atoms to fit in memory", "atoms") from None
    if not isinstance(value, list) or len(value) != atoms:
        raise ScenarioError(f'expected "uniform" or a list of {atoms} numbers', "weights")
    out = []
    for i, entry in enumerate(value):
        w = _as_number(entry, f"weights[{i}]")
        if w <= 0:
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
        if tol <= 0:
            raise ScenarioError("tolerance must be positive", f"tolerances.{key}")
        tolerances[key] = tol
    unknown = set(doc) - {f.name for f in fields(Scenario)}
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


def _distinct_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key that appears twice in it."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioError(f"the key {json.dumps(key)} appears more than once in one object")
        doc[key] = value
    return doc


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_distinct_keys)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{path}: {str(exc).partition('; use sys.set_int_max_str_digits()')[0]}")
    except RecursionError:
        raise ScenarioError(f"{path}: the document is nested too deeply to parse") from None
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
    if kind == "random-rank":
        rngs = Streams((spec["seed"], (_K_STREAM,), (trial,)) for trial in trials)
        return conditioned_ops(rngs, scenario.dim, scenario.dim, spec["rank"])
    if kind == "identity":
        op = np.eye(scenario.dim)
    elif kind == "diagonal":
        op = np.diag(_complex_list(spec["values"]))
    else:
        op = np.array([_complex_list(row) for row in spec["matrix"]])
    return np.broadcast_to(op, (len(trials),) + op.shape)


def build_ks(scenario: Scenario, trials: Sequence[int]) -> KStack:
    """Realize the operators of the given trials as one stack, or say at ``k_spec`` why not."""
    try:
        return KStack(_k_ops(scenario, trials))
    except ValueError as exc:
        raise ScenarioError(str(exc), "k_spec") from exc


def build_frames(scenario: Scenario, space: MeasureSpace, ks: KStack, trials: Sequence[int]) -> FrameStack:
    """Realize the frames of the given trials, with their operators ``ks``,
    as one stack, or say at ``frame_spec`` why not; generated kinds vary
    with the trial."""
    spec = scenario.frame_spec
    try:
        if spec["kind"] == "explicit":
            samples = np.array([_complex_list(row) for row in spec["samples"]])
            return FrameStack(space, np.broadcast_to(samples, (len(trials),) + samples.shape))
        seeds = derive_seeds(spec["seed"], (_FRAME_STREAM,), [(trial,) for trial in trials])
        rngs = Streams((seed, (), ()) for seed in seeds)
        if spec["kind"] == "generate-parseval-k":
            return FrameStack(space, parseval_k_samples(ks, space, rngs))
        return FrameStack(space, random_bessel_samples(scenario.dim, space, rngs))
    except ValueError as exc:
        raise ScenarioError(str(exc), "frame_spec") from exc
