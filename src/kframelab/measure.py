"""Discretized measure space and its weighted coefficient space.

The space is a finite set of atoms with strictly positive weights, and
every integral downstream becomes a weighted sum over the atoms. Since
all weights are positive, "zero almost everywhere" means zero at every
atom. Weights enter all inner products; non-uniform weights are the
regime where a missing factor would hide, so suites run with them too.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .frames import SampledFrame

__all__ = [
    "SpaceMismatchError",
    "MeasureSpace",
    "L2Coefficients",
    "l2_inner",
    "l2_norm_sq",
    "weighted_norm_sq",
    "bochner_integrate",
]


class SpaceMismatchError(ValueError):
    """Operands live on different measure spaces."""


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite atom set with strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, atom_count: int) -> "MeasureSpace":
        return cls(np.ones(int(atom_count)))

    @property
    def atom_count(self) -> int:
        return int(self.weights.shape[0])

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)

    def compatible(self, other: "MeasureSpace") -> bool:
        return self is other or np.array_equal(self.weights, other.weights)


def _require_same_space(a: MeasureSpace, b: MeasureSpace) -> None:
    if not a.compatible(b):
        raise SpaceMismatchError("operands live on different measure spaces")


@dataclass(frozen=True, eq=False)
class L2Coefficients:
    """A scalar function on the atoms, an element of the weighted L2 space."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, copy=True)
        if v.ndim != 1 or v.shape[0] != self.space.atom_count:
            raise ValueError(
                f"values must be 1-D of length {self.space.atom_count}, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("coefficient values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def l2_inner(a: L2Coefficients, b: L2Coefficients) -> complex:
    """Weighted inner product, linear in the first argument."""
    _require_same_space(a.space, b.space)
    return complex(np.sum(a.space.weights * a.values * np.conj(b.values)))


def l2_norm_sq(c: L2Coefficients) -> float:
    """Weighted squared norm; nonnegative real."""
    return weighted_norm_sq(c.space, c.values)


def weighted_norm_sq(space: MeasureSpace, values: np.ndarray):
    """Weighted squared norm of raw values on the atoms, without building
    (and validating) an :class:`L2Coefficients`; one norm per row for a
    stack of value rows (..., m)."""
    out = np.add.reduce(space.weights * np.abs(values) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


def bochner_integrate(field: "SampledFrame", c: L2Coefficients) -> np.ndarray:
    """Weighted sum of the field's sample vectors against the coefficients."""
    _require_same_space(field.space, c.space)
    return weighted_sums(field.space, field.samples, c.values)


def weighted_sums(space: MeasureSpace, samples: np.ndarray, values: np.ndarray) -> np.ndarray:
    """:func:`bochner_integrate` on raw arrays; stacks of sample matrices
    (..., m, d) and value rows (..., m) give one vector per member."""
    return ((space.weights * values)[..., None, :] @ samples)[..., 0, :]
