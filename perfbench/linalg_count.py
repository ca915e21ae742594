"""Counting wrapper for the ``numpy.linalg`` entry points the package uses.

Each call to ``svd``, ``eigvalsh`` or ``qr`` is counted, and its
floating point work is computed from the argument's shape with the
textbook operation counts (Golub and Van Loan, *Matrix Computations*,
4th ed., sections 5.2 and 8.6): the real-arithmetic count, times four
for complex input. These are model flops, independent of the machine,
not measured ones. Stacked input counts once per matrix in the stack.

A wrapper calls :meth:`LinalgCounter.record` before the wrapped
function, so the count work stays out of the function's own time. It
must replace every module attribute bound to the wrapped function,
because ``from numpy.linalg import svd`` copies the name;
:func:`patch_attributes` does that and returns an undo function.
layer_trace.py installs the counter this way, inside its span wrappers.
"""

from collections import Counter
from typing import Callable, Iterable, List, Tuple

import numpy as np

WRAPPED = ("svd", "eigvalsh", "qr")


def _arg(args, kwargs, pos: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _batch_and_shape(a) -> Tuple[int, int, int, float]:
    shape = np.shape(a)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    scale = 4.0 if np.iscomplexobj(a) else 1.0
    return batch, int(shape[-2]), int(shape[-1]), scale


def svd_flops(args, kwargs) -> float:
    """R-SVD counts: values only 4mn^2 - 4n^3/3, thin factors 6mn^2 + 20n^3,
    full factors 4m^2n + 22n^3, with m >= n after transposing."""
    batch, rows, cols, scale = _batch_and_shape(args[0])
    m, n = max(rows, cols), min(rows, cols)
    if not _arg(args, kwargs, 2, "compute_uv", True):
        real = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    elif _arg(args, kwargs, 1, "full_matrices", True):
        real = 4.0 * m * m * n + 22.0 * n**3
    else:
        real = 6.0 * m * n * n + 20.0 * n**3
    return batch * scale * real


def eigvalsh_flops(args, kwargs) -> float:
    """Tridiagonal reduction, 4n^3/3; the eigenvalue iteration is O(n^2)."""
    batch, n, _, scale = _batch_and_shape(args[0])
    return batch * scale * 4.0 * n**3 / 3.0


def qr_flops(args, kwargs) -> float:
    """Householder R, 2mn^2 - 2n^3/3, plus as much again to form Q
    (only R is formed in mode 'r')."""
    batch, rows, cols, scale = _batch_and_shape(args[0])
    m, n = max(rows, cols), min(rows, cols)
    factor = 1.0 if _arg(args, kwargs, 1, "mode", "reduced") == "r" else 2.0
    return batch * scale * factor * (2.0 * m * n * n - 2.0 * n**3 / 3.0)


FLOP_MODELS = {"svd": svd_flops, "eigvalsh": eigvalsh_flops, "qr": qr_flops}


class LinalgCounter:
    """Call and model-flop counts per wrapped ``numpy.linalg`` function."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.flops: Counter = Counter()

    def record(self, name: str, args, kwargs) -> None:
        self.calls[name] += 1
        # Whole flops per call keep the totals exact, so they repeat bit
        # for bit whatever the order or number of calls.
        self.flops[name] += round(FLOP_MODELS[name](args, kwargs))


def patch_attributes(original, replacement, modules: Iterable) -> Callable[[], None]:
    """Rebind every attribute of ``modules`` that is ``original``."""
    patched: List[Tuple[object, str]] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr))

    def undo() -> None:
        for module, attr in patched:
            setattr(module, attr, original)

    return undo
