"""Span tracing of kframelab's layers, installed from outside the package.

Every public function of each layer module is replaced by a wrapper that
records a span (name, parent, start, end), and so are the constructors
that validate or factorize (``__post_init__`` or a hand-written
``__init__``), each property function of the suite runner, and the
wrapped ``numpy.linalg`` entry points. Spans stay in memory until
:meth:`Tracer.dump`. A span's self time is its duration minus the
durations of its child spans.
"""

import dataclasses
import enum
import hashlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from linalg_count import WRAPPED, LinalgCounter, patch_attributes

# ``fixtures`` is left out: ``verify`` never calls it.
LAYERS = ("hilbert", "measure", "frames", "duality", "scenario", "suites", "rng", "report", "cli")


def _public_names(module) -> List[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items() if inspect.isfunction(v) and not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None) == module.__name__]


def _constructor(cls) -> Optional[str]:
    """The method that does a class's construction work, if it has one."""
    if issubclass(cls, (BaseException, enum.Enum, tuple)):
        return None
    if "__post_init__" in vars(cls):
        return "__post_init__"
    if "__init__" in vars(cls) and not dataclasses.is_dataclass(cls):
        return "__init__"
    return None


class Tracer:
    """Records spans for one process; :meth:`install` returns the undo."""

    def __init__(self):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        # One column per span field; a span's index is its row.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []
        self.linalg = LinalgCounter()
        self._classify_keys: set = set()
        self.classify_distinct = 0

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        name_id = self._name_index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(ends)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def new_scope(self) -> None:
        """Start a new set of (frame, K) pairs for the classify useful ratio."""
        self._classify_keys = set()

    def _on_classify(self, args, kwargs) -> None:
        frame = kwargs["frame"] if "frame" in kwargs else args[0]
        k = kwargs["k"] if "k" in kwargs else args[1]
        digest = hashlib.blake2b()
        for part in (frame.space.weights, frame.samples, k.op):
            digest.update(np.ascontiguousarray(part))
        key = digest.digest()
        if key not in self._classify_keys:
            self._classify_keys.add(key)
            self.classify_distinct += 1

    def install(self) -> Callable[[], None]:
        """Wrap the layers of the imported kframelab package."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "kframelab" and m]
        undos: List[Callable[[], None]] = []
        for layer in LAYERS:
            module = sys.modules[f"kframelab.{layer}"]
            for attr in _public_names(module):
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    hook = self._on_classify if name == "frames.classify" else None
                    undos.append(patch_attributes(obj, self.wrap(name, obj, hook), modules))
                elif inspect.isclass(obj) and _constructor(obj):
                    method = _constructor(obj)
                    original = vars(obj)[method]
                    setattr(obj, method, self.wrap(name, original))
                    undos.append(lambda cls=obj, m=method, f=original: setattr(cls, m, f))
        # The property functions are private to the suite runner; wrapping
        # them gives each property its own span.
        props = sys.modules["kframelab.suites"]._PROPERTY_FUNCS
        saved = dict(props)
        for pid, fn in saved.items():
            props[pid] = self.wrap(f"suites.{pid}", fn)
        undos.append(lambda: props.update(saved))
        for fname in WRAPPED:
            fn = getattr(np.linalg, fname)
            hook = lambda args, kwargs, n=fname: self.linalg.record(n, args, kwargs)
            undos.append(patch_attributes(fn, self.wrap(f"linalg.{fname}", fn, hook), [np.linalg] + modules))
        return lambda: [undo() for undo in reversed(undos)]

    def __len__(self) -> int:
        return len(self.span_end)

    def counts(self, first: int = 0) -> Dict[str, int]:
        """Span counts by name, from span index ``first`` on."""
        per_id = np.bincount(np.frombuffer(self.span_name, dtype=np.int32)[first:], minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, per_id) if c}

    def summary(self) -> Dict[str, Tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=len(names))
        own = duration - child.astype(np.int64)
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        self_total = np.bincount(names, weights=own, minlength=size)
        return {
            name: (int(calls[i]), int(total[i]), int(self_total[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def dump(self, path: str) -> None:
        """Write the spans as numpy columns: name index, parent span, start and end ns."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
