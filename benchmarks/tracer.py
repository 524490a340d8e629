"""Outside-in tracing of the ``uncloneq`` layers.

A :class:`Tracer` wraps the public functions of the layer modules from
outside the package.  Each wrapper records a span (name, start, end,
parent) and, for a few functions, counters read from the call's arguments
or result.  :meth:`Tracer.install` patches each wrapper into every
``uncloneq`` module that holds the original under some name, and
:meth:`Tracer.restore` puts every original back.  No file of the package
knows about the tracer.

Scheme callables (``encrypt``, ``key_sampler``) are closures stored on
``QecmScheme`` objects, not module attributes; they are traced by
replacing them on every scheme a traced function returns.

The one-expression helpers ``dagger`` and ``max_abs`` and the ``assert_*``
validators are not traced: they run inside every kernel, tens of
thousands of times a pass, so a span would cost more than the call; their
time stays in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

PACKAGE = "uncloneq"
LAYERS = ("attacks", "schemes", "linalg", "optimize", "stats", "meg")
SCHEME_CALLABLES = ("encrypt", "key_sampler")
UNTRACED = ("dagger", "max_abs", "assert_")  # names equal to or starting with these
COMPLEX_BYTES = 16  # complex128 item size; ``out_bytes`` is computed from shapes


def _key_count(args: dict) -> int:
    keys = args.get("keys")
    return len(keys) if keys is not None else int(args["key_samples"])


def _shape_bytes(result: Any) -> int:
    return math.prod(result.shape) * COMPLEX_BYTES


# counters recorded per call, keyed by the traced function's span name
COUNTERS: dict[str, Callable[[dict, Any], dict]] = {
    "attacks.random_basis_attack_estimate": lambda a, r: {"trials": int(a["trials"])},
    "stats.max_over_sum_estimate": lambda a, r: {"samples": int(a["trials"])},
    "attacks.pwin_ind_eval": lambda a, r: {"keys": _key_count(a)},
    "attacks.pwin_unif_eval": lambda a, r: {"keys": _key_count(a)},
    "linalg.apply_channel": lambda a, r: {"out_bytes": _shape_bytes(r)},
    "meg.choi_state": lambda a, r: {"out_bytes": _shape_bytes(r)},
    "optimize.seesaw_pguess": lambda a, r: {
        "iterations": r.iterations_used,
        "converged": int(r.converged),
    },
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into ``Tracer.spans``; -1 for a root
    root: int = -1  # index of the root span: spans of one CLI job share it
    counts: dict | None = None


class Tracer:
    """Records spans in memory; patches and restores the layer modules."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._scheme_type: type | None = None

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, self.clock(), parent=parent, root=root))
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                self.spans[idx].counts = counter(bound.arguments, result)
            if self._scheme_type is not None and isinstance(result, self._scheme_type):
                result = self._trace_scheme(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        traced.__traced_by__ = self
        return traced

    def _trace_scheme(self, scheme: Any) -> Any:
        changes = {
            attr: self.wrap(f"schemes.{attr}", getattr(scheme, attr))
            for attr in SCHEME_CALLABLES
            if getattr(getattr(scheme, attr), "__traced_by__", None) is not self
        }
        return dataclasses.replace(scheme, **changes) if changes else scheme

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._scheme_type = sys.modules[f"{PACKAGE}.schemes"].QecmScheme
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith(("_",) + UNTRACED)
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put back every original the last :meth:`install` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)
        self._scheme_type = None

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()


# -- span arithmetic -----------------------------------------------------------


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and summed counters.

    Self time is a span's duration minus the time its direct children
    cover.  Inclusive time counts only the outermost span of a name, so a
    function reached again below itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    out: dict[str, dict[str, float]] = {}
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        st = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child_time[i]
        if not _has_ancestor(spans, i, sp.name):
            st["s"] += dur
        for key, val in (sp.counts or {}).items():
            st[key] = st.get(key, 0) + val
    return out


def count_below(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    return sum(1 for i, sp in enumerate(spans) if sp.name == name and _has_ancestor(spans, i, ancestor))
