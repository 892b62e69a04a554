"""Spans around the public functions of the wenonet modules, installed from outside.

``Tracer.install`` replaces every public function of each module, and every
public method of each class, by a wrapper that records a span: name, start,
end and parent.  A function is wrapped in every module namespace that binds
it (``solver.rhs`` is also ``analysis.rhs``; ``reconstruct.interpolants3`` is
also ``ratnet.interpolants3`` and ``train.interpolants3``), under the name of
the module that defines it, so calls through either binding land in one span
name.  ``uninstall`` puts the originals back.  No file of the program is
changed.

Self time is computed as the span's duration minus the time its child spans
cover; the root span, opened by the benchmark around a whole round, keeps the
work that no span covers.  Aggregates per name are kept for every span; the
raw span records are kept up to ``MAX_RECORDS`` and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

#: The modules whose public functions are wrapped, in import order.
MODULES = ("funcspace", "reconstruct", "ratnet", "train", "solver", "analysis", "cli")


def _rows(shape) -> int:
    """Number of stencils in an array of shape (..., width)."""
    n = 1
    for d in tuple(shape)[:-1]:
        n *= int(d)
    return n


def _stencil_rows(pos: int):
    def count(args, kwargs, result):
        return _rows(getattr(args[pos], "shape", ()))

    return count


def _len_of_result(args, kwargs, result):
    return len(result)


def _len_of_arg(pos: int):
    def count(args, kwargs, result):
        return len(args[pos])

    return count


#: Work items counted per call for the spans that report a per-item cost:
#: faces for the reconstructions, samples for the loss, rows for the dataset.
ITEM_COUNTERS = {
    "ratnet.nn_reconstruct": _stencil_rows(1),
    "reconstruct.Weno3JS.face_value": _stencil_rows(1),
    "reconstruct.Weno5JS.face_value": _stencil_rows(1),
    "train.loss_and_grad": _len_of_arg(2),
    "funcspace.build_dataset": _len_of_result,
}

#: Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("solver.rhs",)

#: Raw span records kept per tracer; later spans only enter the aggregates.
MAX_RECORDS = 50_000


class Stats:
    """Per-name totals: calls, inclusive and self seconds, items, durations."""

    __slots__ = ("calls", "total", "self_time", "items", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.durations = []


class Tracer:
    def __init__(self, package):
        self.package = package
        self.records: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.stats: dict[str, Stats] = {}
        self.root_self = 0.0
        self.found: set[str] = set()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self, items: int = 0) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.records) < MAX_RECORDS:
            self.records.append((span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        if name == "root":
            self.root_self += dur - child
            return
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stats()
        st.calls += 1
        st.total += dur
        st.self_time += dur - child
        st.items += items
        if name in KEEP_DURATIONS:
            st.durations.append(dur)

    @contextlib.contextmanager
    def root(self):
        """The root span around one round."""
        self._open("root")
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name: str):
        counter = ITEM_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                items = counter(args, kwargs, result) if counter and result is not None else 0
                tracer._close(items)

        return traced

    # -- installing the wrappers -----------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name) for every public callable."""
        modules = {m: getattr(self.package, m) for m in MODULES if hasattr(self.package, m)}
        names: dict[object, str] = {}
        methods = []
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    names[obj] = f"{short}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            methods.append((obj, meth, fn, f"{short}.{attr}.{meth}"))
        out = list(methods)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    out.append((mod, attr, obj, names[obj]))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        for owner, attr, fn, name in self._targets():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            setattr(owner, attr, wrappers[fn])
            self._saved.append((owner, attr, fn))
            self.found.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        """Span records as JSON: one [id, parent, name, start, end] per span."""
        doc = {"dropped": self.dropped, "fields": ["id", "parent", "name", "start", "end"],
               "spans": self.records}
        with open(path, "w") as f:
            json.dump(doc, f)
