"""Outside-in span tracing for the benchmark suite.

Nothing here edits ``src/``.  :meth:`Tracer.install` replaces the public
function at each layer boundary *where the calling module looks it up*
(a module global, a class attribute, or the late ``from ... import`` inside
a facade method) with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back.

A span holds its name, start, end, parent span, the op id shared by every
span of one job or request, and a few numeric attributes (LP rows, solver
iterations, ...).  Spans stay in memory while the workload runs and
:func:`dump_spans` writes them out at the end.  A layer's self time is its
spans' durations minus the time their child spans cover, so the self times
of all spans add up to the durations of the root (op) spans, whatever the
nesting.  Times are ``time.perf_counter()`` readings, which on Linux come
from the system-wide monotonic clock: spans recorded in a server process
can be compared with the client's clock.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "Span", "LAYER_METRICS", "layer_metrics", "dump_spans", "load_spans"]

#: Name of the root span of one op; its self time is the facade's own
#: (``api.self_s``).
ROOT = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_time")

    def __init__(self, name: str, parent: "Span | None", op: Any) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict[str, Any] | None = None
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _lp_shape(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    return {"rows": result.num_constraints, "cols": result.index.num_variables}


def _lp_kind(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    return {"kind": _arg(args, kwargs, 1, "spec").kind.value}


def _highs_iterations(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    return {"iterations": int(getattr(result, "nit", 0) or 0)}


def _routed(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    return {"routed": int(not _arg(args, kwargs, 0, "tree").is_direct)}


def _batch_items(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    # Wrapped as the function under the classmethod: args[0] is the class.
    return {"items": len(_arg(args, kwargs, 1, "trees"))}


def _published_before(args: tuple, kwargs: dict) -> int:
    return args[0].published


def _shm_bytes(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    # Only a first publish packs a segment; registry hits move no bytes.
    if args[0].published == before:
        return {"bytes": 0}
    arrays = _arg(args, kwargs, 2, "arrays")
    return {"bytes": sum(int(array.nbytes) for array in arrays.values())}


def _cache_hit(args: tuple, kwargs: dict, result: Any, before: Any) -> dict:
    return {"hit": int(bool(result))}


#: (module, owning class or None, attribute, span name, attrs, pre-hook).
#: Each row is one call site: the module or class in which the caller
#: looks the function up at call time.
SITES: tuple[tuple[str, str | None, str, str, Any, Any], ...] = (
    ("repro.api.job", "PlatformRecipe", "build", "platform.resolve", None, None),
    ("repro.platform.graph", "Platform", "compiled", "platform.compile", None, None),
    ("repro.lp.solver", "LPSolutionCache", "solve_collective", "lp.cache", None, None),
    ("repro.lp.solver", None, "solve_collective_lp", "lp.solve", _lp_kind, None),
    ("repro.dynamics.replay", None, "solve_collective_lp", "lp.solve", _lp_kind, None),
    ("repro.lp.solver", None, "build_collective_lp", "lp.assemble", _lp_shape, None),
    ("repro.api.session", None, "build_collective_tree", "tree.build", None, None),
    ("repro.dynamics.replay", None, "build_collective_tree", "tree.build", None, None),
    ("repro.api.session", None, "collective_throughput", "analysis.throughput", None, None),
    ("repro.dynamics.replay", None, "collective_throughput", "analysis.throughput", None, None),
    # Looked up late by Session._materialize_batched and the simulator.
    ("repro.analysis.throughput", None, "tree_throughput", "analysis.throughput", None, None),
    ("repro.api.session", None, "pipelined_makespan", "analysis.makespan", None, None),
    ("repro.api.session", None, "simulate_collective", "simulation", _routed, None),
    ("repro.kernels.batch", "EnsembleBatch", "from_trees", "kernels.batch", _batch_items, None),
    ("repro.kernels.batch", None, "batch_inorder_simulation", "kernels.batch", None, None),
    ("repro.kernels.batch", None, "batch_pipelined_makespan", "kernels.batch", None, None),
    ("repro.shm", "SharedSegmentRegistry", "publish", "shm.publish", _shm_bytes, _published_before),
    # Looked up late by Session.dynamic_payload_for.
    ("repro.dynamics", None, "generate_trace", "dynamics.trace", None, None),
    ("repro.dynamics.replay", "TraceReplayer", "apply_next_window", "dynamics.replay", None, None),
    ("repro.runtime", "ResultCache", "get", "api.result_cache", _cache_hit, None),
)

#: The root span of one job inside a server process (in-process workloads
#: open their own root span per op instead).  The service's solve loop
#: materializes each job on a supervising worker thread, so a span opened
#: around its ``solve_many`` call would not be the parent of the job's spans.
SERVER_ROOT = (("repro.api.result", "Result", "materialize", ROOT, None, None),)


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``repro.lp.solver`` only."""

    def __init__(self, module: Any, linprog: Callable) -> None:
        self._module = module
        self.linprog = linprog

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, op: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, parent, parent.op if parent is not None else op)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start

    def op(self, op_id: Any) -> "_OpSpan":
        """Context manager for one root span (one job, batch or request)."""
        return _OpSpan(self, op_id)

    def wrap(
        self,
        function: Callable,
        name: str,
        attrs: Callable | None = None,
        before: Callable | None = None,
    ) -> Callable:
        """``function``, recording a ``name`` span around every call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            pre = before(args, kwargs) if before is not None else None
            span = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = function
        return traced

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, extra: tuple = ()) -> "Tracer":
        """Wrap every call site in :data:`SITES` (plus ``extra`` rows)."""
        for module_name, class_name, attribute, name, attrs, before in SITES + extra:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    self.wrap(original.__func__, name, attrs, before)
                )
            else:
                replacement = self.wrap(original, name, attrs, before)
            self._patch(owner, attribute, replacement)

        solver = importlib.import_module("repro.lp.solver")
        optimize = solver.optimize
        linprog = self.wrap(optimize.linprog, "lp.highs", _highs_iterations)
        self._patch(solver, "optimize", _OptimizeProxy(optimize, linprog))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class _OpSpan:
    __slots__ = ("tracer", "op_id", "span")

    def __init__(self, tracer: Tracer, op_id: Any) -> None:
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self) -> Span:
        self.span = self.tracer._enter(ROOT, self.op_id)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer._exit(self.span)


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
COLUMNS = ["id", "name", "start", "end", "parent", "op", "attrs"]


def dump_spans(path: str, spans: list[Span], meta: dict[str, Any]) -> None:
    """Write spans as JSON rows of :data:`COLUMNS` (parents by row id)."""
    index = {id(span): i for i, span in enumerate(spans)}
    rows = [
        [i, span.name, span.start, span.end, index.get(id(span.parent)), span.op, span.attrs]
        for i, span in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "columns": COLUMNS, "spans": rows}, handle)


def load_spans(path: str) -> list[Span]:
    """Rebuild the spans :func:`dump_spans` wrote (parents, child times)."""
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)["spans"]
    spans: list[Span] = []
    for _, name, start, end, parent, op, attrs in rows:
        span = Span(name, spans[parent] if parent is not None else None, op)
        span.start, span.end, span.attrs = start, end, attrs
        if span.parent is not None:
            span.parent.child_time += end - start
        spans.append(span)
    return spans


def since(spans: Iterable[Span], start: float) -> list[Span]:
    """The spans whose root span began at or after ``start``."""
    return [span for span in spans if span.root().start >= start]


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
#: Per-layer metrics computed from spans, in report order.
LAYER_METRICS = (
    "platform.resolve.calls",
    "platform.resolve.self_s",
    "platform.compile.calls",
    "platform.compile.self_s",
    "lp.assemble.calls",
    "lp.assemble.self_s",
    "lp.assemble.rows",
    "lp.assemble.cols",
    "lp.highs.calls",
    "lp.highs.self_s",
    "lp.highs.iterations",
    "lp.solve.calls",
    "lp.solve.self_s",
    "lp.solve.broadcast_s",
    "lp.solve.multicast_s",
    "lp.solve.reduce_s",
    "lp.solve.scatter_s",
    "lp.solve.gather_s",
    "lp.cache.hits",
    "lp.cache.misses",
    "lp.share",
    "tree.build.calls",
    "tree.build.self_s",
    "analysis.throughput.calls",
    "analysis.throughput.self_s",
    "analysis.makespan.calls",
    "analysis.makespan.self_s",
    "simulation.calls",
    "simulation.routed_calls",
    "simulation.self_s",
    "kernels.batch.calls",
    "kernels.batch.items",
    "kernels.batch.self_s",
    "shm.publish.calls",
    "shm.publish.self_s",
    "shm.publish.bytes",
    "dynamics.trace.calls",
    "dynamics.trace.self_s",
    "dynamics.replay.windows",
    "dynamics.replay.self_s",
    "api.self_s",
    "api.result_cache.hits",
    "api.result_cache.misses",
)

#: Span names whose self time belongs to the LP layer (``lp.share``).
_LP_SPANS = ("lp.cache", "lp.solve", "lp.assemble", "lp.highs")

#: Layers reported as ``<name>.calls`` and ``<name>.self_s``.
_TIMED_LAYERS = (
    "platform.resolve", "platform.compile", "lp.assemble", "lp.highs",
    "tree.build", "analysis.throughput", "analysis.makespan", "simulation",
    "kernels.batch", "shm.publish", "dynamics.trace",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of :data:`LAYER_METRICS`.

    ``calls`` counts outermost spans of a name only (a wrapped function
    that reaches another wrapped site of the same layer is one call); self
    times sum over every span.  An ``lp.cache`` lookup with an ``lp.solve``
    child is a miss, one without is a hit; lookup time is charged to
    ``lp.solve.self_s``, result-cache lookup time to ``api.self_s``.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    kind_s: dict[str, float] = defaultdict(float)
    misses = 0
    for span in spans:
        self_s[span.name] += span.self_time
        parent = span.parent
        if parent is None or parent.name != span.name:
            calls[span.name] += 1
        if span.name == "lp.solve":
            kind_s[span.attrs["kind"]] += span.end - span.start
            if parent is not None and parent.name == "lp.cache":
                misses += 1
        elif span.attrs:
            for key, value in span.attrs.items():
                sums[f"{span.name}.{key}"] += value

    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for name in _TIMED_LAYERS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["lp.assemble.rows"] = sums["lp.assemble.rows"]
    metrics["lp.assemble.cols"] = sums["lp.assemble.cols"]
    metrics["lp.highs.iterations"] = sums["lp.highs.iterations"]
    metrics["lp.solve.calls"] = calls["lp.solve"]
    metrics["lp.solve.self_s"] = self_s["lp.solve"] + self_s["lp.cache"]
    for kind in ("broadcast", "multicast", "reduce", "scatter", "gather"):
        metrics[f"lp.solve.{kind}_s"] = kind_s[kind]
    metrics["lp.cache.misses"] = misses
    metrics["lp.cache.hits"] = calls["lp.cache"] - misses
    metrics["lp.share"] = (
        sum(self_s[name] for name in _LP_SPANS) / total if total > 0 else 0.0
    )
    metrics["simulation.routed_calls"] = sums["simulation.routed"]
    metrics["kernels.batch.items"] = sums["kernels.batch.items"]
    metrics["shm.publish.bytes"] = sums["shm.publish.bytes"]
    metrics["dynamics.replay.windows"] = calls["dynamics.replay"]
    metrics["dynamics.replay.self_s"] = self_s["dynamics.replay"]
    metrics["api.self_s"] = self_s[ROOT] + self_s["api.result_cache"]
    metrics["api.result_cache.hits"] = sums["api.result_cache.hit"]
    metrics["api.result_cache.misses"] = (
        calls["api.result_cache"] - sums["api.result_cache.hit"]
    )
    return {name: float(metrics[name]) for name in LAYER_METRICS}
