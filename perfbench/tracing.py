"""The traced run: spans around each layer's public functions.

Nothing under ``src/`` changes.  :func:`install` replaces each traced
function where its caller looks the name up (``QuerySession`` imports
``build_reachability`` and ``graph_stats`` by name, so those are wrapped
in ``repro.engine.session``; class methods are wrapped on the class).

A span records its name, start, end, parent span and operation id.
Spans live in memory until the run ends.  The current span stack is a
``ContextVar``, so the two asyncio clients of ``xmark-serve`` keep
separate stacks.  ``QueryServer`` evaluates in worker threads, which do
not inherit that context, so the ``submit`` wrapper parks its span under
the query object's id and the worker-side ``evaluate_with_stats``
wrapper picks it up as its parent.

A span's self time is its duration minus its children's durations.
Summed over all spans of one operation this telescopes to the root
span's duration, which :meth:`Tracer.report` checks per operation.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import statistics
import time
from collections import defaultdict

NAME, OP, PARENT, START, END, EXTRA = range(6)

#: per-layer metrics: name -> unit.  Time layers are mean self time per
#: operation; they and ``session.other_ms`` add up to ``trace.op_wall_ms``.
TIME_LAYERS = (
    "graph.stats",
    "graph.write",
    "reachability.build",
    "analysis.normalize",
    "plan.compile",
    "plan.batch_compile",
    "plan.codegen",
    "engine.scan",
    "engine.downward",
    "engine.upward",
    "engine.matching_graph",
    "engine.collect",
    "engine.shared",
    "engine.other",
    "store.fingerprint",
    "store.load",
    "serve.queue_wait",
    "session.other",
)
PER_LAYER = {
    "datasets.generate_s": "s",
    **{f"{layer}_ms": "ms" for layer in TIME_LAYERS},
    "reachability.builds": "count",
    "reachability.probes": "count",
    "plan.compiles": "count",
    "plan.codegen_reuse": "ratio",
    "engine.prune_ops": "count",
    "engine.input_nodes": "count",
    "engine.prune_yield": "ratio",
    "session.result_hit_ratio": "ratio",
    "session.plan_hit_ratio": "ratio",
    "session.candidate_hit_ratio": "ratio",
    "session.invalidations": "count",
    "store.bytes_read": "bytes",
    "serve.evaluate_ms": "ms",
    "trace.op_wall_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.ops": "count",
}

#: layers that must record at least one span on each workload.
EXPECTED = {
    "xmark-cold": (
        "datasets.generate", "graph.stats", "reachability.build",
        "analysis.normalize", "plan.compile", "engine.scan", "engine.downward",
    ),
    "xmark-restart": (
        "datasets.generate", "store.fingerprint", "store.load", "graph.stats",
        "analysis.normalize", "plan.compile", "engine.scan", "engine.downward",
    ),
    "xmark-serve": (
        "datasets.generate", "analysis.normalize", "plan.compile", "plan.codegen",
        "engine.scan", "engine.downward", "engine.upward",
        "engine.matching_graph", "engine.collect", "serve.queue_wait",
    ),
    "xmark-batch-writes": (
        "datasets.generate", "graph.stats", "reachability.build", "graph.write",
        "analysis.normalize", "plan.compile", "plan.batch_compile",
        "engine.shared", "engine.upward", "engine.matching_graph", "engine.collect",
    ),
}


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.default_op = "setup"
        self._stack = contextvars.ContextVar("perfbench_spans", default=())
        self._pending: dict[int, list] = {}
        self._ops = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str, link: int | None = None, op=None):
        stack = self._stack.get()
        if stack:
            parent = stack[-1]
            op = parent[OP]
        elif link is not None and link in self._pending:
            parent = self._pending.pop(link)
            op = parent[OP]
        else:
            parent = None
            op = self.default_op if op is None else op
        span = [name, op, parent, time.perf_counter(), None, None]
        self.spans.append(span)
        return span, self._stack.set(stack + (span,))

    def _close(self, span, token) -> None:
        span[END] = time.perf_counter()
        self._stack.reset(token)

    def span(self, name: str, op=None):
        """A context manager recording one span named ``name``."""
        return _Span(self, name, op)

    def operation(self):
        """The root span of one measured operation."""
        return self.span("session.other", op=next(self._ops))

    def add(self, key: str, value: float) -> None:
        """Add ``value`` to counter ``key`` of the current operation."""
        stack = self._stack.get()
        op = stack[-1][OP] if stack else self.default_op
        self.counts[op][key] += value

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, link=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, token = tracer._open(name, link(args) if link else None)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                tracer._close(span, token)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_submit(self, owner) -> None:
        """Wrap the coroutine ``owner.submit`` (``QueryServer``)."""
        original = owner.submit
        tracer = self

        @functools.wraps(original)
        async def submit(server, query, *args, **kwargs):
            span, token = tracer._open("serve.queue_wait")
            tracer._pending[id(query)] = span
            try:
                return await original(server, query, *args, **kwargs)
            finally:
                tracer._pending.pop(id(query), None)
                tracer._close(span, token)

        owner.submit = submit
        self._patches.append((owner, "submit", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------
    def report(self, workload: str, ops: list) -> tuple[dict, list[str]]:
        """Per-layer metrics over ``ops`` and the list of failed self-checks."""
        problems: list[str] = []
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[END] is None:
                problems.append(f"span {span[NAME]} never closed")
                continue
            if span[PARENT] is not None:
                child_time[id(span[PARENT])] += span[END] - span[START]
        wanted = set(ops)
        self_ms: dict = defaultdict(lambda: defaultdict(float))
        roots: dict = {}
        evaluate_ms: dict = defaultdict(float)
        seen_layers = set()
        generate_s = []
        for span in self.spans:
            name, op = span[NAME], span[OP]
            if name == "engine.codegen":
                seen_layers.update(("engine.scan", "engine.downward"))
            seen_layers.add(name)
            if name == "datasets.generate":
                generate_s.append(span[END] - span[START])
            if op not in wanted:
                continue
            duration = span[END] - span[START]
            own = duration - child_time[id(span)]
            if own < -1e-9:
                problems.append(f"{name} in op {op}: children exceed the span by {-own:.2e} s")
            if span[PARENT] is None:
                if op in roots:
                    problems.append(f"op {op}: span {name} has no parent")
                roots[op] = duration
            elif span[PARENT][NAME] == "serve.queue_wait":
                evaluate_ms[op] += duration * 1e3
            if name == "engine.codegen":
                scan = min(max(span[EXTRA] or 0.0, 0.0), own)
                self_ms[op]["engine.scan"] += scan * 1e3
                self_ms[op]["engine.downward"] += (own - scan) * 1e3
            else:
                self_ms[op][name] += own * 1e3
        for op in ops:
            if op not in roots:
                problems.append(f"op {op} has no root span")
                continue
            parts = sum(self_ms[op].values())
            if abs(parts - roots[op] * 1e3) > 1e-6 * max(1.0, roots[op] * 1e3):
                problems.append(
                    f"op {op}: layer self times sum to {parts:.6f} ms, wall {roots[op] * 1e3:.6f} ms"
                )
        for layer in EXPECTED[workload]:
            if layer not in seen_layers:
                problems.append(f"{workload}: layer {layer} recorded no span")

        count = max(1, len(ops))
        metrics = {name: 0.0 for name in PER_LAYER}
        for op in ops:
            for layer, value in self_ms[op].items():
                metrics[f"{layer}_ms"] += value / count
        totals: dict = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                totals[key] += value
        metrics["datasets.generate_s"] = statistics.median(generate_s) if generate_s else 0.0
        for key in ("reachability.builds", "reachability.probes", "plan.compiles",
                    "engine.prune_ops", "engine.input_nodes", "session.invalidations",
                    "store.bytes_read"):
            metrics[key] = totals[key] / count
        metrics["plan.codegen_reuse"] = _ratio(totals["codegen.hits"], totals["codegen.misses"])
        metrics["engine.prune_yield"] = (
            totals["engine.intermediate"] / totals["engine.input_nodes"]
            if totals["engine.input_nodes"] else 0.0
        )
        for cache in ("result", "plan", "candidate"):
            metrics[f"session.{cache}_hit_ratio"] = _ratio(
                totals[f"{cache}.hits"], totals[f"{cache}.misses"]
            )
        metrics["serve.evaluate_ms"] = sum(evaluate_ms.values()) / count
        walls = [roots[op] * 1e3 for op in ops if op in roots]
        metrics["trace.op_wall_ms"] = sum(walls) / count
        metrics["trace.op_p50_ms"] = statistics.median(walls) if walls else 0.0
        metrics["trace.ops"] = len(ops)
        return metrics, problems


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class _Span:
    __slots__ = ("tracer", "name", "op", "span", "token")

    def __init__(self, tracer: Tracer, name: str, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        self.span, self.token = self.tracer._open(self.name, op=self.op)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span, self.token)
        return False


def _count_stats(tracer: Tracer, stats) -> None:
    add = tracer.add
    add("reachability.probes", stats.index_lookups)
    add("engine.prune_ops", stats.downward_prune_ops)
    add("engine.input_nodes", stats.input_nodes)
    add("engine.intermediate", stats.intermediate_cost)
    for cache in ("result", "plan", "candidate"):
        add(f"{cache}.hits", getattr(stats, f"{cache}_cache_hits"))
        add(f"{cache}.misses", getattr(stats, f"{cache}_cache_misses"))
    add("codegen.hits", stats.codegen_hits)
    add("codegen.misses", stats.codegen_misses)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public functions (see module docstring)."""
    import repro.datasets
    import repro.engine.gtea as gtea
    import repro.engine.operators as operators
    import repro.engine.session as session
    import repro.engine.shared as shared
    import repro.plan.codegen as codegen
    import repro.plan.compile as plan_compile
    import repro.plan.physical as physical
    import repro.plan.shared as plan_shared
    import repro.reachability.factory as factory
    import repro.serve.server as server
    import repro.store.store as store

    wrap = tracer.wrap
    wrap(repro.datasets, "generate_xmark", "datasets.generate")
    for module in (session, gtea, physical, factory):
        wrap(module, "graph_stats", "graph.stats")

    def built(span, args, result):
        tracer.add("reachability.builds", 1)

    for module in (session, gtea):
        wrap(module, "build_reachability", "reachability.build", after=built)
    wrap(session, "build_partial_reachability", "reachability.build", after=built)
    wrap(plan_compile, "normalize", "analysis.normalize")

    def compiled(span, args, result):
        tracer.add("plan.compiles", 1)

    for module in (session, gtea, plan_shared):
        wrap(module, "compile_query", "plan.compile", after=compiled)
    wrap(session, "compile_batch", "plan.batch_compile")
    wrap(session, "compile_plan", "plan.codegen")
    for cls, name in (
        (operators.CandidateScan, "engine.scan"),
        (operators.DownwardPrune, "engine.downward"),
        (operators.UpwardPrune, "engine.upward"),
        (operators.BuildMatchingGraph, "engine.matching_graph"),
        (operators.CollectResults, "engine.collect"),
    ):
        wrap(cls, "run", name)
    wrap(gtea.GTEA, "execute", "engine.other")
    wrap(gtea.GTEA, "execute_from_downward", "engine.other")
    wrap(shared.SharedExecutor, "execute", "engine.shared")
    _wrap_codegen_call(tracer, codegen.CompiledPlanFunction)
    wrap(session, "graph_fingerprint", "store.fingerprint")

    def loaded(span, args, result):
        artifact, fingerprint, kind = args[0], args[1], args[2]
        try:
            tracer.add("store.bytes_read", os.path.getsize(artifact.path(fingerprint, kind)))
        except OSError:
            pass

    wrap(store.ArtifactStore, "load", "store.load", after=loaded)
    cls = session.QuerySession
    wrap(cls, "__init__", "session.other")
    wrap(
        cls, "evaluate_with_stats", "session.other",
        after=lambda span, args, result: _count_stats(tracer, result[1]),
        link=lambda args: id(args[1]),
    )
    wrap(
        cls, "evaluate_many", "session.other",
        after=lambda span, args, result: _count_stats(tracer, result.stats),
    )
    wrap(cls, "invalidate", "session.other",
         after=lambda span, args, result: tracer.add("session.invalidations", 1))
    tracer.wrap_submit(server.QueryServer)


def _wrap_codegen_call(tracer: Tracer, cls) -> None:
    """Time specialized plan functions; the candidate part of their self
    time (the function's own ``candidates`` phase timer) goes to
    ``engine.scan``, the rest to ``engine.downward``."""
    original = cls.__call__

    def call(function, state):
        phases = state.stats.phase_seconds
        before = phases.get("candidates", 0.0)
        span, token = tracer._open("engine.codegen")
        try:
            return original(function, state)
        finally:
            span[EXTRA] = phases.get("candidates", 0.0) - before
            tracer._close(span, token)

    cls.__call__ = call
    tracer._patches.append((cls, "__call__", original))
