"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public functions at each layer boundary of
``repro`` (the table :data:`TARGETS`) so that every call records a span —
name, start, end, parent span, the ``X-Request-Id`` of the request being
served, and the benchmark phase — into a :class:`Tracer`. Hot inner
functions record counts instead of spans. :func:`install` returns the
function that restores the originals, so one server process can measure
a phase untraced and the next one traced.

Spans stay in memory and are written as JSON lines when the server
stops; :func:`layer_metrics` turns a trace file into the per-layer
metrics. A span's *self time* is its duration minus the durations of its
child spans (children of one span run on its thread, one after another).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: (module, attribute path, span or counter name, kind). Kinds:
#: ``span`` a timed call, ``async`` a timed coroutine, ``property`` a timed
#: property read, ``classmethod`` a timed class method, ``handler`` the
#: bridge's request entry (also binds the request id), ``function`` a
#: module function (patched wherever it was imported by name), ``count``
#: a call counter, ``probe`` a call counted only inside union access, and
#: ``union`` the union access scope the probes are counted in.
TARGETS = [
    # server: the stdlib bridge, the ASGI app, the session table
    ("repro.server.http", "ASGIRequestHandler.do_GET", "server.handler", "handler"),
    ("repro.server.http", "ASGIRequestHandler.do_POST", "server.handler", "handler"),
    ("repro.server.app", "ReproApp.__call__", "server.app", "async"),
    ("repro.server.app", "ReproApp.dispatch", "server.dispatch", "span"),
    ("repro.server.sessions", "SessionTable.get", "server.session", "span"),
    ("repro.server.sessions", "SessionTable.charge", "server.session", "span"),
    # service
    ("repro.service.cursor", "Cursor.pinned", "service.pin", "property"),
    ("repro.service.query_service", "QueryService.apply", "service.apply", "span"),
    # core.read: the pinned views' reads
    ("repro.core.cq_index", "CQIndex.batch", "core.read.batch", "span"),
    ("repro.core.cq_index", "CQIndex.sample_many", "core.read.sample", "span"),
    ("repro.core.cq_index", "CQIndex.inverted_access", "core.read.invert", "span"),
    ("repro.core.dynamic", "EngineServingMixin.batch", "core.read.batch", "span"),
    ("repro.core.dynamic", "EngineServingMixin.sample_many", "core.read.sample", "span"),
    ("repro.core.dynamic", "EngineServingMixin.inverted_access", "core.read.invert", "span"),
    ("repro.core.union_access", "MCUCQIndex.batch", "core.read.batch", "span"),
    ("repro.core.union_access", "MCUCQIndex.sample_many", "core.read.sample", "span"),
    ("repro.core.union_access", "UnionIndexSnapshot.batch", "core.read.batch", "span"),
    ("repro.core.union_access", "UnionIndexSnapshot.sample_many", "core.read.sample", "span"),
    # core.union: member and intersection probes inside union access
    ("repro.core.union_access", "UnionRandomAccess.access", "core.union.access", "union"),
    ("repro.core.cq_index", "CQIndex.access", "core.union.probes", "probe"),
    ("repro.core.cq_index", "CQIndex.inverted_access", "core.union.probes", "probe"),
    ("repro.core.dynamic", "EngineServingMixin.access", "core.union.probes", "probe"),
    ("repro.core.dynamic", "EngineServingMixin.inverted_access", "core.union.probes", "probe"),
    # core.build
    ("repro.core.reduction", "reduce_to_full_acyclic", "core.build.reduce", "function"),
    ("repro.core.index", "JoinForestIndex.__init__", "core.build.forest", "span"),
    ("repro.core.flat_store", "columnarize_forest", "core.build.columnarize", "function"),
    ("repro.core.union_access", "MCUCQIndex._build_dynamic", "core.build.dynamic", "span"),
    # core.dynamic
    ("repro.core.union_access", "MCUCQIndex.apply_delta", "core.dynamic.maintain", "span"),
    ("repro.core.order_tree", "OrderedWeightTree.set_weight", "core.dynamic.set_weight", "count"),
    # database
    ("repro.database.delta", "delta_from_jsonl", "database.validate", "function"),
    ("repro.database.database", "Database.apply", "database.apply", "span"),
    # storage
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append", "span"),
    ("repro.service.query_service", "QueryService.checkpoint", "storage.checkpoint", "span"),
    ("repro.service.query_service", "QueryService.recover", "storage.recover", "classmethod"),
]

#: Span families that suppress nested spans of their own family (a union
#: ``sample_many`` calls its own ``batch``; only the outer read counts).
_FLAT_FAMILIES = ("core.read.",)


class Tracer:
    """In-memory span and counter store shared by every server thread."""

    def __init__(self):
        self.phase = "setup"
        self.spans: List[tuple] = []
        #: phase → counter name → count
        self.counters: Dict[str, Dict[str, int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "request", None)

    @request_id.setter
    def request_id(self, value: Optional[str]) -> None:
        self._local.request = value

    # -- recording ------------------------------------------------------- #

    def enter(self, name: str) -> Optional[tuple]:
        """Open a span; ``None`` when suppressed as a nested read."""
        stack = self._stack()
        if stack and name.startswith(_FLAT_FAMILIES):
            parent_name = stack[-1][1]
            if any(parent_name.startswith(family) and name.startswith(family)
                   for family in _FLAT_FAMILIES):
                return None
        span = (next(self._ids), name, stack[-1][0] if stack else 0)
        stack.append(span)
        return span + (time.perf_counter(),)

    def exit(self, opened: Optional[tuple]) -> None:
        if opened is None:
            return
        end = time.perf_counter()
        span_id, name, parent, start = opened
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, end, parent, self.request_id, self.phase)
        )

    def count(self, name: str) -> None:
        # The read-modify-write is not atomic across threads.
        with self._lock:
            counters = self.counters.setdefault(self.phase, {})
            counters[name] = counters.get(name, 0) + 1

    @property
    def in_union(self) -> bool:
        return getattr(self._local, "union_depth", 0) > 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request, phase in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "phase": phase,
                }) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")



# ---------------------------------------------------------------------- #
# Wrappers                                                                #
# ---------------------------------------------------------------------- #


def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(opened)

    return wrapper


def _timed_async(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        opened = tracer.enter(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.exit(opened)

    return wrapper


def _handler(tracer: Tracer, name: str, fn: Callable) -> Callable:
    timed = _timed(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.request_id = self.headers.get("X-Request-Id")
        try:
            return timed(self, *args, **kwargs)
        finally:
            tracer.request_id = None

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _probe(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_union:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _union_scope(tracer: Tracer, name: str, fn: Callable) -> Callable:
    local = tracer._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local.union_depth = getattr(local, "union_depth", 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            local.union_depth -= 1

    return wrapper


_WRAP = {
    "span": _timed, "function": _timed, "async": _timed_async,
    "handler": _handler, "count": _counted, "probe": _probe,
    "union": _union_scope,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that unwraps them all.

    A target listed twice (a read that is also a union probe) is wrapped
    twice, the later entry outermost.
    """
    import importlib

    undo: List[tuple] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, value)

    for module_name, path, name, kind in TARGETS:
        module = importlib.import_module(module_name)
        if kind == "function":
            original = getattr(module, path)
            wrapped = _timed(tracer, name, original)
            # Rebind every ``from module import function`` copy as well.
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, path, None) is original):
                    patch(loaded, path, wrapped)
            continue
        owner_name, attr = path.split(".")
        owner = getattr(module, owner_name)
        current = owner.__dict__[attr]
        if kind == "property":
            patch(owner, attr, property(_timed(tracer, name, current.fget)))
        elif kind == "classmethod":
            patch(owner, attr, classmethod(_timed(tracer, name, current.__func__)))
        else:
            patch(owner, attr, _WRAP[kind](tracer, name, current))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------- #
# Analysis                                                                #
# ---------------------------------------------------------------------- #


def load(path) -> tuple:
    """``(spans, counters)`` from a trace file."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def annotate(spans: List[dict]) -> None:
    """Add ``dur`` and ``self`` (seconds) to every span."""
    child_time: Dict[int, float] = {}
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"]:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["dur"]
            )
    for span in spans:
        span["self"] = span["dur"] - child_time.get(span["id"], 0.0)


def select(spans: List[dict], name: str, phases=("count", "loop")) -> List[dict]:
    return [s for s in spans if s["name"] == name and s["phase"] in phases]


def per_request(spans: List[dict], name: str, field: str = "dur",
                phases=("count", "loop")) -> Dict[str, float]:
    """Request id → summed ``field`` of its spans named ``name``."""
    out: Dict[str, float] = {}
    for span in select(spans, name, phases):
        if span["request"] is not None:
            out[span["request"]] = out.get(span["request"], 0.0) + span[field]
    return out


def ms_quantile(values: Iterable[float], q: float) -> float:
    return percentile([v * 1e3 for v in values], q)


def layer_metrics(spans: List[dict], client_latency: Dict[str, float]) -> Dict[str, float]:
    """The span-derived per-layer metrics (values in their BENCHMARK units).

    ``client_latency`` maps request ids of the traced loop to the latency
    the client measured, for the wire share.
    """
    annotate(spans)
    handler = per_request(spans, "server.handler", phases=("loop",))
    wire = [client_latency[rid] - dur for rid, dur in handler.items()
            if rid in client_latency]

    def p(name, q, field="dur"):
        return ms_quantile([s[field] for s in select(spans, name)], q)

    def build_seconds(name):
        return sum(s["self"] for s in select(spans, name, phases=("setup",)))

    return {
        "server.wire_p50_ms": ms_quantile(wire, 0.5),
        "server.handler_p50_ms": p("server.handler", 0.5),
        "server.dispatch_p50_ms": p("server.dispatch", 0.5),
        "server.encode_p50_ms": p("server.app", 0.5, field="self"),
        "server.session_p50_ms": ms_quantile(
            per_request(spans, "server.session").values(), 0.5),
        "service.pin_p50_ms": p("service.pin", 0.5),
        "service.pin_p99_ms": p("service.pin", 0.99),
        "service.apply_p50_ms": p("service.apply", 0.5),
        "core.read.batch_p50_ms": p("core.read.batch", 0.5),
        "core.read.batch_p99_ms": p("core.read.batch", 0.99),
        "core.read.sample_p50_ms": p("core.read.sample", 0.5),
        "core.read.invert_p50_ms": p("core.read.invert", 0.5),
        "core.build.reduce_s": build_seconds("core.build.reduce"),
        "core.build.forest_s": build_seconds("core.build.forest"),
        "core.build.columnarize_s": build_seconds("core.build.columnarize"),
        "core.build.dynamic_s": build_seconds("core.build.dynamic"),
        "core.dynamic.maintain_p50_ms": p("core.dynamic.maintain", 0.5),
        "database.validate_p50_ms": p("database.validate", 0.5),
        "database.apply_p50_ms": p("database.apply", 0.5, field="self"),
        "storage.wal_append_p50_ms": p("storage.wal_append", 0.5),
        "storage.wal_append_p90_ms": p("storage.wal_append", 0.9),
        "storage.checkpoint_p50_ms": p("storage.checkpoint", 0.5),
    }


def recover_seconds(spans: List[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == "storage.recover")


def span_counts(spans: List[dict]) -> Dict[str, int]:
    """Span name → number of spans (the trace's shape, for the report)."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return dict(sorted(counts.items()))

