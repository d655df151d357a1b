"""Layer spans recorded from outside the program.

The traced run wraps each layer's entry functions at run time -- no
``src/`` change -- and records one span per call: name, start, end,
parent and request id.  Spans stay in memory; a server process writes
its spans to a JSON file when asked (``SIGUSR1``), the benchmark
process keeps its own, and the two are merged at the end.  Both
processes read ``time.perf_counter``, which on Linux is the
machine-wide ``CLOCK_MONOTONIC``, so server spans land on the client's
time line.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Per request, the server's root span
is hung under the client's request span, so the self times of one
request's whole tree -- client layers, server layers, and the client
root's own remainder (wire and idle) -- add up to the latency the
client observed, up to whatever the two processes ran in parallel.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# One span: [id, parent id, name, start, end, request id].
Span = List[Any]

_now = time.perf_counter


class Tracer:
    """In-memory span store plus event counters for one process."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span_" + prefix, default=None
        )

    def current(self) -> Optional[Span]:
        return self._current.get()

    def open(self, name: str, rid: Optional[str] = None,
             start: Optional[float] = None) -> Tuple[Span, Any]:
        parent = self._current.get()
        span = ["%s%d" % (self.prefix, next(self._ids)),
                None if parent is None else parent[0], name,
                _now() if start is None else start, None,
                rid if rid is not None or parent is None else parent[5]]
        self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span: Span, token: Any) -> None:
        span[4] = _now()
        self._current.reset(token)

    def add(self, name: str, start: float, end: float) -> None:
        """A span for an interval measured elsewhere, under the current
        span (the server's admission wait)."""
        parent = self._current.get()
        self.spans.append(["%s%d" % (self.prefix, next(self._ids)),
                           None if parent is None else parent[0], name,
                           start, end, None if parent is None else parent[5]])

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"spans": [s for s in self.spans if s[4] is not None],
                       "counts": dict(self.counts)}, handle)
        os.replace(tmp, path)


def load(path: str) -> Tuple[List[Span], Counter]:
    with open(path) as handle:
        data = json.load(handle)
    return data["spans"], Counter(data["counts"])


# -- wrapping -----------------------------------------------------------


def wrap(tracer: Tracer, owner: Any, attr: str, name: str,
         after: Optional[Callable] = None, scope: bool = False) -> None:
    """Replace ``owner.attr`` with a version that records a span.

    Handles plain functions, methods, classmethods and coroutine
    functions; with ``scope=True`` the function returns a context
    manager and the span covers its ``with`` body.  ``after(args,
    result)`` runs outside the span, for counters.
    """
    raw = inspect.getattr_static(owner, attr)
    classmethod_ = isinstance(raw, classmethod)
    fn = raw.__func__ if classmethod_ else raw
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def replacement(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after is not None:
                after(args, result)
            return result
    elif scope:
        @functools.wraps(fn)
        def replacement(*args, **kwargs):
            return _SpanScope(tracer, name, fn(*args, **kwargs))
    else:
        @functools.wraps(fn)
        def replacement(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after is not None:
                after(args, result)
            return result
    setattr(owner, attr, classmethod(replacement) if classmethod_
            else replacement)


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, inner: Any):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.span, self.token = self.tracer.open(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.close(self.span, self.token)


def count_calls(tracer: Tracer, owner: Any, attr: str, key: str,
                when: Optional[Callable[..., bool]] = None) -> None:
    """Count calls of ``owner.attr`` (no span: it is too hot for one)."""
    fn = inspect.getattr_static(owner, attr)
    counts = tracer.counts

    @functools.wraps(fn)
    def replacement(*args, **kwargs):
        if when is None or when(*args, **kwargs):
            counts[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, replacement)


def install_common(tracer: Tracer) -> None:
    """Counters every traced process keeps."""
    from repro.relational import columnar, query
    from repro.xst.xset import XSet

    count_calls(tracer, XSet, "__init__", "xst.sets_built")
    # The program's repro_kernel_backend_total counts through this hook
    # (when REPRO_OBS is on); counting the calls reads the same events
    # without turning observability on.
    for module in (columnar, query):
        count_calls(tracer, module, "_record_backend", "columnar.ops",
                    when=lambda op, backend: backend == "columnar")


def install_server(tracer: Tracer) -> None:
    """Layers of the serving process."""
    from repro.gov import admission
    from repro.relational import constraints, query, relation, sql, tx, wal
    from repro.server import protocol, service, session

    install_common(tracer)
    decoded: Dict[str, float] = {}

    def on_frames(args, frames):
        now = _now()
        for _, body in frames:
            rid = body.get("id") if isinstance(body, dict) else None
            if isinstance(rid, str):
                decoded[rid] = now

    wrap(tracer, protocol.FrameDecoder, "feed", "protocol.decode",
         after=on_frames)

    dispatch = service.Server._dispatch

    @functools.wraps(dispatch)
    async def request(self, conn, ftype, body):
        rid = body.get("id") if isinstance(body, dict) else None
        span, token = tracer.open("server.request", rid=rid,
                                  start=decoded.pop(rid, None))
        try:
            return await dispatch(self, conn, ftype, body)
        finally:
            tracer.close(span, token)

    service.Server._dispatch = request

    waited = set()

    def execution_starts() -> None:
        # server.wait: from the request frame being decoded to the
        # first moment the request does its own work.
        span = tracer.current()
        if span is None or span[2] != "server.request" or span[0] in waited:
            return
        waited.add(span[0])
        tracer.add("server.wait", span[3], _now())

    admitted = admission.AdmissionController.admitted

    @functools.wraps(admitted)
    def admitted_scope(self, *args, **kwargs):
        return _Hook(admitted(self, *args, **kwargs), execution_starts)

    admission.AdmissionController.admitted = admitted_scope
    refresh = session.Session.refresh

    @functools.wraps(refresh)
    def refresh_hooked(self):
        execution_starts()
        return refresh(self)

    session.Session.refresh = refresh_hooked

    def on_page(args, frame):
        if len(args) > 1 and isinstance(args[1], dict) and "rows" in args[1]:
            tracer.counts["protocol.page_bytes"] += len(frame)
            tracer.counts["protocol.page_rows"] += len(args[1]["rows"])

    wrap(tracer, service, "encode_frame", "protocol.encode", after=on_page)
    wrap(tracer, sql, "parse_query", "sql.parse")
    wrap(tracer, sql, "optimize", "optimizer.optimize")
    wrap(tracer, sql, "aggregate", "aggregate.group")

    def rows_out(args, result):
        tracer.counts["query.rows_out"] += result.cardinality()

    wrap(tracer, query.Database, "execute", "query.execute", after=rows_out)
    wrap(tracer, relation.Relation, "to_rows", "relation.materialize")
    wrap(tracer, tx.TransactionManager, "snapshot", "tx.snapshot")
    wrap(tracer, tx.TransactionManager, "transaction", "tx.commit",
         scope=True)
    wrap(tracer, constraints.Table, "check_now", "constraints.check")

    wrap(tracer, wal.WriteAheadLog, "append", "wal.append")
    wrap(tracer, wal, "_sync_file", "wal.sync")


class _Hook:
    """A context manager that calls ``hook`` once the inner one entered."""

    def __init__(self, inner: Any, hook: Callable[[], None]):
        self.inner, self.hook = inner, hook

    def __enter__(self):
        value = self.inner.__enter__()
        self.hook()
        return value

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def install_client(tracer: Tracer) -> None:
    """Layers of the load generator's side of the wire."""
    from repro.relational import relation
    from repro.server import client, protocol

    install_common(tracer)
    for method in ("query", "mutate", "refresh"):
        wrap(tracer, client.Client, method, "client.request")
    next_id = client.Client._next_request_id

    @functools.wraps(next_id)
    def stamped(self):
        rid = next_id(self)
        span = tracer.current()
        if span is not None and span[2] == "client.request":
            span[5] = rid
        return rid

    client.Client._next_request_id = stamped
    wrap(tracer, client, "encode_frame", "protocol.encode")
    wrap(tracer, protocol.FrameDecoder, "feed", "protocol.decode")
    wrap(tracer, relation.Relation, "from_tuples", "client.decode")


def install_storage(tracer: Tracer) -> None:
    """Checkpoint and recovery layers (run in the benchmark process)."""
    from repro.relational import disk, wal

    wrap(tracer, disk.DiskRelationStore, "checkpoint", "disk.checkpoint")
    wrap(tracer, disk.DiskRelationStore, "load", "disk.load")
    wrap(tracer, wal.WriteAheadLog, "scan", "wal.scan")

    def replayed(args, result):
        tracer.counts["wal.records_replayed"] += 1

    wrap(tracer, wal, "apply_commit", "wal.replay", after=replayed)


def install_cluster(tracer: Tracer) -> None:
    """Layers of the scale-out coordinator and its shards."""
    from repro.relational import distributed, optimizer

    install_common(tracer)
    for method in ("execute", "aggregate"):
        wrap(tracer, distributed.Cluster, method, "cluster.coordinate")
    wrap(tracer, distributed.Cluster, "insert", "cluster.write_fanout")
    for fn in ("local_join", "local_aggregate", "local_select_eq"):
        wrap(tracer, distributed, fn, "cluster.bucket_eval")
    wrap(tracer, optimizer.ShardPipeline, "apply", "cluster.bucket_eval")
    wrap(tracer, distributed.Cluster, "_ship", "cluster.ship")
    wrap(tracer, distributed.NetworkStats, "ship", "cluster.ship")


# -- analysis -----------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover (children
    clipped to the parent's interval)."""
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        inner = [(max(start, c[3]), min(end, c[4]))
                 for c in children.get(span[0], ())]
        out[span[0]] = (end - start) - _covered(
            (a, b) for a, b in inner if b > a)
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Layer name -> summed self time, over every span of the run."""
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[2]] += selfs[span[0]]
    return totals


def account_requests(client_spans: Sequence[Span],
                     server_spans: Sequence[Span]) -> List[Dict[str, float]]:
    """Per client request: latency, summed self times of its whole tree
    and the client root's own remainder (wire and idle).

    The server's spans for the request (matched by request id) hang
    under the client's root, clipped to the interval from the request
    frame's decode to the moment the client started decoding the last
    bytes of the answer: server work after that point (bookkeeping once
    the last frame is written) runs beside the client, off the path the
    client waits on.
    """
    server_roots = {s[5]: s for s in server_spans
                    if s[2] == "server.request" and s[5] is not None}
    server_children: Dict[str, List[Span]] = defaultdict(list)
    for span in server_spans:
        if span[1] is not None:
            server_children[span[1]].append(span)
    client_children: Dict[str, List[Span]] = defaultdict(list)
    for span in client_spans:
        if span[1] is not None:
            client_children[span[1]].append(span)
    rows = []
    for root in client_spans:
        if root[1] is not None or root[2] != "client.request":
            continue
        tree = _subtree(root, client_children)
        remote = server_roots.get(root[5])
        if remote is not None:
            received = max((s[3] for s in tree if s[2] == "protocol.decode"),
                           default=root[4])
            low, high = max(root[3], remote[3]), min(root[4], received)
            for span in _subtree(remote, server_children):
                clipped = [span[0], root[0] if span is remote else span[1],
                           span[2], max(low, span[3]), min(high, span[4]),
                           span[5]]
                if clipped[4] >= clipped[3]:
                    tree.append(clipped)
        selfs = self_times(tree)
        rows.append({"latency": root[4] - root[3],
                     "sum": sum(selfs.values()),
                     "wire_idle": selfs[root[0]],
                     "served": remote is not None})
    return rows


def _subtree(root: Span, children: Dict[str, List[Span]]) -> List[Span]:
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span[0], ()))
    return out
