"""In-memory span tracer for the benchmark's traced runs.

The tracer records spans from the benchmark's own files: :func:`install`
replaces each layer's public entry points with wrappers that record a
span (name, start, end, parent span, request id) around the original call,
and :meth:`Tracer.uninstall` puts the originals back.  Nothing in the
program under test changes.

Callers bind the hot numeric functions at import time (``from ..tensor
import conv2d``), so the wrappers replace those bound names in the
modules that call them; patching ``repro.tensor.ops.conv2d`` alone would
record nothing.

The benchmark drives one request at a time (a closed loop with one
client), so every span opened while a request is in flight belongs to
it, whichever thread opens it: :attr:`Tracer.request_id` is set by the
client loop and stamped on each span.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time


class Span:
    """One timed call.  ``end`` stays ``None`` until the call finishes."""

    __slots__ = ("id", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, span_id, name, start, parent, rid):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rid = rid
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "request": self.rid,
                **self.attrs}


class Tracer:
    """Span recorder plus the patch table that :func:`install` fills."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request_id = None
        self.enqueued: dict[int, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> Span:
        """Start a span whose parent is the innermost span open on this
        thread; it is not pushed (see :meth:`push`)."""
        stack = self._stack()
        span = Span(next(self._ids), name,
                    time.perf_counter() if start is None else start,
                    stack[-1].id if stack else None, self.request_id)
        self.spans.append(span)
        return span

    def push(self, span: Span) -> None:
        self._stack().append(span)

    def pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(span, args, result)`` runs after the span closes and
        may add attributes (sizes, hit flags) outside the timed interval.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            tracer.push(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.pop(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched name (last patched first)."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            if span.end is None:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = span.duration - covered
        return result

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (called once, when the run ends)."""
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.to_json()) + "\n")


def _conv_attrs(span, args, result) -> None:
    x, weight = args[0], args[1]
    out = result.data
    _, c, kh, kw = weight.shape
    span.attrs["macs"] = out.size * c * kh * kw
    operands = x.data.size + weight.data.size + out.size
    if len(args) > 2 and args[2] is not None:
        operands += args[2].data.size
    span.attrs["bytes"] = operands * out.itemsize


def _noise_attrs(span, args, result) -> None:
    span.attrs["elements"] = args[2].size


def _get_attrs(span, args, result) -> None:
    span.attrs["hit"] = result is not None


def _put_attrs(span, args, result) -> None:
    span.attrs["bytes"] = os.path.getsize(result)


def _queue_submit(tracer: Tracer, queue_cls) -> None:
    """Record when each shard enters the queue, so the backend wrapper
    can close its queue-wait span at dispatch."""
    original = queue_cls.submit

    def submit(self, request, runner, **kwargs):
        tracer.enqueued[id(request)] = time.perf_counter()
        span = tracer.open("api.scheduler.submit")
        span.attrs["fingerprint"] = request.fingerprint()
        tracer.push(span)
        try:
            return original(self, request, runner, **kwargs)
        finally:
            span.end = time.perf_counter()
            tracer.pop(span)

    tracer._patch(queue_cls, "submit", submit)


def _backend_submit(tracer: Tracer, backend) -> None:
    """Per shard: the queue wait (enqueue → dispatch) and the round trip
    (dispatch → result, ``shard_rtt``), with the worker-reported
    measurement time attached for the wire split."""
    original = backend.submit

    def submit(request, runner, **kwargs):
        dispatched = time.perf_counter()
        enqueued = tracer.enqueued.pop(id(request), None)
        if enqueued is not None:
            wait = tracer.open("api.scheduler.queue_wait", start=enqueued)
            wait.end = dispatched
        span = tracer.open("api.backends.shard", start=dispatched)
        tracer.push(span)
        try:
            future = original(request, runner, **kwargs)
        finally:
            tracer.pop(span)

        def done(finished) -> None:
            span.end = time.perf_counter()
            if finished.exception() is None:
                span.attrs["measure_s"] = finished.result().elapsed_seconds

        future.add_done_callback(done)
        return future

    tracer._patch(backend, "submit", submit)


def install(tracer: Tracer, service, *, remote: bool = False) -> None:
    """Wrap every traced layer's entry points (see module docstring).

    ``service`` is the in-process :class:`~repro.api.ResilienceService`
    (its backend instance is wrapped); ``remote`` adds the client-side
    HTTP round trips of :class:`~repro.api.RemoteService`.
    """
    import repro.core.sweep as core_sweep
    import repro.nn.capsules as capsules
    import repro.nn.layers as layers
    import repro.nn.routing as routing
    from repro.api import RemoteHandle, RemoteService, ResultStore, ShardQueue
    from repro.api import ResilienceService
    from repro.core.noise import StackedNoiseInjector

    tracer.wrap(layers, "conv2d", "tensor.conv2d", _conv_attrs)
    tracer.wrap(capsules, "conv2d", "tensor.conv2d", _conv_attrs)
    tracer.wrap(capsules, "squash", "tensor.squash")
    tracer.wrap(routing, "squash", "tensor.squash")
    tracer.wrap(capsules, "dynamic_routing", "nn.routing")
    tracer.wrap(core_sweep, "dynamic_routing_shared", "nn.routing_shared")
    tracer.wrap(StackedNoiseInjector, "__call__", "core.noise", _noise_attrs)
    tracer.wrap(StackedNoiseInjector, "affine_deltas", "core.noise",
                _noise_attrs)
    tracer.wrap(core_sweep.SweepEngine, "sweep", "core.sweep")
    tracer.wrap(ResilienceService, "submit_many", "api.service")
    tracer.wrap(ResultStore, "get", "api.store.get", _get_attrs)
    tracer.wrap(ResultStore, "put", "api.store.put", _put_attrs)
    _queue_submit(tracer, ShardQueue)
    _backend_submit(tracer, service.backend)
    if remote:
        tracer.wrap(RemoteService, "submit", "api.server.submit")
        tracer.wrap(RemoteHandle, "result", "api.server.result")


#: Per-layer metrics (name → unit), in the order they are printed.
LAYER_METRICS = {
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.self_s": "s",
    "tensor.conv2d.macs": "MAC_computed",
    "tensor.conv2d.bytes": "B_computed",
    "tensor.squash.calls": "count",
    "tensor.squash.self_s": "s",
    "nn.routing.calls": "count",
    "nn.routing.self_s": "s",
    "nn.routing_shared.calls": "count",
    "nn.routing_shared.self_s": "s",
    "core.noise.calls": "count",
    "core.noise.self_s": "s",
    "core.noise.elements": "count",
    "core.sweep.self_s": "s",
    "api.service.self_s": "s",
    "api.store.get.calls": "count",
    "api.store.get.self_s": "s",
    "api.store.hits": "count",
    "api.store.misses": "count",
    "api.store.put.calls": "count",
    "api.store.put.self_s": "s",
    "api.store.put.bytes": "B",
    "api.scheduler.shards": "count",
    "api.scheduler.queue_wait_s": "s",
    "api.backends.shard_rtt_s": "s",
    "api.backends.shard_measure_s": "s",
    "api.backends.shard_wire_s": "s",
    "api.backends.retries": "count",
    "api.backends.worker_restarts": "count",
    "api.server.submit_s": "s",
    "api.server.result_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.overhead_base_s": "s",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, kinds: dict, restarts: dict) -> dict:
    """Per-layer metrics from the recorded spans.

    ``kinds`` maps each traced request id to ``"miss"`` (measured) or
    ``"hit"`` (served from the store); ``restarts`` maps request ids to
    the procpool worker restarts seen while they ran.  Counts and self
    times are summed per request and reported as the median over
    requests: store reads and the HTTP round trips over hits (the path
    they serve), everything else over misses.  Per-shard times are
    medians over all traced shards of measured requests.
    """
    self_time = tracer.self_times()
    per_request: dict = {rid: {} for rid in kinds}
    shards: dict[str, list[float]] = {"wait": [], "rtt": [], "measure": []}
    enqueues: dict = {}
    for span in tracer.spans:
        if span.rid not in per_request or span.end is None:
            continue
        totals = per_request[span.rid]
        name = span.name
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        totals[name + ".self"] = (totals.get(name + ".self", 0.0)
                                  + self_time[span.id])
        totals[name + ".dur"] = totals.get(name + ".dur", 0.0) + span.duration
        for key, value in span.attrs.items():
            if isinstance(value, bool):
                key, value = ("hits" if value else "misses"), 1
            elif not isinstance(value, (int, float)):
                continue
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if kinds[span.rid] != "miss":
            continue
        if name == "api.scheduler.queue_wait":
            shards["wait"].append(span.duration)
        elif name == "api.backends.shard" and "measure_s" in span.attrs:
            shards["rtt"].append(span.duration)
            shards["measure"].append(span.attrs["measure_s"])
        elif name == "api.scheduler.submit":
            key = (span.rid, span.attrs["fingerprint"])
            enqueues[key] = enqueues.get(key, 0) + 1

    def over(kind, key):
        return _median(totals.get(key, 0) for rid, totals
                       in per_request.items() if kinds[rid] == kind)

    retries: dict = {}
    for (rid, _), count in enqueues.items():
        retries[rid] = retries.get(rid, 0) + count - 1
    misses = [rid for rid, kind in kinds.items() if kind == "miss"]
    wire = [rtt - measure for rtt, measure
            in zip(shards["rtt"], shards["measure"])]
    return {
        "tensor.conv2d.calls": over("miss", "tensor.conv2d.calls"),
        "tensor.conv2d.self_s": over("miss", "tensor.conv2d.self"),
        "tensor.conv2d.macs": over("miss", "tensor.conv2d.macs"),
        "tensor.conv2d.bytes": over("miss", "tensor.conv2d.bytes"),
        "tensor.squash.calls": over("miss", "tensor.squash.calls"),
        "tensor.squash.self_s": over("miss", "tensor.squash.self"),
        "nn.routing.calls": over("miss", "nn.routing.calls"),
        "nn.routing.self_s": over("miss", "nn.routing.self"),
        "nn.routing_shared.calls": over("miss", "nn.routing_shared.calls"),
        "nn.routing_shared.self_s": over("miss", "nn.routing_shared.self"),
        "core.noise.calls": over("miss", "core.noise.calls"),
        "core.noise.self_s": over("miss", "core.noise.self"),
        "core.noise.elements": over("miss", "core.noise.elements"),
        "core.sweep.self_s": over("miss", "core.sweep.self"),
        # The submit-to-result span minus the engine sweep inside it.
        "api.service.self_s": _median(
            per_request[rid].get("api.service.dur", 0.0)
            - per_request[rid].get("core.sweep.dur", 0.0) for rid in misses),
        "api.store.get.calls": over("hit", "api.store.get.calls"),
        "api.store.get.self_s": over("hit", "api.store.get.self"),
        "api.store.hits": over("hit", "api.store.get.hits"),
        "api.store.misses": over("miss", "api.store.get.misses"),
        "api.store.put.calls": over("miss", "api.store.put.calls"),
        "api.store.put.self_s": over("miss", "api.store.put.self"),
        "api.store.put.bytes": over("miss", "api.store.put.bytes"),
        "api.scheduler.shards": over("miss", "api.scheduler.submit.calls"),
        "api.scheduler.queue_wait_s": _median(shards["wait"]),
        "api.backends.shard_rtt_s": _median(shards["rtt"]),
        "api.backends.shard_measure_s": _median(shards["measure"]),
        "api.backends.shard_wire_s": _median(wire),
        "api.backends.retries": _median(retries.get(rid, 0)
                                        for rid in misses),
        "api.backends.worker_restarts": _median(restarts.get(rid, 0)
                                                for rid in misses),
        "api.server.submit_s": over("hit", "api.server.submit.self"),
        "api.server.result_s": over("hit", "api.server.result.self"),
    }
