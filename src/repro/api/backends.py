"""Pluggable execution backends for the analysis service.

The :class:`~repro.api.service.ResilienceService` accepts jobs and plans
shards; a backend decides *where the measurement runs*.  Every backend
exposes the same contract — :meth:`ExecutionBackend.submit` takes an
:class:`~repro.api.request.AnalysisRequest` plus the service's in-process
runner and returns a :class:`concurrent.futures.Future` resolving to an
:class:`~repro.api.request.AnalysisResult` — so the scheduler and the
handle layer are backend-agnostic.

In-process backends:

``inline``
    Runs the measurement synchronously on the submitting thread.  This is
    the equivalence reference and the default: ``service.submit(...)``
    behaves exactly like the pre-redesign blocking service.
``threads``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  Requests
    for *distinct* engines (independent models, eval subsets or options)
    sweep concurrently — the engines serialise themselves (per-engine
    locks in :class:`~repro.core.sweep.SweepEngine`), and the hook stack
    and autograd mode are thread-local, so worker threads cannot
    contaminate each other.  Results are bit-identical to ``inline``
    because every noise stream is derived statelessly per
    (seed, site, batch).  The threads share the process's one BLAS
    pool; only ``procpool`` divides the cores among its workers.

Out-of-process backends share **one framed worker transport**: one JSON
document per line — a request (or a ``{"request": .., "chaos": ..}``
scripted-fault rider) out, ``{"hb": t}`` heartbeat frames while the
measurement runs, then one ``{"ok": <result payload>}`` or
``{"error": <message>}`` envelope back.  :class:`FramedChannel` is the
client end, :func:`serve_frames` the worker loop, and
:class:`PooledBackend` the pooled dispatcher (borrow/return, supervision,
preemption, loss classification) that only asks a subclass how to open
a channel:

``procpool``
    :class:`ProcPoolBackend` — persistent local worker processes
    (``python -m repro.api.backends --pool-worker``), a channel over the
    child's stdin/stdout pipes.  Each worker keeps a store-less service
    alive between shards, so the ~1s interpreter start-up, the zoo
    weight load *and* the engine's prefix-activation cache are paid once
    per worker instead of once per shard.  Each worker's BLAS pool is
    sized to its share of the usable CPUs, so the shards are the only
    layer of parallelism.
``remote-pool``
    :class:`~repro.api.cluster.RemotePoolBackend` — a channel over a TCP
    socket to a ``repro worker`` agent (see :mod:`repro.api.cluster`).

Workers resolve benchmark/zoo refs themselves (session refs cannot cross
a process boundary and error loudly) and run store-less; the parent owns
persistence.

Progress contract: every ``submit`` accepts an optional ``on_start``
callback invoked when the measurement *actually begins* (on the worker
thread, after any pool queuing) — this is what feeds honest ``started``
events upstream, rather than "was handed to a pool".

Fault tolerance (see :mod:`repro.api.resilience`): worker loss raises
the retryable :class:`~repro.api.resilience.WorkerCrashed` (or
:class:`~repro.api.resilience.WorkerTimeout` when the supervision
watchdog severed a channel past its ``ExecutionOptions.shard_timeout``
deadline or with stale heartbeats), while deterministic refusals stay
bare :class:`~repro.api.resilience.BackendError`.  Lost channels are
replaced on the next borrow; cumulative replacements surface as
``worker_restarts``.  ``chaos:<inner>`` (built via ``make_backend``
with a :class:`~repro.api.resilience.FaultPlan`) wraps any backend in
the deterministic fault-injection harness — see :class:`ChaosBackend`.

``make_backend`` is the one validation/construction choke point — the
CLI's ``--backend``/``--max-parallel`` flags and the service constructor
both go through it, so invalid combinations fail loudly and identically
everywhere.
"""

from __future__ import annotations

import json
import logging
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from .request import AnalysisRequest, AnalysisResult
from .resilience import (BackendError, FaultPlan, WorkerCrashed,
                         WorkerPreempted, WorkerSupervisor, WorkerTimeout)

__all__ = ["BACKEND_NAMES", "BackendError", "WorkerCrashed", "WorkerTimeout",
           "WorkerPreempted", "ExecutionBackend", "InlineBackend",
           "ThreadBackend", "FramedChannel", "serve_frames",
           "PooledBackend", "ProcPoolBackend", "ChaosBackend",
           "make_backend"]

logger = logging.getLogger("repro.api.backends")

#: Valid values of the service/CLI ``backend`` knob (each may also be
#: wrapped as ``chaos:<name>`` together with a ``fault_plan``).
#: ``remote-pool`` (see :mod:`repro.api.cluster`) additionally needs a
#: ``workers=`` list of ``HOST:PORT`` agent addresses.
BACKEND_NAMES: tuple[str, ...] = ("inline", "threads", "procpool",
                                  "remote-pool")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (a ``taskset`` or cpuset limit), else the host count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Default shard concurrency for the parallel backends when the caller
#: does not pass ``max_parallel`` (bounded: sweeps are memory-hungry).
DEFAULT_MAX_PARALLEL = max(2, min(4, usable_cpus()))

#: The thread-pool sizes of the BLAS/OpenMP runtimes numpy may link.
#: Procpool workers are spawned with all of them set to their share of
#: the cores (:func:`_blas_width`) unless the parent presets any of them.
BLAS_THREAD_VARS: tuple[str, ...] = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Seconds between heartbeat frames a worker emits while a
#: measurement is in flight (well under any sane supervision grace).
HEARTBEAT_INTERVAL = 0.5

Runner = Callable[[AnalysisRequest], AnalysisResult]


class ExecutionBackend:
    """Protocol base: where one measurement executes.

    ``parallel`` is the backend's shard-concurrency capacity; the
    scheduler only splits a request into shards when it exceeds 1.
    """

    name: str = "abstract"
    parallel: int = 1
    #: Whether this backend can terminate a running out-of-process
    #: measurement on a :class:`~repro.api.events.PreemptToken` set
    #: (the pooled backends sever the worker's channel).  In-process
    #: backends leave this False — their measurements observe the token
    #: cooperatively through the sweep engine's checkpoints instead.
    supports_preempt: bool = False

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None) -> Future:
        """Execute ``runner(request)`` (or an equivalent out-of-process
        measurement of ``request``) and return a Future of the result.
        ``on_start`` fires when the measurement actually begins."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker pools; the backend is unusable afterwards."""


def _with_start(runner: Runner,
                on_start: Callable[[], None] | None) -> Runner:
    """Wrap ``runner`` so ``on_start`` fires on the executing thread."""
    if on_start is None:
        return runner

    def wrapped(request: AnalysisRequest) -> AnalysisResult:
        on_start()
        return runner(request)

    return wrapped


class InlineBackend(ExecutionBackend):
    """Current (pre-redesign) semantics: measure on the submitting thread.

    ``submit`` only returns once the measurement finished, so handles
    from an inline service are always already resolved — the blocking
    wrappers behave exactly like the old blocking ``submit``.
    """

    name = "inline"
    parallel = 1

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(_with_start(runner, on_start)(request))
        except BaseException as exc:  # noqa: BLE001 — delivered via the future
            future.set_exception(exc)
        return future


class ThreadBackend(ExecutionBackend):
    """Cross-request parallelism on a shared thread pool.

    **Lock ordering**: ``_lock`` is a leaf guarding only lazy pool
    creation and teardown; :meth:`close` swaps the pool reference out
    under it and shuts the pool down *after* releasing (a worker
    completion callback re-entering backend code must never find the
    lock held).
    """

    name = "threads"

    def __init__(self, max_parallel: int = 0):
        self.parallel = int(max_parallel) or DEFAULT_MAX_PARALLEL
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.parallel,
                    thread_name_prefix="repro-sweep")
            return self._pool

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None) -> Future:
        return self._ensure_pool().submit(_with_start(runner, on_start),
                                          request)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _reject_session_ref(backend_name: str, request: AnalysisRequest) -> None:
    if request.model.session is not None:
        raise BackendError(
            f"the {backend_name} backend cannot serve session ref "
            f"{request.model.key!r}: in-memory models do not cross a "
            f"process boundary (use benchmark=/preset= refs, or the "
            f"inline/threads backends)")


# -------------------------------------------------------- framed transport
class FramedChannel:
    """Client end of one worker connection speaking the framed protocol.

    ``reader``/``writer`` are text streams carrying one JSON document
    per line; ``sever`` tears the transport down from any thread (SIGKILL
    for a pipe worker, socket shutdown for a TCP agent), which wakes a
    reader blocked mid-``readline``.  ``release`` is the graceful
    teardown :meth:`close` runs after closing both streams (default:
    ``sever``), ``tail`` returns extra detail for a loss report (a
    worker log tail), and ``peer`` names the far end for the pool's
    bookkeeping (a TCP channel's agent address, a pipe worker's pid).

    The worker heartbeats while a measurement is in flight (``{"hb": t}``
    frames before the result envelope); :meth:`measure` skips them,
    refreshing :attr:`last_beat` — the supervision watchdog's staleness
    signal.  :meth:`kill` records *why* before severing, so the read
    loop (which then observes EOF) raises
    :class:`~repro.api.resilience.WorkerTimeout` or
    :class:`~repro.api.resilience.WorkerPreempted` instead of a plain
    :class:`~repro.api.resilience.WorkerCrashed`.
    """

    def __init__(self, reader, writer, sever: Callable[[], None], *,
                 describe: str, release: Callable[[], None] | None = None,
                 tail: Callable[[], str] | None = None, peer=None):
        self.reader = reader
        self.writer = writer
        self.describe = describe
        self.peer = peer
        self._sever = sever
        self._release = release or sever
        self._tail = tail or (lambda: "")
        self.last_beat = time.monotonic()
        self.killed_reason: str | None = None
        self.killed_preempted = False
        self._closed = False

    def alive(self) -> bool:
        """Reusable: not closed or killed, and nothing to read — an idle
        channel whose reader polls readable has hit EOF (peer death) or
        carries garbage, and either way must not serve another shard."""
        if self._closed or self.killed_reason is not None:
            return False
        try:
            poller = select.poll()
            poller.register(self.reader, select.POLLIN)
            return not poller.poll(0)
        except (OSError, ValueError):
            return False

    def kill(self, reason: str, *, preempted: bool = False) -> None:
        """Watchdog/scheduler teardown: record the verdict, then sever.

        ``preempted`` marks a fair-scheduler kill (a healthy worker shot
        to free its slot), classified as ``WorkerPreempted`` rather than
        a timeout.
        """
        self.killed_reason = reason
        self.killed_preempted = preempted
        try:
            self._sever()
        except OSError:
            pass

    def _lost(self, detail: str) -> BackendError:
        """The channel broke: classify a deliberate kill vs peer death."""
        if self.killed_reason is not None:
            if self.killed_preempted:
                return WorkerPreempted(self.killed_reason)
            return WorkerTimeout(self.killed_reason)
        return WorkerCrashed(detail + self._tail())

    def measure(self, request: AnalysisRequest,
                chaos: dict | None = None) -> AnalysisResult:
        """One framed request/response round trip (raises on loss).

        ``chaos`` is an optional scripted-fault rider (a
        :class:`~repro.api.resilience.Fault` payload) executed *inside*
        the worker — the chaos harness's real-injection path.
        """
        self.last_beat = time.monotonic()
        if chaos is None:
            frame = request.to_json()
        else:
            frame = json.dumps({"request": request.to_payload(),
                                "chaos": chaos}, sort_keys=True)
        try:
            self.writer.write(frame + "\n")
            self.writer.flush()
            while True:
                line = self.reader.readline()
                if not line:
                    raise self._lost(f"{self.describe} closed the channel "
                                     f"mid-request")
                try:
                    envelope = json.loads(line)
                except ValueError:
                    raise WorkerCrashed(
                        f"{self.describe} emitted a corrupted frame "
                        f"({line.strip()[:120]!r})" + self._tail()) from None
                if "hb" in envelope:
                    self.last_beat = time.monotonic()
                    continue
                if "error" in envelope:
                    raise BackendError(
                        f"{self.describe} failed: {envelope['error']}")
                return AnalysisResult.from_payload(envelope["ok"])
        except (OSError, ValueError) as exc:
            raise self._lost(f"{self.describe} channel failed "
                             f"({exc})") from None

    def close(self) -> None:
        self._closed = True
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except OSError:
                pass  # flush into a severed channel; already lost
        self._release()


def _heartbeat_loop(emit: Callable[[dict], None],
                    stop: threading.Event) -> None:
    """Worker-side heartbeat thread body: one ``{"hb": t}`` frame per
    :data:`HEARTBEAT_INTERVAL` while a measurement is in flight."""
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            emit({"hb": time.time()})
        except (OSError, ValueError):
            return                       # peer hung up; we exit soon


def serve_frames(reader, writer, service,
                 on_crash: Callable[[], None]) -> None:
    """Worker side of the framed protocol; returns when ``reader`` ends.

    One request JSON per line in, one ``{"ok": <result payload>}`` or
    ``{"error": <message>}`` envelope per line out — plus ``{"hb": t}``
    heartbeat frames while a measurement runs, so the client's watchdog
    can tell *hung* from *slow*.  Undecodable and non-object frames
    answer an error envelope; the channel survives them.  A frame may
    also be an envelope ``{"request": .., "chaos": ..}`` carrying a
    scripted fault (the chaos harness's real-injection path): crash
    before/after the measurement (``on_crash``, then stop serving), emit
    a corrupted result frame, or hang without heartbeats until the
    client's watchdog severs the channel.  ``service`` is a store-less
    :class:`~repro.api.service.ResilienceService` that lives across
    frames — shards of one model reuse its warm engine cache.
    """
    write_lock = threading.Lock()

    def emit(document) -> None:
        text = (document if isinstance(document, str)
                else json.dumps(document, sort_keys=True))
        with write_lock:
            # lint: allow(lock-blocking-call): serializing this write IS the lock's job — the heartbeat thread shares the channel
            writer.write(text + "\n")
            # lint: allow(lock-blocking-call): the flush completes the frame the lock serializes
            writer.flush()

    for line in reader:
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except ValueError:
            emit({"error": f"undecodable frame: {line.strip()[:120]!r}"})
            continue
        if not isinstance(document, dict):
            emit({"error": f"non-object frame: {line.strip()[:120]!r}"})
            continue
        chaos = document.get("chaos") if "request" in document else None
        payload = document.get("request", document)
        kind = chaos["kind"] if chaos is not None else None
        if kind == "crash-before":
            on_crash()
            return
        if kind == "hang":
            # No heartbeats, no progress: indistinguishable from a
            # genuinely wedged worker.  The client's watchdog severs us.
            time.sleep(3600)
        stop_beat = threading.Event()
        beat_thread = threading.Thread(target=_heartbeat_loop,
                                       args=(emit, stop_beat), daemon=True)
        beat_thread.start()
        try:
            result = service.run(AnalysisRequest.from_payload(payload))
            envelope = {"ok": result.to_payload()}
        except Exception as exc:  # noqa: BLE001 — reported to the client
            envelope = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            # Joined before the envelope is emitted, so no stale
            # heartbeat frame ever follows a result on the channel.
            stop_beat.set()
            beat_thread.join(timeout=5)
        if kind == "crash-after":
            on_crash()
            return
        if kind == "corrupt":
            emit("{corrupt frame" + "x" * 16)
            continue
        emit(envelope)


# --------------------------------------------------------- pooled dispatch
class PooledBackend(ExecutionBackend):
    """Shard dispatch over a pool of warm :class:`FramedChannel` s.

    The one implementation behind both worker-owning backends; a
    subclass only says how a channel is opened (:meth:`_open`).  Each
    shard borrows an idle channel (newest first: warmest) or opens a
    fresh one toward ``parallel``, measures over it, and returns it to
    the idle list.  A channel that fails a shard is closed, never
    reused; losses count in :attr:`worker_restarts` (surfaced via
    ``queue_snapshot()`` and ``/v1/health``).

    Supervision: every in-flight measurement is watched by a
    :class:`~repro.api.resilience.WorkerSupervisor` — a wall-clock
    deadline when the request carries ``options.shard_timeout``, and
    heartbeat staleness (``heartbeat_grace`` seconds without a
    heartbeat frame) always.  A tripped watchdog severs the channel,
    whose read loop then raises the retryable
    :class:`~repro.api.resilience.WorkerTimeout`.

    Preemption: ``submit`` accepts a
    :class:`~repro.api.events.PreemptToken` and registers a hook that
    severs the borrowed channel at once; the read loop then raises
    :class:`~repro.api.resilience.WorkerPreempted` (a ``WorkerTimeout``
    subclass the service intercepts *before* the retry layer —
    preemption is not a fault and burns no retry budget).

    Idle reaping: with :attr:`idle_ttl` set, channels idle that long are
    closed on the next borrow (or an explicit :meth:`reap_idle`).

    **Lock ordering** (checked by ``repro lint`` and the runtime lock
    witness): ``_lock`` is a leaf guarding the idle list and the
    counters.  Borrow/return take it in short bursts and **drop it
    before any blocking call** — opening, measuring over, severing or
    closing a channel, or joining the supervisor
    (:class:`~repro.api.resilience.WorkerSupervisor` has its own leaf
    lock; the two are never held together).  Dead idle channels and
    reap victims are collected under ``_lock`` and closed after
    releasing it.
    """

    supports_preempt = True
    #: Scripted chaos faults ride the wire and execute inside the worker
    #: (the :class:`ChaosBackend` real-injection path).
    chaos_rider = True
    #: Seconds an idle channel may wait before :meth:`reap_idle` closes
    #: it; ``None`` keeps idle channels forever.
    idle_ttl: float | None = None
    #: Who is lost when a channel breaks (log messages).
    noun = "worker"
    log = logger

    def __init__(self, parallel: int, *, heartbeat_grace: float | None,
                 poll_interval: float):
        self.parallel = parallel
        self.heartbeat_grace = heartbeat_grace
        self._dispatch = ThreadBackend(parallel)
        self._supervisor = WorkerSupervisor(poll_interval=poll_interval)
        #: (channel, idled_at) pairs, oldest first at index 0.
        self._idle: list[tuple[FramedChannel, float]] = []
        self._lock = threading.Lock()
        self._closed = False
        self._restarts = 0
        self._opened = 0
        self._reaped = 0
        self._busy = 0

    def _open(self) -> FramedChannel:
        """A fresh channel to a worker (called without ``_lock``)."""
        raise NotImplementedError

    def _note_lost(self, channel: FramedChannel) -> None:
        """Bookkeeping for a lost channel; runs under ``_lock``."""

    def _pool_extras(self) -> dict:
        """Backend-specific :meth:`pool_snapshot` fields; runs under
        ``_lock``."""
        return {}

    @property
    def worker_restarts(self) -> int:
        """Cumulative lost-channel replacements (crashes + timeouts)."""
        with self._lock:
            return self._restarts

    def pool_snapshot(self) -> dict:
        """Live pool shape for health/queue surfaces."""
        with self._lock:
            idle = len(self._idle)
            busy = self._busy
            return {"size": idle + busy, "busy": busy, "idle": idle,
                    "max": self.parallel, **self._pool_extras()}

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               chaos: dict | None = None, preempt=None) -> Future:
        _reject_session_ref(self.name, request)

        def run(req: AnalysisRequest) -> AnalysisResult:
            return self._run(req, chaos=chaos, preempt=preempt)

        return self._dispatch.submit(request, run, on_start=on_start)

    def reap_idle(self, now: float | None = None) -> int:
        """Close idle channels past :attr:`idle_ttl`; returns the count."""
        if self.idle_ttl is None:
            return 0
        now = time.monotonic() if now is None else now
        expired: list[FramedChannel] = []
        with self._lock:
            while self._idle and now - self._idle[0][1] >= self.idle_ttl:
                expired.append(self._idle.pop(0)[0])
            self._reaped += len(expired)
        for channel in expired:
            channel.close()
        if expired:
            self.log.info("%s reaped %d idle %s(s) past the %.0fs TTL",
                          self.name, len(expired), self.noun, self.idle_ttl)
        return len(expired)

    def _borrow(self) -> FramedChannel:
        self.reap_idle()
        stale: list[FramedChannel] = []
        channel: FramedChannel | None = None
        with self._lock:
            if self._closed:
                raise BackendError(f"{self.name} backend is closed")
            self._busy += 1
            while self._idle:
                candidate, _ = self._idle.pop()   # newest first: warmest
                if candidate.alive():
                    channel = candidate
                    break
                stale.append(candidate)
        for dead in stale:
            dead.close()
        if channel is not None:
            return channel
        try:
            channel = self._open()
        except BaseException:
            with self._lock:
                self._busy -= 1
            raise
        with self._lock:
            self._opened += 1
        return channel

    def _run(self, request: AnalysisRequest, chaos: dict | None = None,
             preempt=None) -> AnalysisResult:
        if preempt is not None and preempt.is_set():
            raise WorkerPreempted(preempt.reason or
                                  "shard preempted before dispatch")
        channel = self._borrow()
        describe = (f"shard {request.fingerprint()[:12]} "
                    f"on {channel.describe}")
        timeout = request.options.shard_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        token = self._supervisor.watch(
            kill=channel.kill, describe=describe, deadline=deadline,
            beat=lambda: channel.last_beat, grace=self.heartbeat_grace)
        hook = None
        if preempt is not None:
            def hook(reason):
                channel.kill(reason or "shard preempted", preempted=True)
            preempt.add_hook(hook)
        try:
            result = channel.measure(request, chaos=chaos)
        except BaseException as error:
            channel.close()              # never reuse a suspect channel
            lost = (isinstance(error, WorkerCrashed)
                    and not isinstance(error, WorkerPreempted))
            with self._lock:
                self._busy -= 1
                if lost:
                    self._restarts += 1
                    restarts = self._restarts
                    self._note_lost(channel)
            if lost:
                self.log.warning(
                    "%s lost on %s (%s: %s); the next borrow opens a "
                    "fresh channel (worker_restarts=%d)", self.noun,
                    describe, type(error).__name__, error, restarts)
            raise
        finally:
            if hook is not None:
                preempt.remove_hook(hook)
            self._supervisor.unwatch(token)
        with self._lock:
            self._busy -= 1
            if not self._closed:
                self._idle.append((channel, time.monotonic()))
                return result
        channel.close()
        return result

    def close(self) -> None:
        self._dispatch.close()           # waits for in-flight borrows
        self._supervisor.close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for channel, _ in idle:
            channel.close()


class ProcPoolBackend(PooledBackend):
    """Warm process pool: persistent ``--pool-worker`` children, each a
    :class:`FramedChannel` over its stdin/stdout pipes.

    Each worker keeps a store-less service alive between shards, so the
    interpreter start-up, the zoo weight load and the engine's
    prefix-activation cache are paid once per worker, not per shard.
    The pool grows on demand toward ``max_parallel`` and shrinks when
    quiet: workers idle longer than ``idle_ttl`` seconds are reaped,
    releasing their memory-hungry model weights.  A worker's stderr
    goes to a temp log whose tail rides every loss report.
    :meth:`pool_snapshot` adds cumulative ``spawned``/``reaped`` counts
    and ``blas_threads``.

    The shards are the one layer of parallelism: each worker's BLAS
    pool gets ``blas_threads`` = usable CPUs // ``max_parallel`` (at
    least 1) threads, so a full pool never runs more BLAS threads than
    there are cores (OpenBLAS threads busy-wait: two 2-thread sweeps
    sharing 2 CPUs each ran ~3x slower than one alone).
    ``blas_threads`` is ``None``
    when the parent's environment presets any of
    :data:`BLAS_THREAD_VARS`: the workers then inherit those values.
    """

    name = "procpool"
    noun = "procpool worker"

    def __init__(self, max_parallel: int = 0, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 idle_ttl: float | None = 300.0):
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError(f"idle_ttl must be positive or None, "
                             f"got {idle_ttl}")
        super().__init__(int(max_parallel) or DEFAULT_MAX_PARALLEL,
                         heartbeat_grace=heartbeat_grace,
                         poll_interval=poll_interval)
        self.idle_ttl = idle_ttl
        self.blas_threads = _blas_width(self.parallel, usable_cpus())

    def _pool_extras(self) -> dict:
        return {"spawned": self._opened, "reaped": self._reaped,
                "idle_ttl": self.idle_ttl,
                "blas_threads": self.blas_threads}

    def _open(self) -> FramedChannel:
        handle, log_path = tempfile.mkstemp(prefix="repro-poolworker-",
                                            suffix=".log")
        log = os.fdopen(handle, "w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.api.backends", "--pool-worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            text=True, env=_worker_env(self.blas_threads))

        def tail() -> str:
            status = process.poll()
            try:
                with open(log_path) as stream:
                    text = stream.read().strip()[-2000:]
            except OSError:
                text = ""
            return ((f" (exit status {status})" if status is not None
                     else "")
                    + (f"; worker log tail:\n{text}" if text else ""))

        def release() -> None:
            # stdin is closed by now: EOF ends the worker's loop.
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            finally:
                log.close()
                if os.path.exists(log_path):
                    os.remove(log_path)

        return FramedChannel(process.stdout, process.stdin, process.kill,
                             describe=f"{self.noun} {process.pid}",
                             release=release, tail=tail, peer=process.pid)


def _blas_width(parallel: int, cpus: int) -> int | None:
    """BLAS threads per worker when ``parallel`` workers share ``cpus``
    cores, or ``None`` when the parent's environment already sizes the
    BLAS pool (any of :data:`BLAS_THREAD_VARS` set): the operator wins."""
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        return None
    return max(1, cpus // parallel)


def _worker_env(blas_threads: int | None = None) -> dict:
    """The worker's environment: inherit, but guarantee ``repro`` imports.

    The parent may run from a source checkout that is only importable via
    ``PYTHONPATH=src``; prepend the package root we were imported from so
    the child resolves the same code.  ``blas_threads`` (when given) sets
    every :data:`BLAS_THREAD_VARS` entry, sizing the worker's BLAS pool
    before numpy loads it.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not previous
                         else os.pathsep.join([package_root, previous]))
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    return env


def worker_main(argv: list[str] | None = None) -> int:
    """``python -m repro.api.backends --pool-worker`` — one procpool worker.

    Runs :func:`serve_frames` over stdin/stdout until stdin closes.  The
    real stdout fd is captured for the protocol and ``sys.stdout``/fd 1
    re-pointed at stderr first, so incidental prints inside measurement
    code (zoo training on a cold cache, progress chatter) land in the
    worker log instead of the channel.  A scripted chaos crash exits
    with status 17.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--pool-worker"]:
        print("usage: python -m repro.api.backends --pool-worker "
              "(framed requests on stdin)", file=sys.stderr)
        return 2
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    from .service import ResilienceService
    serve_frames(sys.stdin, channel, ResilienceService(use_store=False),
                 lambda: os._exit(17))
    return 0


class ChaosBackend(ExecutionBackend):
    """Deterministic fault-injection wrapper around a real backend.

    Built via ``make_backend("chaos:<inner>", fault_plan=...)``.  Every
    submission is keyed by its request fingerprint: the first time a
    fingerprint is seen it gets the next shard index (first-seen order),
    and each resubmission of the same fingerprint bumps its attempt
    counter — so a :class:`~repro.api.resilience.FaultPlan` matches on
    *(shard, attempt)* coordinates that are stable under any dispatch
    interleaving, making chaos runs reproducible.

    Injection has two paths:

    * **pooled inners** (procpool, remote-pool) — the fault rides the
      wire to the worker and executes there (a real crash, a genuinely
      corrupted protocol frame, a genuinely hung worker for the
      watchdog);
    * **other inners** — the fault is simulated at the dispatch
      boundary (a :class:`~repro.api.resilience.WorkerCrashed` future;
      ``crash-after`` runs the real measurement first, then loses the
      result), exercising the same retry machinery without process
      machinery.  ``hang`` faults *require* a pooled inner — there is
      no worker to sever anywhere else, so they are rejected at
      construction.

    ``injected`` counts faults actually fired (a chaos test asserting
    recovery should also assert its faults happened).
    """

    def __init__(self, inner: ExecutionBackend, fault_plan: FaultPlan):
        if not isinstance(fault_plan, FaultPlan):
            raise TypeError(f"fault_plan must be a FaultPlan, "
                            f"got {type(fault_plan).__name__}")
        if any(fault.kind == "hang" for fault in fault_plan.faults) \
                and not getattr(inner, "chaos_rider", False):
            raise ValueError(
                f"hang faults hold a worker hostage and need a "
                f"worker-owning backend's watchdog to recover "
                f"(procpool or remote-pool); the {inner.name!r} backend "
                f"cannot inject them")
        self.inner = inner
        self.plan = fault_plan
        self.name = f"chaos:{inner.name}"
        self.parallel = inner.parallel
        self.injected = 0
        self._order: dict[str, int] = {}
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def worker_restarts(self) -> int:
        return int(getattr(self.inner, "worker_restarts", 0) or 0)

    @property
    def supports_preempt(self) -> bool:
        return bool(getattr(self.inner, "supports_preempt", False))

    def pool_snapshot(self) -> dict:
        snapshot = getattr(self.inner, "pool_snapshot", None)
        return snapshot() if callable(snapshot) else {}

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        fingerprint = request.fingerprint()
        kwargs = {"on_start": on_start}
        if preempt is not None and self.supports_preempt:
            kwargs["preempt"] = preempt
        with self._lock:
            shard = self._order.setdefault(fingerprint, len(self._order))
            attempt = self._attempts.get(fingerprint, 0)
            self._attempts[fingerprint] = attempt + 1
            fault = self.plan.fault_for(shard, attempt)
            if fault is not None:
                self.injected += 1
        if fault is None:
            return self.inner.submit(request, runner, **kwargs)
        logger.info("chaos: injecting %s on shard %d attempt %d",
                    fault.kind, shard, attempt)
        if getattr(self.inner, "chaos_rider", False):
            return self.inner.submit(request, runner,
                                     chaos=fault.to_payload(), **kwargs)
        return self._simulate(fault, request, runner, on_start,
                              shard, attempt)

    def _simulate(self, fault, request: AnalysisRequest, runner: Runner,
                  on_start, shard: int, attempt: int) -> Future:
        """Dispatch-boundary fault simulation for in-process inners."""
        if fault.kind in ("crash-before", "corrupt"):
            noun = ("corrupted result frame" if fault.kind == "corrupt"
                    else "worker crash before measurement")
            failed: Future = Future()
            failed.set_exception(WorkerCrashed(
                f"chaos: injected {noun} on shard {shard} "
                f"attempt {attempt}"))
            return failed
        # crash-after: the measurement really runs, then its result is
        # lost — the replay must still be byte-identical.
        inner = self.inner.submit(request, runner, on_start=on_start)
        outer: Future = Future()

        def lose_result(done: Future) -> None:
            error = done.exception()
            outer.set_exception(error if error is not None else WorkerCrashed(
                f"chaos: injected worker crash after measurement on "
                f"shard {shard} attempt {attempt} (result frame lost)"))

        inner.add_done_callback(lose_result)
        return outer

    def close(self) -> None:
        self.inner.close()


def make_backend(backend: str | ExecutionBackend | None,
                 max_parallel: int | None = None,
                 fault_plan: FaultPlan | None = None,
                 workers=None) -> ExecutionBackend:
    """Build (and validate) an execution backend.

    Loud-error contract (mirrors the CLI's inapplicable-flag rule):
    an unknown name, a non-positive ``max_parallel``, and
    ``max_parallel`` combined with the single-threaded ``inline``
    backend are all rejected here rather than silently ignored.  The
    ``chaos:<inner>`` prefix wraps the named inner backend in
    :class:`ChaosBackend` and **requires** ``fault_plan``; conversely a
    ``fault_plan`` without the chaos prefix (or a prebuilt backend) is
    rejected rather than silently dropped.  ``workers`` (a list of
    ``HOST:PORT`` agent addresses) belongs to the ``remote-pool``
    backend exclusively — required there, rejected everywhere else.
    """
    if max_parallel is not None and max_parallel < 1:
        raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
    if isinstance(backend, ExecutionBackend):
        if max_parallel is not None and max_parallel != backend.parallel:
            raise ValueError(
                f"max_parallel={max_parallel} conflicts with the prebuilt "
                f"{backend.name!r} backend (parallel={backend.parallel})")
        if workers is not None:
            raise ValueError(
                f"workers= does not apply to the prebuilt "
                f"{backend.name!r} backend (pass the worker set to its "
                f"own constructor)")
        if fault_plan is not None:
            return ChaosBackend(backend, fault_plan)
        return backend
    name = backend or "inline"
    chaos = name.startswith("chaos:")
    if chaos:
        name = name[len("chaos:"):]
        if fault_plan is None:
            raise ValueError(
                f"the chaos:{name} backend wrapper needs a fault_plan= "
                f"(a repro.api.resilience.FaultPlan): chaos without a "
                f"script injects nothing")
    elif fault_plan is not None:
        raise ValueError(
            f"fault_plan only applies to the chaos wrapper; use "
            f"backend='chaos:{name}' to inject faults into the "
            f"{name!r} backend")
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"valid: {list(BACKEND_NAMES)}")
    if workers is not None and name != "remote-pool":
        raise ValueError(
            f"workers= only applies to the remote-pool backend; the "
            f"{name!r} backend owns its own workers (use "
            f"backend='remote-pool' to dispatch to TCP agents)")
    if name == "remote-pool":
        from .cluster import RemotePoolBackend
        inner: ExecutionBackend = RemotePoolBackend(workers or (),
                                                    max_parallel or 0)
        if chaos:
            return ChaosBackend(inner, fault_plan)
        return inner
    if name == "inline":
        if max_parallel is not None and max_parallel != 1:
            raise ValueError(
                "the inline backend executes on the submitting thread; "
                "max_parallel does not apply (use --backend threads or "
                "procpool for parallel execution)")
        inner: ExecutionBackend = InlineBackend()
    elif name == "threads":
        inner = ThreadBackend(max_parallel or 0)
    else:
        inner = ProcPoolBackend(max_parallel or 0)
    if chaos:
        return ChaosBackend(inner, fault_plan)
    return inner


if __name__ == "__main__":
    sys.exit(worker_main())
