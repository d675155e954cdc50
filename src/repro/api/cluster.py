"""Fleet tier: TCP worker agents, a remote shard pool, and a multi-node
coordinator.

The first two layers put the one framed worker transport of
:mod:`repro.api.backends` on a socket; the third federates nodes.

**Worker agents** (``repro worker --listen HOST:PORT``).
    :class:`WorkerAgent` serves :func:`~repro.api.backends.serve_frames`
    — the same loop a procpool worker runs over its pipes — on every
    accepted TCP connection: one JSON document per line, request in,
    ``{"ok": ...}`` / ``{"error": ...}`` envelope out, ``{"hb": t}``
    heartbeat frames while a measurement is in flight, and the scripted
    chaos rider (``{"request": ..., "chaos": ...}``), so the
    fault-injection harness drives remote workers exactly like local
    ones.  Only the TCP dial adds a step: each connection opens with a
    ``{"hello": {"schema": ..., "pid": ...}}`` greeting so clients fail
    fast on schema skew or a non-worker peer.  One store-less
    :class:`~repro.api.service.ResilienceService` lives for the agent's
    whole life, so shards of the same model reuse its warm engine cache
    across connections.

**The remote pool** (``make_backend("remote-pool", workers=[...])``).
    :class:`RemotePoolBackend` is the pooled dispatcher
    (:class:`~repro.api.backends.PooledBackend`) with channels dialed to
    a set of ``HOST:PORT`` agents: channels are pooled and reused, a
    borrow with no idle channel dials the next agent round-robin, and
    every in-flight shard is watched by the
    :class:`~repro.api.resilience.WorkerSupervisor` (wall-clock deadline
    + heartbeat staleness).  A dead or hung peer is never a hang: the
    socket breaks (or the watchdog breaks it), the shard fails with the
    retryable :class:`~repro.api.resilience.WorkerCrashed` /
    :class:`~repro.api.resilience.WorkerTimeout`, the agent's address
    sits out a cooldown, and the retry reconnects elsewhere.

**The coordinator** (``repro coordinate --node URL ...``).
    :class:`ClusterCoordinator` + :class:`CoordinatorServer` federate
    several ``repro serve`` nodes behind the node API itself — a
    :class:`~repro.api.server.RemoteService` cannot tell a coordinator
    from a node.  Submissions route by consistent-hashing the request
    fingerprint over the node ring (drain-aware: 503ing or unreachable
    nodes are walked past); job ids are content-addressed store keys, so
    any node can answer any job id (by store lookup) and losing a node
    mid-job is survivable — the coordinator resubmits the recorded
    request to the next ring node, which recomputes the missing shards
    (or serves them straight from a shared store layout) under the *same*
    job id, and the proxied event stream carries a ``node_lost`` event at
    the splice point.

Byte-identity is the contract throughout: a curve measured through a
remote pool, through a coordinator, after a chaos kill, or served from a
peer node's shared-layout warm hit is the same curve, byte for byte.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import logging
import os
import socket
import socketserver
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .backends import (DEFAULT_MAX_PARALLEL, FramedChannel, PooledBackend,
                       serve_frames)
from .events import TERMINAL_EVENTS, AnalysisEvent
from .request import SCHEMA_VERSION, AnalysisRequest
from .resilience import BackendError, WorkerCrashed
from .server import (WAIT_SLICE_SECONDS, RemoteError, _ApiHandler,
                     _BadRequest, _HttpFront)

__all__ = ["WorkerAgent", "RemotePoolBackend", "ClusterCoordinator",
           "CoordinatorServer", "NodeUnreachable", "parse_worker_address"]

logger = logging.getLogger("repro.api.cluster")


def parse_worker_address(spec) -> tuple[str, int]:
    """``"HOST:PORT"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port:
        raise ValueError(f"worker address {spec!r} is not HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"worker address {spec!r} is not HOST:PORT "
                         f"(port {port!r} is not an integer)") from None


# ------------------------------------------------------------- worker agent
class _AgentServer(socketserver.ThreadingTCPServer):
    """One thread per worker connection; never joined on close.

    ``block_on_close = False`` because a scripted ``hang`` chaos fault
    leaves its (daemon) connection thread asleep for an hour — exactly
    the wedged-worker condition the client watchdog exists for — and
    ``server_close`` must not wait for it.  Each accepted connection is
    handed straight to :meth:`WorkerAgent._serve`.
    """

    daemon_threads = True
    allow_reuse_address = True
    block_on_close = False

    def __init__(self, address, agent: "WorkerAgent"):
        self.agent = agent
        super().__init__(address, socketserver.BaseRequestHandler)

    def finish_request(self, request, client_address) -> None:
        self.agent._serve(request)


class WorkerAgent:
    """A TCP measurement worker (``repro worker --listen HOST:PORT``).

    Serves the framed worker protocol (:func:`~repro.api.backends.
    serve_frames`) to any number of concurrent connections, each opened
    by a ``hello`` greeting (see module docstring).  ``port=0`` binds a
    free port — read :attr:`address` after construction.

    ``hard_exit`` selects how a scripted chaos crash dies: the real CLI
    agent uses ``os._exit`` (the whole process is the worker), while
    in-process test agents instead sever every connection and stop
    accepting — indistinguishable from process death on the wire.

    The agent's connections share its one process-wide BLAS pool, which
    is sized when the agent starts: unlike a procpool worker, nothing
    divides the cores among its connections or among several agents on
    one host (set ``OPENBLAS_NUM_THREADS`` when starting each agent).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 hard_exit: bool = False):
        self.hard_exit = hard_exit
        self.service = _make_worker_service()
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        self._closed = False
        self._server = _AgentServer((host, port), self)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "WorkerAgent":
        """Serve on a background thread; returns self (tests/embedding)."""
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-worker-agent",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever()

    def _serve(self, connection) -> None:
        """One client connection: the greeting, then the frame loop."""
        with self._conn_lock:
            self._conns.add(connection)
        reader = connection.makefile("r", encoding="utf-8", errors="replace")
        writer = connection.makefile("w", encoding="utf-8")
        try:
            writer.write(json.dumps({"hello": {"schema": SCHEMA_VERSION,
                                               "pid": os.getpid()}},
                                    sort_keys=True) + "\n")
            writer.flush()
            serve_frames(reader, writer, self.service, self._crash)
        except (OSError, ValueError):
            # The peer hung up (or the agent died under us) — the client
            # classifies the loss; nothing to answer here.
            pass
        finally:
            with self._conn_lock:
                self._conns.discard(connection)
            for stream in (writer, reader):
                try:
                    stream.close()
                except OSError:
                    pass  # flush into a severed socket; already lost

    # ------------------------------------------------------------- lifecycle
    def die(self) -> None:
        """Simulate process death in-process: sever every live
        connection mid-frame and stop accepting (reconnects are refused).
        The wire picture is identical to a SIGKILLed agent."""
        with self._conn_lock:
            conns = list(self._conns)
        for connection in conns:
            _sever(connection)
        self._server.shutdown()
        self._server.server_close()

    def _crash(self) -> None:
        """A scripted chaos crash fault fired on this agent."""
        if self.hard_exit:
            os._exit(17)
        self.die()

    def close(self) -> None:
        """Stop serving and release the agent's service (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.service.close()


def _make_worker_service():
    """The agent's store-less measurement service (late import: the
    service module imports backends, which lazily imports us)."""
    from .service import ResilienceService
    return ResilienceService(use_store=False)


# ------------------------------------------------------- remote-pool client
def _sever(sock) -> None:
    """Shut a socket down both ways and close it; a reader blocked on
    it wakes with EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _dial(address: tuple[str, int],
          connect_timeout: float = 5.0) -> FramedChannel:
    """Connect to a worker agent and check its ``hello`` greeting.

    ``connect_timeout`` bounds the dial and the greeting; measurements
    are unbounded on the socket — the supervision watchdog owns
    liveness from there.
    """
    sock = socket.create_connection(address, timeout=connect_timeout)
    describe = f"remote worker {address[0]}:{address[1]}"
    channel = FramedChannel(
        sock.makefile("r", encoding="utf-8"),
        sock.makefile("w", encoding="utf-8"),
        lambda: _sever(sock), describe=describe, peer=address)
    try:
        greeting = channel.reader.readline()
        if not greeting:
            raise WorkerCrashed(f"{describe} closed the connection during "
                                f"the greeting")
        try:
            schema = json.loads(greeting)["hello"]["schema"]
        except (ValueError, KeyError, TypeError):
            raise WorkerCrashed(
                f"{describe} sent a non-protocol greeting "
                f"({greeting.strip()[:120]!r}); is a 'repro worker' agent "
                f"listening there?") from None
        if schema != SCHEMA_VERSION:
            raise BackendError(f"{describe} speaks schema {schema!r}; "
                               f"this client requires {SCHEMA_VERSION!r}")
        sock.settimeout(None)
    except BaseException:
        channel.close()
        raise
    return channel


class RemotePoolBackend(PooledBackend):
    """Dispatch shards to a configured set of TCP worker agents.

    The pooled dispatcher of :class:`~repro.api.backends.PooledBackend`
    with a socket per channel (see module docstring).  A borrow with no
    idle channel dials the next agent round-robin; a peer that refuses
    or drops a connection is marked dead for ``dead_cooldown`` seconds
    so retries reconnect *elsewhere* first; a fully-unreachable fleet
    raises the retryable :class:`~repro.api.resilience.WorkerCrashed`
    (the retry backoff doubles as the reconnect probe interval).
    :meth:`pool_snapshot` adds the cumulative ``connected`` count and
    each agent's ``dead`` flag.

    **Lock ordering**: the base's leaf ``_lock`` also guards the dead
    map and the round-robin cursor; dialing happens with it dropped.
    """

    name = "remote-pool"
    noun = "remote worker"
    log = logger

    def __init__(self, workers, max_parallel: int = 0, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 connect_timeout: float = 5.0,
                 dead_cooldown: float = 5.0):
        addresses = tuple(parse_worker_address(worker)
                          for worker in (workers or ()))
        if not addresses:
            raise ValueError(
                "the remote-pool backend needs at least one worker "
                "address (workers=['HOST:PORT', ...]); start agents "
                "with 'repro worker --listen HOST:PORT'")
        # Two in-flight shards per configured agent by default: one
        # measuring, one queued behind it on the agent's accept loop.
        super().__init__(int(max_parallel)
                         or max(DEFAULT_MAX_PARALLEL, 2 * len(addresses)),
                         heartbeat_grace=heartbeat_grace,
                         poll_interval=poll_interval)
        self.addresses = addresses
        self.connect_timeout = float(connect_timeout)
        self.dead_cooldown = float(dead_cooldown)
        self._dead: dict[tuple[str, int], float] = {}
        self._next = 0

    def _pool_extras(self) -> dict:
        now = time.monotonic()
        workers = [{"address": f"{host}:{port}",
                    "dead": (now - self._dead.get((host, port), -1e9)
                             < self.dead_cooldown)}
                   for host, port in self.addresses]
        return {"connected": self._opened, "workers": workers}

    def _note_lost(self, channel: FramedChannel) -> None:
        self._dead[channel.peer] = time.monotonic()

    def _open(self) -> FramedChannel:
        """Dial the next reachable agent (round-robin, dead last)."""
        now = time.monotonic()
        with self._lock:
            start = self._next
            self._next += 1
            dead = dict(self._dead)
        order = [self.addresses[(start + offset) % len(self.addresses)]
                 for offset in range(len(self.addresses))]
        fresh = [address for address in order
                 if now - dead.get(address, -1e9) >= self.dead_cooldown]
        # With the whole fleet in cooldown there is nothing to prefer —
        # probe everyone rather than guaranteeing failure.
        errors = []
        for address in fresh or order:
            try:
                channel = _dial(address, self.connect_timeout)
            except (OSError, WorkerCrashed) as exc:
                errors.append(f"{address[0]}:{address[1]} ({exc})")
                with self._lock:
                    self._dead[address] = time.monotonic()
                continue
            with self._lock:
                self._dead.pop(address, None)
            return channel
        raise WorkerCrashed(
            "no reachable remote worker: " + "; ".join(errors))


# ------------------------------------------------------------- coordinator
class NodeUnreachable(RemoteError):
    """A fleet node did not answer (refused, reset, or timed out)."""


@dataclass
class _JobRecord:
    """What the coordinator remembers about one routed job."""

    node: str
    payload: bytes | None = None
    priority: int = 0
    client_id: str | None = None


class ClusterCoordinator:
    """Federate several ``repro serve`` nodes behind one node-shaped API.

    Routing: each node contributes ``ring_points`` virtual points on a
    consistent-hash ring; a submission walks the ring from its request
    fingerprint, skipping draining (503) and unreachable nodes, and the
    first node to accept owns the job.  Because job ids are
    content-addressed store keys, ownership is a *routing hint*, not a
    correctness requirement — any node answers any job id by store
    lookup, and :meth:`_reroute` resubmits a lost node's recorded
    request elsewhere under the very same job id.

    **Lock ordering**: ``_lock`` is a leaf guarding ``_jobs``/``_down``;
    no node I/O ever happens while holding it.
    """

    def __init__(self, nodes, *, probe_timeout: float = 5.0,
                 request_timeout: float = 600.0,
                 down_cooldown: float = 10.0, ring_points: int = 64):
        self.nodes = tuple(str(node).rstrip("/") for node in nodes)
        if not self.nodes:
            raise ValueError("the coordinator needs at least one node "
                             "URL (repro coordinate --node http://...)")
        self.probe_timeout = float(probe_timeout)
        self.request_timeout = float(request_timeout)
        self.down_cooldown = float(down_cooldown)
        self._ring = sorted(
            (self._point(f"{url}#{index}"), url)
            for url in self.nodes for index in range(ring_points))
        self._jobs: dict[str, _JobRecord] = {}
        self._down: dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ transport
    def _node_request(self, url: str, path: str, *,
                      data: bytes | None = None,
                      headers: dict | None = None,
                      timeout: float | None = None):
        """One proxied round trip → ``(status, headers, body)``.

        HTTP error statuses pass through (the node's 4xx/5xx answer *is*
        the answer); only transport failure raises
        :class:`NodeUnreachable`.
        """
        request = urllib.request.Request(url + path, data=data,
                                         headers=headers or {})
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.probe_timeout) \
                    as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.headers, exc.read()
        except (urllib.error.URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            raise NodeUnreachable(
                f"fleet node {url} is unreachable: {reason}") from None

    # -------------------------------------------------------------- routing
    @staticmethod
    def _point(label: str) -> int:
        return int(hashlib.sha256(label.encode()).hexdigest()[:16], 16)

    def _ring_order(self, key: str) -> list[str]:
        """Node URLs in ring preference order for ``key``."""
        index = bisect.bisect(self._ring, (self._point(key), ""))
        seen: set[str] = set()
        order: list[str] = []
        for offset in range(len(self._ring)):
            _, url = self._ring[(index + offset) % len(self._ring)]
            if url not in seen:
                seen.add(url)
                order.append(url)
        return order

    def _route(self, key: str) -> list[str]:
        """Ring order, with recently-lost nodes demoted to the end."""
        order = self._ring_order(key)
        now = time.monotonic()
        with self._lock:
            down = {url for url, lost in self._down.items()
                    if now - lost < self.down_cooldown}
        return ([url for url in order if url not in down]
                + [url for url in order if url in down])

    def _note_down(self, url: str) -> None:
        with self._lock:
            self._down[url] = time.monotonic()

    def _note_up(self, url: str) -> None:
        with self._lock:
            self._down.pop(url, None)

    # --------------------------------------------------------------- verbs
    def submit(self, body: bytes, *, priority: int = 0,
               client_id: str | None = None):
        """Route one submission; returns ``(status, headers, body)``."""
        payload = json.loads(body.decode() or "{}")
        request = AnalysisRequest.from_payload(payload)
        if request.model.session is not None:
            raise ValueError(
                f"session ref {request.model.key!r} cannot be served "
                f"remotely: in-memory models do not cross the wire (use "
                f"benchmark=/preset= refs)")
        query = f"?priority={int(priority)}" if priority else ""
        headers = {"Content-Type": "application/json"}
        if client_id is not None:
            headers["X-Repro-Client"] = client_id
        failures = []
        for url in self._route(request.fingerprint()):
            try:
                status, node_headers, node_body = self._node_request(
                    url, "/v1/submit" + query, data=body, headers=headers,
                    timeout=self.request_timeout)
            except NodeUnreachable as exc:
                failures.append(str(exc))
                self._note_down(url)
                continue
            if status == 503:
                failures.append(f"fleet node {url} is draining")
                continue
            if status != 200:
                # The node's own verdict (400 bad request, 429 full
                # queue) — deterministic, not routing's to hide.
                return status, node_headers, node_body
            self._note_up(url)
            answer = json.loads(node_body)
            with self._lock:
                self._jobs[answer["job"]] = _JobRecord(
                    node=url, payload=body, priority=int(priority),
                    client_id=client_id)
            answer["node"] = url
            return (200, node_headers,
                    json.dumps(answer, sort_keys=True).encode())
        raise NodeUnreachable(
            "no live fleet node accepted the submission: "
            + "; ".join(failures))

    def locate(self, job: str) -> _JobRecord:
        """The job's owner record; probes every node for jobs this
        coordinator never routed (any node answers any id by store
        lookup).  Raises ``KeyError`` when nowhere knows it."""
        with self._lock:
            record = self._jobs.get(job)
        if record is not None:
            return record
        for url in self._route(job):
            try:
                status, _, _ = self._node_request(
                    url, f"/v1/status/{job}", timeout=self.probe_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status == 200:
                with self._lock:
                    return self._jobs.setdefault(job, _JobRecord(node=url))
        raise KeyError(job)

    def _reroute(self, job: str, dead: str) -> str | None:
        """Resubmit a lost node's job elsewhere (same content-addressed
        id); returns the new owner URL or ``None``."""
        self._note_down(dead)
        with self._lock:
            record = self._jobs.get(job)
        if record is None or record.payload is None:
            return None
        query = (f"?priority={record.priority}" if record.priority else "")
        headers = {"Content-Type": "application/json"}
        if record.client_id is not None:
            headers["X-Repro-Client"] = record.client_id
        for url in self._route(job):
            if url == dead:
                continue
            try:
                status, _, body = self._node_request(
                    url, "/v1/submit" + query, data=record.payload,
                    headers=headers, timeout=self.request_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status != 200:
                continue
            resubmitted = json.loads(body)["job"]
            with self._lock:
                record.node = url
            logger.warning(
                "fleet node %s lost job %s; resubmitted to %s (same "
                "content-addressed id: %s)", dead, job, url, resubmitted)
            return url
        return None

    def proxy_job(self, job: str, path: str, *, data: bytes | None = None,
                  timeout: float | None = None):
        """Proxy a per-job endpoint to its owner, rerouting around a
        dead node; returns ``(status, headers, body)``."""
        record = self.locate(job)
        for _ in range(len(self.nodes)):
            node = record.node
            try:
                return self._node_request(node, path, data=data,
                                          timeout=timeout
                                          or self.request_timeout)
            except NodeUnreachable:
                if self._reroute(job, node) is None:
                    raise
        raise NodeUnreachable(
            f"no live fleet node can answer job {job!r}")

    def health_payload(self) -> dict:
        """Per-node health aggregation (the coordinator's own
        ``/v1/health`` answer)."""
        nodes: dict[str, dict] = {}
        live = 0
        for url in self.nodes:
            try:
                status, _, body = self._node_request(
                    url, "/v1/health", timeout=self.probe_timeout)
            except NodeUnreachable as exc:
                self._note_down(url)
                nodes[url] = {"ok": False, "error": str(exc)}
                continue
            try:
                payload = json.loads(body)
            except ValueError:
                nodes[url] = {"ok": False,
                              "error": f"malformed health body "
                                       f"(HTTP {status})"}
                continue
            if status == 200:
                live += 1
                self._note_up(url)
            nodes[url] = payload
        return {"ok": live > 0, "coordinator": True,
                "schema": SCHEMA_VERSION, "live": live, "nodes": nodes}

    def inspect(self) -> dict:
        """The first reachable node's store inspection."""
        for url in self._route("inspect"):
            try:
                status, _, body = self._node_request(
                    url, "/v1/inspect", timeout=self.probe_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status == 200:
                return json.loads(body)
        raise NodeUnreachable("no live fleet node answered /v1/inspect")

    def stream_events(self, job: str, after: int = 0,
                      embed_partial: bool = True):
        """Yield one ndjson line per event, splicing across node loss.

        Serves at most one upstream silence slice per silent stretch —
        the consumer's own reconnect logic (``after=<last seq>``)
        resumes, exactly as against a single node.  Losing the owner
        mid-stream synthesizes a ``node_lost`` event at the splice
        point, reroutes, and continues from the new owner with
        ``after=0`` (sequence numbers restart; duplicated ``shard_done``
        frames are harmless by the monotonic-merge guarantee).
        """
        record = self.locate(job)
        last_seq = after
        suffix = "" if embed_partial else "&embed_partial=0"
        while True:
            node = record.node
            try:
                request = urllib.request.Request(
                    f"{node}/v1/events/{job}?after={last_seq}{suffix}")
                with urllib.request.urlopen(
                        request,
                        timeout=WAIT_SLICE_SECONDS + 15.0) as response:
                    for raw in response:
                        line = raw.strip()
                        if not line:
                            continue
                        document = json.loads(line)
                        last_seq = int(document.get("seq", last_seq))
                        yield line.decode() + "\n"
                        if document.get("kind") in TERMINAL_EVENTS:
                            return
                return  # silent slice: the consumer reconnects
            except (urllib.error.URLError, OSError,
                    http.client.HTTPException, ValueError) as exc:
                reason = str(getattr(exc, "reason", exc))
                fresh = self._reroute(job, node)
                lost = AnalysisEvent(
                    kind="node_lost", job=job, seq=last_seq + 1,
                    created=time.time(),
                    payload={"node": node, "error": reason,
                             "resubmitted": fresh is not None})
                yield lost.to_json() + "\n"
                if fresh is None:
                    terminal = AnalysisEvent(
                        kind="error", job=job, seq=last_seq + 2,
                        created=time.time(),
                        payload={"error": f"fleet node {node} was lost "
                                          f"and the job could not be "
                                          f"resubmitted: {reason}"})
                    yield terminal.to_json() + "\n"
                    return
                last_seq = 0


class CoordinatorServer(_HttpFront):
    """Serve one :class:`ClusterCoordinator` over HTTP.

    The surface is the node API itself (same :data:`~repro.api.server.
    ROUTES`, same handler base, same status codes and headers), so
    :class:`~repro.api.server.RemoteService` pointed at a coordinator
    behaves exactly as against a single node.
    """

    def __init__(self, coordinator: ClusterCoordinator, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.coordinator = coordinator
        super().__init__(_make_coordinator_handler(coordinator), host, port,
                         "repro-coordinate")


def _make_coordinator_handler(coordinator: ClusterCoordinator):
    class Handler(_ApiHandler):
        def _forward(self, status: int, headers, body: bytes) -> None:
            """Re-send a node's answer under coordinator framing."""
            headers = headers or {}
            self._reply(status, body, headers={
                name: headers.get(name)
                for name in ("Content-Type", "X-Repro-From-Cache",
                             "Retry-After")
                if headers.get(name) is not None})

        def route_health(self) -> None:
            self._reply(200, coordinator.health_payload())

        def route_inspect(self) -> None:
            self._reply(200, coordinator.inspect())

        def _proxy(self, job: str) -> None:
            self._forward(*coordinator.proxy_job(
                job, self.path, timeout=WAIT_SLICE_SECONDS
                + coordinator.probe_timeout + 15.0))

        route_status = route_result = route_partial = _proxy

        def route_events(self, job: str) -> None:
            # Resolve the owner *before* committing to a 200 chunked
            # reply — an unknown job must still answer 404.
            coordinator.locate(job)
            self._stream(coordinator.stream_events(
                job, after=self._after(),
                embed_partial=self._embed_partial()))

        def route_cancel(self, job: str) -> None:
            self._forward(*coordinator.proxy_job(
                job, "/v1/cancel/" + job, data=b"",
                timeout=coordinator.probe_timeout + 15.0))

        def route_submit(self) -> None:
            body = self._read_body()
            try:
                answer = coordinator.submit(body, priority=self._priority(),
                                            client_id=self._client_id())
            except (ValueError, KeyError, TypeError) as exc:
                raise _BadRequest(str(exc)) from None
            self._forward(*answer)

    return Handler
