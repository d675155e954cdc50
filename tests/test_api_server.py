"""Remote serving of the analysis API over HTTP (ISSUE 4).

The wire is the versioned request/result JSON schema — nothing bespoke —
so these tests double as schema-compatibility armor: a fig9 ``--quick``
request round-tripped through ``repro serve``'s endpoints must come back
byte-identical to the in-process path.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import (SCHEMA_VERSION, AnalysisRequest, AnalysisServer,
                       ModelRef, RemoteError, RemoteHandle, RemoteService,
                       ResilienceService)
from repro.api.cluster import ClusterCoordinator, CoordinatorServer
from repro.experiments import fig9
from repro.experiments.common import ExperimentScale

QUICK = ExperimentScale.quick()


@pytest.fixture()
def server(tmp_path):
    service = ResilienceService(cache_dir=str(tmp_path))
    instance = AnalysisServer(service).start()
    yield instance
    instance.shutdown()
    service.close()


@pytest.fixture()
def remote(server):
    return RemoteService(server.address)


def _quick_request() -> AnalysisRequest:
    return fig9.request_for("DeepCaps/CIFAR-10", QUICK)


class TestEndpoints:
    def test_health_reports_schema_and_backend(self, remote):
        health = remote.health()
        assert health["ok"] and health["schema"] == SCHEMA_VERSION
        assert health["backend"] == "inline"

    def test_unknown_endpoint_is_404(self, remote):
        with pytest.raises(RemoteError, match="404"):
            remote._get_json("/v1/nope")

    def test_malformed_submission_is_400(self, server):
        body = json.dumps({"schema": 99}).encode()
        request = urllib.request.Request(
            server.address + "/v1/submit", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "schema" in json.loads(excinfo.value.read())["error"]

    def test_session_refs_rejected_with_400(self, remote):
        request = AnalysisRequest(model=ModelRef(session="local-only"),
                                  targets=(("softmax", None),),
                                  nm_values=(0.5,))
        with pytest.raises(RemoteError, match="session ref"):
            remote.submit(request)

    def test_register_errors_loudly(self, remote):
        with pytest.raises(RemoteError, match="cannot register"):
            remote.register("x", object(), object())

    def test_entry_errors_loudly(self, remote):
        with pytest.raises(RemoteError, match="in-process"):
            remote.entry(ModelRef(benchmark="DeepCaps/CIFAR-10"))


def _v1_payload_with_workers() -> bytes:
    """A schema-1 submission as the parent wire carried it."""
    payload = _quick_request().to_payload()
    payload["schema"] = 1
    payload["options"]["workers"] = 8
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def fronts(tmp_path_factory):
    """One node and a coordinator in front of it, by front name."""
    service = ResilienceService(
        cache_dir=str(tmp_path_factory.mktemp("parity")))
    node = AnalysisServer(service).start()
    coordinator = CoordinatorServer(
        ClusterCoordinator([node.address], probe_timeout=2.0)).start()
    yield {"node": node.address, "coordinator": coordinator.address}
    coordinator.shutdown()
    node.shutdown()
    service.close()


def _call(url: str, method: str, path: str, body: bytes | None):
    request = urllib.request.Request(url + path, data=body, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


class TestEndpointParity:
    """Node and coordinator serve one route table through one handler
    base: every malformed or unknown call answers the same status and
    the same body on both fronts."""

    @pytest.mark.parametrize("method, path, body, code, message", [
        ("GET", "/v1/nope", None, 404, "unknown endpoint"),
        ("POST", "/v1/nope", b"{}", 404, "unknown endpoint"),
        ("GET", "/v1/submit", None, 404, "unknown endpoint"),
        ("GET", "/v1/status/no-such-job", None, 404, "unknown job"),
        ("GET", "/v1/result/no-such-job", None, 404, "unknown job"),
        ("GET", "/v1/partial/no-such-job", None, 404, "unknown job"),
        ("GET", "/v1/events/no-such-job", None, 404, "unknown job"),
        ("POST", "/v1/cancel/no-such-job", b"", 404, "unknown job"),
        ("POST", "/v1/submit", b"{not json", 400, "property name"),
        ("POST", "/v1/submit?priority=high", b"{}", 400, "priority"),
        ("POST", "/v1/submit", json.dumps({"schema": 99}).encode(), 400,
         "unsupported request schema 99"),
        ("POST", "/v1/submit", _v1_payload_with_workers(), 400,
         "unsupported request schema 1"),
    ], ids=["unknown-endpoint", "unknown-post-endpoint", "get-submit",
            "status-unknown-job", "result-unknown-job",
            "partial-unknown-job", "events-unknown-job",
            "cancel-unknown-job", "malformed-body", "malformed-priority",
            "foreign-schema", "schema-v1-workers"])
    def test_both_fronts_answer_alike(self, fronts, method, path, body,
                                      code, message):
        answers = {name: _call(url, method, path, body)
                   for name, url in fronts.items()}
        assert answers["node"] == answers["coordinator"]
        status, payload = answers["node"]
        assert status == code
        assert message in payload["error"]

    @pytest.mark.parametrize("front", ["node", "coordinator"])
    @pytest.mark.parametrize("length", ["-1", "abc", None],
                             ids=["negative", "non-integer", "missing"])
    def test_bad_content_length_is_400(self, fronts, front, length):
        """A body of unknown extent is refused at once (a negative
        length used to block the handler in ``rfile.read(-1)``) and the
        connection closes, since its framing cannot be trusted."""
        url = urllib.parse.urlsplit(fronts[front])
        head = "POST /v1/submit HTTP/1.1\r\nHost: test\r\n"
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        reply = b""
        with socket.create_connection((url.hostname, url.port),
                                      timeout=5) as sock:
            sock.sendall((head + "\r\n").encode())
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length must be a non-negative integer" in reply


class TestRoundTrip:
    def test_fig9_quick_round_trips_byte_identical(self, tmp_path, remote,
                                                   server):
        """The ISSUE 4 acceptance: a fig9 --quick request served over
        HTTP returns output identical to the in-process path."""
        local_service = ResilienceService(cache_dir=str(tmp_path / "local"))
        local = fig9.run(scale=QUICK, service=local_service)
        via_http = fig9.run(scale=QUICK, service=remote)
        assert via_http.format_text() == local.format_text()
        # The measurement ran server-side, against the server's store.
        assert server.service.stats.executed == 1
        assert local_service.stats.executed == 1

    def test_resubmission_is_idempotent_and_cached(self, remote, server):
        first = remote.submit(_quick_request())
        first.result()
        second = remote.submit(_quick_request())
        assert second.key == first.key  # job ids are store keys
        assert second.status() == "cached"
        assert second.result().from_cache
        assert server.service.stats.store_hits >= 1

    def test_status_and_progress_endpoints(self, remote):
        handle = remote.submit(_quick_request())
        result = handle.result()
        assert handle.done() and handle.status() in ("done", "cached")
        progress = handle.progress
        assert progress["shards_done"] == progress["shards_total"]
        assert result.curves  # full AnalysisResult round-trip

    def test_inspect_lists_served_results(self, remote):
        remote.run(_quick_request())
        inspect = remote.inspect()
        assert inspect["root"]
        assert any(entry["model"] == "benchmark:DeepCaps/CIFAR-10"
                   for entry in inspect["entries"])

    def test_finished_jobs_survive_server_restart(self, tmp_path):
        """Job ids are content-addressed store keys, so a new server over
        the same store can answer result queries for old jobs — straight
        from the stored document, without resubmitting (which would
        force model resolution just to answer a status poll)."""
        service = ResilienceService(cache_dir=str(tmp_path))
        first = AnalysisServer(service).start()
        try:
            handle = RemoteService(first.address).submit(_quick_request())
            job = handle.key
            handle.result()
        finally:
            first.shutdown()
        reborn_service = ResilienceService(cache_dir=str(tmp_path))
        reborn = AnalysisServer(reborn_service).start()
        try:
            client = RemoteService(reborn.address)
            payload = client._get_json(f"/v1/status/{job}")
            assert payload["status"] == "cached"
            assert client._get_json(f"/v1/status/{job}")["shards_total"] == 1
            result = RemoteHandle(client, _quick_request(), job).result(
                timeout=30)
            assert result.from_cache
            # Served from the store document alone: nothing resubmitted,
            # no model resolved.
            assert reborn_service.stats.submitted == 0
            assert reborn_service._resolved == {}
        finally:
            reborn.shutdown()

    def test_finite_result_timeout_raises_timeout_error(self, tmp_path,
                                                        monkeypatch):
        """Review regression: a finite client timeout shorter than the
        server's long-poll slice must surface as TimeoutError (the
        in-process handle contract), not as a bogus 'cannot reach
        analysis server' RemoteError."""
        import time as time_module
        service = ResilienceService(cache_dir=str(tmp_path),
                                    backend="threads", max_parallel=1)
        measure = service._measure

        def slow_measure(request, cancel=None, preempt=None):
            time_module.sleep(4.0)
            return measure(request, cancel=cancel, preempt=preempt)

        monkeypatch.setattr(service, "_measure", slow_measure)
        server = AnalysisServer(service).start()
        try:
            handle = RemoteService(server.address).submit(_quick_request())
            with pytest.raises(TimeoutError, match="still"):
                handle.result(timeout=1.0)
            assert handle.result(timeout=60) is not None  # then completes
        finally:
            server.shutdown()
            service.close()
