"""Differential property test: every out-of-process transport answers
exactly what the inline reference measures.

Hypothesis draws a request (a subset of Step-2 group targets and Step-4
layer targets, an NM grid, a seed), an ``nm_chunk`` sharding and a
backend — ``threads``, ``procpool`` or a loopback ``remote-pool`` — and,
for threads/procpool, a scripted chaos fault on every shard's first
attempt.  The measured payload must equal the inline one.  Remote-pool
chaos is covered by the fleet armor in ``test_api_cluster.py``: an
in-process agent dies for good on a crash fault.

One service per backend lives for the whole module (warm workers keep
the test inside its time budget); each example swaps the service's
``nm_chunk`` and the chaos wrapper's ``plan`` before it submits.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import (AnalysisRequest, ExecutionOptions, FaultPlan,
                       ModelRef, ResilienceService, RetryPolicy)
from repro.api.cluster import WorkerAgent

FAST = RetryPolicy(base_delay=0.05, multiplier=2.0, max_delay=0.2)

TARGETS = (("softmax", None), ("mac_outputs", None), ("activations", None),
           ("logits_update", None), ("mac_outputs", "Conv1"),
           ("activations", "ClassCaps"))
NM_VALUES = (0.0, 0.05, 0.1, 0.5)
CHAOS = (None, "crash-before", "crash-after", "corrupt")


@pytest.fixture(scope="module")
def services():
    """Inline reference plus one long-lived service per backend."""
    agent = WorkerAgent().start()
    built = {
        "inline": ResilienceService(use_store=False),
        "threads": ResilienceService(
            use_store=False, backend="chaos:threads", max_parallel=2,
            fault_plan=FaultPlan(), retry_policy=FAST),
        "procpool": ResilienceService(
            use_store=False, backend="chaos:procpool", max_parallel=2,
            fault_plan=FaultPlan(), retry_policy=FAST),
        "remote-pool": ResilienceService(
            use_store=False, backend="remote-pool", max_parallel=2,
            workers=[agent.address], retry_policy=FAST),
    }
    yield built
    for service in built.values():
        service.close()
    agent.close()


def _measured(result) -> dict:
    """The result payload minus wall-clock provenance."""
    payload = result.to_payload()
    del payload["created"], payload["elapsed_seconds"]
    return payload


def _request(targets, nm_values, seed) -> AnalysisRequest:
    return AnalysisRequest(
        model=ModelRef(benchmark="CapsNet/MNIST"), targets=tuple(targets),
        nm_values=tuple(nm_values), seed=seed, eval_samples=32,
        options=ExecutionOptions(batch_size=32))


@st.composite
def cases(draw):
    request = _request(
        draw(st.lists(st.sampled_from(TARGETS), min_size=1, max_size=3,
                      unique=True)),
        draw(st.lists(st.sampled_from(NM_VALUES), min_size=1, max_size=3,
                      unique=True)),
        draw(st.integers(0, 3)))
    backend = draw(st.sampled_from(("threads", "procpool", "remote-pool")))
    chaos = (None if backend == "remote-pool"
             else draw(st.sampled_from(CHAOS)))
    return request, draw(st.sampled_from((None, 2))), backend, chaos


@given(case=cases())
# Pinned so every run covers a corrupted frame and a fault-free warm
# worker on the procpool, which the derandomized draws do not reach.
@example(case=(_request(TARGETS[:2], NM_VALUES[1:], 5), 2, "procpool",
               "corrupt"))
@example(case=(_request(TARGETS[4:], NM_VALUES[:2], 6), None, "procpool",
               None))
# Pinned: group-wise and layer-wise targets together, one target per
# shard across both procpool workers, with nothing injected.
@example(case=(_request((("mac_outputs", None), ("softmax", None),
                          ("mac_outputs", "Conv1")), NM_VALUES, 3),
               None, "procpool", None))
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_every_transport_matches_inline(services, case):
    request, nm_chunk, backend, chaos = case
    service = services[backend]
    service.nm_chunk = nm_chunk
    if backend != "remote-pool":
        service.backend.plan = (FaultPlan() if chaos is None else
                                FaultPlan.crash_every_shard(where=chaos))
    expected = _measured(services["inline"].run(request))
    assert _measured(service.run(request)) == expected, (backend, chaos,
                                                         nm_chunk)
