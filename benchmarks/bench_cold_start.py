"""Interpreter cold start: what a fresh process pays before any work.

The service is served from short-lived interpreters — every procpool
worker, the HTTP front end, the ``repro`` CLI — so their import time is
paid on every spawn, respawn and CLI call. Two metrics land in
``BENCH_sweep.json`` -> ``custom_metrics``:

* ``import_seconds`` — median of three fresh ``python -c "import
  repro.api"`` runs (interpreter start included);
* ``procpool_first_result_seconds`` — a fresh procpool service with one
  worker answering one one-target CapsNet/MNIST request, from
  construction to result: worker spawn, its imports, the test-split
  regeneration and the measurement.

``import_seconds`` carries a soft bound. ``scipy.stats`` and
``scipy.ndimage`` alone cost about a second to import, and both load on
first use only; the bound trips if either comes back onto the import
path of ``repro.api``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from repro.api import (AnalysisRequest, ExecutionOptions, ModelRef,
                       ResilienceService)

from conftest import record_metric, run_once

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Soft bound on one fresh ``import repro.api``, interpreter start included.
IMPORT_SOFT_BOUND_SECONDS = 1.0


def _fresh_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.api"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def test_import_seconds(benchmark):
    """Median wall time of three fresh-interpreter ``import repro.api``."""
    samples: list[float] = []
    run_once(benchmark, lambda: samples.extend(
        _fresh_import_seconds() for _ in range(3)))
    seconds = statistics.median(samples)
    record_metric("import_seconds", seconds)
    print(f"\nimport repro.api: {seconds:.3f}s (median of "
          f"{', '.join(f'{s:.3f}' for s in samples)})")
    assert seconds < IMPORT_SOFT_BOUND_SECONDS


def test_procpool_first_result_seconds(benchmark):
    """Construction to first result of a one-worker procpool service."""
    request = AnalysisRequest(
        model=ModelRef(benchmark="CapsNet/MNIST"),
        targets=(("softmax", None),), nm_values=(0.5, 0.0),
        eval_samples=32, options=ExecutionOptions(batch_size=32))
    timings: dict[str, float] = {}

    def first_result():
        start = time.perf_counter()
        service = ResilienceService(backend="procpool", max_parallel=1,
                                    use_store=False)
        try:
            result = service.run(request)
            timings["seconds"] = time.perf_counter() - start
        finally:
            service.close()
        assert set(result.curves) == {"softmax"}

    run_once(benchmark, first_result)
    seconds = timings["seconds"]
    record_metric("procpool_first_result_seconds", seconds)
    print(f"\nprocpool first result: {seconds:.3f}s")
