"""One measured benchmark process: set up a workload, drive it, check it.

``run.py`` starts this file in a fresh interpreter and times it from
process start until it prints ``ready`` (the set-up time).  Without
``--setup-only`` it then drives the workload's closed loop (one client,
one request in flight) for ``--seconds``, checks every result outside
the timed window, and writes its samples and metrics as JSON to
``--out``.  Everything here goes through the public API
(:class:`~repro.api.ResilienceService`, :class:`~repro.api.AnalysisServer`,
:class:`~repro.api.RemoteService`).

Workloads (see ``perfbench/README.md`` for why each was chosen):

``steps24-deepcaps`` / ``steps24-capsnet``
    An in-process service (inline backend) answers Steps 2+4 requests:
    the four operation groups plus the MAC outputs and activations of
    every layer, on a 7-value NM grid, 96 eval samples in one batch.
    Each request has a fresh seed, so every request misses the store.
``service-mix``
    An HTTP server in front of a procpool service; one HTTP client sends
    Fig. 9 ``--quick`` requests over the five paper benchmarks in rounds:
    one fresh request (a store miss) per benchmark, then one repeat of an
    earlier request (a store hit) per benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import random
import statistics
import sys
import tempfile
import time

NM_GRID = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0)
EVAL_SAMPLES = 96
#: Re-submissions of each measured Steps 2+4 request, outside the timed
#: window: the hit byte-identity check and the in-process hit latency.
HIT_REPEATS = 8
#: Idle pause before each in-process store hit, kept out of every timing.
#: A hit that follows other work straight away runs in whichever of two
#: states (about 2x apart on a shared host) the core happens to be in;
#: after a short pause it reliably runs in one, so runs agree far better.
HIT_PAUSE_S = 0.05
WORKLOAD_NAMES = ("steps24-deepcaps", "steps24-capsnet", "service-mix")
PAPER_BENCHMARKS = ("DeepCaps/CIFAR-10", "DeepCaps/SVHN", "DeepCaps/MNIST",
                    "CapsNet/Fashion-MNIST", "CapsNet/MNIST")
#: service-mix checks procpool against inline on this benchmark's first
#: measured request, so the check's memory is the same in every run.
IDENTITY_BENCHMARK = "DeepCaps/CIFAR-10"
REQUEST_TIMEOUT_S = 60.0


class Sample:
    """One timed operation and what its checks found."""

    def __init__(self, kind: str, request, seconds: float, result=None,
                 error: str | None = None):
        self.kind = kind              # "miss" or "hit"
        self.request = request
        self.seconds = seconds
        self.result = result
        self.error = error
        self.first_curve_s: float | None = None
        self.source: Sample | None = None   # the miss a hit repeats
        self.round = 0   # latency metrics average within a round first
        self.rid: str | None = None         # span request id when traced

    @property
    def traced(self) -> bool:
        return self.rid is not None

    @property
    def failed(self) -> bool:
        return self.error is not None


# ---------------------------------------------------------------- checks
def check_result(result, request) -> str | None:
    """Why ``result`` does not answer ``request`` in full, or ``None``.

    Every requested target must carry one point per requested NM value,
    in order, with an accuracy in [0, 1] whose drop is measured against
    the result's baseline; the noise-free point must equal the baseline.
    """
    if result is None:
        return "no result"
    if result.request.fingerprint() != request.fingerprint():
        return "result answers a different request"
    expected = [target.key for target in request.targets]
    if sorted(map(str, result.curves)) != sorted(map(str, expected)):
        return f"targets {len(result.curves)} != requested {len(expected)}"
    baseline = result.baseline_accuracy
    for key in expected:
        points = result.curves[key].points
        if [point.nm for point in points] != list(request.nm_values):
            return f"{key}: NM points {[p.nm for p in points]}"
        for point in points:
            if not (math.isfinite(point.accuracy)
                    and 0.0 <= point.accuracy <= 1.0):
                return f"{key}: accuracy {point.accuracy} at NM={point.nm}"
            if abs(point.accuracy - baseline - point.accuracy_drop) > 1e-9:
                return f"{key}: drop inconsistent at NM={point.nm}"
            if point.nm == 0.0 and request.na == 0.0 \
                    and point.accuracy != baseline:
                return f"{key}: noise-free point differs from baseline"
    return None


def measured_payload(result) -> str:
    """The measured content of a result: curves, baseline, fingerprints
    (creation time and elapsed seconds differ between measurements)."""
    payload = result.to_payload()
    payload.pop("created")
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True)


def noisy_evals(request) -> int:
    """Noisy sample-evaluations a request asks for: targets × noisy NM
    values × eval samples."""
    noisy = sum(1 for nm in request.nm_values if nm != 0.0)
    return len(request.targets) * noisy * request.eval_samples


def corrupt(result) -> None:
    """Drop one measured point (the self-test's deliberately bad result)."""
    next(iter(result.curves.values())).points.pop()


def attempt(kind: str, request, round_index: int, trace,
            operation) -> Sample:
    """Time one operation; ``operation()`` returns the result and the
    seconds from submit to its first curve (``None`` for hits).  An
    exception, or a miss that streamed no curve, fails the operation."""
    with trace.request(round_index) as rid:
        started = time.perf_counter()
        try:
            result, first_curve_s = operation()
        except Exception as exc:  # noqa: BLE001 — counted as failed
            sample = Sample(kind, request, time.perf_counter() - started,
                            error=f"{type(exc).__name__}: {exc}")
        else:
            sample = Sample(kind, request, time.perf_counter() - started,
                            result)
            sample.first_curve_s = first_curve_s
            if kind == "miss" and first_curve_s is None:
                sample.error = "no shard_done event before the result"
    sample.rid, sample.round = rid, round_index
    return sample


# -------------------------------------------------------------- workloads
class Steps24:
    """Steps 2+4 requests on one benchmark through an in-process service."""

    def __init__(self, benchmark: str, seed: int, store_root: str, *,
                 tiny: bool = False):
        self.benchmark = benchmark
        self.benchmarks = (benchmark,)
        self.rng = random.Random(seed)
        self.store_root = store_root
        self.tiny = tiny
        self.eval_samples = 16 if tiny else EVAL_SAMPLES
        self.nm_values = (0.5, 0.05, 0.0) if tiny else NM_GRID
        self.service = None

    def setup(self) -> None:
        from repro.api import (AnalysisRequest, ExecutionOptions, ModelRef,
                               ResilienceService)
        from repro.nn.hooks import INJECTABLE_GROUPS
        from repro.zoo import benchmark_coords, model_layer_names
        layers = model_layer_names(*benchmark_coords(self.benchmark))
        if self.tiny:
            layers = layers[:1]
        self.targets = tuple(
            [(group, None) for group in INJECTABLE_GROUPS]
            + [(group, layer) for layer in layers
               for group in ("mac_outputs", "activations")])
        options = ExecutionOptions(batch_size=self.eval_samples)
        ref = ModelRef(benchmark=self.benchmark)
        self._request = lambda targets, nm_values, seed: AnalysisRequest(
            model=ref, targets=targets, nm_values=nm_values, na=0.0,
            seed=seed, eval_samples=self.eval_samples, options=options)
        self.service = ResilienceService(cache_dir=self.store_root)
        # Warm-up: the clean-trace observe pass of the engine every
        # measured request reuses (one cheap target, one noisy point).
        self.service.run(self._request((("softmax", None),), (0.5, 0.0), 0))

    def run(self, seconds: float, trace):
        """Fresh-seed requests for ``seconds`` of window time.

        After each miss, the same request is re-submitted
        :data:`HIT_REPEATS` times, each after :data:`HIT_PAUSE_S`: store
        hits, checked against the miss and timed for ``hit_p50_s``.
        Their time is kept out of the window.
        """
        samples, hits = [], []
        window_s = 0.0
        index = 0
        while not samples or window_s < seconds:
            started = time.perf_counter()
            request = self._request(self.targets, self.nm_values,
                                    self.rng.randrange(1, 2 ** 31))
            miss = attempt("miss", request, index, trace,
                           lambda: self._submit(request))
            samples.append(miss)
            window_s += time.perf_counter() - started
            for repeat in range(0 if miss.failed else HIT_REPEATS):
                time.sleep(HIT_PAUSE_S)
                hit = attempt("hit", request, index, trace,
                              lambda: (self.service.run(request), None))
                hit.source = miss
                hits.append(hit)
            index += 1
        return samples, hits, window_s

    def _submit(self, request):
        """Submit and wait; the first curve is the ``shard_done`` event."""
        wall = time.time()
        handle = self.service.submit(request)
        result = handle.result()
        first = next((event.created for event in handle.events()
                      if event.kind == "shard_done"), None)
        return result, None if first is None else first - wall

    def identity_check(self, samples: list[Sample]) -> None:
        """Steps 2+4 runs inline already; nothing to cross-check."""

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class ServiceMix:
    """Fig. 9 ``--quick`` misses and hits over HTTP against a procpool."""

    def __init__(self, seed: int, store_root: str, *, tiny: bool = False):
        self.rng = random.Random(seed)
        self.store_root = store_root
        self.tiny = tiny
        self.benchmarks = (("CapsNet/MNIST", "CapsNet/Fashion-MNIST")
                           if tiny else PAPER_BENCHMARKS)
        self.service = self.server = self.remote = None

    def setup(self) -> None:
        from repro.api import AnalysisServer, RemoteService, ResilienceService
        from repro.experiments.common import ExperimentScale
        from repro.experiments.fig9 import request_for
        scale = ExperimentScale.quick()
        if self.tiny:
            scale = ExperimentScale(eval_samples=16).quick()
        self._request_for = lambda benchmark, seed: request_for(
            benchmark, scale, seed)
        self.service = ResilienceService(
            cache_dir=self.store_root, backend="procpool",
            max_parallel=len(os.sched_getaffinity(0)))
        self.server = AnalysisServer(self.service).start()
        self.remote = RemoteService(self.server.address,
                                    timeout=REQUEST_TIMEOUT_S)
        # Warm-up: spawns the procpool workers and builds each worker's
        # engine (clean trace) for every model — two one-point shards, so
        # both workers of a two-core pool see every model; seed 0 is
        # never measured.
        for benchmark in self.benchmarks:
            self.remote.run(dataclasses.replace(
                self._request_for(benchmark, 0),
                targets=(("mac_outputs", None), ("softmax", None)),
                nm_values=(0.5, 0.0)))

    def run(self, seconds: float, trace):
        """Rounds of one fresh request per benchmark, then one repeat of a
        random earlier request per benchmark, each half in shuffled
        order.  The loop stops at a round boundary, so every run and
        every round weighs the benchmarks equally.  Hits follow hits back
        to back: over HTTP an idle pause makes them slower and far more
        variable (waking an idle server thread), unlike in process.
        """
        samples: list[Sample] = []
        done: dict[str, list[Sample]] = {}
        start = time.perf_counter()
        index = 0
        while not samples or time.perf_counter() - start < seconds:
            order = list(self.benchmarks)
            self.rng.shuffle(order)
            for benchmark in order:
                request = self._request_for(benchmark,
                                            self.rng.randrange(1, 2 ** 31))
                restarts = self._restarts()
                miss = attempt("miss", request, index, trace,
                               lambda: self._remote_miss(request))
                if miss.traced:
                    trace.restarts[miss.rid] = self._restarts() - restarts
                samples.append(miss)
                if not miss.failed:
                    done.setdefault(benchmark, []).append(miss)
            self.rng.shuffle(order)
            for benchmark in order:
                if not done.get(benchmark):
                    continue
                source = self.rng.choice(done[benchmark])
                hit = attempt("hit", source.request, index, trace,
                              lambda: self._remote_hit(source.request))
                hit.source = source
                samples.append(hit)
            index += 1
        return samples, [], time.perf_counter() - start

    def _restarts(self) -> int:
        return getattr(self.service.backend, "worker_restarts", 0)

    def _remote_miss(self, request):
        """Submit, follow ``/v1/events`` to the first curve, fetch."""
        started = time.perf_counter()
        handle = self.remote.submit(request)
        first = None
        for event in handle.events(timeout=REQUEST_TIMEOUT_S):
            if event.kind == "shard_done" and first is None:
                first = time.perf_counter() - started
        return handle.result(timeout=REQUEST_TIMEOUT_S), first

    def _remote_hit(self, request):
        handle = self.remote.submit(request)
        return handle.result(timeout=REQUEST_TIMEOUT_S), None

    def identity_check(self, samples: list[Sample]) -> None:
        """Measure one procpool-measured request again inline in this
        process; the curves must be byte-identical."""
        from repro.api import ResilienceService
        candidates = [s for s in samples if s.kind == "miss"
                      and not s.failed]
        wanted = [s for s in candidates
                  if s.request.model.benchmark == IDENTITY_BENCHMARK]
        chosen = (wanted or candidates or [None])[0]
        if chosen is None:
            return
        inline = ResilienceService(use_store=False)
        try:
            reference = inline.run(chosen.request)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            chosen.error = f"inline re-measurement failed: {exc}"
            return
        finally:
            inline.close()
        if measured_payload(reference) != measured_payload(chosen.result):
            chosen.error = "procpool result differs from inline measurement"

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        if self.service is not None:
            self.service.close()


def make_workload(name: str, seed: int, store_root: str, *, tiny: bool):
    if name == "steps24-deepcaps":
        return Steps24("DeepCaps/MNIST", seed, store_root, tiny=tiny)
    if name == "steps24-capsnet":
        return Steps24("CapsNet/MNIST", seed, store_root, tiny=tiny)
    if name == "service-mix":
        return ServiceMix(seed, store_root, tiny=tiny)
    raise SystemExit(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


# ---------------------------------------------------------------- tracing
class TraceSwitch:
    """Traces every other round (``--trace 1``).

    Traced and untraced rounds alternate, so the tracing overhead is the
    traced against the untraced latency of the same run, over rounds of
    the same make-up.
    """

    def __init__(self, enabled: bool, service=None, remote: bool = False):
        self.enabled = enabled
        self.tracer = None
        self.restarts: dict[str, int] = {}
        self._service = service
        self._remote = remote
        self._ids = 0
        if enabled:
            from tracing import Tracer
            self.tracer = Tracer()

    @contextlib.contextmanager
    def request(self, round_index: int):
        """Scope of one request; yields its span request id when traced,
        else ``None``."""
        if not (self.enabled and round_index % 2 == 0):
            yield None
            return
        from tracing import install
        self._ids += 1
        rid = f"r{round_index}-{self._ids}"
        self.tracer.request_id = rid
        install(self.tracer, self._service, remote=self._remote)
        try:
            yield rid
        finally:
            self.tracer.uninstall()
            self.tracer.request_id = None


# ----------------------------------------------------------------- report
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def _round_median(samples: list[Sample], value) -> float:
    """Median over rounds of the mean ``value`` within each round.

    A service-mix round holds one request per paper benchmark, whose
    latencies differ several-fold; averaging within the round first keeps
    the statistic from depending on where the benchmark clusters meet.
    A Steps 2+4 round is a single request (a plain median).
    """
    rounds: dict[int, list[float]] = {}
    for sample in samples:
        rounds.setdefault(sample.round, []).append(value(sample))
    return _median(statistics.fmean(values) for values in rounds.values())


def _log_median(samples: list[Sample]) -> float:
    """Geometric mean of the latencies: the median of a log-normal.

    Hits take milliseconds, and their noise is multiplicative and
    lumpy: host states about 2x apart, and over HTTP the thread-switch
    interval the in-process client and server share.  The sample median
    then jumps between lumps from run to run; the geometric mean uses
    every sample and damps the rare long ones.
    """
    if not samples:
        return float("nan")
    return statistics.geometric_mean(s.seconds for s in samples)


def end_to_end(samples: list[Sample], hits: list[Sample],
               window_s: float) -> dict:
    """End-to-end metrics of the timed window (``hits`` are the store
    hits the Steps 2+4 workloads take outside it)."""
    window = [s for s in samples if not s.failed]
    misses = [s for s in window if s.kind == "miss"]
    all_hits = [s for s in window + hits
                if s.kind == "hit" and not s.failed]
    evals = sum(noisy_evals(s.request) for s in misses)
    return {
        "analysis_p50_s": _round_median(misses, lambda s: s.seconds),
        "first_curve_p50_s": _round_median(misses,
                                           lambda s: s.first_curve_s),
        "hit_p50_s": _log_median(all_hits),
        "requests_per_s": len(window) / window_s,
        "evals_per_s": evals / window_s,
    }


def check_zoo(benchmarks) -> None:
    """Fail loudly when a model is missing from the zoo cache: resolving
    it would otherwise train it (minutes) inside the timed set-up."""
    from repro.zoo import benchmark_coords, load_trained_model, zoo_cache_dir
    missing = [label for label in benchmarks
               if load_trained_model(*benchmark_coords(label)) is None]
    if missing:
        raise SystemExit(f"models missing from the zoo cache "
                         f"{zoo_cache_dir()}: {missing}; the benchmark "
                         f"does not train them")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    # Protocol lines go to the real stdout; anything the program prints
    # lands on stderr.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr

    store_root = tempfile.mkdtemp(prefix="store-")
    workload = make_workload(args.workload, args.seed, store_root,
                             tiny=args.tiny)
    try:
        check_zoo(workload.benchmarks)
        workload.setup()
        channel.write("ready\n")
        channel.flush()
        if args.setup_only:
            return 0
        trace = TraceSwitch(bool(args.trace), workload.service,
                            remote=args.workload == "service-mix")
        samples, hits, window_s = workload.run(args.seconds, trace)
        if args.corrupt:
            corrupt(next(s for s in samples if not s.failed).result)
        for sample in samples + hits:
            if not sample.failed:
                problem = check_result(sample.result, sample.request)
                if problem is None and sample.kind == "hit":
                    if sample.result.to_json() != \
                            sample.source.result.to_json():
                        problem = "store hit differs from the miss it repeats"
                sample.error = problem
        workload.identity_check(samples)
    finally:
        workload.close()

    report = {
        "attempted": len(samples) + len(hits),
        "failed": sum(s.failed for s in samples + hits),
        "errors": sorted({s.error for s in samples + hits if s.failed}),
        "window_s": window_s,
        "samples": [[s.kind, s.request.model.benchmark, s.round,
                     s.seconds] for s in samples + hits],
    }
    if args.trace:
        from tracing import layer_metrics
        traced = {s.rid: s.kind for s in samples + hits if s.traced}
        metrics = layer_metrics(trace.tracer, traced, trace.restarts)
        misses = [s for s in samples if s.kind == "miss" and not s.failed]
        base = _round_median([s for s in misses if not s.traced],
                             lambda s: s.seconds)
        metrics["trace.overhead_base_s"] = base
        metrics["trace.overhead_ratio"] = _round_median(
            [s for s in misses if s.traced], lambda s: s.seconds) / base - 1
        report["metrics"] = metrics
        if args.spans:
            trace.tracer.write(args.spans)
    else:
        report["metrics"] = end_to_end(samples, hits, window_s)
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(report, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
