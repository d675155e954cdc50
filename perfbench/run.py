"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steps24-deepcaps --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run plus its tracing overhead.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; everything else goes to standard error.  Host and
provenance of the run are written to ``.perfbench-out/`` (spans of a
traced run beside them).

This process only orchestrates, so it stays out of every timing: it
starts fresh interpreters running ``perfbench/workloads.py`` — a few
that only set up (the set-up time is measured from process start until
the child reports ``ready``, and the median is reported), then the one
that measures.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402 — stdlib-only module
from workloads import WORKLOAD_NAMES  # noqa: E402 — stdlib-only at import

#: End-to-end metrics (name → unit), in the order they are printed.
END_TO_END_METRICS = {
    "setup_s": "s",
    "analysis_p50_s": "s",
    "first_curve_p50_s": "s",
    "hit_p50_s": "s",
    "requests_per_s": "1/s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Fresh interpreters that set up per run (the measuring one included);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-run budget; the contract allows 180 s.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The run could not be completed; no result is printed."""


def _environment(tmp: str) -> dict:
    """Child environment: the source tree, the tracked zoo cache, and a
    private temp directory (so the program never touches the user's
    default result store or the system temp directory)."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src if not previous else os.pathsep.join(
        [src, previous])
    env["REPRO_ZOO_DIR"] = os.path.join(ROOT, ".artifacts", "zoo")
    env["REPRO_RESULT_DIR"] = os.path.join(tmp, "default-store")
    env["TMPDIR"] = tmp
    return env


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    proc.wait()


def _child(args, env: dict, deadline: float, *, setup_only: bool,
           out: str | None = None, spans: str | None = None) -> float:
    """Start one workload interpreter; returns its set-up seconds.

    Waits for the child to finish (it exits right after set-up when
    ``setup_only``); any failure kills its whole process group.
    """
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag, on in (("--setup-only", setup_only), ("--tiny", args.tiny),
                     ("--corrupt", args.corrupt)):
        if on:
            command.append(flag)
    if out:
        command += ["--out", out]
    if spans:
        command += ["--spans", spans]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"workload process did not become ready "
                             f"(exit status {proc.poll()})")
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        if code != 0:
            raise BenchError(f"workload process exited with status {code}")
        return setup
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the run deadline") \
            from None
    finally:
        _kill(proc)
        proc.stdout.close()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def _source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this identifies the measured code)."""
    import hashlib
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numeric_provenance(env: dict) -> dict:
    """Python, numpy and BLAS as the workload interpreters see them."""
    probe = ("import json, sys, numpy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']"
             "['blas']\n"
             "json.dump({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'blas': {k: blas.get(k) for k in "
             "('name', 'version', 'openblas configuration')}}, sys.stdout)")
    found = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if found.returncode != 0:
        raise BenchError(f"cannot import numpy: {found.stderr.strip()}")
    return json.loads(found.stdout)


def provenance(args, env: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _git_commit(), "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "platform": platform.platform(),
        **_numeric_provenance(env),
        "blas_thread_env": {name: os.environ.get(name)
                            for name in BLAS_THREAD_VARS},
    }


def run(args) -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is "
                         f"missing")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench-out")
    tmp = os.path.join(ROOT, ".perfbench-tmp", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    try:
        # Byte-compile once outside every timing, so the first run in a
        # fresh checkout sets up like the others.
        for folder in ("src", "perfbench"):
            compileall.compile_dir(os.path.join(ROOT, folder), quiet=1)
        env = _environment(tmp)
        record = provenance(args, env)
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}")
        samples = 1 if args.tiny else SETUP_SAMPLES
        setups = [_child(args, env, deadline, setup_only=True)
                  for _ in range(samples - 1)]
        report_path = os.path.join(tmp, "report.json")
        spans = stem + "-spans.jsonl" if args.trace else None
        setups.append(_child(args, env, deadline, setup_only=False,
                             out=report_path, spans=spans))
        with open(report_path) as stream:
            report = json.load(stream)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass            # another run's directory is still there

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    units = LAYER_METRICS if args.trace else END_TO_END_METRICS
    correct = report["failed"] == 0
    printed = {}
    for name, unit in units.items():
        value = float(metrics[name])
        if not math.isfinite(value):
            correct, value = False, 0.0
        printed[name] = {"value": value, "unit": unit}
    record.update(setup_samples_s=setups, report=report, metrics=printed,
                  spans=spans)
    with open(stem + ".json", "w") as stream:
        json.dump(record, stream, indent=2)
    print(json.dumps({key: record[key] for key in (
        "workload", "seed", "commit", "nproc", "cpu_model", "python",
        "numpy", "blas", "blas_thread_env")}), file=sys.stderr)
    if report["errors"]:
        print(f"failed operations: {report['errors']}", file=sys.stderr)
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": printed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: small inputs, one set-up")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one result before checks")
    args = parser.parse_args(argv)
    # A terminated run still stops its workload processes (the finally
    # blocks in _child kill their process groups).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
