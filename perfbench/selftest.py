"""Fast self-test of the benchmark (about a minute on two cores).

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs every workload at a tiny size through ``run.py`` — untraced,
traced, and once with a deliberately corrupted result — and checks that

* the last line holds exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with no failed operation on a clean run;
* the printed metric names and units are exactly the ``end_to_end``
  (untraced) or ``per_layer`` (traced) metrics of ``BENCHMARK.json``;
* the corrupted result is counted as failed and the run as incorrect.

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def run(workload: str, *, trace: int, corrupt: bool = False) -> dict:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    if corrupt:
        command.append("--corrupt")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        fail(f"{' '.join(command[1:])} exited {proc.returncode}:\n"
             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for entry in spec["workloads"]:
        workload = entry["name"]
        for trace in (0, 1):
            result = run(workload, trace=trace)
            label = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{label}: clean run reported failures: {result}")
            if result["attempted"] < 1:
                fail(f"{label}: nothing attempted")
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if printed != expected[trace]:
                fail(f"{label}: metrics {printed} != BENCHMARK.json "
                     f"{expected[trace]}")
            print(f"ok  {label}: {result['attempted']} operations")
        result = run(workload, trace=0, corrupt=True)
        if result["correct"] or result["failed"] < 1:
            fail(f"{workload}: corrupted result not counted as failed: "
                 f"{result}")
        print(f"ok  {workload} --corrupt: {result['failed']} of "
              f"{result['attempted']} operations failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
