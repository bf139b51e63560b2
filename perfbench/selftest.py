"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the workloads and metrics the code emits.
2. A tiny run of every workload, untraced and traced, is correct and emits
   every metric of ``BENCHMARK.json`` with its unit.
3. A deliberately wrong expected payload (or reference row) fails the
   correctness check of every workload that reads data back.
4. In a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, the command exits with a non-zero status and prints no result.

Exits with status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.WORK, "selftest")


def check_manifest(failures: List[str]) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != metrics.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [(n, u, b) for n, u, b, _ in metrics.PER_LAYER]:
        failures.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return spec


def check_tiny_runs(spec: dict, failures: List[str]) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure(name, 1, 0.1, trace, sizes=workloads.TINY)
            emitted = result["metrics"]
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: {result['problems']}")
            for metric in spec[key]:
                value = emitted.get(metric["name"])
                if value is None or value["unit"] != metric["unit"]:
                    failures.append(f"{name} trace={trace}: {metric['name']} missing or mis-unit")
                elif not math.isfinite(value["value"]) or (trace == 0 and value["value"] <= 0):
                    failures.append(f"{name} trace={trace}: {metric['name']} = {value['value']}")
            if set(emitted) != {metric["name"] for metric in spec[key]}:
                failures.append(f"{name} trace={trace}: emits metrics BENCHMARK.json lacks")
            print(f"tiny {name} trace={trace}: {len(emitted)} metrics, correct={result['correct']}")


def one_repetition(workload: workloads.Workload) -> List[str]:
    phase = workloads.Phase(None)
    phase.begin_rep()
    workload.repetition(phase)
    phase.end_rep(workload.latency_kinds)
    return phase.problems


def check_wrong_expectations(failures: List[str]) -> None:
    os.makedirs(SCRATCH, exist_ok=True)
    tiny = workloads.TINY

    disaster = workloads.SiteDisaster(1, os.path.join(SCRATCH, "disaster"), tiny)
    os.makedirs(disaster.work_dir)
    disaster.build()
    true_payloads = disaster.payloads

    def wrong(index: int) -> bytes:
        data = bytearray(true_payloads(index))
        if index == 3:
            data[100] ^= 0xFF
        return bytes(data)

    disaster.payloads = wrong  # type: ignore[assignment]
    if not any("wrong bytes" in p for p in one_repetition(disaster)):
        failures.append("site-disaster accepted a wrong expected payload")

    serve = workloads.Serve(1, os.path.join(SCRATCH, "serve"), tiny)
    os.makedirs(serve.work_dir)
    serve.build()
    serve.resident = [bytes(4096) if i == 0 else d for i, d in enumerate(serve.resident)]
    if not any("wrong bytes" in p for p in one_repetition(serve)):
        failures.append("serve accepted a wrong expected payload")

    reference = os.path.join(SCRATCH, "simulate.json")
    with open(workloads.REFERENCE_FILE, encoding="utf-8") as handle:
        rows = json.load(handle)
    rows["rows"][2]["data_loss"] += 1
    with open(reference, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)
    saved = workloads.REFERENCE_FILE
    workloads.REFERENCE_FILE = reference
    try:
        simulate = workloads.Simulate(1, SCRATCH, tiny)
        simulate.build()
    finally:
        workloads.REFERENCE_FILE = saved
    if not any("reference" in p for p in one_repetition(simulate)):
        failures.append("simulate accepted a wrong reference row")
    print("wrong expectations: checked site-disaster, serve, simulate")


def check_without_program(failures: List[str]) -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("the bare benchmark directory did not fail cleanly")
    print(f"bare directory: exit status {proc.returncode}")


def main() -> int:
    failures: List[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        spec = check_manifest(failures)
        check_tiny_runs(spec, failures)
        check_wrong_expectations(failures)
        check_without_program(failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
