"""End-to-end benchmark of the archive: ingest, site-disaster, serve, simulate.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, scaled to
the reference host speed (``hostspeed.py``).
``--trace 1`` measures the workload untraced first, then again with spans
around every layer's public calls, and reports the per-layer metrics (and
the tracing overhead as the ratio of the two).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Earlier lines stamp the host and print every named metric of
the workload with its unit and sample count; the full result is also
written under ``perfbench/_work/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: Share of a traced run's measuring time spent on the untraced pass that
#: the overhead ratio is taken against.
UNTRACED_SHARE = 0.4


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over every source file of the program, in path order."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    """The commit of the checkout, or ``None`` when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # do not let git search the directories above the checkout
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return None
    return top[1]


def pin_to_one_cpu() -> Optional[int]:
    """Run the whole benchmark, all its threads included, on one CPU.

    On a small virtual machine a thread handing a request to a thread on
    another CPU waits for that CPU to wake up, and for the hypervisor to
    run it; that wait, not the program, set the serve workload's latency
    and swung it by half from run to run.  Returns the CPU, or ``None``
    where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_stamp(cpu: Optional[int]) -> Dict[str, object]:
    import numpy

    from workloads import BACKEND, FSYNC

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "backend": BACKEND,
        "wal": True,
        "flush_policy": f"fsync={FSYNC}",
    }


def run_phase(workload: object, seconds: float, tracer: object) -> object:
    """Repetitions of ``workload`` for about ``seconds`` (at least one).

    A repetition starts only if half a mean repetition still fits in the
    measuring time, so a run ends within half a repetition of ``seconds``.
    """
    from workloads import Phase

    phase = Phase(tracer)  # type: ignore[arg-type]
    start = time.perf_counter()
    while True:
        phase.begin_rep()
        workload.repetition(phase)  # type: ignore[attr-defined]
        phase.end_rep(workload.latency_kinds)  # type: ignore[attr-defined]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / phase.reps / 2 > seconds:
            return phase


def measure(name: str, seed: int, seconds: float, trace: int, sizes: object = None) -> Dict[str, object]:
    """Run one workload and return its full result (see ``main``)."""
    from metrics import END_TO_END, MAX_UNCOVERED_SHARE, LayerContext, layer_metrics
    from tracing import SpanSummary, Tracer
    from workloads import WORKLOADS, Sizes

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    out_dir = os.path.join(WORK, "out")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, run_dir, sizes or Sizes())
    try:
        workload.build()
        if not trace:
            phase = run_phase(workload, seconds, None)
            phases = [phase]
            metrics = {
                metric: (workload.end_to_end(phase)[metric], unit)
                for metric, unit, _ in END_TO_END
            }
        else:
            untraced = run_phase(workload, seconds * UNTRACED_SHARE, None)
            tracer = Tracer()
            tracer.install()
            try:
                phase = run_phase(workload, seconds * (1 - UNTRACED_SHARE), tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, phase]
            traced_rate = workload.ops_s(phase)
            overhead = workload.ops_s(untraced) / traced_rate if traced_rate else 0.0
            context = LayerContext(SpanSummary(tracer), tracer.amounts(), phase, overhead)
            metrics = layer_metrics(context)
            tracer.write(os.path.join(out_dir, f"{name}.spans.npz"))
            uncovered = metrics["trace.uncovered_share"][0]
            if workload.storage and uncovered > MAX_UNCOVERED_SHARE:
                phase.problems.append(
                    f"spans cover only {1 - uncovered:.1%} of the timed wall time"
                )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems: List[str] = [p for ph in phases for p in ph.problems]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "repetitions": [ph.reps for ph in phases],
        "repetition_rates": [ph.rep_rates for ph in phases],
        "setups_s": [ph.setups for ph in phases],
        "named": [
            {"name": n, "value": v, "unit": u, "samples": s}
            for n, v, u, s in workload.host_named(phases[0]) + workload.named(phases[0])
        ],
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: no program sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    stamp = host_stamp(pin_to_one_cpu())
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    result["stamp"] = stamp
    for item in result["named"]:  # type: ignore[attr-defined]
        print(
            f"{args.workload} {item['name']} = {item['value']:.6g} {item['unit']} "
            f"(n={item['samples']})"
        )
    attempted, failed = int(result["attempted"]), int(result["failed"])  # type: ignore[arg-type]
    print(f"{args.workload} fail_ratio = {failed / attempted if attempted else 0.0:.6g} "
          f"(failed {failed} of {attempted})")
    path = os.path.join(
        WORK, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    for problem in result["problems"]:  # type: ignore[attr-defined]
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = bool(result["correct"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"] if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
