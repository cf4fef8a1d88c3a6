#!/usr/bin/env python3
"""gridflow benchmark: one workload per invocation, or every workload.

    python3 perfbench/run.py --workload study-scaled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload store-churn --trace 1     # per-layer run
    python3 perfbench/run.py --all                                # every workload, both runs
    python3 perfbench/run.py --all --smoke                        # tiny sizes, checks names

Run it from the repository root (it builds nothing: gridflow is imported from
src/). Lines before the last describe the environment and each metric; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics and `--trace 1` the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_PROBE_S

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("study-scaled", "store-churn", "verify-stress")
REQUIRED = ("src/gridflow/__init__.py", "corpus/sound/case_study.flow", "BENCHMARK.json")
SETUP_REPEATS = 3
# a run never starts a step it expects to end after this many seconds
HARD_LIMIT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("submit_s", "s"),
    ("submit_p90_s", "s"),
    ("report_s", "s"),
    ("resume_s", "s"),
    ("runs_per_s", "1/s"),
    ("verify_s", "s"),
    ("store_bytes_per_run", "B"),
    ("peak_rss_mb", "MB"),
)


def _import_gridflow() -> float:
    """Import the package from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import gridflow.cli  # noqa: F401 - pulls in every layer, numpy and networkx

    seconds = perf_counter() - t0
    import gridflow

    if Path(gridflow.__file__).resolve().parent != (src / "gridflow").resolve():
        raise SystemExit(f"error: imported gridflow from {gridflow.__file__}, not {src}")
    return seconds


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import networkx
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "store_fsync": False,
        "disk_note": "the store never calls fsync: disk timings measure the page cache, not a device",
    }


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def drive(workload, bench, seconds: float, steps=None):
    """Run `steps` once, or else repeat the workload's block for `seconds`.

    The block always runs whole at least once; after that a step starts only
    if it is expected, from the last step of its kind, to end in time.
    """
    t_start = perf_counter()
    last: dict[str, float] = {}
    i = 0
    while True:
        if steps is not None:
            if i == len(steps):
                return
            kind = steps[i]
        else:
            kind = workload.block[i % len(workload.block)]
            if i >= len(workload.block):
                elapsed = perf_counter() - t_start
                expected_end = elapsed + last.get(kind, max(last.values()))
                if expected_end > seconds or expected_end > HARD_LIMIT_S:
                    return
        t0 = perf_counter()
        workload.step(bench, kind)
        last[kind] = perf_counter() - t0
        i += 1


def end_to_end_metrics(bench, s: dict, setup_s: float) -> dict:
    """Every end-to-end metric from one set of timing samples (`s`)."""
    cycle_time = sum(s["cycle"])
    values = {
        "setup_s": setup_s,
        "submit_s": _median(s["submit"]),
        "submit_p90_s": p90(s["submit"]) if s["submit"] else 0.0,
        "report_s": _median(s["report"]),
        "resume_s": _median(s["resume"]),
        "runs_per_s": bench.runs_completed / cycle_time if cycle_time else 0.0,
        "verify_s": _median(s["verify"]),
        "store_bytes_per_run": bench.store_bytes / bench.runs_completed if bench.runs_completed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    import_s = _import_gridflow()
    import tracing
    import workloads

    env = environment(name, seed)
    print("env " + json.dumps(env, sort_keys=True))
    expected = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    bench = workloads.Bench(work, tracer)
    workload = workloads.WORKLOADS[name](ROOT, seed, smoke)
    try:
        setups = [bench.timed(workload.setup, bench, work / f"setup-{i}")[1:]
                  for i in range(SETUP_REPEATS)]
        bench.reset_samples()
        if not trace:
            drive(workload, bench, seconds)
            # the import runs once and spans many speed changes, so it is
            # scaled by the run's mean probe rather than by its neighbours
            setup_s = (import_s * REFERENCE_PROBE_S / statistics.fmean(bench.probes)
                       + statistics.median(norm for _, norm in setups))
            setup_wall = import_s + statistics.median(wall for wall, _ in setups)
            metrics = end_to_end_metrics(bench, bench.samples, setup_s)
            raw = end_to_end_metrics(bench, bench.raw, setup_wall)
            print(f"core probe: mean {statistics.fmean(bench.probes) * 1e3:.4f} ms, "
                  f"median {statistics.median(bench.probes) * 1e3:.4f} ms "
                  f"over {len(bench.probes)} probes")
            for metric, m in raw.items():
                print(f"{name:14s} wall-clock {metric:25s} {m['value']:.6g} {m['unit']}")
        else:
            # the same block untraced, then traced: counts cover exactly one
            # block, and the submit medians give the tracing overhead
            drive(workload, bench, seconds, steps=workload.block)
            untraced_submit = _median(bench.samples["submit"])
            bench.reset_samples()
            tracing.install(tracer)
            tracer.active = True
            drive(workload, bench, seconds, steps=workload.block)
            tracer.active = False
            metrics = tracing.per_layer_metrics(
                tracer.spans, bench.blob_bytes, bench.manifest_bytes,
                _median(bench.samples["submit"]), untraced_submit,
            )
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.dump(traces / f"{name}-seed{seed}.jsonl", {"env": env, "metrics": metrics})
        workload.finish(bench, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = min(len(bench.failures), bench.attempted)
    for message in bench.failures:
        print(f"FAILED {message}", file=sys.stderr)
    for metric, m in metrics.items():
        print(f"{name:14s} {metric:36s} {m['value']:.6g} {m['unit']}")
    print(f"{name:14s} {'failed_op_frac':36s} {failed / max(bench.attempted, 1):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} --trace {trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            if sorted(result["metrics"]) != sorted(names[trace]):
                print(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
                ok = False
            if not result["correct"] or proc.returncode != 0:
                print(f"{workload} --trace {trace}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                ok = False
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridflow benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: a fast check of names and outputs, not a measurement")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a gridflow checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0  # one block of each workload
    if args.all:
        return run_all(args.seed, args.seconds, args.smoke)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
