"""Benchmark runner for grzlab: one workload, one seed, a fixed time.

    python3 perfbench/run.py --workload rules-many --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The runner is one process with no
threads.  It starts fresh interpreters one after another (a closed loop
with one client), each of which imports grzlab from ``src``, builds the
seeded inputs, runs one body of the workload and checks the answers
(child.py).  It keeps starting them until ``--seconds`` would be exceeded,
with at least three per run.

Every time is scaled to a nominal machine speed, measured by reference
slices taken all through the body (see child.py); the record line keeps
the raw body and set-up times.  Each figure pools the whole run: ``wall_s``,
``setup_s`` and ``peak_rss_mb`` are medians over processes.  All
processes of a run make the same calls, so each call's time is its median
across processes, and ``op_p50_ms`` and ``op_p99_ms`` are the 50th and
99th percentiles of those over calls.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it alternates traced and untraced processes and prints the per-layer
metrics of the traced ones, plus ``trace.overhead_s``, the median of the
traced minus the untraced body time of neighbouring processes.  The work
counts of every process of a run must agree exactly, since they all use
the same seed.

The last line of standard output is the result object.  The line before
it is a record of the machine and inputs.  A wrong answer, a failed
process or a count mismatch exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enum-cold", "rules-many", "scan-large", "bridge-membership")
MIN_PROCESSES = 3
DEADLINE_S = 170.0
# Keep numpy's BLAS pools at one thread: the load is one client on 2 CPUs.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def run_child(args, traced: bool, budget: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
    ]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {args.workload} process ran past {budget:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(proc.stderr.strip() or f"child exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["ready"] - launch
    out["setup_s"] = out["raw_setup_s"] * out["setup_scale"]
    out["traced"] = traced
    out["elapsed_s"] = time.monotonic() - launch
    return out


def run_processes(args) -> list[dict]:
    start = time.monotonic()
    kids: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        if len(kids) >= MIN_PROCESSES and elapsed + kids[-1]["elapsed_s"] > args.seconds:
            return kids
        traced = bool(args.trace) and len(kids) % 2 == 0
        kids.append(run_child(args, traced, max(DEADLINE_S - elapsed, 1.0)))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def summarize(args, kids: list[dict]) -> tuple[dict, dict]:
    counts = kids[0]["counts"]
    for kid in kids[1:]:
        if kid["counts"] != counts:
            raise BenchError(f"work counts differ between processes of one seed: {counts} vs {kid['counts']}")
    plain = [k for k in kids if not k["traced"]]
    traced = [k for k in kids if k["traced"]]
    med = statistics.median
    if args.trace:
        metrics = {
            name: med(k["layers"][name] for k in traced) for name in traced[0]["layers"]
        }
        metrics["setup.import_s"] = med(k["import_s"] for k in kids)
        metrics["setup.inputs_s"] = med(k["inputs_s"] for k in kids)
        # Processes alternate traced, untraced: compare neighbours in time,
        # so that drift in machine speed cancels.
        metrics["trace.overhead_s"] = med(
            t["wall_s"] - u["wall_s"] for t, u in zip(kids[::2], kids[1::2])
        )
        units = {n: unit_of(n) for n in metrics}
    else:
        # Every process makes the same calls in the same order.
        per_call = [med(times) for times in zip(*(k["op_ms"] for k in plain))]
        metrics = {
            "setup_s": med(k["setup_s"] for k in plain),
            "wall_s": med(k["wall_s"] for k in plain),
            "op_p50_ms": quantile(per_call, 50),
            "op_p99_ms": quantile(per_call, 99),
            "peak_rss_mb": med(k["peak_rss_mb"] for k in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "processes": len(kids),
        "traced_processes": len(traced),
        "wall_s_each": [round(k["wall_s"], 4) for k in kids],
        "raw_wall_s_each": [round(k["raw_wall_s"], 4) for k in kids],
        "setup_s_each": [round(k["setup_s"], 4) for k in kids],
        "raw_setup_s_each": [round(k["raw_setup_s"], 4) for k in kids],
        "slice_ms_median": statistics.median(ms for k in kids for ms in k["slice_ms"]),
        "op_samples": sum(len(k["op_ms"]) for k in (traced if args.trace else plain)),
        "counts_per_body": counts,
        "failed_frac": counts["failed"] / counts["attempted"],
        "absent": [n for n in KERNEL_METRICS if n not in metrics] if args.trace else [],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": kids[0]["numpy"],
        "numba": "present" if kids[0]["grzlab_backend"] == "numba" else "absent",
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }
    result = {
        "correct": True,
        "attempted": sum(k["counts"]["attempted"] for k in kids),
        "failed": sum(k["counts"]["failed"] for k in kids),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return record, result


KERNEL_METRICS = ("kernels.calls", "kernels.busy_s", "kernels.share_of_ulogic")
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_s": "s",
    "ulogic.us_per_call": "us",
    "kernels.share_of_ulogic": "frac",
}


def unit_of(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced input sizes, for the benchmark's own test")
    args = ap.parse_args()
    try:
        kids = run_processes(args)
        record, result = summarize(args, kids)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
