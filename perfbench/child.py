"""One cold process: import grzlab, build the inputs, run one body, check it.

Started by run.py with ``PYTHONPATH=src``, so every enumeration cache starts
empty, as it does for a command-line user.  Prints one JSON object on its
last line of output; exits 1 with the reason on standard error when an
oracle rejects an answer.

The speed of a shared machine drifts by 10% and more over tens of seconds,
and runs of half a minute do not average that out.  So every
``REF_EVERY_S`` of the body, inside long calls too, the process times a
reference slice: fixed work that uses no grzlab code (see Clock).  The
slices are left out of every time reported, and each stretch of time
between two of them is scaled by ``REF_NOMINAL_S`` over the machine's
speed there, the median slice time of the nearby slices.  The times
reported are thus those of a machine on which the slice takes
``REF_NOMINAL_S``; set-up is scaled by the speed at the body's start.
The raw times are printed too.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import random
import re
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# Public kernels reached as module attributes, so wrapping them from here
# sees the calls that ulogic, finlat, modal and catalog make into them.
KERNELS = (
    "scan_heyting",
    "scan_modal",
    "perm_min_key",
    "topology_valid",
    "k_axiom_witness",
    "residuation_witness",
)
# Modules the benchmark calls directly; kernels is reached only through them.
LAYERS = ("catalog", "ulogic", "freealg", "bridge", "modal", "finlat")
# On a 2-CPU Xeon VM under Python 3.11 the timed part of a slice takes 3 to
# 6 ms, depending on what else the host runs; scaled times are of that order
# of raw ones there.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.05
SLICE_SOURCE = "def f(x, y):\n    return [a * b for a in range(x) if a % 3 for b in (y, x)]\n"
# The machine's speed at a slice is the median over this many slices on
# either side, so that one slice that an interrupt hit does not count.
REF_WINDOW = 2


class Clock:
    """Reference slices through the body, and body time scaled by them.

    A slice is fixed work that uses no grzlab code.  It runs through much
    interpreter and library code (parsing, fractions, json, regular
    expressions, sorting, small numpy tables), as grzlab's layers do, so
    that it slows down and speeds up with the machine as they do; a tight
    loop is hurt less by a busy neighbour and tracks them worse.  Only the
    part after a short warm-up is timed, so that the caches grzlab's code
    leaves behind barely change the slice's time.  ``start`` runs a slice
    and sets an interval timer that runs one every ``REF_EVERY_S``, inside
    long calls too (a call into numpy's C code delays it to the call's
    end); ``stop`` clears the timer and runs a last one.  The stretch
    between two slices is scaled by ``REF_NOMINAL_S`` over the machine's
    speed at its two ends.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        self.row = numpy.arange(64)
        # Each slice as (start, end of warm-up, end) on perf_counter.
        self.slices: list[tuple[float, float, float]] = []
        self.busy = False

    def work(self, reps: int):
        np, row = self.np, self.row
        for _ in range(reps):
            compile(ast.parse(SLICE_SOURCE), "<slice>", "exec")
            sum((Fraction(j, j + 1) for j in range(1, 25)), Fraction(0))
            json.loads(json.dumps({"a": [1, 2, {"b": "ccccc"}] * 10}))
            re.sub(r"(\w+)@(\w+)", r"\2 at \1", "user@example " * 20)
            sorted({str(j): j for j in range(200)}.items())
        for i in range(6 * reps):
            table = (row[:, None] & row[None, :]) == row[i]
            table.any()
            np.flatnonzero(table[i])

    def slice(self, *_):
        """Warm the caches with two rounds of the work, then time ten."""
        if self.busy:  # the timer fired during a slice that ran long
            return
        self.busy = True
        t0 = perf_counter()
        self.work(2)
        t1 = perf_counter()
        self.work(10)
        self.slices.append((t0, t1, perf_counter()))
        self.busy = False

    def start(self):
        self.slice()
        signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.slice()
        took = [b - a for _, a, b in self.slices]
        self.speed = [
            statistics.median(took[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1])
            for k in range(len(took))
        ]
        self.starts = [a for a, _, _ in self.slices]
        self.scale = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(self.speed, self.speed[1:])]
        self.cum = [0.0]
        self.raw_s = 0.0
        for (_, _, end), (begin, _, _), f in zip(self.slices, self.slices[1:], self.scale):
            self.cum.append(self.cum[-1] + (begin - end) * f)
            self.raw_s += begin - end

    def at(self, t: float) -> float:
        """Scaled time from the body's start to t, a moment outside slices."""
        k = bisect.bisect_right(self.starts, t)
        return self.cum[k - 1] + (t - self.slices[k - 1][2]) * self.scale[k - 1]

    def between(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)

    @property
    def wall_s(self) -> float:
        return self.cum[-1]

    @property
    def setup_scale(self) -> float:
        """Set-up ends just before the first slice: scale it by the speed there."""
        return REF_NOMINAL_S / self.speed[0]


class Probe:
    """Times every benchmark call into grzlab; with tracing on, keeps spans.

    The layer of a call is the grzlab module that defines the function.
    A span is [layer, start, end, parent index]; spans and call times stay
    in memory, as raw perf_counter moments, until the body ends.
    """

    def __init__(self, trace: bool, error_type):
        self.trace = trace
        self.error_type = error_type
        self.op_t: list[tuple[float, float]] = []
        self.calls: Counter = Counter()
        self.failed = 0
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, fn, *args, **kwargs):
        layer = fn.__module__.rpartition(".")[2]
        self.calls[layer] += 1
        t0 = perf_counter()
        try:
            if self.trace:
                return self._span(layer, fn, args, kwargs)
            return fn(*args, **kwargs)
        except self.error_type:
            self.failed += 1
            raise
        finally:
            self.op_t.append((t0, perf_counter()))

    def _span(self, layer, fn, args, kwargs):
        span = [layer, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def wrap_kernels(self, module) -> list[str]:
        """Route the module's kernel entry points through spans."""
        wrapped = []
        for name in KERNELS:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, self._kernel(fn))
                wrapped.append(name)
        return wrapped

    def _kernel(self, fn):
        def traced(*args, **kwargs):
            return self._span("kernels", fn, args, kwargs)

        return traced

    def layer_metrics(self, has_kernels: bool, between) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        kernels_under: dict[str, float] = defaultdict(float)
        kernel_calls = 0
        for layer, start, end, parent in self.spans:
            took = between(start, end)
            if parent < 0:
                busy[layer] += took
            if layer == "kernels":
                kernel_calls += 1
                busy_parent = self.spans[parent][0] if parent >= 0 else "kernels"
                kernels_under[busy_parent] += took
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
        u_busy = busy["ulogic"]
        out["ulogic.self_s"] = u_busy - kernels_under["ulogic"]
        out["ulogic.us_per_call"] = 1e6 * u_busy / self.calls["ulogic"] if self.calls["ulogic"] else 0.0
        if has_kernels:
            out["kernels.calls"] = kernel_calls
            out["kernels.busy_s"] = sum(kernels_under.values())
            out["kernels.share_of_ulogic"] = kernels_under["ulogic"] / u_busy if u_busy else 0.0
        return out


def rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import grzlab
    import grzlab.kernels

    import_s = perf_counter() - t0
    import numpy

    from oracle import OracleError
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    t1 = perf_counter()
    inputs = work.setup(random.Random(args.seed), args.quick)
    inputs_s = perf_counter() - t1
    ready = time.monotonic()

    probe = Probe(bool(args.trace), grzlab.GrzlabError)
    wrapped = probe.wrap_kernels(grzlab.kernels) if args.trace else []
    clock = Clock()
    clock.start()
    answers = work.body(probe, inputs)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = probe.layer_metrics(bool(wrapped), clock.between) if args.trace else {}

    try:
        counts = work.check(inputs, answers)
    except OracleError as exc:
        print(f"{args.workload}: wrong answer: {exc}", file=sys.stderr)
        return 1
    counts.update({f"{layer}.calls": probe.calls[layer] for layer in LAYERS})
    counts["attempted"] = len(probe.op_t)
    counts["failed"] = probe.failed

    if args.trace:
        layers["catalog.algebras"] = counts.get("catalog.algebras", 0)
        layers["catalog.algebras_per_s"] = rate(layers["catalog.algebras"], layers["catalog.busy_s"])
        layers["ulogic.assignments"] = counts.get("ulogic.assignments", 0)
        layers["ulogic.assignments_per_s"] = rate(layers["ulogic.assignments"], layers["ulogic.busy_s"])
        layers["freealg.elements"] = counts.get("freealg.elements", 0)
        layers["freealg.elements_per_s"] = rate(layers["freealg.elements"], layers["freealg.busy_s"])
        layers["bridge.holds"] = counts.get("bridge.holds", 0)
        layers["bridge.checks_per_s"] = rate(layers["bridge.calls"], layers["bridge.busy_s"])

    print(
        json.dumps(
            {
                "ready": ready,
                "setup_scale": clock.setup_scale,
                "import_s": import_s * clock.setup_scale,
                "inputs_s": inputs_s * clock.setup_scale,
                "wall_s": clock.wall_s,
                "raw_wall_s": clock.raw_s,
                "slice_ms": [1e3 * (b - a) for _, a, b in clock.slices],
                "peak_rss_mb": peak_rss_mb,
                "op_ms": [1e3 * clock.between(t0, t1) for t0, t1 in probe.op_t],
                "counts": counts,
                "layers": layers,
                "numpy": numpy.__version__,
                "grzlab_backend": grzlab.backend_name(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
