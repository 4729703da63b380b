"""One benchmark process: set up a workload, run its ops, check every output.

Started by run.py with the package's source tree on PYTHONPATH. It prints
one JSON object as its last line of output. `--setup-only` stops after
the set-up (imports, inputs, one checked warm-up op), which is how run.py
takes several set-up samples per run.

Untraced mode (`--trace 0`) times ops for `--seconds` and reports
end-to-end figures. Traced mode times untraced ops for half the time,
then the same ops (same seeds) traced, and compares their outputs; on
particle workloads it adds traced ops at two workers and one op under
tracemalloc.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import modesmc
import numpy
import scipy

import tracer
import workloads

MIN_OPS = 4  # ops per timed phase, whatever the clock says


def _p50(xs):
    xs = [x for x in xs if not math.isnan(x)]
    return statistics.median(xs) if xs else math.nan


class Ops:
    """Runs ops of one workload and tallies their checks."""

    def __init__(self, wl, seed, log, fingerprints=False):
        self.wl, self.seed, self.log = wl, seed, log
        self.fingerprints = fingerprints
        self.attempted = 0
        self.failures = []
        self.errors = {}  # op index -> (log_z error, tracking error)

    def run(self, i, workers=1, timed=None):
        """Run op i: untimed input prep, timed call, untimed check.

        `timed(call, *args)` returns (output, seconds) and defaults to the
        wall clock. Returns (result, seconds): the result is None when the
        op failed, else the output's fingerprints if `self.fingerprints`,
        else True.
        """
        inputs = self.wl.prepare(workloads.op_seed(self.seed, i))
        self.attempted += 1
        try:
            if timed is None:
                start = time.perf_counter()
                out = self.wl.call(inputs, workers)
                seconds = time.perf_counter() - start
            else:
                out, seconds = timed(self.wl.call, inputs, workers)
            failures = self.wl.check(out)
        except Exception as exc:  # an op that raises is a failed op
            out, seconds = None, math.nan
            failures = [f"raised {type(exc).__name__}: {exc}"]
        if failures:
            self.failures.append(f"op {i} (workers={workers}): {failures[:3]}")
            self.log(self.failures[-1])
            return None, math.nan
        if timed is None and workers == 1 and i < workloads.ACCURACY_OPS:
            self.errors[i] = self.wl.errors(out)
        if not self.fingerprints:
            return True, seconds
        return workloads.fingerprint(out[0]), seconds

    def absorb(self, other):
        self.attempted += other.attempted
        self.failures += other.failures

    def accuracy(self):
        errors = list(self.errors.values())
        if not errors:
            return {}
        return {
            "log_z_rmse": math.sqrt(statistics.fmean(dz * dz for dz, _ in errors)),
            "tracking_err.mean": statistics.fmean(track for _, track in errors),
            "accuracy_runs": len(errors),
        }


def timed_phase(ops, seconds=0.0, count=None, **kwargs):
    """Ops 1, 2, ...: `count` of them, or MIN_OPS and more until `seconds` pass."""
    times, prints = [], []
    end = time.perf_counter() + seconds
    while len(times) < (count or MIN_OPS) or (
        count is None and time.perf_counter() < end
    ):
        p, s = ops.run(len(times) + 1, **kwargs)
        prints.append(p)
        times.append(s)
    return times, prints


def untraced(ops, seconds):
    times, _ = timed_phase(ops, seconds)
    p50 = _p50(times)
    return {
        "run_s.p50": p50,
        "moves_per_s": ops.wl.moves_per_op / p50,
        "op_seconds": times,
    }


def traced_phase(ops, count, workers=1):
    """`count` ops with spans; returns (tracer, op seconds, fingerprints)."""
    tr = tracer.Tracer()
    with tr:
        traced_ops = Ops(tr.workload(ops.wl), ops.seed, ops.log, fingerprints=True)
        times, prints = timed_phase(
            traced_ops, count=count, workers=workers, timed=tr.root
        )
    ops.absorb(traced_ops)
    return tr, times, prints


def traced(ops, seconds):
    """Per-layer figures per op, from ops traced after the same ops untraced."""
    ops.fingerprints = True
    plain_times, plain_prints = timed_phase(ops, seconds / 2.0)
    n = len(plain_times)
    tr, times, prints = traced_phase(ops, n)
    if prints != plain_prints:
        ops.failures.append("traced outputs differ from untraced outputs")
    totals = tr.totals()
    self_sum = sum(row["self_s"] for row in totals.values())
    if not math.isclose(self_sum, totals[tracer.ROOT]["busy_s"], rel_tol=1e-9):
        ops.failures.append("span self times do not sum to the traced op time")
    layers = {
        name: {key: value / n for key, value in row.items()}
        for name, row in sorted(totals.items())
    }

    metrics = {
        f"{name}.{key}": layers.get(name, {}).get(key, 0.0)
        for name, keys in LAYER_SPANS.items()
        for key in keys
    }
    metrics["engine.self_s"] = metrics.pop("engine.run.self_s")
    for key in (
        "families.log_q.rows",
        "families.classify.rows",
        "cli.write_diagnostics_csv.bytes",
    ):
        metrics[key] = tr.counts[key] / n
    mutated = tr.counts["kernels.mutate.rows"]
    metrics["kernels.mutate.moved_frac"] = (
        tr.counts["kernels.mutate.moved"] / mutated if mutated else 0.0
    )
    metrics["trace.op_s.p50"] = _p50(times)
    metrics["trace.overhead_s"] = _p50(times) - _p50(plain_times)
    metrics["kernels.mutate.thread_speedup"] = 0.0
    metrics["kernels.mutate.peak_alloc_mib"] = 0.0
    if metrics["kernels.mutate.calls"]:
        k = min(n, 2)
        tr2, _, prints2 = traced_phase(ops, k, workers=2)
        if prints2 != plain_prints[:k]:
            ops.failures.append("outputs at two workers differ from one worker")
        busy2 = tr2.totals()["kernels.mutate"]["busy_s"] / k
        metrics["kernels.mutate.thread_speedup"] = (
            metrics["kernels.mutate.busy_s"] / busy2
        )
        (prints1, _), peak = tracer.mutate_peak_alloc_mib(ops.run, 1)
        if prints1 != plain_prints[0]:
            ops.failures.append("output under tracemalloc differs")
        metrics["kernels.mutate.peak_alloc_mib"] = peak
    return metrics, layers, tr


# span name -> the per-op figures reported for it
LAYER_SPANS = {
    "engine.run": ("busy_s", "self_s", "calls"),
    "families.log_q": ("busy_s", "calls"),
    "families.classify": ("busy_s", "calls"),
    "families.sample_initial": ("busy_s",),
    "kernels.mutate": ("busy_s", "self_s", "calls"),
    "kernels.mutate_counts": ("busy_s", "calls"),
    "rng.stream": ("busy_s", "calls"),
    "cli.run_smc_from_config": ("busy_s",),
    "cli.build_problem": ("busy_s",),
    "cli.write_diagnostics_csv": ("busy_s",),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=tuple(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--t0", type=float, required=True, help="epoch time this process was started"
    )
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    wl = workloads.build(args.workload, args.tiny, args.work_dir)
    ops = Ops(wl, args.seed, log)
    ops.run(0)  # warm-up, checked
    setup_s = time.time() - args.t0
    result = {
        "setup_s": setup_s,
        "package": modesmc.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "shape": wl.shape(),
    }
    if not args.setup_only:
        if args.trace:
            metrics, layers, tr = traced(ops, args.seconds)
            result["per_layer"] = metrics
            result["spans_per_op"] = layers
            if args.spans is not None:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                fields = ["name", "start", "end", "parent", "op"]
                args.spans.write_text(json.dumps({"fields": fields, "spans": tr.spans}))
        else:
            result.update(untraced(ops, args.seconds))
        result.update(ops.accuracy())
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = ops.attempted
    result["failures"] = ops.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
