"""Benchmark of the modesmc sampler on a fixed workload matrix.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each op is checked against an exact reference, and the
last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. The lines before it give the same figures with their
units, the failed fraction, accuracy and provenance. A full record is
written to ``benchmarks/out/``.

Set-up time is the median over SETUP_SAMPLES fresh processes, each timed
from its start through ``import modesmc``, building the inputs and one
checked warm-up op. The last of them goes on to time ops on one thread
(``workers=1``) for ``--seconds``. Exit status: 0 when every check passed,
1 when a check failed or a process broke, 2 when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def loadavg_1min() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_start": loadavg_1min(),
    }


def spawn(args, deadline, extra):
    """Run one worker process to completion; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(args.work_dir),
        *(["--tiny"] if args.tiny else []),
        *extra,
    ]
    t0 = time.time()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: worker timed out: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker exited {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if Path(result["package"]).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: imported {result['package']}, not this checkout")
    return result


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    if not (SRC / "modesmc" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        print("benchmark: --seed must be in [0, 2**40)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    prov = provenance()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.work_dir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT / f"spans-{tag}.json"
            results = [spawn(args, deadline, ["--spans", str(spans)])]
        else:
            probes = SETUP_SAMPLES - 1
            results = [spawn(args, deadline, ["--setup-only"]) for _ in range(probes)]
            results.append(spawn(args, deadline, []))
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    prov["loadavg_1min_end"] = loadavg_1min()
    main_run = results[-1]
    prov.update(main_run["versions"])

    figures = dict(main_run.get("per_layer", {}))
    for k in ("run_s.p50", "moves_per_s", "peak_rss_mib"):
        if k in main_run:
            figures[k] = main_run[k]
    setup = [r["setup_s"] for r in results]
    figures["setup_s"] = statistics.median(setup)
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    metrics = {}
    for m in wanted:
        value = figures.get(m["name"], math.nan)
        if not math.isfinite(value):
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    shape = main_run["shape"]
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds}  trace {args.trace}"
    )
    print("provenance " + "  ".join(f"{k}={fmt(v)}" for k, v in prov.items()))
    print("shape " + "  ".join(f"{k}={v}" for k, v in shape.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
    if "op_seconds" in main_run:
        print(
            f"  run_s.p50 over {len(main_run['op_seconds'])} ops; moves_per_s base "
            f"N*t*V = {shape['moves_per_op']} moves per op"
        )
    if "spans_per_op" in main_run:
        spans = main_run["spans_per_op"]
        print(f"  {'span, per op':34s} {'calls':>10s} {'busy_s':>12s} {'self_s':>12s}")
        for name, row in spans.items():
            calls, busy, own = (fmt(row[k]) for k in ("calls", "busy_s", "self_s"))
            print(f"  {name:34s} {calls:>10s} {busy:>12s} {own:>12s}")
        own = sum(r["self_s"] for r in spans.values())
        print(
            f"  self times sum to {fmt(own)} s per op;"
            f" traced op time {fmt(spans['bench.op']['busy_s'])} s"
        )
    print(f"  setup_s samples {' '.join(fmt(s) for s in setup)} s")
    print(f"  failed_frac {len(failures)}/{attempted} ops")
    if "log_z_rmse" in main_run:
        print(
            f"  log_z_rmse {fmt(main_run['log_z_rmse'])} nats  tracking_err.mean "
            f"{fmt(main_run['tracking_err.mean'])} "
            f"over {main_run['accuracy_runs']} runs"
        )
    for f in failures:
        print(f"  FAILED {f}")

    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "failures": failures,
        "line": line,
        "processes": results,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
