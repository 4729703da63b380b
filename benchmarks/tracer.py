"""In-memory spans around calls into the package's layers.

The engine and the CLI bind some callables by name at import time, so each
wrapper replaces the attribute where the caller looks it up
(``modesmc.engine.stage_kernel``, ``modesmc.cli.run``, ...). Family and
partition callables are wrapped in copies of the inputs the benchmark
builds. Only calls made on the installing thread are recorded; calls from
kernel worker threads pass through untraced, so a span's children never
overlap one another.

A span is ``(name, start, end, parent index, op id)``. A layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

import modesmc
import modesmc.cli
import modesmc.engine
import modesmc.rng

ROOT = "bench.op"


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 1


class Tracer:
    """Records spans and counts while installed (a context manager)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._thread = None
        self._undo = []

    def wrap(self, name, fn, count=None):
        """`fn` recording a `name` span; `count(args, result)` adds counts."""

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(args, out)
            return out

        return traced

    def count_rows(self, name):
        def count(args, out):
            self.counts[f"{name}.rows"] += _rows(args[0])

        return count

    def _count_moved(self, args, out):
        before = np.asarray(args[0])
        moved = out != before
        if moved.ndim > 1:
            moved = moved.any(axis=tuple(range(1, moved.ndim)))
        self.counts["kernels.mutate.moved"] += int(moved.sum())
        self.counts["kernels.mutate.rows"] += moved.shape[0]

    def _count_bytes(self, args, out):
        self.counts["cli.write_diagnostics_csv.bytes"] += args[0].stat().st_size

    def problem(self, family, partition):
        """Copies of a family and partition whose callables record spans."""
        log_q, classify = "families.log_q", "families.classify"
        family = dataclasses.replace(
            family,
            log_q=self.wrap(log_q, family.log_q, self.count_rows(log_q)),
            sample_initial=self.wrap("families.sample_initial", family.sample_initial),
        )
        partition = dataclasses.replace(
            partition,
            classify=self.wrap(classify, partition.classify, self.count_rows(classify)),
        )
        return family, partition

    def workload(self, wl):
        """A copy of a workload whose problem callables record spans."""
        if wl.family is None:
            return wl
        family, partition = self.problem(wl.family, wl.partition)
        return dataclasses.replace(wl, family=family, partition=partition)

    def _stage_kernel(self, orig):
        def stage_kernel(*args, **kwargs):
            base = orig(*args, **kwargs)
            if hasattr(base, "mutate"):
                base.mutate = self.wrap(
                    "kernels.mutate", base.mutate, self._count_moved
                )
            if hasattr(base, "mutate_counts"):
                base.mutate_counts = self.wrap(
                    "kernels.mutate_counts", base.mutate_counts
                )
            return base

        return stage_kernel

    def _build_problem(self, orig):
        def build_problem(cfg):
            family, partition, truth = orig(cfg)
            return (*self.problem(family, partition), truth)

        return self.wrap("cli.build_problem", build_problem)

    def __enter__(self):
        self._thread = threading.get_ident()
        cli, engine = modesmc.cli, modesmc.engine
        engine_run = self.wrap("engine.run", engine.run)
        patches = [
            (modesmc, "run", engine_run),
            (cli, "run", engine_run),
            (engine, "stage_kernel", self._stage_kernel(engine.stage_kernel)),
            (modesmc.rng, "stream", self.wrap("rng.stream", modesmc.rng.stream)),
            (cli, "build_problem", self._build_problem(cli.build_problem)),
            (
                cli,
                "write_diagnostics_csv",
                self.wrap(
                    "cli.write_diagnostics_csv",
                    cli.write_diagnostics_csv,
                    self._count_bytes,
                ),
            ),
            (
                cli,
                "run_smc_from_config",
                self.wrap("cli.run_smc_from_config", cli.run_smc_from_config),
            ),
        ]
        for module, attr, fn in patches:
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)
        return False

    def root(self, fn, *args, **kwargs):
        """Run one op under a root span; returns (result, seconds)."""
        self.op += 1
        start = time.perf_counter()
        out = self.wrap(ROOT, fn)(*args, **kwargs)
        return out, time.perf_counter() - start

    def totals(self):
        """Per span name: calls, busy seconds and self seconds."""
        children = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - covered
        return out


def mutate_peak_alloc_mib(call, *args, **kwargs):
    """Run `call`; return (its result, the largest tracemalloc peak in MiB
    inside one kernel mutate call)."""
    orig = modesmc.engine.stage_kernel
    peaks = [0]

    def stage_kernel(*a, **k):
        base = orig(*a, **k)
        inner = getattr(base, "mutate", None)
        if inner is not None:

            def mutate(*a2, **k2):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = inner(*a2, **k2)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                return out

            base.mutate = mutate
        return base

    modesmc.engine.stage_kernel = stage_kernel
    tracemalloc.start()
    try:
        out = call(*args, **kwargs)
    finally:
        tracemalloc.stop()
        modesmc.engine.stage_kernel = orig
    return out, max(peaks) / 2**20
