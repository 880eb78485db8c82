#!/usr/bin/env python3
"""Benchmark for eisq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, one thread, closed loop: the next
operation starts when the previous one has returned.  Operations go
through `eisq.cli.main([..., "--format", "json"])` with stdout captured,
or through the public library function where no subcommand exists.  Every
output is checked by checks.py.  Times are rescaled by the reference
kernel (refkernel.py).  Set-up (import, first inputs, warm-up) is done
SETUP_REPEATS times and its median reported.  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1 a
traced run reports the per-layer metrics instead (layertrace.py).  eisq is
imported from src/ of the checkout this file sits in; without it the run
exits 2.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
KERNEL_SHARE = 0.25  # kernel time after each operation, as a share of its wall time
OP_SHARE = 0.75  # rescaled operation time per second of run; the rest is kernel and checks
SETUP_KERNEL_S = 0.05
# rounds in a traced run: 5 to 10 s traced and under two million spans
TRACE_ROUNDS = {"selmer-oracle": 1, "selmer-wide": 8, "eisenstein-levels": 2}


def import_eisq() -> dict:
    """A fresh import of eisq from src/: every eisq module is dropped first."""
    for name in [m for m in sys.modules if m == "eisq" or m.startswith("eisq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("eisq")
    if Path(pkg.__file__).resolve().parent != (SRC / "eisq").resolve():
        raise ImportError(f"eisq was imported from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"eisq.{name}") for name in layertrace.LAYERS}


def call(mods: dict, op: workloads.Op):
    """Run one operation; returns (exit code, output).  Only this is timed."""
    if op.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mods["cli"].main(op.argv)
        return rc, buf.getvalue()
    args = op.prepared
    return 0, getattr(mods[op.module], op.func)(*args)


def check(op: workloads.Op, out) -> list:
    return op.check(json.loads(out) if op.argv is not None else out)


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.mods: dict = {}
        self.rounds = None
        self.pending: list = []
        self.errors: list = []
        self.failed = 0
        self.tracer = None

    def setup(self) -> float:
        """Import eisq, generate the first round of inputs and warm up."""
        t0 = time.perf_counter()
        self.mods = import_eisq()
        self.rounds = workloads.ROUNDS[self.workload](self.seed)
        self.pending = [next(self.rounds)]
        for argv in workloads.WARMUP[self.workload]:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.mods["cli"].main(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv} exited {rc}")
        return time.perf_counter() - t0

    def next_round(self):
        if self.pending:
            return self.pending.pop()
        return next(self.rounds, None)

    def run_op(self, op: workloads.Op) -> float:
        """Execute and check one operation; returns its wall time."""
        if op.make_args is not None:
            op.prepared = op.make_args(self.mods)
        t0 = time.perf_counter()
        try:
            rc, out = call(self.mods, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return wall
        wall = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(op.argv)}: exit {rc}")
            return wall
        if self.tracer is not None and op.argv is not None:
            self.tracer.counts["cli.output_bytes"] += len(out.encode())
        self.errors.extend(check(op, out))
        return wall

    def loop(self, seconds: float, rounds=None, kernel=True):
        """Whole rounds until the operations have taken OP_SHARE * seconds of
        rescaled time, or the given rounds.

        Counting rescaled time, not wall time, keeps the number of rounds,
        and so the mix of operations, independent of the machine's speed.
        Returns the rounds run, the wall times and the kernel samples."""
        walls, done = [], []
        kernels = [refkernel.window(SETUP_KERNEL_S)] if kernel else []
        budget, spent = OP_SHARE * seconds, 0.0
        source = iter(rounds) if rounds is not None else iter(self.next_round, None)
        for ops in source:
            for op in ops:
                walls.append(self.run_op(op))
                if kernel:
                    kernels.append(refkernel.window(KERNEL_SHARE * walls[-1]))
                    spent += walls[-1] * refkernel.NOMINAL_S / kernels[-1]
            done.append(ops)
            if rounds is None and spent >= budget:
                break
        return done, walls, kernels


def rescale(walls: list, kernels: list) -> list:
    """Each wall time times NOMINAL_S over the mean of the kernel windows
    just before and just after it (kernels[i] and kernels[i + 1])."""
    return [w * 2 * refkernel.NOMINAL_S / (kernels[i] + kernels[i + 1]) for i, w in enumerate(walls)]


def level_reuse(rounds: list) -> tuple[int, int]:
    """(operations at a level an earlier operation of the run used, operations)."""
    seen, reused, total = set(), 0, 0
    for ops in rounds:
        for op in ops:
            total += 1
            if op.level is not None:
                reused += op.level in seen
                seen.add(op.level)
    return reused, total


def band_mean(xs: list, lo: float, hi: float) -> float:
    """Mean of the sorted values ranked in [lo*n, hi*n).

    A workload mixes operations whose costs differ by orders of magnitude,
    so neighbouring order statistics can be far apart and a single one
    jumps from run to run; the mean of a band moves smoothly.  op_iqm_ms
    is the mean of the 25th-75th percentile band (the interquartile mean),
    op_p90_ms the mean of the 85th-95th."""
    s = sorted(xs)
    a = min(int(lo * len(s)), len(s) - 1)
    b = max(a + 1, int(hi * len(s)))
    return sum(s[a:b]) / (b - a)


def iqm(xs: list) -> float:
    return band_mean(xs, 0.25, 0.75)


def p90(xs: list) -> float:
    return band_mean(xs, 0.85, 0.95)


def info(text: str):
    print(f"# {text}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eisq" / "__init__.py").is_file():
        print(f"error: no eisq sources at {SRC}", file=sys.stderr)
        return 2
    kernel_before = refkernel.window(0.2)
    sys.path.insert(0, str(SRC))

    runner = Runner(args.workload, args.seed)
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        before = refkernel.window(SETUP_KERNEL_S)
        setup_walls.append(runner.setup())
        after = refkernel.window(SETUP_KERNEL_S)
        setups.append(setup_walls[-1] * 2 * refkernel.NOMINAL_S / (before + after))
    setup_s = statistics.median(setups)

    if args.trace:
        return traced(runner, args, kernel_before)

    rounds, walls, kernels = runner.loop(args.seconds)
    scaled = rescale(walls, kernels)
    kernel_during = statistics.median(kernels)
    attempted = len(walls)
    reused, total = level_reuse(rounds)
    info(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, "
        f"{runner.failed} failed, {len(runner.errors)} check errors"
    )
    info(
        f"kernel median {kernel_before * 1e3:.4f} ms before import, {kernel_during * 1e3:.4f} ms during "
        f"operations (ratio {kernel_during / kernel_before:.3f}; nominal {refkernel.NOMINAL_S * 1e3:.4f} ms)"
    )
    info(
        f"raw wall: ops_per_s {attempted / sum(walls):.4f}, op_iqm_ms {iqm(walls) * 1e3:.4f}, "
        f"op_p90_ms {p90(walls) * 1e3:.4f}, setup_s {statistics.median(setup_walls):.4f}"
    )
    info(f"operations at a level already used in this run: {reused} of {total}")
    for err in runner.errors[:10]:
        print(f"check: {err}", file=sys.stderr)
    metrics = {
        "ops_per_s": (attempted / sum(scaled), "1/s"),
        "op_iqm_ms": (iqm(scaled) * 1e3, "ms"),
        "op_p90_ms": (p90(scaled) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    emit(not runner.errors, attempted, runner.failed, metrics)
    return 0


def traced(runner: Runner, args, kernel_before: float) -> int:
    """A fixed number of whole rounds under the tracer, so that the counts
    repeat exactly for a seed, then the same rounds again untraced."""
    rounds = [runner.next_round() for _ in range(TRACE_ROUNDS[args.workload])]
    tracer = layertrace.Tracer()
    runner.tracer = tracer
    tracer.install(runner.mods)
    try:
        _, walls, kernels = runner.loop(0, rounds=rounds)
    finally:
        tracer.uninstall()
        runner.tracer = None
    attempted, failed = len(walls), runner.failed
    _, plain, plain_kernels = runner.loop(0, rounds=rounds)
    overhead = sum(rescale(walls, kernels)) / sum(rescale(plain, plain_kernels))
    metrics, root_time, total_self = tracer.summary()
    if abs(total_self - root_time) > 1e-6 * max(root_time, 1e-9):
        runner.errors.append(f"layer self times {total_self} do not add up to {root_time}")
    tracer.write(OUT / f"trace-{args.workload}.spans")
    info(
        f"traced {args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, "
        f"{len(tracer.name)} spans in {OUT.name}/trace-{args.workload}.spans"
    )
    info(
        f"traced operation time {root_time:.4f} s (layer self times sum to {total_self:.4f} s), "
        f"untraced {sum(plain):.4f} s; rescaled tracing overhead {overhead:.3f}x"
    )
    layers = sorted(((metrics[f"{layer}.share"], layer) for layer in layertrace.LAYERS), reverse=True)
    info("layer shares: " + ", ".join(f"{layer} {v:.3f}" for v, layer in layers))
    for err in runner.errors[:10]:
        print(f"check: {err}", file=sys.stderr)
    units = {name: unit for name, unit, _ in layertrace.METRICS}
    emit(not runner.errors, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()})
    return 0


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


if __name__ == "__main__":
    sys.exit(main())
