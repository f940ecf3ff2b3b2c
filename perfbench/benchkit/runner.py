"""Run one workload and print its result.

``run()`` sets the workload up several times (``setup_s`` is the
median), measures, checks the outputs and returns the result object the
benchmark prints as its last line. With ``trace`` the measured time is
split: the first half runs untraced, the second with the span tracer
installed, and the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from benchkit.checks import Check, children_check, shm_check, shm_segments
from benchkit.spans import Tracer, default_targets
from benchkit.workloads import FULL, WORKLOADS, Scale, Window, Workload

__all__ = ["END_TO_END", "PER_LAYER", "main", "run"]

ROOT = Path(__file__).resolve().parents[2]

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "mae": "edges",
    "upload_bytes_per_pair": "B",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

# span name -> per-layer metric (self time per op, ms)
_SELF_MS = {
    "engine": "engine.self_ms",
    "planner.plan": "planner.plan_ms",
    "bulkrr.draw": "bulkrr.draw_ms",
    "bulkrr.keyed_draw": "bulkrr.keyed_draw_ms",
    "pairwise.count": "pairwise.count_ms",
    "pairwise.debias": "pairwise.debias_ms",
    "sketch.pair_counts": "sketch.pair_counts_ms",
    "sketches.encode": "sketches.encode_ms",
    "sketches.release": "sketches.release_ms",
    "sketches.intersect": "sketches.intersect_ms",
    "sketches.cardinality": "sketches.cardinality_ms",
    "sharded.draw": "sharded.wait_ms",
    "sharded.rebind": "sharded.rebind_ms",
    "transport.submit": "transport.submit_ms",
    "transport.finalize": "transport.finalize_ms",
    "transport.recycle": "transport.recycle_ms",
    "cache.fresh": "cache.fresh_ms",
    "cache.gather": "cache.gather_ms",
    "cache.pack": "cache.pack_ms",
    "cache.evict": "cache.evict_ms",
    "cache.degree": "cache.degree_ms",
    "cache.rotate": "cache.rotate_ms",
    "cache.mutate": "cache.mutate_ms",
    "tenants.admit": "tenants.admit_ms",
    "tenants.settle": "tenants.settle_ms",
    "accountant.charge": "accountant.charge_ms",
    "accountant.max_spent": "accountant.max_spent_ms",
    "delta.apply": "delta.apply_ms",
}

# counters taken by the span hooks, reported per op
_PER_OP_COUNTS = (
    "planner.vertices",
    "bulkrr.rows",
    "bulkrr.entries",
    "pairwise.pairs",
    "pairwise.bitset_calls",
    "pairwise.merge_calls",
    "pairwise.sparse_calls",
    "sketches.view_bytes",
    "transport.ranges",
    "transport.bytes_to_parent",
    "tenants.rejected",
    "accountant.charged_vertices",
)

PER_LAYER = {
    **{metric: "ms" for metric in _SELF_MS.values()},
    "planner.vertices": "count",
    "bulkrr.rows": "count",
    "bulkrr.entries": "count",
    "bulkrr.ns_per_entry": "ns",
    "pairwise.pairs": "count",
    "pairwise.bitset_calls": "count",
    "pairwise.merge_calls": "count",
    "pairwise.sparse_calls": "count",
    "sketches.view_bytes": "B",
    "sharded.draw_ms": "ms",
    "transport.ranges": "count",
    "transport.retries": "count",
    "transport.bytes_to_parent": "B",
    "transport.first_try_ratio": "1",
    "server.queue_wait_ms": "ms",
    "server.loop_self_ms": "ms",
    "server.queries_per_tick": "count",
    "server.rotate_ms": "ms",
    "server.rotate_p50_ms": "ms",
    "cache.hit_rate": "1",
    "cache.evictions": "count",
    "cache.recharge_ratio": "1",
    "cache.resident_bytes": "B",
    "tenants.rejected": "count",
    "accountant.charged_vertices": "count",
    "delta.dirty_vertices": "count",
    "trace.untraced_pairs_per_s": "1/s",
    "trace.traced_pairs_per_s": "1/s",
    "trace.self_share": "1",
}


# ----------------------------------------------------------------------
def _percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3) if latencies else 0.0


def _median_rate(window: Window) -> float:
    """Pairs per second: the median over the window's ops (batch) or time
    slices (serving), so a stall in part of the run moves it less than a
    whole-run mean."""
    return statistics.median(window.rates) if window.rates else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(
    workload: Workload, window: Window, setup: list[float], rss: float, failed_checks: int
) -> dict:
    pairs = max(window.pairs, 1)
    return {
        "setup_s": statistics.median(setup),
        "pairs_per_s": _median_rate(window),
        "op_p50_ms": _percentile_ms(window.latencies, 50.0),
        "op_tail_ms": _percentile_ms(window.latencies, workload.tail_percentile),
        "mae": workload.mae,
        "upload_bytes_per_pair": window.upload_bytes / pairs,
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - (window.failed + failed_checks) / max(window.attempted, 1),
    }


def _per_layer(workload: Workload, base: Window, traced: Window, tracer: Tracer) -> tuple[dict, Check]:
    ops = max(len(traced.latencies), 1)
    self_s = tracer.self_times()
    metrics = {metric: 0.0 for metric in PER_LAYER}
    for span, metric in _SELF_MS.items():
        metrics[metric] = self_s.get(span, 0.0) * 1e3 / ops
    counts = tracer.counters
    for name in _PER_OP_COUNTS:
        metrics[name] = counts[name] / ops
    entries = counts["bulkrr.entries"]
    if entries:
        draw_s = self_s.get("bulkrr.draw", 0.0) + self_s.get("bulkrr.keyed_draw", 0.0)
        metrics["bulkrr.ns_per_entry"] = draw_s * 1e9 / entries
    metrics["sharded.draw_ms"] = float(tracer.durations("sharded.draw").sum()) * 1e3 / ops
    if counts["transport.first_submits"]:
        metrics["transport.first_try_ratio"] = (
            counts["transport.first_try"] / counts["transport.first_submits"]
        )
    rotations = traced.rotations
    if rotations:
        metrics["server.rotate_p50_ms"] = statistics.median(rotations) * 1e3
        metrics["delta.dirty_vertices"] = statistics.mean(traced.dirty)
    metrics["server.rotate_ms"] = (
        self_s.get("server.rotate", 0.0) + self_s.get("server.mutate", 0.0)
    ) * 1e3 / ops
    before, after = traced.before, traced.after
    if before:
        delta = {key: after[key] - before[key] for key in before}
        metrics["transport.retries"] = delta["retries"] / ops
        if delta["ticks"]:
            metrics["server.queries_per_tick"] = delta["served"] / delta["ticks"]
        lookups = delta["hits"] + delta["misses"]
        if lookups:
            metrics["cache.hit_rate"] = delta["hits"] / lookups
        metrics["cache.evictions"] = delta["evictions"] / ops
        if delta["misses"]:
            metrics["cache.recharge_ratio"] = delta["recharges"] / delta["misses"]
        metrics["cache.resident_bytes"] = float(max(traced.resident_bytes, default=0))
        metrics["server.queue_wait_ms"] = _queue_wait_ms(workload, traced, tracer)
        metrics["server.loop_self_ms"] = (
            traced.seconds - tracer.root_seconds()
        ) * 1e3 / ops
    metrics["trace.untraced_pairs_per_s"] = _median_rate(base)
    metrics["trace.traced_pairs_per_s"] = _median_rate(traced)
    wall = traced.seconds
    covered = sum(self_s.values())
    metrics["trace.self_share"] = covered / wall if wall else 0.0
    # Batch windows time only the engine calls, so the engine span and the
    # measured time coincide up to timer overhead: allow 1% slack.
    check = Check(
        "trace_self_within_wall",
        covered <= wall * 1.01,
        f"self times {covered:.4f} s over {wall:.4f} s measured",
    )
    return metrics, check


def _queue_wait_ms(workload: Workload, window: Window, tracer: Tracer) -> float:
    """Mean time from a query's issue to the start of its tick's engine span.

    The server bumps its tick counter once per engine call, so the k-th
    engine span of the window belongs to tick ``first_tick + k + 1``.
    """
    starts = tracer.starts_of("engine")
    lo, hi = window.answer_slice
    k = workload.answers.column("tick")[lo:hi] - window.first_tick - 1
    issued = workload.answers.column("issued")[lo:hi]
    known = (k >= 0) & (k < starts.size)
    if not known.any():
        return 0.0
    return float(np.mean(starts[k[known]] - issued[known]) * 1e3)


# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL):
    """Run one workload; returns ``(result, checks)``."""
    shm_before = shm_segments()
    workload = WORKLOADS[name](scale, seed)
    setup: list[float] = []
    try:
        for repeat in range(scale.setup_repeats):
            if repeat:
                workload.close()
            t0 = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - t0)
        checks: list[Check] = []
        if trace:
            base = workload.measure(seconds / 2)
            tracer = Tracer()
            tracer.install(default_targets())
            try:
                window = workload.measure(seconds / 2)
            finally:
                tracer.uninstall()
            metrics, trace_check = _per_layer(workload, base, window, tracer)
            checks.append(trace_check)
            attempted = base.attempted + window.attempted
            failed_ops = base.failed + window.failed
        else:
            window = workload.measure(seconds)
            rss = _peak_rss_mb()
            attempted, failed_ops = window.attempted, window.failed
        checks.extend(workload.check())
    finally:
        workload.shutdown()
    checks.append(shm_check(shm_before))
    checks.append(children_check())
    failed_checks = sum(not c.ok for c in checks)
    if not trace:
        metrics = _end_to_end(workload, window, setup, rss, failed_checks)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed_checks == 0,
        "attempted": int(attempted),
        "failed": int(failed_ops + failed_checks),
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()
        },
    }
    return result, checks


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the shm resource tracker the fork pool started.

    The tracker is process-wide, so only the command-line entry stops it;
    callers of :func:`run` inside a longer-lived process keep theirs.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Where and on what the result was measured."""
    src = ROOT / "src"
    lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(src.rglob("*.py"))
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_py_lines": lines,
    }


def _git_sha() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    meta = metadata(args.workload, args.seed, args.seconds, trace)
    result, checks = run(args.workload, args.seed, args.seconds, trace)
    _stop_resource_tracker()
    print(json.dumps({"meta": meta}))
    print(json.dumps({"checks": [c.__dict__ for c in checks]}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
