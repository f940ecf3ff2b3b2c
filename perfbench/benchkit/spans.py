"""Outside-in span tracing of the program's public layer calls.

The tracer wraps public functions and methods *where callers look them
up*: a function imported by name into several modules
(``repro.engine.core.bulk_randomized_response``,
``repro.serving.cache.keyed_bulk_randomized_response``, ...) is replaced
in every ``repro`` module namespace that holds it, and a method is
replaced on every class that defines it. Nothing inside the program
changes; :meth:`Tracer.uninstall` puts every original back.

Every wrapped call records one span ``(name, start, end, parent)``. All
wrapped callables are synchronous, and the program runs them on one
thread (the server's tick runs inline on the event loop), so the
innermost open span is the caller: spans nest strictly and a span's
*self time* is its duration minus the durations of its direct children.
An optional per-target hook sees each call's arguments and result and
adds to named counters, so counts are taken at the same boundaries as
the times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Target", "Tracer", "default_targets"]

Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One public callable to time: ``module:attr`` or ``module:Class.method``."""

    path: str
    span: str
    hook: Hook | None = None


class Tracer:
    """Records nested spans and counters for the installed targets."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name = target.span
        hook = target.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Wrap every target at each place it is looked up."""
        for target in targets:
            module_name, _, attr = target.path.partition(":")
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                base = getattr(owner, class_name)
                classes = [base, *_subclasses(base)]
                for cls in classes:
                    original = cls.__dict__.get(method)
                    if not isinstance(original, types.FunctionType):
                        continue
                    self._patch(cls, method, original, self._wrap(original, target))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, target)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        self.enabled = True

    def _patch(self, owner: object, key: str, original: object, wrapped: object) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every original callable."""
        self.enabled = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus children)."""
        if not self.names:
            return {}
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = ends - starts
        own = duration.copy()
        nested = parents >= 0
        np.subtract.at(own, parents[nested], duration[nested])
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, own):
            totals[name] += float(seconds)
        return dict(totals)

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations (s) of every span called ``name``."""
        return np.asarray(
            [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]
        )

    def starts_of(self, name: str) -> np.ndarray:
        """Start times of every span called ``name``, in call order."""
        return np.asarray([s for n, s in zip(self.names, self.starts) if n == name])

    def root_seconds(self) -> float:
        """Total duration of the outermost spans (= sum of all self times)."""
        return float(
            sum(e - s for p, s, e in zip(self.parents, self.starts, self.ends) if p < 0)
        )


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# The traced layer boundaries and the counts taken at them
# ----------------------------------------------------------------------
def _count_plan(tracer: Tracer, _args, _kwargs, plan) -> None:
    tracer.counters["planner.vertices"] += int(plan.num_vertices)


def _count_draw(tracer: Tracer, args, kwargs, result) -> None:
    graph, layer, vertices = args[0], args[1], args[2]
    rows = int(np.asarray(vertices).size)
    tracer.counters["bulkrr.rows"] += rows
    tracer.counters["bulkrr.entries"] += rows * int(graph.layer_size(layer.opposite()))


def _count_pairs(tracer: Tracer, args, kwargs, _result) -> None:
    tracer.counters["pairwise.pairs"] += int(np.asarray(args[2]).size)


def _count_backend(tracer: Tracer, _args, _kwargs, backend) -> None:
    tracer.counters[f"pairwise.{backend}_calls"] += 1


def _count_views(tracer: Tracer, _args, _kwargs, views) -> None:
    tracer.counters["sketches.view_bytes"] += int(np.asarray(views).nbytes)


def _count_submit(tracer: Tracer, args, _kwargs, _future) -> None:
    tracer.counters["transport.ranges"] += 1
    if int(args[1].attempt) == 0:
        tracer.counters["transport.first_submits"] += 1


def _count_finalize(tracer: Tracer, args, _kwargs, result) -> None:
    tracer.counters["transport.bytes_to_parent"] += int(result.payload_bytes)
    spec = args[1]
    if int(spec.attempt) == 0:
        tracer.counters["transport.first_try"] += 1


def _count_admit(tracer: Tracer, _args, _kwargs, admission) -> None:
    tracer.counters["tenants.rejected"] += len(admission.rejected)


def _count_charge(tracer: Tracer, args, kwargs, _result) -> None:
    vertices = args[2] if len(args) > 2 else kwargs["vertices"]
    tracer.counters["accountant.charged_vertices"] += int(np.asarray(vertices).size)


def default_targets() -> list[Target]:
    """Every public call the per-layer metrics are built from."""
    return [
        Target("repro.engine.core:BatchQueryEngine.estimate_pairs", "engine"),
        # engine.planner
        Target("repro.engine.planner:plan_workload", "planner.plan", _count_plan),
        Target("repro.engine.planner:split_cached", "planner.plan"),
        Target("repro.engine.planner:plan_shards", "planner.plan"),
        Target("repro.engine.planner:plan_views", "planner.plan"),
        # engine.bulkrr
        Target("repro.engine.bulkrr:bulk_randomized_response", "bulkrr.draw", _count_draw),
        Target(
            "repro.engine.bulkrr:keyed_bulk_randomized_response",
            "bulkrr.keyed_draw",
            _count_draw,
        ),
        # engine.pairwise
        Target("repro.engine.pairwise:pairwise_intersections", "pairwise.count", _count_pairs),
        Target("repro.engine.pairwise:debias_pair_counts", "pairwise.debias"),
        Target("repro.engine.pairwise:choose_backend", "pairwise.choose", _count_backend),
        # engine.sketch / engine.sketches
        Target("repro.engine.sketch:sketch_pair_counts", "sketch.pair_counts"),
        Target("repro.engine.sketches:SketchFamily.encode", "sketches.encode"),
        Target("repro.engine.sketches:SketchFamily.release", "sketches.release", _count_views),
        Target("repro.engine.sketches:SketchFamily.intersect", "sketches.intersect"),
        Target("repro.engine.sketches:SketchFamily.cardinality", "sketches.cardinality"),
        # engine.sharded + engine.transport
        Target("repro.engine.sharded:ShardedRunner.draw", "sharded.draw"),
        Target("repro.engine.sharded:ShardedRunner.run_workload", "sharded.draw"),
        Target("repro.engine.sharded:ShardedRunner.rebind", "sharded.rebind"),
        Target("repro.engine.transport:ShardTransport.submit", "transport.submit", _count_submit),
        Target(
            "repro.engine.transport:ShardTransport.finalize",
            "transport.finalize",
            _count_finalize,
        ),
        Target("repro.engine.transport:ShardTransport.recycle", "transport.recycle"),
        # serving.server
        Target("repro.serving.server:QueryServer.rotate_epoch", "server.rotate"),
        Target("repro.serving.server:QueryServer.mutate", "server.mutate"),
        # serving.cache
        Target("repro.serving.cache:NoisyViewCache.materialize_fresh", "cache.fresh"),
        Target("repro.serving.cache:NoisyViewCache.gather_views", "cache.gather"),
        Target("repro.serving.cache:NoisyViewCache.packed_matrix", "cache.pack"),
        Target("repro.serving.cache:NoisyViewCache.evict_to_budget", "cache.evict"),
        Target("repro.serving.cache:NoisyViewCache.degree_fresh", "cache.degree"),
        Target("repro.serving.cache:NoisyViewCache.rotate", "cache.rotate"),
        Target("repro.serving.cache:NoisyViewCache.mutate", "cache.mutate"),
        # serving.tenants
        Target("repro.serving.tenants:TenantRegistry.admit", "tenants.admit", _count_admit),
        Target("repro.serving.tenants:TenantRegistry.settle", "tenants.settle"),
        # privacy.epoch
        Target(
            "repro.privacy.epoch:EpochAccountant.charge_vertices",
            "accountant.charge",
            _count_charge,
        ),
        Target("repro.privacy.epoch:EpochAccountant.max_lifetime_spent", "accountant.max_spent"),
        # graph.delta
        Target("repro.graph.delta:DeltaLog.apply", "delta.apply"),
        Target("repro.graph.delta:DeltaLog.compact", "delta.apply"),
    ]
