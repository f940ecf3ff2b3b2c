"""The benchmark's three workloads.

Each workload builds its inputs from the seed, sets the program up
(:meth:`Workload.setup`), runs a measured window against the program's
public entry points only (:meth:`Workload.measure`), and checks the
outputs (:meth:`Workload.check`). All load comes from this process:
batch workloads call :meth:`BatchQueryEngine.estimate_pairs` in a loop,
the serving workload drives a :class:`QueryServer` from a closed loop of
asyncio client coroutines.
"""

from __future__ import annotations

import asyncio
import math
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from benchkit.checks import (
    Check,
    EdgeModel,
    ExactCounter,
    bias_check,
    limit_check,
    pack_csr,
)
from repro.datasets import synthesize
from repro.engine import BatchQueryEngine, SketchConfig
from repro.errors import ReproError
from repro.graph.bipartite import Layer
from repro.graph.sampling import QueryPair
from repro.protocol.messages import Direction
from repro.protocol.session import ExecutionMode
from repro.serving import QueryServer, TenantRegistry

__all__ = ["FULL", "TINY", "WORKLOADS", "Scale", "Window", "Workload"]

LAYER = Layer.UPPER
EPSILON = 2.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke tests."""

    max_edges: int = 300_000
    setup_repeats: int = 3
    # batch-listed: one materialize call per op
    listed_pairs: int = 20_000
    # batch-sketch: one SKETCH call and one SKETCH_VIEW call per iteration
    sketch_pairs: int = 100_000
    view_pairs: int = 2_000
    # serve-churn
    clients: int = 32
    stream: int = 1 << 18
    warm_vertices: int = 256
    replay_pairs: int = 64
    rotate_every: int = 2000
    mutation_ops: int = 400
    mutation_batches: int = 64
    cache_bytes: int = 4 << 20


FULL = Scale()
TINY = Scale(
    max_edges=20_000,
    setup_repeats=2,
    listed_pairs=2_000,
    sketch_pairs=4_000,
    view_pairs=300,
    clients=8,
    stream=1 << 13,
    warm_vertices=32,
    replay_pairs=16,
    rotate_every=300,
    mutation_ops=40,
    mutation_batches=8,
    cache_bytes=64 << 10,
)


@dataclass
class Window:
    """What one measured window saw."""

    seconds: float = 0.0  # measured time (sum of call times / loop wall)
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    upload_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)  # pairs/s per op (batch) or per slice (serving)
    rotations: list[float] = field(default_factory=list)  # mutate + rotate
    dirty: list[int] = field(default_factory=list)  # dirty vertices per rotation
    resident_bytes: list[int] = field(default_factory=list)
    first_tick: int = 0
    answer_slice: tuple[int, int] = (0, 0)  # serving: rows of Workload.answers
    before: dict = field(default_factory=dict)  # serving: program counters at start
    after: dict = field(default_factory=dict)  # ... and at the end


class Workload:
    """One named workload. Subclasses fill in the four phases."""

    name = ""
    tail_percentile = 90.0  # op_tail_ms: p90 over a few dozen batch ops, p99 on serve-churn

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = int(seed)
        self.mae: float | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Window:
        raise NotImplementedError

    def check(self) -> list[Check]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started (idempotent)."""

    def shutdown(self) -> None:
        """Release everything; the workload is not used again."""
        self.close()

    # -- shared input generation ------------------------------------
    def _streams(self, count: int) -> list[np.random.Generator]:
        """Independent generators derived from the seed (inputs, program)."""
        children = np.random.SeedSequence(self.seed).spawn(count)
        return [np.random.default_rng(c) for c in children]

    def _graph(self):
        graph = synthesize("ML", max_edges=self.scale.max_edges)
        active = np.flatnonzero(graph.degrees(LAYER) > 0)
        return graph, active


class Answers:
    """Served answers as typed columns (small next to the program's memory)."""

    def __init__(self) -> None:
        self.a = array("q")
        self.b = array("q")
        self.value = array("d")
        self.epoch = array("q")
        self.tick = array("q")
        self.issued = array("d")  # perf_counter() when the query was issued

    def add(self, a: int, b: int, estimate, issued: float) -> None:
        self.a.append(a)
        self.b.append(b)
        self.value.append(estimate.value)
        self.epoch.append(estimate.epoch)
        self.tick.append(estimate.tick)
        self.issued.append(issued)

    def __len__(self) -> int:
        return len(self.a)

    def column(self, name: str) -> np.ndarray:
        return np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode)


def _distinct_pairs(draw, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two endpoint arrays from ``draw(n)`` with ``a != b`` everywhere."""
    a = draw(size)
    b = draw(size)
    same = np.flatnonzero(a == b)
    while same.size:
        b[same] = draw(same.size)
        same = same[a[same] == b[same]]
    return a, b


def _query_pairs(a: np.ndarray, b: np.ndarray) -> list[QueryPair]:
    return [QueryPair(LAYER, int(x), int(y)) for x, y in zip(a.tolist(), b.tolist())]


# ----------------------------------------------------------------------
# Batch workloads: one op = one engine call
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Call:
    engine: BatchQueryEngine
    pairs: int
    unbiased: bool  # the estimator is unbiased: its errors feed the bias check


class _BatchWorkload(Workload):
    def _calls(self) -> list[_Call]:
        raise NotImplementedError

    def setup(self) -> None:
        self.graph, self.active = self._graph()
        self.inputs, self.program = self._streams(2)
        self.calls = self._calls()
        self.domain = self.graph.layer_size(LAYER.opposite())
        # First touch: one small call per engine path.
        for call in self.calls:
            a, b = self._uniform_pairs(min(256, call.pairs))
            call.engine.estimate_pairs(
                self.graph, LAYER, _query_pairs(a, b), EPSILON,
                rng=self.program,
            )
        self.exact: ExactCounter | None = None
        self.errors: list[list[np.ndarray]] = [[] for _ in self.calls]
        self.spent: list[float] = []
        self.replay: tuple | None = None

    def _uniform_pairs(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        return _distinct_pairs(lambda n: self.inputs.choice(self.active, n), size)

    def measure(self, seconds: float) -> Window:
        if self.exact is None:
            self.exact = ExactCounter(
                pack_csr(*self.graph.adjacency_csr(LAYER), self.domain)
            )
        window = Window()
        deadline = time.perf_counter() + seconds
        while True:
            op_time, op_pairs, answered = 0.0, 0, True
            for kind, call in enumerate(self.calls):
                a, b = self._uniform_pairs(call.pairs)
                pairs = _query_pairs(a, b)
                op_seed = int(self.inputs.integers(1 << 62))
                window.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = call.engine.estimate_pairs(
                        self.graph, LAYER, pairs, EPSILON,
                        rng=np.random.default_rng(op_seed),
                    )
                except ReproError:
                    window.failed += 1
                    answered = False
                    continue
                elapsed = time.perf_counter() - t0
                op_time += elapsed
                op_pairs += len(pairs)
                window.seconds += elapsed
                window.pairs += len(pairs)
                window.upload_bytes += int(result.upload_bytes)
                self.spent.append(float(result.max_epsilon_spent))
                self.errors[kind].append(result.values - self.exact.counts(a, b))
                if self.replay is None:
                    self.replay = (kind, pairs, op_seed, result.values)
            if answered:
                window.latencies.append(op_time)
                window.rates.append(op_pairs / op_time)
            if time.perf_counter() >= deadline:
                return window

    def check(self) -> list[Check]:
        checks = []
        errors = [e for per_kind in self.errors for e in per_kind]
        pooled = np.concatenate(errors) if errors else np.empty(0)
        self.mae = float(np.abs(pooled).mean()) if pooled.size else math.nan
        for kind, call in enumerate(self.calls):
            if call.unbiased:
                checks.append(bias_check(self.errors[kind], f"unbiased_{kind}"))
        checks.append(limit_check(
            "batch_epsilon", max(self.spent, default=math.inf), EPSILON
        ))
        if self.replay is None:
            checks.append(Check("replay_identical", False, "no call answered"))
        else:
            kind, pairs, op_seed, values = self.replay
            again = self.calls[kind].engine.estimate_pairs(
                self.graph, LAYER, pairs, EPSILON,
                rng=np.random.default_rng(op_seed),
            ).values
            same = np.array_equal(again, values)
            checks.append(Check(
                "replay_identical", same, f"{len(pairs)} pairs re-run with the same seed"
            ))
        return checks

    def close(self) -> None:
        for call in getattr(self, "calls", []):
            call.engine.close()


class BatchListed(_BatchWorkload):
    """Offline similarity/projection shape: AUTO resolves to materialize."""

    name = "batch-listed"

    def _calls(self) -> list[_Call]:
        return [_Call(BatchQueryEngine(), self.scale.listed_pairs, True)]


class BatchSketch(_BatchWorkload):
    """The engine's sublinear paths: pair-level SKETCH and bloom SKETCH_VIEW."""

    name = "batch-sketch"
    VIEW_BYTES = 64

    def _calls(self) -> list[_Call]:
        view = SketchConfig.for_budget("bloom", self.VIEW_BYTES)
        return [
            _Call(BatchQueryEngine(mode=ExecutionMode.SKETCH), self.scale.sketch_pairs, True),
            _Call(
                BatchQueryEngine(mode=ExecutionMode.SKETCH_VIEW, sketch=view),
                self.scale.view_pairs,
                False,
            ),
        ]


# ----------------------------------------------------------------------
# Serving workload: one op = one answered query, closed loop of clients
# ----------------------------------------------------------------------
class ServeChurn(Workload):
    """Reads beside writes: Zipf popularity, tenants, noisy degrees,
    mutation bursts with incremental rotation, a byte-bounded cache and
    fork shard workers."""

    name = "serve-churn"
    tail_percentile = 99.0
    SLICES = 10  # the measured window's answer rate is the median over this many slices
    ZIPF = 0.8
    TENANTS = 4
    DEGREE_EPSILON = 0.5
    SHARDS = 2

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed)
        self.loop = asyncio.new_event_loop()
        self.server: QueryServer | None = None

    def setup(self) -> None:
        scale = self.scale
        self.graph, active = self._graph()
        inputs, program, warm = self._streams(3)
        self.inputs = inputs
        # Zipf popularity over the active vertices, in a seeded rank order.
        ranked = inputs.permutation(active)
        cdf = np.cumsum(1.0 / np.arange(1, ranked.size + 1) ** self.ZIPF)
        cdf /= cdf[-1]

        def zipf_draw(rng):
            return lambda n: ranked[
                np.minimum(np.searchsorted(cdf, rng.random(n)), ranked.size - 1)
            ]

        self.sa, self.sb = _distinct_pairs(zipf_draw(inputs), scale.stream)
        warm_a, warm_b = _distinct_pairs(zipf_draw(warm), scale.clients)
        graph = self.graph
        self.model = EdgeModel(graph.edges, graph.num_upper, graph.num_lower)
        for _ in range(scale.mutation_batches):
            self.model.sample_batch(inputs, scale.mutation_ops)
        self.applied = 0  # mutation batches handed to the server so far
        registry = TenantRegistry()
        self.tenants = [f"tenant-{i}" for i in range(self.TENANTS)]
        for name in self.tenants:
            registry.register(name, 1e12)  # ample: no query is refused
        self.server = QueryServer(
            graph, LAYER, EPSILON,
            warm_vertices=scale.warm_vertices, rng=program,
            tenants=registry, degree_epsilon=self.DEGREE_EPSILON,
            cache_bytes=scale.cache_bytes, shard_transport="fork", shards=self.SHARDS,
        )
        self.cursor = 0
        self.since_rotation = 0
        self.answers = Answers()
        self.epoch_batches = {0: 0}  # epoch -> mutation batches applied

        async def first_touch():
            await self.server.start()
            await asyncio.gather(*(
                self.server.query(int(a), int(b), tenant=self.tenants[i % self.TENANTS])
                for i, (a, b) in enumerate(zip(warm_a, warm_b))
            ))

        self.loop.run_until_complete(first_touch())

    def counters(self) -> dict:
        """The program's own lifetime counters, for per-layer deltas."""
        server = self.server
        cache = server.cache
        return {
            "ticks": server.stats.ticks,
            "served": server.stats.queries_served,
            "hits": cache.stats.vertex_hits + cache.stats.pair_hits,
            "misses": cache.stats.vertex_misses + cache.stats.pair_misses,
            "evictions": cache.stats.evictions,
            "recharges": cache.stats.recharges,
            "upload": server.comm.total_bytes(Direction.UPLOAD),
            "retries": int(cache.shard_runner.fault_totals["retries"]),
        }

    def measure(self, seconds: float) -> Window:
        window = Window(before=self.counters())
        window.first_tick = window.before["ticks"]
        first_answer = len(self.answers)
        self.loop.run_until_complete(self._closed_loop(seconds, window))
        window.after = self.counters()
        window.answer_slice = (first_answer, len(self.answers))
        window.pairs = window.answer_slice[1] - first_answer
        window.upload_bytes = window.after["upload"] - window.before["upload"]
        window.resident_bytes.append(self.server.cache.nbytes())
        return window

    async def _closed_loop(self, seconds: float, window: Window) -> None:
        server = self.server
        n = self.sa.size
        done = array("d")  # perf_counter() when each answer resolved
        deadline = time.perf_counter() + seconds

        async def client(cid: int) -> None:
            tenant = self.tenants[cid % self.TENANTS]
            while time.perf_counter() < deadline:
                i = self.cursor % n
                self.cursor += 1
                a, b = int(self.sa[i]), int(self.sb[i])
                window.attempted += 1
                t0 = time.perf_counter()
                try:
                    est = await server.query(a, b, tenant=tenant)
                except ReproError:
                    window.failed += 1
                    continue
                t1 = time.perf_counter()
                done.append(t1)
                window.latencies.append(t1 - t0)
                self.answers.add(a, b, est, t0)
                self.since_rotation += 1
                if self.since_rotation >= self.scale.rotate_every:
                    self.since_rotation = 0
                    self._rotate(window)

        t0 = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(self.scale.clients)))
        window.seconds = time.perf_counter() - t0
        edges = np.linspace(t0, t0 + window.seconds, self.SLICES + 1)
        counts, _ = np.histogram(np.frombuffer(done), bins=edges)
        window.rates.extend((counts / (window.seconds / self.SLICES)).tolist())

    def _rotate(self, window: Window) -> None:
        """Apply the next mutation batch, then rotate incrementally."""
        window.resident_bytes.append(self.server.cache.nbytes())
        t0 = time.perf_counter()
        if self.applied == len(self.model.batches):
            self.model.sample_batch(self.inputs, self.scale.mutation_ops)
        inserts, deletes = self.model.batches[self.applied]
        self.server.mutate(inserts, deletes)
        self.applied += 1
        epoch = self.server.rotate_epoch()
        window.rotations.append(time.perf_counter() - t0)
        window.dirty.append(int(self.server.cache.last_rotation.get("dirty", 0)))
        self.epoch_batches[epoch] = self.applied

    # -- checks -------------------------------------------------------
    def check(self) -> list[Check]:
        checks = []
        answers = self.answers
        a, b = answers.column("a"), answers.column("b")
        values = answers.column("value")
        epochs = answers.column("epoch")
        batches = np.zeros(values.size, dtype=np.int64)
        for epoch, applied in self.epoch_batches.items():
            batches[epochs == epoch] = applied
        exact = np.zeros(values.size, dtype=np.int64)
        for k, packed in self.model.snapshots(sorted({int(k) for k in batches})):
            rows = np.flatnonzero(batches == k)
            exact[rows] = ExactCounter(packed).counts(a[rows], b[rows])
        self.mae = float(np.abs(values - exact).mean()) if values.size else math.nan
        checks.append(Check("answered", values.size > 0, f"{values.size} answers"))

        accountant = self.server.accountant
        peak = max(accountant.epoch_peaks() + [accountant.max_epoch_spent()])
        checks.append(limit_check("epoch_epsilon", peak, EPSILON + self.DEGREE_EPSILON))
        checks.append(self.loop.run_until_complete(self._replay_check()))

        domain = self.graph.layer_size(LAYER.opposite())
        served = pack_csr(*self.server.graph.adjacency_csr(LAYER), domain)
        (_, model), = self.model.snapshots([self.applied])
        checks.append(Check(
            "snapshot_matches_model",
            np.array_equal(served, model),
            f"served graph after {self.applied} mutation batches",
        ))
        return checks

    async def _replay_check(self) -> Check:
        """Re-issued queries in the current epoch answer bit-identically, free.

        "Free" means the second burst adds no accountant round: every
        charge records one. (Uploads may grow: an evicted view is redrawn
        from its key, bit-identically and without a charge.)
        """
        server = self.server
        epoch = server.epoch
        answers = self.answers
        rows = np.flatnonzero(answers.column("epoch") == epoch)
        recorded = {
            (int(answers.a[i]), int(answers.b[i])): answers.value[i] for i in rows
        }
        keys = list(recorded) or list(zip(self.sa.tolist(), self.sb.tolist()))
        picks = self.inputs.choice(len(keys), min(len(keys), self.scale.replay_pairs), replace=False)
        sample = [keys[int(i)] for i in picks]
        tenant = self.tenants[0]

        async def burst():
            return await asyncio.gather(*(
                server.query(a, b, tenant=tenant) for a, b in sample
            ))

        def charges():
            accountant = server.accountant
            return accountant.rounds_completed + len(accountant.rounds)

        first = await burst()
        charged = charges()
        second = await burst()
        fields = lambda e: (e.value, e.noisy_degree_a, e.noisy_degree_b, e.epoch)  # noqa: E731
        same = all(fields(x) == fields(y) for x, y in zip(first, second))
        same = same and all(
            x.value == recorded.get(k, x.value) for k, x in zip(sample, first)
        )
        free = charges() == charged
        return Check(
            "replay_identical",
            same and free and first[0].epoch == epoch,
            f"{len(sample)} pairs replayed in epoch {epoch}; "
            f"identical={same}, charge-free={free}",
        )

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None

    def shutdown(self) -> None:
        self.close()
        self.loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchListed, BatchSketch, ServeChurn)
}
