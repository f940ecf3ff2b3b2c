"""The batch query engine: a whole pair workload in one vectorized pass.

:class:`BatchQueryEngine` is the array-level replacement for running
:class:`~repro.estimators.batch.BatchOneRound` (or worse, one
:class:`~repro.protocol.session.ProtocolSession` per pair) over a
workload. One call plans the workload, perturbs every distinct vertex in
one bulk RR draw (or draws sketch-mode sufficient statistics), counts all
pairwise noisy intersections through one sparse product, de-biases every
pair with a single vectorized expression, and emits exactly one
:class:`~repro.privacy.accountant.PrivacyLedger` /
:class:`~repro.protocol.messages.CommunicationLog` accounting for the
batch.

Privacy matches the shared-round protocol: each distinct workload vertex
passes through one ε-RR invocation, so the batch is ε-edge LDP by parallel
composition regardless of how many pairs it answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.bulkrr import bulk_randomized_response, packed_randomized_response
from repro.engine.pairwise import (
    choose_backend,
    debias_pair_counts,
    pairwise_intersections,
)
from repro.engine.planner import (
    ShardPlan,
    WorkloadPlan,
    pair_keys,
    plan_shards,
    plan_workload,
    split_cached,
)
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import ShardTransport, make_transport
from repro.engine.sketch import sketch_pair_counts
from repro.engine.sketches import SketchConfig, sketch_family
from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.composition import QueryBudgetManager
from repro.privacy.mechanisms import flip_probability
from repro.privacy.rng import RngLike, ensure_rng
from repro.protocol.messages import ID_BYTES, CommunicationLog, Direction
from repro.protocol.session import ExecutionMode, resolve_mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving uses engine)
    from repro.serving.cache import NoisyViewCache

__all__ = ["BATCH_METHODS", "EngineResult", "BatchQueryEngine", "workload_party"]

# Application-level method names that route a workload through the engine
# instead of a per-pair estimator (shared by similarity / projection /
# community so the aliases cannot drift apart).
BATCH_METHODS = ("batch-oner", "batch", "engine")


def workload_party(layer: Layer, num_vertices: int) -> str:
    """Ledger group label for a batch's distinct query vertices.

    All rounds of one batch must charge the same label so sequential
    composition across rounds (RR + degree reports) adds up per vertex.
    """
    return f"{layer.value}:workload[{num_vertices}v]"


def _draw_and_count(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    ia: np.ndarray,
    ib: np.ndarray,
    domain: int,
) -> tuple[np.ndarray, np.ndarray, str]:
    """One unsharded shared-rng RR draw of ``vertices`` and its pair counts.

    Returns ``(sizes, n1, backend)``: every noisy row's size and every
    pair's noisy intersection. A ``bitset`` backend draws straight into
    packed rows (:func:`packed_randomized_response`); the list backends
    draw sorted CSR rows. Both draws follow the same ε-RR law.
    """
    backend = choose_backend(vertices.size, int(ia.size), domain)
    if backend == "bitset":
        rows = packed_randomized_response(graph, layer, vertices, epsilon, rng)
        sizes = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        n1 = pairwise_intersections(
            None, None, ia, ib, domain, backend=backend, packed=rows
        )
    else:
        indptr, columns = bulk_randomized_response(
            graph, layer, vertices, epsilon, rng
        )
        sizes = np.diff(indptr)
        n1 = pairwise_intersections(indptr, columns, ia, ib, domain, backend=backend)
    return sizes, n1, backend


@dataclass(frozen=True)
class EngineResult:
    """Every pair's estimate plus the batch's accounting, in arrays."""

    layer: Layer
    epsilon: float
    pairs: tuple[QueryPair, ...]
    values: np.ndarray
    noisy_intersections: np.ndarray
    noisy_unions: np.ndarray
    vertices: np.ndarray  # distinct query vertices, sorted
    ia: np.ndarray  # per-pair slot of pair.a within `vertices`
    ib: np.ndarray
    upload_bytes: int
    num_query_vertices: int
    mode: ExecutionMode
    max_epsilon_spent: float
    details: dict = field(default_factory=dict)
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value(self, pair: QueryPair) -> float:
        """The estimate for one of the batch's pairs (O(1) lookup)."""
        if not self._index:
            self._index.update({p: i for i, p in enumerate(self.pairs)})
        try:
            return float(self.values[self._index[pair]])
        except KeyError:
            raise ProtocolError(f"pair {pair} is not part of this batch") from None


class BatchQueryEngine:
    """Answers same-layer pair workloads with array-level work only.

    Parameters
    ----------
    mode:
        Default execution mode (``AUTO`` resolves by candidate-pool
        size).
    shards, shard_mem_bytes:
        Turn on sharded execution of the materialize-mode bulk-RR +
        pairwise stages: the workload's vertex block is split into
        contiguous ranges, each range is drawn from the keyed Philox
        kernel by a forked worker process, and pairwise N1 reduces over
        shard blocks with a per-block backend re-choice. When only
        ``shards`` is given it is both the range count and the worker
        cap; ``shard_mem_bytes`` sizes ranges by their expected noisy
        payload instead (workers then default to the cpu count, or to
        ``shards`` when both are given — the same semantics the
        :class:`~repro.serving.server.QueryServer` options use). The
        drawn bits are shard-invariant (see ``docs/sharding-guide.md``),
        and ``details["shards"]`` records every range and backend
        choice. Sketch mode has no rows to shard and ignores both
        options.
    shard_timeout_s, shard_retries:
        Resilience knobs forwarded to the :class:`ShardedRunner`: the
        per-task deadline and the re-dispatch budget before a failed
        range degrades to inline execution. Whatever the resilience
        envelope did is reported in ``details["shards"]["faults"]``.
    shard_transport, shard_workers:
        *Where* shard work runs: a
        :class:`~repro.engine.transport.ShardTransport` instance, or a
        kind name (``"inline"``, ``"fork"``, ``"socket"``) resolved via
        :func:`~repro.engine.transport.make_transport`;
        ``shard_workers`` is the socket cluster's ``host:port`` address
        list. Defaults to the fork pool. Giving a transport alone (no
        ``shards``/``shard_mem_bytes``) turns sharding on with one
        range per transport worker. Per-draw traffic accounting lands
        in ``details["shards"]["transport"]``.
    sketch, view_mem_bytes:
        A :class:`~repro.engine.sketches.SketchConfig` turns on
        sublinear-memory sketch views. Under ``SKETCH_VIEW`` mode every
        workload vertex releases one fixed-size sketch; under
        ``MATERIALIZE`` the planner decides per vertex (hybrid): a
        vertex whose expected noisy row outweighs the sketch — or that
        the optional ``view_mem_bytes`` workload budget forces out — is
        sketched, and the decision is closed over pairs so every pair is
        answered from one view kind (see
        :func:`~repro.engine.planner.plan_views`). The decision is
        reported in ``details["planner"]``.

    A sharding engine owns a worker pool; call :meth:`close` (or use the
    engine as a context manager) to free the processes.
    """

    name = "engine-batch"
    unbiased = True

    def __init__(
        self,
        *,
        mode: ExecutionMode = ExecutionMode.AUTO,
        shards: int | None = None,
        shard_mem_bytes: int | None = None,
        shard_timeout_s: float | None = None,
        shard_retries: int = 2,
        shard_transport: "ShardTransport | str | None" = None,
        shard_workers: Sequence[str] | None = None,
        sketch: "SketchConfig | None" = None,
        view_mem_bytes: int | None = None,
    ):
        if shards is not None and shards <= 0:
            raise ProtocolError(f"shards must be positive, got {shards}")
        if shard_mem_bytes is not None and shard_mem_bytes <= 0:
            raise ProtocolError(
                f"shard_mem_bytes must be positive, got {shard_mem_bytes}"
            )
        if view_mem_bytes is not None and sketch is None:
            raise ProtocolError("view_mem_bytes requires a sketch config")
        if mode is ExecutionMode.SKETCH_VIEW and sketch is None:
            raise ProtocolError(
                "sketch-view mode needs a SketchConfig (pass sketch=)"
            )
        self.mode = mode
        self.shards = shards
        self.shard_mem_bytes = shard_mem_bytes
        self.shard_timeout_s = shard_timeout_s
        self.shard_retries = shard_retries
        self.shard_transport = shard_transport
        self.shard_workers = list(shard_workers) if shard_workers else None
        self.sketch = sketch
        self.view_mem_bytes = view_mem_bytes
        self._runner: ShardedRunner | None = None

    # ------------------------------------------------------------------
    @property
    def sharding(self) -> bool:
        """True when this engine shards its materialize-mode draws."""
        return (
            self.shards is not None
            or self.shard_mem_bytes is not None
            or self.shard_transport is not None
        )

    def close(self) -> None:
        """Release the sharded runner's worker pool (no-op otherwise)."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "BatchQueryEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _shard_runner(self, graph: BipartiteGraph, layer: Layer) -> ShardedRunner:
        """The engine's runner, rebound when the serving context changes."""
        runner = self._runner
        if runner is not None and (
            runner.graph is not graph or runner.layer is not layer
        ):
            runner.close()
            runner = None
        if runner is None:
            transport = self.shard_transport
            if isinstance(transport, str):
                transport = make_transport(
                    transport,
                    max_workers=self.shards,
                    workers=self.shard_workers,
                )
            runner = ShardedRunner(
                graph,
                layer,
                max_workers=self.shards,
                timeout_s=self.shard_timeout_s,
                max_retries=self.shard_retries,
                transport=transport,
            )
            self._runner = runner
        return runner

    def _plan_shard_count(self, runner: ShardedRunner) -> int | None:
        """Range count for :func:`plan_shards` (None when a mem budget rules)."""
        if self.shard_mem_bytes is not None:
            return None
        if self.shards is not None:
            return self.shards
        # Transport-only configuration: one range per transport worker.
        return max(1, runner.transport.workers)

    def estimate_pairs(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        pairs: Sequence[QueryPair],
        epsilon: float | None = None,
        *,
        budget: QueryBudgetManager | None = None,
        rng: RngLike = None,
        mode: ExecutionMode | None = None,
        ledger: PrivacyLedger | None = None,
        comm: CommunicationLog | None = None,
        cache: "NoisyViewCache | None" = None,
    ) -> EngineResult:
        """Estimate ``C2`` for every pair from one shared noisy round.

        ``budget`` (a :class:`QueryBudgetManager`) may fund the batch
        instead of ``epsilon``; one slice is drawn per call. An external
        ``ledger``/``comm`` can be passed when the batch is one round of a
        larger protocol (e.g. batch similarity, which adds a degree round
        against the same ledger).

        ``cache`` (a :class:`~repro.serving.cache.NoisyViewCache`) turns
        the call into one epoch-cached serving tick: vertices (materialize
        mode) or pairs (sketch mode) already holding an epoch view are
        served from the identical cached draw with **zero** additional
        budget charge; only cache misses are perturbed and charged —
        through the cache's :class:`~repro.privacy.epoch.EpochAccountant`
        and, in aggregate, ``ledger.charge_parallel``. Epsilon defaults to
        (and must match) the cache's pinned budget.

        A sharding engine (``shards=`` / ``shard_mem_bytes=`` at
        construction) executes the uncached materialize path as a fanned
        keyed draw plus a per-shard-block pairwise reduce, reporting
        every range and backend choice in ``details["shards"]``; cached
        ticks shard inside the cache instead (attach a runner to the
        cache / server).
        """
        if cache is not None:
            if budget is not None:
                raise PrivacyError(
                    "an epoch cache pins the batch epsilon; a budget manager "
                    "cannot fund cached batches"
                )
            if epsilon is None:
                epsilon = cache.epsilon
        rng = ensure_rng(rng)
        if mode is None and cache is not None:
            mode = cache.mode
        mode = self._resolve_mode(graph, layer, mode)
        sketch = self.sketch
        if sketch is None and cache is not None:
            sketch = cache.sketch
        if mode is ExecutionMode.SKETCH_VIEW and sketch is None:
            raise ProtocolError(
                "sketch-view mode needs a SketchConfig (pass sketch= to the "
                "engine or serve from a sketch-view cache)"
            )
        # Uncached batches with a sketch config carry a per-vertex
        # list-vs-sketch plan: forced all-sketch in SKETCH_VIEW mode,
        # decided by row economics / the view budget under MATERIALIZE.
        plan_sketch = (
            cache is None
            and sketch is not None
            and mode in (ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH_VIEW)
        )
        plan = plan_workload(
            graph, layer, pairs, epsilon, budget=budget,
            **(
                {
                    "sketch_bytes": sketch.bytes_per_vertex,
                    "view_mem_bytes": self.view_mem_bytes,
                    "force_sketch": mode is ExecutionMode.SKETCH_VIEW,
                }
                if plan_sketch
                else {}
            ),
        )
        if ledger is None:
            ledger = PrivacyLedger(limit=plan.epsilon)
        if comm is None:
            comm = CommunicationLog()
        domain = graph.layer_size(plan.layer.opposite())
        k = plan.num_vertices

        if cache is not None:
            cache.check_compatible(graph, plan.layer, plan.epsilon, mode, self.sketch)
            return self._estimate_pairs_cached(
                graph, plan, mode, cache, rng, ledger, comm, domain, k
            )
        if plan.views is not None and plan.views.num_sketched:
            return self._estimate_pairs_views(
                graph, plan, mode, sketch, rng, ledger, comm, domain, k
            )

        shard_details = None
        if mode is ExecutionMode.MATERIALIZE and self.sharding:
            # Sharded path: keyed draws (entropy from the caller's rng, so
            # the run is reproducible per seed) fanned over the plan's
            # ranges; shard boundaries never change the drawn bits.
            # A mem budget sizes the ranges; an explicit count only
            # applies without one (it then still caps the workers).
            runner = self._shard_runner(graph, plan.layer)
            shard_plan = plan_shards(
                graph, plan.layer, plan.vertices, plan.epsilon,
                shards=self._plan_shard_count(runner),
                mem_bytes=self.shard_mem_bytes,
            )
            entropy = int(rng.integers(1 << 62))
            workload = runner.run_workload(
                shard_plan, plan.epsilon, entropy=entropy, epoch=0,
                ia=plan.ia, ib=plan.ib, domain=domain,
            )
            sizes = workload.sizes
            n1 = workload.n1
            n2 = sizes[plan.ia] + sizes[plan.ib] - n1
            backend = "sharded"
            shard_details = {
                "count": shard_plan.num_shards,
                "mem_bytes": shard_plan.mem_bytes,
                "draw": workload.shards,
                "pairwise": workload.blocks,
                "faults": workload.faults,
                "transport": workload.transport,
            }
        elif mode is ExecutionMode.MATERIALIZE:
            sizes, n1, backend = _draw_and_count(
                graph, plan.layer, plan.vertices, plan.epsilon, rng,
                plan.ia, plan.ib, domain,
            )
            n2 = sizes[plan.ia] + sizes[plan.ib] - n1
        else:
            n1, n2, sizes = sketch_pair_counts(
                graph, plan.layer, plan.vertices, plan.ia, plan.ib, plan.epsilon, rng
            )
            backend = "sketch"

        values = debias_pair_counts(n1, n2, domain, plan.epsilon)
        upload_bytes = int(sizes.sum()) * ID_BYTES

        party = workload_party(plan.layer, k)
        ledger.charge_parallel(
            party, plan.epsilon, "randomized-response", "engine-batch-rr", count=k
        )
        comm.record(Direction.UPLOAD, upload_bytes, "engine-batch:edges")
        ledger.assert_within(ledger.limit if ledger.limit is not None else plan.epsilon)

        return EngineResult(
            layer=plan.layer,
            epsilon=plan.epsilon,
            pairs=plan.pairs,
            values=values,
            noisy_intersections=np.asarray(n1, dtype=np.int64),
            noisy_unions=np.asarray(n2, dtype=np.int64),
            vertices=plan.vertices,
            ia=plan.ia,
            ib=plan.ib,
            upload_bytes=upload_bytes,
            num_query_vertices=k,
            mode=mode,
            max_epsilon_spent=ledger.max_spent(),
            details={
                "flip_probability": flip_probability(plan.epsilon),
                "candidate_pool": domain,
                "backend": backend,
                "party": party,
                **({"shards": shard_details} if shard_details else {}),
            },
        )

    @staticmethod
    def _planner_details(vp) -> dict:
        """The ``details["planner"]`` payload for a view-planned batch."""
        return {
            "sketched_vertices": vp.num_sketched,
            "listed_vertices": vp.num_listed,
            "promoted": vp.promoted,
            "sketch_bytes_per_vertex": vp.sketch_bytes,
            "est_view_bytes": vp.est_view_bytes,
        }

    def _estimate_pairs_views(
        self,
        graph: BipartiteGraph,
        plan: WorkloadPlan,
        mode: ExecutionMode,
        sketch: SketchConfig,
        rng: np.random.Generator,
        ledger: PrivacyLedger,
        comm: CommunicationLog,
        domain: int,
        k: int,
    ) -> EngineResult:
        """One view-planned batch: sketched and listed sub-blocks side by side.

        The plan's sketch mask is pair-closed, so every pair is answered
        from exactly one view kind: sketched pairs through the family's
        debiased intersection estimator, listed pairs through the usual
        bulk-RR + pairwise + Theorem-3 pipeline. Each vertex releases
        exactly one ε-LDP view either way, so the batch privacy charge is
        unchanged. The sketch entropy is drawn from ``rng`` *before* any
        listed randomness, making the sketch bits invariant to the listed
        path's backend and sharding (and bit-reproducible per seed).

        Sketched pairs have no ``(N1, N2)`` counts; their slots carry the
        ``-1`` sentinel in ``noisy_intersections``/``noisy_unions``.
        ``details["sketch_variance"]`` carries the closed-form variance of
        each sketched pair's estimate (0 for listed pairs).
        """
        vp = plan.views
        family = sketch_family(sketch)
        sk = vp.sketch_mask
        pair_sk = sk[plan.ia]  # closure: sk[ia] == sk[ib] for every pair

        # --- sketched sub-block (entropy first: see docstring) ---------
        sk_slots = np.flatnonzero(sk)
        pos_sk = np.full(k, -1, dtype=np.int64)
        pos_sk[sk_slots] = np.arange(sk_slots.size)
        entropy = int(rng.integers(1 << 62))
        views = family.encode_release(
            graph, plan.layer, plan.vertices[sk_slots], plan.epsilon,
            entropy=entropy, epoch=0,
        )
        ia_sk = pos_sk[plan.ia[pair_sk]]
        ib_sk = pos_sk[plan.ib[pair_sk]]
        sketch_values = family.intersect(views, ia_sk, ib_sk, plan.epsilon)
        sketch_bytes = int(views.nbytes)

        # --- listed sub-block ------------------------------------------
        listed_slots = np.flatnonzero(~sk)
        pos_li = np.full(k, -1, dtype=np.int64)
        pos_li[listed_slots] = np.arange(listed_slots.size)
        ia_li = pos_li[plan.ia[~pair_sk]]
        ib_li = pos_li[plan.ib[~pair_sk]]
        n1 = np.full(plan.num_pairs, -1, dtype=np.int64)
        n2 = np.full(plan.num_pairs, -1, dtype=np.int64)
        values = np.empty(plan.num_pairs, dtype=np.float64)
        values[pair_sk] = sketch_values
        listed_bytes = 0
        shard_details = None
        backend = "sketch-view"
        if listed_slots.size:
            listed = plan.vertices[listed_slots]
            if self.sharding:
                runner = self._shard_runner(graph, plan.layer)
                shard_plan = plan_shards(
                    graph, plan.layer, listed, plan.epsilon,
                    shards=self._plan_shard_count(runner),
                    mem_bytes=self.shard_mem_bytes,
                )
                workload = runner.run_workload(
                    shard_plan, plan.epsilon,
                    entropy=int(rng.integers(1 << 62)), epoch=0,
                    ia=ia_li, ib=ib_li, domain=domain,
                )
                sizes = workload.sizes
                li_n1 = workload.n1
                backend = "sketch-view+sharded"
                shard_details = {
                    "count": shard_plan.num_shards,
                    "mem_bytes": shard_plan.mem_bytes,
                    "draw": workload.shards,
                    "pairwise": workload.blocks,
                    "faults": workload.faults,
                    "transport": workload.transport,
                }
            else:
                sizes, li_n1, li_backend = _draw_and_count(
                    graph, plan.layer, listed, plan.epsilon, rng,
                    ia_li, ib_li, domain,
                )
                backend = f"sketch-view+{li_backend}"
            li_n2 = sizes[ia_li] + sizes[ib_li] - li_n1
            n1[~pair_sk] = li_n1
            n2[~pair_sk] = li_n2
            values[~pair_sk] = debias_pair_counts(
                li_n1, li_n2, domain, plan.epsilon
            )
            # Every listed vertex uploads its full noisy row regardless of
            # where it was reduced, so sizes (not a fragment's columns)
            # are the honest upload accounting.
            listed_bytes = int(sizes.sum()) * ID_BYTES

        # Closed-form variance of every sketched estimate (listed slots 0),
        # from the family's conservative bound at the estimated degrees.
        deg_hat = np.clip(family.cardinality(views, plan.epsilon), 0.0, None)
        variance = np.zeros(plan.num_pairs, dtype=np.float64)
        variance[pair_sk] = family.intersection_variance(
            deg_hat[ia_sk], deg_hat[ib_sk],
            np.clip(sketch_values, 0.0, None), plan.epsilon,
        )

        upload_bytes = listed_bytes + sketch_bytes
        party = workload_party(plan.layer, k)
        # Every vertex — sketched or listed — releases exactly one ε-LDP
        # view, so the batch charge is the same parallel composition as
        # the all-materialized path.
        ledger.charge_parallel(
            party, plan.epsilon, "randomized-response", "engine-batch-rr", count=k
        )
        comm.record(Direction.UPLOAD, upload_bytes, "engine-batch:views")
        ledger.assert_within(
            ledger.limit if ledger.limit is not None else plan.epsilon
        )

        return EngineResult(
            layer=plan.layer,
            epsilon=plan.epsilon,
            pairs=plan.pairs,
            values=values,
            noisy_intersections=n1,
            noisy_unions=n2,
            vertices=plan.vertices,
            ia=plan.ia,
            ib=plan.ib,
            upload_bytes=upload_bytes,
            num_query_vertices=k,
            mode=mode,
            max_epsilon_spent=ledger.max_spent(),
            details={
                "flip_probability": flip_probability(plan.epsilon),
                "candidate_pool": domain,
                "backend": backend,
                "party": party,
                "planner": {
                    **self._planner_details(vp),
                    "sketch_kind": sketch.kind,
                    "sketch_buckets": sketch.m,
                    "sketch_pairs": int(np.count_nonzero(pair_sk)),
                    "listed_pairs": int(np.count_nonzero(~pair_sk)),
                },
                "sketch_entropy": entropy,
                "sketch_variance": variance,
                **({"shards": shard_details} if shard_details else {}),
            },
        )

    def _estimate_pairs_cached(
        self,
        graph: BipartiteGraph,
        plan: WorkloadPlan,
        mode: ExecutionMode,
        cache: "NoisyViewCache",
        rng: np.random.Generator,
        ledger: PrivacyLedger,
        comm: CommunicationLog,
        domain: int,
        k: int,
    ) -> EngineResult:
        """One serving tick: perturb and charge only the cache misses.

        Materialize mode splits the plan's distinct vertex block into
        cached/uncached halves — the uncached block passes through one
        bulk RR draw and joins the cache, then the whole tick is answered
        from cached rows (so a pair repeated within the epoch gets a
        bit-identical estimate). Sketch mode is pair-granular: repeated
        pairs replay their cached ``(N1, N2)`` draw; new pairs draw fresh
        statistics and recharge their endpoints (documented sketch-mode
        honesty: without a stored list there is nothing to reuse).
        """
        accountant = cache.accountant
        recharges_before = cache.stats.recharges
        if mode is ExecutionMode.MATERIALIZE:
            split = split_cached(plan, cache.vertex_cached_mask(plan.vertices))
            # Only vertices never drawn this epoch are charged: a bounded
            # cache reconstructs evicted views deterministically, so their
            # redraw is privacy-free. Charge *before* drawing: a refused
            # charge (epoch allowance, ledger limit) must leave no stored
            # view behind, or later queries would ride the uncharged draw
            # for free.
            charged = cache.uncharged(split.uncached)
            party = accountant.charge_vertices(
                plan.layer, charged, plan.epsilon,
                "randomized-response", "serve-rr", ledger=ledger,
            )
            fresh_bytes = 0
            cache.last_shard_draw = []
            cache.last_shard_faults = {}
            if split.num_uncached:
                fresh_bytes = cache.materialize_fresh(split.uncached, rng) * ID_BYTES
            indptr, columns = cache.gather_views(plan.vertices)
            sizes = np.diff(indptr)
            backend = choose_backend(k, plan.num_pairs, domain)
            packed = (
                cache.packed_matrix(plan.vertices) if backend == "bitset" else None
            )
            n1 = pairwise_intersections(
                indptr, columns, plan.ia, plan.ib, domain,
                backend=backend, packed=packed,
            )
            n2 = sizes[plan.ia] + sizes[plan.ib] - n1
            hits, misses = split.num_cached, split.num_uncached
            cache.stats.vertex_hits += hits
            cache.stats.vertex_misses += misses
            values = None
        elif mode is ExecutionMode.SKETCH_VIEW:
            # Vertex-granular like materialize: a resident sketch view is
            # reused bit for bit, only never-drawn vertices are charged,
            # and evicted views reconstruct from their keyed streams.
            split = split_cached(
                plan, cache.sketch_view_cached_mask(plan.vertices)
            )
            charged = cache.uncharged(split.uncached)
            party = accountant.charge_vertices(
                plan.layer, charged, plan.epsilon,
                "randomized-response", "serve-rr", ledger=ledger,
            )
            fresh_bytes = 0
            if split.num_uncached:
                fresh_bytes = cache.sketch_view_fresh(split.uncached, rng)
            views = cache.gather_sketch_views(plan.vertices)
            family = sketch_family(cache.sketch)
            values = family.intersect(views, plan.ia, plan.ib, plan.epsilon)
            n1 = np.full(plan.num_pairs, -1, dtype=np.int64)
            n2 = np.full(plan.num_pairs, -1, dtype=np.int64)
            backend = "sketch-view"
            hits, misses = split.num_cached, split.num_uncached
            cache.stats.vertex_hits += hits
            cache.stats.vertex_misses += misses
        else:
            keys = pair_keys(plan)
            hit_mask = np.fromiter(
                (cache.has_pair(a, b) for a, b in keys),
                dtype=bool,
                count=plan.num_pairs,
            )
            backend = "sketch"
            fresh_bytes = 0
            charged = np.empty(0, dtype=np.int64)
            party = None
            if not hit_mask.all():
                # Unique missed keys: a pair repeated within the tick draws
                # once and every occurrence replays that stored draw. Only
                # pairs never drawn this epoch recharge their endpoints —
                # a bounded cache replays evicted pairs deterministically.
                miss_keys = np.unique(keys[~hit_mask], axis=0)
                new_keys = cache.unseen_pairs(miss_keys)
                verts = (
                    np.unique(new_keys)
                    if new_keys.size
                    else np.empty(0, dtype=np.int64)
                )
                # As above: the charge must precede the draw so a refusal
                # leaves no uncharged cached statistics behind.
                party = accountant.charge_vertices(
                    plan.layer, verts, plan.epsilon,
                    "randomized-response", "serve-rr", ledger=ledger,
                )
                _, _, upload_ids = cache.sketch_fresh(miss_keys, rng)
                fresh_bytes = upload_ids * ID_BYTES
                charged = verts
            counts = [cache.pair_counts(a, b) for a, b in keys]
            n1 = np.array([c[0] for c in counts], dtype=np.int64)
            n2 = np.array([c[1] for c in counts], dtype=np.int64)
            hits = int(hit_mask.sum())
            misses = plan.num_pairs - hits
            cache.stats.pair_hits += hits
            cache.stats.pair_misses += misses
            values = None

        if values is None:
            values = debias_pair_counts(n1, n2, domain, plan.epsilon)
        if fresh_bytes:
            comm.record(Direction.UPLOAD, fresh_bytes, "engine-batch:edges")
        # The tick is done with its working set: enforce the LRU budget
        # (no-op on unbounded caches).
        cache.evict_to_budget()

        return EngineResult(
            layer=plan.layer,
            epsilon=plan.epsilon,
            pairs=plan.pairs,
            values=values,
            noisy_intersections=np.asarray(n1, dtype=np.int64),
            noisy_unions=np.asarray(n2, dtype=np.int64),
            vertices=plan.vertices,
            ia=plan.ia,
            ib=plan.ib,
            upload_bytes=fresh_bytes,
            num_query_vertices=k,
            mode=mode,
            max_epsilon_spent=accountant.max_lifetime_spent(),
            details={
                "flip_probability": flip_probability(plan.epsilon),
                "candidate_pool": domain,
                "backend": backend,
                "party": party,
                "cache": {
                    "epoch": cache.epoch,
                    "hits": hits,
                    "misses": misses,
                    "charged_vertices": int(charged.size),
                    # Evicted entries redrawn (privacy-free) by this tick:
                    # re-upload work the byte budget traded for memory.
                    "recharges": cache.stats.recharges - recharges_before,
                },
                **(
                    {
                        "shards": {
                            "draw": cache.last_shard_draw,
                            "faults": cache.last_shard_faults,
                        }
                    }
                    if cache.shard_runner is not None and cache.last_shard_draw
                    else {}
                ),
            },
        )

    def _resolve_mode(
        self, graph: BipartiteGraph, layer: Layer, mode: ExecutionMode | None
    ) -> ExecutionMode:
        return resolve_mode(graph, layer, mode if mode is not None else self.mode)
