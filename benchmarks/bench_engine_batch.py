"""Batch query engine vs. the per-pair shared-round loop.

Times ``BatchOneRound.estimate_pairs`` (the seed per-vertex perturbation
loop with a per-pair ``np.intersect1d``) against the vectorized
``BatchQueryEngine`` at 1k / 10k / 100k query pairs on a 2k x 10k graph,
for both engine execution modes:

* ``materialize`` — same noisy-list semantics as the loop (bulk RR +
  bitset/sparse pairwise counting); an apples-to-apples vectorization win.
* ``sketch`` — the engine's scale path: sufficient statistics drawn from
  their exact distributions, never materializing a list; this is the mode
  AUTO picks beyond the materialization limit and the one that carries
  million-vertex workloads.

A second table sweeps ε ∈ {1, 2, 4, 8} at 10k pairs and times the
engine's uncached materialize call (which draws straight into packed
bitset rows) against the CSR reference it replaced: the same planning
and de-bias around the sorted-list ``bulk_randomized_response`` draw
plus ``pairwise_intersections`` with the ``bitset`` backend. The packed
draw must keep its measured margin at every ε (``SWEEP_FLOORS``).

Run directly (``python benchmarks/bench_engine_batch.py``) or via pytest
(``pytest benchmarks/bench_engine_batch.py -s``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import (
    BatchQueryEngine,
    bulk_randomized_response,
    debias_pair_counts,
    pairwise_intersections,
    plan_workload,
)
from repro.estimators.batch import BatchOneRound
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.privacy.rng import spawn_rngs
from repro.protocol.session import ExecutionMode

N_UPPER, N_LOWER, N_EDGES = 2000, 10_000, 60_000
PAIR_COUNTS = (1_000, 10_000, 100_000)
EPSILON = 2.0
SWEEP_PAIRS = 10_000
SWEEP_EPSILONS = (1.0, 2.0, 4.0, 8.0)
SWEEP_REPEATS = 7
# Speedup floors, 20% under the lowest of six measured sweeps (2 vCPU,
# NumPy 2.4, best of 7 alternating calls): ε=1 3.3-3.6x, ε=2 2.9-3.1x,
# ε=4 1.6-1.8x, ε=8 0.95-0.98x. At ε=8 this 0.3%-dense graph flips so few
# cells that the CSR draw costs no more than the packed one's full-tape
# mask; that floor guards the tie rather than a win.
SWEEP_FLOORS = {1.0: 2.6, 2.0: 2.3, 4.0: 1.25, 8.0: 0.75}


def _time(fn, repeats=2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_engine_batch_comparison() -> tuple[str, dict[int, dict[str, float]]]:
    graph = random_bipartite(N_UPPER, N_LOWER, N_EDGES, rng=20250622)
    loop = BatchOneRound()
    engine = BatchQueryEngine()
    rngs = iter(spawn_rngs(7, 6 * len(PAIR_COUNTS)))

    rows: dict[int, dict[str, float]] = {}
    lines = [
        f"batch C2 workloads on a {N_UPPER} x {N_LOWER} graph "
        f"({N_EDGES} edges), epsilon={EPSILON}",
        f"{'pairs':>8} {'loop[s]':>9} {'engine-mat[s]':>14} {'x':>6} "
        f"{'engine-sketch[s]':>17} {'x':>7}",
    ]
    for count in PAIR_COUNTS:
        pairs = sample_query_pairs(graph, Layer.UPPER, count, rng=count)
        t_loop = _time(
            lambda: loop.estimate_pairs(graph, Layer.UPPER, pairs, EPSILON, rng=next(rngs))
        )
        mat_result = {}
        t_mat = _time(
            lambda: mat_result.update(
                r=engine.estimate_pairs(
                    graph, Layer.UPPER, pairs, EPSILON, rng=next(rngs),
                    mode=ExecutionMode.MATERIALIZE,
                )
            )
        )
        t_sketch = _time(
            lambda: engine.estimate_pairs(
                graph, Layer.UPPER, pairs, EPSILON, rng=next(rngs),
                mode=ExecutionMode.SKETCH,
            )
        )
        assert mat_result["r"].max_epsilon_spent <= EPSILON + 1e-9
        rows[count] = {
            "loop": t_loop,
            "materialize": t_mat,
            "sketch": t_sketch,
            "speedup_materialize": t_loop / t_mat,
            "speedup_sketch": t_loop / t_sketch,
        }
        lines.append(
            f"{count:>8} {t_loop:>9.3f} {t_mat:>14.3f} "
            f"{t_loop / t_mat:>5.1f}x {t_sketch:>17.3f} "
            f"{t_loop / t_sketch:>6.1f}x"
        )

    mid = rows[10_000]
    lines.append(
        f"\n10k-pair acceptance: engine sketch path "
        f"{mid['speedup_sketch']:.1f}x over the seed loop "
        f"(materialized path {mid['speedup_materialize']:.1f}x)"
    )
    return "\n".join(lines), rows


def run_epsilon_sweep() -> tuple[str, dict[float, dict[str, float]]]:
    """Engine materialize call vs the CSR draw + bitset count, per ε."""
    graph = random_bipartite(N_UPPER, N_LOWER, N_EDGES, rng=20250622)
    pairs = sample_query_pairs(graph, Layer.UPPER, SWEEP_PAIRS, rng=SWEEP_PAIRS)
    engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
    rngs = iter(spawn_rngs(11, 2 * SWEEP_REPEATS * len(SWEEP_EPSILONS)))
    rows: dict[float, dict[str, float]] = {}
    lines = [
        f"uncached materialize at {SWEEP_PAIRS} pairs on a {N_UPPER} x "
        f"{N_LOWER} graph: engine (packed draw) vs CSR draw + bitset count",
        f"{'epsilon':>8} {'csr[s]':>9} {'engine[s]':>10} {'x':>6}",
    ]
    for epsilon in SWEEP_EPSILONS:

        def csr_reference(rng):
            plan = plan_workload(graph, Layer.UPPER, pairs, epsilon)
            indptr, columns = bulk_randomized_response(
                graph, Layer.UPPER, plan.vertices, epsilon, rng
            )
            n1 = pairwise_intersections(
                indptr, columns, plan.ia, plan.ib, N_LOWER, backend="bitset"
            )
            sizes = np.diff(indptr)
            n2 = sizes[plan.ia] + sizes[plan.ib] - n1
            debias_pair_counts(n1, n2, N_LOWER, epsilon)

        def packed_engine(rng):
            result = engine.estimate_pairs(graph, Layer.UPPER, pairs, epsilon, rng=rng)
            assert result.details["backend"] == "bitset"

        # Alternate the two calls so a slow spell of the host hits both.
        t_csr = t_engine = float("inf")
        for _ in range(SWEEP_REPEATS):
            t_csr = min(t_csr, _time(lambda: csr_reference(next(rngs)), repeats=1))
            t_engine = min(t_engine, _time(lambda: packed_engine(next(rngs)), repeats=1))
        rows[epsilon] = {"csr": t_csr, "engine": t_engine, "speedup": t_csr / t_engine}
        lines.append(
            f"{epsilon:>8.1f} {t_csr:>9.3f} {t_engine:>10.3f} {t_csr / t_engine:>5.2f}x"
        )
    return "\n".join(lines), rows


def test_engine_batch_speedup(emit):
    text, rows = run_engine_batch_comparison()
    emit("engine_batch", text)

    for count, row in rows.items():
        # Sanity: everything produced estimates in sane time.
        assert row["loop"] > 0 and row["materialize"] > 0 and row["sketch"] > 0
    mid = rows[10_000]
    # The engine's list-free path carries the >= 10x acceptance bar; the
    # mode-matched materialized path must also win outright.
    assert mid["speedup_sketch"] >= 10.0
    assert mid["speedup_materialize"] >= 1.2


def test_packed_draw_wins_at_every_epsilon(emit):
    text, rows = run_epsilon_sweep()
    emit("engine_batch_epsilon_sweep", text)
    for epsilon, row in rows.items():
        assert row["speedup"] >= SWEEP_FLOORS[epsilon], (epsilon, row)


if __name__ == "__main__":
    text, _ = run_engine_batch_comparison()
    print(text)
    print()
    text, _ = run_epsilon_sweep()
    print(text)
