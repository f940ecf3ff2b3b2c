"""Tests for the vectorized batch query engine.

The engine must reproduce ``BatchOneRound``'s estimates distributionally
(same per-pair mean and variance — the RNG streams differ, so bit-for-bit
equality is not expected), stay unbiased on the sketch path, agree across
all counting backends, and keep the batch accounting within budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.ingredients import batch_pair_ingredients
from repro.engine import bulkrr
from repro.engine import (
    BatchQueryEngine,
    bernoulli_hits,
    bulk_randomized_response,
    pack_rows,
    packed_randomized_response,
    pairwise_intersections,
    plan_workload,
)
from repro.errors import GraphError, PrivacyError, ProtocolError
from repro.estimators.batch import BatchOneRound
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair, sample_query_pairs
from repro.privacy.composition import QueryBudgetManager
from repro.privacy.mechanisms import RandomizedResponse
from repro.privacy.rng import spawn_rngs
from repro.protocol.session import ExecutionMode


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(40, 60, 450, rng=77)


@pytest.fixture(scope="module")
def workload(graph):
    return sample_query_pairs(graph, Layer.UPPER, 12, rng=5)


@pytest.fixture(scope="module")
def truths(graph, workload):
    return np.array(
        [graph.count_common_neighbors(Layer.UPPER, p.a, p.b) for p in workload]
    )


class TestPlanner:
    def test_dedupes_vertices_and_maps_slots(self, graph):
        pairs = [
            QueryPair(Layer.UPPER, 3, 7),
            QueryPair(Layer.UPPER, 7, 3),
            QueryPair(Layer.UPPER, 3, 9),
        ]
        plan = plan_workload(graph, Layer.UPPER, pairs, 1.0)
        assert plan.vertices.tolist() == [3, 7, 9]
        assert plan.vertices[plan.ia].tolist() == [3, 7, 3]
        assert plan.vertices[plan.ib].tolist() == [7, 3, 9]

    def test_empty_workload_rejected(self, graph):
        with pytest.raises(ProtocolError):
            plan_workload(graph, Layer.UPPER, [], 1.0)

    def test_wrong_layer_rejected(self, graph):
        with pytest.raises(ProtocolError):
            plan_workload(graph, Layer.UPPER, [QueryPair(Layer.LOWER, 0, 1)], 1.0)

    def test_out_of_range_vertex_rejected(self, graph):
        with pytest.raises(GraphError):
            plan_workload(graph, Layer.UPPER, [QueryPair(Layer.UPPER, 0, 10_000)], 1.0)

    def test_needs_exactly_one_funding_source(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, 1)]
        manager = QueryBudgetManager(4.0, policy="uniform", num_queries=2)
        with pytest.raises(PrivacyError):
            plan_workload(graph, Layer.UPPER, pairs)
        with pytest.raises(PrivacyError):
            plan_workload(graph, Layer.UPPER, pairs, 1.0, budget=manager)

    def test_budget_manager_slices(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, 1)]
        manager = QueryBudgetManager(4.0, policy="uniform", num_queries=2)
        plan_a = plan_workload(graph, Layer.UPPER, pairs, budget=manager)
        plan_b = plan_workload(graph, Layer.UPPER, pairs, budget=manager)
        assert plan_a.epsilon == pytest.approx(2.0)
        assert plan_b.epsilon == pytest.approx(2.0)
        assert manager.remaining == pytest.approx(0.0)


def _csr_rows(graph, vertices, epsilon, rng) -> list[np.ndarray]:
    """Noisy rows of ``vertices`` from the sorted-list (CSR) draw."""
    indptr, cols = bulk_randomized_response(graph, Layer.UPPER, vertices, epsilon, rng)
    return [cols[indptr[i] : indptr[i + 1]] for i in range(vertices.size)]


def _packed_rows(graph, vertices, epsilon, rng) -> list[np.ndarray]:
    """Noisy rows of ``vertices`` from the packed-bitset draw, unpacked."""
    rows = packed_randomized_response(graph, Layer.UPPER, vertices, epsilon, rng)
    bits = np.unpackbits(rows, axis=1, count=graph.num_lower)
    return [np.flatnonzero(row) for row in bits]


DRAWS = pytest.mark.parametrize("draw", [_csr_rows, _packed_rows], ids=["csr", "packed"])


class TestBulkRandomizedResponse:
    def test_rows_sorted_unique_in_domain(self, graph):
        vertices = np.arange(graph.num_upper)
        indptr, cols = bulk_randomized_response(graph, Layer.UPPER, vertices, 1.0, rng=3)
        assert indptr[-1] == cols.size
        for i in range(vertices.size):
            row = cols[indptr[i] : indptr[i + 1]]
            if row.size:
                assert (np.diff(row) > 0).all()
                assert row[0] >= 0 and row[-1] < graph.num_lower

    @DRAWS
    def test_matches_per_vertex_distribution(self, graph, draw):
        """Row-size mean/variance agree with perturb_neighbor_list."""
        rr = RandomizedResponse(1.0)
        vertices = np.arange(20)
        bulk_rng, ref_rng = np.random.default_rng(1), np.random.default_rng(2)
        trials = 400
        bulk_sizes = np.empty((trials, vertices.size))
        ref_sizes = np.empty((trials, vertices.size))
        for t in range(trials):
            bulk_sizes[t] = [
                row.size for row in draw(graph, vertices, 1.0, bulk_rng)
            ]
            ref_sizes[t] = [
                rr.perturb_neighbor_list(
                    graph.neighbors(Layer.UPPER, v), graph.num_lower, ref_rng
                ).size
                for v in vertices
            ]
        se = np.sqrt(
            bulk_sizes.var(axis=0) / trials + ref_sizes.var(axis=0) / trials
        )
        diff = np.abs(bulk_sizes.mean(axis=0) - ref_sizes.mean(axis=0))
        assert (diff < 5.0 * se + 1e-9).all()
        ratio = bulk_sizes.var(axis=0, ddof=1) / ref_sizes.var(axis=0, ddof=1)
        assert (0.6 < ratio).all() and (ratio < 1.7).all()

    @DRAWS
    def test_huge_epsilon_returns_true_rows(self, graph, draw):
        vertices = np.arange(10)
        rows = draw(graph, vertices, 60.0, np.random.default_rng(1))
        for row, v in zip(rows, vertices):
            np.testing.assert_array_equal(row, graph.neighbors(Layer.UPPER, v))

    def test_empty_vertex_list(self, graph):
        indptr, cols = bulk_randomized_response(
            graph, Layer.UPPER, np.empty(0, dtype=np.int64), 1.0, rng=0
        )
        assert indptr.tolist() == [0] and cols.size == 0

    def test_out_of_range_vertex(self, graph):
        with pytest.raises(GraphError):
            bulk_randomized_response(graph, Layer.UPPER, np.array([999]), 1.0, rng=0)
        with pytest.raises(GraphError):
            packed_randomized_response(graph, Layer.UPPER, np.array([999]), 1.0, rng=0)


class TestPackedRows:
    @pytest.mark.parametrize("domain", [1, 7, 8, 13, 64, 301])
    def test_pack_rows_is_packbits_of_the_dense_rows(self, domain):
        rng = np.random.default_rng(domain)
        rows = 25
        lengths = rng.integers(0, domain + 1, rows)
        lengths[3] = 0  # an empty row among full ones
        columns = np.concatenate(
            [np.sort(rng.choice(domain, n, replace=False)) for n in lengths]
        ).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        dense = np.zeros((rows, domain), dtype=bool)
        dense[np.repeat(np.arange(rows), lengths), columns] = True
        packed = pack_rows(indptr, columns, domain)
        assert packed.dtype == np.uint8
        np.testing.assert_array_equal(packed, np.packbits(dense, axis=1))

    def test_pack_rows_degenerate_shapes(self):
        empty = pack_rows(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), 9)
        assert empty.shape == (0, 2)
        zero_width = pack_rows(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
        assert zero_width.shape == (3, 1) and not zero_width.any()

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_padding_bits_stay_zero_and_sizes_are_popcounts(self, graph, epsilon):
        """A 60-column domain leaves 4 padding bits per row: they stay 0,
        so the engine's popcount row sizes equal the unpacked row sizes."""
        assert graph.num_lower % 8
        vertices = np.tile(np.arange(graph.num_upper), 5)
        rows = packed_randomized_response(
            graph, Layer.UPPER, vertices, epsilon, np.random.default_rng(4)
        )
        assert rows.shape == (vertices.size, (graph.num_lower + 7) // 8)
        bits = np.unpackbits(rows, axis=1)
        assert not bits[:, graph.num_lower :].any()
        sizes = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        np.testing.assert_array_equal(sizes, bits[:, : graph.num_lower].sum(axis=1))

    def test_row_chunks_draw_independent_masks(self):
        """Rows past the first ~2 MiB chunk get fresh mask cells: every
        pair of rows disagrees on ~2p(1-p) of the cells, within and
        across chunks."""
        domain = bulkrr._MASK_CHUNK_CELLS // 4  # four rows per chunk
        graph = BipartiteGraph(1, domain, [(0, c) for c in range(0, domain, 3)])
        rows = packed_randomized_response(
            graph, Layer.UPPER, np.zeros(10, dtype=np.int64), 1.0,
            np.random.default_rng(6),
        )
        p = RandomizedResponse(1.0).flip_probability
        expected = 2.0 * p * (1.0 - p) * domain
        for i in range(rows.shape[0]):
            for j in range(i):
                differ = int(np.bitwise_count(rows[i] ^ rows[j]).sum())
                assert abs(differ - expected) < 6.0 * np.sqrt(expected)

    def test_empty_vertex_list(self, graph):
        rows = packed_randomized_response(
            graph, Layer.UPPER, np.empty(0, dtype=np.int64), 1.0, rng=0
        )
        assert rows.shape == (0, (graph.num_lower + 7) // 8)

    def test_bitset_batches_never_draw_lists(self, graph, workload, monkeypatch):
        """An uncached, unsharded bitset batch takes the packed draw only."""
        import repro.engine.core as core

        def no_lists(*_args, **_kwargs):
            raise AssertionError("CSR draw on a bitset batch")

        monkeypatch.setattr(core, "bulk_randomized_response", no_lists)
        result = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE).estimate_pairs(
            graph, Layer.UPPER, workload, 2.0, rng=1
        )
        assert result.details["backend"] == "bitset"

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    def test_engine_counts_match_the_csr_draw(self, graph, workload, epsilon):
        """Two-sample check of the engine's packed branch against the CSR
        draw + bitset count: per-pair N1/N2 means and variances agree
        within 5 standard errors."""
        plan = plan_workload(graph, Layer.UPPER, workload, epsilon)
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        engine_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(22)
        trials = 400
        got = np.empty((2, trials, plan.num_pairs))
        ref = np.empty((2, trials, plan.num_pairs))
        for t in range(trials):
            result = engine.estimate_pairs(
                graph, Layer.UPPER, workload, epsilon, rng=engine_rng
            )
            assert result.details["backend"] == "bitset"
            got[:, t] = result.noisy_intersections, result.noisy_unions
            indptr, cols = bulk_randomized_response(
                graph, Layer.UPPER, plan.vertices, epsilon, ref_rng
            )
            n1 = pairwise_intersections(
                indptr, cols, plan.ia, plan.ib, graph.num_lower, backend="bitset"
            )
            sizes = np.diff(indptr)
            ref[:, t] = n1, sizes[plan.ia] + sizes[plan.ib] - n1
        for a, b in zip(got, ref):
            se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / trials)
            assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se + 1e-9).all()
            sq_a = (a - a.mean(axis=0)) ** 2
            sq_b = (b - b.mean(axis=0)) ** 2
            se_var = np.sqrt((sq_a.var(axis=0) + sq_b.var(axis=0)) / trials)
            diff_var = np.abs(sq_a.mean(axis=0) - sq_b.mean(axis=0))
            assert (diff_var <= 5.0 * se_var + 1e-9).all()


class TestBernoulliHits:
    def test_moments(self):
        rng = np.random.default_rng(0)
        p, cells, trials = 0.2, 500, 800
        counts = np.array([bernoulli_hits(cells, p, rng).size for _ in range(trials)])
        assert counts.mean() == pytest.approx(cells * p, abs=5 * np.sqrt(cells * p / trials))
        occupancy = np.zeros(cells)
        for _ in range(200):
            occupancy[bernoulli_hits(cells, p, rng)] += 1
        assert occupancy.mean() == pytest.approx(200 * p, rel=0.1)

    def test_positions_sorted_distinct(self):
        rng = np.random.default_rng(1)
        hits = bernoulli_hits(10_000, 0.4, rng)
        assert (np.diff(hits) > 0).all()
        assert hits[0] >= 0 and hits[-1] < 10_000

    def test_tiny_p_and_empty(self):
        rng = np.random.default_rng(2)
        assert bernoulli_hits(0, 0.3, rng).size == 0
        assert bernoulli_hits(100, 0.0, rng).size == 0
        assert bernoulli_hits(1000, 1e-21, rng).size in (0, 1, 2)


class TestPairwiseBackends:
    @pytest.fixture(scope="class")
    def csr_and_pairs(self, graph):
        pairs = sample_query_pairs(graph, Layer.UPPER, 40, rng=9)
        plan = plan_workload(graph, Layer.UPPER, pairs, 2.0)
        indptr, cols = bulk_randomized_response(
            graph, Layer.UPPER, plan.vertices, 2.0, np.random.default_rng(11)
        )
        return indptr, cols, plan

    @pytest.mark.parametrize("backend", ["bitset", "sparse", "merge"])
    def test_backends_agree_with_reference(self, csr_and_pairs, graph, backend):
        indptr, cols, plan = csr_and_pairs
        got = pairwise_intersections(
            indptr, cols, plan.ia, plan.ib, graph.num_lower, backend=backend
        )
        expected = [
            np.intersect1d(
                cols[indptr[a] : indptr[a + 1]],
                cols[indptr[b] : indptr[b + 1]],
                assume_unique=True,
            ).size
            for a, b in zip(plan.ia, plan.ib)
        ]
        assert got.tolist() == expected

    def test_empty_rows(self):
        indptr = np.array([0, 0, 2], dtype=np.int64)
        cols = np.array([1, 3], dtype=np.int64)
        for backend in ("bitset", "sparse", "merge"):
            got = pairwise_intersections(
                indptr, cols, np.array([0]), np.array([1]), 5, backend=backend
            )
            assert got.tolist() == [0]


class TestEngineInterface:
    def test_result_shape_and_lookup(self, graph, workload):
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=1)
        assert result.values.shape == (len(workload),)
        assert result.pairs == tuple(workload)
        assert result.value(workload[3]) == result.values[3]
        with pytest.raises(ProtocolError):
            result.value(QueryPair(Layer.UPPER, 38, 39))

    def test_deterministic(self, graph, workload):
        a = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=3)
        b = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_auto_mode_selection(self, graph, workload):
        small = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=1)
        assert small.mode is ExecutionMode.MATERIALIZE
        big = random_bipartite(50, 30_000, 2000, rng=4)
        pairs = sample_query_pairs(big, Layer.UPPER, 5, rng=5)
        result = BatchQueryEngine().estimate_pairs(big, Layer.UPPER, pairs, 2.0, rng=6)
        assert result.mode is ExecutionMode.SKETCH
        assert result.details["backend"] == "sketch"

    def test_each_vertex_charged_once(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, other) for other in (1, 2, 3, 4, 5, 6)]
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, pairs, 1.5, rng=2)
        assert result.max_epsilon_spent == pytest.approx(1.5)
        assert result.num_query_vertices == 7

    def test_budget_manager_funding(self, graph, workload):
        manager = QueryBudgetManager(6.0, policy="uniform", num_queries=3)
        engine = BatchQueryEngine()
        for _ in range(3):
            result = engine.estimate_pairs(
                graph, Layer.UPPER, workload, budget=manager, rng=1
            )
            assert result.epsilon == pytest.approx(2.0)
            assert result.max_epsilon_spent <= 2.0 + 1e-9
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            engine.estimate_pairs(graph, Layer.UPPER, workload, budget=manager, rng=1)

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH]
    )
    def test_upload_accounting(self, graph, workload, mode):
        result = BatchQueryEngine(mode=mode).estimate_pairs(
            graph, Layer.UPPER, workload, 2.0, rng=8
        )
        assert result.upload_bytes > 0
        assert result.mode is mode


class TestEngineStatistics:
    def test_huge_epsilon_recovers_truth(self, graph, workload, truths):
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 50.0, rng=6)
        np.testing.assert_allclose(result.values, truths, atol=1e-6)

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH]
    )
    def test_unbiased(self, graph, workload, truths, mode):
        """Mean/variance tolerance harness: the estimator mean must sit
        within 5 standard errors of the truth for every pair."""
        rngs = spawn_rngs(9 if mode is ExecutionMode.MATERIALIZE else 10, 900)
        sums = np.zeros(len(workload))
        squares = np.zeros(len(workload))
        engine = BatchQueryEngine(mode=mode)
        for r in rngs:
            values = engine.estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=r).values
            sums += values
            squares += values**2
        means = sums / len(rngs)
        variances = squares / len(rngs) - means**2
        se = np.sqrt(variances / len(rngs))
        assert (np.abs(means - truths) < 5 * se + 1e-9).all()

    def test_matches_batch_oner_distribution(self, graph, workload, truths):
        """The engine and BatchOneRound draw from the same distribution:
        per-pair means within pooled standard error, variances within a
        ratio band."""
        trials = 700
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        reference = BatchOneRound()
        e_rngs = spawn_rngs(21, trials)
        r_rngs = spawn_rngs(22, trials)
        e_values = np.empty((trials, len(workload)))
        r_values = np.empty((trials, len(workload)))
        for t in range(trials):
            e_values[t] = engine.estimate_pairs(
                graph, Layer.UPPER, workload, 1.5, rng=e_rngs[t]
            ).values
            r_values[t] = reference.estimate_pairs(
                graph, Layer.UPPER, workload, 1.5, rng=r_rngs[t]
            ).values
        pooled_se = np.sqrt(
            e_values.var(axis=0) / trials + r_values.var(axis=0) / trials
        )
        mean_gap = np.abs(e_values.mean(axis=0) - r_values.mean(axis=0))
        assert (mean_gap < 5.0 * pooled_se + 1e-9).all()
        ratio = e_values.var(axis=0, ddof=1) / r_values.var(axis=0, ddof=1)
        assert (0.6 < ratio).all() and (ratio < 1.7).all()

    def test_shared_vertex_errors_correlate_in_materialize(self):
        """Materialize mode reuses each vertex's noisy list across pairs,
        so errors of pairs sharing a vertex correlate when the other
        endpoints overlap (covariance = Var(phi) * C2(b, c))."""
        edges = [(0, j) for j in range(20)]
        edges += [(1, j) for j in range(5, 45)]
        edges += [(2, j) for j in range(5, 45)]
        planted = BipartiteGraph(3, 60, edges)
        pairs = [QueryPair(Layer.UPPER, 0, 1), QueryPair(Layer.UPPER, 0, 2)]
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        rngs = spawn_rngs(13, 800)
        errors = np.empty((len(rngs), 2))
        for i, r in enumerate(rngs):
            values = engine.estimate_pairs(planted, Layer.UPPER, pairs, 1.0, rng=r).values
            errors[i, 0] = values[0] - planted.count_common_neighbors(Layer.UPPER, 0, 1)
            errors[i, 1] = values[1] - planted.count_common_neighbors(Layer.UPPER, 0, 2)
        assert np.corrcoef(errors.T)[0, 1] > 0.15


class TestBatchIngredients:
    def test_per_vertex_spend_is_epsilon(self, graph, workload):
        batch = batch_pair_ingredients(graph, Layer.UPPER, workload, 2.0, rng=3)
        assert batch.max_epsilon_spent == pytest.approx(2.0)
        assert batch.epsilon_degrees + batch.epsilon_c2 == pytest.approx(2.0)
        assert batch.c2_estimates.shape == (len(workload),)
        assert batch.upload_bytes > 0

    def test_degrees_track_truth_at_high_budget(self, graph, workload):
        batch = batch_pair_ingredients(graph, Layer.UPPER, workload, 400.0, rng=4)
        true_a = [graph.degree(Layer.UPPER, p.a) for p in workload]
        np.testing.assert_allclose(batch.noisy_degrees_a, true_a, atol=1.0)

    def test_invalid_degree_fraction(self, graph, workload):
        with pytest.raises(PrivacyError):
            batch_pair_ingredients(graph, Layer.UPPER, workload, 2.0, degree_fraction=1.5)
