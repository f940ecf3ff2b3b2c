"""Statistical correctness harness for the bulk RR path and served queries.

Three layers of evidence, all seeded so runs are reproducible:

1. **Distributional** — chi-square goodness-of-fit of the engine's bulk
   RR output (stacked kept-mask + geometric-gap complement sampling, and
   the packed rows' full-tape XOR flip mask) against the enumerated
   per-bit RR law over small universes, and of the
   materialize/sketch pairwise ``N1`` samples against the exact
   4-binomial-convolution law.
2. **Cache determinism** — within one epoch a cache hit replays the
   stored draw bit for bit, whatever the engine's rng state.
3. **Moments** — over >= 200 served trials (fresh epoch each), the mean
   estimate sits inside the CI of the exact count and the empirical
   variance matches the paper's closed-form ``Var[f̃2]`` (Theorem 4), in
   both materialize and sketch modes.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.analysis.loss import oner_variance
from repro.engine.bulkrr import (
    bulk_randomized_response,
    keyed_bulk_randomized_response,
    packed_randomized_response,
)
from repro.engine.core import BatchQueryEngine
from repro.engine.pairwise import pairwise_intersections
from repro.engine.sketch import sketch_pair_counts
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.privacy.mechanisms import flip_probability
from repro.protocol.session import ExecutionMode
from repro.serving import NoisyViewCache, QueryServer

MODES = (ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH)
P_FLOOR = 1e-4  # a correct implementation fails a seeded run w.p. ~1e-4


def _chisquare_binned(observed: np.ndarray, expected: np.ndarray):
    """Chi-square GOF with low-expectation cells pooled into one bucket."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    keep = expected >= 5.0
    obs = list(observed[keep])
    exp = list(expected[keep])
    if not keep.all():
        obs.append(observed[~keep].sum())
        exp.append(expected[~keep].sum())
    if len(obs) < 2:  # degenerate universe: nothing to test
        return None
    return sps.chisquare(obs, exp)


# ----------------------------------------------------------------------
# 1a. Bulk RR vs. the enumerated per-bit law
# ----------------------------------------------------------------------
@st.composite
def rr_universes(draw):
    domain = draw(st.integers(min_value=2, max_value=5))
    neighbors = draw(
        st.lists(st.integers(0, domain - 1), unique=True, max_size=domain)
    )
    epsilon = draw(st.sampled_from([0.8, 1.5, 2.5]))
    return domain, tuple(sorted(neighbors)), epsilon


def _csr_outcomes(graph, trials, epsilon, rng) -> np.ndarray:
    """Report-set code (bit c = column c reported) of each sorted-list draw."""
    indptr, columns = bulk_randomized_response(
        graph, Layer.UPPER, np.zeros(trials, dtype=np.int64), epsilon, rng
    )
    segment = np.repeat(np.arange(trials), np.diff(indptr))
    return np.bincount(
        segment, weights=2.0 ** columns, minlength=trials
    ).astype(np.int64)


def _packed_outcomes(graph, trials, epsilon, rng) -> np.ndarray:
    """Report-set code of each packed-row draw (padding bits must be 0)."""
    rows = packed_randomized_response(
        graph, Layer.UPPER, np.zeros(trials, dtype=np.int64), epsilon, rng
    )
    bits = np.unpackbits(rows, axis=1)
    domain = graph.num_lower
    assert not bits[:, domain:].any()
    return bits[:, :domain].astype(np.int64) @ (1 << np.arange(domain))


class TestBulkRRLaw:
    @pytest.mark.parametrize(
        "outcomes", [_csr_outcomes, _packed_outcomes], ids=["csr", "packed"]
    )
    @seed(20260727)
    @settings(max_examples=8, deadline=None)
    @given(rr_universes())
    def test_outcome_distribution_matches_enumeration(self, outcomes, params):
        """Every one of the 2^domain report sets occurs at its exact
        product-of-per-bit-laws probability, on both draw shapes (CSR:
        kept-mask for true edges, geometric-gap complement pass for the
        flips; packed: the true bits XOR a full-tape flip mask)."""
        domain, neighbors, epsilon = params
        graph = BipartiteGraph(1, domain, [(0, v) for v in neighbors])
        trials = 4000
        rng = np.random.default_rng(
            abs(hash((domain, neighbors, epsilon))) % 2**32
        )
        # One bulk call with the vertex repeated = `trials` independent
        # draws of its noisy row, all through the vectorized path.
        observed = np.bincount(
            outcomes(graph, trials, epsilon, rng), minlength=2**domain
        )

        p = flip_probability(epsilon)
        probs = np.empty(2**domain)
        for outcome in range(2**domain):
            prob = 1.0
            for column in range(domain):
                reported = (outcome >> column) & 1
                if column in neighbors:
                    prob *= (1.0 - p) if reported else p
                else:
                    prob *= p if reported else (1.0 - p)
            probs[outcome] = prob
        result = _chisquare_binned(observed, trials * probs)
        if result is not None:
            assert result.pvalue > P_FLOOR, (
                f"bulk RR deviates from the per-bit law "
                f"(p={result.pvalue:.2e}, universe={params})"
            )


# ----------------------------------------------------------------------
# 1a'. Keyed bulk RR (the bounded cache's Philox streams) vs. the same law
# ----------------------------------------------------------------------
class TestKeyedRRLaw:
    """The keyed-stream path must satisfy the identical per-bit RR law.

    Keyed draws are deterministic per ``(entropy, epoch, vertex)``, so
    independent samples come from *distinct vertices*: the graph holds
    ``trials`` upper vertices sharing one neighbor pattern, and one keyed
    block draw yields ``trials`` independent noisy lists.
    """

    TRIALS = 4000

    @pytest.mark.parametrize(
        "domain,neighbors,epsilon",
        [(3, (0, 2), 1.5), (4, (1,), 0.8), (5, (0, 1, 3, 4), 2.5)],
    )
    def test_outcome_distribution_matches_enumeration(
        self, domain, neighbors, epsilon
    ):
        trials = self.TRIALS
        graph = BipartiteGraph(
            trials, domain, [(t, v) for t in range(trials) for v in neighbors]
        )
        indptr, columns = keyed_bulk_randomized_response(
            graph, Layer.UPPER, np.arange(trials, dtype=np.int64), epsilon,
            entropy=abs(hash((domain, neighbors, epsilon))) % 2**62, epoch=1,
        )
        segment = np.repeat(np.arange(trials), np.diff(indptr))
        outcomes = np.bincount(
            segment, weights=2.0 ** columns, minlength=trials
        ).astype(np.int64)
        observed = np.bincount(outcomes, minlength=2**domain)

        p = flip_probability(epsilon)
        probs = np.empty(2**domain)
        for outcome in range(2**domain):
            prob = 1.0
            for column in range(domain):
                reported = (outcome >> column) & 1
                if column in neighbors:
                    prob *= (1.0 - p) if reported else p
                else:
                    prob *= p if reported else (1.0 - p)
            probs[outcome] = prob
        result = _chisquare_binned(observed, trials * probs)
        assert result is not None and result.pvalue > P_FLOOR, (
            f"keyed RR deviates from the per-bit law "
            f"(p={result.pvalue:.2e}, domain={domain}, neighbors={neighbors})"
        )


# ----------------------------------------------------------------------
# 1b. Pairwise N1 vs. the exact 4-binomial law, both execution paths
# ----------------------------------------------------------------------
def _n1_pmf(c2: int, da: int, db: int, domain: int, epsilon: float) -> np.ndarray:
    """Exact law of the noisy intersection: the convolution of the four
    candidate-class binomials (both report / a only / b only / neither)."""
    p = flip_probability(epsilon)
    q = 1.0 - p
    pmf = np.ones(1)
    for count, prob in (
        (c2, q * q),
        (da - c2, q * p),
        (db - c2, p * q),
        (domain - da - db + c2, p * p),
    ):
        pmf = np.convolve(pmf, sps.binom.pmf(np.arange(count + 1), count, prob))
    return pmf


@pytest.fixture(scope="module")
def overlap_graph():
    """Two upper vertices with da=8, db=6, c2=4 over a 30-wide pool."""
    edges = [(0, v) for v in range(8)] + [(1, v) for v in range(4)] + [
        (1, v) for v in range(20, 22)
    ]
    return BipartiteGraph(2, 30, edges)


class TestPairwiseN1Law:
    TRIALS = 3000
    EPSILON = 1.5

    def _expected(self, graph):
        return self.TRIALS * _n1_pmf(4, 8, 6, 30, self.EPSILON)

    def test_materialized_path(self, overlap_graph):
        rng = np.random.default_rng(404)
        vertices = np.tile([0, 1], self.TRIALS)
        indptr, columns = bulk_randomized_response(
            overlap_graph, Layer.UPPER, vertices, self.EPSILON, rng
        )
        ia = np.arange(0, 2 * self.TRIALS, 2)
        n1 = pairwise_intersections(
            indptr, columns, ia, ia + 1, 30, backend="merge"
        )
        expected = self._expected(overlap_graph)
        observed = np.bincount(n1, minlength=expected.size)[: expected.size]
        result = _chisquare_binned(observed, expected)
        assert result.pvalue > P_FLOOR, f"materialize N1 law off (p={result.pvalue:.2e})"

    def test_sketch_path(self, overlap_graph):
        rng = np.random.default_rng(405)
        n1, _, _ = sketch_pair_counts(
            overlap_graph,
            Layer.UPPER,
            np.array([0, 1]),
            np.zeros(self.TRIALS, dtype=np.int64),
            np.ones(self.TRIALS, dtype=np.int64),
            self.EPSILON,
            rng,
        )
        expected = self._expected(overlap_graph)
        observed = np.bincount(n1, minlength=expected.size)[: expected.size]
        result = _chisquare_binned(observed, expected)
        assert result.pvalue > P_FLOOR, f"sketch N1 law off (p={result.pvalue:.2e})"


# ----------------------------------------------------------------------
# 2. Cache hits replay the stored draw bit for bit
# ----------------------------------------------------------------------
class TestCacheBitIdentity:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_repeat_batch_is_bit_identical_despite_fresh_rng(self, mode):
        graph = random_bipartite(40, 30, 320, rng=5)
        pairs = sample_query_pairs(graph, Layer.UPPER, 12, rng=3)
        cache = NoisyViewCache(graph, Layer.UPPER, 2.0, mode=mode)
        engine = BatchQueryEngine(mode=mode)
        first = engine.estimate_pairs(graph, Layer.UPPER, pairs, rng=1, cache=cache)
        second = engine.estimate_pairs(graph, Layer.UPPER, pairs, rng=2, cache=cache)
        np.testing.assert_array_equal(
            first.noisy_intersections, second.noisy_intersections
        )
        np.testing.assert_array_equal(first.noisy_unions, second.noisy_unions)
        np.testing.assert_array_equal(first.values, second.values)
        assert second.details["cache"]["misses"] == 0
        assert second.details["cache"]["charged_vertices"] == 0
        assert second.upload_bytes == 0

    def test_packed_rows_are_packbits_of_the_cached_rows(self):
        """The cache's per-vertex packed rows, packed in one batched pass,
        are byte-identical to ``np.packbits`` of the dense cached rows."""
        graph = random_bipartite(40, 29, 320, rng=5)
        cache = NoisyViewCache(
            graph, Layer.UPPER, 2.0, mode=ExecutionMode.MATERIALIZE
        )
        cache.materialize_fresh(np.arange(40), rng=1)
        vertices = np.array([3, 3, 0, 39, 17], dtype=np.int64)
        indptr, columns = cache.gather_views(vertices)
        dense = np.zeros((vertices.size, 29), dtype=bool)
        dense[np.repeat(np.arange(vertices.size), np.diff(indptr)), columns] = True
        packed = cache.packed_matrix(vertices)
        assert packed.dtype == np.uint8
        np.testing.assert_array_equal(packed, np.packbits(dense, axis=1))
        # Served again from the per-vertex store: still the same bytes.
        np.testing.assert_array_equal(cache.packed_matrix(vertices), packed)

    def test_sketch_cache_is_symmetric_in_pair_order(self):
        graph = random_bipartite(30, 25, 200, rng=11)
        cache = NoisyViewCache(
            graph, Layer.UPPER, 2.0, mode=ExecutionMode.SKETCH
        )
        engine = BatchQueryEngine(mode=ExecutionMode.SKETCH)
        from repro.graph.sampling import QueryPair

        ab = engine.estimate_pairs(
            graph, Layer.UPPER, [QueryPair(Layer.UPPER, 3, 7)], rng=1, cache=cache
        )
        ba = engine.estimate_pairs(
            graph, Layer.UPPER, [QueryPair(Layer.UPPER, 7, 3)], rng=2, cache=cache
        )
        assert float(ab.values[0]) == float(ba.values[0])
        assert ba.details["cache"]["hits"] == 1

    def test_rotation_redraws(self):
        graph = random_bipartite(40, 200, 900, rng=6)
        pairs = sample_query_pairs(graph, Layer.UPPER, 10, rng=2)
        cache = NoisyViewCache(
            graph, Layer.UPPER, 2.0, mode=ExecutionMode.MATERIALIZE
        )
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        rng = np.random.default_rng(8)
        first = engine.estimate_pairs(graph, Layer.UPPER, pairs, rng=rng, cache=cache)
        cache.rotate()
        second = engine.estimate_pairs(graph, Layer.UPPER, pairs, rng=rng, cache=cache)
        # 200-wide noisy lists over 10 pairs: identical redraws are
        # astronomically unlikely, so a fresh epoch must change something.
        assert not np.array_equal(first.noisy_intersections, second.noisy_intersections) or (
            not np.array_equal(first.noisy_unions, second.noisy_unions)
        )


# ----------------------------------------------------------------------
# 3. Served moments: unbiased mean, paper's closed-form variance
# ----------------------------------------------------------------------
def _serve_trials(graph, pair, mode, trials, epsilon, server_seed) -> np.ndarray:
    async def run():
        values = []
        async with QueryServer(
            graph, Layer.UPPER, epsilon, mode=mode, rng=server_seed
        ) as server:
            for _ in range(trials):
                estimate = await server.query(pair[0], pair[1])
                values.append(estimate.value)
                server.rotate_epoch()  # each trial draws a fresh epoch view
        return np.array(values)

    return asyncio.run(run())


class TestServedMoments:
    TRIALS = 240
    EPSILON = 2.0

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_unbiased_mean_and_theorem4_variance(self, mode):
        graph = random_bipartite(50, 40, 420, rng=9)
        degrees = graph.degrees(Layer.UPPER)
        u, w = map(int, np.argsort(degrees)[-2:])
        exact = graph.count_common_neighbors(Layer.UPPER, u, w)
        values = _serve_trials(
            graph, (u, w), mode, self.TRIALS, self.EPSILON, server_seed=77
        )
        assert values.size == self.TRIALS

        variance = oner_variance(
            self.EPSILON, 40, int(degrees[u]), int(degrees[w])
        )
        # Mean within a 4.5-sigma CI of the exact count...
        standard_error = math.sqrt(variance / self.TRIALS)
        assert abs(values.mean() - exact) < 4.5 * standard_error, (
            f"served mean {values.mean():.2f} vs exact {exact} "
            f"(SE {standard_error:.3f}, mode={mode.value})"
        )
        # ...and empirical variance within a generous band of the exact
        # closed form (relative SE of the sample variance at n=240 is
        # ~9%; the band is ~5 sigma wide on each side).
        ratio = values.var(ddof=1) / variance
        assert 0.55 < ratio < 1.6, (
            f"served variance off the closed form by x{ratio:.2f} "
            f"(mode={mode.value})"
        )


# ----------------------------------------------------------------------
# 3b. Post-mutation moments, stratified by degree
# ----------------------------------------------------------------------
class TestDegreeStratifiedAfterMutation:
    """A streaming burst must not bend the estimator's error law.

    One random mutation burst is applied through the server and rotated
    in incrementally (only the dirty vertices redraw). The served
    estimates on the *mutated* snapshot must then match Theorem 4's
    closed-form ``Var[f̃2]`` — evaluated at the post-mutation degrees —
    in every degree stratum, low and high alike. A bug that let stale
    pre-mutation draws leak into post-mutation queries would shift the
    mean; one that mixed epochs would inflate the variance.
    """

    TRIALS = 220
    EPSILON = 2.0

    def test_stratified_accuracy_after_burst(self):
        from repro.serving import sample_mutation_batch

        graph = random_bipartite(60, 40, 600, rng=15)

        async def run():
            async with QueryServer(
                graph, Layer.UPPER, self.EPSILON,
                mode=ExecutionMode.MATERIALIZE, rng=91,
            ) as server:
                inserts, deletes = sample_mutation_batch(
                    server.graph, np.random.default_rng(3), ops=24
                )
                server.mutate(inserts=inserts, deletes=deletes)
                server.rotate_epoch()
                assert server.cache.stats.incremental_rotations == 1
                mutated = server.graph
                degrees = mutated.degrees(Layer.UPPER)
                order = np.argsort(degrees)
                strata = {
                    "low": (int(order[0]), int(order[1])),
                    "high": (int(order[-1]), int(order[-2])),
                }
                results = {}
                for name, (u, w) in strata.items():
                    values = []
                    for _ in range(self.TRIALS):
                        estimate = await server.query(u, w)
                        values.append(estimate.value)
                        server.rotate_epoch()
                    results[name] = (u, w, np.array(values))
                return mutated, degrees, results

        mutated, degrees, results = asyncio.run(run())
        assert mutated is not graph  # the burst really swapped snapshots
        for name, (u, w, values) in results.items():
            exact = mutated.count_common_neighbors(Layer.UPPER, u, w)
            variance = oner_variance(
                self.EPSILON, 40, int(degrees[u]), int(degrees[w])
            )
            standard_error = math.sqrt(variance / self.TRIALS)
            assert abs(values.mean() - exact) < 4.5 * standard_error, (
                f"{name}-degree stratum mean {values.mean():.2f} vs exact "
                f"{exact} (SE {standard_error:.3f}) after mutation burst"
            )
            ratio = values.var(ddof=1) / variance
            assert 0.5 < ratio < 1.7, (
                f"{name}-degree stratum variance off the closed form "
                f"by x{ratio:.2f} after mutation burst"
            )


# ----------------------------------------------------------------------
# 4. Streaming spend: the accountant's closed form under adversarial churn
# ----------------------------------------------------------------------
class TestStreamingSpendAccounting:
    """Per-vertex spend under an adversarial repeated-update sequence.

    The incremental-rotation contract in budget terms: a vertex's
    lifetime spend is ``eps x (1 + number of incremental rotations in
    which it was dirty and then re-served)`` — the initial charge plus
    one recharge per fresh keyed stream. Clean vertices replay their
    resident streams across every rotation, charge-free, however many
    epochs pass. The sequence is adversarial two ways: one vertex's
    membership is flipped every single round (maximum recharge rate),
    while another is "updated" every round with an insert+delete pair
    that cancels inside the epoch — net nothing, so it must stay as flat
    as a vertex never touched at all.
    """

    EPSILON = 2.0
    ROUNDS = 5
    N_UP, N_LO = 24, 20

    def test_lifetime_spend_matches_closed_form(self):
        graph = random_bipartite(self.N_UP, self.N_LO, 140, rng=19)
        churn = next(  # absent edge on vertex 0: flipped every round
            (0, l) for l in range(self.N_LO) if not graph.has_edge(0, l)
        )
        decoy = next(  # absent edge on vertex 7: cancelled every round
            (7, l) for l in range(self.N_LO) if not graph.has_edge(7, l)
        )
        pairs = [(v, v + 1) for v in range(0, self.N_UP, 2)]

        async def run():
            recharges = np.zeros(self.N_UP, dtype=np.int64)
            async with QueryServer(
                graph, Layer.UPPER, self.EPSILON,
                mode=ExecutionMode.MATERIALIZE, rng=13,
            ) as server:
                for u, w in pairs:  # epoch 0: everyone charged once
                    await server.query(u, w)
                for r in range(self.ROUNDS):
                    present = server.graph.has_edge(*churn)
                    server.mutate(
                        inserts=([decoy] if present else [churn, decoy]),
                        deletes=([churn, decoy] if present else [decoy]),
                    )
                    server.rotate_epoch()
                    assert server.cache.last_rotation["incremental"]
                    dirty = server.cache.last_rotation["dirty_vertices"]
                    for u, w in pairs:  # re-serve the whole layer
                        await server.query(u, w)
                    recharges[dirty] += 1
                spend = np.array(
                    [
                        server.accountant.lifetime_spent(Layer.UPPER, v)
                        for v in range(self.N_UP)
                    ]
                )
                peak = server.accountant.max_epoch_spent()
            return recharges, spend, peak

        recharges, spend, peak = asyncio.run(run())
        # The flipped vertex recharged every round; the cancelled-update
        # decoy (and everyone else) never did.
        assert recharges[0] == self.ROUNDS
        assert recharges[1:].sum() == 0
        # Closed form, vertex by vertex.
        np.testing.assert_allclose(
            spend, self.EPSILON * (1 + recharges), rtol=1e-12
        )
        # No epoch ever charged a vertex more than once.
        assert peak == pytest.approx(self.EPSILON)
