"""Tests of the benchmark itself, at tiny scale.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from benchkit import runner  # noqa: E402
from benchkit.checks import EdgeModel, ExactCounter, pack_csr  # noqa: E402
from benchkit.spans import Target, Tracer  # noqa: E402
from benchkit.workloads import LAYER, TINY, WORKLOADS  # noqa: E402
from repro.engine import BatchQueryEngine  # noqa: E402
from repro.graph.generators import random_bipartite  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)
SECONDS = 0.6


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == runner.END_TO_END
    assert _units("per_layer") == runner.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name):
    result, checks = runner.run(name, 3, SECONDS, False, TINY)
    assert result["correct"], [c for c in checks if not c.ok]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name):
    result, checks = runner.run(name, 3, SECONDS, True, TINY)
    assert result["correct"], [c for c in checks if not c.ok]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert 0 < metrics["trace.self_share"] <= 1.01
    sharded = [k for k in metrics if k.startswith(("sharded.", "transport."))]
    sketches = [k for k in metrics if k.startswith("sketches.")]
    assert any(metrics[k] for k in sharded) == (name == "serve-churn")
    assert any(metrics[k] for k in sketches) == (name == "batch-sketch")


def test_bias_injection_trips_the_bias_check(monkeypatch):
    estimate = BatchQueryEngine.estimate_pairs

    def biased(self, *args, **kwargs):
        result = estimate(self, *args, **kwargs)
        return dataclasses.replace(result, values=result.values + 1.0)

    monkeypatch.setattr(BatchQueryEngine, "estimate_pairs", biased)
    result, checks = runner.run("batch-listed", 3, SECONDS, False, TINY)
    assert {c.name for c in checks if not c.ok} == {"unbiased_0"}
    assert not result["correct"] and result["failed"] == 1
    attempted = result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / attempted)


@pytest.mark.parametrize("name", ["batch-listed", "serve-churn"])
def test_seed_changes_inputs_not_checks(name):
    def inputs(seed):
        workload = WORKLOADS[name](TINY, seed)
        workload.setup()
        try:
            if name == "serve-churn":
                ins, dels = workload.model.batches[0]
                return np.concatenate([workload.sa, workload.sb, ins.ravel(), dels.ravel()])
            return np.concatenate(workload._uniform_pairs(64))
        finally:
            workload.shutdown()

    assert np.array_equal(inputs(5), inputs(5))
    assert not np.array_equal(inputs(5), inputs(6))
    names = []
    for seed in (5, 6):
        result, checks = runner.run(name, seed, SECONDS, False, TINY)
        assert result["correct"]
        names.append([c.name for c in checks])
    assert names[0] == names[1]


def test_replay_check_catches_a_recharge():
    workload = WORKLOADS["serve-churn"](TINY, 3)
    workload.setup()
    try:
        workload.measure(0.3)
        server = workload.server
        query = server.query
        accountant = server.accountant
        idle = next(v for v in range(server.graph.num_upper) if not accountant.epoch_spent(LAYER, v))

        async def recharging(a, b, **kwargs):
            # A charge that leaves the worst per-vertex spend unchanged.
            accountant.charge_vertices(LAYER, [idle], 1e-6)
            return await query(a, b, **kwargs)

        server.query = recharging
        check = workload.loop.run_until_complete(workload._replay_check())
    finally:
        workload.shutdown()
    assert not check.ok and "charge-free=False" in check.detail


def test_exact_counter_matches_the_graph():
    graph = random_bipartite(40, 30, 300, rng=1)
    counter = ExactCounter(pack_csr(*graph.adjacency_csr(LAYER), graph.num_lower))
    rng = np.random.default_rng(2)
    a, b = rng.integers(40, size=50), rng.integers(40, size=50)
    expected = [graph.count_common_neighbors(LAYER, int(x), int(y)) for x, y in zip(a, b)]
    assert counter.counts(a, b).tolist() == expected


def test_edge_model_snapshots_match_the_delta_path():
    # 64 lower vertices: each packed row is one whole 64-bit word, so no
    # padding copy happens and a counter that kept a view of the snapshot
    # would see every later batch.
    graph = random_bipartite(40, 64, 400, rng=1)
    model = EdgeModel(graph.edges, graph.num_upper, graph.num_lower)
    rng = np.random.default_rng(3)
    graphs = [graph]
    for _ in range(3):
        ins, dels = model.sample_batch(rng, 20)
        graphs.append(graphs[-1].apply_edge_delta(ins, dels))
    counters = {k: ExactCounter(packed) for k, packed in model.snapshots([0, 1, 2, 3])}
    a, b = rng.integers(40, size=200), rng.integers(40, size=200)
    for k, mutated in enumerate(graphs):
        expected = [mutated.count_common_neighbors(LAYER, int(x), int(y)) for x, y in zip(a, b)]
        assert counters[k].counts(a, b).tolist() == expected, k
    (_, packed), = model.snapshots([3])
    assert np.array_equal(packed, pack_csr(*graphs[-1].adjacency_csr(LAYER), graph.num_lower))


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer._wrap(inner, Target("x:inner", "inner"))
    traced_outer = tracer._wrap(outer, Target("x:outer", "outer"))
    tracer.enabled = True
    traced_outer()
    own = tracer.self_times()
    assert 0.02 <= own["inner"] < 0.03
    assert 0.01 <= own["outer"] < 0.02
    assert tracer.root_seconds() == pytest.approx(sum(own.values()))
