"""Ablations of MultiR-DS's design choices.

Three ablations beyond the paper's own Figs. 8–9:

* optimizer on/off — MultiR-DS vs DS-Basic on an imbalanced workload;
* degree-estimation spend — sweeping ε0 shows the 5% default is near the
  sweet spot between allocation quality and working-budget loss;
* degree correction on/off — replacing non-positive noisy degrees by the
  layer average must not hurt (it guards the optimizer's inputs).
"""

from __future__ import annotations

import numpy as np
from benchutil import run_once

from repro.datasets.cache import load_dataset
from repro.estimators.multir_ds import (
    MultiRoundDoubleSource,
    MultiRoundDoubleSourceBasic,
)
from repro.experiments.report import SeriesPanel
from repro.experiments.runner import evaluate_algorithms
from repro.graph.sampling import heaviest_layer, sample_imbalanced_pairs
from repro.protocol.session import ExecutionMode

DATASET = "TM"
KAPPA = 100.0


def _workload(config):
    graph = load_dataset(DATASET, config.max_edges)
    layer = heaviest_layer(graph)
    pairs = sample_imbalanced_pairs(
        graph, layer, config.num_pairs, KAPPA, rng=config.seed
    )
    return graph, pairs


def test_ablation_optimizer_on_off(benchmark, config, emit):
    def run():
        graph, pairs = _workload(config)
        return evaluate_algorithms(
            graph,
            pairs,
            [MultiRoundDoubleSourceBasic(), MultiRoundDoubleSource()],
            config.epsilon,
            rng=config.seed,
            mode=ExecutionMode.SKETCH,
        )

    stats = run_once(benchmark, run)
    panel = SeriesPanel(
        title=f"Ablation — optimizer on/off ({DATASET}, kappa={KAPPA:g})",
        x_label="variant",
        x_values=["mae"],
    )
    panel.add("multir-ds-basic (off)", [stats["multir-ds-basic"].errors.mae])
    panel.add("multir-ds (on)", [stats["multir-ds"].errors.mae])
    emit("ablation_optimizer", panel.to_text())

    # On an imbalanced workload the optimizer must pay for itself.
    assert stats["multir-ds"].errors.mae < stats["multir-ds-basic"].errors.mae


def test_ablation_eps0_sweep(benchmark, config, emit):
    fractions = (0.01, 0.05, 0.15, 0.35)

    def run():
        graph, pairs = _workload(config)
        maes = []
        for fraction in fractions:
            stats = evaluate_algorithms(
                graph,
                pairs,
                [MultiRoundDoubleSource(eps0_fraction=fraction)],
                config.epsilon,
                rng=config.seed,
                mode=ExecutionMode.SKETCH,
            )
            maes.append(stats["multir-ds"].errors.mae)
        return maes

    maes = run_once(benchmark, run)
    panel = SeriesPanel(
        title=f"Ablation — degree-round budget eps0 ({DATASET}, kappa={KAPPA:g})",
        x_label="eps0 / eps",
        x_values=list(fractions),
    )
    panel.add("multir-ds", maes)
    emit("ablation_eps0", panel.to_text())

    # Burning a third of the budget on degree estimation must be worse
    # than the paper's small default.
    default_idx = fractions.index(0.05)
    assert maes[default_idx] < maes[-1] * 1.5


def test_ablation_degree_correction(benchmark, config, emit):
    # Both variants share the registry name, so evaluate them separately.
    def run_both():
        graph, pairs = _workload(config)
        out = {}
        for label, correct in (("corrected", True), ("raw", False)):
            stats = evaluate_algorithms(
                graph,
                pairs,
                [MultiRoundDoubleSource(correct_degrees=correct)],
                config.epsilon,
                rng=config.seed,
                mode=ExecutionMode.SKETCH,
            )
            out[label] = stats["multir-ds"].errors.mae
        return out

    maes = run_once(benchmark, run_both)
    panel = SeriesPanel(
        title=f"Ablation — degree correction ({DATASET}, kappa={KAPPA:g})",
        x_label="variant",
        x_values=["mae"],
    )
    for label, mae in maes.items():
        panel.add(label, [mae])
    emit("ablation_degree_correction", panel.to_text())

    # Correction never hurts much (it only replaces unusable reports).
    assert maes["corrected"] < maes["raw"] * 1.5
