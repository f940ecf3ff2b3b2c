"""The paper's 15 KONECT datasets (Table 2) and their synthetic analogues.

The original graphs are fetched from http://konect.cc in the paper; this
environment is offline, so each dataset is synthesized as a Chung–Lu
bipartite graph with power-law weights matched to the published
``|U|, |L|, |E|``, which keeps the size, density and heavy-tailed degrees
the evaluation depends on. Synthesis is deterministic per dataset.

Datasets larger than the configured edge budget are **vertex-scaled**: both
layers shrink by a factor ``s`` and edges by ``s²``, exactly the operation
of the paper's own Fig. 11 scalability protocol (uniform vertex sampling),
which preserves graph density and degree-distribution shape.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.errors import DatasetError

__all__ = [
    "DatasetSpec",
    "ScaledSpec",
    "PAPER_DATASETS",
    "dataset_keys",
    "get_spec",
    "scaled_spec",
    "default_max_edges",
]

#: Edge budget applied when synthesizing unless overridden (env or arg).
_DEFAULT_MAX_EDGES = 400_000
_ENV_MAX_EDGES = "REPRO_MAX_EDGES"

#: Safety cap: never ask the generator for more than this grid fill.
_MAX_DENSITY = 0.30


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of one KONECT dataset (paper Table 2)."""

    key: str
    name: str
    upper_entity: str
    lower_entity: str
    paper_upper: int
    paper_lower: int
    paper_edges: int
    seed: int

    @property
    def paper_average_upper_degree(self) -> float:
        return self.paper_edges / self.paper_upper

    @property
    def paper_average_lower_degree(self) -> float:
        return self.paper_edges / self.paper_lower


@dataclass(frozen=True)
class ScaledSpec:
    """Concrete synthesis parameters after applying the edge budget."""

    spec: DatasetSpec
    n_upper: int
    n_lower: int
    num_edges: int
    vertex_fraction: float


def _spec(
    key: str,
    name: str,
    upper_entity: str,
    lower_entity: str,
    edges: int,
    upper: int,
    lower: int,
    seed: int,
) -> DatasetSpec:
    return DatasetSpec(
        key=key,
        name=name,
        upper_entity=upper_entity,
        lower_entity=lower_entity,
        paper_upper=upper,
        paper_lower=lower,
        paper_edges=edges,
        seed=seed,
    )


#: Table 2 of the paper, in presentation order.
PAPER_DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in (
        _spec("RM", "rmwiki", "User", "Article", 58_000, 1_200, 8_100, 1001),
        _spec("AC", "collaboration", "Author", "Paper", 58_600, 16_700, 22_000, 1002),
        _spec("OC", "occupation", "Person", "Occupation", 250_900, 127_600, 101_700, 1003),
        _spec("DA", "bag-kos", "Document", "Word", 353_200, 3_400, 6_900, 1004),
        _spec("BP", "bpywiki", "User", "Article", 399_700, 1_300, 57_900, 1005),
        _spec("MT", "tewiktionary", "User", "Article", 529_600, 495, 121_500, 1006),
        _spec("BX", "bookcrossing", "User", "Book", 1_100_000, 105_300, 340_500, 1007),
        _spec("SO", "stackoverflow", "User", "Post", 1_300_000, 545_200, 96_700, 1008),
        _spec("TM", "team", "Athlete", "Team", 1_400_000, 901_200, 34_500, 1009),
        _spec("WC", "wiki-en-cat", "Article", "Category", 3_800_000, 1_900_000, 182_900, 1010),
        _spec("ML", "movielens", "User", "Movie", 10_000_000, 69_900, 10_700, 1011),
        _spec("ER", "epinions", "User", "Product", 13_700_000, 120_500, 755_800, 1012),
        _spec("NX", "netflix", "User", "Movie", 100_500_000, 480_200, 17_800, 1013),
        _spec("DUI", "delicious-ui", "User", "Url", 101_800_000, 833_100, 33_800_000, 1014),
        _spec("OG", "orkut", "User", "Group", 327_000_000, 2_800_000, 8_700_000, 1015),
    )
}


def dataset_keys() -> list[str]:
    """All dataset keys in the paper's presentation order."""
    return list(PAPER_DATASETS)


def get_spec(key: str) -> DatasetSpec:
    """Look up a dataset by key (``"RM"``) or by name (``"rmwiki"``)."""
    if key in PAPER_DATASETS:
        return PAPER_DATASETS[key]
    for spec in PAPER_DATASETS.values():
        if spec.name == key:
            return spec
    raise DatasetError(
        f"unknown dataset {key!r}; known keys: {', '.join(dataset_keys())}"
    )


def default_max_edges() -> int:
    """Edge budget for synthesis (env ``REPRO_MAX_EDGES`` overrides)."""
    raw = os.environ.get(_ENV_MAX_EDGES)
    if raw is None:
        return _DEFAULT_MAX_EDGES
    try:
        value = int(raw)
    except ValueError as exc:
        raise DatasetError(f"{_ENV_MAX_EDGES}={raw!r} is not an integer") from exc
    if value <= 0:
        raise DatasetError(f"{_ENV_MAX_EDGES} must be positive, got {value}")
    return value


def scaled_spec(spec: DatasetSpec, max_edges: int | None = None) -> ScaledSpec:
    """Apply the edge budget: vertex-scale by ``s``, edges by ``s²``.

    Scaling both layers by the same fraction and edges quadratically is the
    distributional effect of the paper's uniform vertex sampling (Fig. 11),
    so density and degree-shape are preserved.
    """
    if max_edges is None:
        max_edges = default_max_edges()
    if max_edges <= 0:
        raise DatasetError(f"max_edges must be positive, got {max_edges}")
    fraction = min(1.0, math.sqrt(max_edges / spec.paper_edges))
    n_upper = max(4, int(round(spec.paper_upper * fraction)))
    n_lower = max(4, int(round(spec.paper_lower * fraction)))
    num_edges = max(8, int(round(spec.paper_edges * fraction * fraction)))
    num_edges = min(num_edges, int(_MAX_DENSITY * n_upper * n_lower))
    return ScaledSpec(
        spec=spec,
        n_upper=n_upper,
        n_lower=n_lower,
        num_edges=num_edges,
        vertex_fraction=fraction,
    )
