"""The simulated vertex ↔ data-curator protocol.

A :class:`ProtocolSession` binds one common-neighborhood query
``(layer, u, w)`` on a graph to a privacy budget and provides the rounds the
paper's algorithms are built from:

* :meth:`randomized_response` — a query vertex perturbs its neighbor list
  (Warner RR) and uploads the noisy edges;
* :meth:`download` — a query vertex downloads another vertex's noisy list
  from the curator (multiple-round framework);
* :meth:`degree_round` — every vertex on the query layer reports a noisy
  degree via the Laplace mechanism (MultiR-DS round 1);
* :meth:`release_scalar` — a vertex releases a locally computed statistic
  with calibrated Laplace noise (single-source estimators);
* :meth:`ss_counts` / :meth:`naive_counts` — local/curator-side counting on
  noisy lists (post-processing; free of privacy cost).

Privacy accounting is enforced structurally: every data-dependent message
charges the owning vertex's ledger, and the ledger refuses charges beyond
the session budget. Communication is logged per message so Fig. 10 can be
reproduced.

Two execution modes are supported (``docs/privacy-semantics.md``,
"Materialize vs. sketch charging", compares what each releases):
``materialize`` perturbs real adjacency rows (complexity-faithful, used
for timing and fidelity tests); ``sketch`` draws the protocol's sufficient statistics
(S1/S2, N1/N2, noisy sizes) from their exact distributions, which is
distribution-equivalent and lets error experiments run at full scale. In
sketch mode the *joint* distribution between a handle's logged size and the
counts later drawn from it is not preserved (each is marginally exact);
communication and error statistics are aggregated separately so this does
not affect any reproduced figure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.debias import joint_report_probs
from repro.privacy.mechanisms import (
    LaplaceMechanism,
    RandomizedResponse,
    flip_probability,
)
from repro.privacy.rng import RngLike, ensure_rng
from repro.privacy.sensitivity import degree_sensitivity
from repro.protocol.messages import (
    FLOAT_BYTES,
    ID_BYTES,
    CommunicationLog,
    Direction,
)
from repro.protocol.noisy import NoisyListHandle

__all__ = [
    "ExecutionMode",
    "DegreeRound",
    "ProtocolTranscript",
    "ProtocolSession",
    "resolve_mode",
]

# Graphs whose opposite layer is at most this size are materialized under AUTO.
_AUTO_MATERIALIZE_LIMIT = 20_000
# Below this many residual reporters the degree round draws exact Laplace
# noise even in sketch mode (CLT not yet reliable).
_CLT_MIN_REPORTERS = 64


class ExecutionMode(enum.Enum):
    """How the session realizes randomized-response outputs.

    ``SKETCH_VIEW`` is the engine-level sublinear-memory mode (each vertex
    releases a fixed-size private sketch — see
    :mod:`repro.engine.sketches`); it has no per-round session protocol,
    so :class:`ProtocolSession` rejects it and ``AUTO`` never resolves to
    it.
    """

    MATERIALIZE = "materialize"
    SKETCH = "sketch"
    SKETCH_VIEW = "sketch-view"
    AUTO = "auto"


def resolve_mode(graph, layer, mode: "ExecutionMode") -> "ExecutionMode":
    """Resolve ``AUTO`` by candidate-pool size (the one shared rule).

    Every ``AUTO`` consumer — session, engine, cache, server — must
    agree on the resolution, so they all call this helper: materialize
    while the opposite layer fits ``_AUTO_MATERIALIZE_LIMIT``, sketch
    beyond it. Non-``AUTO`` modes pass through unchanged.
    """
    if mode is not ExecutionMode.AUTO:
        return mode
    small = graph.layer_size(layer.opposite()) <= _AUTO_MATERIALIZE_LIMIT
    return ExecutionMode.MATERIALIZE if small else ExecutionMode.SKETCH


@dataclass(frozen=True)
class DegreeRound:
    """Result of the layer-wide noisy degree round (MultiR-DS round 1)."""

    noisy_degree_u: float
    noisy_degree_w: float
    noisy_average_degree: float


@dataclass(frozen=True)
class ProtocolTranscript:
    """Summary of one protocol run: rounds, bytes moved, budget spent."""

    rounds: int
    upload_bytes: int
    download_bytes: int
    max_epsilon_spent: float
    mode: ExecutionMode

    @property
    def total_bytes(self) -> int:
        return self.upload_bytes + self.download_bytes

    @property
    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6


class ProtocolSession:
    """One common-neighborhood query executed under edge LDP.

    Parameters
    ----------
    graph:
        The private bipartite graph (each vertex only ever touches its own
        row; the session holds the full graph because it simulates all
        parties).
    layer:
        Layer holding both query vertices.
    u, w:
        The two distinct query vertices.
    epsilon:
        Total privacy budget granted to the query; the ledger refuses any
        vertex exceeding it.
    rng:
        Generator / seed / None.
    mode:
        Execution mode; ``AUTO`` materializes small graphs and sketches
        large ones.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        u: int,
        w: int,
        epsilon: float,
        rng: RngLike = None,
        mode: ExecutionMode = ExecutionMode.AUTO,
    ):
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if mode is ExecutionMode.SKETCH_VIEW:
            raise ProtocolError(
                "sketch-view is an engine-level mode; sessions have no "
                "per-round protocol for it (use BatchQueryEngine or the "
                "*-view estimators)"
            )
        if u == w:
            raise ProtocolError("query vertices must be distinct")
        graph.degree(layer, u)  # validates the vertex indices
        graph.degree(layer, w)

        self.graph = graph
        self.layer = layer
        self.opposite = layer.opposite()
        self.u = int(u)
        self.w = int(w)
        self.epsilon = float(epsilon)
        self.rng = ensure_rng(rng)
        self.mode = resolve_mode(graph, layer, mode)
        self.ledger = PrivacyLedger(limit=self.epsilon)
        self.comm = CommunicationLog()
        self.rounds = 0

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    @property
    def n_opposite(self) -> int:
        """Size of the opposite layer — the common-neighbor candidate pool."""
        return self.graph.layer_size(self.opposite)

    def party(self, vertex: int) -> str:
        """Ledger label for a query-layer vertex."""
        return f"{self.layer.value}:{vertex}"

    def begin_round(self, name: str) -> str:
        """Mark the start of a protocol round; returns its label."""
        self.rounds += 1
        return f"round{self.rounds}:{name}"

    def _check_query_vertex(self, vertex: int) -> int:
        if vertex not in (self.u, self.w):
            raise ProtocolError(
                f"vertex {vertex} is not a query vertex of this session"
            )
        return int(vertex)

    # ------------------------------------------------------------------
    # Round primitives
    # ------------------------------------------------------------------
    def randomized_response(
        self, vertex: int, eps_rr: float, round_label: str = "rr"
    ) -> NoisyListHandle:
        """Perturb ``vertex``'s neighbor list with RR(eps_rr) and upload it."""
        vertex = self._check_query_vertex(vertex)
        rr = RandomizedResponse(eps_rr)
        neighbors = self.graph.neighbors(self.layer, vertex)
        degree = neighbors.size
        domain = self.n_opposite

        if self.mode is ExecutionMode.MATERIALIZE:
            # Sparse sampling of the perturbed row: distribution-equivalent
            # to flipping the dense 0/1 row but O(d + expected noisy edges)
            # instead of O(n_opposite).
            noisy = rr.perturb_neighbor_list(neighbors, domain, self.rng)
            handle = NoisyListHandle(vertex, eps_rr, int(noisy.size), noisy)
        else:
            kept = int(self.rng.binomial(degree, 1.0 - rr.flip_probability))
            flipped = int(self.rng.binomial(domain - degree, rr.flip_probability))
            handle = NoisyListHandle(vertex, eps_rr, kept + flipped, None)

        self.ledger.charge(self.party(vertex), eps_rr, "randomized-response", round_label)
        self.comm.record(Direction.UPLOAD, handle.size * ID_BYTES, f"{round_label}:edges")
        return handle

    def download(self, handle: NoisyListHandle, to_vertex: int) -> NoisyListHandle:
        """A query vertex downloads a noisy list from the curator.

        Downloads are post-processing of already-released data, so no
        privacy charge applies — only communication is logged.
        """
        self._check_query_vertex(to_vertex)
        if handle.owner == to_vertex:
            raise ProtocolError("a vertex does not download its own noisy list")
        self.comm.record(
            Direction.DOWNLOAD, handle.size * ID_BYTES, "download:edges"
        )
        return handle

    def degree_round(self, eps0: float, round_label: str = "degrees") -> DegreeRound:
        """Layer-wide noisy degree reports (MultiR-DS round 1).

        Every vertex on the query layer releases ``deg + Lap(1/eps0)``; the
        curator keeps the query vertices' reports and the layer average
        (used to correct non-positive reports). Parallel composition across
        disjoint neighbor lists makes the round eps0-edge LDP.
        """
        mech = LaplaceMechanism(eps0, degree_sensitivity())
        deg_u = self.graph.degree(self.layer, self.u)
        deg_w = self.graph.degree(self.layer, self.w)
        noisy_u = mech.release(deg_u, self.rng)
        noisy_w = mech.release(deg_w, self.rng)

        layer_n = self.graph.layer_size(self.layer)
        rest = layer_n - 2
        degree_sum = float(self.graph.num_edges)
        if self.mode is ExecutionMode.MATERIALIZE or rest < _CLT_MIN_REPORTERS:
            rest_noise = float(self.rng.laplace(0.0, mech.scale, size=rest).sum())
        else:
            # Sum of `rest` iid Laplace(b) ≈ Normal(0, rest * 2b^2) — exact
            # enough for the averaging use and O(1) instead of O(n2).
            rest_noise = float(self.rng.normal(0.0, math.sqrt(rest * 2.0) * mech.scale))
        noisy_sum = noisy_u + noisy_w + (degree_sum - deg_u - deg_w) + rest_noise
        noisy_avg = noisy_sum / layer_n if layer_n else 0.0

        self.ledger.charge(self.party(self.u), eps0, "laplace-degree", round_label)
        self.ledger.charge(self.party(self.w), eps0, "laplace-degree", round_label)
        # All remaining layer vertices report once with the same budget;
        # they are represented by one virtual party (their spends are equal).
        self.ledger.charge(
            f"{self.layer.value}:rest", eps0, "laplace-degree", round_label
        )
        self.comm.record(Direction.UPLOAD, layer_n * FLOAT_BYTES, f"{round_label}:reports")
        return DegreeRound(noisy_u, noisy_w, noisy_avg)

    def release_scalar(
        self,
        vertex: int,
        value: float,
        eps: float,
        sensitivity: float,
        round_label: str = "estimator",
    ) -> float:
        """A query vertex releases ``value`` via Laplace(sensitivity/eps)."""
        vertex = self._check_query_vertex(vertex)
        mech = LaplaceMechanism(eps, sensitivity)
        noisy = mech.release(value, self.rng)
        self.ledger.charge(self.party(vertex), eps, "laplace-release", round_label)
        self.comm.record(Direction.UPLOAD, FLOAT_BYTES, f"{round_label}:scalar")
        return noisy

    # ------------------------------------------------------------------
    # Local / curator-side counting (post-processing, no privacy cost)
    # ------------------------------------------------------------------
    def ss_counts(self, observer: int, handle: NoisyListHandle) -> tuple[int, int]:
        """``(S1, S2)`` for the single-source estimator (Alg. 3, lines 8-12).

        ``S1 = |N(observer, G) ∩ N(owner, G')|`` and ``S2 = deg(observer) - S1``,
        computed locally by ``observer`` from its true neighbors and the
        downloaded noisy list.
        """
        observer = self._check_query_vertex(observer)
        if handle.owner == observer:
            raise ProtocolError("observer must differ from the noisy list owner")
        true_neighbors = self.graph.neighbors(self.layer, observer)
        degree = true_neighbors.size
        if handle.materialized:
            s1 = int(np.count_nonzero(handle.contains(true_neighbors)))
        else:
            p = flip_probability(handle.epsilon)
            c2 = self.graph.count_common_neighbors(self.layer, observer, handle.owner)
            s1 = int(self.rng.binomial(c2, 1.0 - p)) + int(
                self.rng.binomial(degree - c2, p)
            )
        return s1, degree - s1

    def naive_counts(
        self, handle_u: NoisyListHandle, handle_w: NoisyListHandle
    ) -> tuple[int, int]:
        """``(N1, N2)`` on the noisy graph: intersection and union sizes.

        Used by Naive (N1 alone) and OneR (N1 and N2) on the curator side.
        """
        if handle_u.epsilon != handle_w.epsilon:
            raise ProtocolError("naive counts require a common RR budget")
        if handle_u.owner == handle_w.owner:
            raise ProtocolError("need noisy lists of two distinct vertices")
        if handle_u.materialized != handle_w.materialized:
            raise ProtocolError("handles must share an execution mode")

        if handle_u.materialized:
            n1 = int(
                np.intersect1d(
                    handle_u.neighbors, handle_w.neighbors, assume_unique=True
                ).size
            )
            n2 = int(handle_u.size + handle_w.size - n1)
            return n1, n2

        # Sketch mode: draw the contingency counts of each candidate class.
        p = flip_probability(handle_u.epsilon)
        a, b = handle_u.owner, handle_w.owner
        c2 = self.graph.count_common_neighbors(self.layer, a, b)
        deg_a = self.graph.degree(self.layer, a)
        deg_b = self.graph.degree(self.layer, b)
        categories = (
            (c2, 1.0 - p, 1.0 - p),  # true common neighbors
            (deg_a - c2, 1.0 - p, p),  # neighbors of a only
            (deg_b - c2, p, 1.0 - p),  # neighbors of b only
            (self.n_opposite - deg_a - deg_b + c2, p, p),  # neither
        )
        n1 = 0
        union = 0
        for count, q_a, q_b in categories:
            if count <= 0:
                continue
            both, only_a, only_b, _ = self.rng.multinomial(
                count, joint_report_probs(q_a, q_b)
            )
            n1 += int(both)
            union += int(both + only_a + only_b)
        return n1, union

    # ------------------------------------------------------------------
    def finalize(self) -> ProtocolTranscript:
        """Close the session: verify the budget and summarize the run."""
        self.ledger.assert_within(self.epsilon)
        return ProtocolTranscript(
            rounds=self.rounds,
            upload_bytes=self.comm.total_bytes(Direction.UPLOAD),
            download_bytes=self.comm.total_bytes(Direction.DOWNLOAD),
            max_epsilon_spent=self.ledger.max_spent(),
            mode=self.mode,
        )
