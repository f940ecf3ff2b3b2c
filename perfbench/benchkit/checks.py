"""Output checks: exact ``C2`` ground truth and the correctness gates.

Ground truth is computed here, independently of the program: each
snapshot's adjacency is packed into one bitset row per query vertex and
``C2(a, b)`` is the popcount of ``row(a) & row(b)``. Every check returns
a :class:`Check`; a failed check counts as a failure in the result.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Check",
    "EdgeModel",
    "ExactCounter",
    "bias_check",
    "children_check",
    "limit_check",
    "pack_csr",
    "shm_check",
    "shm_segments",
]

_PAIR_BLOCK = 16_384
_SHM_DIR = Path("/dev/shm")
_SHM_PREFIX = "repro_"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


class ExactCounter:
    """Exact common-neighbour counts over one layer of a fixed snapshot."""

    def __init__(self, packed: np.ndarray):
        """``packed`` holds one ``np.packbits`` adjacency row per vertex.

        The rows are copied (and padded to whole 64-bit words), so the
        counter keeps its snapshot when the caller mutates ``packed``.
        """
        rows, width = packed.shape
        words = np.zeros((rows, -(-width // 8) * 8), dtype=np.uint8)
        words[:, :width] = packed
        self._rows = words.view(np.uint64)

    def counts(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.empty(a.size, dtype=np.int64)
        for lo in range(0, a.size, _PAIR_BLOCK):
            hi = lo + _PAIR_BLOCK
            both = self._rows[a[lo:hi]] & self._rows[b[lo:hi]]
            out[lo:hi] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
        return out


def pack_edges(rows: int, domain: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Bit-packed adjacency rows (``np.packbits`` layout) of an edge list."""
    packed = np.zeros((rows, (domain + 7) // 8), dtype=np.uint8)
    set_bits(packed, src, dst)
    return packed


def pack_csr(indptr: np.ndarray, columns: np.ndarray, domain: int) -> np.ndarray:
    rows = indptr.size - 1
    return pack_edges(rows, domain, np.repeat(np.arange(rows), np.diff(indptr)), columns)


def set_bits(packed: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    np.bitwise_or.at(packed, (src, dst >> 3), (0x80 >> (dst & 7)).astype(np.uint8))


def clear_bits(packed: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    np.bitwise_and.at(packed, (src, dst >> 3), ~(0x80 >> (dst & 7)).astype(np.uint8))


class EdgeModel:
    """The benchmark's own copy of a mutating edge set.

    It generates applicable mutation batches (deletes of present edges,
    inserts of absent ones) and keeps every batch, so the exact snapshot
    of any later epoch can be rebuilt without trusting the program's
    delta code. Adjacency is kept bit-packed, upper vertex by row.
    """

    def __init__(self, edges: np.ndarray, n_upper: int, n_lower: int):
        self.base = pack_edges(n_upper, n_lower, edges[:, 0], edges[:, 1])
        self.current = self.base.copy()
        self.n_lower = n_lower
        self._edges = np.array(edges, dtype=np.int64)
        self._count = len(edges)
        self.batches: list[tuple[np.ndarray, np.ndarray]] = []

    def has_edge(self, upper: int, lower: int) -> bool:
        return bool(self.current[upper, lower >> 3] & (0x80 >> (lower & 7)))

    def sample_batch(self, rng: np.random.Generator, ops: int) -> tuple[np.ndarray, np.ndarray]:
        """A burst of ``ops // 2`` deletes and the rest inserts, applied here."""
        n_del = min(ops // 2, self._count)
        picks = rng.choice(self._count, size=n_del, replace=False)
        dels = self._edges[picks].copy()
        # Swap-remove the deleted rows, highest index first.
        for i in np.sort(picks)[::-1]:
            self._count -= 1
            self._edges[i] = self._edges[self._count]
        n_upper = self.current.shape[0]
        inserts: list[tuple[int, int]] = []
        chosen = {(int(u), int(v)) for u, v in dels}
        while len(inserts) < ops - n_del:
            edge = (int(rng.integers(n_upper)), int(rng.integers(self.n_lower)))
            if edge in chosen or self.has_edge(*edge):
                continue
            chosen.add(edge)
            inserts.append(edge)
        ins = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        clear_bits(self.current, dels[:, 0], dels[:, 1])
        set_bits(self.current, ins[:, 0], ins[:, 1])
        self._edges = np.concatenate([self._edges[: self._count], ins])
        self._count = len(self._edges)
        self.batches.append((ins, dels))
        return ins, dels

    def snapshots(self, applied: list[int]):
        """Yield ``(k, packed)``: the adjacency after the first ``k`` batches.

        ``applied`` lists the batch counts wanted, ascending. ``packed`` is
        one array updated in place between yields: copy what must outlive
        the next step.
        """
        packed = self.base.copy()
        done = 0
        for k in applied:
            for ins, dels in self.batches[done:k]:
                clear_bits(packed, dels[:, 0], dels[:, 1])
                set_bits(packed, ins[:, 0], ins[:, 1])
            done = k
            yield k, packed


# ----------------------------------------------------------------------
def bias_check(errors: list[np.ndarray], name: str) -> Check:
    """Mean signed error within 4 standard errors of 0.

    With three or more calls the standard error comes from the spread of
    the per-call means, so pairs that share a vertex (and its noise)
    inside one call cannot make the check over-confident.
    """
    errors = [np.asarray(e, dtype=np.float64) for e in errors if len(e)]
    if not errors:
        return Check(name, False, "no answered pairs")
    pooled = np.concatenate(errors)
    mean = float(pooled.mean())
    if len(errors) >= 3:
        call_means = np.array([e.mean() for e in errors])
        se = float(call_means.std(ddof=1) / math.sqrt(call_means.size))
    else:
        se = float(pooled.std(ddof=1) / math.sqrt(pooled.size))
    ok = abs(mean) <= 4.0 * se
    return Check(name, ok, f"mean error {mean:+.4f}, standard error {se:.4f}")


def limit_check(name: str, value: float, limit: float) -> Check:
    ok = value <= limit + 1e-9
    return Check(name, ok, f"{value:.6g} <= {limit:.6g}")


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments that exist now."""
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir() if p.name.startswith(_SHM_PREFIX)}


def shm_check(before: set[str]) -> Check:
    leaked = sorted(shm_segments() - before)
    return Check("no_shm_leak", not leaked, f"{len(leaked)} new segments {leaked[:3]}")


def children_check(grace_s: float = 5.0) -> Check:
    """No child process of this one is still running.

    A pool's own manager thread may still be reaping a worker that has
    already exited, and while it does ``is_alive()`` can report the
    reaped worker as alive. So each listed child gets a bounded join,
    and only a pid that still exists counts as live.
    """
    deadline = time.monotonic() + grace_s
    listed = multiprocessing.active_children()
    for child in listed:
        child.join(timeout=max(0.0, deadline - time.monotonic()))
    live = [child.pid for child in multiprocessing.active_children() if _exists(child.pid)]
    return Check(
        "no_live_children",
        not live,
        f"{len(live)} live children of pid {os.getpid()} {live[:3]}",
    )


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
