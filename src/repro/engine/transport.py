"""Pluggable shard transports: *how* a shard plan's ranges execute.

PR 5 welded shard execution to one substrate — a fork pool with a
SharedMemory fragment return — and PR 6 welded the resilience envelope
to that pool. But nothing about either is fork-specific: a shard task is
a pure function of ``(graph, range, epsilon, entropy, epoch, versions)``
with a byte-identity guarantee, so *where* it runs is a deployment
decision, not a correctness one. This module carves that decision into
three layers:

* :class:`ShardSpec` / :class:`ShardResult` / :func:`execute_spec` —
  the work order, its answer, and the one pure compute routine every
  substrate shares (keyed draw, row sizes, optional in-worker pairwise
  ``N1`` reduction). Inline execution, fork workers, socket workers and
  the terminal degradation path all call the same function, which is
  what makes the byte-identity contract a single place to audit.
* :class:`ShardTransport` — the substrate contract
  (``submit(spec) -> future``, ``finalize``, ``recycle``, ``close``,
  capability flags) with three implementations:
  :class:`InlineTransport` (no processes),
  :class:`ForkTransport` (forked workers returning fragments through
  parent-owned SharedMemory segments), and
  :class:`SocketTransport` (remote workers over TCP speaking the
  length-prefixed frames of :mod:`repro.protocol.wire`, with a
  :class:`WorkerRegistry` tracking liveness and re-dispatching ranges
  away from dead workers).
* :func:`drive` — the transport-agnostic retry driver: wave-scaled
  deadlines, keyed-Philox backoff, fault classification, CRC32
  verification and terminal inline degradation, lifted verbatim out of
  ``ShardedRunner`` so every transport — including ones that don't
  exist yet — inherits the whole resilience envelope unchanged.

Determinism note: re-dispatch is safe on *every* transport for the same
reason it was safe on the fork pool — a retry replays the identical
keyed stream, so a range that bounces between a dead socket worker, a
live one, and finally the parent's inline fallback still returns the
same bytes. ``docs/distributed-guide.md`` is the contract document.
"""

from __future__ import annotations

import bisect
import mmap
import multiprocessing
import operator
import os
import socket
import threading
import time
import tracemalloc
import weakref
import zlib
from collections import Counter, OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.engine.bulkrr import keyed_bulk_randomized_response
from repro.engine.faults import FAULT_EXIT_CODE, FaultPlan
from repro.engine.pairwise import choose_backend, pairwise_intersections
from repro.errors import PayloadIntegrityError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.protocol import wire

__all__ = [
    "ShardSpec",
    "ShardResult",
    "ShardTransport",
    "InlineTransport",
    "ForkTransport",
    "SocketTransport",
    "WorkerHandle",
    "WorkerRegistry",
    "RetryPolicy",
    "execute_spec",
    "drive",
    "make_transport",
    "fork_available",
]

# Worker-side context registry. Entries are registered in the parent
# *before* its pool forks, so every worker inherits them copy-on-write;
# tasks then reference their context by token instead of pickling the
# graph per range. (Socket workers have no shared memory with the parent
# and install the graph once over the wire instead — see
# :meth:`SocketTransport._install`.)
_WORKER_CONTEXTS: dict[int, tuple[BipartiteGraph, Layer]] = {}
_NEXT_TOKEN = 0

# Keyed-stream domain tag for retry-backoff jitter ("BACK"): the jitter
# that decorrelates retry stampedes must itself be deterministic per
# (entropy, epoch, attempt), or reruns of the same failure schedule
# would not be reproducible.
_BACKOFF_TAG = 0x4241434B

# Exceptions that classify as *worker faults* — transient, re-dispatchable
# failures of the execution substrate rather than of the draw itself.
# Anything else (a PrivacyError from bad epsilon, a GraphError) is a real
# bug and propagates immediately after its round is recycled. The tuple is
# transport-agnostic: a dead fork pool, an expired deadline, a corrupt
# shm fragment and a refused TCP connection all land in it.
_WORKER_FAULTS = (
    BrokenProcessPool,
    FutureTimeoutError,
    TimeoutError,
    PayloadIntegrityError,
    OSError,
)

# Bounded grace for joining worker pools at close/release time. A worker
# that never exits is exactly the stall ``timeout_s`` defends against,
# so teardown escalates to terminate (then kill) instead of inheriting
# the hang — close() and interpreter shutdown must stay bounded.
_JOIN_GRACE_S = 5.0

# Smallest fork-transport segment. Segments are sized to a power of two
# at or above a fragment's hard bound, so one segment serves many draws.
_SEGMENT_MIN_BYTES = 1 << 20

_LAYER_TAGS = {Layer.UPPER: 0, Layer.LOWER: 1}
_TAG_LAYERS = {0: Layer.UPPER, 1: Layer.LOWER}


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _fault_kind(exc: BaseException) -> str:
    """Map a caught worker fault to its ``faults`` counter key.

    The deadline check precedes the transport bucket because
    ``TimeoutError`` is an ``OSError`` subclass.
    """
    if isinstance(exc, (FutureTimeoutError, TimeoutError)):
        return "timeouts"
    if isinstance(exc, PayloadIntegrityError):
        return "payload_errors"
    return "worker_deaths"


def _columns_checksum(columns: np.ndarray) -> int:
    """CRC32 of a fragment's column bytes — the transport integrity tag."""
    return int(zlib.crc32(np.ascontiguousarray(columns)))


def empty_faults() -> dict:
    return {
        "retries": 0,  # task re-dispatches after a fault round
        "timeouts": 0,  # per-task deadline expiries
        "worker_deaths": 0,  # dead pools / dead sockets / dead workers
        "payload_errors": 0,  # checksum mismatches on the fragment handoff
        "backoff_s": [],  # keyed-jitter waits before each retry round
        "degraded_ranges": [],  # ranges that fell back to inline execution
    }


# ----------------------------------------------------------------------
# The work order, its answer, and the one shared compute routine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's work order: everything its keyed draw is a function of.

    ``vertices`` are the range's global vertex ids; ``lo``/``hi`` locate
    the range inside its plan (provenance only — the draw never reads
    them). ``ia``/``ib``, when given, are *local* row slots into
    ``vertices``: the diagonal pairs the executor should reduce to
    ``N1`` scalars itself instead of shipping rows. ``want_fragment``
    controls whether the noisy CSR fragment travels back at all — a
    shard whose every pair reduces locally returns sizes + scalars only,
    which is the whole traffic win of in-worker reduction.
    """

    shard: int
    lo: int
    hi: int
    vertices: np.ndarray
    epsilon: float
    entropy: int
    epoch: int
    attempt: int = 0
    versions: np.ndarray | None = None
    domain: int = 0
    ia: np.ndarray | None = None
    ib: np.ndarray | None = None
    want_fragment: bool = True
    measure: bool = False


@dataclass
class ShardResult:
    """One executed spec's answer plus its transport accounting.

    ``sizes`` (per-row noisy id counts) always come back — they are what
    ``N2`` and the upload accounting need. ``indptr``/``columns`` are
    present iff the spec asked for the fragment; ``n1`` iff it carried
    local pairs. ``payload_bytes`` counts what actually crossed the
    transport to the parent (0 for inline execution), which is the
    quantity ``details["shards"]["transport"]`` and the transport
    benchmark report.
    """

    shard: int
    attempt: int
    sizes: np.ndarray
    indptr: np.ndarray | None = None
    columns: np.ndarray | None = None
    n1: np.ndarray | None = None
    backend: str | None = None
    peak_bytes: int = 0
    payload_bytes: int = 0


def execute_spec(
    graph: BipartiteGraph, layer: Layer, spec: ShardSpec
) -> ShardResult:
    """Execute one spec: keyed draw, row sizes, optional local pairwise.

    The single pure compute routine behind every transport *and* the
    terminal inline degradation — a spec executed here, in a forked
    worker, or on a remote socket worker produces identical bytes,
    because the draw is keyed by ``(entropy, epoch, vertex, version)``
    and the pairwise reduction is exact integer counting under every
    backend. ``spec.attempt`` deliberately does not participate.
    """
    if spec.measure:
        tracemalloc.start()
    indptr, columns = keyed_bulk_randomized_response(
        graph,
        layer,
        spec.vertices,
        spec.epsilon,
        entropy=spec.entropy,
        epoch=spec.epoch,
        versions=spec.versions,
    )
    peak = 0
    if spec.measure:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    sizes = np.diff(indptr)
    n1 = None
    backend = None
    if spec.ia is not None and spec.ia.size:
        backend = choose_backend(
            int(spec.vertices.size), int(spec.ia.size), spec.domain
        )
        n1 = pairwise_intersections(
            indptr, columns, spec.ia, spec.ib, spec.domain, backend=backend
        )
    return ShardResult(
        shard=spec.shard,
        attempt=spec.attempt,
        sizes=sizes,
        indptr=indptr if spec.want_fragment else None,
        columns=columns if spec.want_fragment else None,
        n1=n1,
        backend=backend,
        peak_bytes=int(peak),
    )


# ----------------------------------------------------------------------
# The transport contract
# ----------------------------------------------------------------------
class ShardTransport:
    """Substrate contract the retry driver runs shard specs against.

    A transport answers *how work runs*: it turns a :class:`ShardSpec`
    into a future (``submit``), turns the future's raw value into a
    verified :class:`ShardResult` (``finalize``), recovers from a fault
    round (``recycle``) and shuts down (``close`` — idempotent, and safe
    on a transport that never started). ``parallel`` is the capability flag
    the driver consults before fanning out at all; ``can_reduce``
    advertises in-worker pairwise reduction.
    """

    name = "abstract"
    can_reduce = True

    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        """Point the transport at the serving context (idempotent).

        ``delta``, when given, is the :class:`~repro.graph.delta.DeltaLog`
        that carries the *previous* bound graph to ``graph`` — a hint
        transports with remote state (the socket cluster) use to push an
        edge delta instead of re-shipping the snapshot. Transports whose
        workers see the parent's memory directly ignore it.
        """
        raise NotImplementedError

    @property
    def parallel(self) -> bool:
        """True when submit() actually fans out to workers."""
        return False

    @property
    def workers(self) -> int:
        """Concurrent execution slots — the driver's wave divisor."""
        return 1

    def submit(self, spec: ShardSpec) -> Future:
        raise NotImplementedError

    def finalize(
        self, spec: ShardSpec, raw, *, verify: bool = True
    ) -> ShardResult:
        """Turn a future's raw value into a verified :class:`ShardResult`."""
        return raw

    def recycle(
        self, failed: list[ShardSpec], *, retire: bool = True
    ) -> None:
        """Recover the substrate after a round with unfinished dispatches.

        Called with the specs that faulted this round. The fork pool
        retires and rebuilds and unlinks the failed dispatches'
        segments; the socket transport drops suspect connections and
        refreshes liveness. When a deterministic bug aborts the round,
        ``retire=False`` passes every spec that had not finished: the
        workers are healthy, so only the resources lent to those
        dispatches are released.
        """

    def close(self) -> None:
        """Release everything. Idempotent; safe if never started."""

    def describe(self) -> dict:
        """Static identity for ``details["shards"]["transport"]``."""
        return {"name": self.name, "workers": int(self.workers)}

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InlineTransport(ShardTransport):
    """No processes, no sockets: every spec executes in the caller.

    The degenerate transport — and the terminal degradation target every
    other transport falls back to. ``parallel`` is False, so the driver
    never even builds a retry loop; specs run serially via
    :func:`execute_spec` with ``attempt = -1``.
    """

    name = "inline"

    def __init__(self):
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None

    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        self._graph, self._layer = graph, layer

    def submit(self, spec: ShardSpec) -> Future:
        future: Future = Future()
        try:
            future.set_result(execute_spec(self._graph, self._layer, spec))
        except BaseException as exc:  # pragma: no cover - surfaced by driver
            future.set_exception(exc)
        return future


# ----------------------------------------------------------------------
# Fork transport: forked workers, parent-owned shared-memory returns
# ----------------------------------------------------------------------
def _fork_run_spec(token: int, spec: ShardSpec, shm_name: str | None) -> tuple:
    """Execute a spec in a forked worker; ship columns through shm.

    Fragment results write their columns into the ``SharedMemory``
    segment the parent lent this dispatch and return ``("shm", indptr,
    n_ids, sizes, n1, backend, peak, checksum)`` (shipping multi-MB
    fragments through the result pipe interleaves 64 KiB reads with the
    other workers' compute; an shm handoff is one parent-side memcpy).
    The worker only attaches and writes — it never creates or unlinks a
    segment — so a worker that dies, or wakes after its deadline, cannot
    leak one: the parent unlinked its segment at ``recycle``, and the
    late worker fails to attach or writes into a mapping nobody reads.
    Reduced results are small and return straight through the pipe as
    ``("pipe", sizes, n1, backend, peak, checksum)`` with a CRC over
    ``sizes + n1``.

    The chaos hook keys on ``(spec.shard, spec.attempt)``: kill/delay
    fire before the draw, poison corrupts the transported payload
    *after* its checksum was taken from the good draw (so parent
    verification must catch it), and kill_after_write exits after the
    segment was written but before the parent hears back.
    """
    graph, layer = _WORKER_CONTEXTS[token]
    plan = FaultPlan.from_env()
    action = plan.action_for(spec.shard, spec.attempt) if plan else None
    if action is not None and action.kind == "kill":
        os._exit(FAULT_EXIT_CODE)
    if action is not None and action.kind == "delay":
        time.sleep(action.delay_s)
    result = execute_spec(graph, layer, spec)
    poison = action is not None and action.kind == "poison"
    if not spec.want_fragment:
        n1 = result.n1 if result.n1 is not None else np.empty(0, np.int64)
        checksum = wire.reduced_checksum(result.sizes, n1)
        if poison:
            if n1.size:
                n1 = n1.copy()
                n1[0] = ~n1[0]
            elif result.sizes.size:
                result.sizes = result.sizes.copy()
                result.sizes[0] = ~result.sizes[0]
            else:
                checksum ^= 1
        out = (
            "pipe", result.sizes, n1, result.backend,
            result.peak_bytes, checksum,
        )
        if action is not None and action.kind == "kill_after_write":
            os._exit(FAULT_EXIT_CODE)
        return out
    columns = result.columns
    checksum = _columns_checksum(columns)
    block = shared_memory.SharedMemory(name=shm_name)
    try:
        view = np.ndarray(columns.shape, dtype=np.int64, buffer=block.buf)
        view[:] = columns
        if poison:
            if columns.size:
                view[0] = ~view[0]
            else:
                checksum ^= 1
        del view
    finally:
        block.close()
    if action is not None and action.kind == "kill_after_write":
        os._exit(FAULT_EXIT_CODE)
    return (
        "shm", result.indptr, int(columns.size), result.sizes,
        result.n1, result.backend, result.peak_bytes, checksum,
    )


def _release_pages(block: shared_memory.SharedMemory, nbytes: int) -> None:
    """Hand the first ``nbytes`` of an idle segment's pages back to tmpfs.

    A reused segment would otherwise keep every page a worker ever wrote
    in ``/dev/shm`` and in the parent's RSS until close(). Reads the
    private ``SharedMemory._mmap`` (pinned by
    ``test_idle_segments_hold_no_pages`` in ``tests/test_faults.py``).
    """
    if nbytes and hasattr(mmap, "MADV_REMOVE"):  # Linux tmpfs only
        length = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        block._mmap.madvise(mmap.MADV_REMOVE, 0, length)


def _unlink(block: shared_memory.SharedMemory) -> None:
    block.close()
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - removed from outside
        pass


def _retire_pool(pool: ProcessPoolExecutor) -> list:
    """Shut a pool down without waiting; return its worker handles.

    ``shutdown()`` drops the pool's handle map, so the handles are read
    first — the one use of the private ``pool._processes``, pinned by the
    zombie regression test in ``tests/test_faults.py``. Without them a
    stalled worker of a retired pool could never be joined.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may object
        pass
    return procs


def _join_workers(procs: list) -> None:
    """Join worker processes under a bounded grace, then force the rest.

    Healthy workers drain and exit within :data:`_JOIN_GRACE_S`; a
    permanently wedged one — the stall ``timeout_s`` exists to defend
    against — is terminated (and, failing that, killed) so close() and
    interpreter shutdown never inherit the hang.
    """
    deadline = time.monotonic() + _JOIN_GRACE_S
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
            proc.kill()
            proc.join(timeout=1.0)


def _release_fork(
    token: int, pool_box: list, parked: list, free: list, lent: dict
) -> None:
    """Free a fork transport's workers, context registration and segments.

    Shared by :meth:`ForkTransport.close` and the transport's GC
    finalizer, so a transport dropped without ``close()`` cannot pin its
    graph in ``_WORKER_CONTEXTS``, leave worker processes behind, or
    strand ``/dev/shm`` segments. The live pool's workers and every
    parked handle of a retired pool are joined (bounded, stragglers
    terminated), then every segment the parent still owns is unlinked.
    """
    procs = list(parked)
    parked.clear()
    pool = pool_box[0]
    if pool is not None:
        pool_box[0] = None
        procs += _retire_pool(pool)
    _join_workers(procs)
    _WORKER_CONTEXTS.pop(token, None)
    for block in [*free, *lent.values()]:
        _unlink(block)
    free.clear()
    lent.clear()


class ForkTransport(ShardTransport):
    """Forked workers returning fragments through parent-owned shm.

    Workers inherit the graph copy-on-write at fork time through the
    module context registry. The parent is the only process that creates
    or unlinks a ``SharedMemory`` segment: :meth:`submit` lends each
    fragment dispatch a segment sized to the fragment's hard bound, the
    worker attaches and writes, :meth:`finalize` copies the fragment out
    (CRC32-verified), returns its pages to tmpfs and takes the segment
    back for the next lend, and :meth:`recycle` unlinks every segment
    lent to a failed dispatch. Names carry the transport's token, so
    live transports in one process never collide. A suspect pool
    retires without blocking; its worker handles are parked and joined
    (bounded) by :meth:`close`, which — like the GC finalizer — also
    unlinks every remaining segment.
    """

    name = "fork"

    def __init__(self, *, max_workers: int | None = None):
        global _NEXT_TOKEN
        if max_workers is not None and max_workers <= 0:
            raise ProtocolError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None
        self._token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
        # Everything the GC finalizer frees lives in containers it holds
        # instead of the transport itself: the pool (a one-slot box), the
        # worker handles of retired pools still running, the idle
        # segments (ascending size) and the segment lent to each
        # in-flight (shard, attempt) dispatch.
        self._pool_box: list = [None]
        self._parked: list = []
        self._free: list[shared_memory.SharedMemory] = []
        self._lent: dict[tuple[int, int], shared_memory.SharedMemory] = {}
        self._seq = 0
        self._finalizer = weakref.finalize(
            self,
            _release_fork,
            self._token,
            self._pool_box,
            self._parked,
            self._free,
            self._lent,
        )

    # -- context ------------------------------------------------------
    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        """Register (or re-register) the copy-on-write worker context.

        A live pool holds the previous graph through fork-time
        inheritance and cannot see a swap, so rebinding to a different
        snapshot joins and drops the current pool; the next submit forks
        fresh workers that inherit the new context. A no-op when already
        bound to the same ``(graph, layer)``. ``delta`` is ignored:
        forked workers inherit the new snapshot for free.
        """
        prev = _WORKER_CONTEXTS.get(self._token)
        if prev is not None and prev[0] is graph and prev[1] is layer:
            return
        if prev is not None:
            pool = self._pool_box[0]
            if pool is not None:
                self._pool_box[0] = None
                _join_workers(_retire_pool(pool))
        _WORKER_CONTEXTS[self._token] = (graph, layer)
        self._graph, self._layer = graph, layer

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1 and fork_available()

    @property
    def workers(self) -> int:
        return self.max_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool_box[0] is None:
            # Start the shm resource tracker *before* forking so every
            # worker inherits it: create/unlink (parent) and attach
            # (worker) then talk to one tracker and nothing is reported
            # leaked. Sized by the worker cap alone — workers fork lazily
            # on demand, and sizing by one draw's range count would
            # permanently under-parallelize every later, larger draw.
            resource_tracker.ensure_running()
            self._pool_box[0] = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool_box[0]

    def _lend(self, spec: ShardSpec) -> shared_memory.SharedMemory:
        """Lend ``spec``'s dispatch a segment that holds its fragment.

        Every noisy row is a subset of the opposite layer, so ``rows x
        domain x 8`` bytes always fit the fragment; tmpfs backs only the
        pages a worker writes, so the bound costs nothing. The smallest
        free segment that fits is reused. Otherwise a new segment, rounded
        up to a power of two, takes the place of the smallest free one —
        so the parent never holds more segments than one round lends at
        once; taken-back segments hold no pages, so their bytes do not
        outlive the draw either.
        """
        domain = self._graph.layer_size(self._layer.opposite())
        need = max(1, int(spec.vertices.size) * domain * 8)
        index = bisect.bisect_left(
            self._free, need, key=operator.attrgetter("size")
        )
        if index < len(self._free):
            block = self._free.pop(index)
        else:
            if self._free:
                _unlink(self._free.pop(0))
            self._seq += 1
            block = shared_memory.SharedMemory(
                create=True,
                name=f"repro_{os.getpid():x}_{self._token:x}_{self._seq:x}",
                size=max(_SEGMENT_MIN_BYTES, 1 << (need - 1).bit_length()),
            )
        self._lent[(spec.shard, spec.attempt)] = block
        return block

    def _take_back(self, spec: ShardSpec) -> shared_memory.SharedMemory:
        block = self._lent.pop((spec.shard, spec.attempt))
        bisect.insort(self._free, block, key=operator.attrgetter("size"))
        return block

    # -- the contract --------------------------------------------------
    def submit(self, spec: ShardSpec) -> Future:
        pool = self._ensure_pool()
        name = self._lend(spec).name if spec.want_fragment else None
        try:
            return pool.submit(_fork_run_spec, self._token, spec, name)
        except BrokenProcessPool:
            # The pool died mid-submission: the task never reached a
            # worker, so its segment is idle again.
            if name is not None:
                self._take_back(spec)
            raise

    def finalize(
        self, spec: ShardSpec, raw, *, verify: bool = True
    ) -> ShardResult:
        if raw[0] == "pipe":
            _, sizes, n1, backend, peak, checksum = raw
            if verify and wire.reduced_checksum(sizes, n1) != checksum:
                raise PayloadIntegrityError(
                    f"reduced block for shard {spec.shard} failed checksum "
                    f"verification ({n1.size} pairs)"
                )
            return ShardResult(
                shard=spec.shard,
                attempt=spec.attempt,
                sizes=sizes,
                n1=n1 if spec.ia is not None else None,
                backend=backend,
                peak_bytes=int(peak),
                payload_bytes=int(sizes.nbytes + n1.nbytes),
            )
        _, indptr, n_ids, sizes, n1, backend, peak, checksum = raw
        # The worker has answered, so nobody writes this segment any
        # more: copy the fragment out and take the segment back.
        block = self._take_back(spec)
        columns = np.ndarray((n_ids,), dtype=np.int64, buffer=block.buf).copy()
        _release_pages(block, columns.nbytes)
        if verify and _columns_checksum(columns) != checksum:
            raise PayloadIntegrityError(
                f"shard {spec.shard} fragment failed checksum verification "
                f"({n_ids} ids)"
            )
        return ShardResult(
            shard=spec.shard,
            attempt=spec.attempt,
            sizes=sizes,
            indptr=indptr,
            columns=columns,
            n1=n1,
            backend=backend,
            peak_bytes=int(peak),
            payload_bytes=int(columns.nbytes + sizes.nbytes),
        )

    def recycle(
        self, failed: list[ShardSpec], *, retire: bool = True
    ) -> None:
        """Unlink the failed dispatches' segments; retire the suspect pool.

        A segment lent to a failed dispatch may still be written by a
        zombie, so it is unlinked and never lent again. Unless
        ``retire=False`` (a deterministic error, healthy workers), the
        pool is shut down without waiting (a stuck worker must not block
        the retry path); its worker handles are parked for :meth:`close`
        to join, and handles that already exited are dropped, so a
        long-running server keeps a bounded list.
        """
        for spec in failed:
            block = self._lent.pop((spec.shard, spec.attempt), None)
            if block is not None:
                _unlink(block)
        if not retire:
            return
        pool = self._pool_box[0]
        if pool is not None:
            self._pool_box[0] = None
            self._parked.extend(_retire_pool(pool))
        self._parked[:] = [proc for proc in self._parked if proc.is_alive()]

    def close(self) -> None:
        _release_fork(
            self._token, self._pool_box, self._parked, self._free, self._lent
        )


# ----------------------------------------------------------------------
# Socket transport: remote workers speaking protocol/wire.py frames
# ----------------------------------------------------------------------
def read_frame(sock: socket.socket) -> tuple[int, object]:
    """Read and decode exactly one wire frame from a socket.

    The 5-byte header is read first and its declared length checked
    against :data:`~repro.protocol.wire.MAX_FRAME_PAYLOAD` *before* the
    payload is buffered, so a corrupt header cannot demand a giant
    allocation. Raises ``ConnectionError`` (an ``OSError``, hence a
    worker fault) on EOF mid-frame.
    """
    header = _read_exact(sock, wire.frame_overhead())
    _, length = wire._HEADER.unpack(header)
    if length > wire.MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"peer declared a {length}-byte frame beyond the wire limit"
        )
    body = _read_exact(sock, length)
    kind, payload, _ = wire.decode_frame(header + body)
    return kind, payload


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("worker closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class WorkerHandle:
    """One remote worker: its address, connection, and liveness state."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self.sock: socket.socket | None = None
        self.lock = threading.Lock()  # serializes request/response pairs
        self.alive = True
        self.digest: int | None = None  # graph the worker currently holds
        self.caps = 0
        self.last_seen = 0.0
        self.dispatched = 0
        self.delta_pushes = 0  # MUTATE frames this worker absorbed
        self.diverged = 0  # delta pushes refused → full re-install

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def drop(self) -> None:
        """Close the connection (keeps the handle; reconnects lazily)."""
        sock, self.sock, self.digest = self.sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"WorkerHandle({self.address}, {state})"


class WorkerRegistry:
    """Tracks a socket cluster's workers and their liveness.

    The registry is what makes re-dispatch *deterministic in effect*:
    a dead worker leaves the live list, the retry driver re-submits its
    ranges, and placement over the survivors changes — but the keyed
    draw makes the bytes identical wherever the range lands, so the
    failover is invisible in the output.
    """

    def __init__(self, addresses):
        handles = []
        for entry in addresses:
            if isinstance(entry, WorkerHandle):
                handles.append(entry)
                continue
            if isinstance(entry, str):
                host, _, port = entry.rpartition(":")
                if not host or not port.isdigit():
                    raise ProtocolError(
                        f"worker address {entry!r} is not host:port"
                    )
                handles.append(WorkerHandle(host, int(port)))
            else:
                host, port = entry
                handles.append(WorkerHandle(host, int(port)))
        if not handles:
            raise ProtocolError("a socket transport needs at least one worker")
        self.handles = handles

    def live(self) -> list[WorkerHandle]:
        return [h for h in self.handles if h.alive]

    def mark_dead(self, handle: WorkerHandle) -> None:
        handle.alive = False
        handle.drop()

    def describe(self) -> list[dict]:
        return [
            {
                "address": h.address,
                "alive": h.alive,
                "dispatched": h.dispatched,
                "digest": h.digest,
                "delta_pushes": h.delta_pushes,
                "diverged": h.diverged,
            }
            for h in self.handles
        ]


class SocketTransport(ShardTransport):
    """Shard execution on remote workers over length-prefixed TCP frames.

    Speaks the :mod:`repro.protocol.wire` shard-transport frames to
    ``python -m repro.engine.worker`` processes: HELLO exchanges
    capabilities and the graph digest each side holds, GRAPH installs
    the snapshot once per worker (re-sent only when the digest moves,
    e.g. after an incremental rotation), SHARD_SPEC carries one work
    order, and the answer is one REDUCED frame (sizes + locally reduced
    ``N1`` scalars) followed by a FRAGMENT frame iff the spec asked for
    rows — both integrity-tagged with the same CRC32 checksum word the
    fork transport's shm handoff uses, verified at decode time.

    Each worker connection is serialized by its handle lock; concurrent
    specs fan out over a thread pool and round-robin across *live*
    workers, so a worker that dies mid-draw (detected as a connection
    fault, or by a heartbeat PING during :meth:`recycle`) simply stops
    receiving ranges while the retry driver re-dispatches its pending
    ones to the survivors — byte-identically.

    **Streaming ingest.** A ``bind(..., delta=log)`` records the edge
    delta that carried the previous snapshot to the new one in a bounded
    per-snapshot chain; a worker whose installed digest is on the chain
    absorbs the rotation as one MUTATE frame (net inserts + deletes)
    instead of a full GRAPH re-ship, verified end-to-end by the target
    content digest in its DELTA_ACK. A worker off the chain — it died
    and rejoined mid-stream, or fell behind the chain cap — diverges and
    falls back to the full install. The ``ingest`` traffic ledger in
    :meth:`describe` counts both paths and the bytes the deltas saved.
    """

    name = "socket"

    # Historical snapshots a delta chain reaches back to. Matches the
    # worker's GRAPH_CACHE_LIMIT: a base older than the worker could
    # still hold is a guaranteed UNKNOWN_BASE round trip.
    CHAIN_LIMIT = 8

    def __init__(
        self,
        workers,
        *,
        connect_timeout_s: float = 10.0,
        request_timeout_s: float | None = None,
    ):
        self.registry = (
            workers
            if isinstance(workers, WorkerRegistry)
            else WorkerRegistry(workers)
        )
        self.connect_timeout_s = float(connect_timeout_s)
        self.request_timeout_s = request_timeout_s
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None
        self._digest: int | None = None
        self._graph_frame: bytes | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._seq = 0
        self._closed = False
        # base content digest -> {edge: final-membership} ops reaching
        # the *current* graph; oldest bases evicted at CHAIN_LIMIT.
        self._chain: OrderedDict[int, dict] = OrderedDict()
        self._mutate_frames: dict[int, bytes] = {}
        self._ingest = {
            "delta_pushes": 0,  # rotations absorbed as MUTATE frames
            "delta_bytes": 0,  # what the MUTATE frames cost
            "delta_saved_bytes": 0,  # graph re-ships those frames avoided
            "graph_installs": 0,  # full GRAPH frames shipped
            "graph_bytes": 0,  # what the full installs cost
            "diverged": 0,  # delta pushes refused by the worker
        }

    # -- context ------------------------------------------------------
    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        if self._graph is graph and self._layer is layer:
            return
        ops = None
        if (
            delta is not None
            and self._graph is not None
            and delta.base is self._graph
            and self._layer is layer
        ):
            ops = delta.net_ops()
        if ops:
            # Extend every historical chain entry (last-op-wins overlay,
            # the same composition DeltaLog.compose performs) so workers
            # several snapshots behind still resync with one push, then
            # record the new hop under the outgoing snapshot's digest.
            prev_digest = self._ensure_digest()
            for base, chained in self._chain.items():
                self._chain[base] = {**chained, **ops}
            self._chain[prev_digest] = dict(ops)
            while len(self._chain) > self.CHAIN_LIMIT:
                self._chain.popitem(last=False)
        else:
            # Not an incremental hop (fresh bind, or a delta recorded
            # against some other snapshot): no chain can be trusted.
            self._chain.clear()
        self._mutate_frames.clear()
        self._graph, self._layer = graph, layer
        # Lazily recomputed: workers re-install on digest mismatch at
        # their next submit, which is how a rebind propagates.
        self._digest = None
        self._graph_frame = None

    @property
    def parallel(self) -> bool:
        return not self._closed and bool(self.registry.live())

    @property
    def workers(self) -> int:
        return max(1, len(self.registry.live()))

    def _ensure_digest(self) -> int:
        if self._digest is None:
            graph = self._graph
            self._graph_frame = wire.encode_graph(
                graph.num_upper, graph.num_lower, graph.edges
            )
            self._digest = wire.graph_digest(
                graph.num_upper, graph.num_lower, graph.edges
            )
        return self._digest

    def _pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=max(2, 2 * len(self.registry.handles)),
                thread_name_prefix="shard-tx",
            )
        self._closed = False
        return self._threads

    # -- connection management ----------------------------------------
    def _connect(self, handle: WorkerHandle) -> socket.socket:
        sock = socket.create_connection(
            (handle.host, handle.port), timeout=self.connect_timeout_s
        )
        sock.settimeout(self.request_timeout_s)
        digest = self._ensure_digest()
        sock.sendall(
            wire.encode_hello(
                wire.WIRE_VERSION,
                wire.CAP_REDUCE | wire.CAP_VERSIONS,
                digest,
            )
        )
        kind, payload = read_frame(sock)
        if kind != wire.KIND_HELLO:
            raise ProtocolError(
                f"worker {handle.address} answered HELLO with kind {kind}"
            )
        if payload["version"] != wire.WIRE_VERSION:
            raise ProtocolError(
                f"worker {handle.address} speaks wire version "
                f"{payload['version']}, parent speaks {wire.WIRE_VERSION}"
            )
        handle.caps = payload["caps"]
        handle.digest = payload["digest"]
        handle.last_seen = time.monotonic()
        return sock

    def _mutate_frame(self, base: int) -> bytes:
        """The (memoized) MUTATE frame carrying ``base`` to the bound graph."""
        frame = self._mutate_frames.get(base)
        if frame is None:
            ops = self._chain[base]
            inserts = sorted(e for e, op in ops.items() if op)
            deletes = sorted(e for e, op in ops.items() if not op)
            frame = wire.encode_mutate(
                base,
                self._ensure_digest(),
                np.array(inserts, dtype=np.int64).reshape(-1, 2),
                np.array(deletes, dtype=np.int64).reshape(-1, 2),
            )
            self._mutate_frames[base] = frame
        return frame

    def _push_delta(
        self, handle: WorkerHandle, sock: socket.socket, digest: int
    ) -> bool:
        """Try to carry a worker to ``digest`` with one MUTATE frame.

        True on an OK ack for the target digest; False (after counting
        the divergence) when the worker refused — unknown base, digest
        mismatch — in which case the stream is still frame-aligned and
        the caller falls back to the full GRAPH install.
        """
        frame = self._mutate_frame(handle.digest)
        sock.sendall(frame)
        kind, payload = read_frame(sock)
        if kind != wire.KIND_DELTA_ACK:
            raise ProtocolError(
                f"worker {handle.address} answered a delta push with "
                f"kind {kind}"
            )
        if payload["status"] == wire.DELTA_OK and payload["digest"] == digest:
            handle.digest = digest
            handle.last_seen = time.monotonic()
            handle.delta_pushes += 1
            self._ingest["delta_pushes"] += 1
            self._ingest["delta_bytes"] += len(frame)
            self._ingest["delta_saved_bytes"] += max(
                0, len(self._graph_frame) - len(frame)
            )
            return True
        handle.diverged += 1
        self._ingest["diverged"] += 1
        return False

    def _install(self, handle: WorkerHandle, sock: socket.socket) -> None:
        """Carry a worker holding a different snapshot to the bound one.

        A worker whose digest sits on the delta chain gets the rotation
        as one MUTATE push; everyone else — including a pushed worker
        that refused its delta — gets the full GRAPH frame.
        """
        digest = self._ensure_digest()
        if handle.digest == digest:
            return
        if (
            handle.digest in self._chain
            and handle.caps & wire.CAP_MUTATE
            and self._push_delta(handle, sock, digest)
        ):
            return
        sock.sendall(self._graph_frame)
        kind, payload = read_frame(sock)
        if kind != wire.KIND_HELLO or payload["digest"] != digest:
            raise ProtocolError(
                f"worker {handle.address} failed to install graph "
                f"{digest:#x}"
            )
        handle.digest = digest
        handle.last_seen = time.monotonic()
        self._ingest["graph_installs"] += 1
        self._ingest["graph_bytes"] += len(self._graph_frame)

    def _request(self, handle: WorkerHandle, spec: ShardSpec) -> dict:
        """One request/response exchange: SHARD_SPEC → REDUCED [+FRAGMENT]."""
        try:
            with handle.lock:
                if handle.sock is None:
                    handle.sock = self._connect(handle)
                sock = handle.sock
                self._install(handle, sock)
                sock.sendall(
                    wire.encode_shard_spec(
                        shard=spec.shard,
                        attempt=spec.attempt,
                        epoch=spec.epoch,
                        entropy=spec.entropy,
                        epsilon=spec.epsilon,
                        domain=spec.domain,
                        layer=_LAYER_TAGS[self._layer],
                        vertices=spec.vertices,
                        versions=spec.versions,
                        ia=spec.ia,
                        ib=spec.ib,
                        want_fragment=spec.want_fragment,
                        measure=spec.measure,
                    )
                )
                received = 0
                kind, payload = read_frame(sock)
                if kind == wire.KIND_WORKER_ERROR:
                    # A deterministic worker-side bug, not a substrate
                    # fault: re-dispatching it would reproduce it.
                    raise ProtocolError(
                        f"worker {handle.address}: {payload['message']}"
                    )
                if kind != wire.KIND_REDUCED:
                    raise ProtocolError(
                        f"worker {handle.address} answered a spec with "
                        f"kind {kind}"
                    )
                reduced = payload
                received += (
                    wire.frame_overhead()
                    + reduced["sizes"].nbytes
                    + reduced["n1"].nbytes
                    + 24
                )
                fragment = None
                if spec.want_fragment:
                    kind, fragment = read_frame(sock)
                    if kind != wire.KIND_FRAGMENT:
                        raise ProtocolError(
                            f"worker {handle.address} sent kind {kind} "
                            "instead of the requested fragment"
                        )
                    received += (
                        wire.frame_overhead()
                        + fragment["indptr"].nbytes
                        + fragment["columns"].nbytes
                        + 12
                    )
                handle.last_seen = time.monotonic()
                handle.dispatched += 1
                return {
                    "reduced": reduced,
                    "fragment": fragment,
                    "payload_bytes": received,
                }
        except socket.timeout as exc:
            # A deadline inside the socket layer is the remote analogue
            # of a fork task outliving timeout_s.
            handle.drop()
            raise TimeoutError(
                f"worker {handle.address} exceeded the request deadline"
            ) from exc
        except OSError:
            handle.drop()
            raise
        except PayloadIntegrityError:
            # The frame arrived but its bytes contradict the checksum
            # word: drop the stream (it can no longer be trusted to be
            # frame-aligned) and let the driver re-dispatch.
            handle.drop()
            raise

    # -- the contract --------------------------------------------------
    def submit(self, spec: ShardSpec) -> Future:
        live = self.registry.live()
        if not live:
            raise ConnectionError("no live socket workers remain")
        handle = live[(spec.shard + spec.attempt) % len(live)]
        return self._pool().submit(self._request, handle, spec)

    def finalize(
        self, spec: ShardSpec, raw, *, verify: bool = True
    ) -> ShardResult:
        # Checksums were verified at frame decode time (wire.decode_frame
        # raises PayloadIntegrityError on mismatch), so `verify` has
        # nothing left to do here.
        reduced = raw["reduced"]
        fragment = raw["fragment"]
        n1 = reduced["n1"]
        return ShardResult(
            shard=spec.shard,
            attempt=spec.attempt,
            sizes=reduced["sizes"],
            indptr=None if fragment is None else fragment["indptr"],
            columns=None if fragment is None else fragment["columns"],
            n1=n1 if (spec.ia is not None and n1.size) else None,
            backend="remote",
            peak_bytes=reduced["peak_bytes"],
            payload_bytes=int(raw["payload_bytes"]),
        )

    def recycle(
        self, failed: list[ShardSpec], *, retire: bool = True
    ) -> None:
        """Drop every suspect connection and heartbeat the cluster.

        Connections already faulted were dropped in ``_request``; the
        remaining handles get a PING, and ones that cannot answer are
        marked dead so the next round's round-robin skips them — the
        deterministic re-dispatch of a dead worker's ranges. A
        deterministic error (``retire=False``) faults no connection, so
        there is nothing to probe.
        """
        if retire:
            self.ping()

    def ping(self) -> int:
        """Heartbeat every handle; mark unresponsive workers dead.

        Dead handles are *probed* rather than skipped: a replacement
        worker listening on the same address (or the original, restarted
        mid-stream) answers the probe's HELLO and revives its handle —
        the rejoin path of the streaming cluster. A rejoined worker's
        digest comes from its HELLO, so its next dispatch resyncs it
        through :meth:`_install` (delta push when its digest is still on
        the chain, full install otherwise). Returns the number of live
        workers after the sweep.
        """
        for handle in self.registry.handles:
            self._seq += 1
            nonce = self._seq & 0xFFFFFFFF
            try:
                with handle.lock:
                    if handle.sock is None:
                        handle.sock = self._connect(handle)
                    handle.sock.sendall(wire.encode_ping(nonce))
                    kind, payload = read_frame(handle.sock)
                    if kind != wire.KIND_PONG or payload["nonce"] != nonce:
                        raise ConnectionError("bad heartbeat answer")
                handle.last_seen = time.monotonic()
                handle.alive = True
            except (OSError, ProtocolError):
                self.registry.mark_dead(handle)
        return len(self.registry.live())

    def close(self) -> None:
        """Drop every connection and the request thread pool. Idempotent."""
        self._closed = True
        if self._threads is not None:
            self._threads.shutdown(wait=True, cancel_futures=True)
            self._threads = None
        for handle in self.registry.handles:
            handle.drop()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "workers": int(self.workers),
            "cluster": self.registry.describe(),
            "ingest": dict(self._ingest),
        }


# ----------------------------------------------------------------------
# The transport-agnostic retry driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """The resilience envelope's knobs, independent of any substrate.

    ``timeout_s`` bounds a task's *execution*: a retry round waits one
    deadline per execution wave (``ceil(tasks / transport.workers)``),
    so a task queued behind other shards is never charged for queue time
    and the round's total wall wait stays bounded by
    ``waves * timeout_s``. ``max_retries`` rounds re-dispatch against a
    recycled substrate under capped exponential backoff whose jitter
    comes from the keyed Philox stream (deterministic per
    ``(entropy, epoch, attempt)``, never wall-clock randomness); after
    the budget is exhausted the remaining ranges degrade to inline
    execution in the caller — the terminal fallback that cannot fail
    the way a worker can.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    verify_payloads: bool = True

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ProtocolError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ProtocolError("backoff parameters must be >= 0")

    def backoff_wait(self, entropy: int, epoch: int, attempt: int) -> float:
        """Capped exponential backoff, jittered from the keyed stream."""
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** max(0, attempt - 1)),
        )
        if base <= 0:
            return 0.0
        bitgen = np.random.Philox(
            counter=[int(attempt), int(epoch), 0, 0],
            key=[int(entropy) ^ _BACKOFF_TAG, _BACKOFF_TAG],
        )
        jitter = 0.5 + 0.5 * float(np.random.Generator(bitgen).random())
        return base * jitter


def drive(
    transport: ShardTransport,
    graph: BipartiteGraph,
    layer: Layer,
    specs: list[ShardSpec],
    policy: RetryPolicy,
    *,
    entropy: int,
    epoch: int,
    faults: dict,
    dispatches: Counter,
) -> dict[int, ShardResult]:
    """Run every spec to completion under the resilience envelope.

    The loop PR 6 built for the fork pool, expressed against the
    transport contract: submit the pending round, wait one wave-scaled
    deadline for all of it, classify what failed (deadline expiry,
    substrate death, payload corruption), recycle the substrate, back
    off on the keyed-jitter schedule, and re-dispatch — up to
    ``policy.max_retries`` rounds, after which the survivors degrade to
    inline :func:`execute_spec` with ``attempt = -1``. Non-fault
    exceptions (a PrivacyError from bad epsilon, a GraphError) are *not*
    retried: they propagate after the round is recycled, because
    re-dispatching a deterministic bug reproduces it.

    Mutates ``faults`` (an :func:`empty_faults` dict) and ``dispatches``
    (per-shard submission counts) in place; returns shard → result.
    """
    results: dict[int, ShardResult] = {}
    pending: dict[int, ShardSpec] = {spec.shard: spec for spec in specs}

    if transport.parallel and len(specs) > 1:
        attempt = 0
        while pending and attempt <= policy.max_retries:
            if attempt:
                wait = policy.backoff_wait(entropy, epoch, attempt)
                faults["backoff_s"].append(round(wait, 6))
                faults["retries"] += len(pending)
                if wait > 0:
                    time.sleep(wait)
            submitted: dict[int, tuple[ShardSpec, Future]] = {}
            failed: dict[int, ShardSpec] = {}
            for s, spec in pending.items():
                spec_a = replace(spec, attempt=attempt)
                try:
                    future = transport.submit(spec_a)
                except _WORKER_FAULTS as exc:
                    faults[_fault_kind(exc)] += 1
                    failed[s] = spec
                    continue
                dispatches[s] += 1
                submitted[s] = (spec_a, future)
            # One wait for the whole round. The deadline bounds a task's
            # *execution*, not its queue position: with more ranges than
            # workers a queued task is healthy, so the round gets one
            # timeout per execution wave the transport needs — which
            # also caps the total wall wait at waves * timeout_s instead
            # of tasks * timeout_s.
            expired: set = set()
            if submitted:
                futures = [f for _, f in submitted.values()]
                if policy.timeout_s is None:
                    _wait_futures(futures)
                else:
                    waves = -(-len(submitted) // max(1, transport.workers))
                    _, expired = _wait_futures(
                        futures, timeout=policy.timeout_s * waves
                    )
            for s, (spec_a, future) in submitted.items():
                if future in expired:
                    faults["timeouts"] += 1
                    failed[s] = pending[s]
                    continue
                try:
                    raw = future.result()
                    results[s] = transport.finalize(
                        spec_a, raw, verify=policy.verify_payloads
                    )
                except _WORKER_FAULTS as exc:
                    faults[_fault_kind(exc)] += 1
                    failed[s] = pending[s]
                except BaseException:
                    # A deterministic bug, not a worker fault: release
                    # the unfinished dispatches' resources, keep the
                    # healthy workers, and propagate.
                    transport.recycle(
                        [a for t, (a, _) in submitted.items()
                         if t not in results],
                        retire=False,
                    )
                    raise
            if failed:
                transport.recycle(
                    [replace(pending[s], attempt=attempt) for s in failed]
                )
            pending = failed
            attempt += 1
        for s, spec in sorted(pending.items()):
            faults["degraded_ranges"].append((int(spec.lo), int(spec.hi)))
    # Terminal fallback — and the whole path for serial transports or
    # single-spec draws: execute inline in the caller. attempt = -1
    # keeps a chaos plan keyed on pool attempts from firing here (inline
    # execution has no worker to kill and no payload to poison, which is
    # exactly why it is the terminal fallback).
    for s, spec in sorted(pending.items()):
        result = execute_spec(graph, layer, replace(spec, attempt=-1))
        dispatches[s] += 1
        results[s] = result
    return results


# ----------------------------------------------------------------------
def make_transport(
    kind: str,
    *,
    max_workers: int | None = None,
    workers=None,
) -> ShardTransport:
    """Build a transport by name: ``inline``, ``fork`` or ``socket``.

    ``max_workers`` sizes the fork pool; ``workers`` is the socket
    cluster's address list (``["host:port", ...]``). The CLI's
    ``serve --transport`` flag resolves through here.
    """
    if kind == "inline":
        return InlineTransport()
    if kind == "fork":
        return ForkTransport(max_workers=max_workers)
    if kind == "socket":
        if not workers:
            raise ProtocolError(
                "a socket transport needs --workers host:port[,host:port...]"
            )
        return SocketTransport(workers)
    raise ProtocolError(
        f"unknown transport {kind!r} (expected inline, fork or socket)"
    )
