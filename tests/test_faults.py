"""Chaos suite: every injected failure schedule is invisible in the bits.

The resilience contract under test (``docs/resilience-guide.md``): a
shard task is a pure function of ``(graph, range, epsilon, entropy,
epoch)``, so killed workers, stalled workers, corrupted payloads — any
:class:`~repro.engine.faults.FaultPlan` at all — must yield output
byte-identical to the fault-free keyed pass, charge the privacy ledger
exactly once, and leave no ``SharedMemory`` segment or worker process
behind.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine.bulkrr import keyed_bulk_randomized_response
from repro.engine.core import BatchQueryEngine
from repro.engine.faults import FAULT_PLAN_ENV, FaultAction, FaultPlan
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner, fork_available
from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.privacy.accountant import PrivacyLedger
from repro.protocol.session import ExecutionMode

from forkcheck import live_workers, shm_residue

EPS = 2.0
ENTROPY = 20240611
SHARDS = 3

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fault injection needs forked worker pools"
)


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(90, 60, 700, rng=23)


@pytest.fixture(scope="module")
def plan(graph):
    return plan_shards(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS, shards=SHARDS
    )


@pytest.fixture(scope="module")
def reference(graph):
    return keyed_bulk_randomized_response(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS,
        entropy=ENTROPY, epoch=0,
    )


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no installed fault plan."""
    FaultPlan.uninstall()
    yield
    FaultPlan.uninstall()


def idle_segments(runner) -> list[str]:
    """The fork transport's segments kept for reuse, as /dev/shm paths."""
    return sorted(f"/dev/shm/{block.name}" for block in runner.transport._free)


def record_lends(runner, monkeypatch) -> list:
    """Log ``((shard, attempt), segment name)`` for every lend, in order."""
    transport = runner.transport
    submit = transport.submit
    lends = []

    def spy(spec):
        future = submit(spec)
        key = (spec.shard, spec.attempt)
        if key in transport._lent:
            lends.append((key, transport._lent[key].name))
        return future

    monkeypatch.setattr(transport, "submit", spy)
    return lends


# ----------------------------------------------------------------------
# FaultPlan mechanics (no processes involved)
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown fault kind"):
            FaultAction(kind="segfault")

    def test_rejects_negative_delay(self):
        with pytest.raises(ProtocolError, match="delay_s"):
            FaultAction(kind="delay", delay_s=-1.0)

    def test_matches_shard_and_attempt(self):
        action = FaultAction(kind="kill", shard=2, attempts=(0, 1))
        assert action.matches(2, 0) and action.matches(2, 1)
        assert not action.matches(2, 2)
        assert not action.matches(1, 0)

    def test_none_wildcards_match_everything(self):
        action = FaultAction(kind="kill", shard=None, attempts=None)
        assert action.matches(0, 0) and action.matches(7, 5)

    def test_action_for_returns_first_match(self):
        plan = FaultPlan(
            (
                FaultAction(kind="delay", shard=1, delay_s=0.5),
                FaultAction(kind="kill", shard=None, attempts=None),
            )
        )
        assert plan.action_for(1, 0).kind == "delay"
        assert plan.action_for(0, 3).kind == "kill"

    def test_mutation_sentinel_is_disjoint_from_shard_tasks(self):
        """A plan keyed on the MUTATE sentinel fires only for mutation
        pushes (the worker looks it up under shard -2, sequence as the
        attempt) and never intercepts ordinary shard dispatches."""
        from repro.engine.worker import MUTATE_FAULT_SHARD

        plan = FaultPlan.kill_shards([MUTATE_FAULT_SHARD])
        assert plan.action_for(MUTATE_FAULT_SHARD, 0).kind == "kill"
        assert plan.action_for(MUTATE_FAULT_SHARD, 1) is None
        for shard in range(4):  # real shard tasks are untouched
            assert plan.action_for(shard, 0) is None

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultAction(kind="poison", shard=0),
                FaultAction(kind="delay", shard=None, attempts=None, delay_s=1.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_transport(self):
        plan = FaultPlan.kill_shards([1, 2], attempts=(0,))
        assert FaultPlan.from_env() is None
        with plan.active():
            assert os.environ[FAULT_PLAN_ENV]
            assert FaultPlan.from_env() == plan
        assert FaultPlan.from_env() is None

    def test_uninstall_is_idempotent(self):
        FaultPlan.uninstall()
        FaultPlan.uninstall()
        assert FaultPlan.from_env() is None


# ----------------------------------------------------------------------
# Runner parameter validation
# ----------------------------------------------------------------------
class TestRunnerValidation:
    def test_rejects_bad_timeout(self, graph):
        with pytest.raises(ProtocolError, match="timeout_s"):
            ShardedRunner(graph, Layer.UPPER, timeout_s=0)

    def test_rejects_negative_retries(self, graph):
        with pytest.raises(ProtocolError, match="max_retries"):
            ShardedRunner(graph, Layer.UPPER, max_retries=-1)

    def test_rejects_negative_backoff(self, graph):
        with pytest.raises(ProtocolError, match="backoff"):
            ShardedRunner(graph, Layer.UPPER, backoff_base_s=-0.1)


# ----------------------------------------------------------------------
# The chaos schedules: byte-identity survives every failure plan
# ----------------------------------------------------------------------
SCHEDULES = [
    pytest.param(FaultPlan.kill_shards([0]), id="kill-first"),
    pytest.param(FaultPlan.kill_shards([SHARDS - 1]), id="kill-last"),
    pytest.param(
        FaultPlan.kill_shards(list(range(SHARDS - 1))), id="kill-all-but-one"
    ),
    pytest.param(
        FaultPlan.kill_shards([1], after_write=True), id="kill-after-write"
    ),
    pytest.param(FaultPlan.delay_shards([0], 2.5), id="delay-past-deadline"),
    pytest.param(FaultPlan.poison_shards([2]), id="poison-payload"),
    pytest.param(
        FaultPlan.poison_shards(None, attempts=(0, 1)), id="poison-twice-all"
    ),
    pytest.param(
        FaultPlan.kill_shards(None, attempts=None), id="kill-all-every-attempt"
    ),
]


@needs_fork
@pytest.mark.parametrize("fault_plan", SCHEDULES)
def test_byte_identity_survives_schedule(graph, plan, reference, fault_plan):
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=1.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with fault_plan.active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert np.array_equal(drawn.indptr, ref_indptr)
        assert np.array_equal(drawn.columns, ref_columns)
        injected = any(
            drawn.faults[key]
            for key in ("retries", "timeouts", "worker_deaths", "payload_errors")
        ) or drawn.faults["degraded_ranges"]
        assert injected, "the schedule should have produced observable faults"
    assert not live_workers(), "no pool worker may outlive close()"
    assert not shm_residue(), "no /dev/shm segment may outlive the runner"


@needs_fork
def test_kill_everything_degrades_to_inline(graph, plan, reference):
    """Retry exhaustion falls back to the parent and still finishes."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.kill_shards(None, attempts=None).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert sorted(drawn.faults["degraded_ranges"]) == plan.ranges()
    assert all(shard["degraded"] for shard in drawn.shards)


@needs_fork
def test_fault_counters_classify_the_failure(graph, plan):
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=1.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with FaultPlan.poison_shards([0]).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["payload_errors"] == 1
        assert drawn.faults["worker_deaths"] == 0
        assert drawn.faults["retries"] >= 1
        assert len(drawn.faults["backoff_s"]) >= 1
        assert runner.fault_totals["payload_errors"] == 1


@needs_fork
def test_delay_trips_deadline_and_zombie_segment_is_reclaimed(graph, plan):
    """Regression: a stalled worker times out, and close() must join it.

    ``recycle`` shuts the suspect pool down, which empties the pool's
    handle map; without a snapshot taken first, close() found no worker
    to join, and the zombie outlived the runner and created its segment
    after close().
    """
    start = time.monotonic()
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.3, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 1.5).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
    assert not live_workers(), "close() must join the stalled worker"
    time.sleep(max(0.0, start + 2.0 - time.monotonic()))  # wait out the delay
    assert not shm_residue()


@needs_fork
def test_kill_after_write_reclaims_orphaned_segment(graph, plan, monkeypatch):
    """Regression: a worker dying after it wrote its fragment, before the
    parent heard back, used to leak the segment. The segment lent to the
    dead dispatch is unlinked during the draw; what stays is exactly the
    parent's idle segments."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        lends = record_lends(runner, monkeypatch)
        with FaultPlan.kill_shards([0], after_write=True).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["worker_deaths"] >= 1
        orphan = f"/dev/shm/{dict(lends)[(0, 0)]}"
        assert orphan not in shm_residue(), "orphan must go during the draw"
        assert sorted(shm_residue()) == idle_segments(runner)
    assert not live_workers()
    assert not shm_residue()


@needs_fork
def test_queued_tasks_do_not_spuriously_time_out(graph, reference):
    """The deadline bounds *execution*, not queue position: with more
    ranges than workers, a healthy task queued behind a full first wave
    must not be declared timed out (the round waits one deadline per
    execution wave)."""
    ref_indptr, ref_columns = reference
    plan4 = plan_shards(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS, shards=4
    )
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.45, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        # Every task runs ~0.25s, so the second wave finishes ~0.5s
        # after dispatch — past one deadline, comfortably inside the
        # two-wave round budget of 0.9s.
        with FaultPlan.delay_shards(None, 0.25).active():
            drawn = runner.draw(plan4, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert drawn.faults["timeouts"] == 0
    assert drawn.faults["retries"] == 0
    assert not drawn.faults["degraded_ranges"]


@needs_fork
def test_close_is_bounded_with_a_wedged_worker(graph, plan, monkeypatch):
    """Regression: close() used to join retired pools with ``wait=True``,
    so a permanently stuck worker hung shutdown forever. The bounded
    join terminates stragglers instead."""
    import repro.engine.transport as transport_mod

    monkeypatch.setattr(transport_mod, "_JOIN_GRACE_S", 0.3)
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.2, max_retries=0, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 60.0).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        start = time.monotonic()
    elapsed = time.monotonic() - start  # `with` exit ran close()
    assert elapsed < 5.0, "close() must not inherit a wedged worker's hang"
    assert not live_workers()
    assert not shm_residue()


@needs_fork
def test_recurring_faults_do_not_grow_the_segment_registry(graph, plan):
    """A long-running server under recurring faults keeps bounded state:
    segments are reused or unlinked, so at most one round's fragment
    dispatches stay resident, and the next recycle drops the handles of
    retired workers that have exited."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        parked = runner.transport._parked
        for _ in range(3):
            with FaultPlan.kill_shards([0]).active():
                runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            assert len(shm_residue()) <= SHARDS
            assert sorted(shm_residue()) == idle_segments(runner)
        exited = list(parked)
        for proc in exited:
            proc.join(timeout=5.0)
        with FaultPlan.kill_shards([0]).active():
            runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert not set(exited) & set(parked), "exited handles must be dropped"
        assert len(parked) <= runner.max_workers  # one retired pool's worth
    assert not live_workers()
    assert not shm_residue()


# ----------------------------------------------------------------------
# Segment ownership: the parent creates, lends and unlinks every segment
# ----------------------------------------------------------------------
@needs_fork
def test_timed_out_segment_is_unlinked_and_never_lent_again(
    graph, plan, monkeypatch
):
    """The segment lent to a stalled dispatch is unlinked at recycle and
    never lent again; the zombie that wakes later creates nothing."""
    start = time.monotonic()
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.2, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        lends = record_lends(runner, monkeypatch)
        with FaultPlan.delay_shards([0], 0.8).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        stale = dict(lends)[(0, 0)]
        assert f"/dev/shm/{stale}" not in shm_residue()
        time.sleep(max(0.0, start + 1.2 - time.monotonic()))  # zombie wakes
        assert sorted(shm_residue()) == idle_segments(runner)
        runner.draw(plan, EPS, entropy=ENTROPY, epoch=1)
        assert [name for _, name in lends].count(stale) == 1
        assert f"/dev/shm/{stale}" not in idle_segments(runner)
    assert not live_workers()
    assert not shm_residue()


@needs_fork
def test_draws_of_a_fixed_plan_create_one_rounds_segments(
    graph, plan, reference, monkeypatch
):
    """Segments are lent again draw after draw: N draws of one plan
    create at most one segment per fragment dispatch of a round."""
    created = []

    class CountingSegment(shared_memory.SharedMemory):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                created.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", CountingSegment)
    with ShardedRunner(graph, Layer.UPPER, max_workers=2) as runner:
        for _ in range(5):
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            assert np.array_equal(drawn.columns, reference[1])
    assert 0 < len(created) <= plan.num_shards
    assert not shm_residue()


@needs_fork
def test_dropped_transport_unlinks_every_segment(graph, plan):
    """The GC finalizer of a transport dropped without close() joins its
    workers and unlinks every segment it still owns."""
    runner = ShardedRunner(graph, Layer.UPPER, max_workers=2)
    runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
    assert shm_residue(), "idle segments stay for the next draw"
    del runner
    assert not shm_residue()
    assert not live_workers()


@needs_fork
def test_idle_segments_hold_no_pages(graph, plan):
    """Taking a segment back hands its written pages back to tmpfs, so
    an idle segment costs neither /dev/shm bytes nor parent RSS."""
    with ShardedRunner(graph, Layer.UPPER, max_workers=2) as runner:
        runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        idle = idle_segments(runner)
        assert idle and sorted(shm_residue()) == idle
        assert all(os.stat(path).st_blocks == 0 for path in idle)
    assert not shm_residue()


@needs_fork
def test_two_live_fork_runners_share_no_segment_name(graph, plan, reference):
    """Segment names carry the transport's token: two fork runners alive
    in one process never create the same name, so neither sees a
    spurious fault."""
    with ShardedRunner(graph, Layer.UPPER, max_workers=2) as first, \
            ShardedRunner(graph, Layer.UPPER, max_workers=2) as second:
        for _ in range(2):
            for runner in (first, second):
                drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
                assert np.array_equal(drawn.columns, reference[1])
        assert not set(idle_segments(first)) & set(idle_segments(second))
        for runner in (first, second):
            assert sum(runner.fault_totals.values()) == 0
    assert not live_workers()
    assert not shm_residue()


@needs_fork
def test_genuine_errors_are_not_retried(graph, plan, reference):
    """A deterministic bug (bad epsilon) propagates instead of retrying,
    and leaves the healthy pool serving the next draw."""
    with ShardedRunner(
        graph, Layer.UPPER, max_workers=2, timeout_s=5.0, max_retries=3
    ) as runner:
        runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        pool = runner.transport._pool_box[0]
        with pytest.raises(PrivacyError):
            runner.draw(plan, -1.0, entropy=ENTROPY, epoch=0)
        assert runner.fault_totals["retries"] == 0
        assert not runner.transport._lent
        assert sorted(shm_residue()) == idle_segments(runner)
        drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert runner.transport._pool_box[0] is pool, "no re-fork"
        assert np.array_equal(drawn.columns, reference[1])
        assert sum(runner.fault_totals.values()) == 0
    assert not live_workers()
    assert not shm_residue()


def test_inline_runner_ignores_fault_plans(graph, plan, reference):
    """A 1-worker runner never forks, so no fault can touch it."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
        with FaultPlan.kill_shards(None, attempts=None).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert drawn.faults["retries"] == 0
    assert not drawn.faults["degraded_ranges"]


@needs_fork
def test_backoff_schedule_is_keyed_not_wallclock(graph, plan):
    """The same failure schedule replays the same backoff waits."""
    waits = []
    for _ in range(2):
        with ShardedRunner(
            graph, Layer.UPPER,
            max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.02,
        ) as runner:
            with FaultPlan.poison_shards([0], attempts=(0, 1)).active():
                drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            waits.append(tuple(drawn.faults["backoff_s"]))
    assert waits[0] == waits[1]
    assert len(waits[0]) == 2


# ----------------------------------------------------------------------
# Engine-level accounting: faults charge nothing extra
# ----------------------------------------------------------------------
@needs_fork
def test_single_charge_accounting_under_faults(graph):
    """Fault vs no-fault runs: identical estimates, identical spend."""
    pairs = sample_query_pairs(graph, Layer.UPPER, 12, rng=5)

    def run(fault_plan):
        ledger = PrivacyLedger()
        with BatchQueryEngine(
            mode=ExecutionMode.MATERIALIZE,
            shards=SHARDS, shard_timeout_s=2.0, shard_retries=2,
        ) as engine:
            engine._shard_runner(graph, Layer.UPPER).backoff_base_s = 0.01
            if fault_plan is not None:
                with fault_plan.active():
                    result = engine.estimate_pairs(
                        graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                    )
            else:
                result = engine.estimate_pairs(
                    graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                )
        return result, ledger

    clean, clean_ledger = run(None)
    chaos, chaos_ledger = run(FaultPlan.kill_shards([0]))
    np.testing.assert_array_equal(clean.values, chaos.values)
    np.testing.assert_array_equal(
        clean.noisy_intersections, chaos.noisy_intersections
    )
    assert clean_ledger.max_spent() == chaos_ledger.max_spent()
    assert clean.upload_bytes == chaos.upload_bytes
    faults = chaos.details["shards"]["faults"]
    assert faults["worker_deaths"] >= 1
    assert clean.details["shards"]["faults"]["retries"] == 0
    assert not shm_residue()
