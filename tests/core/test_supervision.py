"""Unit coverage of the supervision layer and the chaos injector.

:class:`~repro.core.supervision.PoolSupervisor` is driven here through fake
``submit``/``recover`` callbacks (plain :class:`~concurrent.futures.Future`
objects, no processes), so every policy decision — deadline math, fault
classification, retry/budget accounting, terminal escalation — is pinned
without multiprocessing nondeterminism.  The process-level behaviour (real
kills, real timeouts) lives in ``test_fault_tolerance.py``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.supervision import (
    FAULT_KINDS,
    DeadlinePolicy,
    FanoutFault,
    FanoutFaultError,
    FaultCounters,
    FaultPolicy,
    PoolSupervisor,
    WorkerJob,
    classify_fault,
)
from repro.testing.chaos import (
    CHAOS_ENV,
    ChaosInjector,
    ChaosSpec,
    chaos_from_env,
)


# --------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------- #
class TestDeadlinePolicy:
    def test_timeout_scales_with_units_and_backs_off_per_attempt(self):
        policy = DeadlinePolicy(dispatch_timeout=10.0, per_item=0.5, backoff=2.0)
        assert policy.timeout_for(0, work_units=4) == 12.0
        assert policy.timeout_for(1, work_units=4) == 24.0
        assert policy.timeout_for(2, work_units=4) == 48.0

    def test_none_disables_deadlines(self):
        policy = DeadlinePolicy(dispatch_timeout=None)
        assert policy.timeout_for(0) is None
        assert policy.timeout_for(3, work_units=100) is None

    def test_negative_units_do_not_shrink_the_base(self):
        policy = DeadlinePolicy(dispatch_timeout=10.0, per_item=1.0)
        assert policy.timeout_for(0, work_units=0) == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dispatch_timeout": 0.0},
            {"dispatch_timeout": -1.0},
            {"per_item": -0.1},
            {"backoff": 0.5},
            {"max_retries": -1},
        ],
    )
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeadlinePolicy(**kwargs)


class TestFaultPolicy:
    def test_default_mode_recovers(self):
        assert FaultPolicy().recovers
        assert not FaultPolicy(mode="degrade_serial").recovers

    @pytest.mark.parametrize("mode", ["recover", "degrade_serial", "raise"])
    def test_every_ladder_rung_is_accepted(self, mode):
        assert FaultPolicy(mode=mode).mode == mode

    def test_unknown_mode_and_negative_budget_are_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            FaultPolicy(mode="explode")
        with pytest.raises(ValueError, match="max_recoveries"):
            FaultPolicy(max_recoveries=-1)


class TestClassification:
    def test_taxonomy(self):
        assert classify_fault(BrokenProcessPool()) == "crash"
        assert classify_fault(FutureTimeout()) == "timeout"
        assert classify_fault(TimeoutError()) == "timeout"
        assert classify_fault(ValueError("corrupt wire")) == "desync"
        assert classify_fault(RuntimeError("gap")) == "desync"

    def test_counters_track_every_kind(self):
        counters = FaultCounters()
        assert set(counters.faults) == set(FAULT_KINDS)
        counters.record_fault("crash")
        counters.record_fault("crash")
        counters.record_fault("timeout")
        assert counters.total_faults == 3
        snapshot = counters.as_dict()
        assert snapshot["faults"]["crash"] == 2
        assert snapshot["retries"] == 0 and snapshot["demotions"] == 0


class TestFanoutFault:
    def test_is_a_runtime_warning_with_taxonomy_fields(self):
        fault = FanoutFault("worker died", kind="crash", pool="saturation", attempt=2)
        assert isinstance(fault, RuntimeWarning)
        assert (fault.kind, fault.pool, fault.attempt) == ("crash", "saturation", 2)

    def test_error_twin_carries_the_same_fields(self):
        error = FanoutFaultError("terminal", kind="timeout", pool="saturation", attempt=3)
        assert isinstance(error, RuntimeError)
        assert (error.kind, error.pool, error.attempt) == ("timeout", "saturation", 3)


# --------------------------------------------------------------------- #
# the supervisor loop, driven with fake futures
# --------------------------------------------------------------------- #
def _done(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _failed(error: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


class _FlakyPool:
    """Fake pool: scripted failures per (worker, ordinal-of-submission)."""

    def __init__(self, fail_first: int = 0, recover_raises: BaseException | None = None):
        self.fail_first = fail_first
        self.recover_raises = recover_raises
        self.submissions: list[tuple[int, tuple]] = []
        self.recovered: list[int] = []

    def submit(self, worker: int, payload: tuple) -> Future:
        ordinal = len(self.submissions)
        self.submissions.append((worker, payload))
        if ordinal < self.fail_first:
            return _failed(BrokenProcessPool(f"scripted crash #{ordinal}"))
        return _done(("ok", worker, payload))

    def recover(self, worker: int) -> None:
        if self.recover_raises is not None:
            raise self.recover_raises
        self.recovered.append(worker)


def _jobs(n: int) -> list[WorkerJob]:
    return [
        WorkerJob(worker=i, payload=("first", i), retry_payload=("retry", i), units=1)
        for i in range(n)
    ]


class TestPoolSupervisor:
    def test_healthy_run_is_warning_free_and_ordered(self):
        pool = _FlakyPool()
        supervisor = PoolSupervisor("saturation")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = supervisor.run(_jobs(3), pool.submit, pool.recover)
        assert [r[1] for r in results] == [0, 1, 2]
        assert supervisor.counters.total_faults == 0
        assert not pool.recovered

    def test_fault_recovers_resubmits_retry_payload_and_warns(self):
        pool = _FlakyPool(fail_first=1)
        supervisor = PoolSupervisor("saturation")
        with pytest.warns(FanoutFault) as captured:
            results = supervisor.run(_jobs(2), pool.submit, pool.recover)
        assert results[0] == ("ok", 0, ("retry", 0))  # clean payload, not the original
        assert results[1] == ("ok", 1, ("first", 1))  # the healthy sibling untouched
        assert pool.recovered == [0]
        counters = supervisor.counters
        assert counters.faults["crash"] == 1
        assert counters.retries == 1 and counters.recoveries == 1
        assert counters.recovery_seconds >= 0.0
        (record,) = [w for w in captured.list if issubclass(w.category, FanoutFault)]
        assert record.message.kind == "crash"
        assert record.message.pool == "saturation"
        assert record.message.attempt == 1

    def test_retry_budget_exhaustion_is_terminal(self):
        pool = _FlakyPool(fail_first=100)  # never succeeds
        supervisor = PoolSupervisor(
            "saturation", deadline_policy=DeadlinePolicy(max_retries=2)
        )
        with pytest.warns(FanoutFault):
            with pytest.raises(FanoutFaultError) as excinfo:
                supervisor.run(_jobs(1), pool.submit, pool.recover)
        assert excinfo.value.kind == "crash"
        assert excinfo.value.attempt == 3  # 1 original + 2 retries, all faulted
        assert supervisor.counters.recoveries == 2

    def test_recovery_budget_exhaustion_is_terminal(self):
        pool = _FlakyPool(fail_first=100)
        supervisor = PoolSupervisor(
            "saturation",
            fault_policy=FaultPolicy(max_recoveries=1),
            deadline_policy=DeadlinePolicy(max_retries=10),
        )
        with pytest.warns(FanoutFault):
            with pytest.raises(FanoutFaultError):
                supervisor.run(_jobs(1), pool.submit, pool.recover)
        assert supervisor.counters.recoveries == 1  # the budget, exactly

    @pytest.mark.parametrize("mode", ["degrade_serial", "raise"])
    def test_non_recovering_modes_escalate_on_first_fault(self, mode):
        pool = _FlakyPool(fail_first=1)
        supervisor = PoolSupervisor("saturation", fault_policy=FaultPolicy(mode=mode))
        with pytest.raises(FanoutFaultError) as excinfo:
            supervisor.run(_jobs(1), pool.submit, pool.recover)
        assert excinfo.value.attempt == 1
        assert not pool.recovered  # escalation must not thrash the pool first

    def test_failed_recovery_is_a_terminal_seed_failure(self):
        pool = _FlakyPool(fail_first=1, recover_raises=OSError("no more processes"))
        supervisor = PoolSupervisor("saturation")
        with pytest.warns(FanoutFault):
            with pytest.raises(FanoutFaultError) as excinfo:
                supervisor.run(_jobs(1), pool.submit, pool.recover)
        assert excinfo.value.kind == "seed-failure"
        assert supervisor.counters.faults["seed-failure"] == 1

    def test_synchronous_submit_failure_folds_into_the_await_path(self):
        supervisor = PoolSupervisor("saturation")
        calls = []

        def submit(worker, payload):
            calls.append(payload)
            if len(calls) == 1:
                raise BrokenProcessPool("died at submit time")
            return _done("recovered")

        recovered = []
        with pytest.warns(FanoutFault):
            results = supervisor.run(_jobs(1), submit, recovered.append)
        assert results == ["recovered"]
        assert recovered == [0]


# --------------------------------------------------------------------- #
# the chaos injector
# --------------------------------------------------------------------- #
class TestChaosSpec:
    def test_lists_coerce_to_tuples_and_stay_hashable(self):
        spec = ChaosSpec(kill_at=[1, 3], delay_at=[0])
        assert spec.kill_at == (1, 3)
        hash(spec)  # rides on the frozen DLearnConfig and in memo keys

    def test_negative_ordinals_and_nonpositive_delays_are_rejected(self):
        with pytest.raises(ValueError, match="ordinals"):
            ChaosSpec(kill_at=(-1,))
        with pytest.raises(ValueError, match="delay_seconds"):
            ChaosSpec(delay_seconds=0.0)

    def test_seeded_specs_are_deterministic_and_disjoint(self):
        one = ChaosSpec.seeded(7, kills=2, delays=2, drops=2, horizon=12)
        two = ChaosSpec.seeded(7, kills=2, delays=2, drops=2, horizon=12)
        assert one == two
        ordinals = one.kill_at + one.delay_at + one.drop_delta_at
        assert len(set(ordinals)) == 6  # disjoint by construction
        assert not one.empty
        assert ChaosSpec().empty

    def test_seeded_refuses_an_overfull_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ChaosSpec.seeded(0, kills=3, horizon=2)


class TestChaosInjector:
    def test_ordinals_fire_once_in_dispatch_order(self):
        injector = ChaosInjector(ChaosSpec(kill_at=(1,), delay_at=(2,), delay_seconds=0.5))
        first, second, third, fourth = (injector.chunk_faults() for _ in range(4))
        assert not first.any
        assert second.directive == ("kill",)
        assert third.directive == ("delay", 0.5)
        assert not fourth.any
        assert injector.events == [("kill", 1), ("delay", 2)]
        assert injector.chunks_seen == 4


class TestChaosEnvGate:
    def test_absent_variable_means_no_injection(self):
        assert chaos_from_env({}) is None
        assert chaos_from_env({CHAOS_ENV: ""}) is None

    def test_well_formed_spec_builds_an_injector(self):
        injector = chaos_from_env({CHAOS_ENV: '{"kill_at": [1], "delay_seconds": 3.0}'})
        assert injector is not None
        assert injector.spec.kill_at == (1,)
        assert injector.spec.delay_seconds == 3.0

    def test_unknown_keys_raise_instead_of_running_fault_free(self):
        with pytest.raises(ValueError, match="unknown"):
            chaos_from_env({CHAOS_ENV: '{"kil_at": [1]}'})


class TestConfigIntegration:
    def test_config_validates_policy_types(self):
        from repro.core import DLearnConfig

        with pytest.raises(ValueError, match="fault_policy"):
            DLearnConfig(fault_policy="recover")
        with pytest.raises(ValueError, match="deadline_policy"):
            DLearnConfig(deadline_policy=120.0)
        with pytest.raises(ValueError, match="chaos"):
            DLearnConfig(chaos={"kill_at": (1,)})

    def test_config_carries_frozen_policies_and_spec(self):
        from repro.core import DLearnConfig

        config = DLearnConfig(
            fault_policy=FaultPolicy(mode="raise"),
            deadline_policy=DeadlinePolicy(dispatch_timeout=5.0),
            chaos=ChaosSpec(kill_at=(0,)),
        )
        assert config.fault_policy.mode == "raise"
        assert config.but(chaos=None).chaos is None
