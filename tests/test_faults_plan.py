"""Fault plans and retry policies (repro.faults.plan / repro.faults.retry)."""

import pytest

from repro.faults import (
    DisconnectWindow,
    FaultPlan,
    RetryGiveUpError,
    RetryPolicy,
    StallWindow,
    TRANSIENT_FAULTS,
)
from repro.openflow.errors import (
    ControlMessageLostError,
    FlowModRejectedError,
    SwitchDisconnectedError,
    TableFullError,
    TransientFaultError,
)
from repro.sim.rng import SeededRng


# -- plan validation ----------------------------------------------------------
def test_default_plan_is_noop():
    plan = FaultPlan()
    assert plan.is_noop()
    assert not plan.uses_randomness()


def test_probabilities_must_stay_below_one():
    with pytest.raises(ValueError):
        FaultPlan(loss_probability=1.0)
    with pytest.raises(ValueError):
        FaultPlan(reject_probability=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(probe_loss_probability=1.5)


def test_detect_delays_must_be_positive():
    with pytest.raises(ValueError):
        FaultPlan(loss_detect_ms=0.0)
    with pytest.raises(ValueError):
        FaultPlan(reject_detect_ms=-1.0)


def test_window_validation():
    with pytest.raises(ValueError):
        StallWindow(start_ms=0.0, duration_ms=0.0, extra_ms=1.0)
    with pytest.raises(ValueError):
        StallWindow(start_ms=0.0, duration_ms=5.0, extra_ms=-1.0)
    with pytest.raises(ValueError):
        DisconnectWindow(start_ms=10.0, reconnect_at_ms=10.0)


def test_windows_make_plan_non_noop_without_randomness():
    plan = FaultPlan(disconnects=(DisconnectWindow(1.0, 2.0),))
    assert not plan.is_noop()
    assert not plan.uses_randomness()


# -- window queries -----------------------------------------------------------
def test_stall_extra_sums_active_windows_only():
    plan = FaultPlan(
        stalls=(
            StallWindow(0.0, 10.0, 2.0),
            StallWindow(5.0, 10.0, 3.0, switch="a"),
            StallWindow(5.0, 10.0, 7.0, switch="b"),
        )
    )
    assert plan.stall_extra_ms(6.0, "a") == 5.0  # global + a-specific
    assert plan.stall_extra_ms(6.0, "b") == 9.0
    assert plan.stall_extra_ms(12.0, "a") == 3.0  # global window over
    assert plan.stall_extra_ms(20.0, "a") == 0.0


def test_disconnected_until_is_latest_reconnect():
    plan = FaultPlan(
        disconnects=(
            DisconnectWindow(0.0, 10.0),
            DisconnectWindow(5.0, 30.0, switch="a"),
        )
    )
    assert plan.disconnected_until(6.0, "a") == 30.0
    assert plan.disconnected_until(6.0, "b") == 10.0
    assert plan.disconnected_until(15.0, "b") is None
    # Half-open: the window ends exactly at reconnect_at_ms.
    assert plan.disconnected_until(10.0, "b") is None


def test_plan_to_dict_round_trips_fields():
    plan = FaultPlan(
        seed=3,
        loss_probability=0.1,
        stalls=(StallWindow(1.0, 2.0, 3.0, switch="s"),),
        disconnects=(DisconnectWindow(4.0, 5.0),),
    )
    doc = plan.to_dict()
    assert doc["seed"] == 3
    assert doc["loss_probability"] == 0.1
    assert doc["stalls"][0]["switch"] == "s"
    assert doc["disconnects"][0]["reconnect_at_ms"] == 5.0


# -- error taxonomy -----------------------------------------------------------
def test_transient_fault_taxonomy():
    assert issubclass(ControlMessageLostError, TransientFaultError)
    assert issubclass(FlowModRejectedError, TransientFaultError)
    assert issubclass(SwitchDisconnectedError, TransientFaultError)
    # TableFullError is Algorithm 1's stop signal: never retryable.
    assert not issubclass(TableFullError, TRANSIENT_FAULTS)


def test_disconnect_error_carries_reconnect_time():
    error = SwitchDisconnectedError("s1", 42.0)
    assert error.switch == "s1"
    assert error.retry_at_ms == 42.0


# -- retry policy -------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_fraction=2.0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_ms=0.0)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(
        backoff_base_ms=2.0, backoff_factor=3.0, backoff_max_ms=10.0,
        jitter_fraction=0.0,
    )
    assert policy.backoff_ms(1) == 2.0
    assert policy.backoff_ms(2) == 6.0
    assert policy.backoff_ms(3) == 10.0  # capped, not 18
    with pytest.raises(ValueError):
        policy.backoff_ms(0)


def test_backoff_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base_ms=10.0, jitter_fraction=0.5)
    a = policy.backoff_ms(1, SeededRng(5).child("retry"))
    b = policy.backoff_ms(1, SeededRng(5).child("retry"))
    assert a == b  # same stream state -> same jitter
    assert 10.0 <= a <= 15.0


def test_backoff_without_rng_draws_nothing():
    policy = RetryPolicy(backoff_base_ms=4.0, jitter_fraction=0.5)
    assert policy.backoff_ms(1) == 4.0


def test_exhausted_by_attempts_and_timeout():
    policy = RetryPolicy(max_attempts=3, timeout_ms=100.0)
    assert not policy.exhausted(2, 50.0)
    assert policy.exhausted(3, 0.0)
    assert policy.exhausted(1, 100.0)


def test_give_up_error_preserves_last_fault():
    fault = ControlMessageLostError("flow_mod")
    error = RetryGiveUpError("install", 4, fault)
    assert error.attempts == 4
    assert error.last_fault is fault
    assert "install" in str(error)
