"""FaultPlan determinism, rule matching, and crash bookkeeping."""

import math

import pytest

from repro.comm.constants import RELIABLE_ACK_BASE
from repro.faults.plan import (
    CLEAN_DECISION,
    FaultPlan,
    LinkDegradation,
    MessageFaultRule,
    RankCrash,
)
from repro.util.errors import ValidationError


def _verdicts(plan, n=200, src=0, dst=1, tag=5, t=0.0):
    return [plan.decide(src, dst, tag, t) for _ in range(n)]


def test_empty_plan_is_clean_and_allocation_free():
    plan = FaultPlan(seed=1)
    d = plan.decide(0, 1, 5, 0.0)
    assert d is CLEAN_DECISION


def test_decisions_deterministic_across_plan_instances():
    mk = lambda: FaultPlan.lossy(seed=42, drop=0.3, dup=0.2, delay=0.2, max_delay=1e-3)
    a = _verdicts(mk())
    b = _verdicts(mk())
    assert a == b
    assert any(d.drop for d in a)
    assert any(d.duplicate for d in a)
    assert any(d.extra_delay > 0 for d in a)


def test_decisions_independent_of_interleaving():
    """The (src, dst) pair index drives the RNG: interleaving traffic from
    other pairs between two sends must not change the pair's verdicts."""
    solo = FaultPlan.lossy(seed=7, drop=0.5)
    solo_verdicts = [solo.decide(0, 1, 5, 0.0) for _ in range(50)]

    mixed = FaultPlan.lossy(seed=7, drop=0.5)
    mixed_verdicts = []
    for i in range(50):
        mixed.decide(2, 3, 5, 0.0)  # unrelated pair interleaved
        mixed_verdicts.append(mixed.decide(0, 1, 5, 0.0))
        mixed.decide(1, 0, 5, 0.0)
    assert solo_verdicts == mixed_verdicts


def test_different_seeds_differ():
    a = _verdicts(FaultPlan.lossy(seed=1, drop=0.5))
    b = _verdicts(FaultPlan.lossy(seed=2, drop=0.5))
    assert a != b


def test_rule_src_dst_and_window_matching():
    rule = MessageFaultRule(drop_prob=1.0, src=0, dst=1, t_start=1.0, t_end=2.0)
    plan = FaultPlan(seed=3, rules=[rule])
    assert plan.decide(0, 1, 5, 1.5).drop
    assert not plan.decide(0, 1, 5, 0.5).drop  # before window
    assert not plan.decide(0, 1, 5, 2.0).drop  # t_end is exclusive
    assert not plan.decide(0, 2, 5, 1.5).drop  # wrong dst
    assert not plan.decide(2, 1, 5, 1.5).drop  # wrong src


def test_drop_preempts_duplicate_and_delay():
    plan = FaultPlan.lossy(seed=5, drop=1.0, dup=1.0, delay=1.0, max_delay=1.0)
    for d in _verdicts(plan, n=20):
        assert d.drop and not d.duplicate and d.extra_delay == 0.0


def test_ack_tags_exempt_from_message_rules_but_not_degradation():
    plan = FaultPlan(
        seed=9,
        rules=[MessageFaultRule(drop_prob=1.0)],
        degradations=[LinkDegradation(bandwidth_factor=0.5, extra_latency=1e-6)],
    )
    ack = plan.decide(0, 1, RELIABLE_ACK_BASE + 17, 0.0)
    assert not ack.drop
    assert ack.bandwidth_factor == 0.5
    assert ack.extra_latency == 1e-6
    assert plan.decide(0, 1, 5, 0.0).drop  # data tag still dropped


def test_degradations_compose_multiplicatively():
    plan = FaultPlan(
        seed=1,
        degradations=[
            LinkDegradation(bandwidth_factor=0.5),
            LinkDegradation(bandwidth_factor=0.5, extra_latency=2e-6),
        ],
    )
    d = plan.decide(0, 1, 5, 0.0)
    assert d.bandwidth_factor == 0.25
    assert d.extra_latency == 2e-6
    assert plan.stats.degraded == 1


def test_degradation_window():
    plan = FaultPlan(
        seed=1,
        degradations=[LinkDegradation(bandwidth_factor=0.5, t_start=1.0, t_end=2.0)],
    )
    assert plan.decide(0, 1, 5, 0.0).bandwidth_factor == 1.0
    assert plan.decide(0, 1, 5, 1.0).bandwidth_factor == 0.5
    assert plan.decide(0, 1, 5, 2.0).bandwidth_factor == 1.0


def test_crash_pending_and_consume_one_shot():
    crash = RankCrash(rank=2, at_time=1.0, restart_cost=0.5)
    plan = FaultPlan(seed=1, crashes=[crash])
    assert plan.crash_pending(2, 0.5) is None  # not due yet
    assert plan.crash_pending(1, 2.0) is None  # wrong rank
    got = plan.crash_pending(2, 1.0)
    assert got is crash
    plan.consume_crash(got)
    plan.consume_crash(got)  # idempotent
    assert plan.stats.crashes_consumed == 1
    assert plan.crash_pending(2, 2.0) is None  # one-shot


def test_stats_counters():
    plan = FaultPlan.lossy(seed=42, drop=0.3, dup=0.2, delay=0.2, max_delay=1e-3)
    _verdicts(plan, n=100)
    s = plan.stats
    assert s.decisions == 100
    assert s.drops > 0 and s.duplicates > 0 and s.delays > 0
    assert s.drops + s.duplicates <= 100


@pytest.mark.parametrize(
    "bad",
    [
        dict(drop_prob=1.5),
        dict(drop_prob=-0.1),
        dict(delay_prob=0.5),  # delay without max_delay
        dict(max_delay=-1.0),
        dict(t_start=2.0, t_end=1.0),
    ],
)
def test_rule_validation(bad):
    with pytest.raises(ValidationError):
        MessageFaultRule(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(bandwidth_factor=0.0),
        dict(bandwidth_factor=1.5),
        dict(extra_latency=-1e-6),
        dict(t_start=math.inf, t_end=1.0),
    ],
)
def test_degradation_validation(bad):
    with pytest.raises(ValidationError):
        LinkDegradation(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(rank=-1, at_time=0.0),
        dict(rank=0, at_time=-1.0),
        dict(rank=0, at_time=0.0, restart_cost=-1.0),
    ],
)
def test_crash_validation(bad):
    with pytest.raises(ValidationError):
        RankCrash(**bad)
