"""Tests of the benchmark's own oracle, inputs and span accounting."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import inputs, oracle
from perfbench.common import Tracer


def _naive(scores, k, tau, lo, hi, direction):
    """Window counts straight from the definition."""
    out = []
    for t in range(lo, hi + 1):
        if direction == oracle.PAST:
            window = scores[max(0, t - tau) : t]
            beaten = np.count_nonzero(window > scores[t])
        else:
            window = scores[t + 1 : t + tau + 1]
            beaten = np.count_nonzero(window >= scores[t])
        if beaten < k:
            out.append(t)
    return out


def test_hand_built_ties_past_and_future():
    values = np.array([[3.0], [3.0], [1.0], [3.0]])
    # Looking back, a tie never beats the later record: all three 3s hold.
    assert oracle.durable_ids(values, [1.0], 1, 2, direction=oracle.PAST) == [0, 1, 3]
    # Looking ahead, a later 3 beats an earlier one it ties with.
    assert oracle.durable_ids(values, [1.0], 1, 1, direction=oracle.FUTURE) == [1, 3]
    assert oracle.durable_ids(values, [1.0], 1, 2, direction=oracle.FUTURE) == [3]


def test_windows_clip_at_the_data_edges():
    values = np.array([[1.0], [2.0], [3.0]])
    assert oracle.durable_ids(values, [1.0], 1, 100, direction=oracle.PAST) == [0, 1, 2]
    assert oracle.durable_ids(values, [1.0], 1, 100, direction=oracle.FUTURE) == [2]


def test_empty_interval_and_empty_data():
    values = np.array([[1.0], [2.0]])
    assert oracle.durable_ids(values, [1.0], 1, 1, lo=5, hi=9) == []
    assert oracle.durable_ids(np.empty((0, 2)), [0.5, 0.5], 1, 1) == []


def test_scores_are_the_dot_product():
    values = np.array([[1.0, 2.0], [3.0, 0.0]])
    assert list(oracle.scores_of(values, [0.5, 0.25])) == [1.0, 1.5]


@pytest.mark.parametrize("direction", [oracle.PAST, oracle.FUTURE])
def test_rounds_agree_with_the_definition(direction):
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        values = rng.integers(0, 4, (n, 2)).astype(float)  # many ties
        w = rng.random(2)
        k, tau = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        expected = _naive(values @ w, k, tau, lo, hi, direction)
        assert oracle.durable_ids(values, w, k, tau, lo, hi, direction) == expected


def test_durations_end_one_short_of_the_kth_beater():
    values = np.array([[5.0], [1.0], [2.0], [9.0], [4.0], [3.0]])
    # Record 5 (score 3) is beaten by 4 and 3 first, then by 0.
    assert oracle.durations_of(values, [1.0], 2, [5]) == {5: 1}
    assert oracle.durations_of(values, [1.0], 3, [5]) == {5: 4}
    # Never beaten k times over its history: durable for all n records.
    assert oracle.durations_of(values, [1.0], 1, [3]) == {3: 6}
    assert oracle.durations_of(values, [1.0], 1, [1], oracle.FUTURE) == {1: 0}


def test_a_corrupted_answer_is_rejected():
    rng = np.random.default_rng(3)
    values = inputs.nba_like(rng, 400)
    w = (0.3, 0.7)
    right = oracle.durable_ids(values, w, 3, 20, 50, 350)
    assert oracle.check_answer(values, w, 3, 20, 50, 350, oracle.PAST, right) is None
    dropped = right[:-1]
    assert "missing" in oracle.check_answer(values, w, 3, 20, 50, 350, oracle.PAST, dropped)
    wrong = sorted(set(right) | {next(t for t in range(50, 351) if t not in right)})
    assert "extra" in oracle.check_answer(values, w, 3, 20, 50, 350, oracle.PAST, wrong)
    durations = oracle.durations_of(values, w, 3, right)
    bad = dict(durations)
    bad[right[0]] += 1
    assert oracle.check_answer(values, w, 3, 20, 50, 350, oracle.PAST, right, durations) is None
    assert "durations" in oracle.check_answer(values, w, 3, 20, 50, 350, oracle.PAST, right, bad)


def test_inputs_repeat_for_a_seed():
    a = inputs.paper_round(np.random.default_rng(5), 1000, ("t-hop", "t-base"))
    b = inputs.paper_round(np.random.default_rng(5), 1000, ("t-hop", "t-base"))
    assert a == b
    points = sorted((s.k, s.tau, s.hi - s.lo + 1, s.direction, s.algorithm) for s, _ in a)
    c = inputs.paper_round(np.random.default_rng(6), 1000, ("t-hop", "t-base"))
    assert points == sorted((s.k, s.tau, s.hi - s.lo + 1, s.direction, s.algorithm) for s, _ in c)
    assert np.array_equal(
        inputs.network_like(np.random.default_rng(1), 50),
        inputs.network_like(np.random.default_rng(1), 50),
    )


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    root = tracer.add("request", "unattributed", 0.0, 10.0)
    svc = tracer.add("service", "service", 1.0, 9.0, root)
    tracer.add("engine", "core", 2.0, 5.0, svc)
    tracer.add("engine", "core", 4.0, 6.0, svc)  # overlaps the first
    # The service span loses the union of its children (2..6), not their sum.
    assert tracer.self_times() == {"unattributed": 2.0, "service": 4.0, "core": 5.0}
    assert Tracer(False).add("x", "y", 0.0, 1.0) is None
