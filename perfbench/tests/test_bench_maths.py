"""The benchmark's own arithmetic (perfbench/stats.py)."""

import numpy as np
import pytest

import stats
from stats import Interval


def test_percentile_counts_failures_as_misses_at_the_timeout():
    lat = [0.1, 0.2, 0.3, 0.4]
    assert stats.percentile_with_misses(lat, 0, 5.0, 50) == pytest.approx(0.25)
    # Four failures out of eight: the median sits between the slowest
    # answer and the timeout, and the p90 is the timeout itself.
    assert stats.percentile_with_misses(lat, 4, 5.0, 50) == pytest.approx(2.7)
    assert stats.percentile_with_misses(lat, 4, 5.0, 90) == pytest.approx(5.0)
    assert stats.percentile_with_misses([], 3, 5.0, 50) == 5.0
    with pytest.raises(ValueError):
        stats.percentile_with_misses([], 0, 5.0, 50)


def test_round_percentile_is_the_median_of_round_percentiles():
    rounds = [([0.1, 0.2, 0.3], 0), ([0.2, 0.3, 0.4], 0), ([1.0, 2.0, 3.0], 0)]
    # One slow round out of three does not move the median.
    assert stats.round_percentile(rounds, 5.0, 50) == pytest.approx(0.3)
    # A round's failures count as misses at the timeout within that round.
    rounds = [([0.1], 1), ([0.1], 1), ([0.1, 0.1, 0.1], 0)]
    assert stats.round_percentile(rounds, 5.0, 90) == pytest.approx(4.51)
    with pytest.raises(ValueError):
        stats.round_percentile([], 5.0, 50)


def test_harmonic_mean_teps_is_edges_over_mean_time():
    times = [0.5, 1.0, 2.0]
    m = 1000
    expected = 3 / sum(t / m for t in times)
    assert stats.harmonic_mean_teps(m, times) == pytest.approx(expected)
    assert stats.harmonic_mean_teps(m, times) == pytest.approx(m / np.mean(times))
    with pytest.raises(ValueError):
        stats.harmonic_mean_teps(m, [1.0, 0.0])


def test_goodput_counts_correct_answers_within_the_limit():
    lat = [0.1, 0.3, 0.2, 0.05, 9.0]
    ok = [True, True, False, True, True]
    # 0.1 and 0.05 are correct and in time; 0.3 is late, 0.2 wrong.
    assert stats.goodput(lat, ok, 0.25, 2.0) == pytest.approx(1.0)
    assert stats.goodput(lat, ok, 10.0, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.goodput(lat, ok[:2], 0.25, 2.0)


def test_distinct_roots_are_distinct_non_isolated_and_seeded():
    degrees = np.array([0, 3, 1, 0, 2, 5, 0, 1])
    a = stats.distinct_roots(degrees, 5, np.random.default_rng(4))
    b = stats.distinct_roots(degrees, 5, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 5
    assert np.all(degrees[a] > 0)
    with pytest.raises(ValueError):
        stats.distinct_roots(degrees, 6, np.random.default_rng(4))


def test_poisson_arrivals_have_the_rate_and_exponential_gaps():
    t = stats.poisson_arrivals(100.0, 50.0, np.random.default_rng(1))
    assert t.size == 5000
    assert np.all(np.diff(t) >= 0) and t[0] >= 0 and t[-1] < 50.0
    gaps = np.diff(t)
    # Exponential gaps: mean 1/rate and standard deviation equal to it.
    assert gaps.mean() == pytest.approx(0.01, rel=0.05)
    assert gaps.std() == pytest.approx(0.01, rel=0.1)


def test_self_time_subtracts_direct_children_only():
    ivs = [
        Interval("root", 0.0, 10.0),
        Interval("a", 1.0, 4.0),
        Interval("b", 2.0, 3.0),  # inside a
        Interval("a", 5.0, 6.0),
        Interval("c", 6.0, 8.0),  # starts where the previous a ends
    ]
    got = stats.self_times(ivs)
    assert got == pytest.approx({"root": 4.0, "a": 3.0, "b": 1.0, "c": 2.0})
    # Self times partition the covered time.
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_merges_recorders_by_containment_in_any_order():
    ivs = [Interval("child", 2.0, 3.0), Interval("parent", 1.0, 5.0), Interval("other", 6.0, 7.0)]
    assert stats.self_times(ivs) == pytest.approx({"parent": 3.0, "child": 1.0, "other": 1.0})
