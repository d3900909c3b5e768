"""Seeded inputs, made apart from the program under test.

Every workload draws all of its inputs here, from its own seed, before
any timing starts: the dataset, the preference catalogue, the request
stream, the arrival times and the append schedule. The program receives
only the arrays and tuples these functions return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Shape",
    "nba_like",
    "nba_rates",
    "network_like",
    "preference",
    "paper_round",
    "PAPER_ROUND",
    "PAPER_FUTURE_ROUND",
    "zipf_choice",
    "PAPER_TAU_FRACTIONS",
    "PAPER_K_VALUES",
    "PAPER_INTERVAL_FRACTIONS",
]

#: Sweep values of figures 8-10 (Table III defaults: k=10, tau=10%, |I|=50%).
PAPER_TAU_FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50)
PAPER_K_VALUES = (5, 10, 25, 50)
PAPER_INTERVAL_FRACTIONS = (0.10, 0.30, 0.50, 0.80)
DEFAULT_K, DEFAULT_TAU, DEFAULT_INTERVAL = 10, 0.10, 0.50


@dataclass(frozen=True)
class Shape:
    """One query's parameters apart from its preference."""

    k: int
    tau: int
    lo: int
    hi: int
    direction: str  # "past" or "future"
    algorithm: str


def nba_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, 2)`` integer box scores (points, assists) in arrival order.

    Minutes played drive both counts and player talent is log-normal, so
    extreme lines are rare and low values tie often, which exercises the
    canonical tie order. Lines are drawn independently of time, so the
    answer size of a query stays near its expectation ``k|I|/(tau+1)``
    (Lemma 4) whatever the seed.
    """
    talent = rng.lognormal(0.0, 0.35, n)
    minutes = rng.gamma(4.0, 6.0, n)
    points = rng.poisson(minutes * 0.45 * talent)
    assists = rng.poisson(minutes * 0.10 * talent)
    return np.column_stack([points, assists]).astype(float)


def nba_rates(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, 2)`` per-36-minute (points, assists) rates in arrival order.

    The box scores of :func:`nba_like` divided by continuous minutes
    played, so scores do not tie.
    """
    talent = rng.lognormal(0.0, 0.35, n)
    minutes = rng.gamma(4.0, 6.0, n) + 1.0
    points = rng.poisson(minutes * 0.45 * talent)
    assists = rng.poisson(minutes * 0.10 * talent)
    return np.column_stack([points, assists]) * (36.0 / minutes)[:, None]


def network_like(rng: np.random.Generator, n: int, d: int = 3) -> np.ndarray:
    """``(n, d)`` continuous traffic features (bytes, packets, flows, ...).

    Log-normal volumes with bursty episodes: a few windows carry heavy
    traffic. Values are continuous, so scores do not tie.
    """
    base = rng.lognormal(0.0, 0.8, (n, d))
    bursts = np.zeros(n)
    starts = rng.integers(0, n, max(1, n // 2000))
    for s in starts:
        length = int(rng.integers(20, 200))
        bursts[s : s + length] += rng.uniform(1.0, 4.0)
    return base * (1.0 + bursts)[:, None]


def preference(rng: np.random.Generator, d: int) -> tuple[float, ...]:
    """A random non-negative weight vector summing to 1 (Section VI)."""
    w = rng.random(d) + 1e-3
    return tuple(float(x) for x in w / w.sum())


#: One round of figure 8-10 sweep points as (k, tau fraction, |I| fraction):
#: the Table III default ten times, then every other sweep value once.
PAPER_ROUND = (
    ((DEFAULT_K, DEFAULT_TAU, DEFAULT_INTERVAL),) * 10
    + tuple((DEFAULT_K, t, DEFAULT_INTERVAL) for t in PAPER_TAU_FRACTIONS if t != DEFAULT_TAU)
    + tuple((k, DEFAULT_TAU, DEFAULT_INTERVAL) for k in PAPER_K_VALUES if k != DEFAULT_K)
    + tuple(
        (DEFAULT_K, DEFAULT_TAU, f) for f in PAPER_INTERVAL_FRACTIONS if f != DEFAULT_INTERVAL
    )
)
#: The look-ahead points of one round: the tau sweep at k=10, |I|=50%.
PAPER_FUTURE_ROUND = tuple((DEFAULT_K, t, DEFAULT_INTERVAL) for t in PAPER_TAU_FRACTIONS)


def paper_round(rng: np.random.Generator, n: int, algorithms) -> list[tuple[Shape, bool]]:
    """Every sweep point of one round under every algorithm, shuffled.

    The look-back points are :data:`PAPER_ROUND`, the look-ahead points
    :data:`PAPER_FUTURE_ROUND`. The multiset of (k, tau, |I|, direction,
    algorithm) is the same in every round; the seed draws only the order
    and where each interval lies. Each shape comes with a flag asking for
    durations, set on the first default-point look-back query of every
    algorithm.
    """
    points = [(p, "past") for p in PAPER_ROUND] + [(p, "future") for p in PAPER_FUTURE_ROUND]
    shapes = []
    for point, ((k, tau_frac, interval_frac), direction) in enumerate(points):
        for algorithm in algorithms:
            length = max(1, int(n * interval_frac))
            lo = int(rng.integers(0, n - length + 1))
            tau = max(1, int(n * tau_frac))
            shape = Shape(k, tau, lo, lo + length - 1, direction, algorithm)
            shapes.append((shape, point == 0))
    return [shapes[i] for i in rng.permutation(len(shapes))]


def zipf_choice(rng: np.random.Generator, items: int, exponent: float, size: int) -> np.ndarray:
    """``size`` picks from ``range(items)`` with shares proportional to 1/(i+1)^exponent.

    Each item is picked exactly its share of ``size`` times (largest
    remainders round), so every seed makes the same items equally hot;
    the seed draws only the order of the picks.
    """
    p = 1.0 / np.arange(1, items + 1) ** exponent
    quota = p / p.sum() * size
    counts = np.floor(quota).astype(int)
    counts[np.argsort(counts - quota, kind="stable")[: size - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(items), counts))
