"""An independent durable top-k oracle.

Everything here is computed from the raw value matrix and the preference
weights alone; nothing is imported from the library under test. Scores
are ``values @ w``. Records are ranked by the canonical total order:
score descending, ties going to the later arrival. A record ``t`` is
τ-durable when fewer than ``k`` records of its window beat it:

* ``PAST``: the window is ``[t - τ, t]``; an earlier record beats ``t``
  only with a strictly larger score;
* ``FUTURE``: the window is ``[t, t + τ]``; a later record beats ``t``
  with a larger *or equal* score, since ties go to the later arrival.

Windows are clipped to the data. The count over a window of width ``τ``
is taken in rounds over growing sub-windows that end next to ``t``: a
record already beaten ``k`` times inside a sub-window is beaten in the
full window too, so each round keeps only the records still in doubt and
the last round counts over the full window. The answer is exact; the
rounds only make it cheap when few records are durable.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["scores_of", "durable_ids", "durations_of", "check_answer"]

PAST = "past"
FUTURE = "future"

#: Cap on candidate-rows x window-width per gathered block (float64 cells).
_BLOCK_CELLS = 1 << 21


def scores_of(values: np.ndarray, weights) -> np.ndarray:
    """Linear scores ``values @ w``."""
    return np.asarray(values, dtype=float) @ np.asarray(weights, dtype=float)


def _beaten(scores: np.ndarray, ts: np.ndarray, width: int, ties_beat: bool) -> np.ndarray:
    """How many of the ``width`` records just before each ``t`` beat it.

    Looks back over ``[t - width, t - 1]`` (clipped at 0). ``ties_beat``
    says whether an equal score beats ``t``.
    """
    padded = np.concatenate([np.full(width, -np.inf), scores])
    windows = sliding_window_view(padded, width)
    rows = max(1, _BLOCK_CELLS // width)
    out = np.empty(len(ts), dtype=np.int64)
    for start in range(0, len(ts), rows):
        chunk = ts[start : start + rows]
        block = windows[chunk]  # row t of `windows` covers padded[t : t + width]
        own = scores[chunk][:, None]
        beats = block >= own if ties_beat else block > own
        out[start : start + rows] = np.count_nonzero(beats, axis=1)
    return out


def _durable_lookback(scores: np.ndarray, k: int, tau: int, ts: np.ndarray, ties_beat: bool):
    candidates = ts
    width = min(tau, 4 * k)
    while len(candidates):
        counts = _beaten(scores, candidates, width, ties_beat)
        candidates = candidates[counts < k]
        if width >= tau:
            break
        width = min(tau, width * 4)
    return candidates


def durable_ids(
    values: np.ndarray,
    weights,
    k: int,
    tau: int,
    lo: int | None = None,
    hi: int | None = None,
    direction: str = PAST,
) -> list[int]:
    """Ascending ids of the τ-durable records arriving in ``[lo, hi]``."""
    if k < 1 or tau < 1:
        raise ValueError("k and tau must be >= 1")
    scores = scores_of(values, weights)
    n = len(scores)
    lo = 0 if lo is None else max(0, lo)
    hi = n - 1 if hi is None else min(hi, n - 1)
    if n == 0 or hi < lo:
        return []
    ts = np.arange(lo, hi + 1)
    if direction == PAST:
        found = _durable_lookback(scores, k, tau, ts, ties_beat=False)
        return [int(t) for t in found]
    if direction != FUTURE:
        raise ValueError(f"unknown direction {direction!r}")
    # Look ahead == look back over the time-reversed scores, where a tie
    # (a later arrival in forward time) beats the anchor.
    mirrored = (n - 1 - ts)[::-1]
    found = _durable_lookback(scores[::-1].copy(), k, tau, mirrored, ties_beat=True)
    return sorted(int(n - 1 - t) for t in found)


def durations_of(values: np.ndarray, weights, k: int, ids, direction: str = PAST) -> dict[int, int]:
    """Longest τ for which each record of ``ids`` stays durable.

    The record at ``t`` stays durable while its window holds fewer than
    ``k`` records that beat it, so its duration ends one short of the
    ``k``-th nearest beater. A record beaten fewer than ``k`` times over
    the whole history is durable for all of it, reported as ``n``.
    """
    scores = scores_of(values, weights)
    n = len(scores)
    out = {}
    for t in ids:
        if direction == PAST:
            beaters = np.nonzero(scores[:t] > scores[t])[0]
            distances = t - beaters[::-1]
        else:
            beaters = np.nonzero(scores[t + 1 :] >= scores[t])[0]
            distances = beaters + 1
        out[int(t)] = n if len(distances) < k else int(distances[k - 1]) - 1
    return out


def check_answer(
    values: np.ndarray,
    weights,
    k: int,
    tau: int,
    lo: int | None,
    hi: int | None,
    direction: str,
    ids,
    durations: dict | None = None,
) -> str | None:
    """``None`` when ``ids`` (and ``durations``, if given) are right, else why not."""
    expected = durable_ids(values, weights, k, tau, lo, hi, direction)
    got = [int(t) for t in ids]
    if got != expected:
        missing = sorted(set(expected) - set(got))[:5]
        extra = sorted(set(got) - set(expected))[:5]
        return (f"ids differ: {len(got)} vs {len(expected)} expected; "
                f"missing {missing}, extra {extra}")
    if durations is not None:
        want = durations_of(values, weights, k, expected, direction)
        got_d = {int(t): int(d) for t, d in durations.items()}
        if got_d != want:
            bad = sorted(t for t in want if got_d.get(t) != want[t])[:5]
            return f"durations differ at {bad}"
    return None
