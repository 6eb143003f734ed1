"""Deterministic derivative-free maximization on the unit box.

Lockstep multistart compass search: every start polls +/- step along each
coordinate, moves to its best improving poll or halves its step.  All starts
share one vectorized objective call per round, ties resolve to the lowest
poll index, and the whole schedule is deterministic, so repeated runs (and
any caller-side parallelism) give identical results.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_STEP0 = 0.25          # compass: first poll step
_STEP_MIN = 1e-5       # a start stops once its step is below this
_CONTRACTION = 0.5     # step factor after a round without improvement
_MAX_ITER = 400        # round cap
_REFINE_WIDTH = 0.25   # refine: half-width of the first grid
_REFINE_SHRINK = 0.65  # grid width factor per round
_REFINE_ROUNDS = 24    # refine: grid cap


def compass_search_max(
    f_batch: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    stop_at: float | None = None,
) -> tuple[float, np.ndarray, int]:
    """Maximize ``f_batch`` over [0, 1]^d from the given start points.

    ``f_batch`` maps an (m, d) array of points to (m,) values.  ``stop_at``
    short-circuits the search once any start reaches that value (used by
    pure feasibility queries).  Returns (best value, best point, rounds).
    """
    pts = np.clip(np.asarray(starts, dtype=float), 0.0, 1.0)
    k, d = pts.shape
    vals = np.asarray(f_batch(pts), dtype=float)
    steps = np.full(k, _STEP0)
    dirs = np.concatenate([np.eye(d), -np.eye(d)])  # (2d, d)

    rounds = 0
    while rounds < _MAX_ITER and steps.max() >= _STEP_MIN:
        if stop_at is not None and vals.max() >= stop_at:
            break
        polls = np.clip(pts[:, None, :] + steps[:, None, None] * dirs[None, :, :], 0.0, 1.0)
        pvals = np.asarray(f_batch(polls.reshape(k * 2 * d, d)), dtype=float).reshape(k, 2 * d)
        best = pvals.argmax(axis=1)
        best_vals = pvals[np.arange(k), best]
        improved = best_vals > vals
        pts[improved] = polls[improved, best[improved]]
        vals[improved] = best_vals[improved]
        active = steps >= _STEP_MIN
        steps[~improved & active] *= _CONTRACTION
        rounds += 1

    i = int(vals.argmax())
    return float(vals[i]), pts[i].copy(), rounds


_GRID_POINTS = {1: 33, 2: 17, 3: 13, 4: 9, 5: 7}


def refine_grid_max(
    f_batch: Callable[[np.ndarray], np.ndarray],
    center: np.ndarray,
    stop_at: float | None = None,
) -> tuple[float, np.ndarray]:
    """Shrinking tensor-grid ascent around ``center`` on [0, 1]^d.

    Complements the compass search: the full stencil crosses the ridges of a
    max-min objective that axis polls cannot climb.  Deterministic.
    """
    center = np.clip(np.asarray(center, dtype=float), 0.0, 1.0)
    d = center.shape[0]
    n = _GRID_POINTS.get(d, 5)
    best_val = float(np.asarray(f_batch(center[None, :]))[0])
    best = center.copy()
    w = _REFINE_WIDTH
    stale = 0
    for _ in range(_REFINE_ROUNDS):
        if stop_at is not None and best_val >= stop_at:
            break
        if stale >= 6:  # six shrinks without improvement: converged enough
            break
        axes = [np.linspace(max(best[k] - w, 0.0), min(best[k] + w, 1.0), n)
                for k in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(f_batch(pts))
        i = int(vals.argmax())
        if vals[i] > best_val:
            best_val = float(vals[i])
            best = pts[i].copy()
            stale = 0
        else:
            stale += 1
        w *= _REFINE_SHRINK
    return best_val, best
