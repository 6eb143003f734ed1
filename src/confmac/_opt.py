"""Deterministic searches on boxes.

One branch-and-bound, :func:`_least`, finds least values: each round
evaluates every box centre, drops the boxes a bound rules out and halves the
rest along every axis, up to :data:`_MAX_ROUNDS` rounds of at most
:data:`_MAX_BOXES` boxes, from the whole box (it is never warm-started).  It
returns the least value it saw (a least scale of the powers from
:func:`_least_power`'s forms, or the least ``d1``) and its proven floor: that
least less the relative gap :data:`_LEAST_GAP` when no point lies lower, 0
when the run gives up.  Every least-power scheme reads its runs through one
pair, its least power along a channel's powers and its report at a point, so
a solve and a query make one box and one run per least-scale form.

The lockstep multistart compass search serves the quantizer scheme at a
finite conference capacity where neither slice decides, maximizing the
negated closed-form least scale: every start polls +/- step along each
coordinate, moves to its best improving poll or halves its step.  All starts
share one vectorized objective call per round and ties resolve to the lowest
poll index, so repeated runs give identical results, and a ``stop_at`` ends
a run early without changing the path it took.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

SLACK_TOL = -1e-9  # witness acceptance: a re-validated slack at or above this counts as met
_MAX_ROUNDS = 52  # branch-and-bound rounds: a box side is then 1 ulp of the box's top
_MAX_BOXES = 2**13  # boxes one branch-and-bound round may evaluate
# the search hair in bits: the least-value forms let each rate and distortion miss by
# this rounding-level amount, so a boundary float point counts (with none, least
# points approached only as a split nears 1 are lost); their answers solve the exact
# problem to this hair, far inside SLACK_TOL
_LEAST_EPS = 1e-12
_LEAST_MARGIN = 2.0**-46  # relative: twice a least-power bound's worst rounding seen (sep2)
_LEAST_GAP = 1e-12  # relative gap of every least-value search

_STEP0 = 0.25          # compass: first poll step
_STEP_MIN = 1e-5       # a start stops once its step is below this
_CONTRACTION = 0.5     # step factor after a round without improvement
_MAX_ITER = 400        # round cap
_REFINE_WIDTH = 0.25   # refine: half-width of the first grid
_REFINE_SHRINK = 0.65  # grid width factor per round
_REFINE_ROUNDS = 24    # refine: grid cap
_REFINE_POINTS = 9     # refine: grid points per axis, 9^4 = 6561 on the 4-D link run


def _least(evaluate, hi) -> tuple[np.ndarray | None, float, float]:
    """``(point, least, floor)``: the box centre of ``[0, hi]`` with the
    least value seen, that value (+inf when none is finite), and ``least *
    (1 - _LEAST_GAP)`` when no point of the box lies below it, else 0.

    ``evaluate(lo, mid, up)`` takes ``(m, d)`` arrays of boxes and their
    centres and returns each centre's value and a lower bound of the value
    over each box, in one call.  Each round evaluates every box, then drops
    the boxes whose bound less the relative margin :data:`_LEAST_MARGIN` is
    at or above ``least * (1 - _LEAST_GAP)`` (NaN keeps a box), and halves
    the rest along every axis.  The floor is proven once no box is left.
    A round that keeps more boxes than the next may evaluate splits only
    ``_MAX_BOXES >> (d + 1)`` with the lowest bounds and as many with the
    lowest centre values, and its floor is 0; so is one at the round cap.  The lowest bounds alone can all lie where no centre is
    finite (near ``1 - h = 0`` at rho = 1) and lose the least's
    neighbourhood; the best centres keep it.
    """
    hi = np.asarray(hi, dtype=float)
    d = hi.size
    upper_half = np.array(list(itertools.product((False, True), repeat=d)))  # (2^d, d)
    lo, up = np.zeros((1, d)), hi[None, :]
    best, point, proof = math.inf, None, True
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + up)
        vals, lower = evaluate(lo, mid, up)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, point = float(vals[i]), mid[i]
        keep = np.flatnonzero(~(lower * (1.0 - _LEAST_MARGIN) >= best * (1.0 - _LEAST_GAP)))
        if not keep.size:
            return point, best, best * (1.0 - _LEAST_GAP) if proof else 0.0
        if keep.size << d > _MAX_BOXES:
            proof, cap = False, _MAX_BOXES >> (d + 1)
            keep = np.union1d(keep[np.argsort(lower[keep], kind="stable")[:cap]],
                              keep[np.argsort(vals[keep], kind="stable")[:cap]])
        lo, mid, up = lo[keep, None], mid[keep, None], up[keep, None]
        lo, up = (np.where(upper_half, mid, lo).reshape(-1, d),
                  np.where(upper_half, up, mid).reshape(-1, d))
    return point, best, 0.0


def _excess(rate):
    """``4^(rate - _LEAST_EPS) - 1``, accurate near 0: the power over noise
    at which a rate bound ``0.5 log2(1 + x)`` meets ``rate`` less the hair."""
    return np.expm1(math.log(4.0) * (rate - _LEAST_EPS))


def _least_power(n0: float, terms, d1a, d2a, d1: float, d2: float) -> np.ndarray:
    """``n0`` times the largest of the ``(num, den)`` ``terms``, each ``num /
    den`` where ``num > 0`` and 0 elsewhere; +inf where an achieved
    distortion ``d1a``, ``d2a`` misses its target times ``4^_LEAST_EPS``.

    The clamp makes the same form a lower bound over a box when each
    ``num`` is taken at its least and each ``den`` (> 0) at its largest.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        power = n0 * np.maximum.reduce([np.where(num > 0.0, num / den, 0.0) for num, den in terms])
    return np.where(_meets(d1a, d2a, d1, d2), power, np.inf)


def _meets(d1a, d2a, d1: float, d2: float) -> np.ndarray:
    """Where the achieved distortions ``d1a``, ``d2a`` meet their targets
    times ``4^_LEAST_EPS``."""
    return (d1a <= d1 * 4.0**_LEAST_EPS) & (d2a <= d2 * 4.0**_LEAST_EPS)


def compass_search_max(
    f_batch: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    stop_at: float | None = None,
) -> tuple[float, np.ndarray, int]:
    """Maximize ``f_batch`` over [0, 1]^d from the given start points.

    ``f_batch`` maps an (m, d) array of points to (m,) values.  ``stop_at``
    short-circuits the search once any start reaches that value (a link run
    stopped at the least scale its query needs).  Returns (best value, best
    point, rounds).
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


def refine_grid_max(
    f_batch: Callable[[np.ndarray], np.ndarray],
    center: np.ndarray,
    stop_at: float | None = None,
) -> tuple[float, np.ndarray]:
    """Shrinking tensor-grid ascent around ``center`` on [0, 1]^d.

    Complements the compass search: the full stencil crosses the ridges of
    the negated least scale that axis polls cannot climb.  Deterministic.
    """
    center = np.clip(np.asarray(center, dtype=float), 0.0, 1.0)
    d = center.shape[0]
    best_val = float(np.asarray(f_batch(center[None, :]))[0])
    best = center.copy()
    w = _REFINE_WIDTH
    stale = 0
    for _ in range(_REFINE_ROUNDS):
        if stop_at is not None and best_val >= stop_at:
            break
        if stale >= 6:  # six shrinks without improvement: converged enough
            break
        axes = [np.linspace(max(best[k] - w, 0.0), min(best[k] + w, 1.0), _REFINE_POINTS)
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
