"""Deterministic searches on boxes.

:func:`_certify` is a branch-and-bound: given a point slack and a bound of
the slack over each sub-box, it returns a point that reaches
:data:`SLACK_TOL` or, unless it gives up, proves that none exists.  It
answers the quantizer scheme's two certified slices (``search``) and
separation scheme 2 (``separation``); :func:`_certify_below` starts a query
from the boxes of an earlier, higher query of the same solve.

The lockstep multistart compass search serves the quantizer scheme at a
finite conference capacity: every start polls +/- step along each
coordinate, moves to its best improving poll or halves its step.  All starts
share one vectorized objective call per round, ties resolve to the lowest
poll index, and the whole schedule is deterministic, so repeated runs (and
any caller-side parallelism) give identical results.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

SLACK_TOL = -1e-9  # a slack at or above this counts as met: exact boundary points are feasible
_MAX_ROUNDS = 52  # branch-and-bound rounds: a box side is then 1 ulp of the box's top
_MAX_BOXES = 2**13  # boxes one branch-and-bound round may evaluate
_BOUND_MARGIN = 32 * math.ulp(8.0)  # twice a box bound's worst rounding seen (rho = 1, 8-bit box)

_STEP0 = 0.25          # compass: first poll step
_STEP_MIN = 1e-5       # a start stops once its step is below this
_CONTRACTION = 0.5     # step factor after a round without improvement
_MAX_ITER = 400        # round cap
_REFINE_WIDTH = 0.25   # refine: half-width of the first grid
_REFINE_SHRINK = 0.65  # grid width factor per round
_REFINE_ROUNDS = 24    # refine: grid cap


def _certify(exact, bound, hi, lo=0.0,
             start=None) -> tuple[np.ndarray | None, bool, tuple | None]:
    """``(point, proof, frontier)``: a point of the box ``[lo, hi]`` whose
    ``exact`` slack (at ``(m, d)`` points) reaches :data:`SLACK_TOL`, or
    None; ``proof`` tells whether a None shows that no point of the box does.

    Each round returns the first box centre that reaches the tolerance,
    else drops the boxes whose ``bound(lo, up)`` is below it by more than
    :data:`_BOUND_MARGIN` (NaN keeps a box) and halves the rest along every
    axis.  A None is a proof once no box is left, unless a round kept more
    boxes than the next may evaluate (:data:`_MAX_BOXES`): then only those
    with the best centres were split.  A None at the round cap is no proof
    either.  Both happen on flat ridges of the slack, near rho = 1, and
    whenever the best slack lies within rounding of the tolerance.

    ``frontier`` is the round that found the point, ``(lo, up, round)``,
    unless an earlier round was cut to :data:`_MAX_BOXES` (then None).
    ``start`` begins the search from such a frontier instead of the whole
    box.  That is sound for a query whose ``exact`` and ``bound`` lie at or
    below those of the query that found the frontier everywhere: a box that
    query dropped is dropped here too, and the rounds before its frontier
    saw no hit there, so none is seen here.  Its frontier is then an
    order-preserving superset of this query's own at every round.  The
    extra boxes lie in boxes this query's bound drops, so they hold no hit
    and, their bounds being no higher, are dropped: the first hit and the
    proof are those of a search from the whole box.  Only a round cut to
    :data:`_MAX_BOXES`, where the extra boxes take room, can differ; its
    None is no proof either way.
    """
    hi = np.asarray(hi, dtype=float)
    d = hi.size
    upper_half = np.array(list(itertools.product((False, True), repeat=d)))
    lo, up, first = start or (np.full((1, d), lo, dtype=float), hi[None, :], 0)
    proof = True
    for rnd in range(first, _MAX_ROUNDS):
        mid = 0.5 * (lo + up)
        vals = exact(mid)
        hits = np.flatnonzero(vals >= SLACK_TOL)
        if hits.size:
            return mid[hits[0]], True, (lo, up, rnd) if proof else None
        keep = np.flatnonzero(~(bound(lo, up) < SLACK_TOL - _BOUND_MARGIN))
        if not keep.size:
            return None, proof, None
        if keep.size << d > _MAX_BOXES:
            proof = False
            keep = np.sort(keep[np.argsort(-vals[keep], kind="stable")[:_MAX_BOXES >> d]])
        lo, mid, up = lo[keep, None], mid[keep, None], up[keep, None]
        lo, up = (np.where(upper_half, mid, lo).reshape(-1, d),
                  np.where(upper_half, up, mid).reshape(-1, d))
    return None, False, None


def _certify_below(frontiers: dict, box, at: tuple, slice_fns, hi, lo=0.0):
    """``(point, proof)`` of :func:`_certify` on ``slice_fns = (exact,
    bound)`` over the box ``[lo, hi]``, started from ``frontiers[box]`` when
    each value in ``at`` (parameters the slack and bound rise with) lies at
    or below that of the stored query.  A feasible query that could start
    there replaces it, so ``frontiers`` keeps the lowest feasible query."""
    top, start = frontiers.get(box, ((math.inf,) * len(at), None))
    below = all(a <= t for a, t in zip(at, top))
    pt, proof, frontier = _certify(*slice_fns, hi, lo, start if below else None)
    if frontier is not None and below:
        frontiers[box] = at, frontier
    return pt, proof



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
