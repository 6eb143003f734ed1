"""Feasibility of the two source-channel separation pipelines.

Scheme 1: distributed source coding at the target distortions, then channel
coding over the conferencing MAC.  The source-region lower boundary is traced
parametrically (sweep ``r1``, take the least admissible ``r2``), and a
closed-form power-split existence test decides channel membership per point.

Scheme 2: source coding with the conference link (Gaussian inner bound),
then channel coding over the plain MAC.  The three auxiliary noise variances
are optimized by a deterministic multistart compass search in log space.

Feasibility is declared when the worst slack is >= -1e-9, so exact boundary
points count as feasible.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity, rdlib
from .model import (
    UNLIMITED,
    ChannelSpec,
    DistortionPair,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    is_unlimited,
    log2_pos,
)
from ._mc import halton_points
from ._opt import compass_search_max, refine_grid_max

SLACK_TOL = -1e-9

_SEP2_LOG_SPAN = 16.0  # log10 range of auxiliary variances around sigma^2


def _wagner_boundary(src: SourceSpec, target: DistortionPair, r1: np.ndarray):
    """Least admissible ``r2`` on the source region's lower boundary.

    Points where no finite ``r2`` admits the given ``r1`` get +inf.
    """
    rho = src.rho
    d1, d2 = target.d1, target.d2
    f2_floor = 0.5 * np.log2(np.maximum((1.0 - rho**2 * (1.0 - 4.0**-r1)) / d2, 1.0))
    rsum = rdlib.wagner_sum_bound(src, target)
    if rho > 0.0:
        arg = (d1 * 4.0**r1 - (1.0 - rho**2)) / rho**2
        inv = np.where(arg >= 1.0, 0.0,
                       np.where(arg > 0.0, -0.5 * np.log2(np.maximum(arg, 1e-300)), np.inf))
    else:
        inv = np.where(r1 >= 0.5 * log2_pos(1.0 / d1) - 1e-15, 0.0, np.inf)
    return np.maximum.reduce([f2_floor, rsum - r1, inv, np.zeros_like(r1)])


def sep1_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Distributed source coding followed by conferencing-MAC channel coding.

    Feasible iff some rate pair on the source-region boundary fits inside the
    channel region for some power split.  The returned witness re-validates
    exactly through the underlying region operations.
    """
    rho = src.rho
    r1_lo = 0.5 * log2_pos((1.0 - rho**2) / target.d1)
    rsum = rdlib.wagner_sum_bound(src, target)
    r1_hi = max(rsum, 0.5 * log2_pos(1.0 / target.d1)) + 2.0

    best = None
    lo, hi = r1_lo, r1_hi
    for _ in range(3):  # coarse grid, then two refinements around the best point
        r1 = np.linspace(lo, hi, 513)
        r2 = _wagner_boundary(src, target, r1)
        ok = np.isfinite(r2)
        r2c = np.where(ok, r2, 60.0)  # placeholder rate, masked out below
        if is_unlimited(ch.c12):
            feas, beta = capacity.conf_unlimited_split_exists(ch.p1, ch.p2, ch.n0, r1, r2c)
            witness_cols = (beta,)
        else:
            feas, b1, b2 = capacity.conf_fixed_split_exists(
                ch.p1, ch.p2, ch.n0, ch.c12, r1, r2c)
            witness_cols = (b1, b2)
        feas = feas & ok
        if feas.any():
            i = int(np.argmax(feas))  # smallest feasible r1: deterministic witness
            best = (float(r1[i]), float(r2[i]), tuple(float(c[i]) for c in witness_cols))
            break
        # refine around the point closest to the channel region (largest beta headroom
        # is not defined when infeasible, so shrink toward the least sum-rate demand)
        j = int(np.argmin(np.where(ok, r1 + r2, np.inf))) if ok.any() else len(r1) // 2
        span = (hi - lo) / 16.0
        lo, hi = max(r1_lo, r1[j] - span), min(r1_hi, r1[j] + span)

    if best is None:
        report = _sep1_report(src, ch, target, r1_hi, float(_wagner_boundary(
            src, target, np.asarray([r1_hi]))[0]), None)
        return report
    r1_w, r2_w, split = best
    return _sep1_report(src, ch, target, r1_w, r2_w, split)


def _sep1_report(src, ch, target, r1, r2, split) -> FeasibilityReport:
    if not math.isfinite(r2):
        return FeasibilityReport(False, {"source:r2": -math.inf}, {})
    rp = RatePoint(r1, r2)
    source = rdlib.wagner_contains(src, target, rp)
    witness = {"r1": r1, "r2": r2}
    if is_unlimited(ch.c12):
        beta = split[0] if split else 0.0
        channel = capacity.mac_conf_unlimited_contains(ch, rp, beta)
        witness["beta"] = beta
    else:
        b1, b2 = split if split else (0.0, 0.0)
        channel = capacity.mac_conf_fixed_contains(ch, rp, capacity.MacPowerSplit(b1, b2))
        witness.update({"beta1": b1, "beta2": b2})
    slacks = {f"source:{k}": v for k, v in source.slacks.items()}
    slacks.update({f"channel:{k}": v for k, v in channel.slacks.items()})
    return FeasibilityReport(min(slacks.values()) >= SLACK_TOL, slacks, witness)


def _sep2_slack_batch(src: SourceSpec, ch: ChannelSpec, target: DistortionPair,
                      pts: np.ndarray) -> np.ndarray:
    """Worst slack of the scheme-2 pipeline at log-variance box points.

    The upper box edge compactifies an absent auxiliary: its inverse ratio is
    exactly 0 there, so e.g. a zero conference budget is attainable exactly.
    """
    logs = (pts * _SEP2_LOG_SPAN) - _SEP2_LOG_SPAN / 2.0
    inv = np.where(pts >= 1.0, 0.0, 10.0 ** (-logs))  # sigma^2 / sigma_x^2
    c12b, r1b, r2b, rsb, d1, d2 = rdlib._kaspi_arrays(src.rho, inv[:, 0], inv[:, 1], inv[:, 2])
    c1 = 0.5 * math.log2(1.0 + ch.p1 / ch.n0)
    c2 = 0.5 * math.log2(1.0 + ch.p2 / ch.n0)
    csum = 0.5 * math.log2(1.0 + (ch.p1 + ch.p2) / ch.n0)
    slacks = [
        0.5 * (math.log2(target.d1) - np.log2(d1)),
        0.5 * (math.log2(target.d2) - np.log2(d2)),
        c1 - r1b,
        c2 - r2b,
        csum - rsb,
        csum - (r1b + r2b),
    ]
    if not is_unlimited(ch.c12):
        slacks.append(ch.c12 - c12b)
    return np.minimum.reduce(slacks)


def sep2_feasible(src: SourceSpec, ch: ChannelSpec, target: DistortionPair) -> FeasibilityReport:
    """Conferencing source coding followed by plain-MAC channel coding.

    Searches the three auxiliary noise variances (log-scaled, 16 deterministic
    starts); a point is feasible when the achieved distortions meet the
    target, the conference bound fits ``c12``, and the rate lower bounds fit
    inside the plain MAC region (individually, summed, and via the region's
    own sum bound).
    """
    base = halton_points(16, 3)
    no_conf = base.copy()
    no_conf[:, 0] = 1.0  # conference description absent (tight budgets)
    starts = np.vstack([base, no_conf, np.ones((1, 3))])
    f = lambda p: _sep2_slack_batch(src, ch, target, p)
    value, point, _ = compass_search_max(f, starts, stop_at=1e-6)
    if value < 1e-6:
        rval, rpt = refine_grid_max(f, point, stop_at=1e-6)
        if rval > value:
            value, point = rval, rpt
    logs = (point * _SEP2_LOG_SPAN) - _SEP2_LOG_SPAN / 2.0
    sw2, su2, sv2 = (UNLIMITED if z >= 1.0 else src.sigma2 * 10.0**v
                     for z, v in zip(point, logs))
    kp = rdlib.kaspi_region_point(src, rdlib.KaspiParams(sw2, su2, sv2))

    # witness rate point: distribute the binding sum across the two bounds
    s_needed = max(kp.rsum_bound, kp.r1_bound + kp.r2_bound)
    c2 = 0.5 * math.log2(1.0 + ch.p2 / ch.n0)
    r1_w = max(kp.r1_bound, s_needed - c2)
    rp = RatePoint(r1_w, max(s_needed - r1_w, 0.0))
    mac = capacity.mac_plain_contains(ch, rp)

    slacks = {
        "d1": 0.5 * (math.log2(target.d1) - math.log2(kp.achieved.d1)),
        "d2": 0.5 * (math.log2(target.d2) - math.log2(kp.achieved.d2)),
        "c12": math.inf if is_unlimited(ch.c12) else ch.c12 - kp.c12_bound,
    }
    slacks.update({f"mac:{k}": v for k, v in mac.slacks.items()})
    witness = {"sw2": sw2, "su2": su2, "sv2": sv2, "r1": rp.r1, "r2": rp.r2}
    feasible = value >= SLACK_TOL and min(slacks.values()) >= SLACK_TOL
    return FeasibilityReport(feasible, slacks, witness)
