"""Closed-form rate-distortion quantities for the bivariate Gaussian source.

Includes the joint rate-distortion function with its three-piece region
structure, the conditional and side-information (binning) rates, the
two-terminal source-coding region, and a Gaussian inner bound for
source coding with a unidirectional conference link.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import (
    DistortionPair,
    DomainError,
    FeasibilityReport,
    RatePoint,
    SourceSpec,
    log2_pos,
)


class DegenerateError(ArithmeticError):
    """A formula was evaluated outside its valid correlation range (rho = 1)."""


class RdRegionLabel(enum.Enum):
    D1_REGION = 1
    D2_REGION = 2
    D3_REGION = 3


def rd_region_of(src: SourceSpec, dpair: DistortionPair) -> RdRegionLabel:
    """Locate ``(D1, D2)`` among the three pieces of the joint RD function.

    With ``upsilon = sigma^2 (1 - rho^2)``:

    * region 1: ``D2 >= upsilon + rho^2 D1`` or symmetrically
      ``D1 >= upsilon + rho^2 D2`` (the smaller distortion alone binds),
    * region 2: ``sigma^2 (D1 + D2) - D1 D2 < upsilon sigma^2``,
    * region 3: everything in between.

    Ties on the 2/3 boundary go to region 3, ties on the 3/1 boundary to
    region 1 (the boundary inequalities are closed on those sides).
    """
    s = src.sigma2
    d1, d2 = dpair.absolute(s)
    upsilon = s * (1.0 - src.rho**2)
    rho2 = src.rho**2
    if d2 >= upsilon + rho2 * d1 or d1 >= upsilon + rho2 * d2:
        return RdRegionLabel.D1_REGION
    if s * (d1 + d2) - d1 * d2 < upsilon * s:
        return RdRegionLabel.D2_REGION
    return RdRegionLabel.D3_REGION


def rd_joint(src: SourceSpec, dpair: DistortionPair) -> float:
    """Joint rate-distortion function in bits per symbol pair.

    Piecewise: ``(1/2)log2+ (sigma^2/Dmin)`` in region 1,
    ``(1/2)log2+ (sigma^4 (1-rho^2) / (D1 D2))`` in region 2, and in region 3
    the same with ``D1 D2 - (rho sigma^2 - g)^2`` in the denominator where
    ``g = sqrt((sigma^2-D1)(sigma^2-D2))``.
    """
    s = src.sigma2
    d1, d2 = dpair.absolute(s)
    region = rd_region_of(src, dpair)
    if region is RdRegionLabel.D1_REGION:
        return 0.5 * log2_pos(s / min(d1, d2))
    if region is RdRegionLabel.D2_REGION:
        return 0.5 * log2_pos(s**2 * (1.0 - src.rho**2) / (d1 * d2))
    g = math.sqrt((s - d1) * (s - d2))
    return 0.5 * log2_pos(s**2 * (1.0 - src.rho**2) / (d1 * d2 - (src.rho * s - g) ** 2))


def rd_conditional(src: SourceSpec, d2: float) -> float:
    """Rate to describe the second component when the first is known: ``(1/2)log2+((1-rho^2)/d2)``."""
    if not 0.0 < d2 <= 1.0:
        raise DomainError("d2", f"must lie in (0, 1], got {d2}")
    return 0.5 * log2_pos((1.0 - src.rho**2) / d2)


def wz_rate(src: SourceSpec, d1: float) -> float:
    """Binning (side-information) rate ``(1/2)log2[(1-rho^2)/d1 + rho^2]``.

    This is the rate needed to convey the first component at normalized
    distortion ``d1`` to a decoder that already holds the correlated second
    component.
    """
    if not 0.0 < d1 <= 1.0:
        raise DomainError("d1", f"must lie in (0, 1], got {d1}")
    return 0.5 * math.log2((1.0 - src.rho**2) / d1 + src.rho**2)


def wagner_contains(src: SourceSpec, dpair: DistortionPair, rp: RatePoint) -> FeasibilityReport:
    """Membership test for the two-terminal source-coding rate region.

    The region at ``(d1, d2)`` is the set of rate pairs with

    * ``R1 >= (1/2)log2+[(1 - rho^2(1 - 2^-2R2)) / d1]``
    * ``R2 >= (1/2)log2+[(1 - rho^2(1 - 2^-2R1)) / d2]``
    * ``R1 + R2 >=`` :func:`wagner_sum_bound`

    Slacks are ``rate - bound`` (nonnegative means satisfied).
    """
    rho = src.rho
    bsum = wagner_sum_bound(src, dpair)
    b1 = 0.5 * log2_pos((1.0 - rho**2 * (1.0 - 2.0 ** (-2.0 * rp.r2))) / dpair.d1)
    b2 = 0.5 * log2_pos((1.0 - rho**2 * (1.0 - 2.0 ** (-2.0 * rp.r1))) / dpair.d2)
    slacks = {
        "r1": rp.r1 - b1,
        "r2": rp.r2 - b2,
        "r1+r2": rp.r1 + rp.r2 - bsum,
    }
    return FeasibilityReport(
        feasible=all(v >= 0.0 for v in slacks.values()),
        slacks=slacks,
        witness={"r1": rp.r1, "r2": rp.r2},
    )


def wagner_sum_bound(src: SourceSpec, dpair: DistortionPair) -> float:
    """Sum-rate lower bound of the two-terminal region (bits).

    ``(1/2)log2+[(1 - rho^2) g / (2 d1 d2)]`` with
    ``g = 1 + sqrt(1 + 4 rho^2 d1 d2 / (1-rho^2)^2)``; undefined at rho = 1.
    """
    rho = src.rho
    if rho >= 1.0:
        raise DegenerateError("two-terminal sum-rate bound is undefined at rho = 1")
    d1, d2 = dpair.d1, dpair.d2
    g = 1.0 + math.sqrt(1.0 + 4.0 * rho**2 * d1 * d2 / (1.0 - rho**2) ** 2)
    return 0.5 * log2_pos((1.0 - rho**2) * g / (2.0 * d1 * d2))


@dataclass(frozen=True)
class KaspiParams:
    """Auxiliary-channel noise variances of the conferencing source code.

    Each of ``sw2`` (conference description of component 1), ``su2``
    (component-2 description) and ``sv2`` (refinement of component 1) is a
    positive variance; ``math.inf`` (:data:`~confmac.model.UNLIMITED`) means
    the auxiliary is absent, and its inverse-variance term is then 0.
    """

    sw2: float
    su2: float
    sv2: float

    def __post_init__(self):
        for name in ("sw2", "su2", "sv2"):
            value = float(getattr(self, name))
            if not value > 0.0:  # NaN included
                raise DomainError(name, f"must be > 0, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class KaspiPoint:
    """Rate/capacity lower bounds and distortions at one auxiliary choice."""

    c12_bound: float
    r1_bound: float
    r2_bound: float
    rsum_bound: float
    achieved: DistortionPair


def _kaspi_arrays(rho: float, iw, iu, iv):
    """Conferencing source-coding bounds from inverse ratios, broadcast over arrays.

    ``i_x = sigma^2 / sigma_x^2`` (0 when absent).  Returns
    (c12_bound, r1_bound, r2_bound, rsum_bound, d1, d2) with distortions
    normalized.
    """
    import numpy as np

    iw = np.asarray(iw, dtype=float)
    iu = np.asarray(iu, dtype=float)
    iv = np.asarray(iv, dtype=float)
    rc = 1.0 - rho**2
    delta = 1.0 + iu + (1.0 + iu * rc) * (iv + iw)
    c12b = 0.5 * np.log2(1.0 + rc * iw)
    r1b = 0.5 * np.log2(1.0 + iv * (1.0 + rc * iu) / (1.0 + iw + iu * (1.0 + rc * iw)))
    r2b = 0.5 * np.log2(1.0 + iu * (1.0 + (iw + iv) * rc) / (1.0 + iw + iv))
    rsb = 0.5 * np.log2(delta)
    d1 = (1.0 + iu * rc) / delta
    d2 = (1.0 + rc * (iv + iw)) / delta
    return c12b, r1b, r2b, rsb, d1, d2


def kaspi_region_point(src: SourceSpec, kp: KaspiParams) -> KaspiPoint:
    """Evaluate the Gaussian conferencing source-coding inner bound at ``kp``.

    Uses the inverse ratios ``i_x = sigma^2 / sigma_x^2`` (0 when the
    auxiliary is absent, ``sigma_x^2 = inf``), the common determinant ratio

        Delta = 1 + i_u + (1 + i_u (1 - rho^2)) (i_v + i_w),

    and returns the four rate-side bounds together with the achieved
    distortion pair (normalized).
    """
    s = src.sigma2
    c12b, r1b, r2b, rsb, d1, d2 = _kaspi_arrays(src.rho, s / kp.sw2, s / kp.su2, s / kp.sv2)
    return KaspiPoint(float(c12b), float(r1b), float(r2b), float(rsb),
                      DistortionPair(float(d1), float(d2)))
