"""Outer bound and high-SNR asymptotics.

The necessary condition reduces the two-user channel to a point-to-point one
whose input power is inflated by the best correlation the encoders can build,
``sqrt(rho^2 (1-beta) + beta)`` for a coherence split ``beta``; the second
constraint caps the private rate of Encoder 2 given Encoder 1's component.
The maximum-correlation construction that attains the bound is sampled here
as a Monte-Carlo check.

High-SNR quantities collect the asymptotically optimal correlations of each
approach and the corresponding predictions for the distortion product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelSpec,
    DistortionPair,
    DomainError,
    FeasibilityReport,
    SourceSpec,
)
from .capacity import _root
from .rdlib import rd_conditional, rd_joint
from ._mc import accumulate_chunks


class RegimeError(ValueError):
    """Inputs violate the high-SNR regime proxy or a radicand went negative."""


def _coherent_sum_bound(src: SourceSpec, ch: ChannelSpec, beta: float) -> float:
    gain = math.sqrt(src.rho**2 * (1.0 - beta) + beta)
    return 0.5 * math.log2(
        1.0 + (ch.p1 + ch.p2 + 2.0 * gain * _root(ch.p1, ch.p2)) / ch.n0
    )


def _private_bound(src: SourceSpec, ch: ChannelSpec, beta: float) -> float:
    return 0.5 * math.log2(1.0 + (1.0 - beta) * ch.p2 * (1.0 - src.rho**2) / ch.n0)


def necessary_condition(src: SourceSpec, ch: ChannelSpec,
                        target: DistortionPair) -> FeasibilityReport:
    """Outer-bound test: is the target pair possibly achievable at all?

    Feasible iff some ``beta`` in [0, 1] satisfies both

    * joint rate:   R(d1, d2) <= (1/2)log2(1 + (P1+P2+2 sqrt(rho^2(1-beta)+beta) sqrt(P1 P2))/N)
    * private rate: R(d2 | component 1) <= (1/2)log2(1 + (1-beta) P2 (1-rho^2)/N)

    The first right-hand side increases with ``beta``, the second decreases,
    so it suffices to check the first bound at the largest ``beta`` the
    second allows, ``1 - (4^need - 1) N / (P2 (1 - rho^2))`` in closed form.
    """
    need_joint = rd_joint(src, target)
    need_cond = rd_conditional(src, target.d2)

    if _private_bound(src, ch, 0.0) < need_cond:
        beta = 0.0  # even full private power cannot carry the conditional rate
    elif _private_bound(src, ch, 1.0) >= need_cond:
        beta = 1.0
    else:
        beta = max(0.0, 1.0 - (4.0**need_cond - 1.0) * ch.n0 / (ch.p2 * (1.0 - src.rho**2)))
        # rounding can leave the private bound an ulp short (beta = 0 meets it):
        # step beta down until the share 1 - beta the bound reads grows by an ulp
        while _private_bound(src, ch, beta) < need_cond:
            beta = min(float(np.nextafter(beta, 0.0)), 1.0 - float(np.nextafter(1.0 - beta, 2.0)))
    slacks = {
        "joint_rate": _coherent_sum_bound(src, ch, beta) - need_joint,
        "cond_rate": _private_bound(src, ch, beta) - need_cond,
    }
    return FeasibilityReport(all(v >= 0.0 for v in slacks.values()), slacks,
                             witness={"beta": beta})


def necessary_least_power(src: SourceSpec, target: DistortionPair, n0: float = 1.0,
                          floor: float = 0.0) -> tuple[float, FeasibilityReport]:
    """The least symmetric power ``p``, a float at or above ``floor``, at
    which :func:`necessary_condition` holds, and the test's report there;
    the target ``(1, 1)``, which needs no power, is not one to ask about.

    With ``J = 4^R(d1, d2) - 1``, ``C = 4^R(d2 | S1) - 1`` and ``y = P/N``,
    the private bound allows at most ``1 - beta = C/((1 - rho^2) y)``, at
    which the joint bound's correlation is ``varrho = sqrt(1 - C/y)``, and
    the joint bound reads ``2 C/(1 - varrho) >= J``.  So ``varrho`` must
    reach ``varrho* = 1 - 2C/J``: where ``varrho* >= rho`` the least power
    is ``N C/(1 - varrho*^2) = N J/(4 (1 - C/J))`` (a form that does not
    overflow where ``J`` passes 1e154), and otherwise ``beta = 0`` carries
    the joint rate at ``N C/(1 - rho^2)``.  The closed form, raised to
    ``floor``, is stepped by ulps to the least float at which the test
    holds.  Past 1e100 the test's rates round by 1e-14 bits, so where the
    joint rate alone binds its least float can lie a few 1e-14 below
    full cooperation's power, which a ``floor`` at that power excludes.
    """
    joint, cond = (math.expm1(math.log(4.0) * rate)
                   for rate in (rd_joint(src, target), rd_conditional(src, target.d2)))
    ratio = cond / joint
    p = max(n0 * (joint / (4.0 * (1.0 - ratio)) if 1.0 - 2.0 * ratio >= src.rho
                  else cond / (1.0 - src.rho**2)), floor)

    def test(power):
        return necessary_condition(src, ChannelSpec(power, power, n0), target)
    while not (report := test(p)).feasible:
        p = math.nextafter(p, math.inf)
    while (below := math.nextafter(p, 0.0)) >= floor and (lower := test(below)).feasible:
        p, report = below, lower
    return p, report


@dataclass(frozen=True)
class MaxCorrEstimate:
    """Sampled moments of the maximum-correlation linear mappings."""

    mean1: float
    mean2: float
    var1: float
    var2: float
    corr: float
    cond_var: float
    corr_se: float
    cond_var_se: float
    sample_count: int


def maxcorr_linear_maps(src: SourceSpec, beta: float | Sequence[float], sample_count: int,
                        seed: int) -> MaxCorrEstimate | tuple[MaxCorrEstimate, ...]:
    """Monte-Carlo moments of the unit-variance linear maps attaining the bound.

    phi1 = S1/sigma and phi2 = sqrt(1-beta)/sigma S2 +
    (sqrt(rho^2(1-beta)+beta) - sqrt(rho^2(1-beta)))/sigma S1.  The sampled
    correlation converges to ``sqrt(rho^2(1-beta)+beta)`` and the residual
    variance of phi2 given S1 to ``(1-beta)(1-rho^2)``.  Deterministic given
    the seed; standard errors are the asymptotic normal ones.

    ``beta`` may be one value, giving one :class:`MaxCorrEstimate`, or a
    sequence, giving a tuple of them in order.  The betas of a sequence share
    one stream: each chunk draws ``(S1, S2)`` once and returns the rows
    ``phi1``, ``phi1^2`` and then ``phi2``, ``phi2^2``, ``phi1 phi2`` per
    beta.  Rows are reduced one by one, so each estimate is bit for bit the
    one a call with that beta alone returns.
    """
    single = np.ndim(beta) == 0
    betas = [beta] if single else list(beta)
    for b in betas:
        if not 0.0 <= b <= 1.0:
            raise DomainError("beta", f"must lie in [0, 1], got {b}")
    rho = src.rho
    sigma = math.sqrt(src.sigma2)
    # per beta, the weights of S2 and S1 in phi2 (times sigma)
    maps = [(math.sqrt(1.0 - b), math.sqrt(rho**2 * (1.0 - b) + b) - math.sqrt(rho**2 * (1.0 - b)))
            for b in betas]

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, 2))
        s1 = sigma * z[:, 0]
        s2 = sigma * (rho * z[:, 0] + math.sqrt(1.0 - rho**2) * z[:, 1])
        out = np.empty((2 + 3 * len(maps), n))
        phi1 = np.divide(s1, sigma, out=out[0])
        np.square(phi1, out=out[1])
        for k, (root_bb, gain) in enumerate(maps):
            phi2 = np.add(root_bb * s2, gain * s1, out=out[2 + 3 * k])
            phi2 /= sigma
            np.square(phi2, out=out[3 + 3 * k])
            np.multiply(phi1, phi2, out=out[4 + 3 * k])
        return out

    acc = accumulate_chunks(chunk, seed, sample_count)
    n = sample_count
    estimates = []
    for k in range(len(maps)):
        rows = (0, 2 + 3 * k, 1, 3 + 3 * k, 4 + 3 * k)
        m1, m2, m11, m22, m12 = (float(acc.mean[i]) for i in rows)
        var1 = m11 - m1**2
        var2 = m22 - m2**2
        cov = m12 - m1 * m2
        corr = cov / math.sqrt(var1 * var2)
        cond_var = var2 * (1.0 - corr**2)
        corr_se = (1.0 - corr**2) / math.sqrt(n)
        cond_var_se = cond_var * math.sqrt(2.0 / n)
        estimates.append(MaxCorrEstimate(m1, m2, var1, var2, corr, cond_var,
                                         corr_se, cond_var_se, n))
    return estimates[0] if single else tuple(estimates)


@dataclass(frozen=True)
class AsymptoticQuantities:
    """High-SNR correlation coefficients and distortion-product predictions."""

    varrho_inf: float
    varrho_sep1: float
    varrho_sep1_fixed: float
    varrho_vq_lower: float
    check_rho: float
    d1d2_limit: float
    d1d2_limit_sep1_fixed: float
    d1d2_limit_vq_fixed: float


_HIGH_SNR_PROXY = 0.1  # largest N/(d_i P_i) taken as high SNR


def high_snr_quantities(src: SourceSpec, ch: ChannelSpec,
                        target: DistortionPair) -> AsymptoticQuantities:
    """Asymptotic correlations and predicted distortion products at ``ch.c12``.

    The regime is enforced through the finite proxy ``N/(d_i P_i) <= 0.1``
    for both components; outside it the asymptotics are meaningless and
    :class:`RegimeError` is raised.

    ``check_rho`` is the shared-description correlation at the operating
    point that saturates the conference budget with no private first stage,
    ``rho sqrt((1-2^-2C)/(1 - rho^2 2^-2C))``, which is ``rho`` at ``C =
    inf``; it enters only the scheme-side product prediction.
    """
    c12, rho, n0 = ch.c12, src.rho, ch.n0
    d1, d2 = target.d1, target.d2
    x1 = n0 / (d1 * ch.p1)
    x2 = n0 / (d2 * ch.p2)
    if x1 > _HIGH_SNR_PROXY or x2 > _HIGH_SNR_PROXY:
        raise RegimeError(
            f"outside high-SNR regime: N/(d1 P1)={x1:.4g}, N/(d2 P2)={x2:.4g} "
            f"exceed threshold {_HIGH_SNR_PROXY}"
        )
    att = 2.0 ** (-2.0 * c12)  # 0 at c12 = inf

    for name, radicand in (("varrho_inf", 1.0 - x2 * (1.0 - rho**2)),
                           ("varrho_sep1_fixed", 1.0 - x1 * (1.0 - rho**2) * att),
                           ("varrho_vq_lower", 1.0 - x1 * att)):
        if radicand < 0.0:
            raise RegimeError(f"negative radicand in {name}")

    varrho_inf = math.sqrt(1.0 - x2 * (1.0 - rho**2))
    varrho_sep1_fixed = math.sqrt(1.0 - x1 * (1.0 - rho**2) * att) * varrho_inf
    varrho_vq_lower = (rho * math.sqrt(att) * math.sqrt(x1 * x2)
                       + math.sqrt(1.0 - x1 * att) * math.sqrt(1.0 - x2))
    check_rho = rho * math.sqrt((1.0 - att) / (1.0 - rho**2 * att))

    def product(varrho: float, extra: float = 1.0) -> float:
        return (n0 * (1.0 - rho**2) * extra
                / (ch.p1 + ch.p2 + 2.0 * varrho * math.sqrt(ch.p1 * ch.p2)))

    return AsymptoticQuantities(
        varrho_inf=varrho_inf,
        varrho_sep1=varrho_inf,
        varrho_sep1_fixed=varrho_sep1_fixed,
        varrho_vq_lower=varrho_vq_lower,
        check_rho=check_rho,
        d1d2_limit=product(varrho_inf),
        d1d2_limit_sep1_fixed=product(varrho_sep1_fixed),
        d1d2_limit_vq_fixed=product(varrho_vq_lower, 1.0 - check_rho**2),
    )


def compare_threshold(c_bits: float, alpha: float) -> float:
    """Correlation threshold ``2 * 2^-C sqrt(alpha) / (2^-2C + alpha)``.

    Below it, at fixed link capacity and symmetric powers with
    ``d1 = alpha d2``, the quantizer scheme's asymptotic correlation lower
    bound exceeds the first separation scheme's.  Equals exactly 1 at
    ``alpha = 2^-2C``.
    """
    if c_bits < 0.0:
        raise DomainError("c_bits", f"must be >= 0, got {c_bits}")
    if alpha <= 0.0:
        raise DomainError("alpha", f"must be > 0, got {alpha}")
    att = 2.0 ** (-2.0 * c_bits)
    if alpha == att:
        return 1.0  # the peak of 2 u s / (u^2 + s^2) at u = s, exact
    return 2.0 * 2.0 ** (-c_bits) * math.sqrt(alpha) / (att + alpha)


def semi_symmetric_product(rho: float, p: float, n0: float, d2: float) -> float:
    """Predicted optimal distortion product at symmetric power, unlimited link.

    ``(N/2P) (1-rho^2) / (1 + sqrt(1 - N(1-rho^2)/(d2 P)))``.
    """
    radicand = 1.0 - n0 * (1.0 - rho**2) / (d2 * p)
    if radicand < 0.0:
        raise RegimeError("semi-symmetric prediction needs N(1-rho^2)/(d2 P) <= 1")
    return (n0 / (2.0 * p)) * (1.0 - rho**2) / (1.0 + math.sqrt(radicand))
