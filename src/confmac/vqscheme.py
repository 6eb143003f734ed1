"""Two-stage vector-quantizer scheme: constants, gains, rate region, distortions.

Encoder 1 quantizes its source component at rate ``r1`` and the residual at
rate ``rc``; the residual description is shared with Encoder 2 over the
conference link (with binning against Encoder 2's side information), so both
encoders superimpose it coherently on the channel.  Encoder 2 quantizes its
own component at rate ``r2``.  ``beta1``/``beta2`` split each encoder's power
between its private description and the shared one.

Everything here is closed-form and broadcasts over numpy arrays.
``_raw_quantities`` and ``_unlimited_raw`` build every gain, constant and rate
bound in readable form; the public functions are thin scalar wrappers around
them, and ``_rate_slacks`` gives the seven ``bound - rate`` slacks that both
``vq_rate_region`` and ``validate``'s row screen read.  ``_least_scale``
returns the least common scale of the powers at which those bounds and the
distortion targets hold, in closed form: the least-scale compass's objective
for the full scheme, whose conference bound it meets by construction.  The
codebook factors, correlations and shared amplitude that both read come from
one helper, ``_scheme_terms``, so the two agree on them bit for bit.

Degenerate-factor convention: a gain whose formula turns 0/0 because its
power share is zero or its codebook is empty (rate 0, variance factor 0) is
defined as 0 -- the corresponding signal component is absent.  In particular
``rc = 0`` means the shared description is absent: its gains, ``eta`` and
``bar_rho`` all vanish, and the ``rc`` rate bound evaluates to exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelSpec,
    DistortionPair,
    DomainError,
    FeasibilityReport,
    SourceSpec,
)
from ._opt import _LEAST_EPS
from .rdlib import DegenerateError

RATE_BOUND_NAMES = ("r1", "r2", "rc", "r1+r2", "r1+rc", "r2+rc", "r1+r2+rc")


@dataclass(frozen=True)
class VqConfig:
    """Free parameters of the scheme: three rates (bits) and two power splits."""

    r1: float
    r2: float
    rc: float
    beta1: float
    beta2: float

    def __post_init__(self):
        for name in ("r1", "r2", "rc"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(name, f"must be finite and >= 0, got {value}")
        for name in ("beta1", "beta2"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise DomainError(name, f"must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class VqGains:
    """Channel-input amplitude gains and the shared-component variance."""

    a11: float
    a12: float
    a21: float
    a22: float
    alpha: float
    sigma_v2: float


@dataclass(frozen=True)
class VqConstants:
    tilde_rho: float
    bar_rho: float
    lambda2: float
    eta: float
    lambda_c: float
    lambda12: float
    lambda1c: float
    lambda2c: float


def _half_log2_ratio(num, den):
    """0.5*log2(num/den) with den <= 0 mapped to +inf.

    The rate bounds are used as ``rate < 0.5 log2(num/den)``; in the
    exponentiated form ``den * 4^rate < num`` a nonpositive denominator
    (possible only in extreme corners, via ``lambda_c``) makes the
    constraint vacuous, i.e. the bound is +inf.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * np.log2(np.where(den > 0.0, num, 1.0) / np.where(den > 0.0, den, 1.0))
    return np.where(den > 0.0, out, np.inf)


_M2LN2 = -2.0 * math.log(2.0)  # r * _M2LN2 equals -2.0 * r * log(2) bit for bit


def _scheme_terms(s, rho, p1, p2, r1, r2, rc, b1, b2):
    """``(f1, f2, e1, sv2, sv, trho, brho, a22, eta)`` at array rates and
    splits: ``f = 1 - 4^-rate`` per rate, ``e1 = 4^-r1``, the shared
    component's variance ``sv2`` and its root, the correlations ``trho`` and
    ``brho``, Encoder 2's shared gain ``a22`` and the shared amplitude
    ``eta``.  The one definition :func:`_raw_quantities` and
    :func:`_least_scale` both read; callers set their own ``np.errstate``."""
    f1 = -np.expm1(r1 * _M2LN2)  # 1 - 4^-r1, accurate near 0
    f2 = -np.expm1(r2 * _M2LN2)
    fc = -np.expm1(rc * _M2LN2)
    e1 = 2.0 ** (-2.0 * r1)
    sv2 = s * e1 * fc
    sv = np.sqrt(sv2)
    trho = rho * np.sqrt(f1 * f2)
    brho = rho * np.sqrt(e1 * f2 * fc)
    has_v = sv2 > 0.0
    coh = rho**2 * (1.0 - b2) * f2
    a22 = _guarded(has_v, lambda den: np.sqrt(p2 / s)
                   * (np.sqrt(coh + s * b2 / den) - np.sqrt(coh)), sv2, 0.0)
    share = np.sqrt(b1 * p1)
    if not _everywhere(has_v):
        share = np.where(has_v, share, 0.0)
    return f1, f2, e1, sv2, sv, trho, brho, a22, share + a22 * sv


def _raw_quantities(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2):
    """All gains, constants and rate-bound right-hand sides, broadcast over arrays.

    Rows whose residual ``a_res = 1 - trho^2 - brho^2`` rounds to 0 or below
    (``rho = 1`` with rates past about 26.5 bits) get bounds of -inf: every
    bound there is rounding noise, and :func:`_least_scale` gives them +inf.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    rc = np.asarray(rc, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    s = float(sigma2)
    f1, f2, _, sv2, sv, trho, brho, a22, eta = _scheme_terms(s, rho, p1, p2, r1, r2, rc, b1, b2)
    bb1 = 1.0 - b1
    bb2 = 1.0 - b2

    with np.errstate(divide="ignore", invalid="ignore"):
        a11 = np.where((bb1 * p1 > 0.0) & (f1 > 0.0),
                       np.sqrt(bb1 * p1 / np.where(f1 > 0.0, s * f1, 1.0)), 0.0)
        a12 = np.where((b1 * p1 > 0.0) & (sv2 > 0.0),
                       np.sqrt(b1 * p1 / np.where(sv2 > 0.0, sv2, 1.0)), 0.0)
        a21 = np.where((bb2 * p2 > 0.0) & (f2 > 0.0),
                       np.sqrt(bb2 * p2 / np.where(f2 > 0.0, s * f2, 1.0)), 0.0)

    a_res = 1.0 - trho**2 - brho**2  # residual after both shared correlations
    lam2 = n0**2 * brho**2 * trho**2 * (2.0 + trho**2) / (b2 * p2 * a_res + n0)
    # bar_rho^2 / sigma_v^2 == rho^2 f2 / sigma^2, finite even as sv2 -> 0
    brho2_over_sv2 = rho**2 * f2 / s
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at rho = 1 once trho rounds to 1
        lamc = (
            n0**2
            * brho2_over_sv2
            * (brho**2 * bb1 * p1 - trho**2 * sv2)
            / (eta**2 * a_res + n0 * (1.0 - trho**2))
        )
    lam12 = bb1 * p1 + 2.0 * trho * np.sqrt(bb1 * bb2 * p1 * p2) + bb2 * p2
    # bar_rho^2 / sigma_v == rho^2 f2 sigma_v / sigma^2
    lam1c = (
        bb1 * p1 * (1.0 - trho**2)
        + eta**2 * (1.0 - brho**2)
        - 2.0 * eta * (rho**2 * f2 * sv / s) * np.sqrt(bb1 * p1 * s * f1)
    )
    lam2c = bb2 * p2 + 2.0 * eta * brho * np.sqrt(bb2 * p2) + eta**2

    with np.errstate(divide="ignore", invalid="ignore"):
        frac12 = np.where(lam12 > 0.0, bb2 * p2 * brho**2 / np.where(lam12 > 0.0, lam12, 1.0), 0.0)
        frac2c = np.where(lam2c > 0.0, bb2 * p2 * trho**2 / np.where(lam2c > 0.0, lam2c, 1.0), 0.0)

    bounds = {
        "r1": _half_log2_ratio(bb1 * p1 * a_res + n0 * (1.0 - brho**2), n0 * a_res),
        "r2": _half_log2_ratio(bb2 * p2 * a_res + n0, n0 * a_res + lam2),
        "rc": _half_log2_ratio(eta**2 * a_res + n0 * (1.0 - trho**2), n0 * a_res + lamc),
        "r1+r2": _half_log2_ratio(
            lam12 - bb2 * p2 * brho**2 + n0, (1.0 - frac12) * n0 * (1.0 - trho**2)
        ),
        "r1+rc": _half_log2_ratio((lam1c + n0) * (bb1 * p1 + eta**2), lam1c * n0),
        "r2+rc": _half_log2_ratio(
            lam2c - bb2 * p2 * trho**2 + n0, (1.0 - frac2c) * n0 * (1.0 - brho**2)
        ),
        "r1+r2+rc": _half_log2_ratio(
            lam12 + 2.0 * eta * brho * np.sqrt(bb2 * p2) + eta**2 + n0,
            n0 * (1.0 - trho**2) * (1.0 - brho**2),
        ),
    }
    resolved = a_res > 0.0
    if not _everywhere(resolved):
        bounds = {name: np.where(resolved, bound, -np.inf) for name, bound in bounds.items()}
    gains = {"a11": a11, "a12": a12, "a21": a21, "a22": a22, "sv2": sv2}
    consts = {
        "trho": trho, "brho": brho, "lam2": lam2, "eta": eta,
        "lamc": lamc, "lam12": lam12, "lam1c": lam1c, "lam2c": lam2c,
    }
    return gains, consts, bounds


def _rate_slacks(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2):
    """The seven ``bound - rate`` slacks (bits) of :func:`_raw_quantities`,
    keyed by ``RATE_BOUND_NAMES`` and broadcast over arrays."""
    _, _, bounds = _raw_quantities(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2)
    rates = (r1, r2, rc, r1 + r2, r1 + rc, r2 + rc, r1 + r2 + rc)
    return {name: bounds[name] - rate for name, rate in zip(RATE_BOUND_NAMES, rates)}


def _distortion_terms(rho, r1, r2, rc):
    """``a = 4^-(r1+rc)``, ``b = 4^-r2`` and their common denominator
    ``1 - rho^2 (1-b)(1-a)``, shared by the distortions and the estimator
    gains.  Python floats stay Python floats: numpy's ``power`` can differ
    from Python's in the last bit."""
    a = 2.0 ** (-2.0 * (r1 + rc))
    b = 2.0 ** (-2.0 * r2)
    return a, b, 1.0 - rho**2 * (1.0 - b) * (1.0 - a)


def _distortion_arrays(rho, r1, r2, rc):
    """Normalized distortion pair of the scheme, broadcast over arrays."""
    a, b, den = _distortion_terms(rho, *(np.asarray(x, dtype=float) for x in (r1, r2, rc)))
    d1 = a * (1.0 - rho**2 * (1.0 - b)) / den
    d2 = b * (1.0 - rho**2 * (1.0 - a)) / den
    return d1, d2


def _conf_requirement_arrays(rho, r1, rc):
    """(required conference bits, per-symbol log bin size), broadcast over arrays."""
    r1 = np.asarray(r1, dtype=float)
    rc = np.asarray(rc, dtype=float)
    fc = -np.expm1(-2.0 * rc * math.log(2.0))
    binning = -0.5 * np.log2(1.0 - rho**2 * 2.0 ** (-2.0 * r1) * fc)
    return rc - binning, binning


def _everywhere(cond) -> bool:
    """``cond.all()``, at less than half its dispatch cost on small arrays."""
    return np.count_nonzero(cond) == cond.size


def _guarded(cond, value, fallback, fill):
    """``np.where(cond, value(np.where(cond, fallback, 1.0)), fill)``, without
    the selects when ``cond`` holds everywhere; equal to it bit for bit."""
    if _everywhere(cond):
        return value(fallback)
    return np.where(cond, value(np.where(cond, fallback, 1.0)), fill)


def _upper_root(qa, qb, qc):
    """Larger root of ``qa x^2 + qb x + qc`` (``qa >= 0``) in the form that
    does not cancel; the linear root where ``qa = 0 < qb``, +inf or NaN where
    ``qa = 0 >= qb``.  A negative discriminant (rounding) counts as 0."""
    sq = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    return np.where(qb > 0.0, -2.0 * qc / (qb + sq), (sq - qb) / (2.0 * qa))


def _least_scale(sigma2, rho, p1, p2, n0, d1, d2, r1, r2, rc, b1, b2):
    """Least common scale ``s`` of the powers at which ``(s p1, s p2)`` meets
    the full scheme's seven rate bounds (:func:`_raw_quantities`) and the
    targets ``d1``, ``d2``, each less the hair ``_opt._LEAST_EPS``, at
    parameter arrays ``r1 .. b2``; +inf where a distortion misses its target
    or no scale meets the bounds.  No conference bound: the least-scale
    compass calls it with a shared rate within the budget.

    With ``s = n0 x`` the private powers, ``eta^2``, ``lam12``, ``lam1c`` and
    ``lam2c`` are linear in ``x``, and ``frac12``, ``frac2c`` do not read it.
    So, with ``k = 4^(rate - eps)`` the ratio a bound must reach, the
    ``r1``, ``r1+r2``, ``r1+rc``, ``r2+rc`` and ``r1+r2+rc`` bounds each hold
    above a linear floor; the ``r2`` bound, with ``lam2``'s denominator
    cleared, holds above the larger root of a quadratic (the bound rises with
    ``x``); and the ``rc`` bound, with ``lamc``'s cleared, is ``(alpha x +
    1 - trho^2)^2 >= k D(x)``, ``D`` affine: a quadratic that may hold below
    its roots as well as above them.  The answer is the floor ``x0`` of the
    other six bounds when ``rc`` holds there, else the larger ``rc`` root.
    ``1 - frac12`` and ``1 - frac2c`` are taken as ratios, which do not
    cancel near ``rho = 1``.  The correlations and ``eta`` come from
    :func:`_scheme_terms`, as the readable form's do.  Rows whose residual
    ``a_res = 1 - trho^2 - brho^2`` rounds to 0 or below (``rho = 1`` with
    rates past about 26.5 bits) get +inf, where the readable form's bounds
    are -inf.
    """
    s = float(sigma2)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    rc = np.asarray(rc, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    hair = 4.0**-_LEAST_EPS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f1, f2, e1, sv2, sv, trho, brho, _, eta = _scheme_terms(s, rho, p1, p2,
                                                                r1, r2, rc, b1, b2)
        t2 = trho**2
        bq2 = brho**2
        omt2 = 1.0 - t2
        omb2 = 1.0 - bq2
        a_res = omt2 - bq2

        # the distortions of _distortion_arrays, cross-multiplied; a = 4^-(r1+rc), b = 4^-r2
        a, b, den = _distortion_terms(rho, r1, r2, rc)
        met = ((a * (1.0 - rho**2 * (1.0 - b)) <= d1 / hair * den)
               & (b * (1.0 - rho**2 * (1.0 - a)) <= d2 / hair * den)
               & (den > 0.0) & (a_res > 0.0))
        k1 = hair / e1
        k2 = hair / b
        k1c = hair / a
        kc = k1c * e1
        del den

        q1 = (1.0 - b1) * p1
        q2 = (1.0 - b2) * p2
        eta2 = eta**2

        # linear floors x >= num / den: den > 0 where num > 0, and 0/0 (a bound
        # that reads no power and holds) is skipped by fmax
        private = q1 + 2.0 * trho * np.sqrt(q1 * q2)
        lam12 = private + q2
        n12 = private + q2 * omb2
        w12 = _guarded(lam12 > 0.0, lambda den: n12 / den, lam12, 1.0) * omt2
        shared = 2.0 * eta * brho * np.sqrt(q2) + eta2
        lam2c = q2 + shared
        n2c = q2 * omt2 + shared
        w2c = _guarded(lam2c > 0.0, lambda den: n2c / den, lam2c, 1.0) * omb2
        m1c = q1 + eta2
        lam1c = (q1 * omt2 + eta2 * omb2
                 - 2.0 * eta * (rho**2 * f2 * sv / s) * np.sqrt(q1 * s * f1))
        x0 = (k1 * a_res - omb2) / (q1 * a_res)
        np.fmax(x0, (k1 / b * w12 - 1.0) / n12, out=x0)
        np.fmax(x0, (kc / b * w2c - 1.0) / n2c, out=x0)
        np.fmax(x0, (k1c / b * (omt2 * omb2) - 1.0) / (lam12 + shared), out=x0)
        r1c = (k1c * lam1c - m1c) / (lam1c * m1c)  # the r1+rc bound holds where lam1c <= 0
        np.fmax(x0, r1c if _everywhere(lam1c > 0.0) else np.where(lam1c > 0.0, r1c, 0.0),
                out=x0)
        del private, lam12, n12, w12, shared, lam2c, n2c, w2c, m1c, lam1c, r1c, a, b

        # r2: (A x + 1)(B x + u) >= k K with u = 1 - k a_res, met above its larger root
        big_a = q2 * a_res
        big_b = b2 * p2 * a_res
        u = 1.0 - k2 * a_res
        qc = u - k2 * (bq2 * t2 * (2.0 + t2))
        root = _upper_root(big_a * big_b, big_a + big_b * u, qc)
        np.maximum(x0, np.where(qc < 0.0, root, 0.0), out=x0)
        del big_a, big_b, u, qc, root

        # rc: (alpha x + omt2)^2 >= k (a_res (alpha x + omt2) + gamma x - delta); where it
        # fails at x0, x0 lies between its roots and the larger one is the answer
        alpha = eta2 * a_res
        gamma = (rho**2 / s) * f2 * bq2 * q1 * n0
        delta = (rho**2 / s) * f2 * t2 * sv2
        lin = alpha * x0 + omt2
        fails = np.flatnonzero(lin * lin < kc * (a_res * lin + gamma * x0 - delta))
        if fails.size:
            alpha, kc, a_res, omt2 = alpha[fails], kc[fails], a_res[fails], omt2[fails]
            upper = _upper_root(alpha * alpha,
                                alpha * (2.0 * omt2 - kc * a_res) - kc * gamma[fails],
                                omt2 * (omt2 - kc * a_res) + kc * delta[fails])
            x0[fails] = np.maximum(upper, x0[fails])
        return np.where(met & (x0 >= 0.0), n0 * x0, np.inf)


def vq_constants(src: SourceSpec, ch: ChannelSpec, cfg: VqConfig) -> tuple[VqGains, VqConstants]:
    """Amplitude gains and derived constants for one configuration."""
    gains, consts, _ = _raw_quantities(
        src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
        cfg.r1, cfg.r2, cfg.rc, cfg.beta1, cfg.beta2,
    )
    g = {k: float(v) for k, v in gains.items()}
    c = {k: float(v) for k, v in consts.items()}
    if cfg.rc > 0.0 and g["sv2"] <= 0.0:
        raise DegenerateError("rc > 0 with zero shared-component variance")
    return (
        VqGains(g["a11"], g["a12"], g["a21"], g["a22"], g["a12"] + g["a22"], g["sv2"]),
        VqConstants(c["trho"], c["brho"], c["lam2"], c["eta"],
                    c["lamc"], c["lam12"], c["lam1c"], c["lam2c"]),
    )


def vq_rate_region(src: SourceSpec, ch: ChannelSpec, cfg: VqConfig,
                   margin: float = 0.0) -> FeasibilityReport:
    """Feasibility of a configuration: seven rate bounds plus the conference bound.

    Slacks are ``bound - rate`` in bits.  The inequalities are evaluated as
    closed; callers that need strictness pass ``margin > 0`` and feasibility
    then requires every slack >= margin.  The ``c12`` slack is +inf when the
    conference capacity is unlimited.  The rate slacks are those of
    :func:`_rate_slacks` on one-row arrays, so they equal a batch's row for
    row to the last bit (numpy's scalar and array paths round differently).
    """
    row = (np.array([v]) for v in (src.rho, ch.p1, ch.p2, ch.n0,
                                   cfg.r1, cfg.r2, cfg.rc, cfg.beta1, cfg.beta2))
    slacks = {name: float(slack[0]) for name, slack in _rate_slacks(src.sigma2, *row).items()}
    requirement, _ = _conf_requirement(src.rho, cfg.r1, cfg.rc)
    slacks["c12"] = ch.c12 - requirement
    feasible = all(v >= margin for v in slacks.values())
    return FeasibilityReport(feasible=feasible, slacks=slacks, witness={
        "r1": cfg.r1, "r2": cfg.r2, "rc": cfg.rc,
        "beta1": cfg.beta1, "beta2": cfg.beta2,
    })


def vq_distortion(src: SourceSpec, cfg: VqConfig) -> DistortionPair:
    """Normalized distortions achieved by the scheme (infimum values).

    Where the array form rounds a distortion to 0 or divides 0 by 0 (``rho``
    near 1 with rates past about 27 bits, where ``1 - 4^-r`` rounds to 1), it
    is taken in the form ``a ((1 - rho^2) + rho^2 b) / ((1 - rho^2) + rho^2
    (a + b - ab))``, or its ``d2`` twin, which does not cancel."""
    rho = src.rho
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = [float(d) for d in _distortion_arrays(rho, cfg.r1, cfg.r2, cfg.rc)]
    if not all(0.0 < d < math.inf for d in pair):
        a, b, _ = _distortion_terms(rho, cfg.r1, cfg.r2, cfg.rc)
        den = (1.0 - rho**2) + rho**2 * (a + b - a * b)
        exact = (a * ((1.0 - rho**2) + rho**2 * b) / den,
                 b * ((1.0 - rho**2) + rho**2 * a) / den)
        pair = [d if 0.0 < d < math.inf else x for d, x in zip(pair, exact)]
    return DistortionPair(*pair)


def _conf_requirement(rho: float, r1: float, rc: float) -> tuple[float, float]:
    """:func:`_conf_requirement_arrays` at one configuration, as floats.

    Where that form is not finite (at ``rho = 1, r1 = 0`` once ``1 - 4^-rc``
    rounds to 1), the requirement is taken as ``0.5 log2((1 - k) 4^rc + k)``
    with ``k = rho^2 4^-r1``, which is 0 at ``k = 1``, and the binning
    discount as ``rc`` less it.  A requirement rounded below 0 reads 0."""
    with np.errstate(divide="ignore"):
        requirement, binning = (float(x) for x in _conf_requirement_arrays(rho, r1, rc))
    if not math.isfinite(requirement):
        k = rho**2 * 2.0 ** (-2.0 * r1)
        requirement = 0.0 if k >= 1.0 else rc + 0.5 * math.log2((1.0 - k) + k * 4.0**-rc)
        binning = rc - requirement
    return max(requirement, 0.0), min(binning, rc)


def vq_conf_requirement(src: SourceSpec, cfg: VqConfig) -> tuple[float, float]:
    """Conference capacity the configuration needs, and the binning discount.

    Returns ``(rc - binning, binning)`` where ``binning`` is the per-symbol
    log bin count ``-(1/2)log2(1 - rho^2 2^-2r1 (1 - 2^-2rc))`` saved by
    binning the shared codebook against Encoder 2's side information.
    """
    return _conf_requirement(src.rho, cfg.r1, cfg.rc)


def _unlimited_raw(sigma2, rho, p1, p2, n0, r2, rc, beta):
    """Rate bounds and distortions of the unlimited-conference region."""
    r2 = np.asarray(r2, dtype=float)
    rc = np.asarray(rc, dtype=float)
    beta = np.asarray(beta, dtype=float)
    f2 = -np.expm1(-2.0 * r2 * math.log(2.0))
    fc = -np.expm1(-2.0 * rc * math.log(2.0))
    hrho2 = rho**2 * f2 * fc
    bb = 1.0 - beta
    d1 = 2.0 ** (-2.0 * rc) * (1.0 - rho**2 * f2) / (1.0 - hrho2)
    d2 = 2.0 ** (-2.0 * r2) * (1.0 - rho**2 * fc) / (1.0 - hrho2)
    delta1 = np.sqrt(p1) + np.sqrt(p2) * (np.sqrt(bb * hrho2 + beta) - np.sqrt(bb * hrho2))
    delta2 = p1 + p2 + 2.0 * np.sqrt((bb * hrho2 + beta) * p1 * p2)
    bounds = {
        "r2": _half_log2_ratio(bb * p2 * (1.0 - hrho2) + n0, n0 * (1.0 - hrho2)),
        "rc": _half_log2_ratio(delta1**2 * (1.0 - hrho2) + n0, n0 * (1.0 - hrho2)),
        "r2+rc": _half_log2_ratio(delta2 + n0, n0 * (1.0 - hrho2)),
    }
    return bounds, d1, d2


def vq_unlimited_region(src: SourceSpec, ch: ChannelSpec, r2: float, rc: float,
                        beta: float) -> tuple[FeasibilityReport, DistortionPair]:
    """Unlimited-conference form of the scheme at ``(r2, rc, beta)``.

    With unlimited conference capacity the first-stage private description is
    useless (``r1 = 0``, all of Encoder 1's power on the shared component);
    the region then depends on the scaled correlation
    ``hat_rho = rho sqrt((1-2^-2r2)(1-2^-2rc))`` and the coherent-power terms
    ``delta1``, ``delta2``.  Returns the three-bound report and the
    distortions, which use ``2^-2rc`` where the full scheme has
    ``2^-2(r1+rc)``.
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError("beta", f"must lie in [0, 1], got {beta}")
    if rc < 0.0 or r2 < 0.0:
        raise DomainError("rc" if rc < 0.0 else "r2", "must be >= 0")
    bounds, d1, d2 = _unlimited_raw(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0, r2, rc, beta)
    slacks = {
        "r2": float(bounds["r2"]) - r2,
        "rc": float(bounds["rc"]) - rc,
        "r2+rc": float(bounds["r2+rc"]) - (r2 + rc),
    }
    report = FeasibilityReport(
        feasible=all(v >= 0.0 for v in slacks.values()),
        slacks=slacks,
        witness={"r2": r2, "rc": rc, "beta": beta},
    )
    return report, DistortionPair(float(d1), float(d2))
