"""Stochastic oracles for the quantizer scheme, plus sphere-geometry checks.

The surrogate model replaces the spherical codebooks with jointly Gaussian
test channels having the same second moments: the decoder-side analysis
treats the tuple as jointly Gaussian, and every closed-form quantity under
test depends on second moments only.  Concretely, with
``nu = 1 - 2^-2R`` per stage,

    U1 = nu1 S1 + W1          (first-stage description of S1)
    ZQ1 = S1 - U1             (first-stage residual, orthogonal to U1)
    V  = nu3 ZQ1 + Wc         (shared refinement, orthogonal to U1)
    U2 = nu2 S2 + W2          (description of S2)

with W1, Wc, W2 independent of everything else.  The induced 5x5 covariance
over (S1, S2, U1, V, U2) reproduces the scheme's scaled correlations
exactly; sampling uses this structural recipe (no matrix factorization), so
zero-variance components are harmless.

The samplers run through :func:`confmac._mc.accumulate_chunks`, one stream per
chunk.  The angle sampler draws a chunk's stream in cache-sized blocks of
whole draws, and the normal-equation oracle solves a stack of models at once;
both give bit for bit what one block or one model at a time gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import DomainError, SourceSpec
from .vqscheme import VqConfig, _distortion_terms
from ._mc import MomentAccumulator, accumulate_chunks


_BLOCK_TUPLES = 1 << 15  # surrogate tuples drawn at once by the angle sampler: ~1.3 MB


class SingularError(ArithmeticError):
    """The description Gram matrix is singular after degenerate rows were removed."""


@dataclass(frozen=True)
class SurrogateModel:
    """Jointly Gaussian stand-in for (S1, S2, U1, V, U2)."""

    sigma2: float
    rho: float
    nu1: float
    nu2: float
    nu3: float
    covariance: np.ndarray  # 5x5, order (S1, S2, U1, V, U2)


def build_surrogate(src: SourceSpec, cfg: VqConfig) -> SurrogateModel:
    """Covariance of the Gaussian test-channel model for one configuration."""
    s, rho = src.sigma2, src.rho
    nu1 = 1.0 - 2.0 ** (-2.0 * cfg.r1)
    nu2 = 1.0 - 2.0 ** (-2.0 * cfg.r2)
    nu3 = 1.0 - 2.0 ** (-2.0 * cfg.rc)
    sv2 = s * (1.0 - nu1) * nu3
    cov = np.array([
        [s,            rho * s,       nu1 * s,        sv2,            nu2 * rho * s],
        [rho * s,      s,             nu1 * rho * s,  rho * sv2,      nu2 * s],
        [nu1 * s,      nu1 * rho * s, nu1 * s,        0.0,            nu1 * nu2 * rho * s],
        [sv2,          rho * sv2,     0.0,            sv2,            nu2 * rho * sv2],
        [nu2 * rho * s, nu2 * s,      nu1 * nu2 * rho * s, nu2 * rho * sv2, nu2 * s],
    ])
    return SurrogateModel(s, rho, nu1, nu2, nu3, cov)


@dataclass(frozen=True)
class GammaCoeffs:
    """Linear estimator gains: row 1 estimates S1, row 2 estimates S2."""

    g11: float
    g12: float
    g13: float
    g21: float
    g22: float
    g23: float


def mmse_gamma(src: SourceSpec, cfg: VqConfig) -> GammaCoeffs:
    """Closed-form MMSE estimator coefficients of S_nu given (U1, U2, V).

    With ``a = 2^-2(r1+rc)`` and ``b = 2^-2r2`` and the common denominator
    ``1 - rho^2 (1-b)(1-a)``:

        g11 = g13 = (1 - rho^2 (1-b)) / den      g12 = rho a / den
        g21 = g23 = rho b / den                  g22 = (1 - rho^2 (1-a)) / den
    """
    rho = src.rho
    a, b, den = _distortion_terms(rho, cfg.r1, cfg.r2, cfg.rc)
    g11 = (1.0 - rho**2 * (1.0 - b)) / den
    g12 = rho * a / den
    g21 = rho * b / den
    g22 = (1.0 - rho**2 * (1.0 - a)) / den
    return GammaCoeffs(g11, g12, g11, g21, g22, g21)


def mmse_gamma_oracle(model: SurrogateModel) -> GammaCoeffs:
    """Solve the normal equations from the surrogate covariance directly.

    Zero-variance descriptions (rate-0 stages) are removed before the solve;
    their coefficients are reported as 0.  Raises :class:`SingularError` if
    the remaining Gram matrix is still singular.  The one-model case of
    :func:`mmse_gamma_oracles`.
    """
    return mmse_gamma_oracles([model])[0]


def mmse_gamma_oracles(models: Sequence[SurrogateModel]) -> list[GammaCoeffs]:
    """:func:`mmse_gamma_oracle` of each model, from stacked solves.

    Models are grouped by the descriptions they keep; each group's Gram
    matrices go through one ``np.linalg.cond`` and one ``np.linalg.solve``
    per estimated source, which run the same LAPACK routine on each matrix of
    the stack, so every coefficient is bit for bit the one-model solve's.
    Raises :class:`SingularError` if any kept Gram matrix is singular.
    """
    covs = np.array([m.covariance for m in models]).reshape(-1, 5, 5)
    desc = np.array((2, 4, 3))  # u1, u2, v: the order of each source's gains
    kept = covs[:, desc, desc] > 0.0
    gains = np.zeros((len(covs), 2, 3))  # per model: source, description
    for mask in np.unique(kept, axis=0):
        if not mask.any():
            continue
        group = np.flatnonzero((kept == mask).all(axis=1))
        cols = desc[mask]
        gram = covs[np.ix_(group, cols, cols)]
        if np.any(np.linalg.cond(gram) > 1e12):
            raise SingularError("description Gram matrix is numerically singular")
        for source in (0, 1):
            rhs = covs[np.ix_(group, [source], cols)].transpose(0, 2, 1)  # (models, k, 1)
            gains[np.ix_(group, [source], mask)] = np.linalg.solve(gram, rhs).transpose(0, 2, 1)
    return [GammaCoeffs(*g.ravel().tolist()) for g in gains]


def _sample_tuple(rng: np.random.Generator, n: int, model: SurrogateModel) -> tuple:
    """Draw n samples of (s1, s2, u1, v, u2) via the structural recipe, as five
    contiguous arrays."""
    s, rho = model.sigma2, model.rho
    nu1, nu2, nu3 = model.nu1, model.nu2, model.nu3
    z = rng.standard_normal((n, 5))
    s1 = math.sqrt(s) * z[:, 0]
    s2 = math.sqrt(s) * (rho * z[:, 0] + math.sqrt(1.0 - rho**2) * z[:, 1])
    u1 = nu1 * s1 + math.sqrt(s * nu1 * (1.0 - nu1)) * z[:, 2]
    zq1 = s1 - u1
    v = nu3 * zq1 + math.sqrt(s * (1.0 - nu1) * nu3 * (1.0 - nu3)) * z[:, 3]
    u2 = nu2 * s2 + math.sqrt(s * nu2 * (1.0 - nu2)) * z[:, 4]
    return s1, s2, u1, v, u2


@dataclass(frozen=True)
class GenieEstimate:
    d1_hat: float
    d1_se: float
    d2_hat: float
    d2_se: float
    sample_count: int


def genie_distortion_mc(src: SourceSpec, cfg: VqConfig, sample_count: int,
                        seed: int) -> GenieEstimate:
    """Empirical normalized distortions of the genie-aided linear decoder.

    Samples the surrogate, applies the closed-form estimator gains, and
    returns the mean squared errors normalized by the source variance with
    their standard errors.  Deterministic given ``(seed, sample_count)``
    regardless of thread count.
    """
    if sample_count < 1000:
        raise DomainError("sample_count", f"must be >= 1000, got {sample_count}")
    model = build_surrogate(src, cfg)
    g = mmse_gamma(src, cfg)

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        s1, s2, u1, v, u2 = _sample_tuple(rng, n, model)
        e1 = (s1 - (g.g11 * u1 + g.g12 * u2 + g.g13 * v)) ** 2
        e2 = (s2 - (g.g21 * u1 + g.g22 * u2 + g.g23 * v)) ** 2
        return np.stack([e1, e2]) / src.sigma2

    acc = accumulate_chunks(chunk, seed, sample_count)
    se = acc.se_of_mean
    return GenieEstimate(float(acc.mean[0]), float(se[0]),
                         float(acc.mean[1]), float(se[1]), sample_count)


@dataclass(frozen=True)
class AngleMomentEstimate:
    """Empirical cosines between the block description vectors."""

    cos_u1_u2: float
    se_u1_u2: float
    cos_v_u2: float
    se_v_u2: float
    cos_v_u1: float
    se_v_u1: float
    draws: int
    dim: int


def surrogate_angle_moments(src: SourceSpec, cfg: VqConfig, dim: int,
                            draws: int, seed: int) -> AngleMomentEstimate:
    """Per-draw cosines of the angle between dim-long description vectors.

    Each draw stacks ``dim`` independent copies of the surrogate tuple into
    vectors and records cos(angle) for (U1, U2), (V, U2) and (V, U1); their
    means converge to the scheme's scaled correlations.

    A chunk of ``n`` draws takes its ``n dim`` tuples from its stream in
    consecutive blocks of whole draws, about ``_BLOCK_TUPLES`` tuples each,
    and writes each block's cosines in place.  A generator's draws do not
    depend on how they are split and a cosine reads only its own draw, so the
    estimate is bit for bit that of one block per chunk.
    """
    if dim < 1:
        raise DomainError("dim", f"must be >= 1, got {dim}")
    model = build_surrogate(src, cfg)
    block = max(1, _BLOCK_TUPLES // dim)  # draws per block

    def cos(a, b):
        denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        denom = np.where(denom > 0.0, denom, 1.0)
        return np.einsum("ij,ij->i", a, b) / denom

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((3, n))
        for lo in range(0, n, block):
            m = min(block, n - lo)
            _, _, u1, v, u2 = (x.reshape(m, dim) for x in _sample_tuple(rng, m * dim, model))
            out[:, lo:lo + m] = cos(u1, u2), cos(v, u2), cos(v, u1)
        return out

    acc = accumulate_chunks(chunk, seed, draws, chunk=1 << 12)
    se = acc.se_of_mean
    return AngleMomentEstimate(
        float(acc.mean[0]), float(se[0]),
        float(acc.mean[1]), float(se[1]),
        float(acc.mean[2]), float(se[2]),
        draws, dim,
    )


def expected_cosine(r: float, dim: int) -> float:
    """First-order finite-block expectation of the angle cosine.

    For a pair of ``dim``-long jointly Gaussian vectors with per-coordinate
    correlation ``r``, the empirical cos(angle) is biased low by
    ``r (1 - r^2) / (2 dim)`` at first order; the residual is O(1/dim^2).
    """
    return r * (1.0 - (1.0 - r**2) / (2.0 * dim))


# ---------------------------------------------------------------------------
# Sphere geometry: polar-cap area ratios and the gamma-ratio series.
# ---------------------------------------------------------------------------

def cap_ratio_exact(n: int, phi: float) -> float:
    """Fraction of the unit n-sphere's surface within angle ``phi`` of a pole.

    Equals ``(1/2) I_{sin^2 phi}(a, 1/2)``, ``a = (n-1)/2``, with ``I`` the
    regularized incomplete beta function; reduces to ``phi/pi`` for n = 2 and
    ``(1 - cos phi)/2`` for n = 3.  ``I`` is the modified-Lentz continued
    fraction, taken as ``1 - I_{cos^2 phi}(1/2, a)`` above ``sin^2 phi =
    (a+1)/(a+5/2)``, where that one converges faster.  Both forms share the
    prefactor ``sin^(n-1) phi cos phi / B(a, 1/2)``, and ``1/B(a, 1/2)`` is
    ``gamma_ratio_exact(a)/sqrt(pi)``: built from two ``lgamma`` values
    instead, it is 9e-13 off at n = 166, phi = 1.44.  For n in 2..200 and phi
    in [0.05, pi/2], wherever the value is at least 1e-280, the relative error
    is below 9e-14 against 40-digit mpmath and below 1e-13 against scipy's
    ``betainc``.
    """
    if n < 2:
        raise DomainError("n", f"dimension must be >= 2, got {n}")
    if not 0.0 < phi <= math.pi / 2.0:
        raise DomainError("phi", f"must lie in (0, pi/2], got {phi}")
    if phi == math.pi / 2.0:
        return 0.5  # the hemisphere; the float cos(pi/2) is 6e-17, not 0
    a = (n - 1) / 2.0
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    front = sin_phi ** (n - 1) * cos_phi * gamma_ratio_exact(a) / _SQRT_PI
    x = sin_phi * sin_phi
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front / a * _beta_cf(a, 0.5, x)
    return 0.5 - front * _beta_cf(0.5, a, cos_phi * cos_phi)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)`` past its prefactor, by modified Lentz."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def cap_ratio_bounds(n: int, phi: float) -> tuple[float, float]:
    """Sandwich bounds on the polar-cap area ratio.

    base = Gamma(n/2 + 1) sin^(n-1) phi / (n Gamma((n+1)/2) sqrt(pi) cos phi);
    the upper bound is ``base`` and the lower bound carries the
    ``(1 - tan^2 phi / n)`` correction (informative only while positive).
    Requires ``phi < pi/2`` (the bounds blow up at the equator).
    """
    if n < 2:
        raise DomainError("n", f"dimension must be >= 2, got {n}")
    if not 0.0 < phi < math.pi / 2.0:
        raise DomainError("phi", f"must lie in (0, pi/2), got {phi}")
    log_base = (
        math.lgamma(n / 2.0 + 1.0)
        - math.lgamma((n + 1) / 2.0)
        - math.log(n)
        - 0.5 * math.log(math.pi)
        + (n - 1) * math.log(math.sin(phi))
        - math.log(math.cos(phi))
    )
    upper = float(np.exp(log_base))
    lower = upper * (1.0 - math.tan(phi) ** 2 / n)
    return lower, upper


def sphere_cap_fraction_mc(n: int, phi: float, sample_count: int, seed: int) -> tuple[float, float]:
    """Empirical cap fraction from uniform sphere samples, with binomial SE."""
    if n < 2:
        raise DomainError("n", f"dimension must be >= 2, got {n}")
    cos_phi = math.cos(phi)

    def chunk(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.standard_normal((m, n))
        frac = x[:, 0] / np.linalg.norm(x, axis=1)
        return (frac >= cos_phi).astype(float)[None, :]

    acc = accumulate_chunks(chunk, seed, sample_count)
    p = float(acc.mean[0])
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / sample_count)
    return p, se


_SQRT_PI = math.sqrt(math.pi)
# B_2k / (2k (2k-1)) for k = 1..8: the coefficients of the Stirling series of lgamma
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
                    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
_GAMMA_RATIO_COEFFS = (1.0, -1.0 / 8.0, 1.0 / 128.0, 5.0 / 1024.0, -21.0 / 32768.0)


def gamma_ratio_series(x: float, terms: int = 3) -> float:
    """Truncated asymptotic series for Gamma(x + 1/2)/Gamma(x).

    ``sqrt(x) (1 - 1/(8x) + 1/(128 x^2) + 5/(1024 x^3) - 21/(32768 x^4))``,
    keeping the first ``terms`` bracketed terms (1 to 5).
    """
    if x <= 0.0:
        raise DomainError("x", f"must be > 0, got {x}")
    if not 1 <= terms <= 5:
        raise DomainError("terms", f"must lie in 1..5, got {terms}")
    acc = 0.0
    for k in range(terms):
        acc += _GAMMA_RATIO_COEFFS[k] / x**k
    return math.sqrt(x) * acc


def gamma_ratio_exact(x: float) -> float:
    """Gamma(x + 1/2)/Gamma(x).

    Below x = 16 it is ``exp(lgamma(x + 1/2) - lgamma(x))``.  From there on
    that difference loses digits to cancellation, so its log is the Stirling
    series difference ``x log1p(1/(2x)) + ln(x)/2 - 1/2 + sum_k
    B_2k/(2k(2k-1)) ((x+1/2)^(1-2k) - x^(1-2k))``, k = 1..8, whose truncation
    error at x = 16 is below 1e-21.  Against 40-digit mpmath the relative
    error is below 1.3e-14 for x in [0.01, 16), from lgamma's rounding, and
    below 2e-15 for x in [16, 1e12].
    """
    if x <= 0.0:
        raise DomainError("x", f"must be > 0, got {x}")
    if x < 16.0:
        return math.exp(math.lgamma(x + 0.5) - math.lgamma(x))
    log_ratio = x * math.log1p(0.5 / x) + 0.5 * math.log(x) - 0.5
    for k, coeff in enumerate(_STIRLING_COEFFS, start=1):
        log_ratio += coeff * ((x + 0.5) ** (1 - 2 * k) - x ** (1 - 2 * k))
    return math.exp(log_ratio)
