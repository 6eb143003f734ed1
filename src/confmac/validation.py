"""The ``validate`` self-check suite, shared with the acceptance tests: a
check the tests repeat is split into a sampler, which draws its inputs, and an
evaluator, which measures them against an oracle.  Other modules are called
through their module attributes, so a wrapper installed on one sees every call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import bounds, montecarlo, rdlib, vqscheme
from .model import ChannelSpec, DistortionPair, SourceSpec

# source and configuration of the genie-distortion and angle-constant checks
GENIE_SRC = SourceSpec(1.0, 0.5)
GENIE_CFG = vqscheme.VqConfig(1.0, 1.0, 0.5, 0.0, 0.0)
# check 9's sampling box, per column: rho, p1, p2, n0, r1, r2, rc, beta1, beta2
_SCHEME_BOX_LO = (0.0, 0.3, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0)
_SCHEME_BOX_HI = (0.95, 8.0, 8.0, 8.0, 2.0, 2.0, 2.0, 1.0, 1.0)
_SCHEME_BLOCK_ROWS = 2048  # about 37 of them meet the rate bounds


def _uniform_rows(rng: np.random.Generator, lo, hi, m: int) -> np.ndarray:
    """``m`` rows with column ``j`` uniform on ``[lo[j], hi[j])``: bit for bit the
    scalar ``rng.uniform(lo[j], hi[j])`` draws row after row, same end state."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((m, lo.size))


def _meets_rate_bounds(rows: np.ndarray) -> np.ndarray:
    """Per row ``(rho, p1, p2, n0, r1, r2, rc, beta1, beta2)`` at ``sigma2 =
    1``, whether all seven rate slacks of ``vq_rate_region`` are >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slacks = vqscheme._rate_slacks(1.0, *rows.T)
    return np.logical_and.reduce([slack >= 0.0 for slack in slacks.values()])


def _feasible_scheme_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first ``count`` rows of check 9's box, in draw order, that meet all
    seven rate bounds.  Blocks of ``_SCHEME_BLOCK_ROWS`` rows are screened at
    once, so ``rng`` ends up past the last row returned."""
    kept, need = [], count
    while need > 0:
        rows = _uniform_rows(rng, _SCHEME_BOX_LO, _SCHEME_BOX_HI, _SCHEME_BLOCK_ROWS)
        kept.append(rows[_meets_rate_bounds(rows)][:need])
        need -= len(kept[-1])
    return np.concatenate(kept)


def wz_identity_worst() -> float:
    """Worst |diff| on a (rho, rc) grid between the conference requirement at
    ``r1 = 0`` and the side-information rate at distortion ``4^-rc``."""
    worst = 0.0
    for rho in np.linspace(0.0, 0.95, 20):
        src = SourceSpec(1.0, float(rho))
        for rc in map(float, np.linspace(0.0, 6.0, 10)):
            lhs = rdlib.wz_rate(src, 2.0 ** (-2.0 * rc))
            req, _ = vqscheme.vq_conf_requirement(src, vqscheme.VqConfig(0.0, 0.0, rc, 0.0, 0.0))
            worst = max(worst, abs(lhs - req))
    return worst


def no_conference_rows(rng: np.random.Generator) -> np.ndarray:
    """1000 rows ``(rho, p1, p2, n0, r1, r2)`` for the no-conference check."""
    return _uniform_rows(rng, (0.0, 0.25, 0.25, 0.25, 0.0, 0.0),
                         (0.98, 4.0, 4.0, 4.0, 5.0, 5.0), 1000)


def no_conference_worst(rows: np.ndarray) -> float:
    """Worst |diff| between the r1, r2 and r1+r2 bounds at ``rc = beta1 =
    beta2 = 0`` and the Lapidoth-Tinguely bounds written out in scalar math."""
    slacks = vqscheme._rate_slacks(1.0, *rows.T, 0.0, 0.0, 0.0)
    r1, r2 = rows[:, 4], rows[:, 5]
    # bounds read back from their slacks, as ``vq_rate_region(...).slacks`` gives them
    got = [(slacks[k] + rate).tolist() for k, rate in zip(("r1", "r2", "r1+r2"),
                                                           (r1, r2, r1 + r2))]
    worst = 0.0
    for i, (rho, p1, p2, n0, r1, r2) in enumerate(rows.tolist()):
        tr = rho * math.sqrt((1 - 4.0**-r1) * (1 - 4.0**-r2))
        lt = (0.5 * math.log2((p1 * (1 - tr**2) + n0) / (n0 * (1 - tr**2))),
              0.5 * math.log2((p2 * (1 - tr**2) + n0) / (n0 * (1 - tr**2))),
              0.5 * math.log2((p1 + p2 + 2 * tr * math.sqrt(p1 * p2) + n0) / (n0 * (1 - tr**2))))
        worst = max(worst, *(abs(g[i] - bound) for g, bound in zip(got, lt)))
    return worst


def mmse_draws(rng: np.random.Generator) -> list:
    """1000 (source, configuration) pairs from rows (rho, r1, r2, rc, sigma2)."""
    rows = _uniform_rows(rng, (0.05, 0.05, 0.05, 0.05, 0.5), (0.98, 5.0, 5.0, 5.0, 2.0), 1000)
    return [(SourceSpec(sigma2, rho), vqscheme.VqConfig(r1, r2, rc, 0.0, 0.0))
            for rho, r1, r2, rc, sigma2 in rows.tolist()]


def mmse_oracle(draws) -> tuple[float, bool]:
    """Worst |diff| between the closed-form estimator gains and the
    normal-equation solves, stacked into one, and whether every gain lies in
    its range."""
    worst, range_ok = 0.0, True
    oracles = montecarlo.mmse_gamma_oracles([montecarlo.build_surrogate(src, cfg)
                                             for src, cfg in draws])
    for (src, cfg), go in zip(draws, oracles):
        g = montecarlo.mmse_gamma(src, cfg)
        for name in ("g11", "g12", "g13", "g21", "g22", "g23"):
            worst = max(worst, abs(getattr(g, name) - getattr(go, name)))
        range_ok &= (0 < g.g11 <= 1) and (0 < g.g13 <= 1) and (0 < g.g22 <= 1)
        range_ok &= (0 < g.g12 <= src.rho) and (0 < g.g21 <= src.rho) and (0 < g.g23 <= src.rho)
    return worst, range_ok


def genie_distortion(samples: int, seed: int):
    """Sampled genie-aided distortions at ``GENIE_*``, and their closed form."""
    est = montecarlo.genie_distortion_mc(GENIE_SRC, GENIE_CFG, samples, seed)
    return est, vqscheme.vq_distortion(GENIE_SRC, GENIE_CFG).astuple()


def maxcorr_errors(rhos, betas, samples: int, seed: int) -> list:
    """Per (rho, beta), the maximum-correlation construction's sampled moments
    against their closed forms: ``(|corr diff|, se, |cond_var diff|, se)``."""
    out = []
    for rho in rhos:  # one stream per rho, shared by its betas
        for beta, est in zip(betas, bounds.maxcorr_linear_maps(SourceSpec(1.0, rho), betas,
                                                               samples, seed)):
            out.append((abs(est.corr - math.sqrt(rho**2 * (1 - beta) + beta)), est.corr_se,
                        abs(est.cond_var - (1 - beta) * (1 - rho**2)), est.cond_var_se))
    return out


def sphere_geometry(ns, phis, small_phis) -> tuple[int, float, float]:
    """Count of ``(n, phi)`` where the exact cap-area ratio leaves its upper or
    positive lower bound (relative 1e-12); worst |diff| from the n = 2, 3
    closed forms at ``small_phis``; relative error of the gamma-ratio series."""
    bad = 0
    for n in ns:
        for phi in map(float, phis):
            lower, upper = montecarlo.cap_ratio_bounds(n, phi)
            exact = montecarlo.cap_ratio_exact(n, phi)
            bad += (not exact <= upper * (1 + 1e-12)
                    or lower > 0.0 and not lower <= exact * (1 + 1e-12))
    small = 0.0
    for phi in map(float, small_phis):
        small = max(small, abs(montecarlo.cap_ratio_exact(2, phi) - phi / math.pi),
                    abs(montecarlo.cap_ratio_exact(3, phi) - (1 - math.cos(phi)) / 2))
    series = montecarlo.gamma_ratio_series(1e4, terms=3)
    return bad, small, series / montecarlo.gamma_ratio_exact(1e4) - 1.0


def necessary_violations(cases) -> list:
    """The (source, channel, configuration) cases failing the necessary condition."""
    return [(src, ch, cfg) for src, ch, cfg in cases
            if not bounds.necessary_condition(src, ch, vqscheme.vq_distortion(src, cfg)).feasible]


def comparison_threshold(unit_cs, cs, alphas, fracs, rho_max: float) -> tuple[float, int, int]:
    """Worst |threshold - 1| at ``alpha = 2^-2C`` over ``unit_cs``; then, at
    ``rho = frac * threshold`` in ``(0, rho_max)``, whether the VQ scheme's
    high-SNR correlation beats SEP1's: ``(worst, points checked, violations)``."""
    worst = max(abs(bounds.compare_threshold(c, 2.0 ** (-2.0 * c)) - 1.0) for c in unit_cs)
    d2, checked, violations = 0.2, 0, 0
    for c in cs:
        for alpha in alphas:
            thr = bounds.compare_threshold(c, alpha)
            p = 1000.0 / min(alpha * d2, d2)  # regime proxy ~1e-3
            for rho in (frac * thr for frac in fracs):
                if 0.0 < rho < rho_max:
                    q = bounds.high_snr_quantities(SourceSpec(1.0, rho), ChannelSpec(p, p, 1.0, c),
                                                   DistortionPair(alpha * d2, d2))
                    checked += 1
                    violations += not q.varrho_vq_lower > q.varrho_sep1_fixed
    return worst, checked, violations


def run(seed: int, samples: int) -> Iterator[tuple[str, bool, str]]:
    """The ten ``validate`` checks, run in order, as ``(name, passed, detail)``."""
    worst = wz_identity_worst()
    yield "wz-identity", worst <= 1e-12, f"worst |diff|={worst:.3e}"
    rng = np.random.default_rng(seed)
    worst = no_conference_worst(no_conference_rows(rng))
    yield "no-conference-reduction", worst <= 1e-12, f"worst |diff|={worst:.3e}"
    worst, range_ok = mmse_oracle(mmse_draws(rng))
    yield ("mmse-oracle", worst <= 1e-10 and range_ok,
           f"worst |diff|={worst:.3e} range_ok={range_ok}")
    est, (d1, d2) = genie_distortion(samples, seed)
    yield ("genie-distortion",
           abs(est.d1_hat - d1) <= 3 * est.d1_se and abs(est.d2_hat - d2) <= 3 * est.d2_se,
           f"d1 {est.d1_hat:.6f}~{d1:.6f} (se {est.d1_se:.2e}), "
           f"d2 {est.d2_hat:.6f}~{d2:.6f} (se {est.d2_se:.2e})")
    errors = maxcorr_errors((0.0, 0.3, 0.5, 0.8, 0.95), (0.0, 0.25, 0.5, 0.75, 1.0),
                            max(samples // 5, 10_000), seed + 7)
    yield ("maxcorr-moments", all(a <= 3 * max(a_se, 1e-12) and b <= 3 * max(b_se, 1e-12)
                                  for a, a_se, b, b_se in errors), "5x5 (rho, beta) grid, 3 se")

    # angle constants of the description vectors (finite-block expectation)
    dim = 64
    est = montecarlo.surrogate_angle_moments(GENIE_SRC, GENIE_CFG, dim=dim, seed=seed + 13,
                                             draws=min(100_000, max(samples // 10, 10_000)))
    _, consts = vqscheme.vq_constants(GENIE_SRC, ChannelSpec(1.0, 1.0, 1.0), GENIE_CFG)
    t_u1u2 = montecarlo.expected_cosine(consts.tilde_rho, dim)
    t_vu2 = montecarlo.expected_cosine(consts.bar_rho, dim)
    yield ("angle-constants",
           abs(est.cos_u1_u2 - t_u1u2) <= 3 * est.se_u1_u2 + 2 * consts.tilde_rho / dim**2
           and abs(est.cos_v_u2 - t_vu2) <= 3 * est.se_v_u2 + 2 * consts.bar_rho / dim**2
           and abs(est.cos_v_u1) <= 3 * est.se_v_u1,
           f"cos(u1,u2)={est.cos_u1_u2:.5f}~{t_u1u2:.5f} cos(v,u2)={est.cos_v_u2:.5f}~{t_vu2:.5f}")
    bad, small, series = sphere_geometry(range(4, 201, 7), np.linspace(0.1, 1.4, 14),
                                         (math.pi / 3,))
    yield ("sphere-geometry", bad == 0 and small <= 1e-12 and abs(series) <= 1e-12,
           "cap sandwich + exact n=2,3 + gamma series")
    frac, se = montecarlo.sphere_cap_fraction_mc(8, 0.9, max(samples // 10, 10_000), seed + 21)
    exact = montecarlo.cap_ratio_exact(8, 0.9)
    yield ("sphere-sampling", abs(frac - exact) <= 3 * se,
           f"frac={frac:.5f}~{exact:.5f} (se {se:.2e})")

    # the block sampler draws past its last row, so this must be the last check to read ``rng``
    bad = len(necessary_violations(
        (SourceSpec(1.0, rho), ChannelSpec(p1, p2, n0), vqscheme.VqConfig(*cfg))
        for rho, p1, p2, n0, *cfg in _feasible_scheme_rows(rng, 1000).tolist()))
    yield "necessary-implied", bad == 0, f"violations={bad}/1000"
    cs = (0.5, 1.0, 2.0)
    worst, _, bad = comparison_threshold(cs, cs, (0.25, 0.5, 1.0), (0.3, 0.6, 0.9), 1.0)
    yield ("comparison-threshold", worst <= 1e-12 and bad == 0,
           "threshold=1 at alpha=2^-2C; ordering below it")
