"""Acceptance suite: ten criteria, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import math
import time

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, SourceSpec
from confmac import bounds, montecarlo, rdlib, search, separation, vqscheme
from confmac.search import Scheme


def _report(name: str, started: float, budget_s: float, detail: str = ""):
    elapsed = time.time() - started
    assert elapsed < budget_s, f"{name} exceeded runtime budget: {elapsed:.1f}s"
    print(f"PASS {name} [{elapsed:.1f}s] {detail}")


def test_criterion_01_side_information_identity():
    """Conference requirement at r1 = 0 equals the side-information rate."""
    started = time.time()
    worst = 0.0
    for rho in np.linspace(0.0, 0.95, 20):
        src = SourceSpec(1.0, float(rho))
        for rc in np.linspace(0.0, 6.0, 10):
            d1 = 2.0 ** (-2.0 * float(rc))
            lhs = rdlib.wz_rate(src, d1)
            req, _ = vqscheme.vq_conf_requirement(
                src, vqscheme.VqConfig(0.0, 0.0, float(rc), 0.0, 0.0))
            worst = max(worst, abs(lhs - req))
    assert worst <= 1e-12
    _report("criterion-01 side-information identity", started, 1.0,
            f"200 grid points, worst |diff| = {worst:.2e}")


def test_criterion_02_no_conference_reduction():
    """With rc = 0 and no power split, the region collapses to the
    no-conference reference formulas."""
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        rho = float(rng.uniform(0.0, 0.98))
        p1, p2, n0 = (float(v) for v in rng.uniform(0.25, 4.0, 3))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 5.0, 2))
        src = SourceSpec(1.0, rho)
        report = vqscheme.vq_rate_region(
            src, ChannelSpec(p1, p2, n0, 0.0), vqscheme.VqConfig(r1, r2, 0, 0, 0))
        tr2 = rho**2 * (1 - 4.0**-r1) * (1 - 4.0**-r2)
        ref = {
            "r1": (r1, 0.5 * math.log2((p1 * (1 - tr2) + n0) / (n0 * (1 - tr2)))),
            "r2": (r2, 0.5 * math.log2((p2 * (1 - tr2) + n0) / (n0 * (1 - tr2)))),
            "r1+r2": (r1 + r2, 0.5 * math.log2(
                (p1 + p2 + 2 * math.sqrt(tr2 * p1 * p2) + n0) / (n0 * (1 - tr2)))),
        }
        for name, (rate, bound) in ref.items():
            worst = max(worst, abs(report.slacks[name] + rate - bound))
    assert worst <= 1e-12
    _report("criterion-02 no-conference reduction", started, 1.0,
            f"1000 draws, worst |diff| = {worst:.2e}")


def test_criterion_03_mmse_oracle_equivalence():
    """Closed-form estimator gains match the normal-equation solve and obey
    their range bounds."""
    started = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        rho = float(rng.uniform(0.02, 0.98))
        src = SourceSpec(float(rng.uniform(0.5, 2.0)), rho)
        cfg = vqscheme.VqConfig(*(float(v) for v in rng.uniform(0.05, 5.0, 3)), 0.0, 0.0)
        g = montecarlo.mmse_gamma(src, cfg)
        o = montecarlo.mmse_gamma_oracle(montecarlo.build_surrogate(src, cfg))
        for name in ("g11", "g12", "g13", "g21", "g22", "g23"):
            worst = max(worst, abs(getattr(g, name) - getattr(o, name)))
        assert 0.0 < g.g11 <= 1.0 and 0.0 < g.g13 <= 1.0 and 0.0 < g.g22 <= 1.0
        assert 0.0 < g.g12 <= rho and 0.0 < g.g21 <= rho and 0.0 < g.g23 <= rho
    assert worst <= 1e-10
    _report("criterion-03 mmse oracle equivalence", started, 1.0,
            f"1000 draws, worst |diff| = {worst:.2e}")


def test_criterion_04_genie_distortion():
    """Sampled genie-aided distortion matches the closed form within 3 se."""
    started = time.time()
    src = SourceSpec(1.0, 0.5)
    cfg = vqscheme.VqConfig(1.0, 1.0, 0.5, 0.0, 0.0)
    est = montecarlo.genie_distortion_mc(src, cfg, 1_000_000, seed=42)
    d1, d2 = vqscheme.vq_distortion(src, cfg).astuple()
    assert abs(est.d1_hat - d1) <= 3 * est.d1_se
    assert abs(est.d2_hat - d2) <= 3 * est.d2_se
    assert est.d1_se < 5e-4 and est.d2_se < 8e-4
    _report("criterion-04 genie distortion", started, 10.0,
            f"d1 {est.d1_hat:.6f} vs {d1:.6f} (se {est.d1_se:.1e}); "
            f"d2 {est.d2_hat:.6f} vs {d2:.6f} (se {est.d2_se:.1e})")


def test_criterion_05_maximum_correlation_construction():
    """Sampled correlation and residual variance of the optimal linear maps."""
    started = time.time()
    for rho in (0.0, 0.25, 0.5, 0.75, 0.95):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            est = bounds.maxcorr_linear_maps(
                SourceSpec(1.0, rho), beta, 1_000_000, seed=1234)
            corr_truth = math.sqrt(rho**2 * (1 - beta) + beta)
            cond_truth = (1 - beta) * (1 - rho**2)
            assert abs(est.corr - corr_truth) <= 3 * est.corr_se + 1e-12
            assert abs(est.cond_var - cond_truth) <= 3 * est.cond_var_se + 1e-12
    _report("criterion-05 maximum-correlation construction", started, 30.0,
            "5x5 (rho, beta) grid at 1e6 samples, 3 se")


def test_criterion_06_figure_orderings():
    """Scheme orderings along d1 = alpha d2, d2 = 0.2, rho = 0.5, N = 1."""
    started = time.time()
    src = SourceSpec(1.0, 0.5)
    d2 = 0.2
    tol = 1e-9
    gap_c = []
    for alpha in np.arange(0.1, 1.0 + 1e-9, 0.1):
        target = DistortionPair(float(alpha) * d2, d2)
        p_fc = search.min_power_symmetric(src, Scheme.FULL_COOP, target).objective
        p_nec = search.min_power_symmetric(src, Scheme.NECESSARY, target, tol=tol).objective
        p_vq_inf = search.min_power_symmetric(
            src, Scheme.VQ, target, c12=UNLIMITED, tol=tol).objective
        p_vq_0 = search.min_power_symmetric(src, Scheme.VQ, target, c12=0.0, tol=tol).objective
        p_sep2 = search.min_power_symmetric(
            src, Scheme.SEP2, target, c12=UNLIMITED, tol=tol).objective
        # (a) full cooperation <= outer bound <= unlimited link <= no link
        assert p_nec - p_fc >= -1e-6, (alpha, p_fc, p_nec)
        assert p_vq_inf - p_nec >= -1e-6, (alpha, p_nec, p_vq_inf)
        assert p_vq_0 - p_vq_inf >= -1e-6, (alpha, p_vq_inf, p_vq_0)
        # (b) the quantizer scheme needs no more power than separation 2
        assert p_sep2 - p_vq_inf >= -1e-6, (alpha, p_vq_inf, p_sep2)

        # (c) conference-capacity comparison at power slightly above both minima
        p_sep1 = search.min_power_symmetric(
            src, Scheme.SEP1, target, c12=UNLIMITED, tol=tol).objective
        p_test = 1.05 * max(p_vq_inf, p_sep1)
        ch = ChannelSpec(p_test, p_test, 1.0)
        c_vq = search.min_conf_capacity(src, ch, Scheme.VQ, target, tol=1e-3).objective
        c_sep1 = search.min_conf_capacity(src, ch, Scheme.SEP1, target, tol=1e-3).objective
        assert c_sep1 - c_vq >= -1e-6, (alpha, c_vq, c_sep1)
        gap_c.append(c_sep1 - c_vq)
    assert max(gap_c) > 0.1  # strictly smaller capacity for at least one alpha
    _report("criterion-06 figure orderings", started, 300.0,
            f"10 alphas; conference-capacity gap up to {max(gap_c):.3f} bits")


def test_criterion_07_high_snr_convergence():
    """Optimized unlimited-link distortion product approaches the prediction."""
    started = time.time()
    src = SourceSpec(1.0, 0.5)
    d2 = 0.2
    details = []
    for p_over_n, tol in ((1e4, 0.05), (1e5, 0.02), (1e6, 0.01)):
        res = search.min_d1_unlimited(src, ChannelSpec(p_over_n, p_over_n, 1.0), d2)
        product = res.objective * d2
        predicted = bounds.semi_symmetric_product(0.5, p_over_n, 1.0, d2)
        ratio = product / predicted
        assert abs(ratio - 1.0) <= tol, (p_over_n, ratio)
        details.append(f"{p_over_n:.0e}:{ratio:.5f}")
    _report("criterion-07 high-SNR convergence", started, 120.0,
            "product/prediction " + " ".join(details))


def test_criterion_08_necessary_implied_by_achievable():
    """Every feasible scheme configuration passes the outer bound."""
    started = time.time()
    rng = np.random.default_rng(8)
    tested = 0
    while tested < 1000:
        rho = float(rng.uniform(0.0, 0.95))
        src = SourceSpec(1.0, rho)
        ch = ChannelSpec(*(float(v) for v in rng.uniform(0.3, 8.0, 3)),
                         float(rng.uniform(0.0, 4.0)))
        raw = rng.uniform(0.0, 2.5, 3)
        b1, b2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        cfg = None
        for t in np.linspace(1.0, 0.0, 11):  # shrink rates toward feasibility
            cand = vqscheme.VqConfig(*(float(v) * float(t) for v in raw), b1, b2)
            if vqscheme.vq_rate_region(src, ch, cand).feasible:
                cfg = cand
                break
        if cfg is None:
            continue
        tested += 1
        achieved = vqscheme.vq_distortion(src, cfg)
        assert bounds.necessary_condition(src, ch, achieved).feasible, (src, ch, cfg)
    _report("criterion-08 necessary implied by achievable", started, 10.0,
            "1000 feasible configurations, no violations")


def test_criterion_09_scheme_comparison_threshold():
    """Threshold value and the correlation ordering below it."""
    started = time.time()
    for c in (0.25, 0.5, 1.0, 2.0, 3.0):
        att = 2.0 ** (-2.0 * c)
        assert bounds.compare_threshold(c, att) == 1.0
    d2 = 0.2
    checked = 0
    for c in (0.5, 1.0, 2.0):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            threshold = bounds.compare_threshold(c, alpha)
            for frac in (0.25, 0.5, 0.75, 0.9):
                rho = frac * threshold
                if not 0.0 < rho < 0.98:
                    continue
                src = SourceSpec(1.0, rho)
                p = 1000.0 / min(alpha * d2, d2)  # regime proxy ~1e-3
                q = bounds.high_snr_quantities(
                    src, ChannelSpec(p, p, 1.0, c), DistortionPair(alpha * d2, d2))
                assert q.varrho_vq_lower > q.varrho_sep1_fixed, (c, alpha, rho)
                checked += 1
    assert checked >= 40
    _report("criterion-09 scheme-comparison threshold", started, 1.0,
            f"exact unit threshold; ordering verified at {checked} grid points")


def test_criterion_10_sphere_geometry():
    """Polar-cap sandwich, small-dimension closed forms, gamma-ratio series."""
    started = time.time()
    for n in range(4, 201):
        for phi in np.linspace(0.05, 1.4, 14):
            lower, upper = montecarlo.cap_ratio_bounds(n, float(phi))
            exact = montecarlo.cap_ratio_exact(n, float(phi))
            assert exact <= upper * (1 + 1e-12)
            if lower > 0.0:
                assert lower <= exact * (1 + 1e-12)
    for phi in np.linspace(0.05, math.pi / 2, 30):
        assert abs(montecarlo.cap_ratio_exact(2, float(phi)) - phi / math.pi) <= 1e-12
        assert abs(montecarlo.cap_ratio_exact(3, float(phi))
                   - (1 - math.cos(phi)) / 2) <= 1e-12
    series = montecarlo.gamma_ratio_series(1e4, terms=3)
    exact = montecarlo.gamma_ratio_exact(1e4)
    assert abs(series / exact - 1.0) <= 1e-12
    _report("criterion-10 sphere geometry", started, 1.0,
            f"sandwich on n in 4..200; series/exact - 1 = {series / exact - 1:.2e}")
