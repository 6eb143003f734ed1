"""Acceptance suite: ten criteria, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import math
import time

import numpy as np

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, SourceSpec
from confmac import bounds, search, validation, vqscheme
from confmac.search import Scheme


def _report(name: str, started: float, budget_s: float, detail: str = ""):
    elapsed = time.time() - started
    assert elapsed < budget_s, f"{name} exceeded runtime budget: {elapsed:.1f}s"
    print(f"PASS {name} [{elapsed:.1f}s] {detail}")


def test_criterion_01_side_information_identity():
    """Conference requirement at r1 = 0 equals the side-information rate."""
    started = time.time()
    worst = validation.wz_identity_worst()
    assert worst <= 1e-12
    _report("criterion-01 side-information identity", started, 1.0,
            f"200 grid points, worst |diff| = {worst:.2e}")


def test_criterion_02_no_conference_reduction():
    """With rc = 0 and no power split, the region collapses to the
    no-conference reference formulas."""
    started = time.time()
    worst = validation.no_conference_worst(
        validation.no_conference_rows(np.random.default_rng(2024)))
    assert worst <= 1e-12
    _report("criterion-02 no-conference reduction", started, 1.0,
            f"1000 draws, worst |diff| = {worst:.2e}")


def test_criterion_03_mmse_oracle_equivalence():
    """Closed-form estimator gains match the normal-equation solve and obey
    their range bounds."""
    started = time.time()
    # rows (rho, sigma2, r1, r2, rc), drawn in that order
    rows = validation._uniform_rows(np.random.default_rng(3), (0.02, 0.5, 0.05, 0.05, 0.05),
                                    (0.98, 2.0, 5.0, 5.0, 5.0), 1000)
    draws = [(SourceSpec(sigma2, rho), vqscheme.VqConfig(r1, r2, rc, 0.0, 0.0))
             for rho, sigma2, r1, r2, rc in rows.tolist()]
    worst, range_ok = validation.mmse_oracle(draws)
    assert range_ok
    assert worst <= 1e-10
    _report("criterion-03 mmse oracle equivalence", started, 1.0,
            f"1000 draws, worst |diff| = {worst:.2e}")


def test_criterion_04_genie_distortion():
    """Sampled genie-aided distortion matches the closed form within 3 se."""
    started = time.time()
    est, (d1, d2) = validation.genie_distortion(1_000_000, 42)
    assert abs(est.d1_hat - d1) <= 3 * est.d1_se
    assert abs(est.d2_hat - d2) <= 3 * est.d2_se
    assert est.d1_se < 5e-4 and est.d2_se < 8e-4
    _report("criterion-04 genie distortion", started, 10.0,
            f"d1 {est.d1_hat:.6f} vs {d1:.6f} (se {est.d1_se:.1e}); "
            f"d2 {est.d2_hat:.6f} vs {d2:.6f} (se {est.d2_se:.1e})")


def test_criterion_05_maximum_correlation_construction():
    """Sampled correlation and residual variance of the optimal linear maps."""
    started = time.time()
    errors = validation.maxcorr_errors((0.0, 0.25, 0.5, 0.75, 0.95),
                                       (0.0, 0.25, 0.5, 0.75, 1.0), 1_000_000, 1234)
    for corr, corr_se, cond, cond_se in errors:
        assert corr <= 3 * corr_se + 1e-12
        assert cond <= 3 * cond_se + 1e-12
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
    cases = []
    while len(cases) < 1000:
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
        if cfg is not None:
            cases.append((src, ch, cfg))
    violations = validation.necessary_violations(cases)
    assert not violations, violations[:3]
    _report("criterion-08 necessary implied by achievable", started, 10.0,
            "1000 feasible configurations, no violations")


def test_criterion_09_scheme_comparison_threshold():
    """Threshold value and the correlation ordering below it."""
    started = time.time()
    worst, checked, violations = validation.comparison_threshold(
        (0.25, 0.5, 1.0, 2.0, 3.0), (0.5, 1.0, 2.0), (0.25, 0.5, 0.75, 1.0),
        (0.25, 0.5, 0.75, 0.9), 0.98)
    assert worst == 0.0
    assert violations == 0
    assert checked >= 40
    _report("criterion-09 scheme-comparison threshold", started, 1.0,
            f"exact unit threshold; ordering verified at {checked} grid points")


def test_criterion_10_sphere_geometry():
    """Polar-cap sandwich, small-dimension closed forms, gamma-ratio series."""
    started = time.time()
    bad, small, err = validation.sphere_geometry(
        range(4, 201), np.linspace(0.05, 1.4, 14), np.linspace(0.05, math.pi / 2, 30))
    assert bad == 0
    assert small <= 1e-12
    assert abs(err) <= 1e-12
    _report("criterion-10 sphere geometry", started, 1.0,
            f"sandwich on n in 4..200; series/exact - 1 = {err:.2e}")
