import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DomainError, SourceSpec
from confmac import validation, vqscheme
from confmac.vqscheme import (
    VqConfig,
    vq_conf_requirement,
    vq_constants,
    vq_distortion,
    vq_rate_region,
    vq_unlimited_region,
)


def random_problem(rng):
    src = SourceSpec(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.0, 0.99)))
    ch = ChannelSpec(*(float(v) for v in rng.uniform(0.2, 5.0, 3)))
    cfg = VqConfig(*(float(v) for v in rng.uniform(0.02, 5.0, 3)),
                   float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    return src, ch, cfg


def test_power_identities_hold():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        src, ch, cfg = random_problem(rng)
        gains, consts = vq_constants(src, ch, cfg)
        f1 = 1.0 - 4.0**-cfg.r1
        f2 = 1.0 - 4.0**-cfg.r2
        pw1 = gains.a11**2 * src.sigma2 * f1 + gains.a12**2 * gains.sigma_v2
        pw2 = (gains.a21**2 * src.sigma2 * f2
               + 2 * gains.a21 * gains.a22 * consts.bar_rho
               * math.sqrt(src.sigma2 * f2 * gains.sigma_v2)
               + gains.a22**2 * gains.sigma_v2)
        assert pw1 == pytest.approx(ch.p1, rel=1e-9)
        assert pw2 == pytest.approx(ch.p2, rel=1e-9)
        assert gains.alpha == gains.a12 + gains.a22


def test_constants_examples():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(1.0, 1.0, 1.0)
    _, consts = vq_constants(src, ch, VqConfig(1.0, 1.0, 0.7, 0.2, 0.3))
    assert consts.tilde_rho == pytest.approx(0.5 * math.sqrt(0.75 * 0.75), abs=1e-15)

    _, consts = vq_constants(src, ch, VqConfig(0.0, 2.0, 0.7, 0.2, 0.3))
    assert consts.tilde_rho == 0.0  # no first-stage description

    # absent shared description: eta, bar_rho vanish and lambda12 is fully private
    gains, consts = vq_constants(src, ch, VqConfig(1.0, 1.0, 0.0, 0.0, 0.0))
    assert gains.sigma_v2 == 0.0
    assert gains.a12 == 0.0
    assert consts.eta == 0.0
    assert consts.bar_rho == 0.0
    expected = 1.0 + 2.0 * consts.tilde_rho + 1.0
    assert consts.lambda12 == pytest.approx(expected, abs=1e-15)


def test_constant_ranges():
    rng = np.random.default_rng(1)
    for _ in range(500):
        src, ch, cfg = random_problem(rng)
        _, consts = vq_constants(src, ch, cfg)
        assert 0.0 <= consts.tilde_rho <= src.rho + 1e-15
        assert 0.0 <= consts.bar_rho <= src.rho + 1e-15
        bb1, bb2 = 1 - cfg.beta1, 1 - cfg.beta2
        assert consts.lambda12 >= bb1 * ch.p1 + bb2 * ch.p2 - 1e-12
        assert consts.eta >= 0.0


def _bounds_reference(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2):
    """Independent transcription of the seven rate bounds (scalar math only).

    Deliberately a second route: the shared gain of Encoder 2 comes from
    solving its power identity as a quadratic instead of the closed form.
    """
    s = sigma2
    f1 = 1.0 - 2.0 ** (-2 * r1)
    f2 = 1.0 - 2.0 ** (-2 * r2)
    fc = 1.0 - 2.0 ** (-2 * rc)
    sv2 = s * 2.0 ** (-2 * r1) * fc
    bb1, bb2 = 1.0 - b1, 1.0 - b2
    trho = rho * math.sqrt(f1 * f2)
    brho = rho * math.sqrt(2.0 ** (-2 * r1) * f2 * fc)
    a21 = math.sqrt(bb2 * p2 / (s * f2))
    # a22 from a21^2 s f2 + 2 a21 a22 brho sqrt(s f2 sv2) + a22^2 sv2 = p2
    qb = 2.0 * a21 * brho * math.sqrt(s * f2 * sv2)
    a22 = (-qb + math.sqrt(qb**2 + 4.0 * sv2 * (p2 - bb2 * p2))) / (2.0 * sv2)
    eta = math.sqrt(b1 * p1) + a22 * math.sqrt(sv2)
    ares = 1.0 - trho**2 - brho**2
    lam2 = n0**2 * brho**2 * trho**2 * (2 + trho**2) / (b2 * p2 * ares + n0)
    lamc = (n0**2 * brho**2 * (brho**2 * bb1 * p1 - trho**2 * sv2)
            / (sv2 * (eta**2 * ares + n0 * (1 - trho**2))))
    lam12 = bb1 * p1 + 2 * trho * math.sqrt(bb1 * bb2 * p1 * p2) + bb2 * p2
    lam1c = (bb1 * p1 * (1 - trho**2) + eta**2 * (1 - brho**2)
             - 2 * eta * brho**2 * math.sqrt(bb1 * p1 * s * f1) / math.sqrt(sv2))
    lam2c = bb2 * p2 + 2 * eta * brho * math.sqrt(bb2 * p2) + eta**2

    def h(num, den):
        # nonpositive denominator: the exponentiated bound holds for any rate
        return 0.5 * math.log2(num / den) if den > 0 else math.inf

    return {
        "r1": h(bb1 * p1 * ares + n0 * (1 - brho**2), n0 * ares),
        "r2": h(bb2 * p2 * ares + n0, n0 * ares + lam2),
        "rc": h(eta**2 * ares + n0 * (1 - trho**2), n0 * ares + lamc),
        "r1+r2": h(lam12 - bb2 * p2 * brho**2 + n0,
                   (1 - bb2 * p2 * brho**2 / lam12) * n0 * (1 - trho**2)),
        "r1+rc": h((lam1c + n0) * (bb1 * p1 + eta**2), lam1c * n0),
        "r2+rc": h(lam2c - bb2 * p2 * trho**2 + n0,
                   (1 - bb2 * p2 * trho**2 / lam2c) * n0 * (1 - brho**2)),
        "r1+r2+rc": h(lam12 + 2 * eta * brho * math.sqrt(bb2 * p2) + eta**2 + n0,
                      n0 * (1 - trho**2) * (1 - brho**2)),
    }


def test_rate_bounds_against_independent_transcription():
    rng = np.random.default_rng(7)
    for _ in range(500):
        sigma2 = float(rng.uniform(0.3, 3.0))
        rho = float(rng.uniform(0.02, 0.97))
        p1, p2, n0 = (float(v) for v in rng.uniform(0.25, 5.0, 3))
        r1, r2, rc = (float(v) for v in rng.uniform(0.05, 4.0, 3))
        b1, b2 = (float(v) for v in rng.uniform(0.02, 0.98, 2))
        src = SourceSpec(sigma2, rho)
        ch = ChannelSpec(p1, p2, n0, UNLIMITED)
        cfg = VqConfig(r1, r2, rc, b1, b2)
        report = vq_rate_region(src, ch, cfg)
        ref = _bounds_reference(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2)
        rates = {"r1": r1, "r2": r2, "rc": rc, "r1+r2": r1 + r2,
                 "r1+rc": r1 + rc, "r2+rc": r2 + rc, "r1+r2+rc": r1 + r2 + rc}
        for name, bound in ref.items():
            got = report.slacks[name] + rates[name]
            if math.isinf(bound):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(bound, abs=1e-9)


def test_no_conference_reduction_matches_reference_region():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        rho = float(rng.uniform(0.0, 0.98))
        p1, p2, n0 = (float(v) for v in rng.uniform(0.25, 4.0, 3))
        r1, r2 = (float(v) for v in rng.uniform(0.0, 5.0, 2))
        src = SourceSpec(1.0, rho)
        ch = ChannelSpec(p1, p2, n0, 0.0)
        report = vq_rate_region(src, ch, VqConfig(r1, r2, 0.0, 0.0, 0.0))
        tr2 = rho**2 * (1 - 4.0**-r1) * (1 - 4.0**-r2)
        ref = {
            "r1": 0.5 * math.log2((p1 * (1 - tr2) + n0) / (n0 * (1 - tr2))),
            "r2": 0.5 * math.log2((p2 * (1 - tr2) + n0) / (n0 * (1 - tr2))),
            "r1+r2": 0.5 * math.log2(
                (p1 + p2 + 2 * math.sqrt(tr2 * p1 * p2) + n0) / (n0 * (1 - tr2))),
        }
        rates = {"r1": r1, "r2": r2, "r1+r2": r1 + r2}
        for name, bound in ref.items():
            assert report.slacks[name] + rates[name] == pytest.approx(bound, abs=1e-12)
        # constraints involving the shared rate collapse to rc <= 0
        assert report.slacks["rc"] == pytest.approx(0.0, abs=1e-12)
        assert report.slacks["c12"] == pytest.approx(0.0, abs=1e-12)


def test_zero_rates_always_feasible():
    src = SourceSpec(1.0, 0.7)
    for c12 in (0.0, 0.25, UNLIMITED):
        ch = ChannelSpec(1.0, 1.0, 1.0, c12)
        report = vq_rate_region(src, ch, VqConfig(0, 0, 0, 0, 0))
        assert report.feasible


def test_margin_semantics():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(1.0, 1.0, 1.0, 0.0)
    cfg = VqConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    assert vq_rate_region(src, ch, cfg, margin=0.0).feasible
    assert not vq_rate_region(src, ch, cfg, margin=1e-9).feasible  # rc slack is exactly 0


def test_distortion_values():
    src = SourceSpec(1.0, 0.5)
    pair = vq_distortion(src, VqConfig(0, 0, 0, 0, 0))
    assert pair.d1 == pair.d2 == 1.0

    src0 = SourceSpec(1.0, 0.0)
    pair = vq_distortion(src0, VqConfig(0.7, 1.3, 0.4, 0, 0))
    assert pair.d1 == pytest.approx(4.0 ** -(0.7 + 0.4), abs=1e-15)
    assert pair.d2 == pytest.approx(4.0**-1.3, abs=1e-15)

    pair = vq_distortion(src, VqConfig(1.0, 1.0, 0.5, 0, 0))
    assert pair.d1 == pytest.approx(0.125 * 0.8125 / (1 - 0.1875 * 0.875), abs=1e-12)
    assert pair.d1 == pytest.approx(0.12149532710280374, abs=1e-12)


def test_distortion_monotone_and_sum_grouped():
    src = SourceSpec(1.0, 0.6)
    base = vq_distortion(src, VqConfig(1.0, 1.0, 0.5, 0, 0))
    for bump in ("r1", "r2", "rc"):
        kwargs = {"r1": 1.0, "r2": 1.0, "rc": 0.5}
        kwargs[bump] += 0.25
        bumped = vq_distortion(src, VqConfig(kwargs["r1"], kwargs["r2"], kwargs["rc"], 0, 0))
        assert bumped.d1 < base.d1 or bump == "r2"
        assert bumped.d2 < base.d2 or bump != "r2"
        assert bumped.d1 <= base.d1 and bumped.d2 <= base.d2
    # d1 depends on the first-encoder rates only through their sum
    for delta in (0.1, 0.3, 0.5):
        a = vq_distortion(src, VqConfig(1.0, 1.0, 0.5, 0, 0))
        b = vq_distortion(src, VqConfig(1.0 + delta, 1.0, 0.5 - delta, 0, 0))
        assert a.d1 == pytest.approx(b.d1, rel=1e-12)
        assert a.d2 == pytest.approx(b.d2, rel=1e-12)


def test_conf_requirement():
    src = SourceSpec(1.0, 0.5)
    req, binning = vq_conf_requirement(src, VqConfig(1.0, 1.0, 0.0, 0, 0))
    assert req == 0.0 and binning == 0.0

    src0 = SourceSpec(1.0, 0.0)
    req, binning = vq_conf_requirement(src0, VqConfig(1.0, 1.0, 1.5, 0, 0))
    assert req == pytest.approx(1.5, abs=1e-15)
    assert binning == 0.0

    req, binning = vq_conf_requirement(src, VqConfig(0.0, 0.0, 1.0, 0, 0))
    assert req == pytest.approx(1.0 + 0.5 * math.log2(0.8125), abs=1e-12)
    assert req == pytest.approx(0.8502198590705461, abs=1e-12)
    assert binning == pytest.approx(-0.5 * math.log2(0.8125), abs=1e-12)


def test_conf_requirement_never_exceeds_rc():
    rng = np.random.default_rng(3)
    for _ in range(500):
        rho = float(rng.uniform(0.0, 0.99))
        r1, rc = (float(v) for v in rng.uniform(0.0, 5.0, 2))
        req, _ = vq_conf_requirement(SourceSpec(1.0, rho), VqConfig(r1, 0.0, rc, 0, 0))
        assert req <= rc + 1e-12
        if rho > 0.0 and rc > 1e-3:
            assert req < rc


def test_unlimited_slice_equals_full_scheme_at_saturated_split():
    """The unlimited-conference region is the r1 = 0, beta1 = 1 slice, exactly."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        src = SourceSpec(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.0, 0.98)))
        ch = ChannelSpec(*(float(v) for v in rng.uniform(0.25, 4.0, 3)), UNLIMITED)
        r2, rc = (float(v) for v in rng.uniform(0.02, 5.0, 2))
        beta = float(rng.uniform(0, 1))
        report_u, pair_u = vq_unlimited_region(src, ch, r2, rc, beta)
        cfg = VqConfig(0.0, r2, rc, 1.0, beta)
        report_f = vq_rate_region(src, ch, cfg)
        pair_f = vq_distortion(src, cfg)
        assert pair_u.d1 == pytest.approx(pair_f.d1, abs=1e-12)
        assert pair_u.d2 == pytest.approx(pair_f.d2, abs=1e-12)
        assert report_u.slacks["r2"] == pytest.approx(report_f.slacks["r2"], abs=1e-12)
        assert report_u.slacks["rc"] == pytest.approx(report_f.slacks["rc"], abs=1e-12)
        assert report_u.slacks["r2+rc"] == pytest.approx(
            report_f.slacks["r1+r2+rc"], abs=1e-12)
        # the private first stage contributes nothing
        assert report_f.slacks["r1"] == pytest.approx(0.0, abs=1e-12)


def test_unlimited_examples():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(1.0, 1.0, 1.0, UNLIMITED)
    report, pair = vq_unlimited_region(src, ch, 1.0, 0.0, 0.5)
    # no shared rate: no correlation benefit, only the private bound binds
    assert pair.d1 == pytest.approx(1.0 - 0.25 * 0.75, abs=1e-15)
    delta2 = 1.0 + 1.0 + 2.0 * math.sqrt(0.5)
    assert report.slacks["r2+rc"] == pytest.approx(
        0.5 * math.log2(delta2 + 1.0) - 1.0, abs=1e-12)
    assert report.slacks["rc"] > 0.0

    report, pair = vq_unlimited_region(src, ch, 0.0, 0.0, 0.0)
    assert pair.d1 == pair.d2 == 1.0

    # no coherence, no correlation: independent single-user bounds
    src0 = SourceSpec(1.0, 0.0)
    ch2 = ChannelSpec(3.0, 2.0, 1.0, UNLIMITED)
    report, _ = vq_unlimited_region(src0, ch2, 0.0, 0.0, 0.0)
    assert report.slacks["r2"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
    assert report.slacks["rc"] == pytest.approx(0.5 * math.log2(4.0), abs=1e-12)
    assert report.slacks["r2+rc"] == pytest.approx(0.5 * math.log2(6.0), abs=1e-12)

    with pytest.raises(DomainError):
        vq_unlimited_region(src, ch, 1.0, 1.0, 1.5)


def test_large_r1_approaches_unlimited_slice():
    """Pushing the private rate into the shared one converges to the slice values."""
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(2.0, 2.0, 1.0, UNLIMITED)
    r2, rc, beta = 1.2, 0.8, 0.4
    report_u, pair_u = vq_unlimited_region(src, ch, r2, rc, beta)
    cfg = VqConfig(0.0, r2, rc, 1.0, beta)
    pair_f = vq_distortion(src, cfg)
    assert pair_u.d1 == pytest.approx(pair_f.d1, abs=1e-12)
    # a tiny private rate perturbs the slice only slightly
    eps_pair = vq_distortion(src, VqConfig(1e-7, r2, rc - 1e-7, 1.0, beta))
    assert eps_pair.d1 == pytest.approx(pair_u.d1, rel=1e-5)


# --- the readable compositions the least-scale kernel is checked against ---


def unit_batch(rng, m, dim):
    """``m`` points of [0, 1]^dim; about a quarter of each coordinate is 0
    and an eighth is 1."""
    pts = rng.uniform(0.0, 1.0, (m, dim))
    u = rng.uniform(0.0, 1.0, (m, dim))
    pts[u < 0.25] = 0.0
    pts[u > 0.875] = 1.0
    return pts


def reference_rate_min_slack(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2):
    """Minimum of ``_raw_quantities``' seven ``bound - rate`` slacks."""
    with np.errstate(all="ignore"):
        slacks = vqscheme._rate_slacks(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2)
        return np.minimum.reduce(list(slacks.values()))


def reference_min_slack(sigma2, rho, p1, p2, n0, d1, d2, r1, r2, rc, b1, b2):
    """Worst slack of the seven rate bounds and the two distortion targets,
    composed from ``_raw_quantities`` and ``_distortion_arrays``: the oracle
    of :func:`vqscheme._least_scale`."""
    slack = reference_rate_min_slack(sigma2, rho, p1, p2, n0, r1, r2, rc, b1, b2)
    with np.errstate(all="ignore"):
        d1a, d2a = vqscheme._distortion_arrays(rho, r1, r2, rc)
        slack = np.minimum(slack, 0.5 * (math.log2(d1) - np.log2(d1a)))
        return np.minimum(slack, 0.5 * (math.log2(d2) - np.log2(d2a)))


def test_region_slacks_equal_the_row_screen_bit_for_bit():
    """``vq_rate_region``'s seven rate slacks equal ``validate``'s batch
    screen's row for row, to the last bit, over 2000 rows of check 9's box,
    so a row at the edge of a bound gets the same verdict from both."""
    rows = validation._uniform_rows(np.random.default_rng(0), validation._SCHEME_BOX_LO,
                                    validation._SCHEME_BOX_HI, 2000)
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = vqscheme._rate_slacks(1.0, *rows.T)
    for i, (rho, p1, p2, n0, *cfg) in enumerate(rows.tolist()):
        slacks = vq_rate_region(SourceSpec(1.0, rho), ChannelSpec(p1, p2, n0),
                                VqConfig(*cfg)).slacks
        for name, column in batch.items():
            assert slacks[name] == column[i], (i, name, slacks[name], column[i])


def test_row_screen_matches_scalar_region_row_by_row():
    """``validate``'s array screen keeps exactly the rows that scalar
    ``vq_rate_region`` finds feasible, and the array slacks match the scalar
    ones at ``sigma2`` 1 and 2.35 (numpy's array and scalar ``power`` and
    ``sqrt`` may differ in the last bit).  Array ``rho``, ``p1``, ``p2``,
    ``n0`` over check 9's box, with edge rows: rho at 0 and 1, r1 = 0, rc = 0,
    betas at 0 and 1.  The last batch holds, per bound, a row that misses
    that bound alone, so a screen that skips any bound fails."""
    rng = np.random.default_rng(99)
    lo = np.array([0.0, 0.3, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
    hi = np.array([0.95, 8.0, 8.0, 8.0, 2.0, 2.0, 2.0, 1.0, 1.0])

    def draw(m):
        rows = rng.uniform(lo, hi, (m, 9))
        u = rng.uniform(0.0, 1.0, (m, 9))
        rows[u[:, 0] < 0.1, 0] = 0.0
        rows[u[:, 0] > 0.9, 0] = 1.0
        rows[u[:, 4] < 0.25, 4] = 0.0
        rows[u[:, 6] < 0.25, 6] = 0.0
        rows[:, 7:][u[:, 7:] < 0.125] = 0.0
        rows[:, 7:][u[:, 7:] > 0.875] = 1.0
        return rows

    pool = draw(40000)
    with np.errstate(divide="ignore", invalid="ignore"):
        misses = np.array([v < 0.0 for v in vqscheme._rate_slacks(1.0, *pool.T).values()])
    alone = misses & (misses.sum(axis=0) == 1)
    sole = pool[[np.flatnonzero(row)[0] for row in alone]]
    seen = dict.fromkeys(("rho=0", "rho=1", "r1=0", "rc=0", "beta=0", "beta=1", "kept"), 0)
    for rows in (draw(1), draw(340), draw(1500), sole):
        m = len(rows)
        kept = validation._meets_rate_bounds(rows)
        cols = [np.ascontiguousarray(c) for c in rows.T]
        for sigma2 in (1.0, 2.35):
            with np.errstate(divide="ignore", invalid="ignore"):
                got = vqscheme._rate_slacks(sigma2, *cols)
            ref = {name: [] for name in vqscheme.RATE_BOUND_NAMES}
            for i, (rho, p1, p2, n0, *cfg) in enumerate(rows.tolist()):
                report = vq_rate_region(SourceSpec(sigma2, rho), ChannelSpec(p1, p2, n0),
                                        VqConfig(*cfg))
                for name in ref:
                    ref[name].append(report.slacks[name])
                if sigma2 == 1.0:
                    assert kept[i] == report.feasible, (m, i)
            for name in ref:
                np.testing.assert_allclose(got[name], ref[name], rtol=0.0, atol=1e-12,
                                           err_msg=f"{m} {sigma2} {name}")
        seen["rho=0"] += int(np.any(rows[:, 0] == 0.0))
        seen["rho=1"] += int(np.any(rows[:, 0] == 1.0))
        seen["r1=0"] += int(np.any(rows[:, 4] == 0.0))
        seen["rc=0"] += int(np.any(rows[:, 6] == 0.0))
        seen["beta=0"] += int(np.any(rows[:, 7:] == 0.0))
        seen["beta=1"] += int(np.any(rows[:, 7:] == 1.0))
        seen["kept"] += int(np.any(kept))
    assert all(seen.values()), seen
