import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, RatePoint, SourceSpec
from confmac import capacity, rdlib, separation
from confmac.separation import sep1_feasible, sep2_feasible


def test_sep1_trivial_target():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(0.01, 0.01, 1.0, UNLIMITED)
    report = sep1_feasible(src, ch, DistortionPair(1.0, 1.0))
    assert report.feasible


def test_sep1_unit_d2_power_threshold():
    """With the loose second component, feasibility flips at d1 = N/(N + 4P)."""
    src = SourceSpec(1.0, 0.5)
    p = 3.0
    d1_star = 1.0 / (1.0 + 4.0 * p)
    ch = ChannelSpec(p, p, 1.0, UNLIMITED)
    assert sep1_feasible(src, ch, DistortionPair(d1_star * 1.02, 1.0)).feasible
    assert not sep1_feasible(src, ch, DistortionPair(d1_star * 0.97, 1.0)).feasible


def sep1_grid_oracle(src, ch, target, n=120):
    """Dense (r1, r2, beta) brute force over the two regions."""
    gamma = 1.0 + math.sqrt(
        1.0 + 4.0 * src.rho**2 * target.d1 * target.d2 / (1.0 - src.rho**2) ** 2)
    rmax = 0.5 * math.log2(max((1 - src.rho**2) * gamma / (2 * target.d1 * target.d2), 2.0)) + 2.0
    for r1 in np.linspace(0.0, rmax, n):
        for r2 in np.linspace(0.0, rmax, n):
            rp = RatePoint(float(r1), float(r2))
            if not rdlib.wagner_contains(src, target, rp).feasible:
                continue
            for beta in np.linspace(0.0, 1.0, 101):
                report = capacity.mac_conf_unlimited_contains(ch, rp, float(beta))
                if min(report.slacks.values()) >= 0:
                    return True
    return False


def test_sep1_matches_grid_oracle_near_threshold():
    src = SourceSpec(1.0, 0.5)
    target = DistortionPair(0.2, 0.2)
    for p, expected in ((5.3, False), (5.6, True)):
        ch = ChannelSpec(p, p, 1.0, UNLIMITED)
        assert sep1_feasible(src, ch, target).feasible == expected
        assert sep1_grid_oracle(src, ch, target) == expected


def test_sep1_witness_revalidates():
    src = SourceSpec(1.0, 0.5)
    for c12 in (UNLIMITED, 1.5):
        ch = ChannelSpec(8.0, 8.0, 1.0, c12)
        report = sep1_feasible(src, ch, DistortionPair(0.2, 0.2))
        assert report.feasible
        rp = RatePoint(report.witness["r1"], report.witness["r2"])
        source = rdlib.wagner_contains(src, DistortionPair(0.2, 0.2), rp)
        assert min(source.slacks.values()) >= -1e-9
        if c12 is UNLIMITED:
            channel = capacity.mac_conf_unlimited_contains(ch, rp, report.witness["beta"])
        else:
            channel = capacity.mac_conf_fixed_contains(
                ch, rp, capacity.MacPowerSplit(report.witness["beta1"],
                                               report.witness["beta2"]))
        assert min(channel.slacks.values()) >= -1e-9


def test_sep1_no_conference_equals_plain_mac_pipeline():
    rng = np.random.default_rng(0)
    for _ in range(100):
        src = SourceSpec(1.0, float(rng.uniform(0.0, 0.9)))
        ch = ChannelSpec(*(float(v) for v in rng.uniform(0.3, 6.0, 3)), 0.0)
        target = DistortionPair(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        got = sep1_feasible(src, ch, target).feasible

        # oracle: trace the source boundary, check plain MAC membership
        c1 = 0.5 * math.log2(1 + ch.p1 / ch.n0)
        c2 = 0.5 * math.log2(1 + ch.p2 / ch.n0)
        csum = 0.5 * math.log2(1 + (ch.p1 + ch.p2) / ch.n0)
        r1 = np.linspace(0.0, csum + 0.5, 2000)
        r2 = separation._wagner_boundary(src, target, r1)
        ok = np.isfinite(r2) & (r1 <= c1) & (r2 <= c2) & (r1 + r2 <= csum)
        expected = bool(ok.any())
        assert got == expected, (src.rho, ch, target)


def test_sep1_monotone_in_capacity_and_power():
    src = SourceSpec(1.0, 0.5)
    target = DistortionPair(0.1, 0.25)
    feas = []
    for c12 in (0.0, 0.5, 2.0, UNLIMITED):
        feas.append(sep1_feasible(src, ChannelSpec(4.0, 4.0, 1.0, c12), target).feasible)
    assert feas == sorted(feas)  # once feasible, stays feasible as c12 grows

    for p_lo, p_hi in ((2.0, 4.0), (4.0, 8.0)):
        lo = sep1_feasible(src, ChannelSpec(p_lo, p_lo, 1.0, UNLIMITED), target).feasible
        hi = sep1_feasible(src, ChannelSpec(p_hi, p_hi, 1.0, UNLIMITED), target).feasible
        assert hi >= lo


def test_sep2_trivial_target():
    src = SourceSpec(1.0, 0.5)
    report = sep2_feasible(src, ChannelSpec(0.01, 0.01, 1.0, 0.0), DistortionPair(1, 1))
    assert report.feasible


def test_sep2_zero_rho_decouples():
    """Independent components: the pipeline reduces to per-user rate checks."""
    src = SourceSpec(1.0, 0.0)
    ch = ChannelSpec(2.0, 2.0, 1.0, 0.0)
    c1 = 0.5 * math.log2(3.0)
    # comfortably inside: need about 0.5 bits each
    assert sep2_feasible(src, ch, DistortionPair(0.5, 0.5)).feasible
    # sum demand 2*c1 exceeds the MAC sum bound log2(5)/2
    d = 2.0 ** (-2 * c1) * 1.02
    assert not sep2_feasible(src, ch, DistortionPair(d, d)).feasible


def test_sep2_witness_revalidates():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(12.0, 12.0, 1.0, UNLIMITED)
    target = DistortionPair(0.2, 0.2)
    report = sep2_feasible(src, ch, target)
    assert report.feasible
    kp = rdlib.KaspiParams(report.witness["sw2"], report.witness["su2"],
                           report.witness["sv2"])
    point = rdlib.kaspi_region_point(src, kp)
    assert point.achieved.d1 <= target.d1 * (1 + 1e-6)
    assert point.achieved.d2 <= target.d2 * (1 + 1e-6)
    rp = RatePoint(report.witness["r1"], report.witness["r2"])
    assert min(capacity.mac_plain_contains(ch, rp).slacks.values()) >= -1e-9
    assert rp.r1 >= point.r1_bound - 1e-9
    assert rp.r2 >= point.r2_bound - 1e-9
    assert rp.r1 + rp.r2 >= point.rsum_bound - 1e-9


def test_sep2_respects_conference_bound():
    src = SourceSpec(1.0, 0.9)
    target = DistortionPair(0.05, 0.6)
    generous = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, UNLIMITED), target)
    assert generous.feasible
    choked = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, 0.0), target)
    loose = sep2_feasible(src, ChannelSpec(30.0, 30.0, 1.0, 10.0), target)
    assert loose.feasible
    assert choked.feasible <= loose.feasible


def test_sep2_monotone_in_distortion():
    src = SourceSpec(1.0, 0.5)
    ch = ChannelSpec(6.0, 6.0, 1.0, UNLIMITED)
    tight = sep2_feasible(src, ch, DistortionPair(0.15, 0.15)).feasible
    loose = sep2_feasible(src, ch, DistortionPair(0.3, 0.3)).feasible
    assert loose >= tight
