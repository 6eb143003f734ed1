import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, DomainError, SourceSpec
from confmac import search, vqscheme
from confmac.search import (
    CurveKind,
    Scheme,
    UnboundedError,
    min_conf_capacity,
    min_d1_unlimited,
    min_power_symmetric,
    trace_curve,
)

SRC = SourceSpec(1.0, 0.5)
TARGET = DistortionPair(0.2, 0.2)


def test_full_cooperation_closed_form():
    res = min_power_symmetric(SRC, Scheme.FULL_COOP, TARGET)
    assert res.objective == pytest.approx(4.4375, abs=1e-12)  # (18.75 - 1)/4
    assert res.converged and res.iterations == 0


def test_trivial_target_costs_nothing():
    trivial = DistortionPair(1.0, 1.0)
    for scheme in Scheme:
        res = min_power_symmetric(SRC, scheme, trivial)
        assert res.objective == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match="tol"):
        min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        min_conf_capacity(SRC, ChannelSpec(11.5, 11.5, 1.0), Scheme.SEP1, TARGET, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2, "tol": tol}, [0.5])


def test_default_ceiling_follows_full_cooperation():
    """A target whose least power is above 1e6 n0 is solved, not reported
    unbounded: the default ceiling scales with the full-cooperation power."""
    target = DistortionPair(2.5e-4, 5e-4)
    p_full = min_power_symmetric(SRC, Scheme.FULL_COOP, target).objective
    assert p_full > 1e6
    for scheme in (Scheme.NECESSARY, Scheme.SEP1, Scheme.VQ):
        p = min_power_symmetric(SRC, scheme, target).objective
        assert math.isfinite(p) and p >= p_full
    # a target that no finite power meets with full cooperation is unbounded at once
    with pytest.raises(UnboundedError):
        min_power_symmetric(SRC, Scheme.VQ, DistortionPair(1e-310, 0.5))


def test_rc_budget_meets_the_conference_requirement():
    # the requirement is strictly increasing in rc, so meeting c12 exactly
    # makes the budget the largest admissible shared rate
    r1 = np.linspace(0.0, 8.0, 161)
    worst = 0.0
    for rho in np.linspace(0.0, 1.0, 21):
        free = rho**2 * 4.0**-r1 < 1.0
        for c12 in np.linspace(0.0, 7.0, 15):
            rc = search._rc_budget(float(rho), r1[free], float(c12))
            req, _ = vqscheme._conf_requirement_arrays(float(rho), r1[free], rc)
            worst = max(worst, float(np.max(np.abs(req - c12))))
    assert worst <= 1e-12
    # rho = 1, r1 = 0: every shared rate needs no conference bits; the budget
    # is the finite ceiling, above the budget of any r1 > 0
    for c12 in (0.0, 1.0):
        corner = search._rc_budget(1.0, np.array([0.0, 1e-6, 1.0]), c12)
        assert np.all(np.isfinite(corner)) and corner[0] > corner[1] >= corner[2] >= c12


def test_bisection_invariants_and_witness():
    res = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-6)
    lo, hi = res.bracket
    assert res.converged and hi - lo <= 1e-6 * hi + 1e-15
    assert res.objective == hi
    cfg = vqscheme.VqConfig(res.witness["r1"], res.witness["r2"], res.witness["rc"],
                            res.witness["beta1"], res.witness["beta2"])
    ch = ChannelSpec(hi, hi, 1.0, UNLIMITED)
    report = vqscheme.vq_rate_region(SRC, ch, cfg, margin=-1e-9)
    assert report.feasible
    ach = vqscheme.vq_distortion(SRC, cfg)
    assert ach.d1 <= TARGET.d1 * (1 + 1e-8) and ach.d2 <= TARGET.d2 * (1 + 1e-8)


def test_converged_reports_the_step_cap():
    # at tol 0 the bracket of a stateless predicate shrinks to adjacent
    # floats and never to zero width, so only the 200-step cap stops it
    lo, hi, steps, converged = search._bisect(lambda p: p >= 1.0 / 3.0, 0.0, 1.0, 0.0, 0.0)
    assert steps == 200 and not converged and lo < 1.0 / 3.0 <= hi
    lo, hi, steps, converged = search._bisect(lambda p: p >= 1.0 / 3.0, 0.0, 1.0, 1e-9, 0.0)
    assert steps < 200 and converged and hi - lo <= 1e-9 * hi
    capped = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=0.0)
    assert capped.iterations == 200 and not capped.converged
    met = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=1e-9)
    assert met.iterations < 200 and met.converged


def test_determinism():
    a = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=1e-7)
    b = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=1e-7)
    assert a == b


def test_bracket_sides_revalidate_for_stateless_predicates():
    from confmac import bounds, separation

    res = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=1e-7)
    lo, hi = res.bracket
    assert not bounds.necessary_condition(SRC, ChannelSpec(lo, lo, 1.0), TARGET).feasible
    assert bounds.necessary_condition(SRC, ChannelSpec(hi, hi, 1.0), TARGET).feasible

    res = min_power_symmetric(SRC, Scheme.SEP1, TARGET, c12=UNLIMITED, tol=1e-7)
    lo, hi = res.bracket
    ch = ChannelSpec(lo, lo, 1.0, UNLIMITED)
    assert not separation.sep1_feasible(SRC, ch, TARGET).feasible
    assert separation.sep1_feasible(SRC, ChannelSpec(hi, hi, 1.0, UNLIMITED), TARGET).feasible


def test_scheme_orderings_single_alpha():
    tol = 1e-9
    p_fc = min_power_symmetric(SRC, Scheme.FULL_COOP, TARGET).objective
    p_nec = min_power_symmetric(SRC, Scheme.NECESSARY, TARGET, tol=tol).objective
    p_vq_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=tol).objective
    p_vq_0 = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=0.0, tol=tol).objective
    p_sep2 = min_power_symmetric(SRC, Scheme.SEP2, TARGET, c12=UNLIMITED, tol=tol).objective
    assert p_fc <= p_nec <= p_vq_inf <= p_vq_0
    assert p_vq_inf <= p_sep2


def test_pmin_monotone_in_link_capacity():
    values = []
    for c12 in (0.0, 0.5, 1.0, UNLIMITED):
        values.append(min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=c12,
                                          tol=1e-5).objective)
    assert all(a >= b - 1e-4 for a, b in zip(values, values[1:])), values


def test_pmin_monotone_in_alpha():
    values = []
    for alpha in (0.3, 0.6, 1.0):
        target = DistortionPair(alpha * 0.2, 0.2)
        values.append(min_power_symmetric(SRC, Scheme.VQ, target, c12=UNLIMITED,
                                          tol=1e-7).objective)
    assert values[0] >= values[1] >= values[2]


def test_min_power_unbounded():
    with pytest.raises(UnboundedError):
        min_power_symmetric(SRC, Scheme.VQ, DistortionPair(1e-5, 1e-5),
                            c12=UNLIMITED, p_ceiling=10.0)


def test_min_conf_trivial_and_unbounded():
    res = min_conf_capacity(SRC, ChannelSpec(1, 1, 1), Scheme.VQ, DistortionPair(1, 1))
    assert res.objective == 0.0
    with pytest.raises(UnboundedError):
        min_conf_capacity(SRC, ChannelSpec(0.1, 0.1, 1.0), Scheme.VQ, TARGET)
    with pytest.raises(Exception):
        min_conf_capacity(SRC, ChannelSpec(1, 1, 1), Scheme.SEP2, TARGET)


def test_min_conf_zero_when_power_is_ample():
    ch = ChannelSpec(30.0, 30.0, 1.0)
    assert min_conf_capacity(SRC, ch, Scheme.VQ, TARGET, tol=1e-4).objective == 0.0
    assert min_conf_capacity(SRC, ch, Scheme.SEP1, TARGET, tol=1e-4).objective == 0.0


def test_min_conf_nonincreasing_in_power():
    p_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-9).objective
    values = []
    for scale in (1.04, 1.10):
        ch = ChannelSpec(scale * p_inf, scale * p_inf, 1.0)
        values.append(min_conf_capacity(SRC, ch, Scheme.VQ, TARGET, tol=1e-4).objective)
    assert values[0] >= values[1] - 1e-4


def test_min_conf_loose_second_component():
    """With d2 = 1 near the coherence-limited minimum power, the quantizer link
    cost approaches the side-information rate and separation 1 approaches the
    plain description rate -- the binning discount separates them."""
    from confmac import rdlib

    d1 = 0.1
    target = DistortionPair(d1, 1.0)
    p = 1.002 * (1.0 / d1 - 1.0) / 4.0
    ch = ChannelSpec(p, p, 1.0)
    c_vq = min_conf_capacity(SRC, ch, Scheme.VQ, target, tol=1e-5).objective
    c_sep1 = min_conf_capacity(SRC, ch, Scheme.SEP1, target, tol=1e-5).objective
    wz = rdlib.wz_rate(SRC, d1)
    plain = 0.5 * math.log2(1.0 / d1)
    assert c_vq == pytest.approx(wz, abs=0.02)
    assert c_vq <= wz + 1e-4
    assert c_sep1 == pytest.approx(plain, abs=0.05)
    assert c_vq < c_sep1


def test_min_d1_unlimited_matches_min_power_inverse():
    # just above the minimal power for (0.2, 0.2), the best reachable d1 is near 0.2
    p_inf = min_power_symmetric(SRC, Scheme.VQ, TARGET, c12=UNLIMITED, tol=1e-9).objective
    res = min_d1_unlimited(SRC, ChannelSpec(p_inf * 1.02, p_inf * 1.02, 1.0), 0.2)
    assert res.converged and res.iterations < 200
    assert res.objective <= 0.2 * 1.01
    assert res.objective >= 0.2 * 0.8


def test_trace_single_alpha_consistent_with_direct_call():
    rows = trace_curve(CurveKind.PMIN_VS_ALPHA,
                       {"rho": 0.5, "d2": 0.2, "n0": 1.0, "tol": 1e-7,
                        "schemes": ["fullcoop", "vq-none"]},
                       [0.5])
    assert len(rows) == 1
    row = rows[0]
    direct_fc = min_power_symmetric(SRC, Scheme.FULL_COOP, DistortionPair(0.1, 0.2),
                                    tol=1e-7).objective
    direct_vq = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(0.1, 0.2),
                                    c12=0.0, tol=1e-7).objective
    assert row["pmin_fullcoop"] == direct_fc
    assert row["pmin_vq-none"] == direct_vq
    assert row["errors"] == ""


def test_trace_records_row_errors():
    rows = trace_curve(CurveKind.C12_VS_ALPHA,
                       {"rho": 0.5, "d2": 0.2, "n0": 1.0, "p": 0.5,
                        "schemes": ["vq"], "tol": 1e-4},
                       [0.5])
    assert math.isnan(rows[0]["c12_vq"])
    assert "UnboundedError" in rows[0]["errors"]


def test_trace_rejects_bad_grid():
    with pytest.raises(Exception):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2}, [])
    with pytest.raises(Exception):
        trace_curve(CurveKind.PMIN_VS_ALPHA, {"rho": 0.5, "d2": 0.2}, [0.5, 0.5])


def test_trace_accepts_the_tokens_of_each_curve_kind():
    # tokens a kind cannot trace are refused in test_cli's bad-input table
    params = {"rho": 0.5, "d2": 0.2, "n0": 1.0, "p": 11.5}
    for kind, tokens in ((CurveKind.C12_VS_ALPHA, ["vq", "sep1"]),
                         (CurveKind.D1D2_VS_SNR, ["vq-unlimited"]),
                         (CurveKind.PMIN_VS_ALPHA, list(search.TRACE_SCHEMES))):
        assert search.check_trace_inputs(kind, {**params, "schemes": tokens}, [0.5]) == [0.5]


def test_trace_d1d2_vs_snr_row():
    rows = trace_curve(CurveKind.D1D2_VS_SNR, {"rho": 0.5, "d2": 0.2, "n0": 1.0}, [1e4])
    row = rows[0]
    assert row["ratio"] == pytest.approx(1.0, abs=0.05)
    assert row["errors"] == ""


def _refine_problem(rng):
    """A random floor-aware refine objective ``f(pts, floor=None)`` of one of
    the three full-scheme families, and its dimension."""
    src = SourceSpec(1.0, float(rng.uniform(0.1, 0.97)))
    p = float(rng.uniform(0.5, 30.0))
    n0 = float(rng.choice([1.0, 4.0, 1.0 / 16.0]))
    ch = ChannelSpec(p * n0, p * n0, n0, UNLIMITED)
    target = DistortionPair(*(float(v) for v in rng.uniform(0.02, 0.5, 2)))
    c12 = float(rng.uniform(0.2, 2.0))
    family = int(rng.integers(3))
    if family == 0:
        return (lambda pts, floor=None:
                search._vq_slack_batch(src, ch, target, pts, 8.0, floor)), 5

    budget_ch = ChannelSpec(p * n0, p * n0, n0, c12)

    def budget(pts, floor=None):
        return search._vq_slack_batch(src, budget_ch, target, pts, 8.0, floor)
    if family == 1:
        return budget, 5
    return (lambda pts, floor=None: budget(np.insert(pts, 2, 1.0, axis=1), floor)), 4


def _nan_at_call(f, call, row):
    """``f`` with a NaN rate in ``row`` of its ``call``-th batch (counted from 0)."""
    calls = [0]

    def g(pts, floor=None):
        if calls[0] == call:
            pts = pts.copy()
            pts[row % len(pts), 0] = np.nan
        calls[0] += 1
        return f(pts, floor)
    return g


def test_incumbent_refine_matches_plain_refine():
    """Refine through ``_incumbent`` (floored grids) returns exactly the value
    and point of refine on the unfloored objective, NaN rows included."""
    rng = np.random.default_rng(77)
    gains = nan_cases = 0
    for case in range(200):
        f, dim = _refine_problem(rng)
        center = rng.uniform(0.0, 1.0, dim)
        if case % 4 == 3:  # one NaN row, in one of the first grids
            call, row = int(rng.integers(1, 4)), int(rng.integers(10**6))
            make = lambda: _nan_at_call(f, call, row)
            nan_cases += 1
        else:
            make = lambda: f
        # eight grids per refine keep the test short; each grid is checked alike
        plain_val, plain_pt = search.refine_grid_max(make(), center, rounds=8)
        val, pt = search.refine_grid_max(search._incumbent(make()), center, rounds=8)
        assert (val, pt.tolist()) == (plain_val, plain_pt.tolist()), case
        gains += plain_val > f(center[None, :])[0]
    assert gains >= 50 and nan_cases == 50, (gains, nan_cases)


# (d1, d2, c12, tol, objective, bracket, iterations, witness) of VQ solves at
# rho = 0.5: the four Fig. 3 VQ solves and one finite-link solve.  Recorded
# before the searches skipped work that cannot change an answer; exact
# optimisations must keep every one of them bit for bit.
PINNED_VQ_SOLVES = (
    (0.2 * 0.2, 0.2, UNLIMITED, 1e-9,
     24.00000001490116, (24.0, 24.00000001490116), 35,
     {"r1": 0.0, "r2": 1.11395263671875, "rc": 2.3149255823206016,
      "beta1": 1.0, "beta2": 0.8561474609375,
      "d1": 0.039994806274416234, "d2": 0.19999385055022878}),
    (0.2 * 0.2, 0.2, 0.0, 1e-9,
     32.45075449347496, (32.45075446367264, 32.45075449347496), 36,
     {"r1": 2.31488037109375, "r2": 1.113972981770833, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.03999728479832369, "d2": 0.1999886098071263}),
    (1.0 * 0.2, 0.2, UNLIMITED, 1e-9,
     5.423972420394421, (5.42397241666913, 5.423972420394421), 33,
     {"r1": 0.0, "r2": 1.1246179651331016, "rc": 1.1246337890625,
      "beta1": 1.0, "beta2": 0.3418770782218492,
      "d1": 0.19998440725218833, "d2": 0.19998850685261182}),
    (1.0 * 0.2, 0.2, 0.0, 1e-9,
     6.480761207640171, (6.480761203914881, 6.480761207640171), 33,
     {"r1": 1.1246337890625, "r2": 1.1245772750289351, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.19998459142234046, "d2": 0.19999923322475333}),
    (0.1, 0.2, 1.0, 1e-6,
     10.312507629394531, (10.3125, 10.312507629394531), 24,
     {"r1": 0.5788574218750001, "r2": 1.1186839916087963, "rc": 1.064192830201275,
      "beta1": 0.7306455202686544, "beta2": 0.6588745265151515,
      "d1": 0.09999977958336195, "d2": 0.1998146906235214}),
)


def test_vq_solves_match_pinned_results():
    for d1, d2, c12, tol, objective, bracket, iterations, witness in PINNED_VQ_SOLVES:
        res = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(d1, d2), c12=c12, tol=tol)
        assert (res.objective, res.bracket, res.iterations, res.witness) == (
            objective, bracket, iterations, witness), (d1, c12)
