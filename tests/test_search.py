import math

import numpy as np
import pytest

from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, DomainError, SourceSpec
from confmac import _opt, search, vqscheme
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


# (p1, p2, n0) of the slice-bound checks
SLICE_CHANNELS = ((1.0, 1.0, 1.0), (12.0, 3.0, 0.5), (0.01, 100.0, 2.0), (5.0, 5.0, 1.0 / 16.0),
                  (1e4, 1e4, 1.0))
# the unlimited slice's box at a finite link has a taller shared-rate side
SLICES = ((search._noconf_slice, 0.0, (8.0, 8.0)),
          (search._unlimited_slice, UNLIMITED, (8.0, 8.0, 1.0)),
          (search._unlimited_slice, UNLIMITED, (8.0, 40.0, 1.0)))


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.97, 1.0])
def test_slice_bounds_hold_over_their_boxes(rho):
    """No point of a random box, corners included, has a slack above the
    box's bound by more than the rounding margin."""
    rng = np.random.default_rng(int(100 * rho))
    src = SourceSpec(1.0, rho)
    for p1, p2, n0 in SLICE_CHANNELS:
        for make, c12, hi in SLICES:
            target = DistortionPair(*(float(v) for v in rng.uniform(0.01, 1.0, 2)))
            exact, bound = make(src, ChannelSpec(p1, p2, n0, c12), target)
            hi = np.array(hi)
            m, d = 2000, hi.size
            lo = rng.uniform(0.0, 1.0, (m, d)) * hi
            up = np.minimum(lo + hi * 2.0 ** rng.uniform(-30.0, 0.0, (m, d)), hi)
            ceiling = bound(lo, up) + _opt._BOUND_MARGIN
            for k in range(8):
                u = rng.uniform(0.0, 1.0, (m, d))
                if k < 2:
                    u = np.round(u)
                pts = lo + u * (up - lo)
                assert np.all(exact(pts) <= ceiling), (rho, p1, p2, n0, target, d)


def _noconf_reference(src, ch, target):
    """No-conference slack at (r1, r2) points from the readable rate bounds."""
    def slack(pts):
        r1, r2 = pts[:, 0], pts[:, 1]
        zero = np.zeros_like(r1)
        _, _, bnd = vqscheme._raw_quantities(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
                                             r1, r2, zero, zero, zero)
        rates = {"r1": r1, "r2": r2, "rc": zero, "r1+r2": r1 + r2, "r1+rc": r1,
                 "r2+rc": r2, "r1+r2+rc": r1 + r2}
        d1a, d2a = vqscheme._distortion_arrays(src.rho, r1, r2, zero)
        return np.min([bnd[k] - rates[k] for k in rates]
                      + [0.5 * np.log2(target.d1 / d1a), 0.5 * np.log2(target.d2 / d2a)], axis=0)
    return slack


def _unlimited_reference(src, ch, target):
    """Unlimited-conference slack at (r2, rc) points, at its best ``beta``
    from the readable region.  The ``r2`` term falls with ``beta`` and the
    ``rc`` and ``r2+rc`` terms rise with it, so their minimum peaks where
    they cross; bisection finds the crossing."""
    def slack(pts):
        r2, rc = pts[:, 0], pts[:, 1]

        def terms(beta):
            bnd, d1a, d2a = vqscheme._unlimited_raw(src.sigma2, src.rho, ch.p1, ch.p2, ch.n0,
                                                    r2, rc, beta)
            rising = np.minimum(bnd["rc"] - rc, bnd["r2+rc"] - (r2 + rc))
            rest = np.min([bnd["r2"] - r2, 0.5 * np.log2(target.d1 / d1a),
                           0.5 * np.log2(target.d2 / d2a)], axis=0)
            return rising, bnd["r2"] - r2, np.minimum(rising, rest)
        lo, hi = np.zeros_like(r2), np.ones_like(r2)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rising, falling, _ = terms(mid)
            lo, hi = np.where(rising < falling, mid, lo), np.where(rising < falling, hi, mid)
        return np.maximum(terms(lo)[2], terms(hi)[2])
    return slack


def _grid_zoom_max(slack, hi, rounds=48, n=33):
    """Best slack a dense grid finds over the box ``[0, hi]``: each round
    grids a window around the best point so far and halves it."""
    hi = np.asarray(hi, dtype=float)
    best, centre, half = -math.inf, 0.5 * hi, 0.5 * hi
    for _ in range(rounds):
        axes = [np.linspace(max(c - h, 0.0), min(c + h, top), n)
                for c, h, top in zip(centre, half, hi)]
        pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = slack(pts)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, centre = float(vals[i]), pts[i]
        half = 0.5 * half
    return best


@pytest.mark.parametrize("rho, alpha, c12", [(0.5, 0.2, UNLIMITED), (0.5, 1.0, 0.0),
                                              (0.8, 0.2, 0.0), (0.3, 1.0, UNLIMITED)])
def test_certified_slice_minimum_against_grid_oracle(rho, alpha, c12):
    """A dense grid zoom over the slice finds no point at the tolerance just
    below the certified minimum, and finds one just above it."""
    src = SourceSpec(1.0, rho)
    target = DistortionPair(alpha * 0.2, 0.2)
    res = min_power_symmetric(src, Scheme.VQ, target, c12=c12, tol=1e-7)
    lo, hi = res.bracket
    reference = _unlimited_reference if c12 is UNLIMITED else _noconf_reference
    for p, feasible in ((lo * (1.0 - 1e-6), False), (hi * (1.0 + 1e-4), True)):
        best = _grid_zoom_max(reference(src, ChannelSpec(p, p, 1.0, c12), target), (8.0, 8.0))
        assert (best >= _opt.SLACK_TOL) == feasible, (p, best)


def test_finite_link_lies_between_the_certified_slices():
    """Every finite-``c12`` answer lies between the two certified slices, and
    at the ``fits`` links, which the unlimited witness's shared rate fits,
    it is the unlimited answer to within ``tol``."""
    tol = 1e-6
    for rho, target, n0, links, fits in (
            (0.5, DistortionPair(0.1, 0.2), 1.0, (1.0, 1.5), (1.5,)),
            (0.5, DistortionPair(0.1, 0.2), 1.0 / 16.0, (1.0, 1.5), ()),
            (0.8, DistortionPair(0.2, 0.1), 1.0, (0.25, 0.5, 1.0), ())):
        def pmin(c12):
            return min_power_symmetric(SourceSpec(1.0, rho), Scheme.VQ, target, c12=c12,
                                       n0=n0, tol=tol).objective
        unlimited, none = pmin(UNLIMITED), pmin(0.0)
        for c12 in links:
            answer = pmin(c12)
            assert unlimited <= answer <= none, (rho, n0, c12, unlimited, answer, none)
            if c12 in fits:
                assert answer <= unlimited * (1.0 + tol), (rho, n0, c12, unlimited, answer)


def test_finite_link_reaches_past_the_unlimited_slice_box():
    """A finite link's ``r1 + rc`` may exceed the unlimited slice's rate box:
    at rho = 0.5, d1 = 1e-5 needs about 8.3 bits of it.  That box finding no
    witness does not refute such a query."""
    res = min_power_symmetric(SRC, Scheme.VQ, DistortionPair(1e-5, 0.2), c12=1.0, tol=1e-3)
    w = res.witness
    assert w["r1"] + w["rc"] > search.RATE_BOX_BITS and w["d1"] <= 1e-5, w


def test_finite_link_is_refuted_only_by_a_proof(monkeypatch):
    """An unlimited-slice None refutes a finite-``c12`` query only when it
    is a proof; otherwise the compass decides, here between the finite
    answer 10.31 and the no-conference one 12.96."""
    certify = _opt._certify
    for proof, feasible in ((True, False), (False, True)):
        def stub(exact, bound, hi, lo=0.0, start=None):
            return (None, proof, None) if len(hi) == 3 else certify(exact, bound, hi, lo, start)
        monkeypatch.setattr(_opt, "_certify", stub)
        query = search._VqFeasibility(SRC, DistortionPair(0.1, 0.2))
        assert query(11.5, 11.5, 1.0, 1.0) is feasible
        if feasible:  # neither slice's witness: both r1 and rc are positive
            assert query.witness.r1 > 0.0 and query.witness.rc > 0.0, query.witness


def test_certify_stops_when_the_best_slack_is_within_rounding():
    """A best slack one rounding step below the tolerance is neither reached
    nor refuted: the search ends at its round or box cap without a witness
    and says that its None proves nothing."""
    edge = np.nextafter(_opt.SLACK_TOL, -math.inf)
    centre = np.array([2.0 / 3.0, math.pi, 0.1])
    for power in (1, 2):  # a sharp and a smooth maximum
        def exact(pts):
            return edge - (np.abs(pts - centre) ** power).sum(axis=1)

        def bound(lo, up):
            return exact(np.clip(centre, lo, up))
        batches = []

        def counted(pts):
            batches.append(len(pts))
            return exact(pts)
        assert _opt._certify(counted, bound, [8.0, 8.0, 1.0]) == (None, False, None)
        assert len(batches) <= _opt._MAX_ROUNDS and max(batches) <= _opt._MAX_BOXES


def test_warm_certificate_matches_cold():
    """A query started from the frontier of a feasible query above it, in
    power on each slice or in ``d1`` on ``min_d1_unlimited``'s box, returns
    the point and proof of a search from the whole box, on both sides of the
    threshold.  A warm query that reaches the box cap still proves nothing."""
    target = DistortionPair(0.1, 0.2)
    for rho in (0.5, 0.97):
        src = SourceSpec(1.0, rho)
        cases = []  # (slice functions at x, threshold in x, box)
        for make, c12, hi in SLICES[:2]:
            pmin = min_power_symmetric(src, Scheme.VQ, target, c12=c12, tol=1e-6).objective
            cases.append((lambda p, make=make, c12=c12: make(src, ChannelSpec(p, p, 1.0, c12),
                                                             target), pmin, hi))
        ch = ChannelSpec(100.0, 100.0, 1.0, UNLIMITED)
        rate_cap = 0.5 * math.log2(1.0 + 400.0) + 1.0  # min_d1_unlimited's box at P/N = 100
        d1min = min_d1_unlimited(src, ch, 0.2).objective
        cases.append((lambda d1: search._unlimited_slice(src, ch, DistortionPair(d1, 0.2)),
                      d1min, (rate_cap, rate_cap, 1.0)))
        for at, threshold, hi in cases:
            _, _, frontier = _opt._certify(*at(threshold * 1.01), hi)
            assert frontier is not None, (rho, hi)
            outcomes = set()
            for factor in (1.005, 1.0 + 1e-6, 1.0 - 1e-6, 0.99, 0.5):
                answers = []
                for start in (None, frontier):
                    pt, proof, _ = _opt._certify(*at(threshold * factor), hi, start=start)
                    answers.append((None if pt is None else pt.tolist(), proof))
                assert answers[0] == answers[1], (rho, hi, factor)
                outcomes.add(answers[0][0] is None)
            assert outcomes == {False, True}, (rho, hi)

    edge = np.nextafter(_opt.SLACK_TOL, -math.inf)
    centre = np.array([2.0 / 3.0, math.pi, 0.1])

    def exact(pts, lift=0.0):
        return edge + lift - np.abs(pts - centre).sum(axis=1)

    def bound(lo, up, lift=0.0):
        return exact(np.clip(centre, lo, up), lift)
    _, _, frontier = _opt._certify(lambda pts: exact(pts, 1e-6),
                                   lambda lo, up: bound(lo, up, 1e-6), [8.0, 8.0, 1.0])
    batches = []

    def counted(pts):
        batches.append(len(pts))
        return exact(pts)
    assert frontier is not None
    assert _opt._certify(counted, bound, [8.0, 8.0, 1.0], start=frontier) == (None, False, None)
    assert max(batches) == _opt._MAX_BOXES

    def ridge(pts):  # flat along two axes: the rounds reach the box cap before the witness
        return _opt.SLACK_TOL + 1e-6 - np.abs(pts[:, 0] - centre[0])
    pt, _, frontier = _opt._certify(ridge, lambda lo, up: ridge(np.clip(centre, lo, up)),
                                    [8.0, 8.0, 1.0])
    assert pt is not None and frontier is None


# (d1, d2, c12, tol, objective, bracket, iterations, witness) of VQ solves at
# rho = 0.5: the four Fig. 3 VQ solves and one finite-link solve.  The four
# slice rows are the certified branch-and-bound's answers; each lies below
# the compass search's old answer, which these witnesses refute.  In the
# finite-link row the unlimited witness's shared rate (about 1.65 bits)
# exceeds the 1.16 bits the link carries and the no-conference slice fails
# below 12.96, so the compass search decides its bracket.  Exact
# optimisations must keep every one of them bit for bit.
PINNED_VQ_SOLVES = (
    (0.2 * 0.2, 0.2, UNLIMITED, 1e-9,
     23.992380127310753, (23.99238011240959, 23.992380127310753), 35,
     {"r1": 0.0, "r2": 1.1139293141895905, "rc": 2.31483106513042,
      "beta1": 1.0, "beta2": 0.8561289038771065,
      "d1": 0.040000000050960924, "d2": 0.20000000026326425}),
    (0.2 * 0.2, 0.2, 0.0, 1e-9,
     32.446769416332245, (32.44676938652992, 32.446769416332245), 36,
     {"r1": 2.31483106513042, "r2": 1.1139293141895905, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.040000000050960924, "d2": 0.20000000026326425}),
    (1.0 * 0.2, 0.2, UNLIMITED, 1e-9,
     5.423282735049725, (5.423282731324434, 5.423282735049725), 33,
     {"r1": 0.0, "r2": 1.1245753685943782, "rc": 1.1245753685943782,
      "beta1": 1.0, "beta2": 0.3418464592541568,
      "d1": 0.20000000025500764, "d2": 0.20000000025500764}),
    (1.0 * 0.2, 0.2, 0.0, 1e-9,
     6.480237826704979, (6.480237822979689, 6.480237826704979), 33,
     {"r1": 1.1245753685943782, "r2": 1.1245753685943782, "rc": 0.0,
      "beta1": 0.0, "beta2": 0.0,
      "d1": 0.20000000025500764, "d2": 0.20000000025500764}),
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


# (P/N, objective, bracket) of min_d1_unlimited at rho = 0.5, d2 = 0.2, n0 = 1:
# the d1d2-vs-snr trace's solves.  Exact optimisations must keep them bit for bit.
PINNED_D1_SOLVES = (
    (1e2, 0.009424814857280313, (0.009424814500812206, 0.009424814857280313)),
    (1e4, 9.37548873189858e-05, (9.375488216540352e-05, 9.37548873189858e-05)),
    (1e6, 9.375005148607797e-07, (9.375004810525492e-07, 9.375005148607797e-07)),
    (1e8, 9.375000260027057e-09, (9.374999841528098e-09, 9.375000260027057e-09)),
)


def test_min_d1_solves_match_pinned_results():
    for snr, objective, bracket in PINNED_D1_SOLVES:
        res = min_d1_unlimited(SRC, ChannelSpec(snr, snr, 1.0), 0.2)
        assert (res.objective, res.bracket) == (objective, bracket), snr
