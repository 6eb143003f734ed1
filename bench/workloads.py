"""The benchmark's three workloads: seeded inputs, one pass, answer checks.

Every workload is a closed loop run by one client: a pass issues its queries
one after another, and each query starts when the previous one returned.

Seeds pick the channel noise power ``n0 = 4**k`` (k in -3..3).  At the seed
code every answer scales by exactly ``n0`` across that family and a pass makes
the same calls up to one objective call, so each seed's inputs differ while
the work per pass does not.  Perturbing ``rho`` by 0.001 instead changed the
cost of one VQ solve by 2x, which no median over one run can absorb.  The
objectives are compared with the seed code's values (``reference.json``) only
on the ``n0 == 1`` member, the inputs they were recorded at: scale invariance
is not exact in the VQ ``rc`` bound, so a later fix there may move the answers
of the other members.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from confmac import cli, search, separation, vqscheme
from confmac.model import UNLIMITED, ChannelSpec, DistortionPair, SourceSpec
from confmac.search import Scheme

SLACK = -1e-9        # bits; the library's own feasibility tolerance
ORDER_TOL = 1e-6     # relative slack allowed in the paper's orderings
RHO = 0.5
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def noise_power(seed: int) -> float:
    return 4.0 ** random.Random(seed).randint(-3, 3)


def above_reference(objective: float, ref: float, tol: float, relative: bool) -> str:
    """Failure message when ``objective`` exceeds the seed code's ``ref`` by more than ``tol``."""
    limit = ref * (1.0 + tol) if relative else ref + tol
    return f"objective {objective!r} above reference {ref!r}" if objective > limit else ""


def le(a: float, b: float) -> bool:
    """``a <= b`` up to the ordering tolerance."""
    return a <= b + ORDER_TOL * abs(b)


def vq_witness_ok(src: SourceSpec, ch: ChannelSpec, witness: dict,
                  target: DistortionPair) -> bool:
    """Re-validate a VQ witness through the closed-form region and distortions."""
    cfg = vqscheme.VqConfig(witness["r1"], witness["r2"], witness["rc"],
                            witness["beta1"], witness["beta2"])
    if not vqscheme.vq_rate_region(src, ch, cfg, margin=SLACK).feasible:
        return False
    ach = vqscheme.vq_distortion(src, cfg)
    bits = min(0.5 * math.log2(target.d1 / ach.d1), 0.5 * math.log2(target.d2 / ach.d2))
    return bits >= SLACK


@dataclass
class Op:
    """One checked answer: a solve, a trace cell or a validation check."""

    name: str
    kind: str                      # "vq", "sep1" or "other"
    objective: float = math.nan
    bracket: tuple = (math.nan, math.nan)
    seconds: float = math.nan
    failed: list = field(default_factory=list)
    witness: dict | None = None
    ctx: tuple = ()                # inputs the checks need

    def fail(self, why: str) -> None:
        self.failed.append(why)

    def as_dict(self) -> dict:
        def num(x):
            return None if math.isnan(x) else x
        return {"op": self.name, "kind": self.kind, "objective": num(self.objective),
                "bracket": [num(x) for x in self.bracket], "seconds": num(self.seconds),
                "failed": "; ".join(self.failed)}


@dataclass
class PassResult:
    ops: list
    signature: str                 # output compared across passes and thread counts
    info: dict = field(default_factory=dict)
    wall: float = 0.0
    cpu: float = 0.0
    steal: float = 0.0             # hypervisor steal over the whole machine during the pass


def _run_cli(argv: list) -> tuple[int, str]:
    """Exit code and output of one in-process CLI call; an escaping exception is exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
            rc = -1
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return rc, out.getvalue() + err.getvalue()


class Fig3Trace:
    """``confmac trace --kind pmin-vs-alpha``: the paper's Fig. 3 at two alphas.

    Stresses the compass/refine searches, the VQ array kernels at ~300-point
    batches, sep2's compass search and the CLI's row pool.  Never runs the
    conference-budget solve (c12 is inf or 0) or Monte-Carlo.
    """

    name = "fig3-trace"
    thread_sensitive = True
    D2 = 0.2
    ALPHAS = (0.2, 1.0)            # the rows where the seed code puts vq-unlimited above sep1
    SCHEMES = ("vq-unlimited", "vq-none", "sep1", "sep2", "necessary", "fullcoop")
    TOL = 1e-9

    def __init__(self, seed: int):
        self.n0 = noise_power(seed)
        self.src = SourceSpec(1.0, RHO)
        self.argv = ["trace", "--kind", "pmin-vs-alpha", "--rho", repr(RHO),
                     "--d2", repr(self.D2), "--noise", repr(self.n0),
                     "--alphas", ",".join(map(repr, self.ALPHAS)),
                     "--schemes", ",".join(self.SCHEMES), "--tol", repr(self.TOL)]

    def run_pass(self) -> PassResult:
        # the CSV carries neither witnesses nor brackets: record every solve
        solves = {}
        inner = search.min_power_symmetric

        def recorded(src, scheme, target, c12=UNLIMITED, n0=1.0, tol=1e-6, **kw):
            t0 = time.perf_counter()
            res = inner(src, scheme, target, c12=c12, n0=n0, tol=tol, **kw)
            solves[(target.d1, scheme, repr(c12))] = (res, time.perf_counter() - t0)
            return res

        search.min_power_symmetric = recorded
        try:
            rc, text = _run_cli(self.argv)
        finally:
            search.min_power_symmetric = inner
        ops = [Op(f"alpha={a} {tok}", "vq" if tok.startswith("vq") else
                  "sep1" if tok == "sep1" else "other")
               for a in self.ALPHAS for tok in self.SCHEMES]
        signature = "\n".join(l for l in text.splitlines() if not l.startswith("# out="))
        result = PassResult(ops, signature)
        if rc != 0:
            for op in ops:
                op.fail(f"exit code {rc}: {text.strip()[-200:]}")
            return result
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
        header, rows = rows[0], rows[1:]
        it = iter(ops)
        for alpha, row in zip(self.ALPHAS, rows):
            cells = dict(zip(header, row))
            target = DistortionPair(alpha * self.D2, self.D2)
            for tok in self.SCHEMES:
                op = next(it)
                scheme, c12 = search.TRACE_SCHEMES[tok]
                c12 = UNLIMITED if c12 is None else c12
                got = solves.get((target.d1, scheme, repr(c12)))
                if cells.get("errors"):
                    op.fail(f"row errors: {cells['errors']}")
                if got is None:
                    op.fail("no solve recorded")
                    continue
                res, op.seconds = got
                op.objective, op.bracket, op.witness = res.objective, tuple(res.bracket), res.witness
                op.ctx = (c12, target)
                if cells.get(f"pmin_{tok}") != f"{res.objective:.12g}":
                    op.fail("CSV cell differs from the solve")
        return result

    def check(self, result: PassResult) -> None:
        ops = {op.name: op for op in result.ops}
        above_sep1 = 0
        for alpha in self.ALPHAS:
            row = {tok: ops[f"alpha={alpha} {tok}"] for tok in self.SCHEMES}
            if any(op.failed for op in row.values()):
                continue
            for tok, op in row.items():
                if self.n0 == 1.0:
                    why = above_reference(op.objective, REFERENCE[self.name][op.name],
                                          self.TOL, relative=True)
                    if why:
                        op.fail(why)
                if op.kind == "vq":
                    c12, target = op.ctx
                    ch = ChannelSpec(op.objective, op.objective, self.n0, c12)
                    if not vq_witness_ok(self.src, ch, op.witness, target):
                        op.fail("witness fails re-validation")
            chain = ("fullcoop", "necessary", "vq-unlimited", "vq-none")
            pairs = list(zip(chain, chain[1:])) + [("vq-unlimited", "sep2")]
            for lo, hi in pairs:
                if not le(row[lo].objective, row[hi].objective):
                    for tok in (lo, hi):
                        row[tok].fail(f"ordering {lo} <= {hi} broken")
            above_sep1 += row["vq-unlimited"].objective > row["sep1"].objective
        result.info["rows_vq_unlimited_above_sep1"] = above_sep1


class FiniteLink:
    """Library solves at finite conference capacity, each with a SEP1 twin.

    The only workload that runs ``search._rc_budget`` (the conference-budget
    bisection).  The SEP1 twins run the same outer bisection without it.
    """

    name = "finite-link"
    thread_sensitive = False
    TARGET = DistortionPair(0.1, 0.2)
    C12 = (1.0, 1.5)
    SNR = 11.5                     # minconf power per unit noise; its answer is in (0, inf)
    POWER_TOL = 1e-6
    CONF_TOL = 1e-3

    def __init__(self, seed: int):
        self.n0 = noise_power(seed)
        self.src = SourceSpec(1.0, RHO)
        self.queries = [("minpower", scheme, c) for c in self.C12
                        for scheme in (Scheme.VQ, Scheme.SEP1)]
        self.queries += [("minconf", scheme, self.SNR) for scheme in (Scheme.VQ, Scheme.SEP1)]
        self._vq_limits = None

    def _solve(self, what, scheme, x):
        if what == "minpower":
            return search.min_power_symmetric(self.src, scheme, self.TARGET, c12=x,
                                              n0=self.n0, tol=self.POWER_TOL)
        p = x * self.n0
        return search.min_conf_capacity(self.src, ChannelSpec(p, p, self.n0), scheme,
                                        self.TARGET, tol=self.CONF_TOL)

    def run_pass(self) -> PassResult:
        ops = []
        for what, scheme, x in self.queries:
            op = Op(f"{what} {scheme.value} {'c12' if what == 'minpower' else 'snr'}={x}",
                    "vq" if scheme is Scheme.VQ else "sep1", ctx=(what, scheme, x))
            t0 = time.perf_counter()
            try:
                res = self._solve(what, scheme, x)
            except Exception as exc:  # a raising query is a failed op, not a crash
                op.fail(f"raised {type(exc).__name__}: {exc}")
            else:
                op.objective, op.bracket, op.witness = res.objective, tuple(res.bracket), res.witness
            op.seconds = time.perf_counter() - t0
            ops.append(op)
        signature = json.dumps([[op.name, op.objective, op.bracket, op.witness]
                                for op in ops], sort_keys=True)
        return PassResult(ops, signature)

    def check(self, result: PassResult) -> None:
        if self._vq_limits is None:  # vq-unlimited and vq-none bracket every finite c12
            self._vq_limits = tuple(self._solve("minpower", Scheme.VQ, c).objective
                                    for c in (UNLIMITED, 0.0))
        unlimited, none = self._vq_limits
        ops = {op.name: op for op in result.ops}
        for op in result.ops:
            if op.failed:
                continue
            what, scheme, x = op.ctx
            if what == "minpower":
                ch = ChannelSpec(op.objective, op.objective, self.n0, x)
            else:
                ch = ChannelSpec(x * self.n0, x * self.n0, self.n0, op.objective)
            if self.n0 == 1.0:
                why = above_reference(op.objective, REFERENCE[self.name][op.name],
                                      self.POWER_TOL if what == "minpower" else self.CONF_TOL,
                                      relative=what == "minpower")
                if why:
                    op.fail(why)
            if scheme is Scheme.VQ:
                if not vq_witness_ok(self.src, ch, op.witness, self.TARGET):
                    op.fail("witness fails re-validation")
                if what == "minpower" and not (le(unlimited, op.objective)
                                               and le(op.objective, none)):
                    op.fail(f"not between vq-unlimited {unlimited!r} and vq-none {none!r}")
        vq, sep1 = ops[f"minconf vq snr={self.SNR}"], ops[f"minconf sep1 snr={self.SNR}"]
        if not (vq.failed or sep1.failed) and not le(vq.objective, sep1.objective):
            vq.fail("ordering minconf vq <= sep1 broken")
        result.info["vq_limits"] = {"vq-unlimited": unlimited, "vq-none": none}


class Validate:
    """``confmac validate``: the Monte-Carlo and oracle self-checks.

    The only workload that runs ``_mc`` and ``montecarlo``, and the only one
    that calls ``vqscheme`` at batch size 1 (check 9's scalar region calls).
    Runs no search or optimizer.
    """

    name = "validate"
    thread_sensitive = True
    SAMPLES = 1_000_000
    CHECKS = REFERENCE[name]["checks"]     # the check names the seed code prints, in order
    # Validation seeds at which every check of the seed code passes.  The
    # Monte-Carlo checks are 3-sigma tests, so about one seed in twenty fails
    # one by chance (303: angle-constants at z = -3.03; 309: sphere-sampling
    # at z = -3.7), although their z-scores over 30-60 seeds have mean ~0 and
    # spread ~1.  Such a seed would fail every run made with it.
    SEEDS = REFERENCE[name]["seeds"]

    def __init__(self, seed: int):
        self.seed = random.Random(seed).choice(self.SEEDS)
        self.argv = ["validate", "--seed", str(self.seed), "--samples", str(self.SAMPLES)]

    def run_pass(self) -> PassResult:
        rc, text = _run_cli(self.argv)
        lines = {}
        for line in text.splitlines():
            if line.startswith(("PASS ", "FAIL ")):
                lines.setdefault(line[5:].split(":")[0], []).append(line)
        ops = [Op(name, "other") for name in self.CHECKS]
        ops += [Op(name, "other", failed=["check not printed by the seed code"])
                for name in lines if name not in self.CHECKS]
        for op in ops:
            printed = lines.get(op.name, [])
            if len(printed) != 1:
                op.fail(f"printed {len(printed)} times, expected once")
            op.failed += [line for line in printed if line.startswith("FAIL")]
        if rc != 0:
            for op in ops:
                op.fail(f"exit code {rc}: {text.strip()[-200:]}")
        return PassResult(ops, text, {"validate_seed": self.seed})

    def check(self, result: PassResult) -> None:
        pass


WORKLOADS = {w.name: w for w in (Fig3Trace, FiniteLink, Validate)}


def warm_up() -> None:
    """Touch each layer once so lazy imports and first-call costs leave the timed passes."""
    src, target = SourceSpec(1.0, RHO), DistortionPair(0.1, 0.2)
    ch = ChannelSpec(4.0, 4.0, 1.0, 1.0)
    vqscheme.vq_rate_region(src, ch, vqscheme.VqConfig(0.5, 0.5, 0.5, 0.5, 0.5))
    separation.sep1_feasible(src, ch, target)
    _run_cli(["region", "necessary", "--rho", "0.5", "--d1", "0.1", "--d2", "0.2", "--json"])
