"""Benchmark runner for confmac.

    python3 bench/run.py --workload {fig3-trace,finite-link,validate}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ``confmac`` from its
``src/`` directory.  One process is one client running a closed loop of
passes over the workload's queries for ``--seconds``, checking every answer.

* ``--trace 0`` measures the end-to-end metrics with tracing off.
* ``--trace 1`` is the self-check and the source of the per-layer metrics.
  Workloads that use threads first run one untimed pass with
  ``GMAC_THREADS=1``; then untraced and traced passes alternate.  All passes
  must give identical output, which compares 1 against 2 threads and traced
  against untraced runs.  Only the traced passes feed the layer spans; the
  solve latencies and ``trace_overhead_ratio``'s denominator come from the
  untraced passes.

Times are medians over the untraced passes that lost at most ``STEAL_SHARE``
of the machine's CPU time to the hypervisor (steal time in ``/proc/stat``),
or over all untraced passes when none did.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (provenance, every objective and bracket, pass times) is written to
``.bench_results/`` and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_results"
THREADS = "2"
SETUP_PROBES = 4          # extra processes; setup_s is the median of these and this one
STEAL_SHARE = 0.03        # passes that lost more of the machine's CPU to the hypervisor are not timed

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig3-trace", "finite-link", "validate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    return parser.parse_args(argv)


def set_up(args):
    """Import the package from this checkout, build the inputs and warm up."""
    if not (SRC / "confmac" / "__init__.py").is_file():
        raise SystemExit(f"bench: no confmac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["GMAC_THREADS"] = THREADS
    import confmac
    if Path(confmac.__file__).resolve().parent != SRC / "confmac":
        raise SystemExit(f"bench: imported confmac from {confmac.__file__}, not {SRC}")
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up()
    return workload, time.perf_counter() - T_START


def probe_setups(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine so far (0 where not reported)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def timed_pass(workload):
    s0 = host_steal_s()
    w0, c0 = time.perf_counter(), time.process_time()
    result = workload.run_pass()
    result.wall = time.perf_counter() - w0
    result.cpu = time.process_time() - c0
    result.steal = host_steal_s() - s0
    return result


def timing_passes(passes):
    """The passes the timings are taken from: those little CPU was stolen from, else all."""
    clean = [r for r in passes if r.steal <= STEAL_SHARE * r.wall * (os.cpu_count() or 1)]
    return clean or passes


def measure(workload, seconds: float, tracer=None):
    """Closed loop of passes for ``seconds``: (untraced, traced, single-thread) passes.

    With tracing on, a thread-sensitive workload first runs one untimed pass
    with ``GMAC_THREADS=1``, whose output must equal the other passes' output,
    and then untraced and traced passes alternate.
    """
    t_end = time.perf_counter() + seconds
    single, untraced, traced = [], [], []
    if tracer is not None and workload.thread_sensitive:
        os.environ["GMAC_THREADS"] = "1"
        try:
            single.append(timed_pass(workload))
        finally:
            os.environ["GMAC_THREADS"] = THREADS
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.active = True
            try:
                traced.append(tracer.run_op(f"bench.{workload.name}", timed_pass, workload))
            finally:
                tracer.active = False
        else:
            untraced.append(timed_pass(workload))
        if time.perf_counter() >= t_end and (tracer is None or traced):
            return untraced, traced, single


def solve_latency(passes, kind: str) -> float:
    """Median seconds of one ``kind`` ("vq" or "sep1") solve; 0 where none ran."""
    times = [op.seconds for r in passes for op in r.ops if op.kind == kind]
    return statistics.median(times) if times else 0.0


def check_passes(workload, passes, reference_signature, why) -> None:
    for result in passes:
        workload.check(result)
        if result.signature != reference_signature:
            for op in result.ops:
                op.fail(why)


def provenance(args) -> dict:
    import numpy
    import scipy
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "confmac").glob("*.py")))
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)), "GMAC_THREADS": THREADS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src_confmac_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + probe_setups(args)

    steal0 = host_steal_s()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        patched = tracer.patched_names()
        try:
            untraced, traced, single = measure(workload, args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced, traced, single = measure(workload, args.seconds)
    steal = host_steal_s() - steal0
    reference = untraced[0].signature
    check_passes(workload, untraced, reference, "output differs between passes")
    check_passes(workload, traced, reference, "traced output differs from untraced output")
    check_passes(workload, single, reference, "output differs between GMAC_THREADS=1 and 2")
    checked = untraced + traced + single

    ops = [op for result in checked for op in result.ops]
    failed = sum(1 for op in ops if op.failed)
    timed = timing_passes(untraced)
    wall = statistics.median(r.wall for r in timed)
    if tracer is None:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {**metrics, "fail_ratio": failed / len(ops),
                  "vq_solve_s": solve_latency(timed, "vq"),
                  "sep_solve_s": solve_latency(timed, "sep1")}
        units = {**UNITS, "fail_ratio": "ratio", "vq_solve_s": "s", "sep_solve_s": "s"}
    else:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["trace_overhead_ratio"] = statistics.median(r.wall for r in traced) / wall
        metrics["vq_solve_s"] = solve_latency(timed, "vq")
        metrics["sep_solve_s"] = solve_latency(timed, "sep1")
        values = metrics
        units = {name: tracing.unit(name) for name in metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance(args),
        "metrics": values,
        "setup_s_samples": setups,
        "host_steal_s": steal,
        "timed_passes": len(timed),
        "passes": [{"kind": kind, "wall_s": r.wall, "cpu_s": r.cpu, "steal_s": r.steal,
                    "info": r.info}
                   for kind, passes in (("untraced", untraced), ("traced", traced),
                                        ("GMAC_THREADS=1", single)) for r in passes],
        "ops": [op.as_dict() for op in untraced[0].ops],
        "failures": sorted({f"{op.name}: {'; '.join(op.failed)}" for op in ops if op.failed}),
    }
    if tracer is not None:
        record["patched"] = patched
        tracer.write(stem.with_name(stem.name + "-spans.jsonl.gz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=repr))

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in {**untraced[0].info, "host_steal_s": round(steal, 3),
                        "timed_passes": f"{len(timed)}/{len(untraced)}"}.items():
        print(f"{name} = {value}")
    for line in record["failures"][:20]:
        print(f"FAILED {line}")
    print(f"attempted={len(ops)} failed={failed} record={stem.with_suffix('.json').name}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
