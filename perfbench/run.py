"""flowerlab benchmark: one closed-loop client, one process, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen):

  construct  Cold ``pn --n 6``, ``verify --n 5 --all``, ``cn --n 5``,
             ``pn --n 5 --route product`` and ``discrepancy`` through
             ``flowerlab.cli.run``.  Nearly all time goes to mixedring/ratpoly
             multiplication, the flowerpoly recursion and serialising large
             polynomials: the mechanism workload for the norm-form recursion.
  enumerate  ``soddy-scan --bound 12`` (20,736 tuples), ``graham --bound 200``
             and ``pyth --bound 1000`` with and without ``--brute-force`` for
             nine betas.  soddy, geometry's float path and pythag, with no
             polynomial arithmetic; 60.06% of the scan's tuples are multiples
             of a reduced pair, the work a scan dedupe removes.
  check      A seeded stream of library requests, ``validate_flower(cfg).to_obj()``
             or ``solve_radii(xs).to_obj()``, in a warm session (P3..P6 built
             during set-up).  ratpoly is read (``evaluate``), geometry's mpmath
             angle sums and soddy's QuadraticValue path run on inputs that
             share no work: the mechanism workload for tower evaluation and
             the QuadraticValue canonical form, and the bypass workload for
             the scan dedupe.

Every CLI job starts with ``flowerpoly.clear_cache()``, so it pays the cold
cost of a fresh ``flowerlab`` process.  ``FLOWERLAB_THREADS`` is removed, so
the scan runs serially.  The seed only shapes the check stream (all of it
but the irrational solves, whose heavy-tailed cost would otherwise make
wall_s depend on the draw; see ``workloads.py``); the other two workloads
run fixed commands.

End-to-end metrics (``--trace 0``), printed for every workload.  A request
is one CLI job, or one library call on check; failed requests count at the
time they took.  A pass is the job list once, or one block of 100 check
requests; passes repeat until ``--seconds`` have gone (at least 3 passes,
or 10 blocks so that 1,000 requests are timed).

  setup_s      interpreter start to ready (import flowerlab; on check also
               the P3..P6 warm-up), median of 25 fresh interpreters (3 on
               check)
  wall_s       time to finish one pass (see below)
  peak_rss_mb  peak resident set of the benchmark process
  req_p50_ms   median request latency (nearest rank, see below)
  req_p99_ms   99th-percentile request latency (nearest rank); on check
               over at least 1,000 requests, so that 10 lie beyond it
  req_per_s    completed requests per pass over ``wall_s``

A CLI pass runs the same jobs every time, so on construct and enumerate
each job counts once, at its median time over the passes: ``wall_s`` is
the sum of those medians and the percentiles are taken over them.  Check
blocks differ, so there every timed request counts in the percentiles,
and ``wall_s`` is the median over blocks of the block's summed request
times; the tail of every request kind is in both.

Times are scaled to a reference speed: a fixed pure-Python kernel runs
between units of work (a CLI job, 25 check requests, a set-up), and each
unit's times are multiplied by 50 ms over the mean kernel time just before
and after it (``REFERENCE_KERNEL_S``).  The report lines
above the JSON result give the raw values beside the scaled ones, the
sample counts, failed/attempted with ``failed_ratio``, the median of every
CLI job, and ``pn6_s``, ``verify5_s``, ``cn5_s`` (construct) and
``scan_tuples_per_s`` (enumerate).

``--trace 1`` runs one untraced round, then the same round traced and a
replay of its first pass, and reports the per-layer metrics listed by
``--help`` with the end-to-end metric each should move, the tracing
overhead (traced minus untraced wall time) and the share of the traced wall
time the spans' self times account for.  Exact counts (step term counts,
scan tuples, graham records, QuadraticValue.make and MixedElement.__mul__
calls, ...) must repeat between the round and the replay.

``--smoke`` runs every workload at a tiny size in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

# Set-ups sampled per run: without and with the P3..P6 warm-up.
SETUP_SAMPLES = {False: 25, True: 3}
# Passes of the untraced run, at least, and of one traced round.
MIN_PASSES = {"full": {"cli": 3, "check": 10}, "smoke": {"cli": 2, "check": 2}}
# Check requests per unit of work (one calibration factor each).
CHECK_UNIT = 25
ROUND_PASSES = {"full": {"cli": 1, "check": 10}, "smoke": {"cli": 1, "check": 2}}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
}

# Exact counts a full run must reproduce (see ROADMAP.md).
PINNED = {
    "construct": {"flowerpoly.step_n3_terms": 5, "flowerpoly.step_n4_terms": 19,
                  "flowerpoly.step_n5_terms": 339, "flowerpoly.step_n6_terms": 19449},
    "enumerate": {"soddy.scan.tuples": 20736, "soddy.scan.redundant_solves": 12455,
                  "soddy.graham_quadruples.records_out": 3587},
}

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import flowerlab.cli\n"
    "from flowerlab import flowerpoly\n"
    "for n in sys.argv[2:]:\n"
    "    flowerpoly.flower_poly(int(n))\n"
)


def _help_epilog() -> str:
    lines = ["per-layer metrics (--trace 1) and the end-to-end metrics they should move:"]
    for name, unit, _, _, moves in spans.PER_LAYER:
        lines.append(f"  {name} [{unit}]: {moves}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=("construct", "enumerate", "check"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    return parser.parse_args(argv)


# -- environment ------------------------------------------------------------------


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("FLOWERLAB_THREADS", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def import_flowerlab():
    if not (SRC / "flowerlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no flowerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowerlab.cli
    from flowerlab import discrepancy, flowerpoly, geometry, mixedring, pythag, ratpoly, soddy

    if Path(flowerlab.__file__).resolve().parent != SRC / "flowerlab":
        raise SystemExit(f"error: imported flowerlab from {flowerlab.__file__}, not {SRC}")
    return SimpleNamespace(cli=flowerlab.cli, discrepancy=discrepancy, flowerpoly=flowerpoly,
                           geometry=geometry, mixedring=mixedring, pythag=pythag,
                           ratpoly=ratpoly, soddy=soddy)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


# -- calibration ----------------------------------------------------------------------
#
# On shared hosts the speed of a vCPU drifts by up to 2x within seconds, and
# every flowerlab operation drifts with it.  So a fixed pure-Python kernel
# that does not use flowerlab runs between units of work (CLI jobs, runs of
# CHECK_UNIT check requests, set-ups), and the times of each unit are multiplied by
# REFERENCE_KERNEL_S over the mean of the kernel times just before and just
# after it: the reported times are seconds on a machine where the kernel
# takes 50 ms.  Of the scalings tried (none, one factor per run, medians
# over windows of 2 to 10 s, one factor per block of 100 check requests),
# this one left the smallest run-to-run spread.

REFERENCE_KERNEL_S = 0.05


def calibration_kernel() -> int:
    """Sparse products of dicts with tuple keys and mixed int/Fraction
    values, and big-int arithmetic: flowerlab's mix of operations."""
    terms = {(i, j): Fraction(i + 1, j + 2) if (i + j) % 3 == 0 else 7 * i + j
             for i in range(11) for j in range(11)}
    out = {}
    for (a0, a1), ca in terms.items():
        for (b0, b1), cb in terms.items():
            key = (a0 + b0, a1 + b1)
            out[key] = out.get(key, 0) + ca * cb
    big = 3**3000
    acc = 0
    for k in range(1, 300):
        acc += (big + k) * (big - k) // (k * big + 1)
    return len(out) + acc % 7


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Clock:
    """Kernel runs between units of work; ``scale()`` after a unit gives the
    factor for that unit's times."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def scale(self) -> float:
        self.samples.append(kernel_seconds())
        return REFERENCE_KERNEL_S / ((self.samples[-2] + self.samples[-1]) / 2)


def setup_seconds(warm_ns, clock: Clock) -> list[tuple[float, float]]:
    """Interpreter start to ready in fresh interpreters, as (raw, scaled)."""
    samples = []
    for _ in range(SETUP_SAMPLES[bool(warm_ns)]):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, warm_ns)],
            env=pinned_env(), check=True, stdout=subprocess.DEVNULL,
        )
        raw = time.perf_counter() - start
        samples.append((raw, raw * clock.scale()))
    return samples


# -- units of work --------------------------------------------------------------------


class Op(SimpleNamespace):
    """One request: ``latency`` seconds (``scaled`` after calibration),
    ``error`` if it raised, ``wrong`` (why) if its output did not match."""


# The one failure the program is known to have (ROADMAP item 4): to_obj() of
# an 800+ digit flower hits the 4,300-digit int -> str limit.
KNOWN_DEFECT = ("huge_n3", "ValueError: Exceeds the limit (4300 digits)")


def is_known_defect(op: Op) -> bool:
    return op.key == KNOWN_DEFECT[0] and op.error.startswith(KNOWN_DEFECT[1])


def all_correct(ops, problems) -> bool:
    """No self-check problem, no wrong output and no error but the known defect."""
    return not problems and not any(
        op.wrong or (op.error is not None and not is_known_defect(op)) for op in ops
    )


def run_cli_job(fl, argv, expected, tracer) -> list[Op]:
    fl.flowerpoly.clear_cache()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with tracer.job("cli") if tracer else contextlib.nullcontext():
            code = fl.cli.run(argv, out, err)
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"[:200]
    latency = time.perf_counter() - start
    key = " ".join(argv)
    want = expected[key]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    wrong = None
    if error is None and (code != want["exit"] or digest != want["sha256"]):
        wrong = f"exit {code}, sha256 {digest[:12]}"
    return [Op(key=key, latency=latency, error=error, wrong=wrong)]


def run_check_block(fl, requests, tracer) -> list[Op]:
    prepared = [
        (req, fl.geometry.FlowerConfig(req.radii[0], req.radii[1:]) if req.radii else None)
        for req in requests
    ]
    results = []
    for req, config in prepared:
        value, error = None, None
        start = time.perf_counter()
        try:
            with tracer.job("request") if tracer else contextlib.nullcontext():
                if config is not None:
                    value = fl.geometry.validate_flower(config).to_obj()
                else:
                    report = fl.soddy.solve_radii(req.cosines)
                    report.to_obj()
                    value = report
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"[:200]
        results.append((req, time.perf_counter() - start, value, error))
    ops = []
    for req, latency, value, error in results:
        wrong = None
        if error is None:
            if req.radii is not None:
                if value["valid"] != req.expect_valid:
                    wrong = f"valid is {value['valid']}, built {req.expect_valid}"
            else:
                wrong = solve_mismatch(fl, value, req.truth)
        ops.append(Op(key=req.kind, latency=latency, error=error, wrong=wrong))
    return ops


def solve_mismatch(fl, report, truth) -> str | None:
    """Why a solve report disagrees with the generator's ``truth``, or None."""
    if tuple(report.quadratic) != truth.quadratic or report.discriminant != truth.discriminant:
        return "quadratic or discriminant differs"
    if report.discriminant_square != truth.rational:
        return f"discriminant_square is {report.discriminant_square}"
    if len(report.candidates) != truth.roots:
        return f"{len(report.candidates)} candidates, want {truth.roots}"
    qa, qb, qc = truth.quadratic
    for cand in report.candidates:
        if cand.rational != truth.rational:
            return f"candidate rational is {cand.rational}"
        # r1 = b + c*sqrt(d) is a root iff both parts of qa*r1^2 + qb*r1 + qc vanish.
        b, c, d = cand.r1.base, cand.r1.coef, cand.r1.radicand
        if qa * (b * b + c * c * d) + qb * b + qc != 0 or (2 * qa * b + qb) * c != 0:
            return f"candidate r1 = {cand.r1.approx()} is not a root"
    flowers = {tuple(f.petals) for f in report.valid_flowers}
    if flowers != truth.flowers or any(f.center != 1 for f in report.valid_flowers):
        return f"{len(flowers)} valid flowers, want {len(truth.flowers)}"
    # Every valid flower the solver returns must re-validate.
    if not all(fl.geometry.validate_flower(f).valid for f in report.valid_flowers):
        return "a valid flower does not re-validate"
    return None


class Workload:
    """A pass is the job list once (one unit per job), or one block of
    check requests (one unit per CHECK_UNIT requests)."""

    def __init__(self, fl, name: str, mode: str, seed: int):
        self.fl, self.name, self.mode, self.seed = fl, name, mode, seed
        self.kind = "check" if name == "check" else "cli"
        if self.kind == "cli":
            self.jobs = workloads.JOBS[name][mode]
            self.expected = json.loads(EXPECTED.read_text())[mode]

    def warm_ns(self):
        return workloads.WARM_NS[self.mode] if self.kind == "check" else ()

    def run_pass(self, index: int, tracer=None, clock: Clock | None = None):
        """Returns (raw wall seconds, ops); each op's ``scaled`` time uses its
        unit's calibration factor, or equals its latency without ``clock``."""
        if self.kind == "cli":
            units = [lambda argv=argv: run_cli_job(self.fl, argv, self.expected, tracer)
                     for argv in self.jobs]
        else:
            requests = workloads.check_block(self.seed, index, self.mode)
            units = [lambda chunk=requests[i:i + CHECK_UNIT]: run_check_block(self.fl, chunk, tracer)
                     for i in range(0, len(requests), CHECK_UNIT)]
        ops = []
        start = time.perf_counter()
        for unit in units:
            unit_ops = unit()
            factor = clock.scale() if clock is not None else 1.0
            for op in unit_ops:
                op.scaled = op.latency * factor
            ops.extend(unit_ops)
        return time.perf_counter() - start, ops


# -- statistics ------------------------------------------------------------------------


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup, passes, same_passes: bool, attr: str = "scaled") -> dict:
    """Metrics from the ``attr`` times ("scaled" or "latency"); ``setup`` is
    a list of (raw, scaled), ``passes`` a list of op lists, and
    ``same_passes`` says whether every pass runs the same jobs."""
    ops = [op for pass_ops in passes for op in pass_ops]
    completed = sum(1 for op in ops if op.error is None and not op.wrong)
    if same_passes:
        # The job list once, each job at its median time over the passes.
        times = [median for median, _ in medians_by_key(ops, attr).values()]
        wall = sum(times)
    else:
        # Blocks differ: every request counts, and a pass is the median of
        # the blocks' own sums, so each kind's tail is in both.
        times = [getattr(op, attr) for op in ops]
        wall = statistics.median(sum(getattr(op, attr) for op in pass_ops) for pass_ops in passes)
    values = {
        "setup_s": statistics.median(pair[attr == "scaled"] for pair in setup),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "req_p50_ms": nearest_rank(times, 0.5) * 1e3,
        "req_p99_ms": nearest_rank(times, 0.99) * 1e3,
        "req_per_s": completed / len(passes) / wall,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def medians_by_key(ops, attr: str) -> dict:
    by_key: dict[str, list[float]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(getattr(op, attr))
    return {k: (statistics.median(v), len(v)) for k, v in by_key.items()}


# -- runs ---------------------------------------------------------------------------------


def untraced_run(wl: Workload, seconds: float, out):
    """Passes until ``seconds`` have elapsed (at least the minimum)."""
    clock = Clock()
    setup = setup_seconds(wl.warm_ns(), clock)
    minimum = MIN_PASSES[wl.mode][wl.kind]
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(wl.run_pass(len(passes), clock=clock)[1])
    metrics = end_to_end(setup, passes, wl.kind == "cli")
    raw = end_to_end(setup, passes, wl.kind == "cli", "latency")
    ops = [op for pass_ops in passes for op in pass_ops]
    kernel = sorted(clock.samples)
    out(f"passes {len(passes)}, requests {len(ops)}, setup samples {len(setup)}; "
        f"kernel runs {len(kernel)}: median {statistics.median(kernel) * 1e3:.4g} ms, "
        f"range {kernel[0] * 1e3:.4g}..{kernel[-1] * 1e3:.4g} ms")
    counts = {"setup_s": len(setup), "wall_s": len(passes)}
    requests = f"{len(ops)} requests in {len(passes)} passes"
    if wl.kind == "cli":
        requests += f", as {len(wl.jobs)} job medians"
    for name, m in metrics.items():
        samples = counts.get(name, requests)
        out(f"{name:<12} {m['value']:.6g} {m['unit']}  "
            f"(raw {raw[name]['value']:.6g}, n={samples})")
    scaled, unscaled = medians_by_key(ops, "scaled"), medians_by_key(ops, "latency")
    if wl.kind == "cli":
        for key, (median, count) in scaled.items():
            out(f"job {key!r}: median {median:.6g} s (raw {unscaled[key][0]:.6g} s, n={count})")
        for key, label in workloads.NAMED_JOBS.items():
            if key in scaled:
                out(f"{label:<12} {scaled[key][0]:.6g} s  (n={scaled[key][1]})")
        scan_key, tuples = workloads.SCAN_JOB[wl.mode]
        if scan_key in scaled:
            median, count = scaled[scan_key]
            out(f"scan_tuples_per_s {tuples / median:.6g} 1/s  ({tuples} tuples, n={count})")
    else:
        for kind, (median, count) in scaled.items():
            out(f"{kind} requests: median {median * 1e3:.6g} ms (n={count})")
    return metrics, ops, []


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def traced_run(wl: Workload, out):
    """One untraced round, the same round traced, and a traced replay of its
    first pass; per-layer metrics come from the traced round.  Times here
    are raw: the round is short and both halves run back to back."""
    passes = ROUND_PASSES[wl.mode][wl.kind]
    ops = []
    untraced_wall = 0.0
    for i in range(passes):
        wall, pass_ops = wl.run_pass(i)
        untraced_wall += wall
        ops.extend(pass_ops)

    tracer = spans.Tracer()
    tracer.install(wl.fl)
    problems = []
    try:
        for n in wl.warm_ns():  # let the tracer see the objects already cached
            wl.fl.flowerpoly.flower_poly(n)
        traced_wall, first_pass = 0.0, None
        for i in range(passes):
            before = dict(tracer.totals)
            wall, pass_ops = wl.run_pass(i, tracer)
            traced_wall += wall
            ops.extend(pass_ops)
            if i == 0:
                first_pass = _diff(tracer.totals, before)
        round_totals = dict(tracer.totals)
        _, replay_ops = wl.run_pass(0, tracer)
        ops.extend(replay_ops)
        replay = _diff(tracer.totals, round_totals)
    finally:
        tracer.restore()

    for key in spans.EXACT_COUNTS:
        if first_pass.get(key, 0) != replay.get(key, 0):
            problems.append(f"count {key} differs on replay: "
                            f"{first_pass.get(key, 0)} vs {replay.get(key, 0)}")
    metrics = spans.per_layer_metrics(round_totals)
    if wl.mode == "full":
        pinned_view = {**round_totals, **{k: m["value"] for k, m in metrics.items()}}
        for key, want in PINNED.get(wl.name, {}).items():
            if pinned_view.get(key) != want:
                problems.append(f"count {key} is {pinned_view.get(key)}, want {want}")
    span_problems = tracer.span_problems()
    problems.extend(span_problems[:10])
    accounted = sum(v for k, v in round_totals.items() if k.endswith(".self_s"))
    out(f"traced round: {passes} pass(es), {len(tracer.spans)} spans, "
        f"{len(span_problems)} span problems")
    out(f"untraced wall {untraced_wall:.6g} s, traced wall {traced_wall:.6g} s, "
        f"tracing overhead {traced_wall - untraced_wall:.6g} s")
    out(f"span self times account for {accounted / traced_wall:.4f} of the traced wall time")
    for name, unit, _, _, moves in spans.PER_LAYER:
        out(f"{name:<40} {metrics[name]['value']:.6g} {unit}  (moves {moves})")
    return metrics, ops, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    os.environ.pop("FLOWERLAB_THREADS", None)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    fl = import_flowerlab()
    wl = Workload(fl, args.workload, mode, args.seed)
    for n in wl.warm_ns():
        fl.flowerpoly.flower_poly(n)

    def out(line: str) -> None:
        print(line, flush=True)

    out(f"perfbench workload={args.workload} mode={mode} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    out(f"meta git_sha={git_sha()} python={platform.python_version()} nproc={os.cpu_count()} "
        f"cpu={cpu_model()!r} src_lines={src_lines()} FLOWERLAB_THREADS=unset")
    if args.trace:
        metrics, ops, problems = traced_run(wl, out)
    else:
        metrics, ops, problems = untraced_run(wl, args.seconds, out)

    failed = [op for op in ops if op.error is not None or op.wrong]
    out(f"failed_ratio {len(failed) / len(ops):.6g}  ({len(failed)} failed / {len(ops)} attempted)")
    errors: dict[str, int] = {}
    for op in failed:
        label = f"{op.key}: {op.error or 'wrong output: ' + op.wrong}"[:120]
        errors[label] = errors.get(label, 0) + 1
    for label, count in errors.items():
        out(f"failed x{count}: {label}")
    for problem in problems:
        out(f"self-check failed: {problem}")
    correct = all_correct(ops, problems)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
