"""Command-line front end.

One subcommand per capability: ``pn`` and ``cn`` print polynomials,
``verify`` prints the structural identity checks ``flowerpoly.verify`` runs
(one ``--<check>`` flag per entry of ``flowerpoly.VERIFY_CHECKS``, none
meaning all), ``soddy-gen`` expands one parameter tuple end to end,
``soddy-scan`` audits a parameter lattice, ``graham`` emits integer
curvature quadruples, ``pyth`` enumerates generalized Pythagorean triples,
and ``flower check``/``flower render`` validate and draw a configuration
given by radii.

Conventions: results go to stdout (or ``--out``), diagnostics to stderr.
Exit code 0 means success, 1 means a check failed or the flower is
invalid, 2 means the invocation itself was bad (unknown flags, sizes beyond
the ceiling ``flowerpoly.MAX_N`` and the other size ceilings, malformed
rationals, an ``--out`` path that cannot be opened), and 3 means an
internal error: one ``internal error:`` line on stderr, no traceback.
Numeric inputs are exact rationals ``p`` or ``p/q``, like ``23/2``.  The
handlers parse and print only: every tolerance, ceiling, range gate and
check plan lives in the library module that does the work.

Each handler imports the library module it calls, so ``import
flowerlab.cli`` loads only ``flowerpoly`` (whose check names and size
ceiling the parser reads) and ``ratpoly``: neither mpmath nor the
``soddy``, ``geometry``, ``pythag`` or ``discrepancy`` modules, which a
one-shot ``pn`` or ``verify`` process never runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain
from typing import Iterable, Iterator

from . import flowerpoly
from .flowerpoly import FlowerPolySet, SizeLimitError
from .ratpoly import parse_rational, wire


class UsageError(Exception):
    pass


def _emit(chunks: Iterable[str], out_path: str | None, stdout) -> None:
    """Write ``chunks`` in order to ``out_path`` (stdout when absent or ``-``).
    Callers compute their result first, so an error never leaves a partial
    file; only formatting happens between writes."""
    if out_path and out_path != "-":
        try:
            fh = open(out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc
        with fh:
            fh.writelines(chunks)
    else:
        stdout.writelines(chunks)


def _json_chunks(obj) -> tuple[str, str]:
    return json.dumps(obj, indent=2), "\n"


class _Echo:
    """A file whose ``write`` hands the text back, so ``csv.writer`` rows
    can be yielded as chunks."""

    def write(self, text: str) -> str:
        return text


def _csv_chunks(header, rows) -> Iterator[str]:
    """CSV text with ``\\r\\n`` line ends, one chunk per row."""
    return map(csv.writer(_Echo()).writerow, chain([header], rows))


# -- subcommand handlers -----------------------------------------------------


def _cmd_pn(args, stdout, stderr) -> int:
    try:
        if args.route == "product":
            pn = flowerpoly.flower_poly_from_product(args.n)
        else:
            pn = flowerpoly.flower_poly(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "text":
        _emit((pn.pretty(), "\n"), args.out, stdout)
    else:
        bundle = FlowerPolySet(args.n, {"pn": args.route}, pn)
        _emit(chain(bundle.json_chunks(), ("\n",)), args.out, stdout)
    return 0


def _cmd_cn(args, stdout, stderr) -> int:
    try:
        cn = flowerpoly.closure_product_poly(args.n)  # its gate runs before P_n is built
        pn = flowerpoly.flower_poly(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "text":
        _emit((cn.pretty(), "\n"), args.out, stdout)
    else:
        bundle = FlowerPolySet(args.n, {"pn": "recursive", "cn": "definitional"}, pn, cn)
        _emit(chain(bundle.json_chunks(), ("\n",)), args.out, stdout)
    return 0


def _cmd_verify(args, stdout, stderr) -> int:
    chosen = [] if args.all else [c for c in flowerpoly.VERIFY_CHECKS if getattr(args, c)]
    try:
        reports, skipped = flowerpoly.verify(args.n, chosen)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    stderr.writelines(f"skipped: {line}\n" for line in skipped)
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _emit(_json_chunks(wire(reports)), args.out, stdout)
    else:
        lines = []
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            detail = f" ({r.detail})" if r.detail else ""
            lines.append(f"{status} {r.check} n={r.n}{detail}\n")
        _emit(lines, args.out, stdout)
    return 0 if ok else 1


def _cmd_soddy_gen(args, stdout, stderr) -> int:
    from . import soddy

    m1, n1, m2, n2 = args.params
    try:
        params = soddy.SoddyParams(m1, n1, m2, n2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cosines = soddy.cosines_from_params(params)
    constraints = soddy.constraint_report(params)
    try:
        solved = soddy.solve_radii(cosines)
    except ValueError as exc:
        raise UsageError(f"params {params.as_tuple()}: {exc}") from exc
    scaled = None
    if solved.valid_flowers:
        flower = solved.valid_flowers[0]
        scaled = soddy.integer_scale(flower.center, flower.petals)
    payload = wire({
        "params": params.as_tuple(),
        "cosines": cosines,
        "sines": [soddy.rational_sine(x) for x in cosines.as_tuple()],
        "constraints": constraints,
        "solve": solved,
        "integer_scaled": scaled,
        "curvature_ratios": soddy.graham_inverse(params),
    })
    if args.format == "text":
        lines = [
            f"params: {params.as_tuple()}",
            f"cosines: {', '.join(payload['cosines'])}",
            f"constraints hold: {constraints.all_hold}",
            f"valid flowers: {payload['solve']['valid_flowers']}",
        ]
        _emit(("\n".join(lines), "\n"), args.out, stdout)
    else:
        _emit(_json_chunks(payload), args.out, stdout)
    return 0


def _cmd_soddy_scan(args, stdout, stderr) -> int:
    from . import soddy

    try:
        result = soddy.scan_lattice(args.bound)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "csv":
        rows = (rec.csv_row() for rec in result.records)
        _emit(_csv_chunks(soddy.ScanRecord.CSV_FIELDS, rows), args.out, stdout)
    else:
        _emit(chain(result.json_chunks(), ("\n",)), args.out, stdout)
    stderr.write(f"scan summary: {json.dumps(result.summary)}\n")
    return 0


def _cmd_graham(args, stdout, stderr) -> int:
    from . import soddy

    try:
        records = soddy.graham_quadruples(args.bound)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "csv":
        rows = (rec.csv_row() for rec in records)
        _emit(_csv_chunks(soddy.GrahamRecord.CSV_FIELDS, rows), args.out, stdout)
    else:
        _emit((json.dumps(rec.to_obj()) + "\n" for rec in records), args.out, stdout)
    return 0


def _cmd_pyth(args, stdout, stderr) -> int:
    from . import pythag

    try:
        if args.brute_force:
            triples = sorted(pythag.brute_force_triples(args.beta, args.bound))
            objs = (pythag.PythTriple(args.beta, *t).to_obj() for t in triples)
        else:
            objs = (s.to_obj() for s in pythag.generate_triples(args.beta, args.bound))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit((json.dumps(obj) + "\n" for obj in objs), args.out, stdout)
    return 0


def _flower_config(args):
    """The ``geometry.FlowerConfig`` of the center radius then the petal
    radii, which checks them."""
    from . import geometry

    try:
        radii = [parse_rational(v) for v in args.radii]
        return geometry.FlowerConfig(radii[0], tuple(radii[1:]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_flower_check(args, stdout, stderr) -> int:
    from . import geometry

    config = _flower_config(args)
    try:
        report = geometry.validate_flower(config)
    except SizeLimitError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "text":
        verdict = "valid" if report.valid else "invalid: " + "; ".join(report.reasons)
        _emit((verdict, "\n"), args.out, stdout)
    else:
        _emit(_json_chunks(report.to_obj()), args.out, stdout)
    return 0 if report.valid else 1


def _cmd_flower_render(args, stdout, stderr) -> int:
    from . import geometry

    config = _flower_config(args)
    try:
        placements = geometry.layout(config)
    except geometry.InvalidFlowerError as exc:
        stderr.write(f"{exc}\n")
        return 1
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    svg = geometry.render_svg(placements)
    _emit((svg,), args.out, stdout)
    return 0


def _cmd_discrepancy(args, stdout, stderr) -> int:
    from . import discrepancy

    payload = {
        "radius_example": discrepancy.radius_example_report(),
        "radius_expansion": discrepancy.radius_expansion_report(),
    }
    _emit(_json_chunks(payload), args.out, stdout)
    ok = (
        payload["radius_example"]["internal_agreement"]["all"]
        and payload["radius_expansion"]["computed_symmetric"]
        and payload["radius_expansion"]["constant_coefficient_ok"]
    )
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowerlab",
        description="Exact arithmetic for coin-graph flowers and tangent circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "text")):
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("pn", help="print the n-petal flower polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", choices=("recursive", "product"), default="recursive",
                   help=f"construction route (both go up to n = {flowerpoly.MAX_N})")
    common(p)
    p.set_defaults(func=_cmd_pn)

    p = sub.add_parser("cn", help="print the closure polynomial (square of pn)")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cn)

    p = sub.add_parser("verify", help="run structural identity checks")
    p.add_argument("--n", type=int, required=True)
    for check in ("all", *flowerpoly.VERIFY_CHECKS):
        p.add_argument(f"--{check}", action="store_true")
    common(p, fmt=("text", "json"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("soddy-gen", help="expand one parameter tuple")
    p.add_argument("--params", type=int, nargs=4, required=True,
                   metavar=("M1", "N1", "M2", "N2"))
    common(p)
    p.set_defaults(func=_cmd_soddy_gen)

    p = sub.add_parser("soddy-scan", help="audit the parameter lattice")
    p.add_argument("--bound", type=int, required=True)
    common(p, fmt=("json", "csv"))
    p.set_defaults(func=_cmd_soddy_scan)

    p = sub.add_parser("graham", help="integer curvature quadruples")
    p.add_argument("--bound", type=int, required=True)
    common(p, fmt=("json", "csv"))
    p.set_defaults(func=_cmd_graham)

    p = sub.add_parser("pyth", help="primitive solutions of x^2 + beta*y^2 = z^2")
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    common(p, fmt=())
    p.set_defaults(func=_cmd_pyth)

    p = sub.add_parser("flower", help="validate or render a flower from radii")
    fsub = p.add_subparsers(dest="flower_command", required=True)

    pc = fsub.add_parser("check", help="validate a configuration")
    pc.add_argument("radii", nargs="+",
                    help="center radius then petal radii, integers or p/q")
    common(pc)
    pc.set_defaults(func=_cmd_flower_check)

    pr = fsub.add_parser("render", help="write an SVG drawing")
    pr.add_argument("radii", nargs="+")
    pr.add_argument("--out", required=True, help="output SVG path ('-' for stdout)")
    pr.set_defaults(func=_cmd_flower_render, format="svg")

    p = sub.add_parser("discrepancy",
                       help="recompute the recorded reference comparisons")
    common(p, fmt=())
    p.set_defaults(func=_cmd_discrepancy)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; normalize --help (exit 0) and
        # usage errors (exit 2).
        return int(exc.code or 0)
    try:
        return args.func(args, stdout, stderr)
    except UsageError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0
    except Exception as exc:
        # Exit 1 means "a check failed", so a crash gets a code of its own.
        detail = " ".join(str(exc).split())
        stderr.write(f"internal error: {type(exc).__name__}: {detail}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
