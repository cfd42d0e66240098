"""Spans around flowerlab's layers, recorded from outside the library.

``Tracer.install`` replaces each traced function at every place where a
caller looks it up (a module attribute such as ``soddy.angle_sum_residual``
or a class attribute such as ``SparsePoly.__mul__``) with a wrapper that
records a span while a job is open.  ``Tracer.restore`` puts the originals
back.  Nothing in ``src/`` is modified.

A span is the tuple ``(span_id, parent_id, job_id, name, start, end,
self_s)``.  The root span of a job is opened by the benchmark around one
CLI invocation or one library request and has parent ``None``; every other
span has the innermost open span as its parent.  Self time is the span's
duration minus the durations of its direct children.  Spans stay in memory;
``totals`` aggregates ``<name>.calls`` and ``<name>.self_s`` plus the
counts the hooks below add (terms out, cache hits, scan redundancy).  A
recursion step of ``flower_poly`` (a cold build of P_n) also gets
``<name>.own_s``: its duration less the nested ``flower_poly`` calls, so it
includes the multiplications the step does but not the build of P_(n-1).

``PER_LAYER`` lists the per-layer metrics the traced run reports, each with
the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import gcd
from time import perf_counter

# (metric, unit, better, totals key or (numerator, denominator) keys,
#  the end-to-end metrics it should move)
PER_LAYER = [
    ("ratpoly.mul.calls", "count", "lower", "ratpoly.mul.calls",
     "verify5_s, cn5_s (construct); pn6_s after the norm-form recursion"),
    ("ratpoly.mul.self_s", "s", "lower", "ratpoly.mul.self_s", "verify5_s, cn5_s"),
    ("ratpoly.mul.terms_out", "count", "lower", "ratpoly.mul.terms_out", "verify5_s, cn5_s"),
    ("ratpoly.evaluate.calls", "count", "lower", "ratpoly.evaluate.calls",
     "req_p50_ms, req_p99_ms (check)"),
    ("ratpoly.evaluate.self_s", "s", "lower", "ratpoly.evaluate.self_s",
     "req_p50_ms, req_p99_ms (check)"),
    ("ratpoly.specialize.self_s", "s", "lower", "ratpoly.specialize.self_s", "verify5_s"),
    ("ratpoly.permute.self_s", "s", "lower", "ratpoly.permute.self_s", "verify5_s"),
    ("ratpoly.poly_to_obj.self_s", "s", "lower", "ratpoly.poly_to_obj.self_s", "pn6_s, cn5_s"),
    ("mixedring.mul.calls", "count", "lower", "mixedring.mul.calls", "pn6_s, cn5_s (construct)"),
    ("mixedring.mul.self_s", "s", "lower", "mixedring.mul.self_s", "pn6_s, cn5_s"),
    ("mixedring.mul.terms_out", "count", "lower", "mixedring.mul.terms_out", "pn6_s, cn5_s"),
    ("mixedring.apply_sign.self_s", "s", "lower", "mixedring.apply_sign.self_s", "verify5_s"),
    ("mixedring.poly_at_mixed.self_s", "s", "lower", "mixedring.poly_at_mixed.self_s",
     "verify5_s"),
    *[
        (f"flowerpoly.step_n{n}_s", "s", "lower", f"flowerpoly.step_n{n}.own_s",
         "pn6_s (construct), setup_s (check)")
        for n in (3, 4, 5, 6)
    ],
    *[
        (f"flowerpoly.step_n{n}_terms", "count", "lower",
         (f"flowerpoly.step_n{n}.terms", f"flowerpoly.step_n{n}.calls"),
         "pn6_s (construct), setup_s (check)")
        for n in (3, 4, 5, 6)
    ],
    ("flowerpoly.cache_hit_ratio", "ratio", "higher",
     ("flowerpoly.cache_hits", "flowerpoly.cache_lookups"), "pn6_s, verify5_s, cn5_s"),
    ("flowerpoly.closure_product_s", "s", "lower", "flowerpoly.closure_product.self_s",
     "cn5_s, verify5_s"),
    ("flowerpoly.product_route_s", "s", "lower", "flowerpoly.product_route.self_s",
     "cn5_s, verify5_s"),
    *[
        (f"flowerpoly.verify_{check}_s", "s", "lower", f"flowerpoly.verify_{check}.self_s",
         "verify5_s")
        for check in ("square", "symmetry", "specialization", "recursion", "monic")
    ],
    ("flowerpoly.radius_expansion_s", "s", "lower", "flowerpoly.radius_expansion.self_s",
     "wall_s (construct)"),
    ("soddy.solve_radii.calls", "count", "lower", "soddy.solve_radii.calls",
     "scan_tuples_per_s (enumerate), req_p50_ms (check)"),
    ("soddy.solve_radii.self_s", "s", "lower", "soddy.solve_radii.self_s",
     "scan_tuples_per_s (enumerate), req_p50_ms (check)"),
    ("soddy.quadratic_make.calls", "count", "lower", "soddy.quadratic_make.calls",
     "req_p99_ms (check)"),
    ("soddy.quadratic_make.self_s", "s", "lower", "soddy.quadratic_make.self_s",
     "req_p99_ms (check)"),
    ("soddy.scan_lattice.self_s", "s", "lower", "soddy.scan_lattice.self_s",
     "scan_tuples_per_s (enumerate)"),
    ("soddy.scan.redundant_solve_ratio", "ratio", "lower",
     ("soddy.scan.redundant_solves", "soddy.scan.solves"),
     "scan_tuples_per_s (enumerate)"),
    ("soddy.graham_quadruples.self_s", "s", "lower", "soddy.graham_quadruples.self_s",
     "wall_s (enumerate)"),
    ("soddy.angle_sum_escalations", "count", "lower", "soddy.angle_sum_escalations",
     "scan_tuples_per_s (enumerate)"),
    ("geometry.validate_flower.calls", "count", "lower", "geometry.validate_flower.calls",
     "req_p50_ms, req_p99_ms (check)"),
    ("geometry.validate_flower.self_s", "s", "lower", "geometry.validate_flower.self_s",
     "req_p50_ms, req_p99_ms (check)"),
    ("geometry.angle_sum_residual.calls", "count", "lower",
     "geometry.angle_sum_residual.calls", "req_p50_ms, req_p99_ms (check)"),
    ("geometry.angle_sum_residual.self_s", "s", "lower",
     "geometry.angle_sum_residual.self_s", "req_p50_ms, req_p99_ms (check)"),
    ("geometry.flower_cosines.self_s", "s", "lower", "geometry.flower_cosines.self_s",
     "req_p50_ms, req_p99_ms (check)"),
    ("pythag.generate_triples.self_s", "s", "lower", "pythag.generate_triples.self_s",
     "wall_s (enumerate)"),
    ("pythag.generate_triples.triples_out", "count", "higher",
     "pythag.generate_triples.triples_out", "wall_s (enumerate)"),
    ("pythag.brute_force_triples.self_s", "s", "lower", "pythag.brute_force_triples.self_s",
     "wall_s (enumerate)"),
    ("cli.self_s", "s", "lower", "cli.self_s", "pn6_s, cn5_s (construct), wall_s (enumerate)"),
    ("discrepancy.self_s", "s", "lower", "discrepancy.self_s", "wall_s (construct)"),
    ("request.self_s", "s", "lower", "request.self_s", "req_p50_ms (check)"),
]


def per_layer_metrics(totals: dict) -> dict:
    """The PER_LAYER metrics from one set of aggregated totals.  A ratio
    over zero calls reads 0; step terms are per cold build."""
    out = {}
    for name, unit, _, key, _ in PER_LAYER:
        if isinstance(key, tuple):
            num, den = totals.get(key[0], 0), totals.get(key[1], 0)
            if not den:
                value = 0
            else:
                value = num // den if unit == "count" else num / den
        else:
            value = totals.get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# Counts that must repeat exactly between two traced rounds on the same inputs.
EXACT_COUNTS = (
    "flowerpoly.step_n3.terms", "flowerpoly.step_n4.terms",
    "flowerpoly.step_n5.terms", "flowerpoly.step_n6.terms",
    "soddy.scan.tuples", "soddy.scan.solves", "soddy.scan.redundant_solves",
    "soddy.graham_quadruples.records_out",
    "soddy.quadratic_make.calls", "mixedring.mul.calls",
    "ratpoly.mul.calls", "ratpoly.evaluate.calls", "soddy.solve_radii.calls",
    "soddy.angle_sum_escalations", "geometry.validate_flower.calls",
    "pythag.generate_triples.triples_out",
)


class Tracer:
    """In-memory span recorder with wrappers installed at lookup points."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = {}
        # Open frames: [span_id, start, child time, child flower_poly time].
        self._stack: list[list] = []
        self._job = None
        self._next_id = 0
        self._installed: list[tuple] = []  # (owner, attr, original raw value)
        self._returned_polys: set[int] = set()

    # -- recording ----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, counts: dict | None = None) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, start, child, child_builds = frame
        duration = end - start
        self_s = duration - child
        is_build = name.startswith("flowerpoly.step_n") or name == "flowerpoly.flower_poly"
        if name.startswith("flowerpoly.step_n"):
            self._add(name + ".own_s", duration - child_builds)
        parent = None
        if self._stack:
            parent_frame = self._stack[-1]
            parent_frame[2] += duration
            if is_build:
                parent_frame[3] += duration
            parent = parent_frame[0]
        self.spans.append((span_id, parent, self._job, name, start, end, self_s))
        self._add(name + ".calls", 1)
        self._add(name + ".self_s", self_s)
        if counts:
            for key, value in counts.items():
                self._add(key, value)

    @contextmanager
    def job(self, name: str):
        """Root span of one job: a CLI invocation or a library request."""
        frame = self._open()
        self._job = frame[0]
        try:
            yield
        finally:
            self._close(frame, name)
            self._job = None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._job is None:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name)
                raise
            label, counts = (name, None) if hook is None else hook(args, result)
            tracer._close(frame, label or name, counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def trace(self, name: str, sites, hook=None, static: bool = False) -> None:
        """Wrap the function found at every (owner, attr) site under one span name.

        All sites must hold the same function; ``static`` re-binds a
        classmethod so that calls through the class keep working.
        """
        original = getattr(*sites[0])
        for owner, attr in sites[1:]:
            if getattr(owner, attr) != original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the traced function")
        wrapper = self._wrap(original, name, hook)
        for owner, attr in sites:
            self._set(owner, attr, staticmethod(wrapper) if static else wrapper)

    def restore(self) -> None:
        """Put every original back, last installed first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- flowerlab layers -------------------------------------------------------

    def install(self, flowerlab) -> None:
        """Install wrappers on every traced flowerlab layer.

        ``flowerlab`` is a namespace with the package's modules as attributes.
        """
        ratpoly, mixedring, flowerpoly = flowerlab.ratpoly, flowerlab.mixedring, flowerlab.flowerpoly
        soddy, geometry, pythag = flowerlab.soddy, flowerlab.geometry, flowerlab.pythag
        discrepancy = flowerlab.discrepancy

        def terms_out(key):
            def hook(args, result):
                if result is NotImplemented:
                    return None, None
                return None, {key: len(result)}
            return hook

        self.trace("ratpoly.mul", [(ratpoly.SparsePoly, "__mul__")],
                   terms_out("ratpoly.mul.terms_out"))
        self.trace("ratpoly.evaluate", [(ratpoly.SparsePoly, "evaluate")])
        self.trace("ratpoly.specialize", [(ratpoly.SparsePoly, "specialize")])
        self.trace("ratpoly.permute", [(ratpoly.SparsePoly, "permute")])
        self.trace("ratpoly.poly_to_obj", [(ratpoly, "poly_to_obj")])
        self.trace("mixedring.mul", [(mixedring.MixedElement, "__mul__")],
                   terms_out("mixedring.mul.terms_out"))
        self.trace("mixedring.apply_sign", [(mixedring, "apply_sign"), (flowerpoly, "apply_sign")])
        self.trace("mixedring.poly_at_mixed",
                   [(mixedring, "poly_at_mixed"), (flowerpoly, "poly_at_mixed")])

        returned = self._returned_polys

        def flower_poly_hook(args, result):
            # A hit returns an object already returned since the last clear_cache().
            hit = id(result) in returned
            returned.add(id(result))
            counts = {"flowerpoly.cache_lookups": 1, "flowerpoly.cache_hits": int(hit)}
            if hit:
                return "flowerpoly.flower_poly", counts
            name = f"flowerpoly.step_n{args[0]}"
            counts[name + ".terms"] = len(result)
            return name, counts

        self.trace("flowerpoly.flower_poly",
                   [(flowerpoly, "flower_poly"), (geometry, "flower_poly")], flower_poly_hook)
        clear_cache = flowerpoly.clear_cache

        def traced_clear_cache():
            returned.clear()
            return clear_cache()

        self._set(flowerpoly, "clear_cache", traced_clear_cache)
        self.trace("flowerpoly.closure_product", [(flowerpoly, "closure_product_poly")])
        self.trace("flowerpoly.product_route", [(flowerpoly, "flower_poly_from_product")])
        for check, attr in (("square", "verify_square"), ("symmetry", "verify_symmetry"),
                            ("specialization", "verify_specialization"),
                            ("recursion", "verify_general_recursion"), ("monic", "verify_monic")):
            self.trace(f"flowerpoly.verify_{check}", [(flowerpoly, attr)])
        self.trace("flowerpoly.radius_expansion",
                   [(flowerpoly, "radius_expansion"), (discrepancy, "radius_expansion")])

        self.trace("soddy.solve_radii", [(soddy, "solve_radii"), (discrepancy, "solve_radii")])
        self.trace("soddy.quadratic_make", [(soddy.QuadraticValue, "make")], static=True)
        scan_tuple = soddy._scan_tuple

        def traced_scan_tuple(params):
            # Not a span: counts the solves of tuples that are multiples of a
            # reduced pair, whose records repeat those of the reduced tuple.
            before = self.totals.get("soddy.solve_radii.calls", 0)
            try:
                return scan_tuple(params)
            finally:
                if self._job is not None:
                    m1, n1, m2, n2 = params
                    solves = self.totals.get("soddy.solve_radii.calls", 0) - before
                    self._add("soddy.scan.tuples", 1)
                    self._add("soddy.scan.solves", solves)
                    if gcd(m1, n1) > 1 or gcd(m2, n2) > 1:
                        self._add("soddy.scan.redundant_solves", solves)

        self._set(soddy, "_scan_tuple", traced_scan_tuple)
        self.trace("soddy.scan_lattice", [(soddy, "scan_lattice")])
        self.trace("soddy.graham_quadruples", [(soddy, "graham_quadruples")],
                   terms_out("soddy.graham_quadruples.records_out"))
        self.trace("geometry.validate_flower",
                   [(geometry, "validate_flower"), (discrepancy, "validate_flower")])
        self.trace("geometry.angle_sum_residual", [(geometry, "angle_sum_residual")])
        # The solver's calls into the 40-digit check are its escalations.
        self.trace("geometry.angle_sum_residual", [(soddy, "angle_sum_residual")],
                   lambda args, result: (None, {"soddy.angle_sum_escalations": 1}))
        self.trace("geometry.flower_cosines", [(geometry, "flower_cosines")])
        self.trace("pythag.generate_triples", [(pythag, "generate_triples")],
                   terms_out("pythag.generate_triples.triples_out"))
        self.trace("pythag.brute_force_triples", [(pythag, "brute_force_triples")])
        self.trace("discrepancy", [(discrepancy, "radius_example_report")])
        self.trace("discrepancy", [(discrepancy, "radius_expansion_report")])

    # -- checks -----------------------------------------------------------------

    def span_problems(self) -> list[str]:
        """Spans without a parent inside their own job, or with negative self time."""
        by_id = {s[0]: s for s in self.spans}
        problems = []
        for span_id, parent, job, name, start, end, self_s in self.spans:
            if self_s < 0:
                problems.append(f"span {span_id} ({name}) has self time {self_s}")
            if parent is None:
                if span_id != job:
                    problems.append(f"span {span_id} ({name}) has no parent")
                continue
            p = by_id.get(parent)
            if p is None or p[2] != job or not (p[4] <= start and end <= p[5]):
                problems.append(f"span {span_id} ({name}) is not inside a parent of job {job}")
        return problems
