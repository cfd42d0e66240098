"""The chunked JSON writers against ``json.dumps(to_obj(), indent=2)``, and
the heap they save on the CLI's largest outputs."""

import io
import json
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowerlab import cli, flowerpoly
from flowerlab.flowerpoly import FlowerPolySet, closure_product_poly, flower_poly
from flowerlab.ratpoly import SparsePoly, poly_json_chunks, poly_to_obj
from flowerlab.soddy import ScanResult, scan_lattice

COEFFICIENTS = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


def polys(nvars):
    monomials = st.tuples(*[st.integers(0, 12)] * nvars)
    return st.builds(SparsePoly, st.just(nvars), st.dictionaries(monomials, COEFFICIENTS, max_size=10))


def nested_in_lists(obj, depth: int) -> str:
    """The text of ``obj`` inside ``depth`` one-element lists, cut out of
    ``json.dumps(indent=2)`` of the whole document."""
    doc = obj
    for _ in range(depth):
        doc = [doc]
    text = json.dumps(doc, indent=2)
    head = "".join("[\n" + "  " * (k + 1) for k in range(depth))
    tail = "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head):len(text) - len(tail)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(polys), st.integers(0, 3))
def test_poly_chunks_match_indented_dumps(poly, depth):
    assert "".join(poly_json_chunks(poly, depth)) == nested_in_lists(poly_to_obj(poly), depth)


@pytest.mark.parametrize("poly", [
    SparsePoly.zero(3),  # "terms": []
    SparsePoly.zero(0),  # "vars": [] and "terms": []
    SparsePoly.const(0, F(-7, 3)),  # "vars": [] and "e": []
    SparsePoly.variable(1, 0),
], ids=["zero", "zero-nvars0", "const-nvars0", "x1"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_poly_chunks_empty_lists(poly, depth):
    assert "".join(poly_json_chunks(poly, depth)) == nested_in_lists(poly_to_obj(poly), depth)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("provenance", [{}, {"pn": "recursive"}])
def test_flower_poly_set_chunks_without_cn(n, provenance):
    bundle = FlowerPolySet(n, provenance, flower_poly(n))
    assert "".join(bundle.json_chunks()) == json.dumps(bundle.to_obj(), indent=2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("provenance", [{}, {"pn": "recursive", "cn": "definitional"}])
def test_flower_poly_set_chunks_with_cn(n, provenance):
    bundle = FlowerPolySet(n, provenance, flower_poly(n), closure_product_poly(n))
    assert "".join(bundle.json_chunks()) == json.dumps(bundle.to_obj(), indent=2)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6])
def test_scan_result_chunks(bound):
    result = scan_lattice(bound)
    chunks = list(result.json_chunks())
    assert len(chunks) == len(result.records) + 2
    assert "".join(chunks) == json.dumps(result.to_obj(), indent=2)


def test_scan_result_chunks_without_records():
    result = ScanResult(bound=1, records=(), summary={})
    assert "".join(result.json_chunks()) == json.dumps(result.to_obj(), indent=2)


def heap_peak_mb(argv) -> float:
    flowerpoly.clear_cache()
    tracemalloc.start()
    try:
        assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_pn6_heap_peak():
    # 30.9 MB when the output was a dict tree dumped in one string; the
    # polynomial itself takes 6.8 MB and its JSON text 2.7 MB.
    assert heap_peak_mb(["pn", "--n", "6"]) < 15


def test_scan_bound8_heap_peak():
    # 12.7 MB when the output was a dict tree dumped in one string, 2.8 MB
    # in chunks, of which 1.4 MB is the JSON text itself.
    assert heap_peak_mb(["soddy-scan", "--bound", "8"]) < 6
