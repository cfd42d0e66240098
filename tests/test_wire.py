"""The one wire rule behind every result record (``ratpoly.wire`` and
``ratpoly.Record``), the records' output bytes pinned as sha256 digests,
and the short list of values that write their own encoder."""

import hashlib
import importlib
import io
import json
import pkgutil
from dataclasses import dataclass
from fractions import Fraction

import pytest

import flowerlab
from flowerlab import flowerpoly, geometry, pythag, soddy
from flowerlab.cli import run
from flowerlab.ratpoly import Record, format_rational, wire

F = Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_fraction_becomes_the_format_rational_string():
    for value in (F(0), F(7), F(-3, 5), F(10**40 + 1, 3)):
        assert wire(value) == format_rational(value)
    assert json.dumps(wire(F(6, 4))) == '"3/2"'


def test_ints_stay_numbers_and_bools_stay_bools():
    assert json.dumps(wire([3, -1, True, False, 0])) == "[3, -1, true, false, 0]"
    assert type(wire(True)) is bool and type(wire(1)) is int


def test_none_nested_tuples_and_dicts_pass_through():
    value = {"a": (F(1, 2), (None, "s", 1.5)), "b": [], "c": {"d": (F(4),)}}
    assert wire(value) == {"a": ["1/2", [None, "s", 1.5]], "b": [], "c": {"d": ["4"]}}


def test_any_other_value_is_encoded_by_its_own_to_obj():
    class Own:
        def to_obj(self):
            return "own"

    assert wire((Own(), F(1))) == ["own", "1"]
    with pytest.raises(AttributeError):
        wire(object())


@dataclass(frozen=True)
class Sample(Record):
    first: Fraction
    inner: tuple
    flag: bool

    WIRE_EXTRA = ("twice",)

    @property
    def twice(self) -> Fraction:
        return 2 * self.first


def test_a_record_writes_its_fields_in_order_then_its_extras():
    obj = Sample(F(1, 3), (Sample(F(1), (), False),), True).to_obj()
    assert list(obj) == ["first", "inner", "flag", "twice"]
    assert obj == {
        "first": "1/3",
        "inner": [{"first": "1", "inner": [], "flag": False, "twice": "2"}],
        "flag": True,
        "twice": "2/3",
    }


def test_a_cosine_triple_prints_int_cosines_as_strings():
    # CosTriple does not coerce its fields, so its encoder formats them.
    assert soddy.CosTriple(0, F(-1, 2), 1).to_obj() == ["0", "-1/2", "1"]
    report = soddy.solve_radii(soddy.CosTriple(0, F(-1, 2), F(-1, 2)))
    assert report.to_obj()["cosines"] == ["0", "-1/2", "-1/2"]


# sha256 of stdout and the exit code, as the hand-written encoders that
# ``Record`` replaced printed them.
CLI_GOLDEN = [
    (["soddy-gen", "--params", "2", "3", "2", "3"], 0,
     "e1c1d372325e576cf3a01e801c7e7d7af004ce1525dba66affafe6c50e43150c"),
    (["soddy-gen", "--params", "1", "2", "4", "5"], 0,
     "f353069995d2185ea040160b0c518b1a6bc782fb2162050dbb59148077f4b6a3"),
    (["soddy-gen", "--params", "2", "3", "2", "3", "--format", "text"], 0,
     "7c485304bad686d0414274a0c2c4e83014df72b9c30f8400abdbf6f8964a9200"),
    (["discrepancy"], 0,
     "073b7caec12e6efa5c4d290b9de7dc626fb64d7525f4d43e529b4eca5b99b2f9"),
    (["flower", "check", "6", "69", "46", "23"], 0,
     "f6fdf2472467c53a785e4c0b9250083a0d57c3fa3b3d979d76a31f74ffebea67"),
    (["flower", "check", "1", "1", "1", "1"], 1,
     "9beb5b0b9fe966b09bb9e3b5daf7e9edd1257281fba58418949b8b8f5562d708"),
    (["flower", "check", "1", "23/2", "23/3", "23/6"], 0,
     "004308236c3a1b65a20a6326306a5a5b242211b203acde20e40bd4711d4dfe4d"),
    (["flower", "check", "1", "1", "1", "1", "1", "1", "1"], 0,
     "d7c2faa30e5c9d3064ebfb75e45a06594c2ba6cb8346177dae91043ae65dda9b"),
    (["flower", "check", "3", "5", "8", "9", "8"], 0,
     "264d2cd53c72ebc2f4761cb23a3b1442eb4023857d2088766d450c34a444c9c2"),
    (["pyth", "--beta", "2", "--bound", "200"], 0,
     "a4166bfb8b24e0c8c019551fda6cf14917b89d0711507ddfeb4ec8cd0f3067c2"),
    (["pyth", "--beta", "2", "--bound", "200", "--brute-force"], 0,
     "05074a2f197bf9910d2b1bfef19bbfede74999eb6fc99f1f1699be3273d63144"),
    # The sign-conjugate towers at their largest sizes.
    (["cn", "--n", "5"], 0,
     "e993551d76e14a3a14158b275a4a30667b073423f2b092ee7ba73aedc75e9967"),
    (["pn", "--n", "6", "--route", "product"], 0,
     "6c1aecced2dd10d7b7f6f28186efddefc14c1840ca81e035797052c8a1539d92"),
]


@pytest.mark.parametrize("argv, code, digest", CLI_GOLDEN,
                         ids=["_".join(argv) for argv, _, _ in CLI_GOLDEN])
def test_cli_output_bytes_are_pinned(argv, code, digest):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == code
    assert sha256(out.getvalue()) == digest
    assert err.getvalue() == ""


# sha256 of stdout and the exit code of the commands whose records wrote
# their own JSON or CSV before they followed ``Record`` (``verify`` and
# ``soddy-scan`` also write skipped checks or a summary to stderr).
RECORD_CLI_GOLDEN = [
    (["verify", "--n", "2", "--all", "--format", "json"], 0,
     "8b4de45a1f62bc339fc1f3d1d308a28b343b2ca6aa67bf2dc1dc59975ec14ca6"),
    (["verify", "--n", "3", "--all", "--format", "json"], 0,
     "ac78db646e0966467d8b8a910a49ef3a2d4cdd2a2b5f6937241b44b0874a06fe"),
    (["verify", "--n", "4", "--all", "--format", "json"], 0,
     "4a447f647ddc1281c56c95a8f39a53daae62741f4cf7e3a25d0c7caea96a0efe"),
    (["verify", "--n", "5", "--all", "--format", "json"], 0,
     "a760bc47bf88a0aef4d6c98170c91c00a8269c8e6dfe1a34ce483d3a7d566bee"),
    (["verify", "--n", "6", "--all", "--format", "json"], 0,
     "08fcfdbe4d4a073a5354d1b8b5f40adc47baec89a2fc97180770b6b28e8e0dc7"),
    (["verify", "--n", "6", "--symmetry", "--monic", "--format", "json"], 0,
     "11137bdb8c63588e3bfcf2d5ec18cddeca50fa8f0f2be55f5752aa4fce148fa5"),
    (["verify", "--n", "5", "--all"], 0,
     "51f82e35d84b2dcf08ea98dc9ede407b115e50d55bd0762a46a9f0014953fabf"),
    (["graham", "--bound", "60"], 0,
     "25a3a1951b5ab5db37b87227d948b23d9f808ed84e3e8c7196c06bb62759c719"),
    (["graham", "--bound", "60", "--format", "csv"], 0,
     "9d96cf356a9066321b99684ad3035228ccc935eb7b97e56e1c831df10ad853f0"),
    (["soddy-scan", "--bound", "6"], 0,
     "6cdced8e35fa705c726c9b3f2fdaa1c6b76f8f38dc3c05eb3c0af26da6cd16cc"),
    (["soddy-scan", "--bound", "6", "--format", "csv"], 0,
     "b1ee2e5fcfd65afb39733878bdf3f06d3fa8ffadaf7a16d4c75bd502b019f378"),
    (["pn", "--n", "4"], 0,
     "83ee22e968c3f7011c4246dbe14e34bfa789784286406e8cddec4f16fb21cdc6"),
    (["pn", "--n", "4", "--route", "product"], 0,
     "2ee768383db9925a8283a1e25c7aa017f25eb85ddffda27321e4f45f5f005457"),
    (["cn", "--n", "3"], 0,
     "3ac9b05645a094ae1b725b724b7d721be7599c14d434082fcaf223ae2a543a7e"),
]


@pytest.mark.parametrize("argv, code, digest", RECORD_CLI_GOLDEN,
                         ids=["_".join(argv) for argv, _, _ in RECORD_CLI_GOLDEN])
def test_record_cli_output_bytes_are_pinned(argv, code, digest):
    out = io.StringIO()
    assert run(argv, out, io.StringIO()) == code
    assert sha256(out.getvalue()) == digest


LIBRARY_GOLDEN = [
    # Irrational candidates: soddy-gen never prints them, because
    # parametrized triples always have square discriminants.
    (lambda: soddy.solve_radii((F(-1, 3), F(-2, 5), F(-1, 4))).to_obj(),
     "1af2b37fe35ced69bf892571a3ef49612756952af8bf115300d15859642ce262"),
    (lambda: [p.to_obj() for p in geometry.layout(geometry.FlowerConfig(6, (69, 46, 23)))],
     "40bac6b2ed0e8864d2e803876bc34b593984adc3a031732e8dedae30c58eff50"),
    (lambda: soddy.integer_scale(1, (F(54, 11), 26, F(351, 59))).to_obj(),
     "37ead3777aa290819b3f3ef009ce1d1a91a5abeff7480730fcdcaa5c5e5dc73b"),
    (lambda: soddy.scan_lattice(3).to_obj(),
     "f1414fe4b5bb3eb34f3dc2a4a9ab1709cb853fc537226e1d875a0c83709158c1"),
    (lambda: [r.to_obj() for r in soddy.graham_quadruples(20)],
     "e4c61b42134f58d0c610eedad0a1b317e29920bf82eac07cbf8924a19fc7a58b"),
]


@pytest.mark.parametrize("build, digest", LIBRARY_GOLDEN,
                         ids=["solve", "layout", "scale", "scan", "graham"])
def test_library_output_bytes_are_pinned(build, digest):
    assert sha256(json.dumps(build())) == digest


# Only values write their own encoder: a rational or a surd
# (QuadraticValue), a bare list (CosTriple, CurvatureQuad) and a polynomial
# (SparsePoly).  Every record follows ``wire``.
HAND_WRITTEN_ENCODERS = {"QuadraticValue", "CosTriple", "CurvatureQuad", "SparsePoly"}
CONVERTED_RECORDS = [
    geometry.FlowerConfig, geometry.ValidationReport, geometry.CirclePlacement,
    soddy.SolveReport, soddy.RadiiCandidate, soddy.ConstraintReport, soddy.ScaledFlower,
    soddy.GrahamRecord, soddy.GrahamRatios, soddy.ScanRecord, soddy.ScanResult,
    flowerpoly.CheckReport, flowerpoly.FlowerPolySet, pythag.Witness, pythag.PythSolution,
    pythag.PythTriple,
]


def test_only_the_listed_records_write_their_own_encoder():
    own = set()
    for info in pkgutil.iter_modules(flowerlab.__path__):
        module = importlib.import_module(f"flowerlab.{info.name}")
        own |= {
            value.__name__ for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and value is not Record and "to_obj" in value.__dict__
        }
    assert own == HAND_WRITTEN_ENCODERS
    for record in CONVERTED_RECORDS:
        assert issubclass(record, Record) and "to_obj" not in record.__dict__
