"""CLI behavior: exit codes, stream discipline, formats, determinism."""

import argparse
import dataclasses
import io
import json
import shlex
import time
from itertools import product
from pathlib import Path

import pytest

from flowerlab import cli, flowerpoly, geometry, pythag, soddy
from flowerlab.cli import build_parser, run
from flowerlab.flowerpoly import flower_poly
from flowerlab.ratpoly import SparsePoly
from oracles import evaluate_by_fractions, poly_from_json


def call(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_pn_json_round_trips():
    code, out, err = call(["pn", "--n", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["provenance"] == {"pn": "recursive"}
    assert poly_from_json(obj["pn"]) == flower_poly(3)
    assert obj["pn"]["vars"] == ["x1", "x2", "x3"]
    assert obj["cn"] is None


def test_pn_text():
    code, out, _ = call(["pn", "--n", "3", "--format", "text"])
    assert code == 0
    assert out.strip() == "-2*x1*x2*x3+x1^2+x2^2+x3^2-1"


def test_pn_product_route():
    code, out, _ = call(["pn", "--n", "4", "--route", "product"])
    assert code == 0
    obj = json.loads(out)
    assert obj["provenance"] == {"pn": "product"}
    assert poly_from_json(obj["pn"]) == flower_poly(4)
    # The product route reaches the ceiling: an independent P_6.
    code, out, _ = call(["pn", "--n", "6", "--route", "product"])
    assert code == 0
    assert json.loads(out)["pn"] == json.loads(call(["pn", "--n", "6"])[1])["pn"]
    code, out, err = call(["pn", "--n", "7", "--route", "product"])
    assert code == 2 and out == ""
    assert err == "error: flower_poly_from_product supports n in 2..6, got 7\n"


def test_cn_includes_square():
    code, out, _ = call(["cn", "--n", "2"])
    obj = json.loads(out)
    assert obj["provenance"]["cn"] == "definitional"
    cn = poly_from_json(obj["cn"])
    pn = flower_poly(2)
    assert cn == pn * pn


@pytest.mark.parametrize("n", ["1", "0"])
def test_cn_below_two_is_usage_error(n, tmp_path):
    # The closure product is P_n^2 only from n = 2 on; n = 1 used to crash.
    target = tmp_path / "cn.json"
    code, out, err = call(["cn", "--n", n, "--out", str(target)])
    assert code == 2 and out == ""
    assert err == f"error: closure_product_poly supports n in 2..5, got {n}\n"
    assert not target.exists()


def test_size_ceiling_is_usage_error():
    code, out, err = call(["pn", "--n", "99"])
    assert code == 2
    assert "ceiling" in err
    assert out == ""
    code, _, err = call(["verify", "--n", "7"])
    assert code == 2 and "2..6" in err


def test_verify_all_green():
    code, out, _ = call(["verify", "--n", "4", "--all"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines)
    names = {line.split()[1] for line in lines}
    assert names == {"square", "symmetry", "specialization", "general-recursion", "monic"}


def test_verify_json_format():
    code, out, _ = call(["verify", "--n", "3", "--square", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"check": "square", "n": 3, "ok": True, "detail": ""}]


def test_verify_skips_infeasible_checks():
    code, out, err = call(["verify", "--n", "6", "--square"])
    assert code == 0
    assert "skipped" in err
    assert out.strip() == ""
    # the asymmetric two-variable case is skipped rather than reported failing
    code, out, err = call(["verify", "--n", "2", "--all"])
    assert code == 0
    assert "symmetry" in err


def test_verify_reports_every_failing_check(monkeypatch):
    x1 = SparsePoly.variable(4, 0)
    monkeypatch.setitem(flowerpoly._RECURSION_CACHE, 4, flower_poly(4) + x1 ** 4)
    code, out, err = call(["verify", "--n", "4"])
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert len(lines) == 8 and all(line.startswith("FAIL ") for line in lines)
    code, out, _ = call(["verify", "--n", "4", "--format", "json"])
    assert code == 1
    assert [r["ok"] for r in json.loads(out)] == [False] * 8


def test_soddy_gen_reference_params():
    code, out, _ = call(["soddy-gen", "--params", "1", "2", "4", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["cosines"] == ["-3/5", "-9/41", "-133/205"]
    assert obj["constraints"]["all_hold"] is True
    assert obj["solve"]["valid_flowers"] == []
    assert obj["integer_scaled"] is None
    assert obj["sines"] == ["4/5", "40/41", "156/205"]


def test_soddy_gen_refuses_a_triple_on_the_wrong_branch():
    # Two cosines are just positive, so their angles are just under 90
    # degrees and the third is their sum: the angle sum misses 2*pi by
    # 4e-10, inside the float tolerance, but no flower closes.
    code, out, _ = call(["soddy-gen", "--params", "10000000001", "10000000000",
                         "10000000001", "10000000000"])
    assert code == 0
    obj = json.loads(out)
    assert obj["solve"]["angle_sum_residual"] < 1e-9
    assert obj["solve"]["angle_sum_ok"] is False
    assert obj["solve"]["valid_flowers"] == []
    assert obj["integer_scaled"] is None


def test_soddy_gen_solvable_params():
    code, out, _ = call(["soddy-gen", "--params", "1", "2", "2", "3"])
    obj = json.loads(out)
    assert obj["solve"]["valid_flowers"] == [{"center": "1", "petals": ["14", "6", "21/5"]}]
    assert obj["integer_scaled"]["scale"] == 5
    code, _, err = call(["soddy-gen", "--params", "0", "2", "2", "3"])
    assert code == 2


def test_soddy_gen_degenerate_params_is_usage_error():
    # m1*m2 = n1*n2 puts the third cosine at -1, where the radii system degenerates.
    for params in (["1", "1", "1", "1"], ["2", "1", "1", "2"]):
        code, out, err = call(["soddy-gen", "--params", *params])
        assert (code, out) == (2, "")
        assert err.startswith("error: params") and "degenerate" in err


@pytest.mark.parametrize("argv", [
    ["soddy-gen", "--params", "1", "2", "2", "3", "--tol", "1e-9"],
    ["flower", "check", "6", "69", "46", "23", "--tol", "1e-9"],
    ["flower", "render", "6", "69", "46", "23", "--out", "-", "--tol", "1e-9"],
    ["discrepancy", "--tol", "1e-9"],
    ["pyth", "--beta", "1", "--bound", "10", "--format", "text"],
    ["discrepancy", "--format", "json"],
], ids=["soddy-gen-tol", "check-tol", "render-tol", "discrepancy-tol", "pyth-format",
        "discrepancy-format"])
def test_retired_flags_are_usage_errors(argv, capsys):
    # The angle-sum tolerance is geometry.ANGLE_SUM_TOL, and pyth and
    # discrepancy have one output format each.
    code, out, _ = call(argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def test_soddy_scan_formats():
    code, out, err = call(["soddy-scan", "--bound", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["total"] == 81
    assert "scan summary" in err
    code, csv_out, _ = call(["soddy-scan", "--bound", "3", "--format", "csv"])
    lines = csv_out.strip().splitlines()
    assert lines[0].startswith("m1,n1,m2,n2,")
    assert len(lines) == 82
    assert csv_out.count("\r\n") == 82 and csv_out.endswith("\r\n")  # csv module line ends


def test_graham_output():
    code, out, _ = call(["graham", "--bound", "6"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all({"x", "m", "d1", "d2", "curvatures", "degenerate"} <= set(r) for r in records)
    code, csv_out, _ = call(["graham", "--bound", "6", "--format", "csv"])
    assert csv_out.splitlines()[0] == "x,m,d1,d2,b1,b2,b3,b4,degenerate"
    assert csv_out.count("\r\n") == len(records) + 1 and "\n" not in csv_out.replace("\r\n", "")


def test_pyth_json_lines():
    code, out, _ = call(["pyth", "--beta", "1", "--bound", "5"])
    assert code == 0
    sols = [json.loads(line) for line in out.strip().splitlines()]
    assert [(s["x"], s["y"], s["z"]) for s in sols] == [(3, 4, 5), (4, 3, 5)]
    assert all(s["witnesses"] for s in sols)
    code, out, _ = call(["pyth", "--beta", "1", "--bound", "5", "--brute-force"])
    sols = [json.loads(line) for line in out.strip().splitlines()]
    assert [(s["x"], s["y"], s["z"]) for s in sols] == [(3, 4, 5), (4, 3, 5)]
    code, _, err = call(["pyth", "--beta", "12", "--bound", "5"])
    assert code == 2 and "square-free" in err


def test_pyth_ten_digit_beta():
    code, out, err = call(["pyth", "--beta", "9999999967", "--bound", "10"])
    assert (code, out, err) == (0, "", "")


def test_pyth_beta_above_the_ceiling_is_usage_error():
    start = time.perf_counter()
    code, out, err = call(["pyth", "--beta", "10000000000000000037", "--bound", "10"])
    assert (code, out) == (2, "")
    assert err == "error: beta must be at most 1000000000000, got 10000000000000000037\n"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [
    ["graham", "--bound", str(soddy.MAX_GRAHAM_BOUND + 1)],
    ["pyth", "--beta", "1", "--bound", str(pythag.MAX_BOUND + 1)],
    ["pyth", "--beta", "1", "--bound", str(pythag.MAX_BRUTE_FORCE_BOUND + 1), "--brute-force"],
    ["pyth", "--beta", "1", "--bound", "10" + "0" * 12],
], ids=["graham", "pyth", "pyth-brute-force", "pyth-huge"])
def test_bound_above_the_ceiling_is_usage_error(argv):
    start = time.perf_counter()
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bound must be in 1..") and err.count("\n") == 1
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("build, argv", [
    (lambda: flowerpoly.flower_poly(flowerpoly.MAX_N + 1),
     ["pn", "--n", str(flowerpoly.MAX_N + 1)]),
    (lambda: geometry.validate_flower(geometry.FlowerConfig(1, (1,) * (flowerpoly.MAX_N + 1))),
     ["flower", "check", *["1"] * (flowerpoly.MAX_N + 2)]),
    (lambda: soddy.scan_lattice(soddy.MAX_SCAN_BOUND + 1),
     ["soddy-scan", "--bound", str(soddy.MAX_SCAN_BOUND + 1)]),
    (lambda: soddy.graham_quadruples(soddy.MAX_GRAHAM_BOUND + 1),
     ["graham", "--bound", str(soddy.MAX_GRAHAM_BOUND + 1)]),
    (lambda: pythag.generate_triples(1, pythag.MAX_BOUND + 1),
     ["pyth", "--beta", "1", "--bound", str(pythag.MAX_BOUND + 1)]),
    (lambda: pythag.brute_force_triples(1, pythag.MAX_BRUTE_FORCE_BOUND + 1),
     ["pyth", "--beta", "1", "--bound", str(pythag.MAX_BRUTE_FORCE_BOUND + 1), "--brute-force"]),
    (lambda: pythag.generate_triples(pythag.MAX_BETA + 1, 10),
     ["pyth", "--beta", str(pythag.MAX_BETA + 1), "--bound", "10"]),
], ids=["flower_poly", "validate_flower", "scan_lattice", "graham_quadruples", "generate_triples",
        "brute_force_triples", "beta"])
def test_library_ceilings_refuse_one_past_the_limit(build, argv):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        build()
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 0.5


def test_benchmark_bounds_are_accepted():
    assert soddy.MAX_GRAHAM_BOUND >= 200
    assert pythag.MAX_BOUND >= 1000 and pythag.MAX_BRUTE_FORCE_BOUND >= 1000


def test_pyth_rejects_non_positive_beta():
    for beta, flags in product(("0", "-3"), ([], ["--brute-force"])):
        code, out, err = call(["pyth", "--beta", beta, "--bound", "10", *flags])
        assert (code, out) == (2, "")
        assert err == f"error: beta must be a positive integer, got {beta}\n"


def test_pyth_brute_force_refuses_a_beta_that_is_not_square_free(tmp_path):
    target = tmp_path / "triples.json"
    code, out, err = call(["pyth", "--beta", "4", "--bound", "10", "--brute-force",
                           "--out", str(target)])
    assert (code, out, err) == (2, "", "error: beta = 4 is not square-free\n")
    assert not target.exists()


def test_flower_check_valid_and_invalid():
    code, out, _ = call(["flower", "check", "6", "69", "46", "23"])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True and report["variety_residual"] == "0"
    code, out, _ = call(["flower", "check", "1", "1", "1", "1"])
    assert code == 1
    assert json.loads(out)["valid"] is False
    code, out, _ = call(["flower", "check", "1", "23/2", "23/3", "23/6"])
    assert code == 0


# A mirror-symmetric flower with one petal moved by 1e-9: P_n still vanishes
# there (n even), and the angle sum misses 2*pi by less than ANGLE_SUM_TOL.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("radii", [
    "1 3 2 3000000001/1000000000 2",
    "1 1 1 1 1000000001/1000000000 1 1",
], ids=["kite", "hexagon"])
def test_flower_check_rejects_a_petal_moved_off_a_mirror_flower(radii):
    code, out, _ = call(["flower", "check", *radii.split()])
    assert code == 1 and json.loads(out)["valid"] is False


def test_flower_check_six_petals_matches_the_oracle_report():
    radii = ["236", "236", "236", "237", "236", "236", "236"]
    code, out, _ = call(["flower", "check", *radii])
    config = geometry.FlowerConfig(236, (236, 236, 237, 236, 236, 236))
    report = geometry.validate_flower(config)
    residual = evaluate_by_fractions(flower_poly(6), report.cosines)
    expected = dataclasses.replace(report, variety_residual=residual).to_obj()
    assert code == 1
    assert out == json.dumps(expected, indent=2) + "\n"


def test_flower_check_usage_errors():
    code, _, err = call(["flower", "check", "1", "2", "3"])
    assert code == 2  # needs center plus three petals
    code, _, err = call(["flower", "check", "1", "2", "x", "4"])
    assert code == 2
    code, _, err = call(["flower", "check", "1", "-2", "3", "4"])
    assert code == 2


def test_flower_check_refuses_exponent_notation_at_once():
    # Fraction would expand 1e10000000 to a 33-million-bit radius first.
    start = time.perf_counter()
    code, out, err = call(["flower", "check", "1e10000000", "1", "1", "1"])
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", "error: not a rational number: '1e10000000'\n")
    code, out, _ = call(["flower", "check", " 6 ", "69", "+46", "46/2"])
    assert code == 0 and json.loads(out)["valid"] is True


def test_cn_gate_runs_before_the_recursion():
    flowerpoly.clear_cache()
    code, out, err = call(["cn", "--n", "6"])
    assert (code, out) == (2, "")
    assert flowerpoly._RECURSION_CACHE == {}


def test_flower_render_to_file(tmp_path):
    target = tmp_path / "flower.svg"
    code, out, _ = call(["flower", "render", "6", "69", "46", "23", "--out", str(target)])
    assert code == 0
    svg = target.read_text()
    assert svg.count("<circle") == 4
    code, out, _ = call(["flower", "render", "6", "69", "46", "23", "--out", "-"])
    assert out == svg
    code, _, err = call(["flower", "render", "1", "1", "1", "1", "--out", "-"])
    assert code == 1


def test_flower_render_of_an_invalid_flower_exits_1(tmp_path, monkeypatch):
    validations = []
    validate = geometry.validate_flower
    monkeypatch.setattr(geometry, "validate_flower",
                        lambda config: validations.append(config) or validate(config))
    target = tmp_path / "flower.svg"
    code, out, err = call(["flower", "render", "1", "1", "1", "1", "--out", str(target)])
    reasons = validate(geometry.FlowerConfig(1, (1, 1, 1))).reasons
    assert (code, out) == (1, "")
    assert err == "not a valid flower: " + "; ".join(reasons) + "\n"
    assert len(validations) == 1 and not target.exists()
    # The size ceiling stays a usage error.
    code, out, err = call(["flower", "render", *["1"] * 8, "--out", str(target)])
    assert (code, out) == (2, "") and err.startswith("error: ") and not target.exists()


def test_flower_render_decides_the_exit_code_by_exception_type(monkeypatch):
    def refuse(error):
        def layout(config):
            raise error
        return layout

    argv = ["flower", "render", "6", "69", "46", "23", "--out", "-"]
    monkeypatch.setattr(geometry, "layout", refuse(geometry.InvalidFlowerError("odd petals")))
    assert call(argv) == (1, "", "odd petals\n")
    monkeypatch.setattr(geometry, "layout", refuse(ValueError("not a valid flower: x")))
    assert call(argv) == (2, "", "error: not a valid flower: x\n")


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "p3.json"
    code, out, _ = call(["pn", "--n", "3", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_path_that_cannot_be_opened_is_usage_error(tmp_path, where):
    target = tmp_path / "absent" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = call(["pn", "--n", "3", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["pn", "--n", "4"],
    ["pn", "--n", "3", "--route", "product"],
    ["cn", "--n", "3"],
    ["soddy-scan", "--bound", "3"],
    ["soddy-scan", "--bound", "3", "--format", "csv"],
    ["graham", "--bound", "20", "--format", "csv"],
    ["pyth", "--beta", "2", "--bound", "100"],
])
def test_out_file_bytes_equal_stdout_bytes(argv, tmp_path):
    target = tmp_path / "out"
    code, out, _ = call(argv)
    assert code == 0
    assert call(argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_bytes() == out.encode()


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv, writes", [
    (["soddy-scan", "--bound", "2"], 19),  # head, 16 records, tail, newline
    (["soddy-scan", "--bound", "2", "--format", "csv"], 17),  # header, 16 rows
    (["graham", "--bound", "20"], None),  # None: one write per line
    (["graham", "--bound", "20", "--format", "csv"], None),
    (["pyth", "--beta", "2", "--bound", "100"], None),
    (["pyth", "--beta", "2", "--bound", "100", "--brute-force"], None),
])
def test_large_outputs_are_written_record_by_record(argv, writes):
    out = RecordingStream()
    assert run(argv, out, io.StringIO()) == 0
    lines = len(out.getvalue().splitlines())
    assert lines > 1 and out.writes == (writes or lines)


def test_pn_is_written_term_by_term():
    out = RecordingStream()
    assert run(["pn", "--n", "4"], out, io.StringIO()) == 0
    assert out.writes > len(flower_poly(4))


def test_discrepancy_command():
    code, out, _ = call(["discrepancy"])
    assert code == 0
    obj = json.loads(out)
    assert obj["radius_example"]["internal_agreement"]["all"] is True
    assert obj["radius_expansion"]["coefficients"]["g2"]["match"] is False


def test_unknown_command_is_usage_error(capsys):
    code = run(["frobnicate"], io.StringIO(), io.StringIO())
    assert code == 2
    capsys.readouterr()  # swallow argparse's stderr chatter


def test_determinism():
    a = call(["pn", "--n", "4"])
    b = call(["pn", "--n", "4"])
    assert a == b
    a = call(["graham", "--bound", "8"])
    b = call(["graham", "--bound", "8"])
    assert a == b


def test_unexpected_exception_is_internal_error():
    # A 901-digit center radius makes the residual too long for str(): a
    # crash, which must not read as exit 1 ("invalid flower").
    code, out, err = call(["flower", "check", "1" + "0" * 900, "2", "3", "4"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ValueError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_handler_crash_is_internal_error(monkeypatch):
    def crash(args, stdout, stderr):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_graham", crash)
    code, out, err = call(["graham", "--bound", "3"])
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom second line\n")


# Every flag and positional of every subcommand.  A new option shows up here
# as a test diff.
OPTION_SURFACE = {
    "pn": ["--format", "--n", "--out", "--route"],
    "cn": ["--format", "--n", "--out"],
    "verify": ["--all", "--format", "--monic", "--n", "--out", "--recursion",
               "--specialization", "--square", "--symmetry"],
    "soddy-gen": ["--format", "--out", "--params"],
    "soddy-scan": ["--bound", "--format", "--out"],
    "graham": ["--bound", "--format", "--out"],
    "pyth": ["--beta", "--bound", "--brute-force", "--out"],
    "flower check": ["--format", "--out", "radii"],
    "flower render": ["--out", "radii"],
    "discrepancy": ["--out"],
}


def _option_surface(parser, prefix=""):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        options = [opt for a in parser._actions if not isinstance(a, argparse._HelpAction)
                   for opt in (a.option_strings or [a.dest])]
        return {prefix.strip(): sorted(options)}
    surface = {}
    for name, sub in subs[0].choices.items():
        surface.update(_option_surface(sub, f"{prefix}{name} "))
    return surface


def test_option_surface():
    assert _option_surface(build_parser()) == OPTION_SURFACE


def _readme_cli_examples():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("flowerlab ")]


def test_readme_has_cli_examples():
    assert len(_readme_cli_examples()) >= 10


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = call(argv)
    assert code == 0, err
