"""Tests of the benchmark itself, on its smoke mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace, *extra):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_file_matches_the_runner():
    assert WORKLOADS == ["construct", "enumerate", "check"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in spans.PER_LAYER
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    report, result = smoke(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0
        assert any(line.startswith(metric["name"]) and f" {metric['unit']}  (raw " in line
                   and "n=" in line
                   for line in report), metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    ratio_line = next(line for line in report if line.startswith("failed_ratio"))
    assert f"{result['failed']} failed / {result['attempted']} attempted" in ratio_line


def test_check_failures_are_only_the_known_defect():
    report, result = smoke("check", 0)
    assert result["failed"] > 0
    failures = [line for line in report if line.startswith("failed x")]
    assert result["correct"] is True
    assert failures and all(": huge_n3: " in line
                            and "Exceeds the limit (4300 digits)" in line for line in failures)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_spans_are_well_formed(workload):
    # The traced run checks every span itself (a parent within its job, no
    # negative self time, contained in its parent) and reports each problem.
    report, result = smoke(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert not [line for line in report if line.startswith("self-check failed")]
    traced = next(line for line in report if line.startswith("traced round: "))
    assert re.search(r", [1-9][0-9]* spans, 0 span problems$", traced), traced
    assert any("tracing overhead" in line for line in report)


def _raise(*args, **kwargs):
    raise TypeError("broken")


def _with(fl, module, **attrs):
    """``fl`` with ``fl.<module>`` replaced by a copy that has ``attrs``."""
    patched = SimpleNamespace(**{**vars(getattr(fl, module)), **attrs})
    return SimpleNamespace(**{**vars(fl), module: patched})


@pytest.fixture(scope="module")
def fl():
    return run.import_flowerlab()


@pytest.mark.parametrize("module,attr", [("geometry", "validate_flower"), ("soddy", "solve_radii")])
def test_a_crash_other_than_the_known_defect_is_incorrect(fl, module, attr):
    requests = workloads.check_block(7, 0, "smoke")
    ops = run.run_check_block(fl, requests, None)
    assert run.all_correct(ops, [])
    assert [op.key for op in ops if op.error] == ["huge_n3"]
    ops = run.run_check_block(_with(fl, module, **{attr: _raise}), requests, None)
    assert not run.all_correct(ops, [])
    assert any(op.error == "TypeError: broken" and op.key != "huge_n3" for op in ops)


def test_a_crashing_cli_job_is_incorrect(fl):
    expected = json.loads(run.EXPECTED.read_text())["smoke"]
    ops = run.run_cli_job(_with(fl, "cli", run=_raise), ["discrepancy"], expected, None)
    assert ops[0].error == "TypeError: broken"
    assert not run.all_correct(ops, [])


def test_solve_reports_are_checked_against_the_generator(fl):
    requests = [r for r in workloads.check_block(7, 0, "smoke") if r.truth is not None]
    assert {r.kind for r in requests} == {"solve_params", "solve_irrational"}
    for req in requests:
        report = fl.soddy.solve_radii(req.cosines)
        assert run.solve_mismatch(fl, report, req.truth) is None
        dropped = dataclasses.replace(report, candidates=report.candidates[:1])
        assert run.solve_mismatch(fl, dropped, req.truth)
        if report.candidates:
            cand = report.candidates[0]
            moved = dataclasses.replace(cand, r1=cand.r1 + 1)
            bad = dataclasses.replace(report, candidates=(moved, *report.candidates[1:]))
            assert run.solve_mismatch(fl, bad, req.truth)
    flower = fl.geometry.FlowerConfig(1, (2, 3, 4))
    extra = dataclasses.replace(report, valid_flowers=(*report.valid_flowers, flower))
    assert run.solve_mismatch(fl, extra, requests[-1].truth)


def test_exact_counts_repeat_across_runs():
    _, first = smoke("enumerate", 1)
    _, second = smoke("enumerate", 1)
    for name in ("soddy.quadratic_make.calls", "soddy.solve_radii.calls",
                 "soddy.scan.redundant_solve_ratio", "pythag.generate_triples.triples_out"):
        assert first["metrics"][name] == second["metrics"][name]
    _, construct = smoke("construct", 1)
    assert construct["metrics"]["flowerpoly.step_n3_terms"]["value"] == 5
    assert construct["metrics"]["flowerpoly.step_n4_terms"]["value"] == 19
    assert construct["metrics"]["mixedring.mul.calls"]["value"] > 0


def test_check_stream_depends_only_on_the_seed():
    assert workloads.check_block(3, 1, "full") == workloads.check_block(3, 1, "full")
    assert workloads.check_block(3, 1, "full") != workloads.check_block(4, 1, "full")
    irrational = [{r for r in workloads.check_block(seed, 1, "full")
                   if r.kind == "solve_irrational"} for seed in (3, 4)]
    assert irrational[0] == irrational[1]
    block = workloads.check_block(3, 0, "full")
    assert len(block) == sum(workloads.BLOCK_MIX["full"].values())
    huge = [r for r in block if r.radii and min(r.radii) > 10**800]
    assert len(huge) == workloads.BLOCK_MIX["full"]["huge_n3"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
