"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke test runs every workload at tiny sizes through the real command
line; the negative tests corrupt one CSV row and expect the run that wrote
it to be counted as failed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for name, unit in expected:
        assert any(ln.startswith(name + " ") and ln.endswith(" " + unit) for ln in lines[:-1])


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "configs"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def first_pass(tmp_path_factory):
    """A checked first pass of the tiny orbit_weights workload, run in process."""
    from ergonil import harness

    tmp = tmp_path_factory.mktemp("ow")
    paths = workloads.write_configs("orbit_weights", 1, ROOT, tmp / "cfg", tiny=True)
    docs = [json.loads(p.read_text()) for p in paths]
    cfgs = [harness.load_config(p) for p in paths]
    return docs, worker.run_pass(harness, cfgs, tmp / "out", 1, keep_csv=True)


def _corrupt(rec: dict, N: int) -> dict:
    """The run record with the `re` field of its first row at N nudged by 1e-6."""
    lines = rec["csv"].splitlines(keepends=True)
    for i, ln in enumerate(lines):
        parts = ln.split(",")
        if parts[1] == str(N):
            parts[2] = "%.17g" % (float(parts[2]) + 1e-6)
            lines[i] = ",".join(parts)
            break
    else:
        raise AssertionError(f"no row at N={N}")
    csv = "".join(lines)
    return dict(rec, csv=csv, sha=hashlib.sha256(csv.encode()).hexdigest())


def _verified(docs, first):
    problems, skipped = worker.oracle_problems(docs, first)
    return {"first": first, "checks": {"problems": problems, "skipped": skipped,
                                       "serial": None}}


def test_clean_pass_has_no_failures(first_pass):
    docs, first = first_pass
    attempted, failed, reasons = run.tally([_verified(docs, first)], _verified(docs, first))
    assert (attempted, failed, reasons) == (len(docs), 0, [])


def test_row_wrong_at_checked_scale_is_failed(first_pass):
    docs, first = first_pass
    bad = dict(first, runs=[_corrupt(r, 1024) if r["id"] == "ow_cat_double" else r
                            for r in first["runs"]])
    verified = _verified(docs, bad)
    attempted, failed, reasons = run.tally([verified], verified)
    assert (attempted, failed) == (len(docs), 1)
    assert reasons[0].startswith("ow_cat_double ")


def test_row_differing_from_checked_pass_is_failed(first_pass):
    docs, first = first_pass
    later = dict(first, runs=[_corrupt(r, 4096) if r["id"] == "ow_poly_cubic" else r
                              for r in first["runs"]])
    verified = _verified(docs, first)
    attempted, failed, reasons = run.tally([dict(verified, passes=[later])], verified)
    assert (attempted, failed) == (2 * len(docs), 1)
    assert "differs from the checked pass" in reasons[0]


def test_sup_outside_eps_is_a_problem():
    doc = workloads.sweep_peaked(2, tiny=True)[0]
    n0, n1 = doc["schedule"]

    def csv(sup0):
        rows = [f"sp_rotation,{n0},{sup0},0,{sup0},{sup0},0.25,,",
                f"sp_rotation,{n1},1,0,1,1,0.5,,"]
        return "\n".join([checks.CSV_HEADER] + rows + [""]).encode()

    assert checks.check_experiment(doc, csv(0.999)) == ([], [])
    problems, _ = checks.check_experiment(doc, csv(0.9))
    assert len(problems) == 1 and "sup=0.9" in problems[0]
