"""End-to-end and per-layer benchmark of ergonil.

    python3 perfbench/run.py --workload configs --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout. Each sample is a fresh interpreter
(`worker.py`) that imports ergonil from `src/`; nothing is installed.

With `--trace 0` the run measures, with tracing off:
  setup_s      import ergonil and build every config (median of 9 processes);
  cold_s       the first pass in a fresh process, as `ergonil run` pays it
               (median of 3 processes);
  wall_s       median warm pass over the workload's experiments, pooled
               over the same 3 processes;
  peak_rss_mb  median peak RSS of the processes that ran a pass.
With `--trace 1` one process alternates untraced and traced passes and
reports per-layer self times and counts (see tracer.py).

Every experiment run is checked outside the timed region: its own config
assertions, CSV bytes identical to the oracle-checked first pass (across
passes, processes and worker counts), and oracle spot checks (checks.py).
A run that fails any of them counts in `failed`. The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

BLAS/OpenMP pools are pinned to one thread and harness workers to at most
nproc, so a run never asks for more threads than cores. On a shared 2-core
machine the spread between processes measured +-10-20% per pass, which is
why every metric is a median of several passes or processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cold_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

LAYER_NAMES = ("numerics", "systems", "nilseq", "averages", "seminorms", "joinings", "harness")
# the weight classes some workload evaluates
WEIGHT_CLASSES = ("PolynomialPhase", "TorusNilseq", "HeisenbergNilseq", "Product", "Scaled")

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYER_NAMES]
    + [
        ("numerics.frac_combine.self_s", "s"), ("numerics.frac_combine.calls", "count"),
        ("numerics.frac_combine.elements", "count"),
        ("numerics.unit_phase.self_s", "s"), ("numerics.unit_phase.elements", "count"),
        ("numerics.frac_poly.self_s", "s"), ("numerics.frac_poly.elements", "count"),
        ("numerics.pairwise_sum.self_s", "s"), ("numerics.pairwise_sum.calls", "count"),
        ("numerics.pairwise_sum.elements", "count"),
        ("systems.lattice_orbit.self_s", "s"), ("systems.lattice_orbit.steps", "count"),
        ("systems.orbit_coords.self_s", "s"), ("systems.orbit_coords.elements", "count"),
        ("systems.eval_observable_many.self_s", "s"),
        ("systems.eval_observable_many.elements", "count"),
    ]
    + [(f"nilseq.{c}.eval_many.{f}", u) for c in WEIGHT_CLASSES
       for f, u in (("self_s", "s"), ("elements", "count"))]
    + [
        ("averages.sup_over_frequency.self_s", "s"), ("averages.sup_over_frequency.calls", "count"),
        ("averages.sup_over_frequency.grid_nodes", "count"),
        ("averages.sup_over_frequency.fft_passes", "count"),
        ("averages.sup_over_frequency.nodes_per_term", "nodes/term"),
        ("averages.run_schedule.self_s", "s"), ("averages.double_terms.self_s", "s"),
        ("averages.dual_system_avg.self_s", "s"), ("averages.dual_system_avg.nodes", "count"),
        ("seminorms.local_seminorm.self_s", "s"),
        ("seminorms.local_seminorm.box_products", "count"),
        ("seminorms.ghk_seminorm.self_s", "s"), ("seminorms.cube_average.self_s", "s"),
        ("seminorms.vdc_bound.self_s", "s"), ("seminorms.vanishing_experiment.self_s", "s"),
        ("joinings.product_formula_check.self_s", "s"),
        ("harness.config_from_dict.self_s", "s"), ("harness.run_experiment.self_s", "s"),
        ("harness.cpu_s", "s"), ("harness.parallel_overlap", "ratio"),
        ("trace.wall_s", "s"), ("trace.self_sum_s", "s"), ("trace.overhead_s", "s"),
    ]
)

# A run spreads its samples over its whole length: RUNNERS processes each set
# up, do a cold pass and then warm passes within an equal share of what is
# left of --seconds. Set-up takes about 0.15 s and varies by +-30% between
# processes, so SETUP_PER_RUNNER set-up-only processes start before each: the
# median of the 3 runners alone spread 0.15-0.29 (quartile distance over
# median, ten seeds), the median of all 9 processes 0.06-0.18.
RUNNERS = 3
SETUP_PER_RUNNER = 2
BUDGET_S = 170.0    # the whole run, children included
CHECK_RESERVE_S = 30.0
DEFAULT_SEED = 0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _child(mode: str, plan_path: Path, work: Path, tag: str, env: dict, deadline: float,
           seconds: float = 0.0, verify: bool = False) -> dict:
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--mode", mode, "--result", str(result), "--seconds", repr(seconds)]
    if verify:
        cmd.append("--verify")
    timeout = deadline - time.time()
    if timeout <= 0:
        raise TimeoutError("run budget exhausted before all samples were taken")
    proc = subprocess.run(cmd, env=env, timeout=timeout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(result.read_text())


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def tally(children: list[dict], verified: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every experiment run of every child.

    A run fails when it raised, when one of its config's assertions failed,
    when its CSV bytes differ from the oracle-checked first pass of the
    verified child, or when that first pass failed an oracle check.
    """
    ref = {r["id"]: r["sha"] for r in verified["first"]["runs"]}
    bad = {rid: p for rid, p in verified["checks"]["problems"].items() if p}
    attempted = failed = 0
    reasons: list[str] = []

    def judge(rec, what):
        nonlocal attempted, failed
        attempted += 1
        if rec["error"]:
            why = rec["error"]
        elif not rec["all_passed"]:
            why = "; ".join(rec.get("failed_assertions") or ["assertion failed"])
        elif ref.get(rec["id"]) is None:
            why = "checked pass produced no CSV"
        elif rec["sha"] != ref[rec["id"]]:
            why = "CSV differs from the checked pass"
        elif rec["id"] in bad:
            why = "; ".join(bad[rec["id"]])
        else:
            return
        failed += 1
        if len(reasons) < 20:
            reasons.append(f"{rec['id']} [{what}]: {why}")

    for i, child in enumerate(children):
        passes = [child["first"]] + child.get("passes", [])
        tr = child.get("traced")
        if tr:
            passes += tr["untraced"] + tr["traced"]
        for j, p in enumerate(passes):
            for rec in p["runs"]:
                judge(rec, f"process {i} pass {j}")
    serial = verified["checks"].get("serial")
    if serial:
        for rec in serial["runs"]:
            judge(rec, "workers=1")
    return attempted, failed, reasons


def end_to_end(setups: list[dict], runners: list[dict]) -> dict:
    return {
        "wall_s": _median([p["wall"] for c in runners for p in c["passes"]]),
        "cold_s": _median([c["first"]["wall"] for c in runners]),
        "setup_s": _median([c["setup_s"] for c in setups + runners]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in runners]),
    }


def per_layer(traced: dict, workers: int) -> dict:
    tables = traced["tables"]
    last = tables[-1]

    def self_s(pred):
        return _median([sum(r["self_s"] for n, r in t.items() if pred(n)) for t in tables])

    untraced_wall = _median([p["wall"] for p in traced["untraced"]])
    traced_wall = _median([p["wall"] for p in traced["traced"]])
    out = {}
    for name, _unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if head in LAYER_NAMES and field == "self_s":
            out[name] = self_s(lambda n: n.startswith(head + "."))
        elif name == "averages.sup_over_frequency.nodes_per_term":
            row = last.get("averages.sup_over_frequency", {})
            out[name] = row["grid_nodes"] / row["terms"] if row.get("terms") else 0.0
        elif name == "harness.cpu_s":
            out[name] = _median([p["cpu"] for p in traced["untraced"]])
        elif name == "harness.parallel_overlap":
            out[name] = _median([p["cpu"] / p["run_wall"] / workers
                                 for p in traced["untraced"] if p["run_wall"] > 0])
        elif name == "trace.wall_s":
            out[name] = traced_wall
        elif name == "trace.self_sum_s":
            out[name] = self_s(lambda n: True)
        elif name == "trace.overhead_s":
            out[name] = traced_wall - untraced_wall
        elif field == "self_s":
            out[name] = self_s(lambda n: n == head)
        else:
            out[name] = last.get(head, {}).get(field, 0)
    return out


def counts_repeat(tables: list[dict]) -> bool:
    """Whether every traced pass recorded the same calls and counts."""
    def counts(t):
        return {n: {k: v for k, v in r.items() if k != "self_s"} for n, r in t.items()}
    return all(counts(t) == counts(tables[0]) for t in tables)


def rows_changed(workload: str, seed: int, produced: str, tiny: bool) -> str:
    """Rows that differ from those captured on the default seed when the
    benchmark was added (`reference/<workload>.csv`)."""
    import checks

    ref_file = HERE / "reference" / f"{workload}.csv"
    if tiny or not ref_file.is_file() or (workload != "configs" and seed != DEFAULT_SEED):
        return f"n/a (reference rows exist for seed {DEFAULT_SEED} only)"
    changed, total = checks.count_changed(ref_file.read_text(), produced)
    return f"{changed} of {total}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: small generated configs, one sample each")
    args = ap.parse_args(argv)
    start = time.time()
    deadline = start + BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "ergonil" / "__init__.py").is_file():
        print(f"error: no ergonil sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = workloads.write_configs(args.workload, args.seed, root, work / "configs",
                                        tiny=args.tiny)
        nproc = len(os.sched_getaffinity(0))
        workers = min(workloads.WORKERS[args.workload], nproc)
        n_runners = 1 if args.tiny else RUNNERS
        plan = {
            "configs": [str(p) for p in paths],
            "src": str(root / "src"),
            "out_dir": str(work / "out"),
            "workers": workers,
            "deadline": deadline - CHECK_RESERVE_S,
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        env = _child_env(root)

        if args.trace:
            setups = []
            verified = _child("trace", plan_path, work, "trace", env, deadline,
                              seconds=args.seconds, verify=True)
            runners = [verified]
            metrics = per_layer(verified["traced"], workers)
            units = dict(PER_LAYER)
            spans = Path(verified["traced"]["spans_file"])
            repeat = counts_repeat(verified["traced"]["tables"])
        else:
            n_setup = 1 if args.tiny else SETUP_PER_RUNNER
            setups, runners = [], []
            left = args.seconds
            for i in range(n_runners):
                setups += [_child("setup", plan_path, work, f"s{i}.{j}", env, deadline)
                           for j in range(n_setup)]
                runners.append(_child("run", plan_path, work, f"r{i}", env, deadline,
                                      seconds=left / (n_runners - i),
                                      verify=i == n_runners - 1))
                left -= sum(p["wall"] for p in runners[-1]["passes"])
            verified = runners[-1]
            metrics = end_to_end(setups, runners)
            units = dict(END_TO_END)
            spans = None
            repeat = None
        attempted, failed, reasons = tally(runners, verified)
        produced = "".join(r.get("csv", "") for r in verified["first"]["runs"])
        changed = rows_changed(args.workload, args.seed, produced, args.tiny)
        env_info = {"nproc": nproc, "python": verified["python"], "numpy": verified["numpy"],
                    "workers": workers, "blas_threads": 1}

        results = root / ".perfbench_work" / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans is not None and spans.is_file():
            shutil.copyfile(spans, results / f"{stem}.spans.jsonl")
        (results / f"{stem}.json").write_text(json.dumps({
            "args": vars(args), "env": env_info, "metrics": metrics,
            "attempted": attempted, "failed": failed, "reasons": reasons,
            "rows_changed": changed, "counts_repeat": repeat,
            "skipped_checks": verified["checks"]["skipped"],
            "samples": {
                "setup_s": [c["setup_s"] for c in setups + runners],
                "cold_s": [c["first"]["wall"] for c in runners],
                "wall_s": [p["wall"] for c in runners for p in c["passes"]],
                "cold_experiment_s": [{r["id"]: r["t"] for r in c["first"]["runs"]}
                                      for c in runners],
                "warm_experiment_s": [{r["id"]: r["t"] for r in p["runs"]}
                                      for c in runners for p in c["passes"]],
            },
            "csv": produced,
        }, indent=1))
    except (RuntimeError, TimeoutError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"rows_changed {changed}")
    if repeat is not None:
        print(f"counts_repeat {'yes' if repeat else 'NO'} over the traced passes")
    for reason in reasons:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
