"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--sets 2] [--workload configs ...] [--trace 1]

Runs interleave the workloads (seed 0 of every workload, then seed 1, ...)
so that a slow spell of the machine falls on all of them alike. For every
set, workload and metric it prints the median of the per-run values, the
quartiles (`statistics.quantiles(values, n=4)`) and the quartile distance as
a share of the median, next to the metric's bound from BENCHMARK.json. With
`--sets 2` the same runs are made twice, one set after the other, and the
shift of each median from the first set to the second is printed against
the bound. With `--out FILE` the figures, with each experiment's median warm
time, are appended to a JSON list as one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(last-line result, full record, elapsed seconds) of one benchmark run."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = HERE.parent / ".perfbench_work" / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(record.read_text()), elapsed


def _summary(runs: list[tuple[dict, dict, float]]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    experiments: dict[str, list[float]] = {}
    for result, record, _ in runs:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for per_pass in record["samples"].get("warm_experiment_s", []):
            for exp, t in per_pass.items():
                experiments.setdefault(exp, []).append(t)
    metrics = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                         "iqr_share": (q3 - q1) / med if med else 0.0}
    env = runs[-1][1]["env"]
    return {
        "env": " ".join(f"{k}={v}" for k, v in env.items()),
        "failed": sum(r[0]["failed"] for r in runs),
        "mean_run_s": statistics.mean(r[2] for r in runs),
        "metrics": metrics,
        "warm_experiment_median_s": {k: statistics.median(v) for k, v in experiments.items()},
    }


def _print(title: str, summary: dict, bounds: dict) -> None:
    print(f"== {title} ({summary['failed']} failed runs, {summary['mean_run_s']:.1f} s per run;"
          f" {summary['env']})")
    for name, m in summary["metrics"].items():
        bound = bounds.get(name)
        flag = ("" if bound is None
                else f"  bound {bound}  {'ok' if m['iqr_share'] < bound / 3 else 'above a third'}")
        print(f"  {name:45s} {m['median']:12.6g} {m['unit']:10s} iqr/med {m['iqr_share']:.3f}"
              f"{flag}")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    chosen = args.workload or names

    sets = []
    for s in range(args.sets):
        runs: dict[str, list] = {w: [] for w in chosen}
        for seed in range(args.seeds):
            for workload in chosen:
                try:
                    runs[workload].append(_run(workload, seed, spec["run_seconds"], args.trace))
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
        summaries = {w: _summary(r) for w, r in runs.items()}
        for w, summary in summaries.items():
            _print(f"set {s + 1}: {w} ({args.seeds} seeds)", summary, bounds)
        sets.append(summaries)

    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "trace": args.trace, "sets": sets}
    if len(sets) > 1:
        entry["median_shift"] = {}
        print("== shift of each median from set 1 to the last set")
        for w in chosen:
            shifts = {}
            for name, m in sets[0][w]["metrics"].items():
                last = sets[-1][w]["metrics"][name]["median"]
                shifts[name] = (last - m["median"]) / m["median"] if m["median"] else 0.0
                bound = bounds.get(name)
                flag = "" if bound is None else \
                    f"  bound {bound}  {'ok' if abs(shifts[name]) <= bound else 'OUTSIDE'}"
                print(f"  {w:16s} {name:30s} {shifts[name]:+.3f}{flag}")
            entry["median_shift"][w] = shifts
    if args.out:
        path = Path(args.out)
        history = json.loads(path.read_text()) if path.is_file() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
