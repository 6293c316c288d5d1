"""One fresh interpreter of the benchmark: set up, run passes, check outputs.

Modes:
  setup  import ergonil and build every config (set-up time only);
  run    set up, one cold pass (the cost `ergonil run` pays per process),
         then warm passes while another one fits in this process's share of
         the measuring time (at least one);
  trace  set up, one cold pass, then alternating untraced and traced passes.
With --verify the process also runs the output checks on its cold pass.

Nothing but the standard library is imported before set-up is timed, so
`setup_s` includes importing numpy through ergonil.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

TRACED_PASSES = 2  # at least, so a run can show that the counts repeat


def run_pass(harness, cfgs, out_dir: Path, workers: int, keep_csv: bool = False) -> dict:
    """Run every experiment once; time only the `run_experiment` calls."""
    wall = cpu = 0.0
    runs = []
    for cfg in cfgs:
        rec = {"id": cfg.id, "error": None, "all_passed": False, "sha": None}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = harness.run_experiment(cfg, out_dir=out_dir, workers=workers)
        except Exception as exc:  # an operation failed: count it, keep measuring
            rec["error"] = f"{type(exc).__name__}: {exc}"
            report = None
        rec["t"] = time.perf_counter() - t0
        wall += rec["t"]
        cpu += time.process_time() - c0
        if report is not None:
            data = report.csv_path.read_bytes()
            rec["all_passed"] = bool(report.all_passed)
            rec["sha"] = hashlib.sha256(data).hexdigest()
            if keep_csv:
                rec["csv"] = data.decode("ascii")
            rec["failed_assertions"] = [v["detail"] for v in report.verdicts if not v["passed"]]
        runs.append(rec)
    return {"wall": wall, "cpu": cpu, "runs": runs}


def _another_fits(start: float, last: float, share: float, deadline: float) -> bool:
    """Whether one more pass of `last` seconds ends within this process's share."""
    return time.perf_counter() - start + last <= share and time.time() + last <= deadline


def _load(harness, paths):
    return [harness.load_config(p) for p in paths]


def oracle_problems(docs: list[dict], first: dict) -> tuple[dict, dict]:
    """({id: problems}, {id: notes}) for the first pass's CSVs."""
    import checks

    problems, notes = {}, {}
    for doc, rec in zip(docs, first["runs"]):
        if rec["error"] is not None:
            continue
        problems[rec["id"]], skipped = checks.check_experiment(doc, rec["csv"].encode("ascii"))
        if skipped:
            notes[rec["id"]] = skipped
    return problems, notes


def _check(harness, plan: dict, cfgs, first: dict, out_dir: Path) -> dict:
    """Oracle spot checks on the first pass, plus a serial rerun when workers > 1."""
    docs = [json.loads(Path(p).read_text()) for p in plan["configs"]]
    problems, skipped = oracle_problems(docs, first)
    serial = None
    if plan["workers"] > 1:
        serial = run_pass(harness, cfgs, out_dir / "serial", 1)
    return {"problems": problems, "skipped": skipped, "serial": serial}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="this process's share of the measuring time")
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    t0 = time.perf_counter()
    import ergonil
    from ergonil import harness
    cfgs = _load(harness, plan["configs"])
    setup_s = time.perf_counter() - t0

    src = Path(plan["src"]).resolve()
    if src not in Path(ergonil.__file__).resolve().parents:
        raise SystemExit(f"imported ergonil from {ergonil.__file__}, expected under {src}")
    import numpy

    out = {"setup_s": setup_s, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if args.mode != "setup":
        out_dir = Path(plan["out_dir"])
        first = run_pass(harness, cfgs, out_dir, plan["workers"], keep_csv=args.verify)
        out["first"] = first
        out["passes"] = []
        if args.mode == "run":
            start = time.perf_counter()
            while True:
                out["passes"].append(run_pass(harness, cfgs, out_dir, plan["workers"]))
                if not _another_fits(start, out["passes"][-1]["wall"], args.seconds,
                                     plan["deadline"]):
                    break
        elif args.mode == "trace":
            out["traced"] = _trace(harness, plan, out_dir, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.verify:
            out["checks"] = _check(harness, plan, cfgs, first, out_dir)
    Path(args.result).write_text(json.dumps(out))
    return 0


def _trace(harness, plan: dict, out_dir: Path, share: float) -> dict:
    """Alternate untraced and traced passes; each pass also rebuilds the configs."""
    import tracer as tracing

    untraced, traced, tables = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cfgs = _load(harness, plan["configs"])
        load = time.perf_counter() - t0
        p = run_pass(harness, cfgs, out_dir, plan["workers"])
        untraced.append(dict(p, wall=load + p["wall"], run_wall=p["wall"]))

        tr = tracing.Tracer()
        tr.install()
        try:
            t0 = time.perf_counter()
            cfgs = _load(harness, plan["configs"])
            load = time.perf_counter() - t0
            p = run_pass(harness, cfgs, out_dir, plan["workers"])
        finally:
            tr.uninstall()
        spans = tr.take()
        traced.append(dict(p, wall=load + p["wall"]))
        tables.append(tracing.aggregate(spans))
        pair = untraced[-1]["wall"] + traced[-1]["wall"]
        if (len(traced) >= TRACED_PASSES
                and not _another_fits(start, pair, share, plan["deadline"])):
            break
    tracing.write_spans(spans, out_dir / "spans.jsonl")
    return {"untraced": untraced, "traced": traced, "tables": tables,
            "spans_file": str(out_dir / "spans.jsonl")}


if __name__ == "__main__":
    sys.exit(main())
