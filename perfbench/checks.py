"""Output checks for one experiment, run outside the timed region.

`check_experiment` compares the CSV the program wrote against the oracles
at the first scheduled N (every scheduled N for eigenfunction sweeps, whose
sup is known exactly). Sup values must agree with the reference within the
config's `eps`; `t_star` is not compared, since any maximiser is valid.
"""

from __future__ import annotations

import numpy as np

import bench_oracles as oracles

CSV_HEADER = "experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped"
DEFAULT_SCHEDULE = [1 << k for k in range(10, 17)]
TOL = 1e-9  # absolute, on averages and on pre-root seminorm averages


def parse_csv(data: bytes) -> dict[tuple[str, int | None], dict]:
    """Rows keyed by (experiment_id, N)."""
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"row has {len(parts)} fields: {line!r}")
        row = {"id": parts[0], "N": int(parts[1]) if parts[1] else None}
        for name, s in zip(("re", "im", "abs", "sup", "t_star", "seminorm"), parts[2:8]):
            row[name] = float(s) if s else None
        row["clamped"] = None if parts[8] == "" else parts[8] == "1"
        rows[(row["id"], row["N"])] = row
    return rows


def _points(doc: dict) -> list[tuple[str, list]]:
    pts = doc["x0"]
    if not isinstance(pts[0], list):
        pts = [pts]
    rid = doc.get("id", doc["experiment"])
    if len(pts) == 1:
        return [(rid, pts[0])]
    return [(f"{rid}/x{i}", p) for i, p in enumerate(pts)]


class _Checker:
    def __init__(self, rows):
        self.rows = rows
        self.problems: list[str] = []

    def row(self, rid: str, N: int) -> dict | None:
        r = self.rows.get((rid, N))
        if r is None:
            self.problems.append(f"{rid}: no row at N={N}")
        return r

    def value(self, rid: str, N: int, ref: complex):
        r = self.row(rid, N)
        if r is None:
            return
        got = None if r["re"] is None or r["im"] is None else complex(r["re"], r["im"])
        if got is None or abs(got - ref) > TOL:
            self.problems.append(f"{rid} N={N}: value={got!r}, oracle {ref!r}")

    def seminorm(self, rid: str, N: int, k: int, ref_avg: float):
        r = self.row(rid, N)
        if r is None:
            return
        v = r["seminorm"]
        if v is None or abs(v ** (1 << k) - max(ref_avg, 0.0)) > TOL:
            self.problems.append(f"{rid} N={N}: seminorm={v!r}, oracle pre-root {ref_avg!r}")
        elif abs(ref_avg) > TOL and r["clamped"] != (ref_avg < 0):
            self.problems.append(f"{rid} N={N}: clamped={r['clamped']}, oracle {ref_avg!r}")

    def sup(self, rid: str, N: int, ref: float, eps: float):
        r = self.row(rid, N)
        if r is None:
            return
        if r["sup"] is None or abs(r["sup"] - ref) > eps:
            self.problems.append(f"{rid} N={N}: sup={r['sup']!r}, reference {ref!r} (eps {eps})")


def check_experiment(doc: dict, csv: bytes) -> tuple[list[str], list[str]]:
    """(problems, notes): problems fail the run; notes record what was not checked."""
    try:
        rows = parse_csv(csv)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], []
    c = _Checker(rows)
    notes: list[str] = []
    if not doc.get("assertions"):
        c.problems.append("config carries no assertions")
    e = doc["experiment"]
    rid = doc.get("id", e)
    sched = doc.get("schedule", DEFAULT_SCHEDULE)
    n0 = sched[0]
    base = oracles.index_base(doc)
    try:
        if e in ("birkhoff_avg", "ww_avg", "double_avg", "wwdr_avg", "poly_wwdr_avg",
                 "nil_wwdr_avg"):
            for pid, x0 in _points(doc):
                c.value(pid, n0, oracles.direct_mean(oracles.average_terms(doc, x0, n0)))
        elif e == "cesaro_nilseq":
            c.value(rid, n0, oracles.direct_mean(oracles.average_terms(doc, None, n0)))
        elif e == "dual_system_avg":
            for pid, x0 in _points(doc):
                c.value(pid, n0, oracles.dual_system_norm(doc, x0, n0))
        elif e == "ww_sup":
            eps = float(doc["eps"])
            exact_sup = oracles.eigen_sup(doc)
            for pid, x0 in _points(doc):
                if exact_sup is not None:
                    for n in sched:
                        c.sup(pid, n, exact_sup, eps)
                    continue
                ref = oracles.grid_sup(doc, x0, n0, eps)
                if ref is None:
                    notes.append(f"{pid}: sup reference grid too large at N={n0}")
                else:
                    c.sup(pid, n0, ref, eps)
        elif e == "product_formula_check":
            N = int(doc["N"])
            if N > oracles.MAX_LITERAL_N:
                notes.append(f"N={N} above the literal-iteration limit; assertions only")
            else:
                for pid, x0 in _points(doc):
                    terms = oracles.average_terms(doc, x0, N)
                    c.value(pid + ":lhs", N, oracles.direct_mean(terms))
        elif e == "local_seminorm":
            k = int(doc["k"])
            H = int(doc["H"]) if "H" in doc else oracles.coupled_box_size(n0)
            seq = np.asarray(oracles.weight(doc["weight"], base, n0 + k * H))
            c.seminorm(rid, n0, k, oracles.box_average(seq, k, H, n0).real)
        elif e == "ghk_seminorm":
            k = int(doc["k"])
            H = int(doc["H"]) if "H" in doc else oracles.coupled_box_size(n0)
            for pid, x0 in _points(doc):
                u = np.asarray(oracles.observed_orbit(
                    doc["system"], doc["observable"], x0,
                    range(base, base + n0 + (k - 1) * H)))
                c.seminorm(pid, n0, k, oracles.ghk_level(u, k, H, n0) ** (1 << k))
        elif e == "cube_average":
            H, N = int(doc["H"]), int(doc["N"])
            length = N + 3 * (H - 1)
            s1 = np.asarray(oracles.weight(doc["weight1"], base, length))
            s2 = np.asarray(oracles.weight(doc["weight2"], base, length))
            c.value(rid, N, oracles.cube_average(s1, s2, H))
        elif e == "vanishing_experiment":
            k = int(doc["k"])
            sub = dict(doc)
            if k > 1:
                for name in ("observable1", "observable2"):
                    sub[name] = oracles.zk_complement_terms(doc["system"], doc[name], k - 1)
            H = oracles.coupled_box_size(n0)
            for pid, x0 in _points(doc):
                seq = np.asarray(oracles.pair_terms(sub, x0, n0 + k * H, base))
                w = np.asarray(oracles.weight(doc["weight"], base, n0))
                c.value(pid, n0, oracles.direct_mean(seq[:n0] * w))
                c.seminorm(pid, n0, k, oracles.box_average(seq, k, H, n0).real)
        else:
            notes.append(f"{e}: checked by its assertions only")
    except oracles.NoOracle as exc:
        notes.append(str(exc))
    return c.problems, notes


def count_changed(reference: str, produced: str) -> tuple[int, int]:
    """(rows that differ from the reference, rows produced); header lines ignored."""
    ref = [ln for ln in reference.splitlines() if ln and ln != CSV_HEADER]
    got = [ln for ln in produced.splitlines() if ln and ln != CSV_HEADER]
    ref_by_key = {tuple(ln.split(",")[:2]): ln for ln in ref}
    got_by_key = {tuple(ln.split(",")[:2]): ln for ln in got}
    keys = set(ref_by_key) | set(got_by_key)
    changed = sum(1 for k in keys if ref_by_key.get(k) != got_by_key.get(k))
    return changed, len(got)
