"""Config-driven experiment harness: JSON in, CSV rows and a JSON summary out.

One config describes one experiment (an operation name plus its inputs).
Data rows are deterministic: re-running a config, with any worker count,
yields byte-identical CSV bytes. Wall-clock metadata lives only in the
summary file and is excluded from that contract. So do the certificates
behind the numbers: the summary's ``diagnostics`` list, per sample point,
the error budget of each average and the grid size, spacing and error bound
of each certified sup.

CSV schema (fixed): ``experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped``
with absent fields left empty and floats printed with 17 significant digits
so every row round-trips losslessly.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import averages, joinings, nilseq, seminorms
from .errors import ConfigError
from .report import ConvergenceReport
from .systems import (
    AnzaiSkew,
    Observable,
    RotationTorus,
    System,
    ToralAutomorphism,
)

CSV_HEADER = "experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped"

DEFAULT_SCHEDULE = tuple(1 << k for k in range(10, 17))

# operations that average over n = 1..N by default; the sequence/seminorm
# family counts from 0
_BASE0_EXPERIMENTS = {
    "cesaro_nilseq", "local_seminorm", "ghk_seminorm",
    "vanishing_experiment", "vdc_bound", "cube_average",
}


@dataclass(frozen=True)
class Row:
    experiment_id: str
    N: int | None = None
    re: float | None = None
    im: float | None = None
    abs: float | None = None
    sup: float | None = None
    t_star: float | None = None
    seminorm: float | None = None
    clamped: bool | None = None

    def format(self) -> str:
        def f(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "1" if v else "0"
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return "%.17g" % float(v)

        return ",".join(
            [self.experiment_id, f(self.N), f(self.re), f(self.im), f(self.abs),
             f(self.sup), f(self.t_star), f(self.seminorm), f(self.clamped)]
        )


def parse_row(line: str) -> Row:
    parts = line.split(",")
    if len(parts) != 9:
        raise ValueError(f"row has {len(parts)} fields, expected 9")

    def g(s, conv):
        return None if s == "" else conv(s)

    return Row(
        parts[0], g(parts[1], int), g(parts[2], float), g(parts[3], float),
        g(parts[4], float), g(parts[5], float), g(parts[6], float),
        g(parts[7], float), g(parts[8], lambda s: s == "1"),
    )


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _angle_from_json(value, field_name: str):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad fraction {value!r}: {exc}", field=field_name)
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"angle must be a number or 'p/q' string, got {value!r}", field=field_name)


def build_system(spec, field_name: str = "system") -> System:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("system spec needs a 'kind'", field=field_name)
    kind = spec["kind"]
    try:
        if kind in ("rotation_torus", "rotation"):
            alpha = spec.get("alpha")
            if alpha is None:
                raise ConfigError("rotation needs 'alpha'", field=field_name)
            if not isinstance(alpha, list):
                alpha = [alpha]
            return RotationTorus(tuple(_angle_from_json(a, field_name + ".alpha") for a in alpha))
        if kind in ("anzai_skew", "anzai"):
            if "alpha" not in spec:
                raise ConfigError("skew product needs 'alpha'", field=field_name)
            return AnzaiSkew(_angle_from_json(spec["alpha"], field_name + ".alpha"))
        if kind in ("toral_automorphism", "toral", "cat"):
            matrix = spec.get("matrix")
            if matrix is None:
                raise ConfigError("automorphism needs 'matrix'", field=field_name)
            return ToralAutomorphism(
                tuple(tuple(int(v) for v in row) for row in matrix),
                int(spec.get("modulus", (1 << 31) - 1)),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=field_name)
    raise ConfigError(f"unknown system kind {kind!r}", field=field_name)


def _coeff_from_json(value, field_name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"coefficient must be a number or [re, im], got {value!r}", field=field_name)


def build_observable(spec, field_name: str, dimension: int | None = None) -> Observable:
    if not isinstance(spec, dict) or "terms" not in spec:
        raise ConfigError("observable spec needs 'terms'", field=field_name)
    terms = []
    for i, entry in enumerate(spec["terms"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"term {i} must be [frequency, coefficient]", field=field_name)
        freq, coeff = entry
        freq = tuple(int(v) for v in freq) if isinstance(freq, list) else (int(freq),)
        terms.append((freq, _coeff_from_json(coeff, field_name)))
    if dimension is None:
        dimension = spec.get("dimension")
    try:
        if dimension is None:
            if not terms:
                raise ConfigError("cannot infer dimension of an empty observable", field=field_name)
            dimension = len(terms[0][0])
        return Observable(int(dimension), tuple(terms))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=field_name)


def build_weight(spec, field_name: str, base_dir: Path) -> nilseq.WeightSequence:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("weight spec needs a 'kind'", field=field_name)
    kind = spec["kind"]
    try:
        if kind == "polynomial_phase":
            return nilseq.PolynomialPhase(tuple(float(c) for c in spec["coefficients"]))
        if kind == "torus_nilseq":
            func = build_observable(spec["observable"], field_name + ".observable")
            return nilseq.TorusNilseq(
                tuple(float(a) for a in spec["alpha"]),
                func,
                tuple(float(b) for b in spec.get("base", [0.0] * func.dimension)),
            )
        if kind == "heisenberg_nilseq":
            inv = spec.get("invariant", {})
            ikind = inv.get("kind")
            if ikind == "torus_char":
                func = nilseq.TorusChar(int(inv["m"]), int(inv["k"]))
            elif ikind == "theta":
                func = nilseq.ThetaType(
                    int(inv["ell"]), int(inv.get("truncation", 8)), float(inv.get("width", 1.0))
                )
            else:
                raise ConfigError(f"unknown invariant kind {ikind!r}", field=field_name + ".invariant")
            g = nilseq.HeisenbergElement(*(float(v) for v in spec["g"]))
            base = nilseq.HeisenbergElement(*(float(v) for v in spec.get("base", [0, 0, 0])))
            return nilseq.HeisenbergNilseq(g, base, func)
        if kind == "product":
            return nilseq.Product(
                build_weight(spec["left"], field_name + ".left", base_dir),
                build_weight(spec["right"], field_name + ".right", base_dir),
            )
        if kind == "scaled":
            return nilseq.Scaled(
                _coeff_from_json(spec["scale"], field_name + ".scale"),
                build_weight(spec["inner"], field_name + ".inner", base_dir),
            )
        if kind == "table":
            path = Path(spec["path"])
            if not path.is_absolute():
                path = base_dir / path
            return nilseq.table_from_csv(path, float(spec.get("sup_error_budget", 0.0)))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing weight parameter {exc}", field=field_name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=field_name)
    raise ConfigError(f"unknown weight kind {kind!r}", field=field_name)


_REQUIRED: dict[str, tuple[str, ...]] = {
    "birkhoff_avg": ("system", "observable", "x0"),
    "ww_avg": ("system", "observable", "x0", "t"),
    "ww_sup": ("system", "observable", "x0", "eps"),
    "double_avg": ("system", "observable1", "observable2", "x0", "a", "b"),
    "wwdr_avg": ("system", "observable1", "observable2", "x0", "a", "b", "t"),
    "poly_wwdr_avg": ("system", "observable1", "observable2", "x0", "a", "b", "p"),
    "nil_wwdr_avg": ("system", "observable1", "observable2", "x0", "a", "b", "weight"),
    "dual_system_avg": ("system", "observable1", "observable2", "x0", "a", "b",
                        "system_s", "g_list"),
    "cesaro_nilseq": ("weight",),
    "local_seminorm": ("weight", "k"),
    "ghk_seminorm": ("system", "observable", "x0", "k"),
    "vdc_bound": ("weight", "N", "K"),
    "cube_average": ("weight1", "weight2", "H", "N"),
    "vanishing_experiment": ("system", "observable1", "observable2", "x0", "a", "b",
                             "weight", "k"),
    "product_formula_check": ("system", "observable1", "observable2", "x0", "a", "b",
                              "N", "tol"),
}


def list_experiments() -> list[str]:
    return sorted(_REQUIRED)


@dataclass
class ExperimentConfig:
    experiment: str
    id: str
    raw: dict
    system: System | None = None
    system_s: System | None = None
    observable: Observable | None = None
    observable1: Observable | None = None
    observable2: Observable | None = None
    g_list: list[Observable] = field(default_factory=list)
    weight: nilseq.WeightSequence | None = None
    weight1: nilseq.WeightSequence | None = None
    weight2: nilseq.WeightSequence | None = None
    x0: list = field(default_factory=list)
    a: int | None = None
    b: int | None = None
    t: float | None = None
    p: tuple[float, ...] | None = None
    k: int | None = None
    H: int | None = None
    N: int | None = None
    K: int | None = None
    eps: float | None = None
    tol: float | None = None
    grid_size: int = 64
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    index_base: int = 1
    seed: int | None = None
    assertions: list = field(default_factory=list)

    def echo(self) -> str:
        """Canonical serialization of the raw config (sorted keys)."""
        return json.dumps(self.raw, sort_keys=True, indent=2)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    base_dir = base_dir or Path(".")
    experiment = doc.get("experiment")
    if experiment not in _REQUIRED:
        raise ConfigError(
            f"unknown or missing experiment {experiment!r}; see list-experiments",
            field="experiment",
        )
    cfg = ExperimentConfig(experiment=experiment, id=doc.get("id", experiment), raw=doc)
    missing = [name for name in _REQUIRED[experiment] if name not in doc]
    if missing:
        raise ConfigError(f"{experiment} requires {', '.join(missing)}", field=missing[0])

    if "system" in doc:
        cfg.system = build_system(doc["system"], "system")
    if "system_s" in doc:
        cfg.system_s = build_system(doc["system_s"], "system_s")
    for name in ("observable", "observable1", "observable2"):
        if name in doc:
            setattr(cfg, name, build_observable(doc[name], name))
    if "g_list" in doc:
        cfg.g_list = [
            build_observable(spec, f"g_list[{i}]") for i, spec in enumerate(doc["g_list"])
        ]
    for name in ("weight", "weight1", "weight2"):
        if name in doc:
            setattr(cfg, name, build_weight(doc[name], name, base_dir))

    if "x0" in doc:
        pts = doc["x0"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("x0 must be a nonempty list of points", field="x0")
        if not isinstance(pts[0], list):
            pts = [pts]
        if isinstance(cfg.system, ToralAutomorphism):
            cfg.x0 = [tuple(int(v) for v in p) for p in pts]
        else:
            cfg.x0 = [tuple(float(v) for v in p) for p in pts]

    for name, conv in (("a", int), ("b", int), ("t", float), ("k", int), ("H", int),
                       ("N", int), ("K", int), ("eps", float), ("tol", float),
                       ("grid_size", int), ("index_base", int), ("seed", int)):
        if name in doc:
            try:
                setattr(cfg, name, conv(doc[name]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc), field=name)
    if "p" in doc:
        cfg.p = tuple(float(c) for c in doc["p"])
    if "index_base" not in doc:
        cfg.index_base = 0 if experiment in _BASE0_EXPERIMENTS else 1

    if "schedule" in doc:
        sched = doc["schedule"]
        if not isinstance(sched, list) or not sched:
            raise ConfigError("schedule must be a nonempty list", field="schedule")
        cfg.schedule = tuple(int(n) for n in sched)
    if any(y <= x for x, y in zip(cfg.schedule, cfg.schedule[1:])) or cfg.schedule[0] < 1:
        raise ConfigError("schedule must be strictly increasing and positive", field="schedule")

    if cfg.a is not None and cfg.b is not None:
        if cfg.a == cfg.b or cfg.a == 0 or cfg.b == 0:
            raise ConfigError("exponents must be distinct and nonzero", field="a")
    if cfg.experiment == "dual_system_avg" and not 1 <= len(cfg.g_list) <= 3:
        raise ConfigError("g_list must hold 1..3 observables", field="g_list")
    if cfg.index_base not in (0, 1):
        raise ConfigError("index_base must be 0 or 1", field="index_base")
    cfg.assertions = doc.get("assertions", [])
    if not isinstance(cfg.assertions, list):
        raise ConfigError("assertions must be a list", field="assertions")
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return config_from_dict(doc, base_dir=path.parent)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _report_rows(rid: str, rep: ConvergenceReport) -> list[Row]:
    rows = []
    for i, n in enumerate(rep.schedule):
        v = rep.values[i]
        kw = dict(N=n, re=v.real, im=v.imag, abs=abs(v))
        if rep.sup_data is not None:
            kw["sup"] = rep.sup_data[i].sup_value
            kw["t_star"] = rep.sup_data[i].t_star
        if rep.seminorm_values is not None:
            kw["seminorm"] = rep.seminorm_values[i]
            kw["clamped"] = rep.seminorm_clamped[i]
        rows.append(Row(rid, **kw))
    return rows


def _diagnostics(rid: str, rep: ConvergenceReport) -> dict:
    """How far a report's numbers can be trusted; goes to the summary, never the CSV."""
    diag: dict = {"id": rid, "error_budget": rep.error_budget}
    if rep.sup_data is not None:
        diag["sup"] = [
            {"N": n, "grid_size": s.grid_size, "grid_spacing": s.grid_spacing,
             "error_bound": s.error_bound}
            for n, s in zip(rep.schedule, rep.sup_data)
        ]
    return diag


def _schedule_params(cfg: ExperimentConfig, x0) -> tuple[str, dict]:
    e = cfg.experiment
    if e == "birkhoff_avg":
        return "birkhoff", dict(system=cfg.system, obs=cfg.observable, x0=x0)
    if e == "ww_avg":
        return "ww", dict(system=cfg.system, obs=cfg.observable, x0=x0, t=cfg.t)
    if e == "ww_sup":
        return "ww_sup", dict(system=cfg.system, obs=cfg.observable, x0=x0, eps=cfg.eps)
    if e == "cesaro_nilseq":
        return "cesaro", dict(weight=cfg.weight)
    common = dict(system=cfg.system, obs1=cfg.observable1, obs2=cfg.observable2,
                  x0=x0, a=cfg.a, b=cfg.b)
    if e == "double_avg":
        return "double", common
    if e == "wwdr_avg":
        return "wwdr", dict(common, t=cfg.t)
    if e == "poly_wwdr_avg":
        return "poly_wwdr", dict(common, p=cfg.p)
    if e == "nil_wwdr_avg":
        return "nil_wwdr", dict(common, weight=cfg.weight)
    if e == "dual_system_avg":
        return "dual_system", dict(common, system_s=cfg.system_s, g_list=cfg.g_list,
                                   grid_size=cfg.grid_size)
    raise ConfigError(f"no schedule runner for {e}")


def _run_one_point(cfg: ExperimentConfig, rid: str, x0) -> tuple[list[Row], dict, list[dict]]:
    e = cfg.experiment
    extra: dict = {}
    if e == "vanishing_experiment":
        rep = seminorms.vanishing_experiment(
            cfg.system, cfg.observable1, cfg.observable2, x0, cfg.a, cfg.b,
            cfg.weight, cfg.k, cfg.schedule, cfg.index_base,
        )
        return _report_rows(rid, rep), extra, [_diagnostics(rid, rep)]
    if e == "ghk_seminorm":
        rows = []
        for n in cfg.schedule:
            h = cfg.H if cfg.H is not None else seminorms.coupled_box_size(n)
            est = seminorms.ghk_seminorm(cfg.system, cfg.observable, x0, cfg.k, h, n,
                                         cfg.index_base)
            rows.append(Row(rid, N=n, seminorm=est.value, clamped=est.clamped))
        return rows, extra, []
    if e == "product_formula_check":
        rep = joinings.product_formula_check(
            cfg.system, cfg.observable1, cfg.observable2, x0, cfg.a, cfg.b,
            cfg.N, cfg.tol, cfg.index_base,
        )
        rows = [
            Row(rid + ":lhs", N=rep.N, re=rep.lhs.real, im=rep.lhs.imag, abs=abs(rep.lhs)),
            Row(rid + ":rhs", N=rep.N, re=rep.rhs.real, im=rep.rhs.imag, abs=abs(rep.rhs)),
        ]
        extra["passed"] = rep.passed
        extra["gap"] = abs(rep.lhs - rep.rhs)
        return rows, extra, []
    kind, params = _schedule_params(cfg, x0)
    rep = averages.run_schedule(kind, params, cfg.schedule, cfg.index_base)
    return _report_rows(rid, rep), extra, [_diagnostics(rid, rep)]


def _run_sequence_experiment(cfg: ExperimentConfig) -> tuple[list[Row], dict, list[dict]]:
    e = cfg.experiment
    rid = cfg.id
    extra: dict = {}
    if e == "cesaro_nilseq":
        rep = averages.run_schedule("cesaro", dict(weight=cfg.weight), cfg.schedule,
                                    cfg.index_base)
        return _report_rows(rid, rep), extra, [_diagnostics(rid, rep)]
    if e == "local_seminorm":
        rows = []
        for n in cfg.schedule:
            h = cfg.H if cfg.H is not None else seminorms.coupled_box_size(n)
            seq = nilseq.weight_samples(cfg.weight, n + cfg.k * h, cfg.index_base)
            est = seminorms.local_seminorm(seq, cfg.k, h, n)
            rows.append(Row(rid, N=n, seminorm=est.value, clamped=est.clamped))
        return rows, extra, []
    if e == "vdc_bound":
        seq = nilseq.weight_samples(cfg.weight, cfg.N, cfg.index_base)
        rep = seminorms.vdc_bound(seq, cfg.N, cfg.K)
        extra["passed"] = rep.passed
        return [
            Row(rid + ":lhs", N=cfg.N, abs=rep.lhs),
            Row(rid + ":rhs", N=cfg.N, abs=rep.rhs),
        ], extra, []
    if e == "cube_average":
        length = cfg.N + 3 * (cfg.H - 1)
        s1 = nilseq.weight_samples(cfg.weight1, length, cfg.index_base)
        s2 = nilseq.weight_samples(cfg.weight2, length, cfg.index_base)
        v = seminorms.cube_average(s1, s2, cfg.H)
        return [Row(rid, N=cfg.N, re=v.real, im=v.imag, abs=abs(v))], extra, []
    raise ConfigError(f"no sequence runner for {e}")


# ---------------------------------------------------------------------------
# assertions
# ---------------------------------------------------------------------------


def _eval_assertion(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
    check = spec.get("check")
    if check == "passed":
        oks = [x.get("passed") for x in extras if "passed" in x]
        return (bool(oks) and all(oks), f"pass flags: {oks}")
    if check in ("abs_below", "sup_below", "sup_at_least", "seminorm_below", "seminorm_between"):
        n = int(spec["N"])
        picked = [r for r in rows if r.N == n]
        if not picked:
            return False, f"no rows at N={n}"
        if check == "abs_below":
            vals = [r.abs for r in picked if r.abs is not None]
            return (bool(vals) and all(v < spec["value"] for v in vals),
                    f"|A_{n}| = {vals}")
        if check == "sup_below":
            vals = [r.sup for r in picked if r.sup is not None]
            return (bool(vals) and all(v < spec["value"] for v in vals), f"sup = {vals}")
        if check == "sup_at_least":
            vals = [r.sup for r in picked if r.sup is not None]
            return (bool(vals) and all(v >= spec["value"] for v in vals), f"sup = {vals}")
        vals = [r.seminorm for r in picked if r.seminorm is not None]
        if check == "seminorm_below":
            return (bool(vals) and all(v <= spec["value"] for v in vals), f"seminorm = {vals}")
        lo, hi = float(spec["low"]), float(spec["high"])
        return (bool(vals) and all(lo <= v <= hi for v in vals), f"seminorm = {vals}")
    if check in ("deltas_below_first", "delta_trend"):
        # group rows by experiment_id, recompute deltas from the value column
        by_id: dict[str, list[Row]] = {}
        for r in rows:
            if r.re is not None and r.N is not None:
                by_id.setdefault(r.experiment_id, []).append(r)
        if not by_id:
            return False, "no value rows"
        details = []
        ok = True
        for rid, rs in sorted(by_id.items()):
            rs.sort(key=lambda r: r.N)
            deltas = {
                rs[i].N: abs(complex(rs[i + 1].re, rs[i + 1].im) - complex(rs[i].re, rs[i].im))
                for i in range(len(rs) - 1)
            }
            if check == "deltas_below_first":
                n0 = int(spec["from"])
                if n0 not in deltas:
                    return False, f"no delta at N={n0}"
                later = {n: d for n, d in deltas.items() if n > n0}
                ok = ok and all(d < deltas[n0] for d in later.values())
                details.append(f"{rid}: delta@{n0}={deltas[n0]:.6g}, later={sorted(later.values())}")
            else:
                small, large = int(spec["small"]), int(spec["large"])
                if small not in deltas or large not in deltas:
                    return False, f"need deltas at N={small} and N={large}"
                ok = ok and deltas[large] < deltas[small]
                details.append(f"{rid}: delta@{small}={deltas[small]:.6g} delta@{large}={deltas[large]:.6g}")
        return ok, "; ".join(details)
    return False, f"unknown check {check!r}"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[Row]
    verdicts: list[dict]
    all_passed: bool
    csv_path: Path | None
    summary_path: Path | None
    wall_time: float


_POINTWISE = {k for k in _REQUIRED if "x0" in _REQUIRED[k]}


def run_experiment(cfg: ExperimentConfig, out_dir=None, workers: int = 1) -> ExperimentReport:
    """Run one experiment, optionally writing ``<id>.csv`` and ``<id>.summary.json``.

    Worker threads split the per-sample-point tasks; results are assembled in
    configured order, so the data rows do not depend on the worker count.
    """
    t0 = time.perf_counter()
    extras: list[dict] = []
    if cfg.experiment in _POINTWISE:
        tasks = [
            (f"{cfg.id}/x{i}" if len(cfg.x0) > 1 else cfg.id, x0)
            for i, x0 in enumerate(cfg.x0)
        ]
        if workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda t: _run_one_point(cfg, *t), tasks))
        else:
            results = [_run_one_point(cfg, rid, x0) for rid, x0 in tasks]
        rows = [r for rs, _, _ in results for r in rs]
        extras = [x for _, x, _ in results]
        diagnostics = [d for _, _, ds in results for d in ds]
    else:
        rows, extra, diagnostics = _run_sequence_experiment(cfg)
        extras = [extra]

    verdicts = []
    all_passed = True
    for spec in cfg.assertions:
        ok, detail = _eval_assertion(spec, rows, extras)
        verdicts.append({"assertion": spec, "passed": ok, "detail": detail})
        all_passed = all_passed and ok

    wall = time.perf_counter() - t0
    csv_path = summary_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{cfg.id}.csv"
        body = CSV_HEADER + "\n" + "".join(r.format() + "\n" for r in rows)
        csv_path.write_bytes(body.encode("ascii"))
        summary = {
            "experiment": cfg.experiment,
            "id": cfg.id,
            "config": cfg.raw,
            "rows": len(rows),
            "extras": [
                {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                 for k, v in x.items()}
                for x in extras
            ],
            "diagnostics": diagnostics,
            "verdicts": verdicts,
            "all_passed": all_passed,
            "wall_time_seconds": wall,  # excluded from the determinism contract
        }
        summary_path = out / f"{cfg.id}.summary.json"
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return ExperimentReport(cfg, rows, verdicts, all_passed, csv_path, summary_path, wall)


def default_out_dir() -> Path:
    return Path(os.environ.get("ERGONIL_OUT", "ergonil-out"))
