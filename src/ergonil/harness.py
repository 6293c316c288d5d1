"""Config-driven experiment harness: JSON in, CSV rows and a JSON summary out.

One config describes one experiment (an operation name plus its inputs). Each top-level key is
declared once, on its `ExperimentConfig` field. Each nested kind is one entry of a table:
`_SYSTEMS`, `_WEIGHTS`, `_INVARIANTS` (of a Heisenberg weight) or `_CHECKS` (assertions), which
holds what the kind does and the keys it reads. `_entry` owns the errors for a missing or
unknown kind and a missing key. Each experiment, one `_EXPERIMENTS` entry, lists the top-level
keys it reads. A key the experiment or its kind does not read is still checked, and named, with
its path, under the summary's ``ignored_keys``.

Data rows are deterministic: re-running a config, with any worker count, yields byte-identical
CSV bytes. Wall-clock metadata lives only in the summary file and is excluded from that
contract. So do the certificates behind the numbers: the summary's ``diagnostics`` list, per
sample point, the error budget of each average, the grid size, spacing and error bound of each
certified sup, and the box size H, pre-root average and clamp flag of each seminorm estimate.

CSV schema (fixed): ``experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped`` with absent
fields left empty and floats printed with 17 significant digits so every row round-trips.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import averages, joinings, nilseq, seminorms, systems
from .errors import ConfigError, DimensionMismatchError, UnsupportedSystemError
from .report import ConvergenceReport, SeminormEstimate, check_schedule
from .systems import AnzaiSkew, Observable, RotationTorus, System, ToralAutomorphism

CSV_HEADER = "experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped"

DEFAULT_SCHEDULE = tuple(1 << k for k in range(10, 17))


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

        return ",".join([self.experiment_id] + [f(getattr(self, c.name)) for c in fields(self)[1:]])


def parse_row(line: str) -> Row:
    parts = line.split(",")
    if len(parts) != 9:
        raise ValueError(f"row has {len(parts)} fields, expected 9")

    def g(s, conv):
        return None if s == "" else conv(s)

    convs = (int,) + (float,) * 6 + (lambda s: s == "1",)
    return Row(parts[0], *(g(s, conv) for s, conv in zip(parts[1:], convs)))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


@contextmanager
def _field(name: str):
    """Report a malformed value met in the block (or decorated call) as a ConfigError on `name`."""
    try:
        yield
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError, OSError) as exc:
        raise ConfigError(str(exc), field=name) from None


def _int(value) -> int:
    """A JSON integer; 8.7, "8" and true are rejected rather than converted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite JSON number; true, "0.5", NaN and Infinity are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


class _Kind(NamedTuple):
    """One entry of a kind table. fn builds a system or weight from (spec, name, cfg) or an
    invariant from its spec, or is a check's verdict (spec, rows, extras) -> (ok, detail)."""
    fn: Callable
    keys: tuple[str, ...] = ()  # the keys fn needs
    optional: tuple[str, ...] = ()  # and those it reads when given
    coord: Callable = _real  # a system's: how x0 reads its points' coordinates


def _entry(table: dict, what: str, spec, name: str, cfg, tag: str = "kind") -> _Kind:
    """The entry of `table` that spec[tag] names, once spec holds every key the entry needs;
    spec's keys the entry does not read go to cfg.ignored_keys. A malformed spec raises
    ValueError, which the enclosing `_field` reports on its field."""
    if not isinstance(spec, dict) or tag not in spec:
        raise ValueError(f"{what} spec needs a '{tag}'")
    kind = spec[tag]
    entry = table.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown {what} {tag} {kind!r}, expected one of {', '.join(table)}")
    for key in entry.keys:
        if key not in spec:
            raise ValueError(f"{kind} requires {key}")
    cfg.ignored_keys += [f"{name}.{key}" for key in spec
                         if key not in (tag, *entry.keys, *entry.optional)]
    return entry


def _build(table: dict, what: str, spec, name: str, cfg):
    """The object the system or weight spec on field `name` declares."""
    with _field(name):
        return _entry(table, what, spec, name, cfg).fn(spec, name, cfg)


def _angle(value, name: str):
    """A 'p/q' string declares a rational angle (a Fraction); a number stays a float."""
    with _field(name):
        return Fraction(value) if isinstance(value, str) else _real(value)


def _rotation(spec, name: str, cfg) -> RotationTorus:
    alpha = spec["alpha"] if isinstance(spec["alpha"], list) else [spec["alpha"]]
    return RotationTorus(tuple(_angle(a, name + ".alpha") for a in alpha))


_SYSTEMS = {
    "rotation_torus": _Kind(_rotation, ("alpha",)),
    "anzai_skew": _Kind(lambda spec, name, cfg: AnzaiSkew(_angle(spec["alpha"], name + ".alpha")),
                        ("alpha",)),
    "toral_automorphism": _Kind(lambda spec, name, cfg: ToralAutomorphism(
        tuple(tuple(_int(v) for v in row) for row in spec["matrix"]),
        _int(spec.get("modulus", (1 << 31) - 1))), ("matrix",), ("modulus",), _int),
}


def _coeff_from_json(value, field_name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_real(value))
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    raise ConfigError(f"coefficient must be a number or [re, im], got {value!r}", field=field_name)


def _observable(spec, name: str, cfg) -> Observable:
    with _field(name):
        if not isinstance(spec, dict) or "terms" not in spec:
            raise ValueError("observable spec needs 'terms'")
        cfg.ignored_keys += [f"{name}.{key}" for key in spec if key not in ("terms", "dimension")]
        terms = []
        for i, entry in enumerate(spec["terms"]):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"term {i} must be [frequency, coefficient]")
            freq, coeff = entry
            freq = tuple(_int(v) for v in freq) if isinstance(freq, list) else (_int(freq),)
            terms.append((freq, _coeff_from_json(coeff, name)))
        dimension = spec.get("dimension")
        return systems.observable(terms, None if dimension is None else _int(dimension))


def _system_observable(spec, name: str, cfg) -> Observable:  # a function on the system's torus
    obs = _observable(spec, name, cfg)
    if cfg.system is not None and obs.dimension != cfg.system.dimension:
        raise DimensionMismatchError(
            f"observable dimension {obs.dimension} != system dimension {cfg.system.dimension}")
    return obs


def _torus_nilseq(spec, name: str, cfg) -> nilseq.OrbitWeight:  # an orbit of a rotation
    func = _observable(spec["observable"], name + ".observable", cfg)
    return nilseq.OrbitWeight(_rotation(spec, name, cfg), func,
                              tuple(_real(b) for b in spec.get("base", [0.0] * func.dimension)))


def _heisenberg(spec, name: str, cfg) -> nilseq.HeisenbergNilseq:
    with _field(name + ".invariant"):
        invariant = _entry(_INVARIANTS, "invariant", spec["invariant"], name + ".invariant", cfg)
    func = invariant.fn(spec["invariant"])  # a malformed value is reported on the weight
    g = nilseq.HeisenbergElement(*(_real(v) for v in spec["g"]))
    base = nilseq.HeisenbergElement(*(_real(v) for v in spec.get("base", [0, 0, 0])))
    return nilseq.HeisenbergNilseq(g, base, func)


_INVARIANTS = {
    "torus_char": _Kind(lambda inv: nilseq.TorusChar(_int(inv["m"]), _int(inv["k"])), ("m", "k")),
    "theta": _Kind(lambda inv: nilseq.ThetaType(
        _int(inv["ell"]), width=_real(inv.get("width", 1.0))), ("ell",), ("width",)),
}
_WEIGHTS = {
    "polynomial_phase": _Kind(lambda spec, name, cfg: nilseq.PolynomialPhase(
        tuple(_real(c) for c in spec["coefficients"])), ("coefficients",)),
    "torus_nilseq": _Kind(_torus_nilseq, ("alpha", "observable"), ("base",)),
    "heisenberg_nilseq": _Kind(_heisenberg, ("g", "invariant"), ("base",)),
    "product": _Kind(lambda spec, name, cfg: nilseq.Product(
        _build(_WEIGHTS, "weight", spec["left"], name + ".left", cfg),
        _build(_WEIGHTS, "weight", spec["right"], name + ".right", cfg)), ("left", "right")),
    "scaled": _Kind(lambda spec, name, cfg: nilseq.Scaled(
        _coeff_from_json(spec["scale"], name + ".scale"),
        _build(_WEIGHTS, "weight", spec["inner"], name + ".inner", cfg)), ("scale", "inner")),
    "table": _Kind(lambda spec, name, cfg: nilseq.table_from_csv(  # an absolute path stays
        cfg.base_dir / spec["path"], _real(spec.get("sup_error_budget", 0.0))),
        ("path",), ("sup_error_budget",)),
}


def build_weight(spec, field_name: str, base_dir: Path) -> nilseq.WeightSequence:
    return _build(_WEIGHTS, "weight", spec, field_name, ExperimentConfig("", "", {}, base_dir))


def _at(column: str, test: Callable) -> Callable:
    """Verdict of test(value, spec) on the `column` of every row at N = spec["N"]."""
    def verdict(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
        n = int(spec["N"])
        picked = [getattr(r, column) for r in rows if r.N == n]
        if not picked:
            return False, f"no rows at N={n}"
        vals = [v for v in picked if v is not None]
        label = f"|A_{n}|" if column == "abs" else column
        return bool(vals) and all(test(v, spec) for v in vals), f"{label} = {vals}"
    return verdict


def _passed(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
    oks = [x.get("passed") for x in extras if "passed" in x]
    return bool(oks) and all(oks), f"pass flags: {oks}"


def _deltas(rows: list[Row]) -> dict[str, dict[int, float]]:
    """Per experiment id, in sorted order: |A_N' - A_N| at each N, N' the next N with a value."""
    values: dict[str, list[tuple[int, complex]]] = {}
    for r in sorted((r for r in rows if r.re is not None and r.N is not None),
                    key=lambda r: (r.experiment_id, r.N)):
        values.setdefault(r.experiment_id, []).append((r.N, complex(r.re, r.im)))
    return {rid: {n: abs(v[i + 1][1] - z) for i, (n, z) in enumerate(v[:-1])}
            for rid, v in values.items()}


def _deltas_below_first(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
    n0, by_id = int(spec["from"]), _deltas(rows)
    if not by_id or any(n0 not in d for d in by_id.values()):
        return False, f"no delta at N={n0}" if by_id else "no value rows"
    later = {rid: sorted(x for n, x in d.items() if n > n0) for rid, d in by_id.items()}
    return (all(x < d[n0] for rid, d in by_id.items() for x in later[rid]),
            "; ".join(f"{rid}: delta@{n0}={d[n0]:.6g}, later={later[rid]}"
                      for rid, d in by_id.items()))


def _delta_trend(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
    small, large, by_id = int(spec["small"]), int(spec["large"]), _deltas(rows)
    if not by_id or any(small not in d or large not in d for d in by_id.values()):
        return False, f"need deltas at N={small} and N={large}" if by_id else "no value rows"
    return (all(d[large] < d[small] for d in by_id.values()),
            "; ".join(f"{rid}: delta@{small}={d[small]:.6g} delta@{large}={d[large]:.6g}"
                      for rid, d in by_id.items()))


# "N", "from", "small" and "large" are integers, the other keys numbers
_CHECKS = {
    "passed": _Kind(_passed),
    "abs_below": _Kind(_at("abs", lambda v, spec: v < spec["value"]), ("N", "value")),
    "sup_below": _Kind(_at("sup", lambda v, spec: v < spec["value"]), ("N", "value")),
    "sup_at_least": _Kind(_at("sup", lambda v, spec: v >= spec["value"]), ("N", "value")),
    "seminorm_below": _Kind(_at("seminorm", lambda v, spec: v <= spec["value"]), ("N", "value")),
    "seminorm_between": _Kind(_at("seminorm", lambda v, spec: spec["low"] <= v <= spec["high"]),
                              ("N", "low", "high")),
    "deltas_below_first": _Kind(_deltas_below_first, ("from",)),
    "delta_trend": _Kind(_delta_trend, ("small", "large")),
}


def _assertions(specs, name: str, cfg) -> list:
    for i, spec in enumerate(specs):
        for key in _entry(_CHECKS, "assertion", spec, f"{name}[{i}]", cfg, tag="check").keys:
            (_int if key in ("N", "from", "small", "large") else _real)(spec[key])
    return specs


def _key(read: Callable, check: Callable = lambda value: None, **default):
    """A config key, declared on its field: `read(value, name, cfg)` gives the field from the
    JSON value, after the keys above it; `check` is the library's own test of it."""
    return field(metadata={"read": read, "check": check}, **(default or {"default": None}))


def _value(conv: Callable) -> Callable:  # a key whose JSON value alone gives its field
    return lambda value, name, cfg: conv(value)


def _g_list(specs, name: str, cfg) -> list[Observable]:
    return [_observable(spec, f"{name}[{i}]", cfg) for i, spec in enumerate(specs)]


def _points(pts, name: str, cfg) -> list[tuple]:  # residue pairs on a lattice
    if not isinstance(pts, list) or not pts:
        raise ConfigError("x0 must be a nonempty list of points", field=name)
    conv = _SYSTEMS[cfg.raw["system"]["kind"]].coord if cfg.system is not None else _real
    points = [tuple(conv(v) for v in p) for p in (pts if isinstance(pts[0], list) else [pts])]
    for p in points if cfg.system is not None else ():
        cfg.system.check_point(p)  # a point off the system is a config error
    return points


def _exponent(value, name: str, cfg) -> int:  # b, with a whenever both are given
    b = _int(value)
    if cfg.a is not None:
        averages.check_exponents(cfg.a, b)
    return b


@dataclass
class ExperimentConfig:
    experiment: str
    id: str
    raw: dict
    base_dir: Path = Path(".")  # where a table weight's relative path starts
    ignored_keys: list[str] = field(default_factory=list)  # keys the run skips, as "shedule"
    system: System | None = _key(partial(_build, _SYSTEMS, "system"))
    system_s: System | None = _key(partial(_build, _SYSTEMS, "system"))
    observable: Observable | None = _key(_system_observable)
    observable1: Observable | None = _key(_system_observable)
    observable2: Observable | None = _key(_system_observable)
    g_list: list[Observable] = _key(_g_list, default_factory=list)
    weight: nilseq.WeightSequence | None = _key(partial(_build, _WEIGHTS, "weight"))
    weight1: nilseq.WeightSequence | None = _key(partial(_build, _WEIGHTS, "weight"))
    weight2: nilseq.WeightSequence | None = _key(partial(_build, _WEIGHTS, "weight"))
    x0: list = _key(_points, default_factory=list)
    a: int | None = _key(_value(_int))
    b: int | None = _key(_exponent)
    t: float | None = _key(_value(_real))
    p: tuple[float, ...] | None = _key(_value(lambda v: tuple(_real(c) for c in v)))
    k: int | None = _key(_value(_int), seminorms._check_order)
    H: int | None = _key(_value(_int), seminorms._check_box)
    N: int | None = _key(_value(_int), averages._check_count)
    K: int | None = _key(_value(_int))
    eps: float | None = _key(_value(_real), averages._check_eps)
    tol: float | None = _key(_value(_real))
    schedule: tuple[int, ...] = _key(_value(lambda v: check_schedule(_int(n) for n in v)),
                                     default=DEFAULT_SCHEDULE)
    assertions: list = _key(_assertions, default_factory=list)


_KEYS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.metadata}


def config_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    experiment = doc.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown or missing experiment {experiment!r}; see list-experiments",
                          field="experiment")
    entry = _EXPERIMENTS[experiment]
    rid = doc.get("id", experiment)
    # the id names the output files, which must stay inside the output directory, and
    # leads each ASCII CSV row as one field
    plain = isinstance(rid, str) and rid.isascii() and rid.isprintable()
    if not plain or rid in ("", ".", "..") or any(c in rid for c in "/\\,"):
        raise ConfigError(f"id must be a printable ASCII file name without a comma, got {rid!r}",
                          field="id")
    if "index_base" in doc:  # a moved origin would shift every average by O(1/N)
        raise ConfigError("n starts where the experiment fixes it (1 for orbit averages, "
                          "0 for weight and seminorm sequences)", field="index_base")
    missing = [name for name in entry.required if name not in doc]
    if missing:
        raise ConfigError(f"{experiment} requires {', '.join(missing)}", field=missing[0])
    reads = ("id", "experiment", "assertions", *entry.required, *entry.optional)
    unread = [key for key in doc if key not in reads]
    cfg = ExperimentConfig(experiment, rid, doc, base_dir or Path("."), ignored_keys=unread)
    for name, key in _KEYS.items():
        if name in doc:
            with _field(name):
                value = key["read"](doc[name], name, cfg)
                key["check"](value)
            setattr(cfg, name, value)
    entry.check(cfg)
    reach = entry.reach(cfg)
    for name in _KEYS:  # a table must cover every time the run reads
        w = getattr(cfg, name)
        if isinstance(w, nilseq.WeightSequence) and w.length is not None and w.length < reach:
            raise ConfigError(f"weight defined for n < {w.length}, {experiment} reads n < {reach}",
                              field=name)
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return config_from_dict(doc, base_dir=path.parent)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _from_report(rid: str, rep: ConvergenceReport) -> tuple[list[Row], dict, list[dict]]:
    """A report's CSV rows, and how far its numbers can be trusted (summary only)."""
    rows = []
    for i, n in enumerate(rep.schedule):
        v = rep.values[i]
        kw = dict(N=n, re=v.real, im=v.imag, abs=abs(v))
        if rep.sup_data is not None:
            kw.update(sup=rep.sup_data[i].sup_value, t_star=rep.sup_data[i].t_star)
        if rep.seminorm_data is not None:
            kw.update(seminorm=rep.seminorm_data[i].value, clamped=rep.seminorm_data[i].clamped)
        rows.append(Row(rid, **kw))
    diag: dict = {"id": rid, "error_budget": rep.error_budget}
    if rep.sup_data is not None:
        diag["sup"] = [
            {"N": n, "grid_size": s.grid_size, "grid_spacing": s.grid_spacing,
             "error_bound": s.error_bound}
            for n, s in zip(rep.schedule, rep.sup_data)
        ]
    if rep.seminorm_data is not None:
        diag["seminorm"] = [_seminorm_certificate(est) for est in rep.seminorm_data]
    return rows, {}, [diag]


def _seminorm_certificate(est: SeminormEstimate) -> dict:
    return {"N": est.N, "H": est.H, "pre_root_average": est.pre_root_average,
            "clamped": est.clamped}


def _run_cesaro(cfg: ExperimentConfig, rid: str, x0):
    return _from_report(rid, averages.cesaro_nilseq(cfg.weight, cfg.schedule))


def _box_size(cfg: ExperimentConfig, n: int) -> int:
    return cfg.H if cfg.H is not None else seminorms.coupled_box_size(n)


def _seminorm_rows(cfg: ExperimentConfig, rid: str, estimate: Callable):
    """One row per scheduled N of `estimate(N, H)`; its certificate goes to diagnostics."""
    ests = [estimate(n, _box_size(cfg, n)) for n in cfg.schedule]
    rows = [Row(rid, N=est.N, seminorm=est.value, clamped=est.clamped) for est in ests]
    return rows, {}, [{"id": rid, "seminorm": [_seminorm_certificate(est) for est in ests]}]


def _local_reach(cfg: ExperimentConfig) -> int:
    top = cfg.schedule[-1]  # one sample run for the last box, N + k H; each box reads a prefix
    return top + cfg.k * _box_size(cfg, top)


def _run_local_seminorm(cfg: ExperimentConfig, rid: str, x0):
    seq = averages.weight_samples(cfg.weight, _local_reach(cfg))
    return _seminorm_rows(cfg, rid, lambda n, h: seminorms.local_seminorm(seq, cfg.k, h, n))


def _run_ghk_seminorm(cfg: ExperimentConfig, rid: str, x0):
    return _seminorm_rows(cfg, rid, lambda n, h: seminorms.ghk_seminorm(
        cfg.system, cfg.observable, x0, cfg.k, h, n))


def _run_vanishing(cfg: ExperimentConfig, rid: str, x0):
    return _from_report(rid, seminorms.vanishing_experiment(
        cfg.system, cfg.observable1, cfg.observable2, x0, cfg.a, cfg.b, cfg.weight, cfg.k,
        cfg.schedule))


def _run_product_formula(cfg: ExperimentConfig, rid: str, x0):
    rep = joinings.product_formula_check(cfg.system, cfg.observable1, cfg.observable2, x0,
                                         cfg.a, cfg.b, cfg.N, cfg.tol)
    rows = [Row(f"{rid}:{side}", N=rep.N, re=v.real, im=v.imag, abs=abs(v))
            for side, v in (("lhs", rep.lhs), ("rhs", rep.rhs))]
    return rows, {"passed": rep.passed, "gap": abs(rep.lhs - rep.rhs)}, []


def _run_vdc_bound(cfg: ExperimentConfig, rid: str, x0):
    seq = averages.weight_samples(cfg.weight, cfg.N)
    rep = seminorms.vdc_bound(seq, cfg.N, cfg.K)
    rows = [Row(rid + ":lhs", N=cfg.N, abs=rep.lhs), Row(rid + ":rhs", N=cfg.N, abs=rep.rhs)]
    diag = {"id": rid, "margin": rep.rhs - rep.lhs, "lag_rounding_bound": rep.lag_rounding_bound}
    return rows, {"passed": rep.passed}, [diag]


def _cube_reach(cfg: ExperimentConfig) -> int:
    return cfg.N + 3 * (cfg.H - 1)


def _run_cube_average(cfg: ExperimentConfig, rid: str, x0):
    length = _cube_reach(cfg)
    v = seminorms.cube_average(*(averages.weight_samples(w, length)
                                 for w in (cfg.weight1, cfg.weight2)), cfg.H)
    return [Row(rid, N=cfg.N, re=v.real, im=v.imag, abs=abs(v))], {}, []


@_field("H")
def _coupled_box(cfg: ExperimentConfig):  # the sequence seminorm's N >= H^2 at the first N
    seminorms._check_box(_box_size(cfg, cfg.schedule[0]), cfg.schedule[0])


def _auxiliary(cfg: ExperimentConfig):
    try:
        averages.check_auxiliary(cfg.system_s, cfg.g_list)
    except UnsupportedSystemError as exc:
        raise ConfigError(str(exc), field="system_s") from None
    except DimensionMismatchError as exc:
        raise ConfigError(str(exc), field="g_list") from None


class _Experiment(NamedTuple):
    required: tuple[str, ...]  # runs once per starting point when it holds "x0"
    run: Callable  # (cfg, rid, x0) -> (rows, extras, diagnostics); x0 None if not pointwise
    reach: Callable = lambda cfg: 0  # cfg -> R: the run reads its weights at the times n < R
    check: Callable = lambda cfg: None  # raises a ConfigError on inputs only this one rejects
    optional: tuple[str, ...] = ("schedule",)  # keys read when given; "assertions" always is


_ORBIT = ("system", "observable", "x0")
_PAIR = ("system", "observable1", "observable2", "x0", "a", "b")
_FACTORS = {_ORBIT: lambda cfg: ((cfg.observable, 1),),  # f(T^n x0)
            _PAIR: lambda cfg: ((cfg.observable1, cfg.a), (cfg.observable2, cfg.b))}  # f1 f2


def _scheduled(keys: tuple, more: tuple = (), weight: Callable = lambda cfg: None,
               reduce: Callable = lambda cfg: averages.means, **kw) -> _Experiment:
    """The entry of `averages.run_schedule` on the factors of `keys`, weight and reducer of cfg."""
    def run(cfg: ExperimentConfig, rid: str, x0):
        return _from_report(rid, averages.run_schedule(
            cfg.system, x0, cfg.schedule, _FACTORS[keys](cfg), weight(cfg), reduce(cfg)))
    return _Experiment(keys + more, run, **kw)


# orbit averages run n = 1..N; a weight's Cesaro mean and the sequence/seminorm family 0..N-1
_EXPERIMENTS = {
    "birkhoff_avg": _scheduled(_ORBIT),
    "ww_avg": _scheduled(_ORBIT, ("t",), lambda cfg: nilseq.PolynomialPhase((0.0, cfg.t))),
    "ww_sup": _scheduled(_ORBIT, ("eps",), reduce=lambda cfg: averages.sups(cfg.eps)),
    "double_avg": _scheduled(_PAIR),
    "wwdr_avg": _scheduled(_PAIR, ("t",), lambda cfg: nilseq.PolynomialPhase((0.0, cfg.t))),
    "poly_wwdr_avg": _scheduled(_PAIR, ("p",), lambda cfg: nilseq.PolynomialPhase(cfg.p)),
    "nil_wwdr_avg": _scheduled(_PAIR, ("weight",), lambda cfg: cfg.weight,
                               reach=lambda cfg: cfg.schedule[-1] + 1),
    "dual_system_avg": _scheduled(_PAIR, ("system_s", "g_list"), check=_auxiliary,
                                  reduce=lambda cfg: averages.dual_norms(cfg.system_s, cfg.g_list)),
    "cesaro_nilseq": _Experiment(("weight",), _run_cesaro, lambda cfg: cfg.schedule[-1]),
    "local_seminorm": _Experiment(("weight", "k"), _run_local_seminorm, _local_reach,
                                  check=_coupled_box, optional=("schedule", "H")),
    "ghk_seminorm": _Experiment(_ORBIT + ("k",), _run_ghk_seminorm,
                                optional=("schedule", "H")),
    "vdc_bound": _Experiment(("weight", "N", "K"), _run_vdc_bound, lambda cfg: cfg.N,
                             check=_field("K")(lambda cfg: seminorms._check_vdc(cfg.N, cfg.K)),
                             optional=()),
    "cube_average": _Experiment(("weight1", "weight2", "H", "N"), _run_cube_average, _cube_reach,
                                optional=()),
    "vanishing_experiment": _Experiment(_PAIR + ("weight", "k"), _run_vanishing,
                                        lambda cfg: cfg.schedule[-1]),
    "product_formula_check": _Experiment(_PAIR + ("N", "tol"), _run_product_formula, optional=()),
}


def list_experiments() -> list[str]:
    return sorted(_EXPERIMENTS)


def _eval_assertion(spec: dict, rows: list[Row], extras: list[dict]) -> tuple[bool, str]:
    return _CHECKS[spec["check"]].fn(spec, rows, extras)


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


def run_experiment(cfg: ExperimentConfig, out_dir=None, workers: int = 1) -> ExperimentReport:
    """Run one experiment, optionally writing ``<id>.csv`` and ``<id>.summary.json``.

    Worker threads split the per-sample-point tasks; results are assembled in
    configured order, so the data rows do not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t0 = time.perf_counter()
    if out_dir is not None:  # made first, so a file in its way fails before the run
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    entry = _EXPERIMENTS[cfg.experiment]
    points = cfg.x0 if "x0" in entry.required else [None]
    tasks = [(f"{cfg.id}/x{i}" if len(points) > 1 else cfg.id, x0)
             for i, x0 in enumerate(points)]
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: entry.run(cfg, *t), tasks))
    else:
        results = [entry.run(cfg, *t) for t in tasks]
    rows = [r for rs, _, _ in results for r in rs]
    extras = [x for _, x, _ in results]
    diagnostics = [d for _, _, ds in results for d in ds]

    verdicts = [dict(zip(("passed", "detail"), _eval_assertion(spec, rows, extras)), assertion=spec)
                for spec in cfg.assertions]
    all_passed = all(v["passed"] for v in verdicts)

    wall = time.perf_counter() - t0
    csv_path = summary_path = None
    if out_dir is not None:
        csv_path = Path(out_dir) / f"{cfg.id}.csv"
        body = CSV_HEADER + "\n" + "".join(r.format() + "\n" for r in rows)
        csv_path.write_bytes(body.encode("ascii"))
        summary = {
            "experiment": cfg.experiment, "id": cfg.id, "config": cfg.raw, "rows": len(rows),
            "extras": [{k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                        for k, v in x.items()} for x in extras],
            "diagnostics": diagnostics,
            "ignored_keys": cfg.ignored_keys,
            "verdicts": verdicts,
            "all_passed": all_passed,
            "wall_time_seconds": wall,  # excluded from the determinism contract
        }
        summary_path = Path(out_dir) / f"{cfg.id}.summary.json"
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return ExperimentReport(cfg, rows, verdicts, all_passed, csv_path, summary_path, wall)
