"""Weight-sequence generators: polynomial phases, torus and Heisenberg
nilsequences, products, scalar multiples, and table-backed sequences.

Every variant reports a sup bound, and table-backed sequences carry an
explicit `sup_error_budget` standing in for the distance to a uniform limit;
the budget propagates through products and scaling so averages can quote an
additive error term.

The Heisenberg group is coordinatized as (a, b, c) with multiplication
(a, b, c)(a', b', c') = (a + a', b + b', c + c' + a*b'), lattice subgroup the
integer triples, and the half-open cube [0, 1)^3 as fundamental domain for
right lattice translation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, SequenceTooShortError
from .numerics import frac, frac_combine, frac_poly, pairwise_sum, two_prod, unit_phase
from .report import ConvergenceReport, check_schedule, make_report
from .systems import SKEW_MAX_TIME, Observable, eval_observable_many


@dataclass(frozen=True)
class HeisenbergElement:
    a: float
    b: float
    c: float

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.a + other.a, self.b + other.b, self.c + other.c + self.a * other.b
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.a, -self.b, self.a * self.b - self.c)

    @staticmethod
    def identity() -> "HeisenbergElement":
        return HeisenbergElement(0.0, 0.0, 0.0)


def heisenberg_pow(g: HeisenbergElement, n: int) -> HeisenbergElement:
    """g**n in closed form: (n a, n b, n c + a b n(n-1)/2), valid for all integers n."""
    n = int(n)
    half = n * (n - 1) // 2
    return HeisenbergElement(n * g.a, n * g.b, n * g.c + g.a * g.b * half)


def reduce_fundamental(e: HeisenbergElement):
    """Right-translate by a lattice element into [0, 1)^3.

    Deterministic choice: p = -floor(a), q = -floor(b), then r lands the
    (already shifted) center coordinate in [0, 1). Idempotent.
    """
    p = -int(np.floor(e.a))
    q = -int(np.floor(e.b))
    c_shift = e.c + e.a * q
    r = -int(np.floor(c_shift))
    reduced = HeisenbergElement(
        float(frac(np.float64(e.a))),
        float(frac(np.float64(e.b))),
        float(frac(np.float64(c_shift))),
    )
    return reduced, (p, q, r)


# ---------------------------------------------------------------------------
# lattice-invariant functions on the Heisenberg quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusChar:
    """F(x, y, z) = e(m x + k y): exactly invariant, descends to the base torus."""

    m: int
    k: int

    @property
    def bound(self) -> float:
        return 1.0

    def eval_raw(self, x, y, z):
        return unit_phase(frac(self.m * np.asarray(x) + self.k * np.asarray(y)))


@dataclass(frozen=True)
class ThetaType:
    """Truncated theta-style section in the ell-th center frequency.

    F(x, y, z) = e(ell z) * sum_{|j| <= J} w(y + j) e(ell j x) with w a
    Gaussian bump of the given width. The window shift under a lattice
    translate cancels the z-cocycle exactly; truncation leaves a violation
    bounded by the Gaussian tail beyond J (below 1e-10 for J = 8, width 1).
    """

    ell: int
    truncation: int = 8
    width: float = 1.0

    def __post_init__(self):
        if self.ell == 0:
            raise ValueError("center frequency ell must be nonzero")
        if self.truncation < 1 or self.width <= 0:
            raise ValueError("need truncation >= 1 and width > 0")

    def _bump(self, u):
        return np.exp(-np.pi * (np.asarray(u) / self.width) ** 2)

    @cached_property
    def bound(self) -> float:
        ys = np.linspace(0.0, 1.0, 4097)
        js = np.arange(-self.truncation, self.truncation + 1)
        tot = self._bump(ys[:, None] + js[None, :]).sum(axis=1)
        return float(tot.max()) * (1.0 + 1e-12)

    def eval_raw(self, x, y, z):
        x, y, z = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
        acc = np.zeros(np.broadcast(x, y, z).shape, dtype=np.complex128)
        for j in range(-self.truncation, self.truncation + 1):
            term = self._bump(y + j) * unit_phase(frac(self.ell * j * x))
            acc = np.add(acc, term, out=term if np.ndim(term) else None)  # into the fresh term
        return unit_phase(frac(self.ell * z)) * acc  # operand order as in eval_observable_many


@dataclass(frozen=True)
class InvarianceReport:
    max_violation: float
    passed: bool
    samples: int


def check_gamma_invariance(func, sample_count: int, tol: float, seed: int = 0) -> InvarianceReport:
    """Sample |F(e * gamma) - F(e)| over random e in [0,1)^3 and small gamma.

    `func` needs only an `eval_raw(x, y, z)` method, so deliberately broken
    candidates can be checked too. Lattice entries are drawn from [-3, 3].
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.random((sample_count, 3))
    gammas = rng.integers(-3, 4, size=(sample_count, 3))
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    p, q, r = (gammas[:, i].astype(np.float64) for i in range(3))
    base = func.eval_raw(x, y, z)
    translated = func.eval_raw(x + p, y + q, z + r + x * q)
    worst = float(np.max(np.abs(translated - base)))
    return InvarianceReport(worst, worst <= tol, sample_count)


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------


class WeightSequence:
    """Bounded complex sequence with a recorded sup bound; every weight
    class derives from it.

    Subclasses implement `eval_many`; `length` is None except for
    table-backed data; `error_budget` is the additive sup uncertainty.
    """

    bound: float = 1.0
    length: int | None = None
    error_budget: float = 0.0

    def eval_many(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, n: int) -> complex:
        return complex(self.eval_many(np.asarray([int(n)], dtype=np.int64))[0])


@dataclass(frozen=True)
class PolynomialPhase(WeightSequence):
    """b_n = e(p(n)) for a real-coefficient polynomial p."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    def eval_many(self, n):
        return unit_phase(frac_poly(self.coefficients, n))


@dataclass(frozen=True)
class TorusNilseq(WeightSequence):
    """b_n = F(base + n alpha) for a trigonometric polynomial F on T^d."""

    alpha: tuple[float, ...]
    func: Observable
    base: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "base", tuple(float(b) for b in self.base))
        if len(self.alpha) != self.func.dimension or len(self.base) != self.func.dimension:
            raise ValueError("alpha, base, and F must share one dimension")

    @property
    def bound(self) -> float:
        return self.func.bound

    def eval_many(self, n):
        cols = [frac_poly((b, a), np.atleast_1d(n)) for a, b in zip(self.alpha, self.base)]
        return eval_observable_many(self.func, np.stack(cols, axis=-1))


@dataclass(frozen=True)
class HeisenbergNilseq(WeightSequence):
    """Basic 2-step sequence b_n = F(g^n * base) on the Heisenberg quotient.

    Coordinates of g^n * base are reduced mod the lattice with compensated
    arithmetic before F is applied, so phases stay accurate at n ~ 2**20
    even though the raw center coordinate grows like n^2. Declared for
    |n| <= 2**27 - 1, where n(n-1)/2 is exact in float, and |floor(Y) n| < 2**53
    (Y = n g.b + base.b), where the lattice twist is; `DomainError` past either.
    """

    g: HeisenbergElement
    base: HeisenbergElement
    func: TorusChar | ThetaType

    @property
    def bound(self) -> float:
        return self.func.bound

    def eval_many(self, n):
        n = np.atleast_1d(np.asarray(n, dtype=np.int64))
        top = max(-int(n.min()), int(n.max())) if n.size else 0
        if top > SKEW_MAX_TIME:
            raise DomainError(f"Heisenberg time {top} is past the limit |n| <= {SKEW_MAX_TIME}, "
                              "where n(n-1)/2 stays exact in float")
        nf = n.astype(np.float64)
        half = ((n * (n - 1)) // 2).astype(np.float64)
        ga, gb, gc = self.g.a, self.g.b, self.g.c
        u, v, w = self.base.a, self.base.b, self.base.c
        ab_hi, ab_lo = two_prod(ga, gb)
        na_hi, na_lo = two_prod(nf, ga)
        # raw point e = g^n * base = (X, Y, Z); reduce by the lattice element
        # gamma = (p, q, r) with q = -floor(Y): x and z shift by integers (the
        # function only sees them through integer-frequency phases) but the
        # center picks up the twist X*q, which must use the same q that the
        # fractional part of Y implies
        x = frac_combine(products=[(nf, ga)], terms=[u])
        y = frac_combine(products=[(nf, gb)], terms=[v])
        floor_y = np.round(nf * gb + v - y)  # exact: the true floor is within ~1e-10
        z_raw = frac_combine(
            products=[(nf, gc), (half, ab_hi), (half, ab_lo), (na_hi, v), (na_lo, v)],
            terms=[w],
        )
        kn = floor_y * nf  # exact while |floor_y * n| < 2**53
        if n.size and np.abs(kn).max() >= 2.0**53:
            raise DomainError("Heisenberg twist floor(Y) * n reaches 2^53, the limit of its "
                              "exact float product")
        twist = frac_combine(products=[(kn, ga), (floor_y, u)])
        z = frac(z_raw - twist)
        return self.func.eval_raw(x, y, z)


@dataclass(frozen=True)
class Product(WeightSequence):
    left: WeightSequence
    right: WeightSequence

    @property
    def bound(self) -> float:
        return self.left.bound * self.right.bound

    @property
    def length(self) -> int | None:
        ls = [w.length for w in (self.left, self.right) if w.length is not None]
        return min(ls) if ls else None

    @property
    def error_budget(self) -> float:
        l, r = self.left, self.right
        return l.bound * r.error_budget + r.bound * l.error_budget + l.error_budget * r.error_budget

    def eval_many(self, n):
        return self.left.eval_many(n) * self.right.eval_many(n)


@dataclass(frozen=True)
class Scaled(WeightSequence):
    scale: complex
    inner: WeightSequence

    @property
    def bound(self) -> float:
        return abs(self.scale) * self.inner.bound

    @property
    def length(self) -> int | None:
        return self.inner.length

    @property
    def error_budget(self) -> float:
        return abs(self.scale) * self.inner.error_budget

    def eval_many(self, n):
        return self.inner.eval_many(n) * complex(self.scale)  # order as in eval_observable_many


class Table(WeightSequence):
    """Finite stored sequence standing in for a uniform limit.

    `sup_error_budget` is the declared sup distance to the limit object; it
    is carried into any average computed against this weight.
    """

    def __init__(self, values, sup_error_budget: float = 0.0):
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("table must be a nonempty 1-d complex sequence")
        self.error_budget = float(sup_error_budget)
        if self.error_budget < 0:
            raise ValueError("sup_error_budget must be >= 0")
        self.bound = float(np.abs(self.values).max())

    @property
    def length(self) -> int:
        return self.values.size

    def eval_many(self, n):
        n = np.atleast_1d(np.asarray(n, dtype=np.int64))
        if (n < 0).any() or (n >= self.values.size).any():
            raise SequenceTooShortError(
                f"table defines n in [0, {self.values.size}), requested up to {int(n.max())}"
            )
        return self.values[n]


def table_from_csv(path, sup_error_budget: float = 0.0) -> Table:
    """Load a table weight from CSV columns n,re,im (n = 0,1,2,... with no gaps)."""
    rows = []
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["n", "re", "im"]:
            raise ConfigError(f"expected header n,re,im, got {reader.fieldnames}", field="table")
        for i, row in enumerate(reader):
            if int(row["n"]) != i:
                raise ConfigError(f"row {i} has n={row['n']}; need 0,1,2,... with no gaps", field="table")
            rows.append(complex(float(row["re"]), float(row["im"])))
    if not rows:
        raise ConfigError("table file has no data rows", field="table")
    return Table(np.asarray(rows), sup_error_budget)


def eval_weight(w: WeightSequence, n: int) -> complex:
    return w.eval(n)


def product_weight(w1: WeightSequence, w2: WeightSequence) -> Product:
    return Product(w1, w2)


def constant_weight(value: complex = 1.0) -> Scaled:
    return Scaled(complex(value), PolynomialPhase((0.0,)))


def weight_samples(w: WeightSequence, length: int, start: int = 0) -> np.ndarray:
    """Materialize w(start), ..., w(start + length - 1)."""
    if w.length is not None and start + length > w.length:
        raise SequenceTooShortError(
            f"weight defined for n < {w.length}, requested n < {start + length}"
        )
    return w.eval_many(np.arange(start, start + length, dtype=np.int64))


def cesaro_nilseq(w: WeightSequence, schedule) -> ConvergenceReport:
    """A_N = (1/N) sum_{n=0}^{N-1} w(n) for each N in an increasing schedule."""
    schedule = check_schedule(schedule)
    terms = weight_samples(w, schedule[-1])
    values = [pairwise_sum(terms[:n]) / n for n in schedule]
    return make_report(schedule, values, error_budget=w.error_budget)
