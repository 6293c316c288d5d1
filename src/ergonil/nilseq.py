"""Weight-sequence generators: polynomial phases, orbit weights F(S^n y) of
a system (a torus nilsequence is the orbit of a rotation), Heisenberg
nilsequences, products, scalar multiples, and table-backed sequences.

Every variant reports a sup bound, and table-backed sequences carry an
explicit `sup_error_budget` standing in for the distance to a uniform limit;
the budget propagates through products and scaling so averages can quote an
additive error term. Callers take a weight's values over a range of times
from `averages.orbit_terms`, the one place that evaluates them, or from
`averages.weight_samples`, which is built on it.

The Heisenberg group is coordinatized as (a, b, c) with multiplication
(a, b, c)(a', b', c') = (a + a', b + b', c + c' + a*b'), lattice subgroup the
integer triples, and the half-open cube [0, 1)^3 as fundamental domain for
right lattice translation.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import KW_ONLY, astuple, dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, DomainError, SequenceTooShortError
from .numerics import from_turns, ordered_product, phase, poly_turns, to_turns, turn_sum
from .systems import (AnzaiSkew, Observable, System, _check_system, check_times,
                      eval_observable_many, integer_frequency, orbit_coords)


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
    p, q = -math.floor(e.a), -math.floor(e.b)
    c_shift = e.c + e.a * q
    r = -math.floor(c_shift)
    parts = (e.a + p, e.b + q, c_shift + r)  # t - floor(t): exact, or rounded up to 1.0
    return HeisenbergElement(*(t if t < 1.0 else 0.0 for t in parts)), (p, q, r)


def _flat(*coords):
    """The shape of float coordinates broadcast together, and each as a 1-d array (a uint64
    scalar, unlike an array, warns where turn arithmetic wraps)."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in coords))
    return arrays[0].shape, [a.reshape(-1) for a in arrays]


# ---------------------------------------------------------------------------
# lattice-invariant functions on the Heisenberg quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusChar:
    """F(x, y, z) = e(m x + k y): exactly invariant, descends to the base torus. Its value is
    the phase of the uint64 sum m X + k Y of the turns of x and y (`eval_turns`)."""

    m: int
    k: int

    bound = 1.0
    tail_bound = 0.0  # nothing is truncated

    def __post_init__(self):  # e(1.5 x) is not lattice-invariant
        integer_frequency(self.m), integer_frequency(self.k)

    def eval_turns(self, X, Y):
        """F at uint64 turns X and Y, arrays of one shape, at least 1-d; both are overwritten."""
        X *= np.uint64(self.m % 2**64)
        X += np.multiply(Y, np.uint64(self.k % 2**64), out=Y)
        return phase(X)

    def eval_raw(self, x, y, z):
        shape, (x, y) = _flat(x, y)
        return self.eval_turns(to_turns(x), to_turns(y)).reshape(shape)[()]


THETA_TAIL = 2.0**-64  # the most mass a theta window may drop, per element
THETA_WIDTH_RANGE = (2.0**-20, 2.0**6)  # far from overflow in (y / width)^2; R <= 246


@dataclass(frozen=True)
class ThetaType:
    """Theta-style section in the ell-th center frequency.

    F(x, y, z) = e(ell z) * sum_{j in Z} w(y + j) e(ell j x) with w a Gaussian
    bump of the given width. The window shift under a lattice translate
    cancels the z-cocycle exactly, so F is Gamma-invariant.

    Each element sums only its window j = -j0 - R .. -j0 + R - 1 with
    j0 = floor(y). Every dropped term has |y + j| >= R, so the dropped mass is
    at most `tail_bound` <= `THETA_TAIL`; R (`window`) is the smallest
    half-width for which that holds, 4 for width 1.

    Phases are of the uint64 products ell X, ell Z of turns (`eval_turns`). `eval_raw` reads
    float x, z as turns and folds e(-ell j0 x) into Z exactly; `DomainError` at a non-finite
    coordinate or where j0 leaves int64.
    """

    ell: int
    _: KW_ONLY
    width: float = 1.0

    def __post_init__(self):
        integer_frequency(self.ell)
        if self.ell == 0:
            raise ValueError("center frequency ell must be nonzero")
        lo, hi = THETA_WIDTH_RANGE
        if not lo <= self.width <= hi:
            raise ValueError(f"width must lie in [2^-20, 2^6], got {self.width!r}")

    @cached_property
    def bound(self) -> float:
        """theta_w(0) = sum_j w(j), in closed form up to `_tail`. By Poisson summation
        every Fourier coefficient of theta_w(y) = sum_j w(y + j) is positive, so
        |window sum| <= theta_w(y) <= theta_w(0)."""
        R, s = self.window, math.pi / self.width**2
        head = 1.0 + 2.0 * math.fsum(math.exp(-s * m * m) for m in range(1, R))
        return (head + self._tail(R)) * (1.0 + 1e-12)

    def _tail(self, R: int) -> float:
        """2 sum_{m >= R} exp(-pi m^2 / width^2), bounded by a geometric series:
        each term is at most exp(-pi (2R + 1) / width^2) times the one before."""
        s = math.pi / self.width**2
        return 2.0 * math.exp(-s * R * R) / -math.expm1(-s * (2 * R + 1))

    @cached_property
    def window(self) -> int:
        """R, the smallest half-width with `_tail(R)` <= `THETA_TAIL`."""
        # the tail's first term alone needs s R^2 >= 65 ln 2, so no smaller R can do
        R = max(1, math.floor(self.width * math.sqrt(65 * math.log(2) / math.pi)))
        while self._tail(R) > THETA_TAIL:
            R += 1
        return R

    @cached_property
    def tail_bound(self) -> float:
        return self._tail(self.window)

    def eval_raw(self, x, y, z):
        shape, (x, y, z) = _flat(x, y, z)
        if y.size and not (-2.0**63 <= y.min() and y.max() < 2.0**63):
            raise DomainError("a theta section needs finite y with floor(y) in int64")
        j0 = np.floor(y)
        x, z = to_turns(x), to_turns(z)
        z -= np.multiply(j0.astype(np.int64).view(np.uint64), x)  # e(ell (z - j0 x))
        # y - j0 is exact, or rounds up to 1.0, where the window still holds the same terms
        return self.eval_turns(x, np.subtract(y, j0, out=j0), z).reshape(shape)[()]

    def eval_turns(self, X, y, Z):
        """F at uint64 turns X and Z and floats y in [0, 1], arrays of one shape, at least
        1-d: the window's term j is w(y + j) e(ell j x), times e(ell z)."""
        R, ell = self.window, np.uint64(self.ell % 2**64)
        # Down the window the phases are the conjugates of those up it: stepping by
        # the conjugate of e(ell x) gives them bit for bit.
        first = phase(np.multiply(X, ell))  # e(ell x)
        acc = np.zeros(y.shape, dtype=np.complex128)
        val, prod = np.empty(y.shape), np.empty(y.shape)

        def bump(shift):  # w(y + shift) = exp(-pi ((y + shift) / width)^2) into val
            np.add(y, shift, out=val)
            np.divide(val, self.width, out=val)
            np.square(val, out=val)
            np.multiply(val, -np.pi, out=val)
            return np.exp(val, out=val)

        acc.real[...] = bump(0)
        power, step = first, np.empty_like(first)
        for k in range(1, R + 1):
            if k > 1:
                power = ordered_product(first, power, step)  # e(ell k x)
            for shift, add in ((k, np.add), (-k, np.subtract)):
                if shift < R:  # the window's top shift is R - 1
                    np.add(acc.real, np.multiply(bump(shift), power.real, out=prod), out=acc.real)
                    add(acc.imag, np.multiply(val, power.imag, out=prod), out=acc.imag)
        del first, power, step, val, prod
        # operand order as in eval_observable_many
        return ordered_product(phase(np.multiply(Z, ell)), acc, acc)


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

    Subclasses implement `eval_many`, which returns a fresh complex array the
    caller may overwrite; `length` is None except for table-backed data;
    `error_budget` is the additive sup uncertainty.
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
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError(f"coefficients must be finite, got {self.coefficients}")

    def eval_many(self, n):
        return phase(poly_turns(self.coefficients, n))


@dataclass(frozen=True)
class OrbitWeight(WeightSequence):
    """b_n = F(S^n y): the observable F along the orbit of the point y of S.

    A torus nilsequence F(y + n alpha) is the orbit of `RotationTorus(alpha)`.
    The system checks y here and each time array when it is evaluated.
    """

    system: System
    func: Observable
    base: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        _check_system(self.system).check_point(self.base)
        if self.func.dimension != self.system.dimension:
            raise DimensionMismatchError(f"F has dimension {self.func.dimension}, "
                                         f"the system {self.system.dimension}")

    @property
    def bound(self) -> float:
        return self.func.bound

    def eval_many(self, n):
        return eval_observable_many(self.func, orbit_coords(self.system, self.base, n))


@dataclass(frozen=True)
class HeisenbergNilseq(WeightSequence):
    """Basic 2-step sequence b_n = F(g^n * base) on the Heisenberg quotient.

    Coordinates of g^n * base are reduced mod the lattice in uint64 turns
    (`numerics.turn_sum`) before F is applied, so phases stay accurate at every
    declared time even though the raw center coordinate grows like n^2; the
    products g.a g.b and g.a base.b enter exactly, as fractions. Declared for
    the skew's times, where n(n-1) fits in int64, while |n g.b| + |base.b| < 2**50
    (floor(Y), Y = n g.b + base.b, is then exact) and the twist multiplier
    floor(Y) n fits in int64; `DomainError` past any of them. With |g.b|,
    |base.b| < 1 that is every time. F takes the turns of the reduced point (`eval_turns`):
    a character X and Y, with no float coordinate between, and a theta section X and Z,
    with y a float.
    """

    g: HeisenbergElement
    base: HeisenbergElement
    func: TorusChar | ThetaType

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self.g) + astuple(self.base))):
            raise ValueError(f"g and base must be finite, got {self.g} and {self.base}")

    @property
    def bound(self) -> float:
        return self.func.bound

    @property
    def error_budget(self) -> float:
        return self.func.tail_bound  # the mass a theta window drops; 0 for a character

    def eval_many(self, n):
        n = np.atleast_1d(np.asarray(n, dtype=np.int64))
        top = check_times(n, AnzaiSkew)  # the centre's n(n-1)/2 is the skew's
        (ga, gb, gc), (u, v, w) = astuple(self.g), astuple(self.base)
        if top * abs(gb) + abs(v) >= 2.0**50:
            raise DomainError("Heisenberg |n g.b| + |base.b| reaches 2^50: floor(Y) inexact")
        if isinstance(self.func, TorusChar):  # e(m X + k Y) is the phase of a uint64 sum
            # no twist is formed, but its guard holds: floor(Y) is monotone in n, so its
            # largest |floor(Y)| is at the first or last time, exact in Python
            ends = (int(n.min()), int(n.max())) if n.size else ()
            check_times(np.array([math.floor(t * Fraction(gb) + Fraction(v)) for t in ends]),
                        e=top)
            return self.func.eval_turns(turn_sum([(n, ga)], [u]), turn_sum([(n, gb)], [v]))
        # raw point e = g^n * base = (X, Y, Z); reduce by the lattice element
        # gamma = (p, q, r) with q = -floor(Y): x and z shift by integers (the
        # function only sees them through integer-frequency phases) but the
        # center picks up the twist X*q, which must use the same q that the
        # fractional part of Y implies
        z = turn_sum([(n, gc), (n * (n - 1) >> 1, Fraction(ga) * Fraction(gb)),
                      (n, Fraction(ga) * Fraction(v))], [w])
        y = from_turns(turn_sum([(n, gb)], [v]))
        floor_y = np.rint(n * gb + v - y)  # exact: below 2**50 three roundings miss by <= 1/4
        check_times(floor_y, e=top)  # the twist multiplier floor(Y) * n is formed in int64
        floor_y = floor_y.astype(np.int64)
        z -= turn_sum([(floor_y * n, ga), (floor_y, u)])
        del floor_y  # free each length-N temporary after its last use: lower peak
        return self.func.eval_turns(turn_sum([(n, ga)], [u]), y, z)


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
        left = self.left.eval_many(n)
        return ordered_product(left, self.right.eval_many(n), left)


@dataclass(frozen=True)
class Scaled(WeightSequence):
    scale: complex
    inner: WeightSequence

    def __post_init__(self):
        if not cmath.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")

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
        self.error_budget = float(sup_error_budget)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("table must be a nonempty 1-d complex sequence")
        if not (np.isfinite(self.values).all() and 0 <= self.error_budget < math.inf):
            raise ValueError("table values must be finite, and sup_error_budget finite and >= 0")
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
            value = complex(float(row["re"]), float(row["im"]))
            if not cmath.isfinite(value):
                raise ConfigError(f"row {i} has a non-finite value {value}", field="table")
            rows.append(value)
    if not rows:
        raise ConfigError("table file has no data rows", field="table")
    return Table(np.asarray(rows), sup_error_budget)


def constant_weight(value: complex = 1.0) -> Scaled:
    return Scaled(complex(value), PolynomialPhase((0.0,)))
