"""Explicit measure-preserving torus systems with closed-form orbits.

Each system kind is one subclass of `System` and answers for itself: which
start points it takes, up to which |n| its closed form holds, the
coordinates of T^n x for int64 times, its order-k characteristic factor, and
the declared rational angle of each coordinate. The module functions
(`orbit_coords`, `check_times`, `project_Zk`, ...) ask the system; an object
that is not a `System` raises `UnsupportedSystemError`. Three kinds exist:

* `RotationTorus`: x -> x + alpha on T^d, each coordinate X + n*A in turns
  for every int64 time;
* `AnzaiSkew`: (x, y) -> (x + alpha, y + x) on T^2, whose n-th iterate is
  (x + n*alpha, y + n*x + n(n-1)/2 * alpha), declared for
  |n| <= isqrt(2**63 - 1), where n(n-1) fits in int64;
* `ToralAutomorphism`: a hyperbolic 2x2 integer matrix acting exactly on the
  rational lattice (Z_q)^2 for a prime modulus q <= 2^31 - 1, for int64 times.

Orbits are never iterated in floating point, and coordinates are uint64 turns
(`numerics.turn_sum`): U stands for U / 2^64 mod 1. The rotation and skew
closed forms are int64 multiples of the turns of floats, exact wherever the
angle and point have at most 64 fractional bits (every value >= 2^-12).
Automorphism orbits are exact int64 modular arithmetic (`mat_pow_mod`,
`lattice_orbit`): below 2^31 every residue sum 2(q-1)^2 of a 2x2 mat-vec fits
in int64, and a residue p becomes the turn floor(p 2^64 / q), exact in 64 bits.
An observable reads k . x as the uint64 sum of k_i X_i, exact for every integer
frequency, and rounds it to a float phase once. A time past the declared domain
(`check_times`), including an exponent times n, raises `DomainError` before it
can round or wrap.

Rotation and skew angles may be declared either as decimal literals (treated
as irrational) or as `fractions.Fraction` (treated as rational). Downstream
modules read the declaration (`rational_angles`), never float comparisons.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, DomainError, UnsupportedSystemError
from .numerics import _WORD, from_turns, to_turns, turn_sum, unit_phase

Angle = Union[float, Fraction]

# the largest prime q with 2(q - 1)^2 < 2^63: every lattice mat-vec sum fits in int64
MAX_MODULUS = (1 << 31) - 1

SKEW_MAX_TIME = math.isqrt(2**63 - 1)  # |n|(|n| + 1), so n(n - 1) at n = +-|n|, fits in int64
INT64_MAX = (1 << 63) - 1


def _angle_float(a: Angle) -> float:
    x = float(a)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"angle {a!r} must lie in [0, 1)")
    return x


class System:
    """A measure-preserving system on T^d whose orbits have a closed form.

    A kind sets `dimension` and defines `coords(x, n)`, the (len(n), d) uint64
    turns of T^n x at a checked point and checked times; `project_Zk(obs,
    k)`, E[obs | Z_k] for k >= 1; and `rational_angles`, per coordinate the
    declared rational angle or None. It overrides `check_point` and its
    declared times (`time_limit`, `time_why`) where the defaults do not hold.
    """

    time_limit = INT64_MAX  # the largest |n| the closed form is declared for
    time_why = "n fits in int64"

    def check_point(self, x0):
        """x0 as float coordinates in [0, 1)^d."""
        x = np.asarray(x0, dtype=np.float64).reshape(-1)
        if x.size != self.dimension:
            raise DimensionMismatchError(
                f"point has dimension {x.size}, system has dimension {self.dimension}"
            )
        if not ((x >= 0) & (x < 1)).all():  # NaN fails both comparisons
            raise ValueError("point coordinates must lie in [0, 1)")
        return x


@dataclass(frozen=True)
class RotationTorus(System):
    """Rotation by alpha on T^d; alpha entries are floats or Fractions.

    A rotation is its own order-1 factor, so every projection keeps all of
    the observable.
    """

    alpha: tuple[Angle, ...]

    def __post_init__(self):
        scalar = isinstance(self.alpha, (int, float, Fraction))
        object.__setattr__(self, "alpha", (self.alpha,) if scalar else tuple(self.alpha))
        if not self.alpha:
            raise ValueError("rotation needs at least one angle")
        for a in self.alpha:
            _angle_float(a)

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    @cached_property
    def alpha_floats(self) -> tuple[float, ...]:
        return tuple(_angle_float(a) for a in self.alpha)

    def coords(self, x, n):
        return np.stack([turn_sum([(n, a)], [b]) for b, a in zip(x, self.alpha_floats)], 1)

    def project_Zk(self, obs, k):
        return obs

    @property
    def rational_angles(self):
        return tuple(a if isinstance(a, Fraction) else None for a in self.alpha)


@dataclass(frozen=True)
class AnzaiSkew(System):
    """Skew product (x, y) -> (x + alpha, y + x) on T^2; the closed form takes n and n(n-1)/2
    as int64 multipliers, so it is declared while n(n-1) fits in int64 (`SKEW_MAX_TIME`).

    Z_1 is the base rotation, so k = 1 keeps the terms constant in y; the
    skew is 2-step, so k >= 2 keeps everything. The fiber carries no angle.
    """

    alpha: Angle

    dimension = 2
    time_limit = SKEW_MAX_TIME
    time_why = "n(n-1) fits in int64"

    def __post_init__(self):
        _angle_float(self.alpha)

    def coords(self, x, n):
        (x, y), a = x, float(self.alpha)
        half = n * (n - 1) >> 1  # n(n-1)/2, exact: n(n-1) is even and fits in int64
        return np.stack([turn_sum([(n, a)], [x]), turn_sum([(n, x), (half, a)], [y])], axis=-1)

    def project_Zk(self, obs, k):
        if k >= 2:
            return obs
        return Observable(obs.dimension, tuple((f, c) for f, c in obs.terms if f[1] == 0))

    @property
    def rational_angles(self):
        return (self.alpha if isinstance(self.alpha, Fraction) else None, None)


@dataclass(frozen=True)
class ToralAutomorphism(System):
    """Hyperbolic integer matrix acting on the lattice (Z_q)^2, q prime and at most
    `MAX_MODULUS` = 2^31 - 1, so that every residue product sum fits in int64.

    Points are pairs of integers (p1, p2) standing for (p1/q, p2/q), and
    orbit times form arithmetic progressions. Orbits are exact: hyperbolic
    maps iterated in floating point shed all mantissa content after a few
    dozen steps, while a large prime lattice both stays exact and
    equidistributes well at desk scale. Every power mixes, so every
    characteristic factor is trivial (only the mean survives) and no
    coordinate carries an angle.
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    modulus: int = (1 << 31) - 1

    dimension = 2

    def __post_init__(self):
        m = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("matrix must be 2x2 integer")
        object.__setattr__(self, "matrix", m)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {det}")
        tr = m[0][0] + m[1][1]
        if det == 1 and abs(tr) < 3:
            raise ValueError("orientation-preserving matrix needs |trace| >= 3 to be hyperbolic")
        # with det -1 the eigenvalues (tr +- sqrt(tr^2 + 4)) / 2 are irrational unless
        # tr = 0, and then M^2 = I by Cayley-Hamilton
        if det == -1 and tr == 0:
            raise ValueError("matrix has finite order 2; eigenvalues are roots of unity")
        q = self.modulus
        if q > MAX_MODULUS:
            raise ValueError(f"modulus {q} must be at most 2^31 - 1, so that the lattice "
                             "mat-vec sums 2(q - 1)^2 fit in int64")
        if q < 2 or (q % np.arange(2, math.isqrt(q) + 1) == 0).any():  # trial division
            raise ValueError(f"modulus {q} must be prime")

    def check_point(self, x0) -> tuple[int, int]:
        """x0 as residues mod q; a float (even 3.0) or a bool is refused, not truncated."""
        p = tuple(x0)
        if len(p) != 2:
            raise DimensionMismatchError("lattice point must be a residue pair")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in p):
            raise ValueError(f"lattice point must be a pair of integers, got {p!r}")
        return tuple(int(v) % self.modulus for v in p)

    def coords(self, x, n):
        steps = np.diff(n)
        if steps.size and not (steps == steps[0]).all():
            raise ValueError("automorphism orbit times must be an arithmetic progression")
        start = int(n[0]) if n.size else 0
        step = int(steps[0]) if steps.size else 1
        p, q = lattice_orbit(self, x, start, step, n.size).view(np.uint64), self.modulus
        low = p * np.uint64(_WORD % q)  # floor(p 2^64 / q) = p (2^64 // q) + p (2^64 % q) // q
        low //= np.uint64(q)
        p *= np.uint64(_WORD // q)
        p += low
        return p

    def project_Zk(self, obs, k):
        c = integrate_observable(obs)
        return Observable(obs.dimension, (((0, 0), c),) if c != 0 else ())

    @property
    def rational_angles(self):
        return (None, None)


def mat_pow_mod(m, n: int, mod: int) -> np.ndarray:
    """m**n mod `mod` as a 2x2 int64 array, by square-and-multiply, for mod <= 2^31 - 1.

    The entries are reduced mod `mod` in Python integers first, so a matrix
    with entries past int64 is taken. Negative n uses the exact inverse det *
    adj(m), which needs det m = +-1 (as every `ToralAutomorphism` matrix has).
    """
    if mod > MAX_MODULUS:
        raise ValueError(f"modulus {mod} must be at most 2^31 - 1 for int64 products")
    (a, b), (c, d) = m
    if n < 0:
        det = a * d - b * c
        (a, b), (c, d), n = (det * d, -det * b), (-det * c, det * a), -n
    base = np.array([[a % mod, b % mod], [c % mod, d % mod]], dtype=np.int64)
    r = np.eye(2, dtype=np.int64)
    while n:
        if n & 1:
            r = r @ base % mod
        base = base @ base % mod
        n >>= 1
    return r


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def integer_frequency(value) -> int:
    """`value` as an int; ValueError unless it is integral (1.0 is, 1.5, NaN and inf are not)."""
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"frequency {value!r} must be an integer")
    return int(value)


@dataclass(frozen=True)
class Observable:
    """Finite trigonometric polynomial sum(c_k * e(k . x)) on T^d.

    Terms are stored sorted by frequency vector; frequencies are pairwise
    distinct; `bound` records the sup-norm bound sum(|c_k|).
    """

    dimension: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        seen = set()
        canon = []
        for freq, coeff in self.terms:
            f = tuple(map(integer_frequency,
                          freq if isinstance(freq, (tuple, list, np.ndarray)) else (freq,)))
            if len(f) != self.dimension:
                raise DimensionMismatchError(
                    f"frequency {f} has length {len(f)}, system dimension is {self.dimension}"
                )
            if f in seen:
                raise ValueError(f"duplicate frequency {f}")
            seen.add(f)
            if not np.isfinite(complex(coeff)):
                raise ValueError(f"coefficient of frequency {f} must be finite, got {coeff}")
            canon.append((f, complex(coeff)))
        canon.sort(key=lambda t: t[0])
        object.__setattr__(self, "terms", tuple(canon))

    @property
    def bound(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    def coefficient(self, freq) -> complex:
        f = tuple(map(integer_frequency, freq if isinstance(freq, (tuple, list)) else (freq,)))
        for g, c in self.terms:
            if g == f:
                return c
        return 0.0j

    def conjugate(self) -> "Observable":
        return Observable(
            self.dimension,
            tuple((tuple(-v for v in f), c.conjugate()) for f, c in self.terms),
        )


def observable(terms, dimension: int | None = None) -> Observable:
    """Build an Observable, inferring the dimension from the first frequency."""
    terms = list(terms)
    if dimension is None:
        if not terms:
            raise ValueError("cannot infer dimension of an empty observable")
        f = terms[0][0]
        dimension = len(f) if isinstance(f, (tuple, list, np.ndarray)) else 1
    return Observable(dimension, tuple(terms))


def constant_observable(value: complex, dimension: int = 1) -> Observable:
    return Observable(dimension, (((0,) * dimension, complex(value)),))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def _check_system(obj) -> System:
    """`obj` if it is a system; anything else raises `UnsupportedSystemError`."""
    if not isinstance(obj, System):
        raise UnsupportedSystemError(f"unknown system kind {type(obj).__name__}")
    return obj


def lattice_orbit(system: ToralAutomorphism, x0, start: int, step: int, count: int):
    """Residue pairs of A**(start + j*step) x0 for j = 0..count-1, exact.

    Doubling: the first row is A**start x0; while m rows are known, the next
    m are those rows times G = A**(m*step), one (m, 2) @ (2, 2) int64 mat-vec,
    and G is then squared. count rows take ceil(log2 count) rounds. Every sum
    is at most 2(q-1)^2 < 2^63, so each is exact (`MAX_MODULUS`).
    """
    q = system.modulus
    out = np.empty((max(count, 1), 2), dtype=np.int64)
    out[0] = mat_pow_mod(system.matrix, start, q) @ system.check_point(x0) % q
    g, m = mat_pow_mod(system.matrix, step, q), 1
    while m < count:
        k = min(m, count - m)
        out[m:m + k] = out[:k] @ g.T % q
        g, m = g @ g % q, 2 * m
    return out[:count]


def check_times(n: np.ndarray, system: System | type[System] | None = None, e: int = 1) -> int:
    """|e| * max|n|; DomainError when the times e * n pass the declared times of `system` or kind.

    |e| * max|n| is formed in Python integers, so it is checked before an
    int64 product e * n could be rounded or wrap; without a system the
    domain is int64.
    """
    kind = system if isinstance(system, type) and issubclass(system, System) else (
        System if system is None else _check_system(system))
    top = abs(int(e)) * max(-int(n.min()), int(n.max())) if n.size else 0
    if top > kind.time_limit:
        raise DomainError(f"time {top} is past the closed form's limit |n| <= {kind.time_limit}, "
                          f"where {kind.time_why}")
    return top


def orbit_coords(system: System, x0, n) -> np.ndarray:
    """The (len(n), d) uint64 turns of T^n x0 for an int64 vector of times n.

    The system checks the times against its declared domain (`DomainError`
    past it) and the point, then evaluates its closed form. Automorphism
    times must form an arithmetic progression (detected).
    """
    system = _check_system(system)
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    check_times(n, system)
    return system.coords(system.check_point(x0), n)


def orbit_point(system: System, x0, n: int):
    """T^n x0. Returns a residue pair for lattice systems, float coordinates otherwise."""
    if isinstance(system, ToralAutomorphism):
        return tuple(int(v) for v in lattice_orbit(system, x0, int(n), 1, 1)[0])
    return from_turns(orbit_coords(system, x0, np.asarray([int(n)]))[0])


def eval_observable(obs: Observable, x) -> complex:
    """Evaluate at one point x of the torus, taken mod 1. A lattice residue pair p of
    modulus q (what `orbit_point` returns for a `ToralAutomorphism`) is the point p / q."""
    coords = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if coords.shape[1] != obs.dimension:
        raise DimensionMismatchError(
            f"point dimension {coords.shape[1]} != observable dimension {obs.dimension}"
        )
    return complex(eval_observable_many(obs, coords)[0])


def eval_observable_many(obs: Observable, coords: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, d) array of turns, as `orbit_coords` returns; float
    coordinates are read mod 1 through `to_turns`. Each k . x is the uint64 sum of the
    k_i X_i, exact for every integer frequency, rounded once to its float phase."""
    if coords.shape[-1] != obs.dimension:
        raise DimensionMismatchError(
            f"coords dimension {coords.shape[-1]} != observable dimension {obs.dimension}"
        )
    if coords.dtype != np.uint64:
        coords = to_turns(coords)
    out = np.zeros(coords.shape[0], dtype=np.complex128)
    theta = np.empty(coords.shape[0])  # one phase buffer for all terms keeps peak RSS down
    for freq, coeff in obs.terms:
        if not any(freq):  # e(0) is exactly 1, so the term is its coefficient
            out += coeff
            continue
        kx = np.zeros(coords.shape[0], dtype=np.uint64)
        for i, k in enumerate(freq):
            if k:
                kx += coords[:, i] * np.uint64(k % _WORD)
        # the temporary goes first: numpy's elision turns `c * f()` into f() * c
        # on large arrays, and the order of a complex product moves its last bit
        out += unit_phase(from_turns(kx, theta)) * coeff
    return out


def integrate_observable(obs: Observable) -> complex:
    """Integral against normalized Haar measure: the zero-frequency coefficient."""
    return obs.coefficient((0,) * obs.dimension)


def project_Zk(system: System, obs: Observable, k: int) -> Observable:
    """Conditional expectation onto the order-k characteristic factor, as the
    system declares it: rotations keep everything, the skew keeps the base
    terms at k = 1 and everything from k = 2, automorphisms keep the mean."""
    if k < 1:
        raise ValueError("factor order k must be >= 1")
    return _check_system(system).project_Zk(obs, k)


def zk_complement(system: System, obs: Observable, k: int) -> Observable:
    """obs - E[obs | Z_k], as a trigonometric polynomial."""
    proj = project_Zk(system, obs, k)
    coeffs: dict[tuple[int, ...], complex] = {f: c for f, c in obs.terms}
    for f, c in proj.terms:
        coeffs[f] = coeffs.get(f, 0.0j) - c
    terms = tuple((f, c) for f, c in coeffs.items() if c != 0)
    return Observable(obs.dimension, terms)
