"""Explicit measure-preserving torus systems with closed-form orbits.

Three model kinds are supported:

* `RotationTorus`: x -> x + alpha on T^d, evaluated as frac(x + n*alpha);
* `AnzaiSkew`: (x, y) -> (x + alpha, y + x) on T^2, whose n-th iterate is
  (x + n*alpha, y + n*x + n(n-1)/2 * alpha);
* `ToralAutomorphism`: a hyperbolic 2x2 integer matrix acting exactly on the
  rational lattice (Z_q)^2 for a prime modulus q.

Orbits are never iterated in floating point. The rotation and skew closed
forms run through compensated mod-1 reduction (error stays below 1e-12 for
n up to 2**20). Each closed form declares its times (`check_times`): the
rotation |n| <= 2**53, where n is exact in float; the skew |n| <= 2**27 - 1,
where n(n-1)/2 is; the lattice int64. A time past it, including an exponent
times n, raises `DomainError` before it can round or wrap. Automorphism
orbits are exact modular arithmetic: N points by baby-step/giant-step, about
2*sqrt(N) exact 2x2 steps plus one broadcast mat-vec mod q, in int64 while
2(q-1)**2 < 2**63 (every prime up to the default 2**31 - 1) and in exact
Python integers above that bound.

Rotation and skew angles may be declared either as decimal literals (treated
as irrational) or as `fractions.Fraction` (treated as rational). Downstream
modules dispatch on the declaration, never on float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, DomainError, UnsupportedSystemError
from .numerics import frac, frac_combine, is_prime, unit_phase

Angle = Union[float, Fraction]

_MAX_MODULUS = 1 << 53  # lattice coordinates residue/q are exact doubles below this

# Largest skew time |n| whose n(n-1)/2, or |n|(|n|+1)/2 for negative n, is
# at most 2**53 and therefore exact in float.
SKEW_MAX_TIME = (1 << 27) - 1
INT64_MAX = (1 << 63) - 1


def _angle_float(a: Angle) -> float:
    x = float(a)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"angle {a!r} must lie in [0, 1)")
    return x


@dataclass(frozen=True)
class RotationTorus:
    """Rotation by alpha on T^d; alpha entries are floats or Fractions."""

    alpha: tuple[Angle, ...]

    def __post_init__(self):
        if isinstance(self.alpha, (int, float, Fraction)):
            object.__setattr__(self, "alpha", (self.alpha,))
        else:
            object.__setattr__(self, "alpha", tuple(self.alpha))
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

    def is_rational(self) -> tuple[bool, ...]:
        return tuple(isinstance(a, Fraction) for a in self.alpha)


@dataclass(frozen=True)
class AnzaiSkew:
    """Skew product (x, y) -> (x + alpha, y + x) on T^2."""

    alpha: Angle

    def __post_init__(self):
        _angle_float(self.alpha)

    @property
    def dimension(self) -> int:
        return 2

    @cached_property
    def alpha_float(self) -> float:
        return _angle_float(self.alpha)

    def is_rational(self) -> bool:
        return isinstance(self.alpha, Fraction)


@dataclass(frozen=True)
class ToralAutomorphism:
    """Hyperbolic integer matrix acting on the lattice (Z_q)^2, q prime.

    Points are residue pairs (p1, p2) standing for (p1/q, p2/q). Orbits are
    exact: hyperbolic maps iterated in floating point shed all mantissa
    content after a few dozen steps, while a large prime lattice both stays
    exact and equidistributes well at desk scale.
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    modulus: int = (1 << 31) - 1

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
        if self.modulus >= _MAX_MODULUS:
            raise ValueError(
                f"modulus {self.modulus} must be below 2^53 so residue/q is exact in float"
            )
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} must be prime")

    @property
    def dimension(self) -> int:
        return 2

    @property
    def determinant(self) -> int:
        m = self.matrix
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]


System = Union[RotationTorus, AnzaiSkew, ToralAutomorphism]


def _mat_mul(x, y, mod: int | None = None):
    out = (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )
    if mod is None:
        return out
    return tuple(tuple(v % mod for v in row) for row in out)


def _mat_inv_mod(m, mod: int):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv_det = det % mod if det == 1 or det % mod == mod - 1 else pow(det, -1, mod)
    adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    return tuple(tuple((inv_det * v) % mod for v in row) for row in adj)


def mat_pow_mod(m, n: int, mod: int):
    """m**n mod `mod` by square-and-multiply; negative n uses the exact inverse."""
    if n < 0:
        return mat_pow_mod(_mat_inv_mod(m, mod), -n, mod)
    r = ((1, 0), (0, 1))
    b = tuple(tuple(v % mod for v in row) for row in m)
    while n:
        if n & 1:
            r = _mat_mul(r, b, mod)
        b = _mat_mul(b, b, mod)
        n >>= 1
    return r


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


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
            f = tuple(int(v) for v in (freq if isinstance(freq, (tuple, list, np.ndarray)) else (freq,)))
            if len(f) != self.dimension:
                raise DimensionMismatchError(
                    f"frequency {f} has length {len(f)}, system dimension is {self.dimension}"
                )
            if f in seen:
                raise ValueError(f"duplicate frequency {f}")
            seen.add(f)
            canon.append((f, complex(coeff)))
        canon.sort(key=lambda t: t[0])
        object.__setattr__(self, "terms", tuple(canon))

    @property
    def bound(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    def coefficient(self, freq) -> complex:
        f = tuple(int(v) for v in (freq if isinstance(freq, (tuple, list)) else (freq,)))
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


def _check_point(system: System, x0):
    if isinstance(system, ToralAutomorphism):
        p = tuple(int(v) for v in x0)
        if len(p) != 2:
            raise DimensionMismatchError("lattice point must be a residue pair")
        return tuple(v % system.modulus for v in p)
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x.size != system.dimension:
        raise DimensionMismatchError(
            f"point has dimension {x.size}, system has dimension {system.dimension}"
        )
    if not ((x >= 0) & (x < 1)).all():  # NaN fails both comparisons
        raise ValueError("point coordinates must lie in [0, 1)")
    return x


def lattice_orbit(system: ToralAutomorphism, x0, start: int, step: int, count: int):
    """Residue pairs of A**(start + j*step) x0 for j = 0..count-1, exact.

    Baby-step/giant-step: with B = ceil(sqrt(count)), the B baby matrices
    A**(j*step) and the ceil(count/B) giant points A**(start + i*B*step) x0
    are built with exact 2x2 steps, then one broadcast mat-vec fills row
    i*B + j with A**(j*step) applied to giant point i. Its int64 sums are
    exact while 2(q-1)**2 < 2**63, which holds up to q = 2**31 - 1; above
    that the same mat-vec runs on Python ints.
    """
    q = system.modulus
    p1, p2 = _check_point(system, x0)
    babies = math.isqrt(max(count - 1, 0)) + 1
    giants = -(-count // babies)
    b = mat_pow_mod(system.matrix, step, q)
    powers = [((1, 0), (0, 1))]
    for _ in range(babies - 1):
        powers.append(_mat_mul(powers[-1], b, q))
    g = _mat_mul(powers[-1], b, q)  # A**(babies*step), one giant step
    s = mat_pow_mod(system.matrix, start, q)
    v1 = (s[0][0] * p1 + s[0][1] * p2) % q
    v2 = (s[1][0] * p1 + s[1][1] * p2) % q
    points = []
    for _ in range(giants):
        points.append((v1, v2))
        v1, v2 = (g[0][0] * v1 + g[0][1] * v2) % q, (g[1][0] * v1 + g[1][1] * v2) % q
    dtype = np.int64 if 2 * (q - 1) ** 2 < 1 << 63 else object
    # (giants, 2) @ (2, 2*babies): column 2j + r is row r of A**(j*step)
    rows = np.array(powers, dtype=dtype).reshape(-1, 2)
    out = np.array(points, dtype=dtype).reshape(giants, 2) @ rows.T
    out %= q
    return out.astype(np.int64, copy=False).reshape(-1, 2)[:count]


# declared time domain of each closed form: largest |n|, and what holds up to it
_TIME_DOMAIN = {
    RotationTorus: (1 << 53, "n is exact in float"),
    AnzaiSkew: (SKEW_MAX_TIME, "n(n-1)/2 stays exact in float"),
    ToralAutomorphism: (INT64_MAX, "n fits in int64"),
}


def check_times(n: np.ndarray, system: System | None = None, e: int = 1) -> None:
    """Raise DomainError when the times e * n pass `system`'s declared domain.

    |e| * max|n| is formed in Python integers, so it is checked before an
    int64 product e * n could be rounded or wrap; without a system the
    domain is int64.
    """
    limit, why = _TIME_DOMAIN.get(type(system), _TIME_DOMAIN[ToralAutomorphism])
    top = abs(int(e)) * max(-int(n.min()), int(n.max())) if n.size else 0
    if top > limit:
        raise DomainError(f"time {top} is past the closed form's limit |n| <= {limit}, "
                          f"where {why}")


def orbit_coords(system: System, x0, n) -> np.ndarray:
    """Float coordinates of T^n x0 for an arbitrary int64 vector of times n.

    Rotation and skew use compensated closed forms, declared for |n| <= 2**53
    and |n| <= 2**27 - 1 (`DomainError` past it). Automorphism times must
    form an arithmetic progression (detected), walked by baby-step/giant-step
    in about 2*sqrt(N) exact 2x2 steps plus one broadcast mat-vec: int64
    while 2(q-1)**2 < 2**63, exact Python integers above that bound.
    """
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    check_times(n, system)
    if isinstance(system, RotationTorus):
        x = _check_point(system, x0)
        nf = n.astype(np.float64)
        cols = [
            frac_combine(products=[(nf, a)], terms=[x[i]])
            for i, a in enumerate(system.alpha_floats)
        ]
        return np.stack(cols, axis=-1)
    if isinstance(system, AnzaiSkew):
        x, y = _check_point(system, x0)
        a = system.alpha_float
        nf = n.astype(np.float64)
        mf = ((n * (n - 1)) // 2).astype(np.float64)
        xs = frac_combine(products=[(nf, a)], terms=[x])
        ys = frac_combine(products=[(nf, x), (mf, a)], terms=[y])
        return np.stack([xs, ys], axis=-1)
    if isinstance(system, ToralAutomorphism):
        steps = np.diff(n)
        if steps.size and not (steps == steps[0]).all():
            raise ValueError("automorphism orbit times must be an arithmetic progression")
        start = int(n[0]) if n.size else 0
        step = int(steps[0]) if steps.size else 1
        return lattice_orbit(system, x0, start, step, n.size) / system.modulus
    raise UnsupportedSystemError(f"unknown system kind {type(system).__name__}")


def orbit_point(system: System, x0, n: int):
    """T^n x0. Returns a residue pair for lattice systems, floats otherwise."""
    if isinstance(system, ToralAutomorphism):
        return tuple(int(v) for v in lattice_orbit(system, x0, int(n), 1, 1)[0])
    return orbit_coords(system, x0, np.asarray([int(n)]))[0]


def eval_observable(obs: Observable, x) -> complex:
    """Evaluate at one point; lattice residue pairs are accepted as ints."""
    coords = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if coords.shape[1] != obs.dimension:
        raise DimensionMismatchError(
            f"point dimension {coords.shape[1]} != observable dimension {obs.dimension}"
        )
    return complex(eval_observable_many(obs, coords)[0])


def eval_observable_many(obs: Observable, coords: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, d) float coordinate array."""
    if coords.shape[-1] != obs.dimension:
        raise DimensionMismatchError(
            f"coords dimension {coords.shape[-1]} != observable dimension {obs.dimension}"
        )
    out = np.zeros(coords.shape[0], dtype=np.complex128)
    # one row would take BLAS's dot, not the matrix-vector product, and round
    # differently: with a second row every row has its bits at any length
    rows = np.repeat(coords, 2, axis=0) if out.size == 1 else coords
    for freq, coeff in obs.terms:
        if not any(freq):  # e(0) is exactly 1, so the term is its coefficient
            out += coeff
            continue
        k = np.asarray(freq, dtype=np.float64)
        # the temporary goes first: numpy's elision turns `c * f()` into f() * c
        # on large arrays, and the order of a complex product moves its last bit
        out += unit_phase(frac((rows @ k)[:out.size])) * coeff
    return out


def integrate_observable(obs: Observable) -> complex:
    """Integral against normalized Haar measure: the zero-frequency coefficient."""
    return obs.coefficient((0,) * obs.dimension)


# ---------------------------------------------------------------------------
# model characteristic-factor projections
# ---------------------------------------------------------------------------


def project_Zk(system: System, obs: Observable, k: int) -> Observable:
    """Conditional expectation onto the order-k characteristic factor.

    Fixed table for the three model kinds: rotations are their own order-1
    factor (so nothing is removed at any k); hyperbolic automorphisms have
    trivial factors at every order (only the mean survives); the skew product
    keeps the base-coordinate terms at k = 1 and everything at k >= 2.
    """
    if k < 1:
        raise ValueError("factor order k must be >= 1")
    if isinstance(system, RotationTorus):
        return obs
    if isinstance(system, ToralAutomorphism):
        c = integrate_observable(obs)
        terms = (((0, 0), c),) if c != 0 else ()
        return Observable(obs.dimension, terms)
    if isinstance(system, AnzaiSkew):
        if k >= 2:
            return obs
        kept = tuple((f, c) for f, c in obs.terms if f[1] == 0)
        return Observable(obs.dimension, kept)
    raise UnsupportedSystemError(f"unknown system kind {type(system).__name__}")


def zk_complement(system: System, obs: Observable, k: int) -> Observable:
    """obs - E[obs | Z_k], as a trigonometric polynomial."""
    proj = project_Zk(system, obs, k)
    coeffs: dict[tuple[int, ...], complex] = {f: c for f, c in obs.terms}
    for f, c in proj.terms:
        coeffs[f] = coeffs.get(f, 0.0j) - c
    terms = tuple((f, c) for f, c in coeffs.items() if c != 0)
    return Observable(obs.dimension, terms)
