"""The numeric kernels every layer shares: points of the circle as exact uint64 turns
(`turn_sum`, `to_turns`, `from_turns`), polynomial values mod 1 (`frac_poly`), unit phases,
the ordered complex product and a fixed-shape pairwise summation tree. Exact integer
arithmetic on lattices is int64 and lives with its system (`systems.mat_pow_mod`,
`systems.lattice_orbit`).

A turn is a uint64 U standing for the point U / 2**64 of T = R/Z, so reduction mod 1 is the
wraparound of uint64 arithmetic, which numpy's array sums and products do exactly and without
a warning. The kernels rely on these facts:

* a double b with at most 64 fractional bits (every |b| >= 2**-12, and 0) is exactly the turn
  B = b 2**64 mod 2**64, so n b mod 1 for int64 times n is the uint64 product
  n.view(uint64) * B, and sums of such products are exact whatever the magnitudes;
* a double with more fractional bits (or an exact product of two) is B + f turns with f in
  [0, 1): the second word adds the float n f, below 2**63 units of 2**-64, rounded into the
  turn, so each such part is within 2**-52 of exact on the circle;
* uint64 -> float64 conversion rounds once, to nearest, so a sum of one-word parts becomes the
  correctly rounded coordinate; a value that rounds to 1.0 is reported as 0.0;
* integers below 2**53 are exact, so base-2**24 digits multiply exactly.

`frac` (r = x - floor(x), then r - 1 where r >= 1) and `unit_phase` (cos and sin of
theta*2pi, which is how numpy's complex exp evaluates exp((2j*pi)*theta)) keep float inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

_WORD = 1 << 64  # one turn is 2**64 units


def frac(x):
    """Fractional part in [0, 1), exact, elementwise.

    Values within half an ulp below an integer round to that integer's
    fractional part 0.0 rather than returning 1.0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    np.floor(x, out=out)
    np.subtract(x, out, out=out)
    return np.subtract(out, 1.0, out=out, where=out >= 1.0)


def _split(b):
    """b mod 1 in turns as (B, f): a np.uint64 word B and a float f in [0, 1) with
    b 2**64 = B + f mod 2**64 (f within 2**-53 for a Fraction); b is a float, int or Fraction."""
    p, q = (b if isinstance(b, Fraction) else float(b)).as_integer_ratio()
    whole, rest = divmod(p << 64, q)
    return np.uint64(whole % _WORD), min(rest / q, 1.0 - 2.0**-53)


def turn_sum(products=(), terms=()):
    """sum a*b + sum t mod 1 as uint64 turns: each a an int64 array, each b and t a float, int
    or Fraction.

    Where b has at most 64 fractional bits a*b is exact at every int64 a: the uint64 product
    wraps mod 2**64. Otherwise b's second word adds rint(a f), so the part is within 2**-52 of
    exact on the circle. A term is rounded to the nearest turn, within 2**-65.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a, _ in products))
    out = np.full(shape, sum(int(B) + (f >= 0.5) for B, f in map(_split, terms)) % _WORD,
                  dtype=np.uint64)
    part = np.empty(shape, dtype=np.uint64)
    for a, b in products:
        B, f = _split(b)
        np.add(out, np.multiply(a.view(np.uint64), B, out=part), out=out)
        if f:  # rint(a f), below 2**63 in magnitude, as int64 bits in `part`
            w = np.multiply(a, f, out=np.empty(shape))
            np.copyto(part.view(np.int64), np.rint(w, out=w), casting="unsafe")
            np.add(out, part, out=out)
    return out


def to_turns(x):
    """Float coordinates x mod 1 as turns: exact where x has at most 64 fractional bits,
    otherwise cut toward 0 at the last turn (within 2**-64). NaN or inf raises DomainError."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DomainError("coordinates must be finite")
    part = x - np.trunc(x)  # exact, |part| < 1, with the sign of x
    u = np.multiply(np.abs(part), 2.0**64).astype(np.uint64)
    return np.where(part < 0, np.negative(u), u)


def from_turns(u, out=None):
    """The floats of turns u in [0, 1): u / 2**64 rounded once to nearest, 0.0 where that
    is 1.0. `out` is an optional float buffer of u's shape."""
    x = np.multiply(u, 2.0**-64, out=np.empty(np.shape(u)) if out is None else out)
    return np.subtract(x, 1.0, out=x, where=x >= 1.0)


_DIGIT = 24  # base-2**24 digits: a column of their products stays below 2**53
_INT64_TOP = 1 << 63  # largest |n| of an int64 time: it fixes the digit layout


def _digit_product(a, b, places):
    """Base-2**24 digits of a*b mod 2**(24 places), each within 2**23, by signed carries
    over exact columns: 47 products below 2**47 at most, or three from n's own digits."""
    cols = [0.0] * (places + 1)
    for i, x in enumerate(a[:places]):
        for j, y in enumerate(b[: places - i]):
            cols[i + j] = cols[i + j] + x * y
    for k in range(places):
        carry = np.rint(cols[k] / 2.0**_DIGIT)
        cols[k] = cols[k] - carry * 2.0**_DIGIT
        cols[k + 1] = cols[k + 1] + carry
    return cols[:places]


def _power_digits(n, j, places, memo):
    """Base-2**24 digits of n**j mod 2**(24 places), each within 2**23 (n's own low ones in
    [0, 2**24), its top one signed), by halving j; `memo` keeps every power on the way."""
    if j == 1:
        last = _INT64_TOP.bit_length() // _DIGIT * _DIGIT
        return [((n >> s) & ((1 << _DIGIT) - 1) if s < last else n >> s).astype(np.float64)
                for s in range(0, last + 1, _DIGIT)][:places]
    if j not in memo:
        memo[j] = _digit_product(_power_digits(n, (j + 1) // 2, places, memo),
                                 _power_digits(n, j // 2, places, memo), places)
    return memo[j]


def frac_poly(coefficients, n):
    """frac(c0 + c1*n + ... + cd*n**d), exact mod 1, one vectorized path for int64 n.

    The form of each non-integer c_j n**j is chosen per coefficient, so no value depends on the
    other times. Where j = 1 or c_j has at most 64 fractional bits, n**j is one int64 multiplier:
    the array power wraps mod 2**64, and so does its product with c_j's turn. Otherwise n**j is
    base-2**24 digits d_i mod 2**(24 K) for every int64 time, the K above c_j's last bit each
    entering as d_i * (c_j 2**(24 i)) with its second word. Integer c_j are skipped.
    """
    coefficients = [float(c) for c in coefficients]
    if not all(map(math.isfinite, coefficients)):
        raise DomainError(f"polynomial coefficients must be finite, got {coefficients}")
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.int64))
    bits = [c.as_integer_ratio()[1].bit_length() - 1 for c in coefficients]  # fractional bits
    wide = {j: -(-e // _DIGIT) for j, e in enumerate(bits) if j > 1 and e > 64}  # j -> K digits
    places = max((min(k, (_INT64_TOP**j).bit_length() // _DIGIT + 2) for j, k in wide.items()),
                 default=0)
    products, memo = [], {}
    for j, c in enumerate(coefficients):
        if j in wide:
            digits = _power_digits(n_arr, j, places, memo)[:wide[j]]
            products += [(d.astype(np.int64), math.ldexp(c, _DIGIT * i))
                         for i, d in enumerate(digits)]
        elif j and bits[j]:
            products.append((n_arr**j, c))
    out = np.broadcast_to(turn_sum(products, terms=(coefficients[0],)), n_arr.shape)
    return float(from_turns(out[0])) if np.ndim(n) == 0 else from_turns(out)


def unit_phase(theta):
    """exp(2*pi*i*theta) for theta already reduced to [0, 1).

    cos and sin of theta*2pi go straight into the real and imaginary parts of
    the output; the bits are those of np.exp((2j*pi)*theta), which evaluates
    exp(0 + i 2pi theta) through the same cos and sin.
    """
    out = np.empty(np.shape(theta), dtype=np.complex128)
    x = np.multiply(theta, 2.0 * np.pi, out=out.imag)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    # an array that owns its data: numpy elides `phase * w` into `phase *= w` only
    # then, and otherwise may run `w *= phase`, whose complex product rounds differently
    return out if out.ndim else out[()]


def ordered_product(x, y, into):
    """x * y in this operand order, into `into` (an operand given up, or a buffer) but at one
    element. Operand order moves a complex product's last bit, and numpy's temporary elision may
    run `x * f()` as `f() * x`; one element in place takes numpy's reduce loop: a new array."""
    return np.multiply(x, y, out=into if into.size > 1 else None)


def pairwise_sum(x):
    """Sum over the first axis with a fixed adjacent-pair reduction tree.

    The tree shape depends only on the length, so results are bit-identical
    regardless of how callers block or parallelize the surrounding work; each
    column of a 2-D input sums exactly as it would alone.
    Error grows like O(log n) ulp instead of O(n).
    """
    x = np.asarray(x)
    if x.size == 0:
        return x.dtype.type(0)
    while len(x) > 1:
        m = len(x) // 2
        y = x[0 : 2 * m : 2] + x[1 : 2 * m : 2]
        if len(x) % 2:
            y = np.concatenate([y, x[2 * m :]])
        x = y
    return x[0]


def pairwise_mean(x):
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("mean of empty array")
    return pairwise_sum(x) / x.size
