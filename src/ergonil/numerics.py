"""The numeric kernels every layer shares: exact mod-1 reduction of products
(`frac_combine`) and of polynomial values (`frac_poly`), unit phases, the
ordered complex product and a fixed-shape pairwise summation tree. Exact
integer arithmetic on lattices is int64 and lives with its system
(`systems.mat_pow_mod`, `systems.lattice_orbit`).

The mod-1 helpers rely on three facts about IEEE double arithmetic, and one about int64:

* ``x - floor(x)`` is exact for every finite double (for |x| >= 2**52 the
  value is an integer and the result is 0);
* Dekker's product splitting returns a pair (p, e) with p + e == a*b exactly,
  so ``a*b mod 1`` can be assembled from ``frac(p) + frac(e)``;
* integers below 2**53 are exact, so base-2**24 digits multiply exactly;
* int64 array products wrap mod 2**64, which moves c*n by an integer if c has <= 64 fractional bits.

So every reduced coordinate is within a few ulp, however large the product.

The kernels write into preallocated buffers but keep the order of every
operation of their allocating forms (kept in the tests as references), so
they keep those forms' bits:

* `frac`: r = x - floor(x), then r - 1 where r >= 1;
* `frac_combine`: for each product a*b, b is split once into bhi + blo and a
  (an int64 a cast to float first) into ahi + alo (Veltkamp); p = a*b and
  e = (((ahi*bhi - p) + ahi*blo) + alo*bhi) + alo*blo. The total starts at 0.0,
  takes (total + frac(p)) + frac(e) for the products in order, then
  total + frac(t) for the terms, and the result is frac(total);
* `unit_phase`: cos and sin of theta*2pi, which is how numpy's complex exp
  evaluates exp((2j*pi)*theta) = exp(0 + i*2pi*theta).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker/Veltkamp splitting constant


def frac(x):
    """Fractional part in [0, 1), exact, elementwise.

    Values within half an ulp below an integer round to that integer's
    fractional part 0.0 rather than returning 1.0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    return _frac(x, out, out)


def _frac(x, out, floor):
    """frac(x) written into `out`, which may be `x`: floor, subtract, then take 1 from the
    values that rounded to 1.0. `floor` holds floor(x) while x is still read, so it must
    not be `x`; it may be `out`."""
    np.floor(x, out=floor)
    np.subtract(x, floor, out=out)
    return np.subtract(out, 1.0, out=out, where=out >= 1.0)


def two_prod(a, b):
    """Error-free product: returns (p, e) with p + e == a*b exactly."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def frac_combine(products=(), terms=()):
    """frac(sum of a*b products plus plain terms), compensated; each b is a scalar, each a
    floats or int64 integers, exact at every element.

    Each product is split error-free as in `two_prod` and both halves are
    reduced mod 1 before accumulation, so magnitudes never reach the range
    where the fractional bits would be rounded away. The scalar b is split
    once, and every step writes into the output or one of four scratch
    buffers of the block's shape. An int64 a is cast into e, which is free
    until the error term, so |a| <= 2**53 gives the float form's bits; where
    the cast rounds, a - float(a) (below 2**10) is one more product.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a, _ in products), *map(np.shape, terms))
    total = np.zeros(shape)
    p, e, hi, lo = (np.empty(shape) for _ in range(4))
    products = list(products)
    for a, b in products:  # a remainder appended below is reduced in its turn
        b = float(b)
        cb = _SPLITTER * b
        bhi = cb - (cb - b)
        blo = b - bhi
        if getattr(a, "dtype", None) == np.int64:
            e[...] = a
            if a.size and (a.min() < -2**53 or a.max() > 2**53):
                np.minimum(e, 2.0**63 - 2**10, out=e)  # 2**63 would not cast back to int64
                products.append((a - e.astype(np.int64), b))
            a = e
        np.multiply(a, b, out=p)
        np.multiply(a, _SPLITTER, out=hi)  # ca
        np.subtract(hi, np.subtract(hi, a, out=lo), out=hi)  # ahi = ca - (ca - a)
        np.subtract(a, hi, out=lo)  # alo
        np.subtract(np.multiply(hi, bhi, out=e), p, out=e)
        np.add(e, np.multiply(hi, blo, out=hi), out=e)
        np.add(e, np.multiply(lo, bhi, out=hi), out=e)
        np.add(e, np.multiply(lo, blo, out=lo), out=e)
        np.add(total, _frac(p, p, hi), out=total)
        np.add(total, _frac(e, e, hi), out=total)
    for t in terms:
        np.add(total, frac(t), out=total)
    return _frac(total, total, hi)


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
    the array power wraps mod 2**64, a multiple of c_j's denominator, so c_j n**j moves by an
    integer. Otherwise n**j is base-2**24 digits d_i mod 2**(24 K) for every int64 time, the K
    above c_j's last bit each entering as d_i * (c_j 2**(24 i)). Integer c_j are skipped.
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
            products += [(d, math.ldexp(c, _DIGIT * i)) for i, d in enumerate(digits)]
        elif j and bits[j]:
            products.append((n_arr**j, c))
    out = frac_combine(products, terms=(coefficients[0],))
    out = np.broadcast_to(out, n_arr.shape) if np.ndim(out) == 0 else out
    return float(out[0]) if np.ndim(n) == 0 else np.asarray(out, dtype=np.float64)


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
