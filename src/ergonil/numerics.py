"""Compensated floating-point kernels: exact mod-1 reduction of products and
polynomial values, and a fixed-shape pairwise summation tree.

The mod-1 helpers rely on three facts about IEEE double arithmetic:

* ``x - floor(x)`` is exact for every finite double (for |x| >= 2**52 the
  value is an integer and the result is 0);
* Dekker's product splitting returns a pair (p, e) with p + e == a*b exactly,
  so ``a*b mod 1`` can be assembled from ``frac(p) + frac(e)``;
* integers below 2**53 are exact, so base-2**24 digits multiply exactly.

So every reduced coordinate is within a few ulp, however large the product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker/Veltkamp splitting constant


def frac(x):
    """Fractional part in [0, 1), exact, elementwise.

    Values within half an ulp below an integer round to that integer's
    fractional part 0.0 rather than returning 1.0.
    """
    r = x - np.floor(x)
    return np.where(r >= 1.0, r - 1.0, r)


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
    """frac(sum of a*b products plus plain terms), compensated.

    Each product is split error-free and both halves are reduced mod 1
    before accumulation, so magnitudes never reach the range where the
    fractional bits would be rounded away.
    """
    total = 0.0
    for a, b in products:
        p, e = two_prod(a, b)
        total = total + frac(p) + frac(e)
    for t in terms:
        total = total + frac(t)
    return frac(total)


_DIGIT = 24  # base-2**24 digits: a column of their products stays below 2**53


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


def frac_poly(coefficients, n):
    """frac(c0 + c1*n + ... + cd*n**d), exact mod 1, one vectorized path for int64 n.

    Each n**j is float parts with an exact sum: a plain product while max|n|**j <= 2**53,
    else `two_prod` of the single floats n**ceil(j/2), n**floor(j/2), else base-2**24
    digits d_i mod 2**(24 K), each below c_j's last bit entering as d_i * (c_j 2**(24 i)).
    `frac_combine` adds the parts times c_j, a few ulp each. Integer c_j are skipped.
    """
    coefficients = [float(c) for c in coefficients]
    if not all(map(math.isfinite, coefficients)):
        raise DomainError(f"polynomial coefficients must be finite, got {coefficients}")
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.int64))
    top = max(-int(n_arr.min()), int(n_arr.max())) if n_arr.size else 0
    # (j, c_j, digits of n**j below the last bit of c_j), and the places K for all
    monomials = [(j, c, -(-(c.as_integer_ratio()[1].bit_length() - 1) // _DIGIT))
                 for j, c in enumerate(coefficients) if j and not c.is_integer()]
    places = max((min(k, (top**j).bit_length() // _DIGIT + 2) for j, _, k in monomials), default=0)

    @functools.cache
    def power(j, digits):
        if j == 1 and digits:  # low digits in [0, 2**24), the top one signed
            last = top.bit_length() // _DIGIT * _DIGIT
            return [((n_arr >> s) & ((1 << _DIGIT) - 1) if s < last else n_arr >> s)
                    .astype(np.float64) for s in range(0, last + 1, _DIGIT)][:places]
        if j == 1:
            return [n_arr.astype(np.float64)]
        hi, lo = power((j + 1) // 2, digits), power(j // 2, digits)
        if digits:
            return _digit_product(hi, lo, places)
        return [hi[0] * lo[0]] if top**j <= 2**53 else list(two_prod(hi[0], lo[0]))

    products = []
    for j, c, k in monomials:
        if top ** ((j + 1) // 2) <= 2**53:  # halves exact: at most two parts
            products += [(part, c) for part in power(j, False)]
        else:
            products += [(d, math.ldexp(c, _DIGIT * i)) for i, d in enumerate(power(j, True)[:k])]
    del power  # it refers to itself: break that cycle so its arrays go now, not at a gc
    out = frac_combine(products, terms=(coefficients[0],))
    out = np.broadcast_to(out, n_arr.shape) if np.ndim(out) == 0 else out
    return float(out[0]) if np.ndim(n) == 0 else np.asarray(out, dtype=np.float64)


def unit_phase(theta):
    """exp(2*pi*i*theta) for theta already reduced to [0, 1)."""
    return np.exp((2j * np.pi) * theta)


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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit moduli."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
