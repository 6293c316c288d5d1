"""Compensated floating-point kernels: exact mod-1 reduction of products and
polynomial values, and a fixed-shape pairwise summation tree.

The mod-1 helpers rely on two facts about IEEE double arithmetic:

* ``x - floor(x)`` is exact for every finite double (for |x| >= 2**52 the
  value is an integer and the result is 0);
* Dekker's product splitting returns a pair (p, e) with p + e == a*b exactly,
  so ``a*b mod 1`` can be assembled from ``frac(p) + frac(e)``.

Together these keep every reduced coordinate within a few ulp of the true
value even when the unreduced product is as large as ~2**100, which is what
closed-form orbit evaluation at n up to 2**20 requires.
"""

from __future__ import annotations

import numpy as np

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


# Exact single-float powers: n**2 is exact for |n| <= 2**26.
_FAST_POLY_LIMIT = 1 << 26


def _monomial_components(nf, j):
    """Float arrays whose exact sum is nf**j, for 1 <= j <= 4 and |nf| <= 2**26."""
    if j == 1:
        return (nf,)
    n2 = nf * nf
    if j == 2:
        return (n2,)
    if j == 3:
        return two_prod(n2, nf)
    if j == 4:
        return two_prod(n2, n2)
    raise ValueError("fast path handles degree <= 4 only")


def frac_poly(coefficients, n):
    """frac(c0 + c1*n + ... + cd*n**d), exact mod-1, vectorized over n.

    Degrees up to 4 use error-free float splitting (requires |n| <= 2**26);
    higher degrees fall back to exact integer arithmetic on the coefficients'
    binary representations, one entry at a time.
    """
    coefficients = [float(c) for c in coefficients]
    degree = len(coefficients) - 1
    n_arr = np.asarray(n)
    scalar = n_arr.ndim == 0
    n_arr = np.atleast_1d(n_arr).astype(np.int64)
    if degree <= 4 and (np.abs(n_arr) <= _FAST_POLY_LIMIT).all():
        nf = n_arr.astype(np.float64)
        products = []
        for j in range(1, degree + 1):
            c = coefficients[j]
            if c == 0.0:
                continue
            for comp in _monomial_components(nf, j):
                products.append((comp, c))
        out = frac_combine(products, terms=(coefficients[0],))
        out = np.broadcast_to(out, n_arr.shape) if np.ndim(out) == 0 else out
    else:
        out = np.empty(n_arr.shape, dtype=np.float64)
        flat = n_arr.ravel()
        res = np.empty(flat.shape, dtype=np.float64)
        for i, m in enumerate(flat):
            total = float(frac(np.float64(coefficients[0])))
            for j in range(1, degree + 1):
                c = coefficients[j]
                if c == 0.0:
                    continue
                num, den = c.as_integer_ratio()  # den is a power of two
                r = (pow(int(m), j, den) * num) % den
                total += r / den
            res[i] = total % 1.0
        out = res.reshape(n_arr.shape)
    if scalar:
        return float(out[0])
    return np.asarray(out, dtype=np.float64)


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
