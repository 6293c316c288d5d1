"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's evaluation paths:
phases go through exact rational arithmetic on the floats' binary
representations, orbits are iterated one step at a time, and box/cube
sums are literal nested loops.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def exact_phase(coefficients, n: int) -> float:
    """frac(sum c_j n^j) with exact integer arithmetic on each float."""
    total = Fraction(0)
    for j, c in enumerate(coefficients):
        total += Fraction(float(c)) * (int(n) ** j)
    return float(total % 1)


def exact_phase_seq(coefficients, length: int, start: int = 0) -> np.ndarray:
    return np.array([exact_phase(coefficients, n) for n in range(start, start + length)])


def unit(theta) -> np.ndarray:
    return np.exp(2j * np.pi * np.asarray(theta))


def iterate_rotation(alpha, x0, n: int):
    x = np.asarray(x0, dtype=np.float64).copy()
    a = np.asarray(alpha, dtype=np.float64)
    for _ in range(n):
        x = (x + a) % 1.0
    return x


def rounded(exact: Fraction) -> float:
    """The correctly rounded float of exact mod 1, 0.0 where that is 1.0."""
    x = float(exact % 1)
    return 0.0 if x == 1.0 else x


def circle_distance(x: float, exact: Fraction) -> float:
    """Distance on the circle from the float x to the exact value, mod 1."""
    d = abs(Fraction(x) - exact) % 1
    return float(min(d, 1 - d))


def exact_rotation(alpha: float, x0: float, n: int) -> Fraction:
    """frac(x0 + n alpha) on the circle, in exact rationals."""
    return (Fraction(x0) + n * Fraction(alpha)) % 1


def dual_norm_exact(alpha: float, x0: float, a: int, b: int, t: float, g_terms, N: int) -> float:
    """Exact L2 norm in y of (1/N) sum_{n=1..N} e(x_{an}) e(x_{bn}) g(y + n t).

    x_m = frac(x0 + m alpha) is a circle rotation orbit and g = sum c_k e(k y)
    has distinct frequencies, so the average is sum_k c_k A_k e(k y) with
    A_k the literal mean of e(x_{an} + x_{bn} + k n t), every phase reduced
    in exact rationals. The norm is sqrt(sum_k |c_k A_k|^2), no grid involved.
    """
    total = 0.0
    for k, c in g_terms:
        phases = [(exact_rotation(alpha, x0, a * n) + exact_rotation(alpha, x0, b * n)
                   + k * n * Fraction(t)) % 1 for n in range(1, N + 1)]
        total += abs(c * direct_mean(unit([float(p) for p in phases]))) ** 2
    return total ** 0.5


def iterate_anzai(alpha: float, x0, n: int):
    x, y = float(x0[0]), float(x0[1])
    for _ in range(n):
        x, y = (x + alpha) % 1.0, (y + x) % 1.0
    return np.array([x, y])


def iterate_cat(matrix, modulus: int, v0, n: int):
    p1, p2 = int(v0[0]) % modulus, int(v0[1]) % modulus
    (a, b), (c, d) = matrix
    for _ in range(n):
        p1, p2 = (a * p1 + b * p2) % modulus, (c * p1 + d * p2) % modulus
    return p1, p2


def cat_orbit(matrix, modulus: int, v0, start: int, step: int, count: int):
    """A^(start + j*step) v0 for j = 0..count-1, one matrix step at a time.

    Negative powers step with the integer inverse det * adj(A) (det = +-1).
    """
    (a, b), (c, d) = matrix
    det = a * d - b * c
    inverse = ((det * d, -det * b), (-det * c, det * a))

    def power(v, n):
        return iterate_cat(matrix if n >= 0 else inverse, modulus, v, abs(n))

    v = power(v0, start)
    out = []
    for _ in range(count):
        out.append(v)
        v = power(v, step)
    return np.array(out, dtype=np.int64).reshape(count, 2)


def is_prime_by_trial(n: int) -> bool:
    """n is prime: no divisor in 2..isqrt(n), one Python-int remainder at a time."""
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def integer_matrix_power(matrix, n: int):
    """matrix**n in Python integers, one product at a time; negative n uses the integer
    inverse det * adj(matrix) (det = +-1)."""
    (a, b), (c, d) = matrix
    if n < 0:
        det = a * d - b * c
        (a, b), (c, d), n = (det * d, -det * b), (-det * c, det * a), -n
    r = ((1, 0), (0, 1))
    for _ in range(n):
        r = ((r[0][0] * a + r[0][1] * c, r[0][0] * b + r[0][1] * d),
             (r[1][0] * a + r[1][1] * c, r[1][0] * b + r[1][1] * d))
    return r


def exact_anzai(alpha: float, x0, n: int):
    """T^n (x, y) of the skew product in exact rationals, rounded at the end."""
    a, x, y = Fraction(alpha), Fraction(x0[0]), Fraction(x0[1])
    return np.array([float((x + n * a) % 1), float((y + n * x + Fraction(n * (n - 1), 2) * a) % 1)])


def heisenberg_product(g, n: int):
    """n-fold iterated group multiplication of (a, b, c)."""
    a = b = c = 0.0
    for _ in range(n):
        c = c + g.c + a * g.b
        a = a + g.a
        b = b + g.b
    return a, b, c


def heisenberg_products_exact(g, count: int):
    """All iterated products g^1 .. g^count with exact rational arithmetic.

    The naive float iteration drifts by ~1e-8 in the center coordinate by
    n = 1000, which would swamp the closed form's own error; iterating the
    group law over the floats' exact rational values removes the oracle's
    contribution entirely.
    """
    ga, gb, gc = Fraction(g.a), Fraction(g.b), Fraction(g.c)
    a = b = c = Fraction(0)
    out = []
    for _ in range(count):
        c = c + gc + a * gb
        a = a + ga
        b = b + gb
        out.append((a, b, c))
    return out


_PI_LONG = np.arccos(np.longdouble(-1))


def turn_of(theta: Fraction) -> int:
    """theta mod 1 as the nearest uint64 turn U, theta = U / 2^64 within 2^-65."""
    return round(theta % 1 * 2**64) % 2**64


def _turn_angle(turns) -> np.ndarray:
    """2 pi U / 2^64 in long double for uint64 turns U, taken to [-pi, pi) exactly first."""
    t = np.asarray(turns, dtype=np.uint64).astype(np.longdouble) / np.longdouble(2.0**64)
    return (2 * _PI_LONG) * np.where(t >= 0.5, t - 1, t)


def unit_exact(theta: Fraction) -> complex:
    """e(theta) with theta reduced mod 1 in exact rationals, to the nearest turn (within
    2^-65) and then in long double (`phase_distance`), so within about 2^-61 of exact."""
    a = _turn_angle([turn_of(theta)])[0]
    return complex(float(np.cos(a)), float(np.sin(a)))


def phase_distance(got, turns) -> np.ndarray:
    """|got - e(U / 2^64)| for uint64 turns U, all in long double: U / 2^64 is exact there and
    is taken to [-1/2, 1/2) exactly, so the reference errs by about 2^-62 (an x87 long double)."""
    a = _turn_angle(turns)
    got = np.asarray(got, dtype=np.complex128)
    return np.hypot(got.real.astype(np.longdouble) - np.cos(a),
                    got.imag.astype(np.longdouble) - np.sin(a))


def heisenberg_reduced_exact(g, base, n: int):
    """g^n * base = (n a + u, n b + v, n c + a b n(n-1)/2 + w + n a v) by the group law
    in exact rationals, reduced with q = -floor(Y) as `HeisenbergNilseq` reduces it."""
    ga, gb, gc = (Fraction(t) for t in (g.a, g.b, g.c))
    u, v, w = (Fraction(t) for t in (base.a, base.b, base.c))
    X, Y = n * ga + u, n * gb + v
    Z = n * gc + ga * gb * Fraction(n * (n - 1), 2) + w + n * ga * v
    q = -math.floor(Y)
    return X % 1, Y % 1, (Z + X * q) % 1


def theta_exact(ell: int, width: float, x, y, z) -> complex:
    """The theta section of `nilseq.ThetaType` at exact rational (x, y, z): every phase
    is reduced mod 1 in rationals and the full sum over j is taken with `math.fsum`,
    so only the final roundings are the oracle's own error. The sum runs over
    j0 +- (4 width + 40) with j0 = -floor(y), 40 terms past the window `ThetaType`
    sums (its half-width is below 4 width + 1), where every term underflows."""
    x, y, z = (Fraction(t) for t in (x, y, z))
    j0, span = -math.floor(y), math.ceil(4 * width) + 40
    parts = [math.exp(-math.pi * (float(y + j) / width) ** 2) * unit_exact(ell * j * x)
             for j in range(j0 - span, j0 + span + 1)]
    total = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
    return total * unit_exact(ell * z)


def direct_mean(terms) -> complex:
    """Plain left-to-right summation, independent of the pairwise tree."""
    total = 0.0 + 0.0j
    for t in np.asarray(terms):
        total += t
    return total / len(terms)


def geometric_avg_bound(theta: float, N: int) -> float:
    """|(1/N) sum_{n=1..N} e(n theta)| <= 2 / (N |1 - e(theta)|)."""
    return 2.0 / (N * abs(1 - np.exp(2j * np.pi * theta)))


def c_h_brute(a, k: int, h, N: int) -> complex:
    """Conjugated cube correlation by literal enumeration."""
    a = np.asarray(a)
    total = 0.0 + 0.0j
    for n in range(N):
        prod = 1.0 + 0.0j
        for eps in itertools.product((0, 1), repeat=k):
            idx = n + sum(e * v for e, v in zip(eps, h))
            prod *= np.conj(a[idx]) if sum(eps) % 2 else a[idx]
        total += prod
    return total / N


def box_average_brute(a, k: int, H: int, N: int) -> complex:
    """Mean of c_h over h in {1..H}^k via c_h_brute."""
    total = 0.0 + 0.0j
    for h in itertools.product(range(1, H + 1), repeat=k):
        total += c_h_brute(a, k, h, N)
    return total / H**k


def local_seminorm_brute(a, k: int, H: int, N: int):
    avg = box_average_brute(a, k, H, N).real
    if avg < 0:
        return 0.0, True
    return avg ** (1.0 / 2**k), False


def ghk_brute(u, k: int, H: int, N: int):
    """(value, pre-root average) of the order-k GHK estimate by the level recursion:
    level 1 is |mean of u[:N]|, level k the 2^k-th root of the h-mean over 1..H of the
    level-(k-1) estimate of u[n] conj(u[n+h]) to the power 2^(k-1)."""

    def level(v, k):
        if k == 1:
            return abs(direct_mean(v[:N]))
        acc = 0.0
        for h in range(1, H + 1):
            acc += level(v[: v.size - h] * np.conj(v[h:]), k - 1) ** (1 << (k - 1))
        return (acc / H) ** (1.0 / (1 << k))

    value = level(np.asarray(u, dtype=complex), k)
    return value, value ** (1 << k)


def cube_average_brute_vec(s1, s2, H: int) -> complex:
    """Triple loop over (h1, h2, h3) with the 8-fold product vectorized in n.

    Same literal offset structure as `cube_average_brute` (which checks this
    variant at small H), fast enough for the H = 16 acceptance sweep.
    """
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    base = min(s1.size, s2.size) - 3 * (H - 1)
    assert base >= 1
    eps = list(itertools.product((0, 1), repeat=3))
    total = 0.0 + 0.0j
    for h1 in range(H):
        for h2 in range(H):
            for h3 in range(H):
                g1 = np.ones(base, dtype=complex)
                g2 = np.ones(base, dtype=complex)
                for e in eps:
                    off = e[0] * h1 + e[1] * h2 + e[2] * h3
                    g1 = g1 * s1[off : off + base]
                    g2 = g2 * s2[off : off + base]
                total += g1.mean() * g2.mean()
    return total / H**3


def cube_average_brute(s1, s2, H: int) -> complex:
    """Order-3 cube average by the literal triple loop over (h1, h2, h3)."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    base = min(s1.size, s2.size) - 3 * (H - 1)
    assert base >= 1
    offsets = list(itertools.product((0, 1), repeat=3))
    total = 0.0 + 0.0j
    for h1 in range(H):
        for h2 in range(H):
            for h3 in range(H):
                g1 = 0.0 + 0.0j
                g2 = 0.0 + 0.0j
                for n in range(base):
                    p1 = 1.0 + 0.0j
                    p2 = 1.0 + 0.0j
                    for e in offsets:
                        idx = n + e[0] * h1 + e[1] * h2 + e[2] * h3
                        p1 *= s1[idx]
                        p2 *= s2[idx]
                    g1 += p1
                    g2 += p2
                total += (g1 / base) * (g2 / base)
    return total / H**3


# Reference box walk: the one-offset-tuple-at-a-time form that `ergonil.seminorms` had
# before it walked the last offset in row blocks, kept unchanged (with the library's fixed
# pairwise tree) so the blocked walk can be pinned bit for bit.


def pairwise_tree_mean(x) -> np.complex128:
    """Mean by the adjacent-pair tree of `ergonil.numerics.pairwise_sum`."""
    x = np.asarray(x)
    size = x.size
    while len(x) > 1:
        m = len(x) // 2
        y = x[0 : 2 * m : 2] + x[1 : 2 * m : 2]
        if len(x) % 2:
            y = np.concatenate([y, x[2 * m :]])
        x = y
    return x[0] / size


def sorted_offset_sum(seq, depth: int, H: int, reach: int, leaf):
    """Sum of leaf(D_h) over sorted h in {1..H}^depth, one offset tuple at a time."""
    bufs = [np.empty(reach + (depth - 1 - j) * H, dtype=np.complex128) for j in range(depth)]
    total = 0.0
    last = (0,) * depth
    for h in itertools.combinations_with_replacement(range(1, H + 1), depth):
        changed = next((j for j in range(depth) if h[j] != last[j]), depth)
        for j in range(changed, depth):
            prev, buf, m = bufs[j - 1] if j else seq, bufs[j], bufs[j].size
            # not in place at one element (N = 1): numpy's in-place one-element loop rounds a
            # complex product differently from the longer products the library's walk makes
            conj = np.conjugate(prev[h[j] : h[j] + m], out=buf)
            buf[...] = np.multiply(conj, prev[:m], out=buf if m > 1 else None)
        runs = math.prod(math.factorial(h.count(v)) for v in set(h))
        total += math.factorial(depth) // runs * leaf(bufs[-1] if depth else seq)
        last = h
    return total


def window_mean_leaf(N: int, H: int):
    """leaf(d) = (1/N) sum_n d_n conj(mean of d over (n, n+H]), by one cumsum."""
    cs = np.zeros(N + H + 1, dtype=np.complex128)
    window = np.empty(N, dtype=np.complex128)

    def leaf(d):
        np.cumsum(d[: N + H], out=cs[1:])
        np.divide(np.subtract(cs[1 + H :], cs[1 : N + 1], out=window), H, out=window)
        np.multiply(np.conjugate(window, out=window), d[:N], out=window)
        return complex(pairwise_tree_mean(window))

    return leaf


def local_seminorm_walk(a, k: int, H: int, N: int):
    """(value, pre-root average, clamped) of `local_seminorm` by the reference walk."""
    a = np.asarray(a, dtype=np.complex128)
    total = sorted_offset_sum(a[: N + k * H], k - 1, H, N + H, window_mean_leaf(N, H))
    avg = (total / H ** (k - 1)).real
    clamped = avg < 0.0
    return (0.0 if clamped else float(avg) ** (1.0 / (1 << k))), float(avg), clamped


def ghk_seminorm_walk(u, k: int, H: int, N: int):
    """(value, pre-root average, clamped) of `ghk_seminorm` on orbit samples u by the
    reference walk."""
    total = sorted_offset_sum(u, k - 1, H, N, lambda d: abs(pairwise_tree_mean(d[:N])) ** 2)
    avg = float(total / H ** (k - 1))
    return avg ** (1.0 / (1 << k)), avg, False
