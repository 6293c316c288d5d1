"""The finite van der Corput inequality and order-3 cube averages.

The difference inequality bounds the squared mean of a bounded sequence by
a triangular-weighted sum of shifted correlation means; it holds for every
finite sequence, so the checker treats any violation as a bug. It compares
the two sides with a slack of 1e-12 at the scale where max |u| lies in
[1/2, 1), so the slack is relative and a tiny sequence can fail too. Cube
averages of order 3 are the 8-fold offset products that control the
seminorm machinery; the fast path factorizes the h3 offset, and a
brute-force triple loop confirms it.
"""

import numpy as np

from ergonil import PolynomialPhase, cube_average, vdc_bound, weight_samples

phi = (np.sqrt(5.0) - 1.0) / 2.0

print("== van der Corput checker on structured and random sequences ==")
cases = {
    "constant 1": np.ones(4096),
    "alternating": np.array([(-1.0) ** n for n in range(4096)]),
    "linear phase": weight_samples(PolynomialPhase((0.0, phi)), 4096),
    "quadratic phase": weight_samples(PolynomialPhase((0.0, 0.0, phi)), 4096),
}
rng = np.random.default_rng(1)
cases["random unimodular"] = np.exp(2j * np.pi * rng.random(4096))
for label, u in cases.items():
    rep = vdc_bound(u, 4096, 32)
    print(f"  {label:18s}: lhs = {rep.lhs:.6f} <= rhs = {rep.rhs:.6f}  pass = {rep.passed}")

print("\n== cube averages: fast factorization vs literal triple loop ==")


def brute(s1, s2, H):
    base = min(s1.size, s2.size) - 3 * (H - 1)
    total = 0.0 + 0.0j
    for h1 in range(H):
        for h2 in range(H):
            for h3 in range(H):
                g1 = np.ones(base, dtype=complex)
                g2 = np.ones(base, dtype=complex)
                for e0 in (0, 1):
                    for e1 in (0, 1):
                        for e2 in (0, 1):
                            off = e0 * h1 + e1 * h2 + e2 * h3
                            g1 = g1 * s1[off : off + base]
                            g2 = g2 * s2[off : off + base]
                total += g1.mean() * g2.mean()
    return total / H**3


s = weight_samples(PolynomialPhase((0.0, phi)), 128 + 3 * 7)
fast = cube_average(s, s, 8)
slow = brute(s, s, 8)
print(f"  fast  = {fast:.12f}")
print(f"  brute = {slow:.12f}")
print(f"  |difference| = {abs(fast - slow):.2e}")
