"""Explicit torus systems and their closed-form orbits.

Three model systems: an irrational rotation, the Anzai skew product, and a
hyperbolic automorphism iterated exactly on a prime lattice. Orbits are
evaluated in closed form with exact uint64 turn arithmetic, so there is no
step-by-step drift even at n = 2**20.
"""

import numpy as np

from ergonil import (
    AnzaiSkew,
    RotationTorus,
    ToralAutomorphism,
    eval_observable,
    integrate_observable,
    observable,
    orbit_coords,
    orbit_point,
)
from ergonil.systems import eval_observable_many

phi = (np.sqrt(5.0) - 1.0) / 2.0

print("== rotation by the golden mean ==")
rot = RotationTorus((phi,))
for n in (1, 10, 2**20):
    print(f"  T^{n}(0) = {orbit_point(rot, (0.0,), n)[0]:.15f}")

print("\n== Anzai skew product: quadratic phases from a 2-step system ==")
anz = AnzaiSkew(phi)
print("  T^3(0, 0) with alpha=1/4 ->", orbit_point(AnzaiSkew(0.25), (0.0, 0.0), 3))
x, y = orbit_point(anz, (0.2, 0.7), 2**20)
print(f"  T^(2^20)(0.2, 0.7) = ({x:.15f}, {y:.15f})")

print("\n== hyperbolic automorphism on the lattice (Z_q)^2, q = 2^31 - 1 ==")
cat = ToralAutomorphism(((2, 1), (1, 1)))
print("  residue orbit of (1, 0):", [orbit_point(cat, (1, 0), n) for n in range(5)])
print("  floating orbits of this map lose all mantissa content after ~50")
print("  steps; the lattice walk is exact and never leaves (Z_q)^2.")

print("\n== trigonometric-polynomial observables ==")
f = observable([((0,), 0.3), ((1,), 0.7)])
print("  f = 0.3 + 0.7 e(x), f(0.5) =", eval_observable(f, (0.5,)))
print("  integral (zero mode) =", integrate_observable(f))

print("\n== orbit averages drift toward the integral (measure preservation) ==")
for N in (1 << 8, 1 << 12, 1 << 16):
    coords = orbit_coords(rot, (0.11,), np.arange(1, N + 1))
    avg = eval_observable_many(f, coords).mean()
    print(f"  N = {N:6d}:  |orbit avg - integral| = {abs(avg - 0.3):.2e}")
