"""Weighted double-recurrence averages along two orbit arithmetic progressions.

The same average accepts frequency weights e(nt), polynomial-phase weights
e(p(n)), or arbitrary bounded weight sequences; the simpler weights are exact
special cases of the more general ones, and those collapses hold bit-for-bit
because both run through one evaluation path: `orbit_terms` multiplies a tuple
of (observable, exponent) factors in order, then the weight, and
`run_schedule` takes the same factors and weight to reduce them along a
schedule in one pass.
"""

import numpy as np

from ergonil import (
    AnzaiSkew,
    HeisenbergElement,
    HeisenbergNilseq,
    PolynomialPhase,
    RotationTorus,
    TorusChar,
    constant_weight,
    double_avg,
    nil_wwdr_avg,
    observable,
    poly_wwdr_avg,
    run_schedule,
    wwdr_avg,
)

phi = (np.sqrt(5.0) - 1.0) / 2.0
rot = RotationTorus((phi,))
e1 = observable([((1,), 1.0)])

print("== collapses are exact ==")
base = double_avg(rot, e1, e1, (0.3,), 1, 2, 4096)
print("  double average:                ", base)
print("  + frequency weight at t=0:     ",
      wwdr_avg(rot, e1, e1, (0.3,), 1, 2, 0.0, 4096) == base)
print("  + constant weight 1:           ",
      nil_wwdr_avg(rot, e1, e1, (0.3,), 1, 2, constant_weight(1.0), 4096) == base)
print("  + p(n) = t n equals weight t:  ",
      poly_wwdr_avg(rot, e1, e1, (0.3,), 1, 2, (0.0, 0.37), 4096)
      == wwdr_avg(rot, e1, e1, (0.3,), 1, 2, 0.37, 4096))

print("\n== opposite exponents cancel the rotation: every term is e(2 x0) ==")
for N in (10, 1000):
    val = double_avg(rot, e1, e1, (0.3,), 1, -1, N)
    print(f"  N = {N:5d}: A_N = {val:.12f}")

print("\n== the skew product carries quadratic phases; a 2-step weight rides along ==")
anz = AnzaiSkew(phi)
fy = observable([((0, 1), 1.0)])
w = HeisenbergNilseq(HeisenbergElement(np.sqrt(3) - 1, 0.3, 0.1),
                     HeisenbergElement.identity(), TorusChar(1, 0))
for x0 in ((0.2, 0.3), (0.5, 0.7)):
    rep = run_schedule(anz, x0, [1 << k for k in range(10, 18)], ((fy, 1), (fy, 2)), w)
    d10, d16 = rep.delta_at(1 << 10), rep.delta_at(1 << 16)
    print(f"  x0 = {x0}: dyadic delta falls from {d10:.5f} (N=2^10) to {d16:.5f} (N=2^16)")

print("\n== polynomial weight of degree 2 (quadratic Weyl average) ==")
one = observable([((0,), 1.0)])
val = poly_wwdr_avg(rot, one, one, (0.0,), 1, 2, (0.0, 0.0, phi), 1 << 16)
print(f"  |(1/N) sum e(n^2 phi)| at N = 2^16: {abs(val):.5f}")
