"""Frequency-twisted averages and the uniformity dichotomy.

For an eigenfunction of a rotation there is a resonant frequency where the
twisted average has modulus one for every N, so the sup over frequencies
cannot vanish. For a mixing automorphism and a zero-mean observable the sup
over the whole frequency circle collapses. `ww_sup` certifies the sup with
one coarse FFT and, by Bernstein's inequality, refines only the cells where
a larger value could still hide, so the reported maximum is within eps of
the true one.
"""

import numpy as np

from ergonil import RotationTorus, ToralAutomorphism, observable, ww_avg, ww_sup

phi = (np.sqrt(5.0) - 1.0) / 2.0
rot = RotationTorus((phi,))
eig = observable([((1,), 1.0)])

print("== resonance: f = e(x), t = 1 - alpha ==")
t_res = 1.0 - phi
for N in (100, 10000):
    val = ww_avg(rot, eig, (0.3,), t_res, N)
    print(f"  N = {N:6d}: A_N = {val:.12f}  (|A_N| = {abs(val):.12f})")
print("  every summand equals e(x0): the average never decays at this t")

print("\n== certified sup over the frequency circle, eigenfunction case ==")
for N in (1 << 10, 1 << 13):
    res = ww_sup(rot, eig, (0.2,), N, 0.01)
    print(f"  N = 2^{N.bit_length() - 1:2d}: sup = {res.sup_value:.6f} at t* = {res.t_star:.6f} "
          f"(resonance at {t_res:.6f}; {res.grid_size} nodes evaluated, "
          f"error bound {res.error_bound:.1e})")

print("\n== mixing case: zero-mean observable on the exact lattice ==")
cat = ToralAutomorphism(((2, 1), (1, 1)))
obs = observable([((1, 0), 1.0)])
for N in (1 << 12, 1 << 15):
    res = ww_sup(cat, obs, (1, 0), N, 0.01)
    print(f"  N = 2^{N.bit_length() - 1:2d}: sup = {res.sup_value:.6f}  (uniformly small; "
          f"{res.grid_size} nodes evaluated)")
