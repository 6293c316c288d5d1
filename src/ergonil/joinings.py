"""Conditional expectations over power-invariant sigma-fields on the model
systems, and the product/kernel identity check for double averages.

The limit of (1/N) sum f(T^{an} x) g(T^{bn} x), integrated in x, equals
int E[f|I] E[g|I] dmu where I is the sigma-field of T^{b-a}-invariant sets.
For trigonometric polynomials on the model systems both conditional
expectations are again trigonometric polynomials given by an exact frequency
rule, so the right-hand side is computable in closed form and the check
compares it against the finite-N orbit average.

Whether a given power is ergodic is decided by the declared parameter type
(decimal literals are treated as irrational, `fractions.Fraction` as
rational); nothing is ever inferred from float comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .averages import double_avg
from .systems import Observable, System, _check_system


@dataclass(frozen=True)
class InvariantExpectation:
    system: System
    power: int
    result: Observable
    ergodic: bool


def invariant_conditional_expectation(system: System, obs: Observable, m: int) -> InvariantExpectation:
    """E[obs | sigma-field of T^m-invariant sets], as a trigonometric polynomial.

    A term e(k . x) survives exactly when every coordinate with k_i != 0
    carries a declared-rational angle alpha_i (`System.rational_angles`) and
    k . (m alpha) is an integer; with no such angle, T^m is ergodic and only
    the mean survives.
    """
    m = int(m)
    if m == 0:
        raise ValueError("power m must be nonzero")
    angles = _check_system(system).rational_angles
    kept = tuple((freq, c) for freq, c in obs.terms
                 if all(a is not None for k, a in zip(freq, angles) if k)
                 and sum(k * m * a for k, a in zip(freq, angles) if k) % 1 == 0)
    ergodic = all(a is None for a in angles)
    return InvariantExpectation(system, m, Observable(obs.dimension, kept), ergodic)


def expectation_pairing(e1: InvariantExpectation, e2: InvariantExpectation) -> complex:
    """int E[f|I] E[g|I] dmu, exactly: frequencies pair when they cancel."""
    total = 0.0 + 0.0j
    lookup = {freq: coeff for freq, coeff in e2.result.terms}
    for freq, coeff in e1.result.terms:
        neg = tuple(-v for v in freq)
        other = lookup.get(neg)
        if other is not None:
            total += coeff * other
    return total


@dataclass(frozen=True)
class ProductFormulaReport:
    lhs: complex
    rhs: complex
    passed: bool
    N: int
    tol: float


def product_formula_check(system: System, obs1: Observable, obs2: Observable, x0,
                          a: int, b: int, N: int, tol: float) -> ProductFormulaReport:
    """Compare the finite-N double average against the invariant pairing.

    The pairing identity holds after integrating the left side in x; for an
    ergodic power T^{b-a} and a generic starting point the pointwise limit
    agrees as well, which is the regime this check exercises. The gap between
    the two readings at finite N is reported, not resolved.
    """
    e1 = invariant_conditional_expectation(system, obs1, b - a)
    e2 = invariant_conditional_expectation(system, obs2, b - a)
    rhs = expectation_pairing(e1, e2)
    lhs = double_avg(system, obs1, obs2, x0, a, b, N)
    return ProductFormulaReport(lhs, rhs, abs(lhs - rhs) <= tol, N, tol)
