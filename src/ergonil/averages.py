"""Weighted ergodic averages: Birkhoff, frequency-twisted single and double
recurrence, polynomial and nilsequence weights, certified sup-over-frequency
sweeps, and the auxiliary-system product average.

Conventions
-----------
Averages run over n = index_base .. index_base + N - 1 with index_base = 1 by
default (the seminorm module defaults to 0; both are accepted everywhere).
Sums use the fixed-shape pairwise tree from `numerics`, so identical inputs
give bit-identical outputs regardless of blocking or worker count.

Every weighted average is (1/N) sum f1(T^{an} x0) f2(T^{bn} x0) b_n with some
factors absent, and every term array comes from one core, `orbit_terms`. A
frequency t is the weight `PolynomialPhase((0, t))` and a polynomial p is
`PolynomialPhase(p)`; an absent factor is skipped, not multiplied as ones.
Factors multiply in the fixed order f1 * f2 * b, so the exact reductions
(t = 0, constant weights) hold bit for bit. Observables and weights fix their
operand order too, so no term's bits depend on the array length, and
`run_schedule` returns the one-shot values bit for bit at every scheduled N.
Exponent times n are checked against the system's time domain first, and the
auxiliary-system norm is exact by Parseval on its Fourier coefficients in y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridTooFineError,
    InvalidExponentsError,
    SequenceTooShortError,
    UnsupportedSystemError,
)
from .nilseq import PolynomialPhase, WeightSequence
from .numerics import frac_poly, pairwise_mean, pairwise_sum, unit_phase
from .report import ConvergenceReport, SupPoint, check_schedule, make_report
from .systems import (
    Observable,
    RotationTorus,
    System,
    eval_observable_many,
    orbit_coords,
    check_times,
)

MAX_SUP_GRID = 1 << 28  # finest sweep resolution; eps floor is pi*(N-1)*U / this
_COARSE_MIN = 1 << 12  # coarse FFT size: a power of two >= 16N, within these
_COARSE_CAP = 1 << 22  # (but never below N)


def _times(index_base: int, N: int) -> np.ndarray:
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.arange(index_base, index_base + N, dtype=np.int64)


def check_exponents(a: int, b: int):
    """Double-recurrence exponents must be distinct and nonzero."""
    if a == b or a == 0 or b == 0:
        raise InvalidExponentsError(f"exponents must be distinct and nonzero, got a={a}, b={b}")


def orbit_terms(system: System | None, x0, n: np.ndarray, obs1: Observable | None,
                a: int = 1, obs2: Observable | None = None, b: int | None = None,
                weight: WeightSequence | None = None) -> np.ndarray:
    """Terms f1(T^{an} x0) * f2(T^{bn} x0) * weight(n) on the int64 times `n`.

    A factor left as None is skipped; with neither observable the terms are
    the weight alone. Exponents are checked when obs2 is given, and a
    finite-length weight must cover every time in `n`.
    """
    if obs2 is not None:
        check_exponents(a, b)
    if weight is not None and weight.length is not None and n.size and n.max() >= weight.length:
        raise SequenceTooShortError(
            f"weight defined for n < {weight.length}, average needs n < {int(n.max()) + 1}"
        )

    def orbit(obs, e):
        check_times(n, system, e)  # before e * n can round or wrap in int64
        return eval_observable_many(obs, orbit_coords(system, x0, e * n))

    # the weight is evaluated first, while no other term array is alive: its
    # temporaries are the largest (a theta weight peaks near ten arrays of N)
    w = weight.eval_many(n) if weight is not None else None
    # in place, left to right: numpy's temporary elision may evaluate `x * f()`
    # as `f() * x`, and complex products differ in the last bit by operand order;
    # but one element in place takes numpy's reduce loop, which rounds differently
    terms = orbit(obs1, a) if obs1 is not None else w
    if obs2 is not None:
        terms = np.multiply(terms, orbit(obs2, b), out=terms if n.size > 1 else None)
    if obs1 is not None and w is not None:
        terms = np.multiply(terms, w, out=terms if n.size > 1 else None)
    return terms


def _mean(system: System, x0, N: int, index_base: int, *args, **kwargs) -> complex:
    """(1/N) sum over n = index_base .. +N-1 of `orbit_terms(system, x0, n, *args, **kwargs)`."""
    terms = orbit_terms(system, x0, _times(index_base, N), *args, **kwargs)
    return complex(pairwise_mean(terms))


# ---------------------------------------------------------------------------
# single-orbit averages
# ---------------------------------------------------------------------------


def birkhoff_avg(system: System, obs: Observable, x0, N: int, index_base: int = 1) -> complex:
    """(1/N) sum f(T^n x0)."""
    return _mean(system, x0, N, index_base, obs)


def ww_avg(system: System, obs: Observable, x0, t: float, N: int, index_base: int = 1) -> complex:
    """(1/N) sum f(T^n x0) e(n t)."""
    return _mean(system, x0, N, index_base, obs, weight=PolynomialPhase((0.0, t)))


SupResult = SupPoint  # a sweep's result is the report's certified point at one N


def _refine(u: np.ndarray, cells: np.ndarray, s: int, p: int, rows: int):
    """Sweep values at the dyadic nodes (k*s + i) / 2^p, 0 < |i| <= s/2, of each cell k.

    e(j t) splits into e(j k s / 2^p) e(j i / 2^p); both arguments are
    reduced mod 1 exactly in int64, and every node's sum runs through the
    pairwise tree. Blocks hold at most `rows` phase rows of length N.
    Returns (nodes, values), cell-major.
    """
    j = np.arange(u.size, dtype=np.int64)
    mask = (1 << p) - 1

    def phases(r):  # one row per node
        return unit_phase(((r[:, None] * j) & mask) / float(1 << p))

    steps = np.arange(-(s // 2), s // 2 + 1, dtype=np.int64)
    steps = steps[steps != 0]
    centred = u * phases(cells * s)
    vals = np.empty((cells.size, steps.size))
    for lo in range(0, steps.size, rows):
        w = phases(steps[lo:lo + rows])
        for c, row in enumerate(centred):
            vals[c, lo:lo + rows] = np.abs(pairwise_sum((row * w).T))
    return (cells[:, None] * s + steps).ravel(), vals.ravel() / u.size


def sup_over_frequency(u: np.ndarray, eps: float, index_base: int = 1) -> SupResult:
    """Certified maximum of t -> |(1/N) sum_n u_n e(n t)| over t in [0, 1).

    The modulus does not depend on where n starts, so `u` is placed at
    offsets 0..N-1 whatever `index_base` is. Centred on its middle offset the
    sum is a trigonometric polynomial of degree N-1 in t/2, so by Bernstein's
    inequality its modulus has slope in t at most pi*(N-1) times its sup S.

    Stage 1 is one FFT on m0 >= 16N nodes of spacing h = 1/m0. Its maximum G
    certifies S <= U = min(max|u_n|, G / (1 - pi*(N-1)*h/2)); set
    L = pi*(N-1)*U. Stage 2 refines, highest first, every coarse cell whose
    bound value + L*h/2 exceeds the running maximum plus eps/2, on dyadic
    nodes of spacing at most eps/L. `error_bound` is the largest cell bound
    minus the reported maximum, at most eps/2; `grid_size` counts evaluated
    nodes and `grid_spacing` is the finest spacing used. Raises
    GridTooFineError when eps/L < 1/MAX_SUP_GRID.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = np.asarray(u, dtype=np.complex128)
    N = u.size
    B = float(np.abs(u).max()) if N else 0.0
    if not np.isfinite(B):
        raise ValueError("sequence values must be finite")
    if B == 0.0:
        return SupResult(0.0, 0.0, 1, 1.0, 0.0)
    m0 = _COARSE_MIN
    while m0 < 16 * N and m0 < _COARSE_CAP:
        m0 <<= 1
    while m0 < N:
        m0 <<= 1
    coarse = np.abs(np.fft.ifft(u, m0)) * (m0 / N)
    k_best = int(np.argmax(coarse))
    best = float(coarse[k_best])
    t_star = k_best / m0
    slack = np.pi * (N - 1) / (2 * m0)  # slope bound times h/2, per unit of sup
    U = min(B, best / (1.0 - slack)) if slack < 1.0 else B
    L = np.pi * (N - 1) * U
    if L > eps * MAX_SUP_GRID:
        raise GridTooFineError(
            f"eps={eps} needs a grid spacing of {eps / L:.3e} < 1/{MAX_SUP_GRID}; "
            f"floor for this sequence is eps >= {L / MAX_SUP_GRID:.3e}"
        )
    half = slack * U  # L*h/2: how far a coarse cell can rise above its node
    cand = np.flatnonzero(coarse + half > best + eps / 2)
    cand = cand[np.argsort(-coarse[cand], kind="stable")]
    p = max(m0.bit_length(), math.frexp(L / eps)[1])  # 2^p >= 2*m0 and >= L/eps
    s = (1 << p) // m0  # fine nodes per coarse cell
    rows = max(1, m0 // N)  # refinement blocks hold at most m0 terms
    fine_top = -np.inf
    done = 0
    while done < cand.size and coarse[cand[done]] + half > best + eps / 2:
        batch = cand[done:done + rows]
        done += batch.size
        nodes, vals = _refine(u, batch, s, p, rows)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            t_star = float(nodes[i] & ((1 << p) - 1)) / (1 << p)
        fine_top = max(fine_top, float(vals.max()), float(coarse[batch].max()))
    coarse[cand[:done]] = -np.inf  # refined cells are bounded by their fine nodes
    top = max(float(coarse.max()) + half, fine_top + L / (2 << p))
    spacing = 1.0 / ((1 << p) if done else m0)
    return SupResult(best, t_star, m0 + done * s, spacing, top - best)


def ww_sup(system: System, obs: Observable, x0, N: int, eps: float,
           index_base: int = 1) -> SupResult:
    """Certified sup over the frequency t of |(1/N) sum f(T^n x0) e(n t)|."""
    return sup_over_frequency(orbit_terms(system, x0, _times(index_base, N), obs), eps, index_base)


# ---------------------------------------------------------------------------
# double-recurrence averages
# ---------------------------------------------------------------------------


def double_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
               N: int, index_base: int = 1) -> complex:
    """(1/N) sum f1(T^{an} x0) f2(T^{bn} x0)."""
    return _mean(system, x0, N, index_base, obs1, a, obs2, b)


def wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
             t: float, N: int, index_base: int = 1) -> complex:
    """Double recurrence with frequency weight e(n t); t = 0 reduces bit-for-bit."""
    return _mean(system, x0, N, index_base, obs1, a, obs2, b, PolynomialPhase((0.0, t)))


def poly_wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                  p, N: int, index_base: int = 1) -> complex:
    """Double recurrence with polynomial weight e(p(n))."""
    return _mean(system, x0, N, index_base, obs1, a, obs2, b, PolynomialPhase(p))


def nil_wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                 w: WeightSequence, N: int, index_base: int = 1) -> complex:
    """Double recurrence against an arbitrary weight sequence."""
    return _mean(system, x0, N, index_base, obs1, a, obs2, b, w)


# ---------------------------------------------------------------------------
# auxiliary-system product average
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSystemResult:
    grid: tuple[float, ...]
    node_values: tuple[complex, ...]
    l2_norm: float


def _dual_expansion(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                    system_s: RotationTorus, g_list, schedule,
                    index_base: int) -> list[tuple[dict[int, complex], float]]:
    """Coefficients {K: c_K(N)} in y of the auxiliary average and their L2 norm, per N.

    With S^{in} y = y + i n t, a tuple (k_1, .., k_m) of g-frequencies adds
    C e(K y) e(s n t), where K = sum k_i, s = sum i k_i and C is the product
    of its coefficients; so c_K(N) = sum_s C_{K,s} A_s(N) with A_s(N) =
    (1/N) sum f1 f2 e(s n t). Each A_s's terms are built once, at the largest N.
    The norm is exact by Parseval, sqrt(sum_K |c_K|^2) summed in increasing K.
    """
    g_list = list(g_list)
    if not isinstance(system_s, RotationTorus) or system_s.dimension != 1:
        raise UnsupportedSystemError("auxiliary system must be a circle rotation")
    if not 1 <= len(g_list) <= 3 or any(g.dimension != 1 for g in g_list):
        raise DimensionMismatchError("need 1 to 3 auxiliary observables on the circle")
    weights: dict[tuple[int, int], complex] = {}  # (K, s) -> C_{K,s}
    for combo in itertools.product(*(g.terms for g in g_list)):
        ks = [f[0] for f, _ in combo]
        key = (sum(ks), sum(i * k for i, k in enumerate(ks, 1)))
        weights[key] = weights.get(key, 0j) + math.prod(c for _, c in combo)
    n = _times(index_base, schedule[-1])
    base = orbit_terms(system, x0, n, obs1, a, obs2, b)
    avgs = {}  # s -> A_s(N) at each scheduled N
    for s in sorted({s for _, s in weights}):
        terms = base
        if s:  # e(s n t), exact in the integer s*n, multiplied in the core's order f1 f2 * w
            check_times(n, e=s)
            w = unit_phase(frac_poly((0.0, system_s.alpha_floats[0]), s * n))
            terms = np.multiply(base, w, out=w if w.size > 1 else None)  # as in orbit_terms
        avgs[s] = [complex(pairwise_sum(terms[:n_]) / n_) for n_ in schedule]
    coeffs = [dict.fromkeys(sorted({K for K, _ in weights}), 0j) for _ in schedule]
    for (K, s), C in sorted(weights.items()):
        for c, A in zip(coeffs, avgs[s]):
            c[K] += C * A
    return [(c, math.sqrt(sum(abs(v) ** 2 for v in c.values()))) for c in coeffs]


def dual_system_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                    system_s: RotationTorus, g_list, grid_size: int, N: int,
                    index_base: int = 1) -> DualSystemResult:
    """Node values y_j -> (1/N) sum f1(T^{an}x0) f2(T^{bn}x0) prod_i g_i(S^{in} y_j).

    S must be a circle rotation. `l2_norm` is the exact L2 norm in y, by
    Parseval on the coefficients of `_dual_expansion`; the uniform grid of at
    least 64 nodes only places the reported node values.
    """
    if grid_size < 64:
        raise ValueError("node grid needs at least 64 nodes")
    coeffs, l2 = _dual_expansion(system, obs1, obs2, x0, a, b, system_s, g_list, [N],
                                 index_base)[0]
    nodes = np.arange(grid_size, dtype=np.float64) / grid_size
    poly = Observable(1, tuple(((K,), c) for K, c in coeffs.items()))
    values = tuple(eval_observable_many(poly, nodes[:, None]).tolist())
    return DualSystemResult(tuple(nodes.tolist()), values, l2)


# ---------------------------------------------------------------------------
# schedule driver
# ---------------------------------------------------------------------------


def _pair(p: dict) -> dict:
    return dict(obs1=p["obs1"], a=p["a"], obs2=p["obs2"], b=p["b"])


# prefix kind of `run_schedule` -> its `orbit_terms` keyword arguments, from the params
_PREFIX_KINDS = {
    "birkhoff": lambda p: dict(obs1=p["obs"]),
    "ww": lambda p: dict(obs1=p["obs"], weight=PolynomialPhase((0.0, p["t"]))),
    "double": _pair,
    "wwdr": lambda p: dict(_pair(p), weight=PolynomialPhase((0.0, p["t"]))),
    "poly_wwdr": lambda p: dict(_pair(p), weight=PolynomialPhase(p["p"])),
    "nil_wwdr": lambda p: dict(_pair(p), weight=p["weight"]),
    "cesaro": lambda p: dict(obs1=None, weight=p["weight"]),
}


def run_schedule(kind: str, params: dict, schedule, index_base: int = 1) -> ConvergenceReport:
    """Evaluate one average along an increasing schedule in a single pass.

    The prefix kinds (birkhoff, ww, double, wwdr, poly_wwdr, nil_wwdr, and
    cesaro for a weight alone) build their terms once at the largest N through
    `orbit_terms`, the core of the one-shot functions, and reduce each
    scheduled prefix with the pairwise tree it would get standalone, so every
    A_N equals the one-shot value bit for bit. `ww_sup` sweeps each prefix of
    the orbit values; `dual_system` reduces each twisted term array at every
    N and reports the Parseval norm, equal to `dual_system_avg`'s bit for bit.
    """
    schedule = check_schedule(schedule)
    if kind == "dual_system":
        expansion = _dual_expansion(*(params[k] for k in (
            "system", "obs1", "obs2", "x0", "a", "b", "system_s", "g_list")), schedule, index_base)
        return make_report(schedule, [l2 for _, l2 in expansion])
    n = _times(index_base, schedule[-1])
    if kind == "ww_sup":
        u = orbit_terms(params["system"], params["x0"], n, params["obs"])
        sups = [sup_over_frequency(u[:n_], params["eps"], index_base) for n_ in schedule]
        return make_report(schedule, [s.sup_value for s in sups], sup_data=tuple(sups))
    if kind not in _PREFIX_KINDS:
        raise ValueError(f"unknown schedule op {kind!r}")
    kw = _PREFIX_KINDS[kind](params)
    terms = orbit_terms(params.get("system"), params.get("x0"), n, **kw)
    values = [pairwise_sum(terms[:n_]) / n_ for n_ in schedule]
    return make_report(schedule, values,
                       error_budget=getattr(kw.get("weight"), "error_budget", 0.0))
