"""Weighted ergodic averages: Birkhoff, frequency-twisted single and double
recurrence, polynomial and nilsequence weights, Cesaro means of a weight,
certified sup-over-frequency sweeps, and the auxiliary-system product average.

Conventions
-----------
Orbit averages run over n = 1 .. N, as the paper's (1/N) sum_{n=1}^{N}; a
weight's Cesaro mean and the seminorm module run over n = 0 .. N - 1.
Sums use the fixed-shape pairwise tree from `numerics`, so identical inputs
give bit-identical outputs regardless of blocking or worker count.

Every weighted average is (1/N) sum f1(T^{a1 n} x0) ... fk(T^{ak n} x0) b_n, and
every term array comes from one core, `orbit_terms`, whose factors are a tuple
of (observable, exponent) pairs (none, one or two here; exponents distinct and
nonzero) and whose weight b is optional. It is the only code that evaluates a
weight over a range of times: weight samples (`weight_samples`) and the
seminorm module's orbit products are its terms.
`_weighted` multiplies built terms f1 f2 by one more weight, so the dual
twists e(s n t) read each chunk of the pair terms once, and the vanishing
average reads one base built once.
A frequency t is the weight `PolynomialPhase((0, t))` and a polynomial p is
`PolynomialPhase(p)`; an absent weight is skipped, not multiplied as ones.
Factors multiply in the fixed order f1 * ... * fk * b, so the exact reductions
(t = 0, constant weights) hold bit for bit. Observables and weights fix their
operand order too, so no term's bits depend on the array length, and the core
fills its output in cache-sized blocks of `_BLOCK` times after checking all of
them. `run_schedule` checks one average's whole range of times at the largest
scheduled N (`stream_terms`) and hands the unbuilt terms to one reducer:
`means`, the mean of each scheduled prefix on the pairwise tree it would get
alone, equal bit for bit to the one-shot value (its one-point case); `sups(eps)`,
the certified sup over t of each prefix (the Wiener-Wintner sup of the Birkhoff
terms); or `dual_norms`, the auxiliary-system norm of the pair terms. `means`,
`dual_norms`, the one-shot means and the Cesaro means build the terms in chunks
of `_STREAM` = 2^16 times into one reused buffer and `_fold` keeps one sum per
chunk: the pairwise tree sums each aligned chunk alone, so the mean at N is the
tree over the chunk sums below N and the partial chunk's sum, bit for bit. Such a
mean holds a few chunks at any N, not N terms; `sups` still builds all N terms,
because its FFT reads them together. The sup is one coarse FFT,
then levels of halving spacing around the nodes whose Bernstein bound could
still pass the running maximum by eps/2, in blocks of at most `_BLOCK` terms;
a node's phases e(j m / 2^p) are the outer product of two rows of at most
`_FACTOR` = sqrt(`_BLOCK`) phases of exact turns, each product within
`FACTORED_PHASE_BOUND` = 4.72 * 2^-52 of exact.
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
from .numerics import PHASE_BOUND, ordered_product, pairwise_sum, phase
from .report import ConvergenceReport, SupPoint, check_schedule, make_report
from .systems import (
    Observable,
    RotationTorus,
    System,
    _check_system,
    check_times,
    eval_observable_many,
)

MAX_SUP_GRID = 1 << 28  # finest sweep resolution; eps floor is pi*(N-1)*U / this
_COARSE_MIN = 1 << 12  # coarse FFT size: a power of two >= 16N, within these
_COARSE_CAP = 1 << 22  # (but never below N)
_BLOCK = 1 << 14  # times per block of `orbit_terms`: 2^13 to 2^16 measured alike, 2^12 slower
# times per streamed chunk (a power of two, so the pairwise tree sums each chunk alone), four
# blocks: chunks of one block freed only block-sized arrays, which kept glibc's dynamic trim
# threshold low, and took six times the page faults of 2^16 chunks
_STREAM = 4 * _BLOCK
_FACTOR = math.isqrt(_BLOCK)  # a sweep node's phases are rows of e(q m / 2^p) times e(r m / 2^p)
_PHASE_CALL = 1 << 12  # the most phases per kernel call in the sweep
# |e(q m / 2^p) e(r m / 2^p) - e(j m / 2^p)|: each factor within PHASE_BOUND, and the complex
# product rounds within sqrt(5) 2^-53 of its modulus (Brent, Percival and Zimmermann 2007)
FACTORED_PHASE_BOUND = (2 * PHASE_BOUND + PHASE_BOUND**2
                        + math.sqrt(5) * 2.0**-53 * (1 + PHASE_BOUND)**2)  # 4.72 * 2^-52


def _check_count(N: int):
    if N < 1:
        raise ValueError("N must be >= 1")


def _check_eps(eps: float):
    if not eps > 0:
        raise ValueError("eps must be positive")


def _times(N: int, first: int = 1) -> np.ndarray:
    _check_count(N)
    return np.arange(first, first + N, dtype=np.int64)


def check_exponents(*exponents: int):
    """Orbit exponents, one per factor, must be distinct and nonzero."""
    if 0 in exponents or len(set(exponents)) < len(exponents):
        raise InvalidExponentsError(f"exponents must be distinct and nonzero, got {exponents}")


def _check_terms(system: System | None, x0, n: np.ndarray, factors, weight):
    """The checks of the terms at every time from n.min() to n.max(): the exponents, the
    weight's length, each factor's times and the point. Returns the checked point."""
    check_exponents(*(e for _, e in factors))
    if weight is not None and weight.length is not None and n.size and n.max() >= weight.length:
        raise SequenceTooShortError(
            f"weight defined for n < {weight.length}, average needs n < {int(n.max()) + 1}"
        )
    for _, e in factors:
        check_times(n, system, e)  # before e * n can round or wrap in int64
    return _check_system(system).check_point(x0) if factors else x0  # once, not in every block


def _build_terms(system: System | None, x0, n: np.ndarray, factors, weight,
                 out: np.ndarray) -> np.ndarray:
    """The terms at the checked times `n` into out[:n.size], `_BLOCK` times at a time."""
    for lo in range(0, n.size, _BLOCK):
        t = n[lo:lo + _BLOCK]
        # the weight is evaluated first, while no other term block is alive: its
        # temporaries are the largest (a theta weight peaks near ten blocks)
        w = weight.eval_many(t) if weight is not None else None
        terms = 1.0 if w is None else w  # the empty product, or the weight alone
        for i, (obs, e) in enumerate(factors):  # f1 * f2 * ... * fk, then times w
            f = eval_observable_many(obs, system.coords(x0, e * t))
            terms = f if i == 0 else ordered_product(terms, f, terms)
            del f  # so no factor block outlives its product into the next block's weight
        if factors and w is not None:
            terms = ordered_product(terms, w, terms)
        out[lo:lo + t.size] = terms
    return out[:n.size]


def orbit_terms(system: System | None, x0, n: np.ndarray, factors=(),
                weight: WeightSequence | None = None) -> np.ndarray:
    """Terms f1(T^{a1 n} x0) * ... * fk(T^{ak n} x0) * weight(n) on the int64 times `n`,
    for `factors` = ((f1, a1), ..., (fk, ak)); the empty product is 1.

    The exponents, the weight's length, the point and each factor's times are
    checked on the whole of `n`, once. Then the terms are built into one output
    `_BLOCK` times at a time from the system's closed form, so every temporary
    is block-sized; each term depends on its own time only, so the blocks
    change no bits.
    """
    x0 = _check_terms(system, x0, n, factors, weight)
    return _build_terms(system, x0, n, factors, weight, np.empty(n.size, dtype=np.complex128))


@dataclass(frozen=True)
class TermStream:
    """The terms of `orbit_terms` at the times first .. first + N - 1, checked (`stream_terms`)
    but not built: a reducer reads them in chunks of `_STREAM` times or as one array."""
    system: System | None
    x0: object  # the checked point
    factors: tuple
    weight: WeightSequence | None
    first: int
    N: int

    def array(self) -> np.ndarray:
        """All N terms in one array, for a reducer that needs them together."""
        n = _times(self.N, self.first)
        return _build_terms(self.system, self.x0, n, self.factors, self.weight,
                            np.empty(n.size, dtype=np.complex128))

    def chunks(self):
        """(times, terms) of each `_STREAM` times in turn, each in one buffer that the next
        chunk overwrites."""
        n = _times(min(_STREAM, self.N), self.first)
        buf = np.empty(n.size, dtype=np.complex128)
        for lo in range(0, self.N, _STREAM):
            t = n[:self.N - lo]
            yield t, _build_terms(self.system, self.x0, t, self.factors, self.weight, buf)
            n += _STREAM


def stream_terms(system: System | None, x0, N: int, factors=(),
                 weight: WeightSequence | None = None, first: int = 1) -> TermStream:
    """The terms of `orbit_terms` at the times first .. first + N - 1, every check of the
    whole range made now, on its end points, and no term built."""
    _check_count(N)
    x0 = _check_terms(system, x0, np.array([first, first + N - 1], dtype=np.int64), factors,
                      weight)
    return TermStream(system, x0, tuple(factors), weight, first, N)


def weight_samples(w: WeightSequence, length: int, start: int = 0) -> np.ndarray:
    """w(start), ..., w(start + length - 1): the weight's terms from `orbit_terms`."""
    return orbit_terms(None, None, np.arange(start, start + length, dtype=np.int64), weight=w)


def _weighted(base: np.ndarray, n: np.ndarray, w: WeightSequence) -> np.ndarray:
    """base * w(n) for built terms `base` at the times `n`, in the core's order f1 f2 * w."""
    terms = orbit_terms(None, None, n, weight=w)
    return ordered_product(base, terms, terms)


def prefix_means(terms: np.ndarray, schedule) -> list[complex]:
    """(1/N) sum of terms[:N] for each scheduled N, each on the pairwise tree it gets alone."""
    return [complex(pairwise_sum(terms[:n]) / n) for n in schedule]


def _fold(chunks, schedule) -> list:
    """`prefix_means` of the rows of `chunks`, consecutive arrays of `_STREAM` rows (the last
    may be shorter) that end at the last scheduled N, holding one sum per chunk.

    The pairwise tree pairs adjacent rows and carries an odd last row to the end of its
    level, so on N rows it sums each aligned `_STREAM`-row chunk below N alone, and the rows
    of the partial chunk alone, before it adds any two of them: the mean at N is
    pairwise_sum([S_0, .., S_{q-1}, pairwise_sum(partial)]) / N, bit for bit. A 2-d chunk
    sums each column as it would alone, and its mean is a list, one complex per column.
    """
    sums, out, todo = [], [], list(schedule)
    for lo, c in zip(itertools.count(0, _STREAM), chunks):
        while todo and todo[0] <= lo + len(c):
            N = todo.pop(0)
            total = pairwise_sum(np.array(sums + [pairwise_sum(c[:N - lo])]))
            out.append(complex(total / N) if np.ndim(total) == 0
                       else [complex(v / N) for v in total])
        if todo:
            sums.append(pairwise_sum(c))
    return out


def _mean(system: System, x0, N: int, factors, weight: WeightSequence | None = None) -> complex:
    """(1/N) sum over n = 1 .. N of `orbit_terms(system, x0, n, factors, weight)`."""
    return means(stream_terms(system, x0, N, factors, weight), [N])["values"][0]


# ---------------------------------------------------------------------------
# single-orbit averages
# ---------------------------------------------------------------------------


def birkhoff_avg(system: System, obs: Observable, x0, N: int) -> complex:
    """(1/N) sum f(T^n x0)."""
    return _mean(system, x0, N, ((obs, 1),))


def ww_avg(system: System, obs: Observable, x0, t: float, N: int) -> complex:
    """(1/N) sum f(T^n x0) e(n t)."""
    return _mean(system, x0, N, ((obs, 1),), PolynomialPhase((0.0, t)))


def _phases(turns: np.ndarray) -> np.ndarray:
    """`phase` of a 2-d turn array, in kernel calls of at most `_PHASE_CALL` elements: short
    enough that the kernel's temporaries stay small, long enough to pay its per-call cost."""
    out = np.empty(turns.shape, dtype=np.complex128)
    flat, into = turns.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _PHASE_CALL):
        into[lo:lo + _PHASE_CALL] = phase(flat[lo:lo + _PHASE_CALL])
    return out


def _node_values(u: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """|(1/N) sum_j u_j e(j m / 2^p)| at each dyadic node m / 2^p. With j = q + r, q a
    multiple of `_FACTOR` and 0 <= r < `_FACTOR`, the phase is e(q m / 2^p) * e(r m / 2^p),
    each argument reduced mod 2^p exactly in int64 and shifted to the exact turn: a node pays
    about N / `_FACTOR` + `_FACTOR` phases, not N, and each product is within
    `FACTORED_PHASE_BOUND` of e(j m / 2^p). The phase rows of as many nodes as fill a block
    are taken together. A block of terms holds `_BLOCK // N` nodes, or one node's
    `_BLOCK`-term slices when N is longer: the pairwise tree sums such aligned power-of-two
    slices first, so each node has the bits of one pairwise sum of its N terms."""
    N = u.size
    rows, mask = max(1, _BLOCK // N), (1 << p) - 1
    r = np.arange(min(_FACTOR, N), dtype=np.int64)
    q = np.arange(0, N, r.size, dtype=np.int64)
    batch = rows * max(1, _BLOCK // (rows * (r.size + q.size)))  # whole blocks of nodes
    out = np.empty(m.size)
    for first in range(0, m.size, batch):
        node = m[first:first + batch, None]
        turns = np.concatenate(((node * r) & mask, (node * q) & mask), axis=1).view(np.uint64)
        both = _phases(np.left_shift(turns, np.uint64(64 - p), out=turns))
        for lo in range(0, node.size, rows):
            inner, outer = both[lo:lo + rows, :r.size], both[lo:lo + rows, r.size:]
            parts = []
            for k in range(0, N, _BLOCK):
                size = min(_BLOCK, N - k)
                row = outer[:, k // r.size:(k + size - 1) // r.size + 1]
                w = np.empty((row.shape[0], row.shape[1], r.size), dtype=np.complex128)
                w = ordered_product(row[:, :, None], inner[:, None, :], w)
                w = w.reshape(row.shape[0], -1)[:, :size]
                parts.append(pairwise_sum(ordered_product(u[k:k + size], w, w).T))
            out[first + lo:first + lo + rows] = np.abs(pairwise_sum(np.array(parts)))
    return out / N


def sup_over_frequency(u: np.ndarray, eps: float) -> SupPoint:
    """Certified maximum of t -> |(1/N) sum_n u_n e(n t)| over t in [0, 1).

    The modulus does not depend on where n starts, so `u` is placed at
    offsets 0..N-1. Centred on its middle offset the sum is a trigonometric
    polynomial of degree N-1 in t/2, so by Bernstein's inequality its
    modulus has slope in t at most pi*(N-1) times its sup S.

    One FFT on m0 >= 16N nodes of spacing h = 1/m0 gives the grid maximum G,
    so S <= U = min(max|u_n|, G / (1 - pi*(N-1)*h/2)); set L = pi*(N-1)*U.
    A node at spacing h bounds its cell of radius h/2 by value + L*h/2. Level
    by level, a node is kept while that bound exceeds the running maximum
    plus eps/2, the spacing halves and each kept node gains its two new
    neighbours, until h <= eps/L. `error_bound` is the largest bound of a
    dropped or final node minus the reported maximum, at most eps/2;
    `grid_size` counts evaluated nodes and `grid_spacing` is the finest
    spacing used. Raises GridTooFineError when eps/L < 1/MAX_SUP_GRID.
    """
    _check_eps(eps)
    u = np.asarray(u, dtype=np.complex128)
    N = u.size
    B = float(np.abs(u).max()) if N else 0.0
    if not np.isfinite(B):
        raise ValueError("sequence values must be finite")
    if B == 0.0:
        return SupPoint(0.0, 0.0, 1, 1.0, 0.0)
    m0 = _COARSE_MIN
    while m0 < 16 * N and m0 < _COARSE_CAP:
        m0 <<= 1
    while m0 < N:
        m0 <<= 1
    vals = np.abs(np.fft.ifft(u, m0)) * (m0 / N)  # at the coarse nodes
    k_best = int(np.argmax(vals))
    best = float(vals[k_best])
    t_star = k_best / m0
    slack = np.pi * (N - 1) / (2 * m0)  # slope bound times h/2, per unit of sup
    U = min(B, best / (1.0 - slack)) if slack < 1.0 else B
    L = np.pi * (N - 1) * U
    if L > eps * MAX_SUP_GRID:
        raise GridTooFineError(
            f"eps={eps} needs a grid spacing of {eps / L:.3e} < 1/{MAX_SUP_GRID}; "
            f"floor for this sequence is eps >= {L / MAX_SUP_GRID:.3e}"
        )
    p, size, top = m0.bit_length() - 1, m0, -np.inf
    m = None  # the nodes m / 2^p of `vals`; None at the coarse level, which holds them all
    while True:
        half = L / (2 << p)  # L*h/2 at the spacing h = 2^-p
        # kept while the bound passes the running maximum by eps/2; none once h <= eps/L
        keep = vals + half > (best + eps / 2 if L > eps * (1 << p) else np.inf)
        m, kept = np.flatnonzero(keep) if m is None else m[keep], vals[keep]
        vals[keep] = -np.inf  # vals.max() is then the largest dropped value, with no copy
        top, vals = max(top, float(vals.max()) + half), kept
        if not m.size:
            break
        p += 1
        m <<= 1
        new = np.sort(np.concatenate((m - 1, m + 1)) & ((1 << p) - 1))
        new = new[np.diff(new, prepend=-1) > 0]  # once each (np.unique would import numpy.ma)
        new_vals = _node_values(u, new, p)
        size += new.size
        i = int(np.argmax(new_vals))
        if new_vals[i] > best:
            best, t_star = float(new_vals[i]), float(new[i]) / (1 << p)
        m, vals = np.concatenate((m, new)), np.concatenate((vals, new_vals))
    return SupPoint(best, t_star, size, 1.0 / (1 << p), top - best)


def ww_sup(system: System, obs: Observable, x0, N: int, eps: float) -> SupPoint:
    """Certified sup over the frequency t of |(1/N) sum f(T^n x0) e(n t)|."""
    return sup_over_frequency(orbit_terms(system, x0, _times(N), ((obs, 1),)), eps)


# ---------------------------------------------------------------------------
# double-recurrence averages
# ---------------------------------------------------------------------------


def double_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
               N: int) -> complex:
    """(1/N) sum f1(T^{an} x0) f2(T^{bn} x0)."""
    return _mean(system, x0, N, ((obs1, a), (obs2, b)))


def wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
             t: float, N: int) -> complex:
    """Double recurrence with frequency weight e(n t); t = 0 reduces bit-for-bit."""
    return _mean(system, x0, N, ((obs1, a), (obs2, b)), PolynomialPhase((0.0, t)))


def poly_wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                  p, N: int) -> complex:
    """Double recurrence with polynomial weight e(p(n))."""
    return _mean(system, x0, N, ((obs1, a), (obs2, b)), PolynomialPhase(p))


def nil_wwdr_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                 w: WeightSequence, N: int) -> complex:
    """Double recurrence against an arbitrary weight sequence."""
    return _mean(system, x0, N, ((obs1, a), (obs2, b)), w)


# ---------------------------------------------------------------------------
# auxiliary-system product average
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSystemResult:
    coefficients: Observable  # sum_K c_K e(K y), the average as a function of y
    l2_norm: float


def check_auxiliary(system_s: System, g_list) -> list[Observable]:
    """The auxiliary system must be a circle rotation carrying 1 to 3 observables."""
    g_list = list(g_list)
    if not isinstance(system_s, RotationTorus) or system_s.dimension != 1:
        raise UnsupportedSystemError("auxiliary system must be a circle rotation")
    if not 1 <= len(g_list) <= 3 or any(g.dimension != 1 for g in g_list):
        raise DimensionMismatchError("need 1 to 3 auxiliary observables on the circle")
    return g_list


def _dual_weights(g_list) -> dict[tuple[int, int], complex]:
    """{(K, s): C_{K,s}}: with S^{in} y = y + i n t, a tuple (k_1, .., k_m) of g-frequencies
    adds C e(K y) e(s n t), where K = sum k_i, s = sum i k_i and C is the product of its
    coefficients."""
    weights: dict[tuple[int, int], complex] = {}
    for combo in itertools.product(*(g.terms for g in g_list)):
        ks = [f[0] for f, _ in combo]
        key = (sum(ks), sum(i * k for i, k in enumerate(ks, 1)))
        weights[key] = weights.get(key, 0j) + math.prod(c for _, c in combo)
    return weights


def _dual_expansion(terms: TermStream, system_s: RotationTorus, g_list,
                    schedule) -> list[tuple[dict[int, complex], float]]:
    """Coefficients {K: c_K(N)} in y of the auxiliary average and their L2 norm, per N.

    c_K(N) = sum_s C_{K,s} A_s(N) (`_dual_weights`) with A_s(N) = (1/N) sum f1 f2 e(s n t):
    each chunk of the pair terms f1 f2 is twisted by `_weighted` into one column per s, and
    `_fold` sums the columns. The norm is exact by Parseval, sqrt(sum_K |c_K|^2) summed in
    increasing K.
    """
    weights = _dual_weights(g_list)
    shifts = sorted({s for _, s in weights})
    for s in shifts:  # before s * n: e(s n t) is exact in the integer s * n
        check_times(np.array([terms.first, terms.first + terms.N - 1]), e=s)
    twist = PolynomialPhase((0.0, system_s.alpha_floats[0]))  # at the times s * n

    out = np.empty((len(shifts), min(_STREAM, terms.N)), dtype=np.complex128)

    def twisted(n, base):  # one contiguous row per s; the fold reads the columns of .T
        for i, s in enumerate(shifts):
            out[i, :n.size] = _weighted(base, s * n, twist) if s else base
        return out[:, :n.size].T

    avgs = _fold((twisted(n, base) for n, base in terms.chunks()), schedule)  # per N, per s
    coeffs = [dict.fromkeys(sorted({K for K, _ in weights}), 0j) for _ in schedule]
    for (K, s), C in sorted(weights.items()):
        for c, A in zip(coeffs, avgs):
            c[K] += C * A[shifts.index(s)]
    return [(c, math.sqrt(sum(abs(v) ** 2 for v in c.values()))) for c in coeffs]


def dual_system_avg(system: System, obs1: Observable, obs2: Observable, x0, a: int, b: int,
                    system_s: RotationTorus, g_list, N: int) -> DualSystemResult:
    """y -> (1/N) sum f1(T^{an}x0) f2(T^{bn}x0) prod_i g_i(S^{in} y), exactly as the
    trigonometric polynomial of `_dual_expansion`, with its L2 norm in y by Parseval.

    S must be a circle rotation.
    """
    g_list = check_auxiliary(system_s, g_list)
    terms = stream_terms(system, x0, N, ((obs1, a), (obs2, b)))
    coeffs, l2 = _dual_expansion(terms, system_s, g_list, [N])[0]
    return DualSystemResult(Observable(1, tuple(((K,), c) for K, c in coeffs.items())), l2)


# ---------------------------------------------------------------------------
# schedule driver
# ---------------------------------------------------------------------------


def means(terms: TermStream, schedule) -> dict:
    """The reducer of `run_schedule` to the mean of each scheduled prefix, folded chunk by
    chunk with the bits of `prefix_means`."""
    return dict(values=_fold((t for _, t in terms.chunks()), schedule))


def sups(eps: float):
    """The reducer to the certified sup over t, at `eps`, of each scheduled prefix."""
    _check_eps(eps)
    def reduce(terms: TermStream, schedule) -> dict:
        u = terms.array()  # the sweep's FFT reads all N terms
        sup = tuple(sup_over_frequency(u[:n], eps) for n in schedule)
        return dict(values=[s.sup_value for s in sup], sup_data=sup)
    return reduce


def dual_norms(system_s: RotationTorus, g_list):
    """The reducer to `dual_system_avg`'s Parseval norm; it checks S before any orbit pass."""
    g_list = check_auxiliary(system_s, g_list)
    def reduce(terms: TermStream, schedule) -> dict:
        expansion = _dual_expansion(terms, system_s, g_list, schedule)
        return dict(values=[l2 for _, l2 in expansion])
    return reduce


def run_schedule(system: System | None, x0, schedule, factors=(),
                 weight: WeightSequence | None = None, reduce=means) -> ConvergenceReport:
    """One average along an increasing schedule, in a single pass over n = 1 .. N.

    `stream_terms(system, x0, N, factors, weight)` checks the terms of the
    core at every time up to the largest N before any is built; `reduce` reads
    them: `means`, chunk by chunk, so each A_N is the one-shot value bit for bit,
    `sups(eps)` (`ww_sup`'s sweep, all N terms at once) or
    `dual_norms(system_s, g_list)` (`dual_system_avg`'s norm, chunk by chunk).
    A weight's own Cesaro means, from n = 0, are `cesaro_nilseq`.
    """
    schedule = check_schedule(schedule)
    terms = stream_terms(system, x0, schedule[-1], factors, weight)
    return make_report(schedule, **reduce(terms, schedule),
                       error_budget=getattr(weight, "error_budget", 0.0))


def cesaro_nilseq(w: WeightSequence, schedule) -> ConvergenceReport:
    """A_N = (1/N) sum_{n=0}^{N-1} w(n) for each N in an increasing schedule."""
    schedule = check_schedule(schedule)
    return make_report(schedule, means(stream_terms(None, None, schedule[-1], weight=w, first=0),
                                       schedule)["values"], error_budget=w.error_budget)
