"""Finite-scale uniformity seminorms for sequences and orbit functions, the
weighted finite van der Corput inequality, and order-3 cube averages.

Sequence seminorm: the order-k correlation of a bounded sequence is

    c_h = (1/N) sum_n prod_{eps in {0,1}^k} C^{|eps|} a_{n + eps.h}

(C = complex conjugation, applied on odd eps-weight; on real sequences this
is the plain product). The order-k seminorm estimate averages Re c_h over
the offset box h in {1..H}^k, clamps a negative average to zero (flagged),
and takes the 2^k-th root. Offsets start at 1: the degenerate zero-offset
lines contribute a Theta(k/H) positive bias that swamps vanishing seminorms
at desk scale while changing nothing in the H -> infinity limit.

Function seminorm: recursive orbit estimator with level 1 = |(1/N) sum
f(T^n x0)| and level k+1 the 2^{k+1}-th root of the h-average of the level-k
estimate of f * conj(f o T^h), h in {1..H}. Orbit samples f(T^n x0) and
orbit products f1(T^{an} x0) f2(T^{bn} x0) are the terms of
`averages.orbit_terms`, and the vanishing experiment's average column is its
pair times the weight (`averages._weighted`); this module adds the seminorms.

Box sums are evaluated by peeling one offset at a time (the order-k cube
product is D_n * conj(D_{n+h_k}) for the order-(k-1) product D), which turns
the innermost offset sum into a sliding-window mean. c_h is invariant under
permutations of h (they permute eps and keep |eps|), so the outer offsets
are walked sorted, h_1 <= ... <= h_{k-1}, each tuple weighted by its
multiplicity (k-1)!/prod(run length!): C(H+k-2, k-1) outer tuples of O(N)
work each instead of H^{k-1}, or (2H)^k N for the literal box. The GHK
recursion walks its offsets the same way. The order-3 cube average sorts only
h_1 <= h_2, takes every h_3 by one sliding-window matrix-vector product and
sums G1(h) G2(h) over h_3 by a dot product; both run through BLAS, not the
pairwise tree, so its last bits depend on the BLAS kernel.

Operand order: in every complex product a conjugated factor comes first,
otherwise the running product does. Each product is written as
np.multiply(x, y, out=buf), since numpy's temporary elision swaps operands
on arrays of 2^14 or more elements and a complex multiply rounds the two
orders differently. Products go into buffers allocated once per call.

Row blocks: each level is conjugated once when it is built, and for fixed
leading offsets the last offset runs over a (rows, reach) block whose rows
are windows of the conjugated level times the level, with rows set by
`_BLOCK_BYTES` (1 at large N). Cumsums run along the rows and
`pairwise_sum` of the block's transpose sums each row as it would alone, so
the bits do not depend on the block size. The window mean divides by H as a
multiply of the float64 view by 1/H: numpy divides a complex array by a
real as (re + 0 im) (1/H), which for finite entries has the same bits. Each
row's mean is v / N with v the numpy complex128 sum, as in `pairwise_mean`
(complex(v) / N rounds differently).

Lag sums: `vdc_bound` reads its K + 1 correlations from `_lag_sums`, zero-padded FFT
correlations over blocks of `_LAG_FFT` points (fewer when N + K is), one block per transform,
summed over the blocks on the pairwise tree. Both of its sides are computed at the exact
power-of-two scale that puts max |u| in [1/2, 1), so its slack is relative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .averages import _times, _weighted, orbit_terms, prefix_means
from .errors import DomainError, SequenceTooShortError
from .nilseq import WeightSequence
from .numerics import pairwise_mean, pairwise_sum
from .report import ConvergenceReport, SeminormEstimate, check_schedule, make_report
from .systems import Observable, System, zk_complement

MAX_ORDER = 4  # a box walks C(H+k-2, k-1) offset tuples; 4 covers every exponent used here
_BLOCK_BYTES = 1 << 19  # one block of box products; a box walk peaks at ~4 blocks
_LAG_FFT = 1 << 13  # FFT length of one block of van der Corput lags


@dataclass(frozen=True)
class CorrelationBox:
    """One correlation value c_h at finite scale N."""

    k: int
    h: tuple[int, ...]
    N: int
    value: complex


def _as_sequence(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if not np.isfinite(arr).all():
        raise DomainError("sequence entries must be finite")
    return arr


def _finite(what: str, *values):
    """The values, or a DomainError when finite inputs overflowed float64 on the way to them:
    the products run under np.errstate, and an overflow shows as inf or nan here."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} overflow float64 ({', '.join(map(str, values))})")
    return values


def _check_order(k: int):
    if k < 1 or k > MAX_ORDER:
        raise ValueError(f"order k must be in 1..{MAX_ORDER}")


def _check_box(H: int, N: int | None = None):
    """Box size H >= 1; given N, the sequence seminorm's finite-scale coupling N >= H^2."""
    if H < 1:
        raise ValueError("H must be >= 1")
    if N is not None and N < H * H:
        raise ValueError(f"finite-scale coupling requires N >= H^2 (N={N}, H={H})")


def _check_vdc(N: int, K: int):
    if K < 1:
        raise ValueError("K must be >= 1")
    if (K + 1) ** 2 >= N:
        raise ValueError(f"side condition (K+1)^2 < N violated: K={K}, N={N}")


def _require_length(a: np.ndarray, needed: int, what: str):
    if a.size < needed:
        raise SequenceTooShortError(f"{what} needs {needed} samples, sequence has {a.size}")


def c_h_estimate(a, k: int, h, N: int) -> CorrelationBox:
    """(1/N) sum_n of the order-k conjugated cube product at offsets eps.h."""
    a = _as_sequence(a)
    h = tuple(int(v) for v in h)
    _check_order(k)
    if len(h) != k:
        raise ValueError(f"offset vector has length {len(h)}, expected {k}")
    if any(v < 0 for v in h):
        raise ValueError("offsets must be nonnegative")
    _require_length(a, N + sum(h), "correlation")
    prod = np.ones(N, dtype=np.complex128)
    factor = np.empty(N, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in itertools.product((0, 1), repeat=k):
            off = sum(e * v for e, v in zip(eps, h))
            window = a[off : off + N]
            if sum(eps) % 2:
                np.multiply(np.conjugate(window, out=factor), prod, out=prod)
            else:
                np.multiply(prod, window, out=prod)
        value = complex(pairwise_mean(prod))
    return CorrelationBox(k, h, N, *_finite(f"order-{k} cube products", value))


def _block_rows(reach: int, most: int) -> int:
    """Rows of one (rows, reach) complex block of the box walk: as many as `_BLOCK_BYTES` holds,
    at least 1 and at most `most` (the H values the last offset takes)."""
    return max(1, min(most, _BLOCK_BYTES // (16 * reach)))


def _multiplicity(h: tuple[int, ...]) -> int:
    """How many offset vectors sort to h: len(h)! / prod(run length!)."""
    return math.factorial(len(h)) // math.prod(math.factorial(h.count(v)) for v in set(h))


def _row_blocks(seq: np.ndarray, depth: int, H: int, reach: int):
    """Yield (offset tuples, block) for h_1 <= ... <= h_depth in {1..H}, where block row r is
    D_h[:reach] for the r-th tuple, D_h[n] = D'[n] conj(D'[n + h_depth]) the order-depth cube
    product of seq (D' the product at the leading offsets).

    Level j (1 <= j < depth) writes into one buffer of reach + (depth-j) H entries, what the
    next level reads, and is redone with its conjugate only when h_j changes. For fixed leading
    offsets the last offset runs in blocks of rows, each row a window of the conjugated level
    times the level itself. Blocks are views of one buffer, overwritten by the next block.
    """
    if depth == 0:
        yield [()], seq[None, :reach]
        return
    levels = [seq] + [np.empty(reach + (depth - j) * H, dtype=np.complex128)
                      for j in range(1, depth)]
    conj = [np.conjugate(seq)] + [np.empty_like(v) for v in levels[1:]]
    rows = _block_rows(reach, H)
    block = np.empty((rows, reach), dtype=np.complex128)
    last = (0,) * (depth - 1)
    for lead in itertools.combinations_with_replacement(range(1, H + 1), depth - 1):
        changed = next((j for j in range(depth - 1) if lead[j] != last[j]), depth - 1)
        for j in range(changed, depth - 1):
            m = levels[j + 1].size
            np.multiply(conj[j][lead[j] : lead[j] + m], levels[j][:m], out=levels[j + 1])
            np.conjugate(levels[j + 1], out=conj[j + 1])
        last = lead
        windows = np.lib.stride_tricks.sliding_window_view(conj[-1], reach)
        for lo in range(lead[-1] if lead else 1, H + 1, rows):
            hi = min(lo + rows, H + 1)
            one = hi - lo == reach == 1  # in 2-D, one element takes numpy's one-element loop
            np.multiply(windows[lo] if one else windows[lo:hi], levels[-1][:reach],
                        out=block[0] if one else block[: hi - lo])
            yield [lead + (h,) for h in range(lo, hi)], block[: hi - lo]


def _sorted_offset_sum(seq: np.ndarray, depth: int, H: int, reach: int, leaf):
    """Sum of leaf(D_h) over h in {1..H}^depth, D_h[:reach] the order-depth cube product of
    seq (`_row_blocks`). D_h is symmetric in h, so only sorted h are visited, each weighted by
    its multiplicity, in the order of `itertools.combinations_with_replacement`. leaf maps a
    block of rows D_h to one value per row. A sum that finite entries overflow is a DomainError."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for hs, block in _row_blocks(seq, depth, H, reach):
            for h, value in zip(hs, leaf(block)):
                total += _multiplicity(h) * value
    return _finite(f"order-{depth + 1} box products", total)[0]


def _window_mean_leaf(N: int, H: int):
    """leaf(d) = (1/H) sum_{h=1..H} (1/N) sum_n d_n conj(d_{n+h})
               = (1/N) sum_n d_n conj(mean of d over (n, n+H]), by one cumsum of N + H
    entries, for every row d of a block."""
    rows = _block_rows(N + H, H)
    cs = np.empty((rows, N + H), dtype=np.complex128)
    window = np.empty((rows, N), dtype=np.complex128)
    inv = 1.0 / H

    def leaf(d):
        c, w = cs[: len(d)], window[: len(d)]
        np.cumsum(d, axis=1, out=c)
        np.subtract(c[:, H:], c[:, :N], out=w)
        np.multiply(w.view(np.float64), inv, out=w.view(np.float64))  # w / H, same bits
        np.multiply(np.conjugate(w, out=w), d[:, :N], out=w)
        return [complex(v / N) for v in pairwise_sum(w.T)]

    return leaf


def local_seminorm(a, k: int, H: int, N: int) -> SeminormEstimate:
    """Order-k sequence seminorm estimate at box size H and inner scale N."""
    a = _as_sequence(a)
    _check_order(k)
    _check_box(H, N)
    _require_length(a, N + k * H, "order-%d box" % k)
    total = _sorted_offset_sum(a[: N + k * H], k - 1, H, N + H, _window_mean_leaf(N, H))
    avg = (total / H ** (k - 1)).real
    clamped = avg < 0.0
    value = 0.0 if clamped else float(avg) ** (1.0 / (1 << k))
    return SeminormEstimate("local_sequence", k, H, N, value, clamped, float(avg))


def ghk_seminorm(system: System, obs: Observable, x0, k: int, H: int, N: int) -> SeminormEstimate:
    """Order-k function seminorm estimated along one orbit.

    Level 1 is |(1/N) sum f(T^n x0)|; each further level averages the powered
    previous level of f * conj(f o T^h) over h in {1..H}. Unrolled, level k to
    the power 2^k is the mean over h in {1..H}^{k-1} of |(1/N) sum_n D_h[n]|^2,
    D_h the conjugated cube product of u = f(T^n x0) at offsets h: that
    pre-root average is summed directly and rooted once. Pre-root averages
    are means of nonnegative numbers, so clamping never fires here; the flag
    is kept for schema compatibility.
    """
    _check_order(k)
    _check_box(H)
    u = orbit_terms(system, x0, _times(N + (k - 1) * H, first=0), ((obs, 1),))
    total = _sorted_offset_sum(
        u, k - 1, H, N, lambda d: [abs(v / N) ** 2 for v in pairwise_sum(d[:, :N].T)])
    avg = float(total / H ** (k - 1))
    return SeminormEstimate("ghk_function", k, H, N, avg ** (1.0 / (1 << k)), False, avg)


# ---------------------------------------------------------------------------
# van der Corput and cube averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VdcReport:
    lhs: float
    rhs: float
    passed: bool
    N: int
    K: int
    lag_rounding_bound: float  # each lag sum of u is within this of its exact value


def _pow2(n: int) -> int:
    """Least power of two >= n (1 for n <= 1)."""
    return 1 << max(n - 1, 0).bit_length()


def _lag_length(N: int, K: int) -> int:
    """FFT length M of `_lag_sums`: `_LAG_FFT`, or the least power of two >= N + K when that is
    smaller, and at least 4K, so that every block of L = M - K >= 3K terms carries real work."""
    return max(min(_LAG_FFT, _pow2(N + K)), _pow2(4 * K))


def _lag_error(N: int, K: int) -> float:
    """beta with |computed c_k - c_k| <= beta sum |u_n|^2 for every lag of `_lag_sums`.

    Normwise FFT analysis (Higham, Accuracy and Stability of Numerical Algorithms, sec. 24.1),
    taking 8 log2(M) eps for one transform's relative 2-norm error: a block's lag is within
    about 8 log2(M) (sqrt(M) + 2) eps |x| |y|, with |x| |y| summing to at most sqrt(2) sum |u|^2
    over the blocks (each term is in at most two y), and the pairwise tree over B blocks adds
    ceil(log2 B) eps of that sum; 16 (log2 M + log2 B + 1) (sqrt(M) + 2) eps covers both.
    """
    M = _lag_length(N, K)
    blocks = -(-N // (M - K))
    return 16.0 * (math.log2(M) + math.log2(blocks) + 1.0) * (math.sqrt(M) + 2.0) * 2.0**-52


def _lag_sums(u: np.ndarray, K: int, scale: int = 0) -> np.ndarray:
    """c_k = sum_{n < N-k} conj(v_n) v_{n+k} for k = 0..K, v = u 2^scale and N = u.size >= 1.

    u is cut into blocks of L = M - K terms, M = `_lag_length(N, K)`. A block's lags are one
    circular correlation of M points, ifft(conj(fft(x)) fft(y))[:K+1], with x the block and y
    the block extended by the next K terms, both zero-padded to M: nothing wraps, since a
    term j < L of x meets y only at j + k < L + K = M. Each block goes through two buffers of
    M points allocated once, and the per-block lag vectors are summed on the pairwise tree in
    block order. Scaling by 2^scale is exact (`np.ldexp`) unless it makes an entry subnormal.
    """
    N = u.size
    M = _lag_length(N, K)
    L = M - K
    starts = range(0, N, L)
    x = np.empty(M, dtype=np.complex128)
    y = np.empty(M, dtype=np.complex128)
    lags = np.empty((len(starts), K + 1), dtype=np.complex128)
    for lag, start in zip(lags, starts):
        seg = u[start : start + M]
        y[: seg.size] = seg
        y[seg.size :] = 0
        if scale:
            np.ldexp(y.view(np.float64), scale, out=y.view(np.float64))
        x[:L] = y[:L]
        x[L:] = 0
        np.fft.fft(x, out=x)
        np.fft.fft(y, out=y)
        np.multiply(np.conjugate(x, out=x), y, out=x)
        np.fft.ifft(x, out=y)
        lag[:] = y[: K + 1]
    return pairwise_sum(lags)


def vdc_bound(u, N: int, K: int) -> VdcReport:
    """Finite weighted van der Corput inequality with explicit constants.

        |(1/N) sum u_n|^2  <=  ((N+K)/N) (1/(K+1))
                               sum_{|k|<=K} (1 - |k|/(K+1)) |(1/N) sum u_{n+k} conj(u_n)|

    with correlations truncated at valid indices. This is a theorem for every finite
    sequence. Both sides are computed for u 2^s, s the exact power of two that puts max |u|
    in [1/2, 1), where `passed` allows 1e-12 of slack, and scaled back by 2^-2s; so the check
    is scale-free. The left side is the pairwise sum of u, scaled exactly; the correlations
    are `_lag_sums`, each within `lag_rounding_bound` of its exact value. A side that is not
    finite once scaled back is a DomainError.
    """
    u = _as_sequence(u)
    _check_vdc(N, K)
    _require_length(u, N, "van der Corput")
    u = u[:N]
    s = -math.frexp(float(np.abs(u).max()))[1]  # 0 when u is 0
    rhs = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = pairwise_sum(u)
        mean = np.complex128(complex(math.ldexp(total.real, s), math.ldexp(total.imag, s))) / N
        lhs = abs(mean) ** 2
        lags = _lag_sums(u, K, s)
        for k in range(K + 1):
            corr = float(abs(lags[k]) / N)
            rhs += corr if k == 0 else 2.0 * (1.0 - k / (K + 1.0)) * corr
        rhs *= (N + K) / N / (K + 1.0)
        passed = bool(lhs <= rhs + 1e-12)
        beta = _lag_error(N, K)
        bound = beta / (1.0 - beta) * float(lags[0].real)  # lags[0] is sum |u|^2 to within beta
        lhs, rhs, bound = (float(np.ldexp(v, -2 * s)) for v in (lhs, rhs, bound))
    _finite("van der Corput sums", lhs, rhs)
    return VdcReport(lhs, rhs, passed, N, K, bound)


def cube_average(s1, s2, H: int) -> complex:
    """Order-3 cube average (1/H^3) sum_h G1(h) G2(h).

    G_i(h) is the base-index mean of the plain 8-fold product of s_i at
    offsets {eps.h : eps in {0,1}^3}; the base window is whatever the
    sequences leave after reserving 3(H-1) trailing offsets.
    """
    s1 = _as_sequence(s1)
    s2 = _as_sequence(s2)
    _check_box(H)
    span = 3 * (H - 1)
    base = min(s1.size, s2.size) - span
    if base < 1:
        raise SequenceTooShortError(
            f"cube average at H={H} needs sequences longer than {span}"
        )
    acc = 0.0 + 0.0j
    length = base + H - 1  # supports correlations at every h3 in [0, H)
    d1 = np.empty(length, dtype=np.complex128)
    d2 = np.empty(length, dtype=np.complex128)
    w1 = np.lib.stride_tricks.sliding_window_view(d1, base)  # row h3 = d1[h3 : h3+base]
    w2 = np.lib.stride_tricks.sliding_window_view(d2, base)
    with np.errstate(over="ignore", invalid="ignore"):
        for h1 in range(H):
            for h2 in range(h1, H):  # the product is symmetric in (h1, h2)
                # the 8-fold product splits on the h3 bit: it equals
                # d[n] * d[n + h3] for the order-2 product d on offsets (h1, h2),
                # so one sliding-window matvec yields all h3 at once
                for s, d in ((s1, d1), (s2, d2)):
                    np.multiply(s[:length], s[h1 : length + h1], out=d)
                    np.multiply(d, s[h2 : length + h2], out=d)
                    np.multiply(d, s[h1 + h2 : length + h1 + h2], out=d)
                g1 = (w1 @ d1[:base]) / base
                g2 = (w2 @ d2[:base]) / base
                g = complex(g1 @ g2)
                acc += g if h1 == h2 else 2.0 * g
        value = complex(acc / H**3)
    return _finite("order-3 cube products", value)[0]


# ---------------------------------------------------------------------------
# seminorm-vs-average experiment
# ---------------------------------------------------------------------------


def coupled_box_size(N: int) -> int:
    """Largest power of two H with H^2 <= N."""
    h = 1
    while (2 * h) * (2 * h) <= N:
        h *= 2
    return h


def vanishing_experiment(system: System, obs1: Observable, obs2: Observable, x0,
                         a: int, b: int, w: WeightSequence, k: int,
                         schedule) -> ConvergenceReport:
    """Pair the order-k seminorm of the projected orbit product with its
    weighted averages along a schedule.

    Both observables are first projected onto the complement of the
    order-(k-1) characteristic factor; if the sequence seminorm vanishes, the
    weighted averages against any lower-step weight must vanish too, and this
    report lets that implication be eyeballed and thresholded. The pair is built
    once, to top + k H(top) for the largest N = top; the averages weight its first
    top terms, n = 0 .. N - 1 (the products `nil_wwdr_avg` weights, but that
    average runs n = 1 .. N), and each seminorm reads a prefix.
    """
    _check_order(k)
    schedule = check_schedule(schedule)
    g1, g2 = (zk_complement(system, f, k - 1) if k > 1 else f for f in (obs1, obs2))
    top = schedule[-1]
    n = _times(top + k * coupled_box_size(top), first=0)
    pair = orbit_terms(system, x0, n, ((g1, a), (g2, b)))
    values = prefix_means(_weighted(pair[:top], n[:top], w), schedule)
    semis = tuple(local_seminorm(pair, k, coupled_box_size(N), N) for N in schedule)
    return make_report(schedule, values, error_budget=w.error_budget, seminorm_data=semis)
