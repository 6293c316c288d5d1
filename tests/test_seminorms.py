"""Seminorms: correlation closed forms, box estimates vs brute force, the
orbit seminorm, the van der Corput checker, cube averages, and the paired
seminorm/average experiment."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergonil import (
    AnzaiSkew,
    DomainError,
    PolynomialPhase,
    RotationTorus,
    Scaled,
    SequenceTooShortError,
    ToralAutomorphism,
    c_h_estimate,
    constant_observable,
    cube_average,
    ghk_seminorm,
    local_seminorm,
    observable,
    vanishing_experiment,
    vdc_bound,
    weight_samples,
    zk_complement,
)
from ergonil.averages import _BLOCK, orbit_terms, prefix_means
from ergonil import seminorms
from ergonil.numerics import pairwise_sum
from ergonil.seminorms import coupled_box_size

import oracles

PHI = (np.sqrt(5.0) - 1.0) / 2.0


def linear_phase(length, theta=PHI):
    return oracles.unit(oracles.exact_phase_seq((0.0, theta), length))


def quad_phase(length, phi=PHI):
    return oracles.unit(oracles.exact_phase_seq((0.0, 0.0, phi), length))


class TestCorrelations:
    def test_constant_sequence(self):
        a = np.ones(128)
        for k, h in ((1, (3,)), (2, (3, 5)), (3, (1, 2, 4))):
            box = c_h_estimate(a, k, h, 64)
            assert box.value == pytest.approx(1.0, abs=1e-14)

    def test_linear_phase_order1_telescopes(self):
        a = linear_phase(256)
        for h in (1, 7, 31):
            box = c_h_estimate(a, 1, (h,), 128)
            want = np.exp(-2j * np.pi * oracles.exact_phase((0.0, PHI), h))
            assert abs(box.value - want) < 1e-12

    def test_quadratic_phase_order2_closed_form(self):
        a = quad_phase(4096 + 64)
        for h in ((3, 5), (7, 11), (1, 63)):
            box = c_h_estimate(a, 2, h, 4096)
            want = oracles.unit(oracles.exact_phase((0.0, 2.0 * PHI), h[0] * h[1]))
            assert abs(box.value - complex(want)) < 1e-10

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=300) + 1j * rng.normal(size=300)
        for k, h in ((1, (4,)), (2, (2, 9)), (3, (1, 2, 3))):
            got = c_h_estimate(a, k, h, 200).value
            want = oracles.c_h_brute(a, k, h, 200)
            assert abs(got - want) < 1e-10

    def test_zero_offset_is_power_mean(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=256) + 1j * rng.normal(size=256)
        for k in (1, 2, 3):
            box = c_h_estimate(a, k, (0,) * k, 256)
            want = np.mean(np.abs(a) ** (2**k))
            assert box.value.imag == pytest.approx(0.0, abs=1e-12)
            assert box.value.real >= 0
            assert box.value.real == pytest.approx(float(want), abs=1e-10)

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            c_h_estimate(np.ones(10), 1, (5,), 10)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invariant_under_offset_permutations(self, data):
        # the sorted-offset walks of the box, GHK and cube averages rest on this
        k = data.draw(st.integers(1, 4))
        h = data.draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
        perm = data.draw(st.permutations(h))
        N = data.draw(st.integers(1, 64))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = np.exp(2j * np.pi * rng.random(N + sum(h)))
        got = c_h_estimate(a, k, perm, N).value
        assert abs(got - c_h_estimate(a, k, h, N).value) <= 1e-13


class TestLocalSeminorm:
    def test_constant_is_one(self):
        a = np.ones(300)
        for k, H in ((1, 8), (2, 8), (3, 4)):
            est = local_seminorm(a, k, H, H * H)
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert not est.clamped

    def test_matches_bruteforce_box(self):
        rng = np.random.default_rng(31)
        a = np.exp(2j * np.pi * rng.random(200))
        # k = 4 walks sorted offset triples of multiplicity 1, 3 and 6
        for k, H, N in ((1, 8, 64), (2, 6, 36), (3, 4, 16), (4, 3, 9)):
            est = local_seminorm(a, k, H, N)
            want_avg = oracles.box_average_brute(a, k, H, N).real
            assert est.pre_root_average == pytest.approx(want_avg, abs=1e-10)
            want_val, want_clamp = oracles.local_seminorm_brute(a, k, H, N)
            assert est.value == pytest.approx(want_val, abs=1e-10)
            assert est.clamped == want_clamp

    def test_linear_phase_ladder(self):
        # frozen oracle run: order 1 clamps to zero, order 2 is exactly one
        a = linear_phase((1 << 16) + 2 * 256 + 8)
        est1 = local_seminorm(a, 1, 256, 1 << 16)
        assert est1.value <= 0.05
        est2 = local_seminorm(a, 2, 256, 1 << 16)
        assert 0.99 <= est2.value <= 1.0 + 1e-12

    def test_quadratic_phase_ladder(self):
        # frozen oracle run: order-2 box average is -0.00299 (clamps), order 3 is one
        a = quad_phase((1 << 16) + 2 * 256 + 8)
        est2 = local_seminorm(a, 2, 256, 1 << 16)
        assert est2.value <= 0.1
        assert est2.clamped
        a3 = quad_phase(4096 + 3 * 64 + 8)
        est3 = local_seminorm(a3, 3, 64, 4096)
        assert 0.99 <= est3.value <= 1.0 + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=160) + 1j * rng.normal(size=160)
        lam = 0.7 - 1.2j
        for k, H in ((1, 6), (2, 6)):
            base = local_seminorm(a, k, H, 36)
            scaled = local_seminorm(lam * a, k, H, 36)
            if base.clamped:
                assert scaled.clamped
            else:
                assert scaled.value == pytest.approx(abs(lam) * base.value, abs=1e-12)

    def test_unimodular_scaling_invariance(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=160) + 1j * rng.normal(size=160)
        lam = np.exp(0.77j)
        for k, H in ((1, 6), (2, 6)):
            v1 = local_seminorm(a, k, H, 36)
            v2 = local_seminorm(lam * a, k, H, 36)
            assert v2.pre_root_average == pytest.approx(v1.pre_root_average, abs=1e-12)

    def test_zero_sequence(self):
        est = local_seminorm(np.zeros(100), 2, 4, 16)
        assert est.value == 0.0

    def test_coupling_enforced(self):
        with pytest.raises(ValueError, match="H\\^2"):
            local_seminorm(np.ones(1000), 2, 40, 100)

    def test_order_capped(self):
        with pytest.raises(ValueError):
            local_seminorm(np.ones(100), 5, 2, 16)


class TestGhkSeminorm:
    def test_constant_every_level(self):
        rot = RotationTorus((PHI,))
        c = constant_observable(0.5 - 0.25j, 1)
        for k in (1, 2, 3):
            est = ghk_seminorm(rot, c, (0.2,), k, 16, 1 << 10)
            assert est.value == pytest.approx(abs(0.5 - 0.25j), abs=1e-12)

    def test_rotation_character_levels(self):
        rot = RotationTorus((PHI,))
        obs = observable([((1,), 1.0)])
        lvl1 = ghk_seminorm(rot, obs, (0.1,), 1, 1, 1 << 16)
        assert lvl1.value < 1e-3
        lvl2 = ghk_seminorm(rot, obs, (0.1,), 2, 64, 1 << 14)
        assert 0.99 <= lvl2.value <= 1.0 + 1e-12

    def test_mixing_automorphism_level2_small(self):
        # frozen oracle run: 0.0625 at H = 128, N = 2**16
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        obs = observable([((1, 0), 1.0)])
        est = ghk_seminorm(cat, obs, (1, 0), 2, 128, 1 << 16)
        assert est.value <= 0.1

    def test_matches_level_recursion(self):
        # the skew's orbit in exact rationals; f mixes a fibre and a base character
        alpha, x0 = PHI, (0.2, 0.7)
        obs = observable([((0, 1), 1.0), ((1, 0), 0.5 - 0.25j)])
        for k, H, N in ((1, 4, 40), (2, 4, 40), (3, 3, 30), (4, 2, 24)):
            pts = [oracles.exact_anzai(alpha, x0, n) for n in range(N + (k - 1) * H)]
            u = np.array([complex(oracles.unit(y) + (0.5 - 0.25j) * oracles.unit(x))
                          for x, y in pts])
            want_value, want_avg = oracles.ghk_brute(u, k, H, N)
            est = ghk_seminorm(AnzaiSkew(alpha), obs, x0, k, H, N)
            assert est.value == pytest.approx(want_value, abs=1e-12)
            assert est.pre_root_average == pytest.approx(want_avg, abs=1e-12)

    def test_monotone_in_level_for_characters(self):
        # eigenfunctions gain mass at level 2: level1 <= level2 numerically
        rot = RotationTorus((PHI,))
        obs = observable([((1,), 1.0)])
        l1 = ghk_seminorm(rot, obs, (0.1,), 1, 32, 4096).value
        l2 = ghk_seminorm(rot, obs, (0.1,), 2, 32, 4096).value
        assert l1 <= l2 + 1e-12


def _bits(*values):
    """Values as their reprs, so -0.0 and 0.0 differ."""
    return tuple(repr(v) for v in values)


def _sequence(kind: str, length: int, scale: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "unit":
        return np.exp(2j * np.pi * rng.random(length))
    a = (rng.normal(size=length) + 1j * rng.normal(size=length)) * 2.0**scale
    if kind == "zeros":  # exact zeros, from isolated ones to whole runs
        a[rng.random(length) < rng.random()] = 0
    return a


_MAX_H = (24, 24, 10, 5)  # per order k, so one example walks at most C(H+k-2, k-1) <= 55 tuples


class TestBlockedWalk:
    """The walk sums the last offset in blocks of rows and each row in chunks of `_BLOCK` terms;
    its bits match the one-tuple-at-a-time reference walk for any block size (one row per block,
    part of the H offsets with a partial last block, or all of them in one block) and any
    power-of-two chunk length."""

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 4), H=st.integers(1, 24), extra=st.integers(0, 48),
           rows=st.integers(1, 25), kind=st.sampled_from(("unit", "gauss", "zeros")),
           scale=st.integers(-60, 60), seed=st.integers(0, 2**32 - 1))
    @example(k=3, H=8, extra=0, rows=1, kind="unit", scale=0, seed=1)
    @example(k=2, H=10, extra=3, rows=4, kind="zeros", scale=0, seed=2)
    @example(k=2, H=9, extra=7, rows=10, kind="gauss", scale=0, seed=3)
    @example(k=4, H=5, extra=1, rows=2, kind="zeros", scale=-3, seed=4)
    def test_local_seminorm_matches_reference_walk(self, k, H, extra, rows, kind, scale, seed):
        H = min(H, _MAX_H[k - 1])
        N = H * H + extra
        a = _sequence(kind, N + k * H + seed % 3, scale, seed)
        with mock.patch.object(seminorms, "_BLOCK_BYTES", 16 * (N + H) * min(rows, H + 1)):
            est = local_seminorm(a, k, H, N)
        want = oracles.local_seminorm_walk(a, k, H, N)
        assert _bits(est.value, est.pre_root_average, est.clamped) == _bits(*want)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), H=st.integers(1, 24), N=st.integers(1, 300),
           rows=st.integers(1, 25), coefficient=st.sampled_from((0.0, 1.0, 0.5 - 0.25j)),
           alpha=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    @example(k=3, H=6, N=40, rows=1, coefficient=1.0, alpha=PHI, seed=1)
    @example(k=2, H=10, N=50, rows=4, coefficient=0.5 - 0.25j, alpha=0.3, seed=2)
    @example(k=2, H=9, N=81, rows=10, coefficient=0.0, alpha=0.7, seed=3)
    # N = 1: a (1, 1) block product would round as numpy's one-element loop
    @example(k=2, H=2, N=1, rows=2, coefficient=0.0, alpha=0.0, seed=124)
    @example(k=2, H=1, N=1, rows=1, coefficient=1.0, alpha=0.0, seed=2)
    def test_ghk_seminorm_matches_reference_walk(self, k, H, N, rows, coefficient, alpha, seed):
        H = min(H, _MAX_H[k - 1])
        rng = np.random.default_rng(seed)
        x0 = tuple(rng.random(2))
        skew = AnzaiSkew(alpha)
        obs = observable([((0, 1), 1.0), ((1, 2), coefficient)])
        u = orbit_terms(skew, x0, np.arange(N + (k - 1) * H), ((obs, 1),))
        with mock.patch.object(seminorms, "_BLOCK_BYTES", 16 * N * min(rows, H + 1)):
            est = ghk_seminorm(skew, obs, x0, k, H, N)
        want = oracles.ghk_seminorm_walk(u, k, H, N)
        assert _bits(est.value, est.pre_root_average, est.clamped) == _bits(*want)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), H=st.integers(1, 24), chunk=st.sampled_from((1, 2, 4, 8, 16)),
           more=st.integers(0, 4), edge=st.sampled_from((-1, 0, 1)), rows=st.integers(1, 25),
           kind=st.sampled_from(("unit", "gauss", "zeros")), seed=st.integers(0, 2**32 - 1))
    @example(k=2, H=24, chunk=16, more=0, edge=1, rows=1, kind="gauss", seed=1)
    @example(k=2, H=3, chunk=1, more=2, edge=0, rows=3, kind="zeros", seed=2)
    @example(k=3, H=4, chunk=4, more=1, edge=-1, rows=2, kind="unit", seed=3)
    @example(k=1, H=5, chunk=8, more=1, edge=1, rows=1, kind="gauss", seed=4)
    def test_local_seminorm_chunk_edges(self, k, H, chunk, more, edge, rows, kind, seed):
        # N a multiple of the chunk length or one off it, so the carried cumsum and the tail
        # chunk (one term when edge = 1) meet every chunk edge
        H = min(H, _MAX_H[k - 1])
        N = (-(-H * H // chunk) + 1 + more) * chunk + edge
        a = _sequence(kind, N + k * H + seed % 3, 0, seed)
        with mock.patch.object(seminorms, "_BLOCK", chunk), \
                mock.patch.object(seminorms, "_BLOCK_BYTES", 16 * (N + H) * min(rows, H + 1)):
            est = local_seminorm(a, k, H, N)
        want = oracles.local_seminorm_walk(a, k, H, N)
        assert _bits(est.value, est.pre_root_average, est.clamped) == _bits(*want)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 4), H=st.integers(1, 24), chunk=st.sampled_from((1, 2, 4, 8, 16)),
           more=st.integers(1, 6), edge=st.sampled_from((-1, 0, 1)), rows=st.integers(1, 25),
           alpha=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    @example(k=3, H=6, chunk=4, more=3, edge=1, rows=1, alpha=PHI, seed=1)
    @example(k=2, H=24, chunk=16, more=2, edge=-1, rows=5, alpha=0.3, seed=2)
    @example(k=2, H=2, chunk=1, more=1, edge=0, rows=2, alpha=0.0, seed=3)
    def test_ghk_seminorm_chunk_edges(self, k, H, chunk, more, edge, rows, alpha, seed):
        H = min(H, _MAX_H[k - 1])
        N = max(1, more * chunk + edge)
        rng = np.random.default_rng(seed)
        x0 = tuple(rng.random(2))
        skew = AnzaiSkew(alpha)
        obs = observable([((0, 1), 1.0), ((1, 2), 0.5 - 0.25j)])
        u = orbit_terms(skew, x0, np.arange(N + (k - 1) * H), ((obs, 1),))
        with mock.patch.object(seminorms, "_BLOCK", chunk), \
                mock.patch.object(seminorms, "_BLOCK_BYTES", 16 * N * min(rows, H + 1)):
            est = ghk_seminorm(skew, obs, x0, k, H, N)
        want = oracles.ghk_seminorm_walk(u, k, H, N)
        assert _bits(est.value, est.pre_root_average, est.clamped) == _bits(*want)

    def test_order_2_walk_streams_its_rows(self):
        # the benchmark's largest order-2 box: each row runs in cache-sized chunks, so the walk
        # holds the conjugated sequence and a few chunk buffers, not rows of N + H terms
        a = linear_phase((1 << 16) + 2 * 256)
        tracemalloc.start()
        try:
            local_seminorm(a, 2, 256, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_order_3_box_stays_within_4_mib(self):
        # the benchmark's largest order-3 box is N = 2^12, H = 64, as here
        a = quad_phase(4096 + 3 * 64)
        tracemalloc.start()
        try:
            local_seminorm(a, 3, 64, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


_NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf))
_SEQUENCE_CALLS = {
    "c_h_estimate": lambda a: c_h_estimate(a, 2, (1, 2), 16),
    "local_seminorm": lambda a: local_seminorm(a, 2, 4, 16),
    "vdc_bound": lambda a: vdc_bound(a, 64, 2),
    "cube_average_first": lambda a: cube_average(a, np.ones(64), 2),
    "cube_average_second": lambda a: cube_average(np.ones(64), a, 2),
}


@pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
@pytest.mark.parametrize("call", _SEQUENCE_CALLS.values(), ids=_SEQUENCE_CALLS.keys())
def test_non_finite_sequence_is_a_domain_error(call, bad):
    a = np.ones(64, dtype=np.complex128)
    a[5] = bad
    with pytest.raises(DomainError, match="finite"):
        call(a)


_OVERFLOW = {  # finite entries whose 2^k-fold box products overflow float64
    "local_k3": lambda u: local_seminorm(1e40 * u, 3, 3, 9),
    "local_k2": lambda u: local_seminorm(1e80 * u, 2, 4, 16),
    "ghk_k3": lambda u: ghk_seminorm(RotationTorus((PHI,)), observable([((1,), 1e100)]), (0.2,),
                                     3, 4, 64),
    "cube_average": lambda u: cube_average(1e40 * u, 1e40 * u, 4),
    "vdc_bound": lambda u: vdc_bound(1e200 * np.tile(u, 2), 256, 10),
    "c_h_estimate": lambda u: c_h_estimate(1e80 * u, 2, (1, 2), 64),
}


@pytest.mark.parametrize("call", _OVERFLOW.values(), ids=_OVERFLOW.keys())
def test_box_product_overflow_is_a_domain_error(call):
    # the pre-root average would read nan; homogeneity makes it |lambda|^(2^k) times a
    # unit value, so the number is out of float64's range, not a value to report
    u = np.exp(2j * np.pi * np.random.default_rng(7).random(200))
    with pytest.raises(DomainError, match="overflow"):
        call(u)


def test_large_finite_pre_root_average_is_kept():
    # 1e19 at k = 4 stays finite (about -1.9e302 here) and clamps as before
    u = np.exp(2j * np.pi * np.random.default_rng(0).random(200))
    est = local_seminorm(1e19 * u, 4, 3, 9)
    assert np.isfinite(est.pre_root_average) and est.clamped and est.value == 0.0


class TestVanDerCorput:
    def test_constant_sequence(self):
        rep = vdc_bound(np.ones(4096), 4096, 32)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs >= 1.0

    def test_alternating_sequence(self):
        u = np.array([(-1.0) ** n for n in range(4096)])
        rep = vdc_bound(u, 4096, 32)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_hundred_random_unit_sequences(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            u = np.exp(2j * np.pi * rng.random(4096))
            rep = vdc_bound(u, 4096, 32)
            assert rep.lhs <= rep.rhs + 1e-12

    def test_structured_sequences(self):
        seqs = [
            linear_phase(4096),
            quad_phase(4096),
            weight_samples(PolynomialPhase((0.1, 0.25, 0.125)), 4096),
            np.ones(4096),
        ]
        for u in seqs:
            for K in (5, 32, 60):
                assert vdc_bound(u, 4096, K).passed

    def test_side_condition(self):
        with pytest.raises(ValueError, match="side condition"):
            vdc_bound(np.ones(100), 100, 10)

    @pytest.mark.parametrize("kind", ("unit", "gauss", "zeros"))
    def test_scale_free(self, kind):
        # both sides are computed at the scale where max |u| is in [1/2, 1), so a power of two
        # c scales them by exactly c^2 and leaves `passed` as it is
        u = _sequence(kind, 4096, 0, 3)
        rep = vdc_bound(u, 4096, 32)
        for j in (-500, -30, 30, 500):
            c = 2.0**j
            scaled = vdc_bound(c * u, 4096, 32)
            assert (scaled.lhs, scaled.rhs, scaled.lag_rounding_bound) == (
                c * c * rep.lhs, c * c * rep.rhs, c * c * rep.lag_rounding_bound)
            assert scaled.passed == rep.passed

    def test_check_can_fail_on_small_sequences(self):
        # an absolute slack of 1e-12 would pass any sequence below about 1e-6; with every lag
        # sum read as 0 the right side is 0, and 1e-8 * ones must fail at its own scale
        with mock.patch.object(seminorms, "_lag_sums", lambda u, K, scale: np.zeros(K + 1)):
            rep = vdc_bound(1e-8 * np.ones(4096), 4096, 32)
        assert rep.rhs == 0.0 and rep.lhs > 0.0 and not rep.passed

    def test_passed_is_a_python_bool(self):
        # the harness writes the flag into the summary as it is; json cannot write a numpy bool
        assert type(vdc_bound(np.ones(4096), 4096, 32).passed) is bool

    def test_benchmark_size_stays_within_3_mib(self):
        u = np.exp(2j * np.pi * np.random.default_rng(5).random(1 << 17))
        tracemalloc.start()
        try:
            vdc_bound(u, 1 << 17, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20


_EDGES = ("L-1", "L", "L+1", "2L+1", "short")


class TestLagSums:
    """`_lag_sums` against the direct sum per lag, in blocks of L = M - K terms: N at and around
    block edges and within one block, and blocks of M = 64, 256 and 2^13 points."""

    @settings(max_examples=60, deadline=None)
    @given(fft=st.sampled_from((64, 256, 1 << 13)), K=st.integers(0, 63),
           edge=st.sampled_from(_EDGES), kind=st.sampled_from(("unit", "gauss", "zeros")),
           scale=st.sampled_from((-60, 0, 60)), seed=st.integers(0, 2**32 - 1))
    @example(fft=64, K=0, edge="2L+1", kind="unit", scale=0, seed=1)
    @example(fft=256, K=10, edge="L+1", kind="zeros", scale=-60, seed=2)
    @example(fft=1 << 13, K=63, edge="2L+1", kind="gauss", scale=60, seed=3)
    @example(fft=64, K=4, edge="short", kind="gauss", scale=0, seed=4)
    def test_matches_direct_sums(self, fft, K, edge, kind, scale, seed):
        K = min(K, math.isqrt(fft // 2) - 1)  # (K + 1)^2 < N at every edge, and 4K <= M
        L = fft - K
        N = {"L-1": L - 1, "L": L, "L+1": L + 1, "2L+1": 2 * L + 1,
             "short": (K + 1) ** 2 + 1 + seed % (L - 1 - (K + 1) ** 2)}[edge]
        u = _sequence(kind, N, 0, seed) * 2.0**scale
        with mock.patch.object(seminorms, "_LAG_FFT", fft):
            M = seminorms._lag_length(N, K)
            sums = seminorms._lag_sums(u, K)
            beta = seminorms._lag_error(N, K)
        assert M == (min(fft, seminorms._pow2(N + K)) if edge == "short" else fft)
        # beta bounds the FFT's error; the direct pairwise sums add up to (log2 N + 3) eps
        direct = np.array([pairwise_sum(np.conjugate(u[: N - k]) * u[k:]) for k in range(K + 1)])
        energy = float(np.sum(np.abs(u) ** 2))
        tol = (beta + (math.log2(N) + 3) * 2.0**-52) * energy
        assert np.all(np.abs(sums - direct) <= tol)


class TestCubeAverage:
    def test_constant_one(self):
        s = np.ones(100)
        assert cube_average(s, s, 4) == pytest.approx(1.0, abs=1e-12)

    def test_zero_factor(self):
        assert cube_average(np.zeros(100), np.ones(100), 4) == 0.0

    def test_matches_bruteforce_linear_phase(self):
        n = 256 + 3 * 15
        s = linear_phase(n)
        got = cube_average(s, s, 16)
        want = oracles.cube_average_brute(s, s, 16)
        assert abs(got - want) < 1e-10

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(43)
        s1 = np.exp(2j * np.pi * rng.random(80))
        s2 = np.exp(2j * np.pi * rng.random(80))
        got = cube_average(s1, s2, 8)
        want = oracles.cube_average_brute(s1, s2, 8)
        assert abs(got - want) < 1e-10

    def test_matches_bruteforce_unequal_lengths(self):
        # the base window is set by the shorter sequence
        rng = np.random.default_rng(47)
        s1 = np.exp(2j * np.pi * rng.random(30))
        s2 = 0.8 * np.exp(2j * np.pi * rng.random(37))
        got = cube_average(s1, s2, 5)
        want = oracles.cube_average_brute(s1, s2, 5)
        assert abs(got - want) < 1e-12

    def test_too_short(self):
        with pytest.raises(SequenceTooShortError):
            cube_average(np.ones(10), np.ones(10), 8)

    def test_benchmark_size_matches_bruteforce_without_an_h3_block(self):
        # the benchmark's cube: H = 16 over N = 2^14 base terms. Each h3 is contiguous dots,
        # so no (H, base) block (4 MiB here) is ever formed; the buffers are a few N-term rows
        H, N = 16, 1 << 14
        rng = np.random.default_rng(53)
        s1 = np.exp(2j * np.pi * rng.random(N + 3 * (H - 1)))
        s2 = 0.9 * np.exp(2j * np.pi * rng.random(N + 3 * (H - 1)))
        tracemalloc.start()
        try:
            got = cube_average(s1, s2, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < H * N * 16 // 2
        assert abs(got - oracles.cube_average_brute_vec(s1, s2, H)) < 1e-10

    def test_dots_stay_on_the_calling_thread(self):
        # OpenBLAS runs a complex dot of more than 10000 terms on its thread pool, which on a
        # busy host costs far more than the dot; every dot here is a piece of at most 2^13 terms
        lengths = []

        def dot(x, y):
            lengths.append(len(x))
            return real_dot(x, y)

        real_dot = np.dot
        rng = np.random.default_rng(59)
        s = np.exp(2j * np.pi * rng.random(20000 + 3 * 3))
        with mock.patch.object(np, "dot", dot):
            got = cube_average(s, s, 4)
        assert max(lengths) == 1 << 13 and min(lengths) == 20000 - 2 * (1 << 13)
        assert abs(got - oracles.cube_average_brute_vec(s, s, 4)) < 1e-10


class TestVanishingExperiment:
    def test_zero_observable_gives_zeros(self):
        rot = RotationTorus((PHI,))
        zero = observable([((1,), 0.0)])
        obs = observable([((1,), 1.0)])
        rep = vanishing_experiment(rot, zero, obs, (0.2,), 1, 2,
                                   PolynomialPhase((0.0, 0.3)), 2, [256, 1024])
        assert all(v == 0 for v in rep.values)
        assert all(s.value == 0 for s in rep.seminorm_data)

    def test_rotation_projects_to_nothing(self):
        # for the rotation every observable lies in the order-1 factor
        rot = RotationTorus((PHI,))
        obs = observable([((1,), 1.0)])
        rep = vanishing_experiment(rot, obs, obs, (0.2,), 1, 2,
                                   PolynomialPhase((0.0, 0.3)), 2, [256, 1024])
        assert all(v == 0 for v in rep.values)
        assert all(s.value == 0 for s in rep.seminorm_data)

    def test_mixing_case_both_columns_fall(self):
        # frozen oracle run: seminorm clamps to 0 and |A_N| = 0.0026 by N = 2**16
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        obs = observable([((1, 0), 1.0), ((0, 0), 0.5)])  # mean removed by projection
        rep = vanishing_experiment(cat, obs, obs, (1, 0), 1, 2,
                                   PolynomialPhase((0.0, 0.37)), 2,
                                   [1 << 12, 1 << 14, 1 << 16])
        assert rep.seminorm_data[-1].value < 0.1
        assert abs(rep.values[-1]) < 0.1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_are_the_scheduled_weighted_average(self, k):
        # the average column is the weighted projected pair from n = 0, and each
        # seminorm is local_seminorm on a pair of exactly N + k H, bit for bit;
        # the short schedules and the block edges run at k = 1, 2 only (order 3 boxes
        # at H = 128 take seconds), and check the seminorms there
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        f1 = observable([((1, 0), 1.0), ((0, 0), 0.5), ((1, 1), 0.3j)])
        f2 = observable([((0, 1), 0.8 - 0.2j), ((0, 0), 0.25)])
        w = Scaled(0.6 + 0.8j, PolynomialPhase((0.1, 0.3, PHI)))
        g1, g2 = (zk_complement(cat, f, k - 1) if k > 1 else f for f in (f1, f2))
        scheds = [[1, 2, 3, 7, 100, 1 << 14, 1 << 15]]
        if k < 3:
            scheds += [[1], [2], [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]]
        for sched in scheds:
            rep = vanishing_experiment(cat, f1, f2, (1, 0), 1, 2, w, k, sched)
            top = np.arange(sched[-1], dtype=np.int64)
            want = prefix_means(orbit_terms(cat, (1, 0), top, ((g1, 1), (g2, 2)), w), sched)
            assert list(rep.values) == want, sched
            assert rep.values[-1] != 0
            if k == 3:
                continue
            for n, est in zip(sched, rep.seminorm_data, strict=True):
                h = coupled_box_size(n)
                times = np.arange(n + k * h, dtype=np.int64)
                pair = orbit_terms(cat, (1, 0), times, ((g1, 1), (g2, 2)))
                assert est == local_seminorm(pair, k, h, n), (sched, n)

    def test_coupling_rule(self):
        assert coupled_box_size(1 << 16) == 256
        assert coupled_box_size(1 << 15) == 128
        assert coupled_box_size(1 << 12) == 64


class TestOrbitProduct:
    def test_matches_manual_product(self):
        # the orbit product the seminorms read is the pair terms of `orbit_terms`
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        seq = orbit_terms(anz, (0.2, 0.7), np.arange(50, dtype=np.int64), ((obs, 1), (obs, 2)))
        for n in (0, 1, 10, 49):
            p1 = oracles.iterate_anzai(PHI, (0.2, 0.7), n)
            p2 = oracles.iterate_anzai(PHI, (0.2, 0.7), 2 * n)
            want = oracles.unit(p1[1]) * oracles.unit(p2[1])
            assert abs(seq[n] - complex(want)) < 1e-9
