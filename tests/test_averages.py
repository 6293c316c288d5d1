"""Averages: exact reductions, resonances, certified sup sweeps, the
auxiliary-system product average, and the schedule driver."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergonil import (
    AnzaiSkew,
    GridTooFineError,
    HeisenbergElement,
    HeisenbergNilseq,
    InvalidExponentsError,
    OrbitWeight,
    PolynomialPhase,
    Product,
    RotationTorus,
    Scaled,
    Table,
    ThetaType,
    ToralAutomorphism,
    TorusChar,
    birkhoff_avg,
    cesaro_nilseq,
    constant_observable,
    constant_weight,
    double_avg,
    dual_system_avg,
    nil_wwdr_avg,
    observable,
    poly_wwdr_avg,
    run_schedule,
    sup_over_frequency,
    weight_samples,
    ww_avg,
    ww_sup,
    wwdr_avg,
)
from ergonil import averages
from ergonil.averages import (
    _BLOCK,
    MAX_SUP_GRID,
    _dual_expansion,
    _mean,
    check_exponents,
    dual_norms,
    means,
    orbit_terms,
    prefix_means,
    stream_terms,
    sups,
)
from ergonil.errors import (
    DimensionMismatchError,
    DomainError,
    SequenceTooShortError,
    UnsupportedSystemError,
)
from ergonil.numerics import ordered_product, pairwise_mean, pairwise_sum, phase
from ergonil.systems import SKEW_MAX_TIME, eval_observable_many

import oracles

PHI = (np.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = np.sqrt(2.0) - 1.0
E1 = observable([((1,), 1.0)])
B = _BLOCK


class TestBirkhoff:
    def test_constant_is_exact(self):
        rot = RotationTorus((PHI,))
        assert birkhoff_avg(rot, constant_observable(1.0, 1), (0.2,), 1000) == 1.0

    def test_golden_rotation_geometric_bound(self):
        rot = RotationTorus((PHI,))
        n = 1 << 16
        val = birkhoff_avg(rot, E1, (0.0,), n)
        assert abs(val) <= oracles.geometric_avg_bound(PHI, n)
        assert abs(val) < 1e-3

    def test_cat_map_zero_mean(self):
        # frozen from the exact-lattice oracle run: |A_N| = 0.00264 at N = 2**16
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        obs = observable([((1, 0), 1.0)])
        assert abs(birkhoff_avg(cat, obs, (1, 0), 1 << 16)) < 0.05

    def test_matches_direct_mean(self):
        rot = RotationTorus((PHI,))
        obs = observable([((0,), 0.5), ((1,), 0.25), ((2,), 0.25j)])
        got = birkhoff_avg(rot, obs, (0.3,), 333)
        coords = oracles.np.stack(
            [oracles.iterate_rotation((PHI,), (0.3,), n) for n in range(1, 334)]
        )
        want = oracles.direct_mean(
            [sum(c * oracles.unit(sum(f * x for f, x in zip(fr, pt))) for fr, c in obs.terms)
             for pt in coords]
        )
        assert abs(got - want) < 1e-10


class TestWienerWintner:
    def test_t_zero_is_bitwise_birkhoff(self):
        rot = RotationTorus((PHI,))
        obs = observable([((0,), 0.5), ((1,), 0.5)])
        assert ww_avg(rot, obs, (0.4,), 0.0, 2048) == birkhoff_avg(rot, obs, (0.4,), 2048)

    def test_resonant_frequency_is_constant(self):
        # with f = e(x) and t = 1 - alpha every summand equals e(x0)
        rot = RotationTorus((PHI,))
        t = 1.0 - PHI  # exact: PHI >= 0.5
        for n in (10, 1000, 65536):
            val = ww_avg(rot, E1, (0.3,), t, n)
            assert abs(val - np.exp(2j * np.pi * 0.3)) < 1e-12

    def test_constant_alternating(self):
        rot = RotationTorus((PHI,))
        one = constant_observable(1.0, 1)
        # n = 1..N: sum of (-1)^n is -1 for odd N, 0 for even
        assert abs(ww_avg(rot, one, (0.0,), 0.5, 5) - (-1 / 5)) < 1e-15
        assert abs(ww_avg(rot, one, (0.0,), 0.5, 6)) < 1e-15


class TestWWSup:
    def test_zero_observable(self):
        rot = RotationTorus((PHI,))
        res = ww_sup(rot, observable([((1,), 0.0)]), (0.1,), 1024, 0.01)
        assert res.sup_value == 0.0

    def test_eigenfunction_resonance_found(self):
        rot = RotationTorus((PHI,))
        for n in (1 << 10, 1 << 12):
            res = ww_sup(rot, E1, (0.2,), n, 0.01)
            assert res.sup_value >= 1.0 - 0.01
            assert res.sup_value <= 1.0 + 1e-9
            # the argmax frequency should sit near the resonance 1 - alpha
            assert min(abs(res.t_star - (1 - PHI)), 1 - abs(res.t_star - (1 - PHI))) < 1e-3

    def test_mixing_case_is_uniformly_small(self):
        # frozen from the oracle run: grid max 0.0196 at N = 2**15, eps = 0.01
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        obs = observable([((1, 0), 1.0)])
        res = ww_sup(cat, obs, (1, 0), 1 << 15, 0.01)
        assert res.sup_value < 0.05

    def test_grid_guarantee_against_dense_scan(self):
        # certified grid max must dominate any sampled value minus eps
        rng = np.random.default_rng(5)
        u = np.exp(2j * np.pi * rng.random(256))
        res = sup_over_frequency(u, 0.05)
        ts = rng.random(2000)
        n = np.arange(1, 257)
        for t in ts:
            val = abs(np.mean(u * np.exp(2j * np.pi * n * t)))
            assert res.sup_value >= val - 0.05

    def test_eps_floor_rejected(self):
        rot = RotationTorus((PHI,))
        with pytest.raises(GridTooFineError):
            ww_sup(rot, E1, (0.2,), 1 << 16, 1e-9)


def _sweep_input(kind: str, N: int, rng) -> np.ndarray:
    n = np.arange(N)
    if kind == "random":
        return rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if kind == "peaked":
        return 0.8 * np.exp(2j * np.pi * (PHI * n + 0.1))
    if kind == "two_peaks":  # a rival peak 0.01 below the sup, which pruning must not lose
        return 0.6 * np.exp(2j * np.pi * PHI * n) + 0.59 * np.exp(2j * np.pi * SQRT2M1 * n)
    if kind == "real":
        return np.cos(2 * np.pi * SQRT2M1 * n) + 0.3 * rng.standard_normal(N)
    raise ValueError(kind)


def _dense_scan(u: np.ndarray, first: int, m: int = 1 << 20):
    """|(1/N) sum u_n e(n t)| at t = k/m, with u placed at its own indices n."""
    x = np.zeros(m, dtype=complex)
    x[(first + np.arange(u.size)) % m] = u
    return np.abs(np.fft.ifft(x)) * (m / u.size)


def _value_at(u: np.ndarray, first: int, t: float) -> float:
    n = np.arange(first, first + u.size)
    return abs(np.mean(u * np.exp(2j * np.pi * n * t)))


def _factored_phase(m: int, j: np.ndarray, p: int) -> np.ndarray:
    """e(j m / 2^p) as `_node_values` forms it: e(q m / 2^p) * e(r m / 2^p), j = q + r with
    q a multiple of `_FACTOR` and 0 <= r < `_FACTOR`, each argument reduced mod 2^p."""
    r = j % averages._FACTOR
    return np.multiply(*(phase(((m * x) & ((1 << p) - 1)).astype(np.uint64) << np.uint64(64 - p))
                         for x in (j - r, r)))


class TestSweepCertificate:
    @pytest.mark.parametrize("kind", ["random", "peaked", "two_peaks", "real"])
    @pytest.mark.parametrize("N,first", [(1, 1), (1, 0), (255, 1), (256, 0), (301, 0),
                                         (512, 1)])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_dense_scan_within_error_bound(self, kind, N, first, eps):
        # the modulus does not depend on where n starts, so u sits at `first` onwards
        u = _sweep_input(kind, N, np.random.default_rng(N + first))
        res = sup_over_frequency(u, eps)
        dense = _dense_scan(u, first)
        assert dense.max() - res.sup_value <= res.error_bound + 1e-12
        assert 0.0 <= res.error_bound <= eps / 2
        # the reported maximum is attained at t_star
        assert abs(_value_at(u, first, res.t_star) - res.sup_value) < 1e-12
        if kind == "peaked":
            assert 0.8 - res.sup_value <= res.error_bound + 1e-12
            # a sound bound covers at least half a node spacing at the Bernstein slope
            assert res.error_bound >= np.pi * (N - 1) * 0.8 * res.grid_spacing / 2 - 1e-15
        if N == 1:
            assert res.sup_value == pytest.approx(abs(u[0]), abs=1e-15)
            assert res.error_bound == 0.0

    @pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan")])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="positive"):
            sup_over_frequency(np.ones(8), eps)

    def test_refinement_reported(self):
        u = _sweep_input("peaked", 1024, None)
        res = sup_over_frequency(u, 1e-3)
        # refined cells add nodes below the coarse spacing 1/(16N)
        assert res.grid_size > 16 * 1024
        assert res.grid_spacing <= 1e-3 / (np.pi * 1023 * 0.8)

    @pytest.mark.parametrize("N", [1, 3, 127, 128, 129, 300, _BLOCK, 2 * _BLOCK + 3])
    def test_node_values_are_one_pairwise_sum_per_node(self, N):
        # blocks of nodes, or aligned slices of one node's terms, keep the bits of one
        # unblocked pairwise sum of the node's N terms times their factored phases
        u = _sweep_input("random", N, np.random.default_rng(N))
        p = 24
        m = np.array([0, 1, 5, (1 << p) - 1, 12345677] * 2 * (_BLOCK // N + 1), dtype=np.int64)
        j = np.arange(N, dtype=np.int64)
        sums = [pairwise_sum(np.multiply(u, _factored_phase(k, j, p))) for k in m]
        assert averages._node_values(u, m, p).tobytes() == (np.abs(sums) / N).tobytes()

    @given(p=st.integers(12, 28), m=st.integers(0, (1 << 28) - 1),
           j=st.integers(0, (1 << 20) + 3))
    @settings(max_examples=300, deadline=None)
    def test_factored_phase_is_within_its_bound(self, p, m, j):
        # e(q m / 2^p) e(r m / 2^p) against e(j m / 2^p) reduced in exact rationals, taken in
        # long double, whose own error is far below the 2^-58 allowed for it
        m %= 1 << p
        got = complex(_factored_phase(m, np.array([j]), p)[0])
        turn = oracles.turn_of(oracles.Fraction(j * m, 1 << p))  # exact: a dyadic angle
        assert oracles.phase_distance(got, turn) <= averages.FACTORED_PHASE_BOUND + 2.0**-58

    def test_a_node_pays_two_short_rows_of_phases(self, monkeypatch):
        # a revert to one phase per term and node evaluates N phases per node; and no kernel
        # call is longer than `_PHASE_CALL`, whose larger temporaries raise the peak RSS
        N, m, p = 1 << 15, np.array([1, 3, 12345677], dtype=np.int64), 26
        counted = []

        def counting(turns):
            counted.append(np.size(turns))
            return phase(turns)

        monkeypatch.setattr(averages, "phase", counting)
        averages._node_values(_sweep_input("random", N, np.random.default_rng(0)), m, p)
        rows, F = max(1, _BLOCK // N), averages._FACTOR
        blocks = [min(_BLOCK, N - k) for k in range(0, N, _BLOCK)] * -(-m.size // rows)
        assert 0 < sum(counted) <= sum(rows * (-(-size // F) + F) for size in blocks)
        assert max(counted) <= averages._PHASE_CALL

    def test_memory_is_the_coarse_fft_and_a_few_blocks(self):
        # the levels hold a few `_BLOCK`-term blocks and the nodes they keep, never an
        # array of the coarse grid's size per refined node
        N = 1 << 17
        u = _sweep_input("peaked", N, None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            np.abs(np.fft.ifft(u, 16 * N))  # the coarse spectrum and its modulus
            fft = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            res = sup_over_frequency(u, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert res.grid_spacing < 1.0 / (16 * N)  # it refined
        assert peak <= fft + 8 * 16 * _BLOCK, (fft / 2**20, peak / 2**20)

    def test_previous_floor_still_accepted(self):
        # the earlier sweep rejected eps below 2*pi*(first n + N - 1)*max|u| / 2^28
        N = 64
        u = np.exp(2j * np.pi * PHI * np.arange(1, N + 1))
        eps = 1.01 * 2 * np.pi * N / MAX_SUP_GRID
        res = sup_over_frequency(u, eps)
        assert 1.0 - res.sup_value <= res.error_bound <= eps / 2

    def test_floor_follows_bernstein_bound(self):
        # sup = 1, so L >= pi*(N-1) and eps below pi*(N-1)/2^28 cannot be met
        N = 64
        u = np.exp(2j * np.pi * PHI * np.arange(1, N + 1))
        with pytest.raises(GridTooFineError):
            sup_over_frequency(u, 0.99 * np.pi * (N - 1) / MAX_SUP_GRID)


class TestDoubleRecurrence:
    def test_exponent_validation(self):
        rot = RotationTorus((PHI,))
        with pytest.raises(InvalidExponentsError):
            double_avg(rot, E1, E1, (0.1,), 2, 2, 100)
        with pytest.raises(InvalidExponentsError):
            double_avg(rot, E1, E1, (0.1,), 0, 1, 100)

    def test_constant_second_reduces_to_power_birkhoff(self):
        rot = RotationTorus((PHI,))
        obs = observable([((1,), 0.7), ((0,), 0.3)])
        one = constant_observable(1.0, 1)
        got = double_avg(rot, obs, one, (0.25,), 3, 1, 512)
        # equals the Birkhoff average of obs along the cube of the rotation
        rot3 = RotationTorus((float((3 * oracles.Fraction(PHI)) % 1),))
        want = birkhoff_avg(rot3, obs, (0.25,), 512)
        assert abs(got - want) < 1e-12

    def test_rotation_geometric_series(self):
        rot = RotationTorus((SQRT2M1,))
        n = 1 << 12
        val = double_avg(rot, E1, E1, (0.1,), 1, 2, n)
        theta = float((3 * oracles.Fraction(SQRT2M1)) % 1)
        assert abs(val) <= oracles.geometric_avg_bound(theta, n)

    def test_opposite_exponents_cancel_rotation(self):
        # a = 1, b = -1: frequencies add to zero, every term is e(2 x0)
        rot = RotationTorus((PHI,))
        for n in (7, 129, 4096):
            val = double_avg(rot, E1, E1, (0.3,), 1, -1, n)
            assert abs(val - np.exp(2j * np.pi * 0.6)) < 1e-12

    def test_wwdr_t_zero_bitwise(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        assert (
            wwdr_avg(anz, obs, obs, (0.2, 0.7), 1, 2, 0.0, 1024)
            == double_avg(anz, obs, obs, (0.2, 0.7), 1, 2, 1024)
        )

    def test_wwdr_constant_alternating(self):
        rot = RotationTorus((PHI,))
        c1 = constant_observable(0.5, 1)
        c2 = constant_observable(2.0j, 1)
        val = wwdr_avg(rot, c1, c2, (0.0,), 1, 2, 0.5, 5)
        assert abs(val - (-1.0j / 5)) < 1e-15

    def test_wwdr_resonance(self):
        rot = RotationTorus((SQRT2M1,))
        t = 1.0 - float((3 * oracles.Fraction(SQRT2M1)) % 1)
        vals = [abs(wwdr_avg(rot, E1, E1, (0.15,), 1, 2, t, n)) for n in (64, 512, 4096)]
        assert all(abs(v - 1.0) < 1e-11 for v in vals)

    def test_poly_linear_collapses_to_wwdr(self):
        rot = RotationTorus((PHI,))
        t = 0.37
        a1 = poly_wwdr_avg(rot, E1, E1, (0.2,), 1, 2, (0.0, t), 2048)
        a2 = wwdr_avg(rot, E1, E1, (0.2,), 1, 2, t, 2048)
        assert a1 == a2

    def test_poly_zero_collapses_to_double(self):
        rot = RotationTorus((PHI,))
        a1 = poly_wwdr_avg(rot, E1, E1, (0.2,), 1, 2, (0.0,), 2048)
        a2 = double_avg(rot, E1, E1, (0.2,), 1, 2, 2048)
        assert a1 == a2

    def test_weyl_quadratic_weight(self):
        rot = RotationTorus((PHI,))
        one = constant_observable(1.0, 1)
        val = poly_wwdr_avg(rot, one, one, (0.0,), 1, 2, (0.0, 0.0, PHI), 1 << 16)
        assert abs(val) < 0.02

    def test_nil_polynomial_weight_collapses(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        w = PolynomialPhase((0.0, 0.37))
        a1 = nil_wwdr_avg(anz, obs, obs, (0.2, 0.7), 1, 2, w, 1024)
        a2 = wwdr_avg(anz, obs, obs, (0.2, 0.7), 1, 2, 0.37, 1024)
        assert a1 == a2

    def test_nil_constant_weight_collapses(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        a1 = nil_wwdr_avg(anz, obs, obs, (0.2, 0.7), 1, 2, constant_weight(1.0), 1024)
        a2 = double_avg(anz, obs, obs, (0.2, 0.7), 1, 2, 1024)
        assert a1 == a2

    def test_nil_table_too_short(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        with pytest.raises(SequenceTooShortError):
            nil_wwdr_avg(anz, obs, obs, (0.2, 0.7), 1, 2, Table(np.ones(100)), 128)

    def test_anzai_heisenberg_trend(self):
        # dyadic deltas shrink between 2**10 and 2**16 (frozen trend oracle)
        anz = AnzaiSkew(PHI)
        obs = observable([((0, 1), 1.0)])
        w = HeisenbergNilseq(
            HeisenbergElement(np.sqrt(3) - 1, 0.3, 0.1),
            HeisenbergElement.identity(),
            TorusChar(1, 0),
        )
        rep = run_schedule(anz, (0.2, 0.3), [1 << k for k in range(10, 18)],
                           ((obs, 1), (obs, 2)), w)
        assert rep.delta_at(1 << 16) < rep.delta_at(1 << 10)


class TestLinearityAndBounds:
    def test_additive_in_first_observable(self):
        rng = np.random.default_rng(17)
        rot = RotationTorus((PHI,))
        for _ in range(10):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            obs_a = observable([((0,), c[0]), ((1,), c[1])])
            obs_b = observable([((0,), c[2]), ((2,), c[3])])
            both = observable([((0,), c[0] + c[2]), ((1,), c[1]), ((2,), c[3])])
            f2 = observable([((1,), 1.0)])
            x0, t, n = (float(rng.random()),), float(rng.random()), 512
            s = wwdr_avg(rot, obs_a, f2, x0, 1, 2, t, n) + wwdr_avg(rot, obs_b, f2, x0, 1, 2, t, n)
            w = wwdr_avg(rot, both, f2, x0, 1, 2, t, n)
            assert abs(s - w) < 1e-12

    def test_average_bounded_by_product_of_bounds(self):
        rng = np.random.default_rng(19)
        anz = AnzaiSkew(PHI)
        for _ in range(10):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            o1 = observable([((0, 0), c[0]), ((1, 0), c[1])])
            o2 = observable([((0, 1), c[2]), ((1, 1), c[3])])
            w = PolynomialPhase((0.0, float(rng.random())))
            val = nil_wwdr_avg(anz, o1, o2, (0.1, 0.9), 1, 2, w, 256)
            assert abs(val) <= o1.bound * o2.bound * w.bound + 1e-12


def _node_values(res, nodes=64):
    """(y, value) at the uniform nodes y = j / nodes of a dual-system average's coefficients."""
    y = np.arange(nodes, dtype=np.float64) / nodes
    return zip(y.tolist(), eval_observable_many(res.coefficients, y[:, None]).tolist())


class TestDualSystem:
    def test_k1_rotation_collapse(self):
        rot = RotationTorus((PHI,))
        t = 0.2360679774997896
        s = RotationTorus((t,))
        g = observable([((1,), 1.0)])
        res = dual_system_avg(rot, E1, E1, (0.3,), 1, 2, s, [g], 512)
        base = wwdr_avg(rot, E1, E1, (0.3,), 1, 2, t, 512)
        for y, v in _node_values(res):
            assert abs(v - np.exp(2j * np.pi * y) * base) < 1e-12

    def test_constant_g_reduces_to_double(self):
        rot = RotationTorus((PHI,))
        one = constant_observable(1.0, 1)
        res = dual_system_avg(rot, E1, E1, (0.3,), 1, 2, RotationTorus((0.3,)), [one, one], 256)
        want = double_avg(rot, E1, E1, (0.3,), 1, 2, 256)
        assert res.coefficients.terms == (((0,), want),)
        assert all(abs(v - want) < 1e-15 for _, v in _node_values(res))

    def test_node_values_are_nil_wwdr_under_orbit_weights(self):
        # the auxiliary weight at node y is prod_i g_i(S^{in} y), a product of orbit
        # weights on the rotations S^i started at y
        rot, t, N = RotationTorus((PHI,)), SQRT2M1, 1024
        f2 = observable([((1,), 0.7), ((2,), 0.3)])
        gs = [E1, observable([((-1,), 0.5), ((1,), 0.5)])]
        res = dual_system_avg(rot, E1, f2, (0.3,), 1, 2, RotationTorus((t,)), gs, N)
        for y, v in _node_values(res):
            factors = [OrbitWeight(RotationTorus(((i * t) % 1.0,)), g, (y,))
                       for i, g in enumerate(gs, 1)]
            w = Product(*factors)
            assert abs(v - nil_wwdr_avg(rot, E1, f2, (0.3,), 1, 2, w, N)) < 1e-12

    def test_l2_norm_is_rms(self):
        rot = RotationTorus((PHI,))
        one = constant_observable(1.0, 1)
        res = dual_system_avg(rot, one, one, (0.0,), 1, 2, RotationTorus((0.3,)), [one], 16)
        assert res.l2_norm == pytest.approx(1.0, abs=1e-14)

    def test_k2_trend(self):
        # frozen trend oracle: last dyadic delta below the first
        rot = RotationTorus((SQRT2M1,))
        f = observable([((0,), 0.5), ((1,), 0.5)])
        g = observable([((0,), 0.5), ((1,), 0.5)])
        rep = run_schedule(rot, (0.25,), [1 << k for k in range(10, 15)], ((f, 1), (f, 2)),
                           reduce=dual_norms(RotationTorus((PHI,)), [g, g]))
        assert rep.dyadic_deltas[-1] < rep.dyadic_deltas[0]

    def test_norm_exact_when_frequencies_alias_on_the_grid(self):
        # 40 - (-24) = 64: on 64 nodes e(40 y) and e(-24 y) coincide, so a
        # quadrature of |.|^2 over the grid picks up their cross term; Parseval does not
        rot, s = RotationTorus((PHI,)), RotationTorus((SQRT2M1,))
        g = observable([((40,), 1.0), ((-24,), 1.0)])
        want = oracles.dual_norm_exact(PHI, 0.3, 1, 2, SQRT2M1, [(40, 1.0), (-24, 1.0)], 1024)
        res = dual_system_avg(rot, E1, E1, (0.3,), 1, 2, s, [g], 1024)
        assert abs(res.l2_norm - want) < 1e-12
        quadrature = math.sqrt(sum(abs(v) ** 2 for _, v in _node_values(res)) / 64)
        assert abs(quadrature - want) > 0.1 * want  # 12 % off here

    def test_twist_times_checked_against_int64(self):
        # s * n with s = 2^60: exact up to n = 7, wraps at n = 8
        rot, s = RotationTorus((PHI,)), RotationTorus((SQRT2M1,))
        g = observable([((1 << 60,), 1.0)])
        res = dual_system_avg(rot, E1, E1, (0.3,), 1, 2, s, [g], 7)
        want = oracles.dual_norm_exact(PHI, 0.3, 1, 2, SQRT2M1, [(1 << 60, 1.0)], 7)
        assert abs(res.l2_norm - want) < 1e-12
        with pytest.raises(DomainError):
            dual_system_avg(rot, E1, E1, (0.3,), 1, 2, s, [g], 8)

    def test_coefficients_do_not_depend_on_the_longest_n(self):
        # the Parseval norm can round a last-bit change in a coefficient away,
        # so the coefficients at N = 100 are compared themselves; past 2**14
        # terms numpy's temporary elision may swap a product's operands
        anz, s = AnzaiSkew(SQRT2M1), RotationTorus((PHI,))
        f1 = observable([((0, 1), 1.0), ((1, 0), 0.2 + 0.3j)])
        f2 = observable([((1, 1), 0.6), ((0, 1), 0.4j)])
        gs = [observable([((1,), 0.5 + 0.2j), ((-2,), 0.3j)]),
              observable([((0,), 0.4), ((1,), 0.6 - 0.1j)])]

        def expansion(schedule):
            terms = stream_terms(anz, (0.2, 0.3), schedule[-1], ((f1, 1), (f2, 2)))
            return _dual_expansion(terms, s, gs, schedule)[0]

        assert expansion([100, 1 << 15]) == expansion([100])

    def test_validation(self):
        rot = RotationTorus((PHI,))
        with pytest.raises(ValueError):
            dual_system_avg(rot, E1, E1, (0.1,), 1, 2, RotationTorus((0.3,)), [E1] * 4, 64)
        with pytest.raises(ValueError):
            dual_system_avg(rot, E1, E1, (0.1,), 1, 2, RotationTorus((0.3,)),
                            [observable([((1, 0), 1.0)])], 64)
        with pytest.raises(Exception):
            dual_system_avg(rot, E1, E1, (0.1,), 1, 2, AnzaiSkew(PHI), [E1], 64)

    def test_schedule_checks_the_auxiliary_system_before_the_orbit_pass(self, monkeypatch):
        def no_orbit_pass(*args, **kwargs):
            raise AssertionError("orbit terms built before the auxiliary system was checked")

        monkeypatch.setattr(averages, "_build_terms", no_orbit_pass)  # every term goes through it
        pair = (RotationTorus((PHI,)), (0.1,), [64], ((E1, 1), (E1, 2)))
        with pytest.raises(UnsupportedSystemError):
            run_schedule(*pair, reduce=dual_norms(AnzaiSkew(PHI), [E1]))
        with pytest.raises(DimensionMismatchError):
            run_schedule(*pair, reduce=dual_norms(RotationTorus((0.3,)), [E1] * 4))


def _check_schedule_against_single_shots(sched):
    rot = RotationTorus((PHI,))
    anz = AnzaiSkew(SQRT2M1)
    obs = observable([((0,), 0.4), ((1,), 0.6)])
    f1 = observable([((0, 1), 1.0), ((1, 0), 0.2 + 0.3j)])
    f2 = observable([((1, 1), 0.6), ((0, 1), 0.4j)])
    w = Scaled(0.6 + 0.8j, HeisenbergNilseq(HeisenbergElement(np.sqrt(3) - 1, 0.3, 0.1),
                                            HeisenbergElement.identity(), ThetaType(1)))
    one, pair = (rot, (0.2,), ((obs, 1),)), (anz, (0.2, 0.3), ((f1, 1), (f2, 2)))
    p = (0.1, 0.3, PHI)
    gs = [observable([((1,), 0.5 + 0.2j), ((-2,), 0.3j)]),
          observable([((0,), 0.4), ((1,), 0.6 - 0.1j)]),
          observable([((-1,), 0.7 + 0.7j), ((3,), 0.1)])]
    cases = [
        ("birkhoff", one, None, means, lambda n: birkhoff_avg(rot, obs, (0.2,), n)),
        ("ww", one, PolynomialPhase((0.0, 0.31)), means,
         lambda n: ww_avg(rot, obs, (0.2,), 0.31, n)),
        ("ww_sup", one, None, sups(1e-3), lambda n: ww_sup(rot, obs, (0.2,), n, 1e-3)),
        ("double", pair, None, means, lambda n: double_avg(anz, f1, f2, (0.2, 0.3), 1, 2, n)),
        ("wwdr", pair, PolynomialPhase((0.0, 0.31)), means,
         lambda n: wwdr_avg(anz, f1, f2, (0.2, 0.3), 1, 2, 0.31, n)),
        ("poly_wwdr", pair, PolynomialPhase(p), means,
         lambda n: poly_wwdr_avg(anz, f1, f2, (0.2, 0.3), 1, 2, p, n)),
        ("nil_wwdr", pair, w, means,
         lambda n: nil_wwdr_avg(anz, f1, f2, (0.2, 0.3), 1, 2, w, n)),
        ("dual_system", pair, None, dual_norms(RotationTorus((PHI,)), gs),
         lambda n: dual_system_avg(anz, f1, f2, (0.2, 0.3), 1, 2, RotationTorus((PHI,)),
                                   gs, n).l2_norm),
    ]
    for kind, (system, x0, factors), weight, reduce, one_shot in cases:
        rep = run_schedule(system, x0, sched, factors, weight, reduce)
        # a sweep's whole certified point, every other kind's average
        got = rep.sup_data if kind == "ww_sup" else rep.values
        for n, v in zip(sched, got, strict=True):
            assert v == one_shot(n), (kind, n)
    rep = cesaro_nilseq(w, sched)
    assert rep.values == tuple(pairwise_mean(w.eval_many(np.arange(n))) for n in sched)


# (system, x0, `orbit_terms` factors, largest |time| drawn, None for times in [0, 3B))
# of every system and weight kind
_HEIS = HeisenbergElement(np.sqrt(3) - 1, 0.3, 0.1)
_F1 = observable([((0, 0), -0.1), ((0, 1), 1.0), ((1, 0), 0.2 + 0.3j)])
_F2 = observable([((1, 1), 0.6), ((0, 1), 0.4j), ((3, -2), 0.1)])
_E = observable([((0,), 0.4), ((1,), 0.6), ((3,), 0.1j)])
_E2 = observable([((1, -1), 0.5 - 0.5j), ((0, 2), 0.3)])
_TORUS_W = OrbitWeight(RotationTorus((PHI, SQRT2M1)), _F2, (0.1, 0.7))
SPLIT_CASES = {
    "poly_degree6": (None, None, dict(weight=PolynomialPhase(
        (0.1, PHI, 0.2, 0.3, SQRT2M1, 0.4, 0.123456789))), (1 << 62)),
    "poly_degree3": (None, None, dict(weight=PolynomialPhase((0.5, 0.1, PHI, 0.3))),
                     (1 << 40)),
    "rotation_torus": (RotationTorus((PHI, SQRT2M1)), (0.2, 0.7),
                       dict(factors=((_F1, 3), (_F2, -2)), weight=_TORUS_W), 1 << 50),
    "rotation_birkhoff": (RotationTorus((PHI,)), (0.2,), dict(factors=((_E, 1),)), 1 << 52),
    "skew_theta": (AnzaiSkew(SQRT2M1), (0.2, 0.3), dict(factors=((_F1, 1), (_F2, 2)), weight=(
        HeisenbergNilseq(_HEIS, HeisenbergElement.identity(), ThetaType(1)))), 1 << 25),
    "skew_theta_ell2": (AnzaiSkew(PHI), (0.4, 0.9), dict(factors=((_F2, 2), (_F1, -1)), weight=(
        HeisenbergNilseq(_HEIS, HeisenbergElement(0.1, 0.2, 0.3), ThetaType(2, width=0.5)))), 1 << 25),
    "skew_torus_char": (AnzaiSkew(PHI), (0.6, 0.1), dict(factors=((_F2, -1), (_F1, 1)), weight=(
        HeisenbergNilseq(_HEIS, HeisenbergElement(0.1, 0.2, 0.3), TorusChar(2, 3)))), 1 << 25),
    "cat_product": (ToralAutomorphism(((2, 1), (1, 1))), (3, 5), dict(
        factors=((_F1, 1), (_F2, 3)), weight=Product(_TORUS_W, PolynomialPhase((0.0, PHI)))),
        1 << 50),
    "rotation_scaled": (RotationTorus((PHI,)), (0.2,), dict(
        factors=((_E, 2), (_E, 5)), weight=Scaled(0.6 - 0.8j, PolynomialPhase((0.1, 0.2, PHI)))),
        1 << 40),
    "rotation_table": (RotationTorus((PHI,)), (0.2,), dict(factors=((_E, 1), (_E, 2)), weight=(
        Table(np.exp(1j * np.arange(3 * B + 8)), sup_error_budget=0.1))), None),
}


@st.composite
def _times_and_cuts(draw, largest):
    """Times n of more than one block and the cut points of a split of n."""
    length = draw(st.integers(B + 2, 2 * B + 3))
    start = draw(st.integers(0, B) if largest is None else st.integers(-largest, largest - length))
    edges = st.sampled_from([1, B - 1, B, B + 1, length - 1])
    cuts = draw(st.lists(st.integers(0, length) | edges, max_size=5))
    ones = draw(st.lists(st.integers(0, length - 1), max_size=2))  # length-1 pieces
    cuts = sorted({0, length, *cuts, *ones, *(i + 1 for i in ones)})
    return np.arange(start, start + length, dtype=np.int64), cuts


class TestOrbitTermBlocks:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_terms_do_not_depend_on_the_split(self, case, data):
        system, x0, kw, largest = SPLIT_CASES[case]
        n, cuts = data.draw(_times_and_cuts(largest))
        whole = orbit_terms(system, x0, n, **kw)
        pieces = [orbit_terms(system, x0, n[lo:hi], **kw) for lo, hi in itertools.pairwise(cuts)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()

    def test_one_time_alone_has_its_bits(self):
        # k . x is an integer turn sum, so one time alone has the bits it has in a
        # longer array
        rot = RotationTorus((PHI, SQRT2M1))
        n = np.arange(1, 300, dtype=np.int64)
        whole = orbit_terms(rot, (0.2, 0.7), n, ((_F2, 1),))
        for i in range(n.size):
            one = orbit_terms(rot, (0.2, 0.7), n[i:i + 1], ((_F2, 1),))
            assert whole[i:i + 1].tobytes() == one.tobytes()

    def test_checks_run_before_the_first_block(self):
        # each check covers all of n before any block is built, so a bad time
        # or length in the last block still raises
        rot = RotationTorus((PHI,))
        n = np.arange(3 * B, dtype=np.int64)
        n[-1] = 1 << 52  # 4 n = 2^54 lies inside the rotation's int64 times, exactly
        got = orbit_terms(rot, (0.2,), n, ((E1, 4),))[-1]
        assert abs(got - oracles.unit(float(oracles.exact_rotation(PHI, 0.2, 1 << 54)))) < 1e-12
        n[-1] = 1 << 61  # 4 n = 2^63 is past int64: it would wrap
        with pytest.raises(DomainError):
            orbit_terms(rot, (0.2,), n, ((E1, 4),))
        with pytest.raises(SequenceTooShortError):
            orbit_terms(rot, (0.2,), n[:-1], ((E1, 1),), Table(np.ones(3 * B - 2)))
        with pytest.raises(InvalidExponentsError):
            orbit_terms(rot, (0.2,), n[:-1], ((E1, 2), (E1, 2)))

    @pytest.mark.parametrize("weight", [None, PolynomialPhase((0.1, PHI, 0.3))])
    def test_three_factors_multiply_in_order(self, weight):
        # the core's product of k factors is the one-factor terms multiplied left to
        # right, then the weight, over times that cross two block edges
        anz, x0 = AnzaiSkew(SQRT2M1), (0.2, 0.3)
        n = np.arange(-5, 2 * B + 3, dtype=np.int64)
        factors = ((_F1, 1), (_F2, 2), (_E2, -3))
        want = orbit_terms(anz, x0, n, factors[:1])
        for f in factors[1:]:
            want = ordered_product(want, orbit_terms(anz, x0, n, (f,)), np.empty_like(want))
        if weight is not None:
            want = ordered_product(want, weight.eval_many(n), np.empty_like(want))
        assert orbit_terms(anz, x0, n, factors, weight).tobytes() == want.tobytes()
        assert orbit_terms(anz, x0, n[:1], factors, weight).tobytes() == want[:1].tobytes()

    def test_no_factors_and_no_weight_is_the_empty_product(self):
        for size in (0, 1, 3, B + 1):
            got = orbit_terms(None, None, np.arange(size, dtype=np.int64))
            assert got.dtype == np.complex128 and got.tobytes() == np.ones(size, complex).tobytes()

    def test_exponents_are_distinct_and_nonzero_for_any_count(self):
        anz, n = AnzaiSkew(SQRT2M1), np.arange(1, 9, dtype=np.int64)
        for bad in ((1, 2, 1), (0,), (3, 0, -1), (2, 2)):
            with pytest.raises(InvalidExponentsError):
                orbit_terms(anz, (0.2, 0.3), n, tuple((_F1, e) for e in bad))
            with pytest.raises(InvalidExponentsError):
                check_exponents(*bad)
        for good in ((), (1,), (-1,), (1, 2, 3), (1, -1, 2, -2)):
            check_exponents(*good)

    def test_point_is_checked_once_per_call(self, monkeypatch):
        # the core checks the point before its blocks, not in each of them, and a bad
        # point or an object that is no system still raises
        rot, calls = RotationTorus((PHI,)), []
        check = type(rot).check_point
        monkeypatch.setattr(type(rot), "check_point", lambda s, x0: calls.append(x0) or check(s, x0))
        n = np.arange(1, 3 * B + 2, dtype=np.int64)
        orbit_terms(rot, (0.2,), n, ((E1, 1), (E1, 2)))
        assert calls == [(0.2,)]
        with pytest.raises(ValueError, match="lie in"):
            orbit_terms(rot, (1.2,), n, ((E1, 1),))
        with pytest.raises(UnsupportedSystemError):
            orbit_terms(object(), (0.2,), n, ((E1, 1),))

    def test_theta_weight_memory_is_pinned(self):
        # a theta Heisenberg weight has the largest temporaries of any term: at
        # N = 2^18 the core peaks at its 4 MiB output plus 17 block-sized float
        # arrays (2^14 doubles, 128 KiB each); one more block is allowed, so a theta
        # evaluation that keeps extra block temporaries alive fails here
        w = HeisenbergNilseq(_HEIS, HeisenbergElement(0.1, 0.2, 0.3), ThetaType(1))
        n = np.arange(1 << 18, dtype=np.int64)
        orbit_terms(None, None, n[:2], weight=w)  # the cached window and bound
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            orbit_terms(None, None, n, weight=w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n.size + 18 * 8 * B, peak / 2**20


class TestWeightSamples:
    @pytest.mark.parametrize("case", sorted(c for c, v in SPLIT_CASES.items() if "weight" in v[2]))
    def test_samples_are_one_unblocked_evaluation(self, case):
        # `weight_samples` is `orbit_terms` on the weight alone; one `eval_many`
        # over the same times checks it from outside the core
        _, _, kw, largest = SPLIT_CASES[case]
        w = kw["weight"]
        for start in (0,) if largest is None else (0, largest - 2 * B - 1):
            for length in (1, B - 1, B, B + 1, 2 * B + 1):
                want = w.eval_many(np.arange(start, start + length, dtype=np.int64))
                assert weight_samples(w, length, start).tobytes() == want.tobytes(), (start, length)

    def test_length_zero_is_empty(self):
        for w in (PolynomialPhase((0.1, PHI)), Table(np.ones(4))):
            got = weight_samples(w, 0)
            assert got.shape == (0,) and got.dtype == np.complex128


class TestSchedule:
    def test_schedule_values_match_single_shots(self):
        # past 2**14 complex terms numpy's temporary elision can swap the
        # operands of a product, so the schedule reaches 2**15
        _check_schedule_against_single_shots([1, 2, 3, 7, 100, 1 << 14, 1 << 15])

    def test_schedule_values_match_single_shots_around_a_block(self):
        _check_schedule_against_single_shots([B - 1, B, B + 1, 2 * B + 1])

    def test_degree5_weight_has_the_same_bits_at_every_length(self):
        # terms past |n| = 208063 once made every degree-5 phase of the array
        # take base-2**24 digits, and the N = 1024 row moved in its last bits
        anz = AnzaiSkew(SQRT2M1)
        f1 = observable([((0, 1), 1.0), ((1, 0), 0.2 + 0.3j)])
        f2 = observable([((1, 1), 0.6), ((0, 1), 0.4j)])
        p = (0.0, 0.1, 0.2, 0.3, 0.4, 0.123456789)
        rep = run_schedule(anz, (0.2, 0.3), [1024, 1 << 18], ((f1, 1), (f2, 2)),
                           PolynomialPhase(p))
        assert rep.values[0] == poly_wwdr_avg(anz, f1, f2, (0.2, 0.3), 1, 2, p, 1024)

    def test_deltas_are_consecutive_differences(self):
        rot = RotationTorus((PHI,))
        rep = run_schedule(rot, (0.2,), [64, 128, 256], ((E1, 1),))
        assert rep.dyadic_deltas[0] == abs(rep.values[1] - rep.values[0])

    def test_error_budget_from_table_weight(self):
        rot = RotationTorus((PHI,))
        w = Table(np.ones(1024), sup_error_budget=0.25)
        rep = run_schedule(rot, (0.2,), [128, 256], ((E1, 1), (E1, 2)), w)
        assert rep.error_budget == 0.25

    def test_rejects_bad_schedule(self):
        rot = RotationTorus((PHI,))
        for bad in ([64, 64], [], [0, 64], [8.7, 16]):
            with pytest.raises(ValueError):
                run_schedule(rot, (0.2,), bad, ((E1, 1),))


_S = averages._STREAM
# scheduled N anywhere in the first two chunks and at least one at a chunk's edges
_STREAM_EDGES = [_S - 1, _S, _S + 1, 2 * _S + 1]
_STREAM_SCHEDULES = st.tuples(
    st.lists(st.integers(1, 2 * _S + 1), max_size=3),
    st.lists(st.sampled_from(_STREAM_EDGES), min_size=1, max_size=4),
).map(lambda parts: sorted(set(parts[0] + parts[1])))


def _bits(values) -> list[str]:
    """The exact bits of complex or real values, so -0.0 and 0.0 differ."""
    return [v.hex() for z in values for v in (complex(z).real, complex(z).imag)]


def _materialized_dual(system, x0, factors, system_s, gs, schedule):
    """`_dual_expansion` on all N pair terms in one array: each twist e(s n t) of the whole
    base, reduced by `prefix_means`."""
    n = np.arange(1, schedule[-1] + 1, dtype=np.int64)
    base = orbit_terms(system, x0, n, factors)
    weights = averages._dual_weights(gs)
    twist = PolynomialPhase((0.0, system_s.alpha_floats[0]))
    avgs = {s: prefix_means(averages._weighted(base, s * n, twist) if s else base, schedule)
            for s in {s for _, s in weights}}
    coeffs = [dict.fromkeys(sorted({K for K, _ in weights}), 0j) for _ in schedule]
    for (K, s), C in sorted(weights.items()):
        for c, A in zip(coeffs, avgs[s]):
            c[K] += C * A
    return coeffs


class TestStreamedMeans:
    @settings(max_examples=6, deadline=None)
    @given(schedule=_STREAM_SCHEDULES, x=st.floats(0, 0.999), y=st.floats(0, 0.999),
           t=st.floats(-1, 1))
    @example(schedule=sorted([1, 2, 100, _S + 1000] + _STREAM_EDGES), x=0.2, y=0.3, t=0.31)
    def test_means_are_the_prefix_means_of_all_terms(self, schedule, x, y, t):
        anz = AnzaiSkew(SQRT2M1)
        factors = ((_F1, 1), (_F2, -2))
        for weight in (None, PolynomialPhase((0.1, t, PHI))):
            want = prefix_means(orbit_terms(anz, (x, y), np.arange(1, schedule[-1] + 1), factors,
                                            weight), schedule)
            assert _bits(run_schedule(anz, (x, y), schedule, factors, weight).values) == \
                _bits(want)
            assert _bits([_mean(anz, (x, y), schedule[0], factors, weight)]) == _bits(want[:1])
        w = PolynomialPhase((0.1, t, PHI))
        assert _bits(cesaro_nilseq(w, schedule).values) == \
            _bits(prefix_means(weight_samples(w, schedule[-1]), schedule))

    @settings(max_examples=4, deadline=None)
    @given(schedule=_STREAM_SCHEDULES, x=st.floats(0, 0.999), y=st.floats(0, 0.999))
    @example(schedule=sorted([1, 100, _S + 1000] + _STREAM_EDGES), x=0.2, y=0.3)
    def test_dual_norms_are_the_materialized_expansion(self, schedule, x, y):
        anz, s = AnzaiSkew(SQRT2M1), RotationTorus((PHI,))
        factors = ((_F1, 1), (_F2, 2))
        gs = [observable([((1,), 0.5 + 0.2j), ((-2,), 0.3j)]),
              observable([((0,), 0.4), ((1,), 0.6 - 0.1j)])]
        want = _materialized_dual(anz, (x, y), factors, s, gs, schedule)
        got = _dual_expansion(stream_terms(anz, (x, y), schedule[-1], factors), s, gs, schedule)
        assert [list(c) for c, _ in got] == [list(c) for c in want]
        assert _bits(v for c, _ in got for v in c.values()) == \
            _bits(v for c in want for v in c.values())
        norms = run_schedule(anz, (x, y), schedule, factors, reduce=dual_norms(s, gs)).values
        assert _bits(norms) == _bits(math.sqrt(sum(abs(v) ** 2 for v in c.values())) for c in want)

    def test_a_long_mean_holds_a_few_chunks(self):
        # all 2^22 terms and their int64 times would take 24 * 2^22 bytes (96 MiB); the
        # stream holds one chunk of terms, the chunk's times and the core's block temporaries
        # (3.7 MiB measured), within four chunks of terms and times (6 MiB)
        rot, N = RotationTorus((PHI,)), 1 << 22
        f = observable([((0,), 0.4), ((1,), 0.6), ((3,), 0.1j)])
        double_avg(rot, f, f, (0.2,), 1, 2, 1 << 10)  # any lazy set-up outside the measure
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            double_avg(rot, f, f, (0.2,), 1, 2, N)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 24 * _S, peak / 2**20

    def test_times_past_the_skew_limit_raise_before_any_coordinate(self, monkeypatch):
        # only the last chunk's e * n passes the skew's limit, and no chunk is built before
        # the DomainError; one exponent less and the same schedule builds its terms
        anz, calls = AnzaiSkew(SQRT2M1), []
        coords = AnzaiSkew.coords
        monkeypatch.setattr(AnzaiSkew, "coords", lambda s, x, n: calls.append(n.size)
                            or coords(s, x, n))
        schedule = [1, 2 * _S + 1]
        e = SKEW_MAX_TIME // schedule[-1] + 1
        gs = [observable([((1,), 1.0)])]
        for reduce in (means, sups(0.1), dual_norms(RotationTorus((PHI,)), gs)):
            with pytest.raises(DomainError):
                run_schedule(anz, (0.2, 0.3), schedule, ((_F1, 1), (_F2, e)), reduce=reduce)
        with pytest.raises(DomainError):
            double_avg(anz, _F1, _F2, (0.2, 0.3), 1, e, schedule[-1])
        assert calls == []
        run_schedule(anz, (0.2, 0.3), schedule, ((_F1, 1), (_F2, e - 1)))
        assert sum(calls) == 2 * schedule[-1]
