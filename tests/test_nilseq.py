"""Weight sequences: Heisenberg group algebra, lattice invariance, phase
evaluators, products, tables, Cesaro averaging."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ergonil import (
    AnzaiSkew,
    HeisenbergElement,
    HeisenbergNilseq,
    OrbitWeight,
    PolynomialPhase,
    Product,
    RotationTorus,
    Scaled,
    SequenceTooShortError,
    Table,
    ThetaType,
    ToralAutomorphism,
    TorusChar,
    cesaro_nilseq,
    check_gamma_invariance,
    constant_weight,
    heisenberg_pow,
    observable,
    reduce_fundamental,
    table_from_csv,
    weight_samples,
)
from ergonil.averages import orbit_terms
from ergonil.errors import ConfigError, DimensionMismatchError, DomainError, UnsupportedSystemError
from ergonil.harness import build_weight
from ergonil.nilseq import THETA_TAIL, THETA_WIDTH_RANGE, WeightSequence
from ergonil.numerics import PHASE_BOUND, from_turns
from ergonil.systems import SKEW_MAX_TIME

import oracles

PHI = (np.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = np.sqrt(2.0) - 1.0


class TestHeisenbergGroup:
    def test_identity_and_inverse(self):
        g = HeisenbergElement(0.3, 0.7, 0.1)
        e = g * g.inverse()
        assert (e.a, e.b, e.c) == (0.0, 0.0, 0.0)

    def test_pow_zero_and_two(self):
        g = HeisenbergElement(0.3, 0.7, 0.1)
        assert heisenberg_pow(g, 0) == HeisenbergElement(0.0, 0.0, 0.0)
        g2 = heisenberg_pow(g, 2)
        assert np.allclose((g2.a, g2.b, g2.c), (0.6, 1.4, 0.2 + 0.21), atol=1e-15)

    def test_pow_matches_iterated_product(self):
        g = HeisenbergElement(0.3, 0.7, 0.1)
        got = heisenberg_pow(g, 100)
        want = oracles.heisenberg_product(g, 100)
        assert max(abs(got.a - want[0]), abs(got.b - want[1]), abs(got.c - want[2])) < 1e-9

    def test_pow_additive_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = HeisenbergElement(*rng.normal(size=3))
            m, n = int(rng.integers(0, 1000)), int(rng.integers(0, 1000))
            lhs = heisenberg_pow(g, m + n)
            rhs = heisenberg_pow(g, m) * heisenberg_pow(g, n)
            assert max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c)) < 1e-9

    def test_group_law_associative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x, y, z = (HeisenbergElement(*rng.normal(size=3)) for _ in range(3))
            lhs = (x * y) * z
            rhs = x * (y * z)
            assert max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c)) < 1e-12


class TestFundamentalDomain:
    def test_already_reduced(self):
        e = HeisenbergElement(0.2, 0.3, 0.4)
        red, gamma = reduce_fundamental(e)
        assert red == e and gamma == (0, 0, 0)

    def test_worked_example(self):
        red, gamma = reduce_fundamental(HeisenbergElement(1.25, -0.5, 0.7))
        assert gamma == (-1, 1, -1)
        assert np.allclose((red.a, red.b, red.c), (0.25, 0.5, 0.95), atol=1e-12)

    def test_idempotent_and_in_cube(self):
        rng = np.random.default_rng(13)
        # a fractional part that rounds to 1.0 is 0.0, as is -0.0's and a large integer's
        edges = [HeisenbergElement(-1e-17, -0.0, 2.0**52 + 1),
                 HeisenbergElement(-0.0, -5e-324, 1e300)]
        for e in edges + [HeisenbergElement(*(10 * rng.normal(size=3))) for _ in range(10**4)]:
            red, gamma = reduce_fundamental(e)
            assert all(isinstance(v, int) for v in gamma)
            for v in (red.a, red.b, red.c):
                assert 0.0 <= v < 1.0 and math.copysign(1.0, v) == 1.0
            again, gamma2 = reduce_fundamental(red)
            assert again == red and gamma2 == (0, 0, 0)

    def test_reduction_is_lattice_translate(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            e = HeisenbergElement(*(5 * rng.normal(size=3)))
            red, (p, q, r) = reduce_fundamental(e)
            translated = e * HeisenbergElement(float(p), float(q), float(r))
            assert max(abs(translated.a - red.a), abs(translated.b - red.b),
                       abs(translated.c - red.c)) < 1e-12


THETA_WIDTHS = (0.5, 1.0, 2.0, 5.0)


class _BareCenterChar:
    """z-character with the theta sum disabled: not lattice invariant."""

    def eval_raw(self, x, y, z):
        return np.exp(2j * np.pi * np.asarray(z, dtype=float))


class TestGammaInvariance:
    def test_torus_char_exact(self):
        rep = check_gamma_invariance(TorusChar(1, 0), 500, 1e-12)
        assert rep.passed and rep.max_violation < 1e-12

    def test_theta_type_within_tolerance(self):
        rep = check_gamma_invariance(ThetaType(1), 500, 1e-8)
        assert rep.passed and rep.max_violation < 1e-8

    @pytest.mark.parametrize("width", THETA_WIDTHS)
    def test_theta_type_is_invariant_at_every_width(self, width):
        # the window follows the point, so a translate sums the same terms
        assert check_gamma_invariance(ThetaType(1, width=width), 500, 1e-12).passed

    def test_bare_center_character_fails(self):
        rep = check_gamma_invariance(_BareCenterChar(), 500, 1e-8)
        assert not rep.passed and rep.max_violation > 0.1


# (ell, shift, width): lattice translates reach |shift| in each coordinate; the three
# widths have windows R = 4, 2 and 8. At ell = 10^6 the phases are still exact turns, and a
# float ell x would miss the section by about 1e-10.
THETA_CASES = [(1, 8, 1.0), (2, 8, 0.5), (3, 6, 2.0), (10**6, 8, 1.0)]


class TestThetaWindow:
    @pytest.mark.parametrize("ell, shift, width", THETA_CASES)
    def test_window_is_the_smallest_certified_one(self, ell, shift, width):
        th = ThetaType(ell, width=width)
        R = th.window

        def tail(r):  # 2 sum_{m >= r} exp(-pi m^2 / width^2), summed far past underflow
            return 2 * math.fsum(math.exp(-math.pi * (m / width) ** 2) for m in range(r, r + 64))

        assert tail(R) <= th.tail_bound <= THETA_TAIL
        assert R == 1 or th._tail(R - 1) > THETA_TAIL
        assert th.tail_bound <= 1.01 * tail(R)
        assert R == {1.0: 4, 0.5: 2, 2.0: 8}[width]

    def test_width_range_is_declared(self):
        # both edges evaluate warning-free within the bound; past them the window
        # breaks down (1e-200 divides by zero, 1e-160 overflows, 1e5 needs 411,952
        # terms per element), so construction rejects the width
        lo, hi = THETA_WIDTH_RANGE
        assert (lo, hi) == (2.0**-20, 2.0**6)
        x, y, z = 4 * np.random.default_rng(3).random((3, 256))
        for width in (lo, hi):
            th = ThetaType(1, width=width)
            assert np.abs(th.eval_raw(x, y, z)).max() <= th.bound
        assert ThetaType(1, width=hi).window == 246
        for width in (1e-200, 1e-160, 1e5, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf),
                      0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="width"):
                ThetaType(1, width=width)

    def test_error_budget_is_the_tail_bound(self):
        g = HeisenbergElement(PHI, SQRT2M1, 0.2)
        theta = ThetaType(1)
        assert HeisenbergNilseq(g, g, theta).error_budget == theta.tail_bound > 0.0
        assert HeisenbergNilseq(g, g, TorusChar(2, 3)).error_budget == 0.0
        assert Scaled(2.0, HeisenbergNilseq(g, g, theta)).error_budget == 2 * theta.tail_bound

    @pytest.mark.parametrize("ell, shift, width", THETA_CASES)
    def test_heisenberg_theta_matches_the_exact_full_sum(self, ell, shift, width):
        g = HeisenbergElement(PHI, SQRT2M1, 0.2)
        base = HeisenbergElement(0.1, 0.25, 0.7)
        theta = ThetaType(ell, width=width)
        w = HeisenbergNilseq(g, base, theta)
        rng = np.random.default_rng(ell)
        top = 1 << 20
        n = np.concatenate([np.arange(40), rng.integers(40, top, 160), [top - 1, top]])
        exact = [oracles.heisenberg_reduced_exact(g, base, int(m)) for m in n]
        want = np.array([oracles.theta_exact(ell, width, *pt) for pt in exact])
        assert np.abs(w.eval_many(n) - want).max() <= 1e-12
        # at the reduced point as floats the window misses the full sum by at most the
        # reported budget plus roundings: each of e(ell x)'s R steps adds one product's
        # 2 eps, and a turn of x or z may be cut by 2^-64, which e(ell k x) (k <= R) and
        # e(ell z) carry as at most R + 1 times 2 pi |ell| 2^-64 = 2 pi |ell| 2^-12 eps
        pts = np.array([[float(c) for c in pt] for pt in exact])
        at_floats = np.array([oracles.theta_exact(ell, width, *pt) for pt in pts])
        err = np.abs(theta.eval_raw(*pts.T) - at_floats).max()
        ulps = 4 + 2 * theta.window + (theta.window + 1) * 2 * np.pi * abs(ell) * 2.0**-12
        assert err <= w.error_budget + ulps * w.bound * np.finfo(float).eps, (err, ulps)
        # translated by shift in y, each point sums its own window: still the full sum
        x, y, z = pts.T
        p, r = rng.integers(-shift, shift + 1, size=(2, x.size)).astype(np.float64)
        q = rng.choice([-shift, shift], size=x.size).astype(np.float64)
        moved = np.stack([x + p, y + q, z + r + x * q], axis=1)
        want = np.array([oracles.theta_exact(ell, width, *pt) for pt in moved])
        assert np.abs(theta.eval_raw(*moved.T) - want).max() <= 1e-12

    @pytest.mark.parametrize("ell, shift, width", THETA_CASES)
    def test_mixed_windows_have_the_bits_of_each_point_alone(self, ell, shift, width):
        # reduced points and their lattice translates, as check_gamma_invariance
        # builds them, in one array: each element keeps the bits it gets alone
        th = ThetaType(ell, width=width)
        rng = np.random.default_rng(5)
        x, y, z = rng.random((3, 150))
        p, q, r = rng.integers(-shift, shift + 1, size=(3, 150)).astype(np.float64)
        order = rng.permutation(300)
        xs, ys, zs = (np.concatenate(pair)[order] for pair in
                      ((x, x + p), (y, y + q), (z, z + r + x * q)))
        whole = th.eval_raw(xs, ys, zs)
        for i in range(xs.size):
            alone = th.eval_raw(xs[i:i + 1], ys[i:i + 1], zs[i:i + 1])
            assert alone.tobytes() == whole[i:i + 1].tobytes(), i

    @pytest.mark.parametrize("width", THETA_WIDTHS)
    def test_bound_is_theta_at_zero(self, width):
        # theta_w(0) = sum_j exp(-pi j^2 / w^2) = w sum_k exp(-pi w^2 k^2) by Poisson
        # summation; the dual series converges fast at every width used here
        th = ThetaType(1, width=width)
        dual = width * math.fsum(math.exp(-math.pi * (width * k) ** 2) for k in range(-40, 41))
        assert dual <= th.bound <= dual * (1 + 2e-12)
        rng = np.random.default_rng(7)
        x, y, z = rng.random((3, 2000))
        p, q, r = rng.integers(-9, 10, size=(3, 2000)).astype(np.float64)
        y[:3] = 0.0, 0.5, np.nextafter(1.0, 0.0)
        for pt in ((x, y, z), (x + p, y + q, z + r + x * q)):
            assert np.abs(th.eval_raw(*pt)).max() <= th.bound

    def test_far_points_and_gamma_invariance(self):
        # far off [0, 1) each point still sums its own window, so F is the full sum up
        # to the tail and the rounding of j0 x (up to 20 * 0.3), about 2 pi 6 eps
        th = ThetaType(1)
        y = np.array([11.5, -12.25, 20.0, 8.5])
        got = th.eval_raw(0.3, y, 0.0)
        want = [oracles.theta_exact(1, 1.0, 0.3, v, 0.0) for v in y]
        assert np.abs(got - want).max() <= th.tail_bound + 1e-14
        assert check_gamma_invariance(th, 500, 1e-13).passed
        with pytest.raises(DomainError):
            th.eval_raw(0.3, np.nan, 0.0)

    def test_points_far_past_float_precision_are_the_full_sum(self):
        # floor(y) x is folded into z's turn exactly: a float ell floor(y) x would keep no
        # fractional bits at y = 1e17 (and missed the sum by 0.66 there)
        th = ThetaType(1)
        x = np.array([0.3, 0.3, 0.7, 2.0**-40 + 0.1, -0.45])
        y = np.array([1e17, -1e17, 2.0**62 + 2.0**10, -(2.0**63), 12345678.9])
        z = np.array([0.0, 0.2, -3.5, 0.9, 1e9 + 0.25])
        want = [oracles.theta_exact(1, 1.0, *pt) for pt in zip(x, y, z)]
        assert np.abs(th.eval_raw(x, y, z) - want).max() <= th.tail_bound + 1e-14
        assert abs(th.eval_raw(0.3, 1e17, 0.0) - want[0]) <= 1e-14

    @pytest.mark.parametrize("y", [2.0**63, -(2.0**63) * (1 + 2.0**-52), 1e300, -np.inf, np.inf])
    def test_y_past_int64_floors_raises(self, y):
        # floor(y) must be an int64 multiplier of x's turn; just inside both ends it is
        th = ThetaType(2)
        assert np.isfinite(th.eval_raw(0.3, [np.nextafter(2.0**63, 0.0), -(2.0**63)], 0.1)).all()
        with pytest.raises(DomainError, match="int64"):
            th.eval_raw(0.3, [0.5, y], 0.1)


class TestFloatEntryPoints:
    """`eval_raw` of both section functions reads float coordinates as turns."""

    @pytest.mark.parametrize("F", [TorusChar(2**40, -3), TorusChar(-5, 2**40), ThetaType(3),
                                   ThetaType(-(10**6), width=0.5)])
    def test_zero_d_and_broadcast_points_have_the_bits_of_each_point_alone(self, F):
        # turn arithmetic on a uint64 scalar would warn where it wraps (an error here)
        x, y, z = np.array([[0.3], [-2.7], [1e6 + 0.1]]), np.array([0.7, -4.25, 31.5, 0.0]), 0.2
        whole = F.eval_raw(x, y, z)
        assert whole.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                alone = F.eval_raw(x[i, 0], y[j], z)
                assert np.ndim(alone) == 0 and alone.dtype == np.complex128
                assert complex(alone) == complex(whole[i, j])
                assert F.eval_raw(np.array(x[i, 0]), np.array(y[j]), np.array(z)) == alone

    @pytest.mark.parametrize("m, k", [(2**40, -2**33), (2**40 - 1, 2**40), (-3, 2**40 + 7),
                                      (-(2**40), 1), (1, 0)])
    def test_torus_char_within_the_phase_bound_at_large_frequencies(self, m, k):
        # x and y have 53 fractional bits at most, so m X + k Y is the exact turn; a float
        # m x + k y near 2^39 is a multiple of 2^-13 (and missed by 3.8e-4 at m = 2^40)
        x, y = np.random.default_rng(11).random((2, 256))
        turns = [oracles.turn_of(m * oracles.Fraction(a) + k * oracles.Fraction(b))
                 for a, b in zip(x.tolist(), y.tolist())]
        got = TorusChar(m, k).eval_raw(x, y, 0.0)
        assert oracles.phase_distance(got, turns).max() <= PHASE_BOUND + 2.0**-58


class TestWeights:
    def test_constant_polynomial_phase(self):
        w = PolynomialPhase((0.0,))
        assert (w.eval_many(np.arange(10)) == 1.0).all()
        assert w.eval(7) == 1.0

    def test_half_turn_phase(self):
        w = PolynomialPhase((0.0, 0.5))
        vals = w.eval_many(np.arange(8))
        assert np.allclose(vals, [1, -1, 1, -1, 1, -1, 1, -1], atol=1e-15)

    @pytest.mark.parametrize("coeffs", [(0.1, PHI), (0.0, 0.0, PHI), (0.2, 0.3, 0.1, SQRT2M1),
    	                                 (0.0, 0.1, 0.2, 0.3, PHI)])
    def test_polynomial_phase_matches_exact_rational(self, coeffs):
        w = PolynomialPhase(coeffs)
        ns = np.array([0, 1, 2, 1000, 65536, 2**20], dtype=np.int64)
        got = w.eval_many(ns)
        want = oracles.unit([oracles.exact_phase(coeffs, int(n)) for n in ns])
        assert np.abs(got - want).max() < 1e-12

    def test_degree_five_falls_back_to_exact_integers(self):
        coeffs = (0.0, 0.0, 0.0, 0.0, 0.0, PHI)
        w = PolynomialPhase(coeffs)
        ns = np.array([3, 10, 12345], dtype=np.int64)
        want = oracles.unit([oracles.exact_phase(coeffs, int(n)) for n in ns])
        assert np.abs(w.eval_many(ns) - want).max() < 1e-12

    def test_heisenberg_toruschar_equals_linear_phase(self):
        # with F = e(m x + k y) and base at the identity the sequence is the
        # 1-step phase e(n (m alpha + k beta))
        alpha, beta = PHI, SQRT2M1
        w = HeisenbergNilseq(
            HeisenbergElement(alpha, beta, 0.1),
            HeisenbergElement.identity(),
            TorusChar(2, 3),
        )
        n = np.arange(10**4 + 1)
        want = oracles.unit([
            float((oracles.Fraction(alpha) * 2 * int(m) + oracles.Fraction(beta) * 3 * int(m)) % 1)
            for m in n
        ])
        assert np.abs(w.eval_many(n) - want).max() < 1e-10

    def test_heisenberg_base_point_shifts(self):
        g = HeisenbergElement(PHI, SQRT2M1, 0.2)
        base = HeisenbergElement(0.1, 0.25, 0.7)
        w = ThetaType(1)
        seq = HeisenbergNilseq(g, base, w)
        for n in (0, 1, 5, 117):
            pt, _ = reduce_fundamental(heisenberg_pow(g, n) * base)
            want = complex(w.eval_raw(pt.a, pt.b, pt.c))
            assert abs(seq.eval(n) - want) < 1e-9

    def test_torus_nilseq(self):
        func = observable([((1,), 0.5), ((0,), 0.5)])
        w = OrbitWeight(RotationTorus((PHI,)), func, (0.25,))
        n = np.arange(100)
        want = 0.5 + 0.5 * oracles.unit([oracles.exact_phase((0.25, PHI), int(m)) for m in n])
        assert np.abs(w.eval_many(n) - want).max() < 1e-14
        assert w.bound == func.bound

    def test_torus_nilseq_past_float_times(self):
        # n alpha for n past 2^53: the time itself is no longer a float
        func = observable([((1, 0), 1.0), ((0, 1), 0.5j)])
        alpha, base = (PHI, SQRT2M1), (0.25, 0.1)
        w = OrbitWeight(RotationTorus(alpha), func, base)
        n = np.array([(1 << 53) + 1, (1 << 60) + 3, -(1 << 60) - 3], dtype=np.int64)
        want = (oracles.unit([oracles.exact_phase((base[0], alpha[0]), int(m)) for m in n])
                + 0.5j * oracles.unit([oracles.exact_phase((base[1], alpha[1]), int(m)) for m in n]))
        assert np.abs(w.eval_many(n) - want).max() < 1e-12

    def test_product_is_pointwise_product(self):
        w1 = PolynomialPhase((0.0, 0.3))
        w2 = PolynomialPhase((0.1, 0.0, 0.2))
        prod = Product(w1, w2)
        n = np.arange(1000)
        assert (prod.eval_many(n) == w1.eval_many(n) * w2.eval_many(n)).all()
        assert prod.bound == w1.bound * w2.bound

    def test_product_with_one_is_identity(self):
        w = PolynomialPhase((0.0, 0.0, PHI))
        prod = Product(w, constant_weight(1.0))
        n = np.arange(1000)
        assert np.abs(prod.eval_many(n) - w.eval_many(n)).max() == 0.0

    def test_phase_products_add_exponents(self):
        t1, t2 = 0.3, 0.4512
        prod = Product(PolynomialPhase((0.0, t1)), PolynomialPhase((0.0, t2)))
        direct = PolynomialPhase((0.0, t1 + t2))
        n = np.arange(1000)
        assert np.abs(prod.eval_many(n) - direct.eval_many(n)).max() < 1e-12

    def test_scaled_is_exact_multiple(self):
        w = PolynomialPhase((0.0, PHI))
        lam = 0.25 - 0.5j
        s = Scaled(lam, w)
        n = np.arange(500)
        assert (s.eval_many(n) == lam * w.eval_many(n)).all()
        assert s.bound == abs(lam) * w.bound

    def test_bounds_hold_everywhere(self):
        seqs = [
            PolynomialPhase((0.1, 0.2, 0.3)),
            OrbitWeight(RotationTorus((PHI,)), observable([((1,), 0.7), ((2,), 0.3j)]), (0.0,)),
            HeisenbergNilseq(HeisenbergElement(PHI, 0.3, 0.1), HeisenbergElement.identity(),
                             ThetaType(2)),
            Scaled(2.0j, PolynomialPhase((0.0, 0.25))),
            Product(PolynomialPhase((0.0, 0.3)), Scaled(0.5, PolynomialPhase((0.0,)))),
        ]
        n = np.arange(2000)
        for w in seqs:
            assert np.abs(w.eval_many(n)).max() <= w.bound + 1e-12


class _LeftView(WeightSequence):
    """A weight whose values come back as a view into a larger fresh buffer."""

    def __init__(self, inner):
        self.inner = inner

    def eval_many(self, n):
        buf = np.empty(len(n) + 1, dtype=np.complex128)
        buf[1:] = self.inner.eval_many(n)
        return buf[1:]


class TestProductOrder:
    @pytest.mark.parametrize("size", [1, 5, 1 << 14, (1 << 15) + 3])
    def test_left_view_keeps_operand_order(self, size):
        # from 2^14 elements numpy elides `view * temporary` into `temporary *= view`,
        # and with FMA the swapped complex product rounds differently in about a third
        # of the elements; the product stays left * right
        left, right = PolynomialPhase((0.1, PHI, 0.3)), PolynomialPhase((0.2, SQRT2M1, 0.7))
        n = np.arange(size, dtype=np.int64)
        want = np.multiply(left.eval_many(n), right.eval_many(n))
        got = Product(_LeftView(left), right).eval_many(n)
        assert got.tobytes() == want.tobytes()
        assert Product(left, right).eval_many(n).tobytes() == want.tobytes()


# (system, base point, F): one case per system kind
_ORBIT_CASES = {
    "rotation": (RotationTorus((PHI, SQRT2M1)), (0.2, 0.7),
                 observable([((1, 1), 0.6), ((0, 1), 0.4j), ((3, -2), 0.1), ((0, 0), -0.1)])),
    "skew": (AnzaiSkew(PHI), (0.2, 0.3),
             observable([((0, 1), 1.0), ((1, 0), 0.2 + 0.3j), ((2, -1), 0.5j)])),
    "cat": (ToralAutomorphism(((2, 1), (1, 1))), (3, 5),
            observable([((1, 0), 0.5), ((1, 2), 0.25j), ((0, 0), 0.125)])),
}
# arithmetic progressions, so the lattice takes them too
_ORBIT_TIMES = {
    "long": np.arange((1 << 15) + 2, dtype=np.int64),
    "negative": np.arange(40, -20000, -3, dtype=np.int64),
    "one": np.array([-7], dtype=np.int64),
}


class TestOrbitWeight:
    @pytest.mark.parametrize("times", list(_ORBIT_TIMES))
    @pytest.mark.parametrize("kind", list(_ORBIT_CASES))
    def test_equals_the_orbit_terms(self, kind, times):
        system, y, F = _ORBIT_CASES[kind]
        n = _ORBIT_TIMES[times]
        want = orbit_terms(system, y, n, ((F, 1),))
        w = OrbitWeight(system, F, y)
        assert orbit_terms(None, None, n, weight=w).tobytes() == want.tobytes()
        assert w.eval_many(n).tobytes() == want.tobytes()
        assert w.bound == F.bound and w.error_budget == 0.0 and w.length is None

    def test_torus_nilseq_config_builds_a_rotation_orbit(self):
        spec = {"kind": "torus_nilseq", "alpha": [PHI, SQRT2M1], "base": [0.1, 0.7],
                "observable": {"terms": [[[1, 1], 0.6], [[0, 1], [0.0, 0.4]]]}}
        w = build_weight(spec, "weight", Path("."))
        assert w == OrbitWeight(RotationTorus((PHI, SQRT2M1)), w.func, (0.1, 0.7))

    @pytest.mark.parametrize("kind", list(_ORBIT_CASES))
    def test_the_system_checks_the_base(self, kind):
        system, y, F = _ORBIT_CASES[kind]
        bad = (1.5, 0.2) if kind != "cat" else (3.7, 5)
        with pytest.raises(ValueError):
            OrbitWeight(system, F, bad)
        with pytest.raises(DimensionMismatchError):
            OrbitWeight(system, F, y[:1])
        with pytest.raises(DimensionMismatchError):
            OrbitWeight(system, observable([((1,), 1.0)]), y)
        with pytest.raises(UnsupportedSystemError):
            OrbitWeight(None, F, y)


class _Coordinates:
    """Probe F returning the reduced point (x, y, z) itself, x and z rounded from their turns."""

    bound = 1.0

    def eval_turns(self, X, y, Z):
        return np.stack([from_turns(X), y, from_turns(Z)], axis=-1)


def _reduced_exact(g, base, n):
    """g^n * base in exact rationals, reduced as eval_many reduces it."""
    ga, gb, gc = (oracles.Fraction(v) for v in (g.a, g.b, g.c))
    u, v, w = (oracles.Fraction(c) for c in (base.a, base.b, base.c))
    X, Y = n * ga + u, n * gb + v
    Z = n * gc + ga * gb * oracles.Fraction(n * (n - 1), 2) + w + n * ga * v
    q = -(Y.numerator // Y.denominator)
    return np.array([float(X % 1), float(Y % 1), float((Z + X * q) % 1)])


class TestHeisenbergDomain:
    BASE = HeisenbergElement(0.1, 0.25, 0.7)

    @pytest.mark.parametrize("gb, n", [
        (0.3, (1 << 27) - 1), (0.3, -(1 << 27) + 1), (0.3, (1 << 26) + 3),
        # the skew's time limit, where n(n-1) fits in int64: floor(Y) * n is about 9.2e14
        (1e-4, SKEW_MAX_TIME), (1e-4, -SKEW_MAX_TIME),
        # floor(Y) * n = 2^53 - 2^27, 2^53 and about 9.5e16: an int64 twist takes them exactly
        (2.0 - 1.5 / (1 << 26), 1 << 26), (2.0 + 1.0 / (1 << 27), 1 << 26), (5.3, (1 << 27) - 1),
        # floor(Y) * n = (2^32 - 2)(2^31 - 1), just below 2^63
        (2.0, (1 << 31) - 1),
        # |n g.b| + |base.b| just below 2^50, where floor(Y) is still exact
        ((2.0**50 - 2) / 3 + 1 / 7, 3), (-((2.0**50 - 2) / 3 + 1 / 7), -3),
    ])
    def test_just_inside_limits(self, gb, n):
        g = HeisenbergElement(PHI, gb, 0.1)
        got = HeisenbergNilseq(g, self.BASE, _Coordinates()).eval_many(np.array([n]))[0]
        diff = np.abs(got - _reduced_exact(g, self.BASE, n))
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(g=st.tuples(*[st.floats(-4.0, 4.0)] * 3), times=st.lists(
        st.integers(-SKEW_MAX_TIME, SKEW_MAX_TIME), min_size=1, max_size=6))
    def test_exact_up_to_the_time_limit(self, g, times):
        g = HeisenbergElement(*g)
        # keep the twist floor(Y) * n in int64: |floor(Y)| <= |n g.b| + 1 at every drawn time,
        # so the largest time bounds both factors (|n g.b| stays far below 2^50)
        n = np.array([m for m in times if abs(m) * (abs(m * g.b) + 2) < 2**63], np.int64)
        assume(n.size)
        got = HeisenbergNilseq(g, self.BASE, _Coordinates()).eval_many(n)
        want = np.array([_reduced_exact(g, self.BASE, int(m)) for m in n])
        diff = np.abs(got - want)
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12

    @pytest.mark.parametrize("gb, n", [
        (1e-4, SKEW_MAX_TIME + 1), (1e-4, -SKEW_MAX_TIME - 1),
        # |n g.b| = 2^50: floor(Y) would no longer be exact
        (2.0**20, 1 << 30),
        # floor(Y) * n = 2^33 * 2^31 = 2^64: the twist would not fit in int64
        (4.0, 1 << 31),
    ])
    def test_past_limits_raise(self, gb, n):
        match = {2.0**20: "2\\^50", 4.0: "int64"}.get(gb, "limit")  # the guard that fires
        w = HeisenbergNilseq(HeisenbergElement(PHI, gb, 0.1), self.BASE, _Coordinates())
        with pytest.raises(DomainError, match=match):
            w.eval_many(np.array([0, 7, n]))
        with pytest.raises(DomainError, match=match):
            HeisenbergNilseq(w.g, self.BASE, TorusChar(1, 1)).eval(n)


    @pytest.mark.parametrize("g", [HeisenbergElement(PHI, 0.3, 0.1),
                                   HeisenbergElement(1e-5, 2.0**-40 + 2.0**-90, -3e-7)])
    def test_no_warning_for_empty_one_element_and_zero_d_times(self, g):
        w = HeisenbergNilseq(g, self.BASE, TorusChar(2, -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (SKEW_MAX_TIME, -SKEW_MAX_TIME, 0, -1):
                want = w.eval_many(np.array([n, 5]))[0]
                assert w.eval(n) == w.eval_many(np.array(n)) == want
            assert w.eval_many(np.array([], np.int64)).shape == (0,)


class TestHeisenbergMemory:
    def test_coordinate_stage_peak_is_pinned(self):
        # on one block of the blocked core, with a character as F so the coordinate
        # stage dominates: the turn sums write into block-sized buffers, and the
        # whole evaluation stays within 12 block-sized float arrays
        block = 1 << 14
        w = HeisenbergNilseq(HeisenbergElement(PHI, 0.3, 0.1), HeisenbergElement(0.1, 0.25, 0.7),
                             TorusChar(1, 1))
        n = np.arange(block, dtype=np.int64)
        w.eval_many(n[:2])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            w.eval_many(n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * block, peak / (8 * block)


class TestConstructorsCheckTheirNumbers:
    """What the config reader rejects, the library constructors reject too, with a
    `ValueError` in place of a weight that returns NaN or the wrong function."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_table_value_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            Table([1.0, value, 0.5j])

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -0.5])
    def test_table_budget_must_be_finite_and_nonnegative(self, budget):
        with pytest.raises(ValueError, match="sup_error_budget"):
            Table(np.ones(4), sup_error_budget=budget)

    @pytest.mark.parametrize("coefficients", [(np.nan, 0.1), (0.0, PHI, np.inf), (-np.inf,)])
    def test_polynomial_coefficients_must_be_finite(self, coefficients):
        # (nan, 0.1) once built and raised only when evaluated, from frac_poly
        with pytest.raises(ValueError, match="finite"):
            PolynomialPhase(coefficients)

    @pytest.mark.parametrize("scale", [np.inf, complex(np.nan, 0.0), complex(0.0, -np.inf)])
    def test_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="finite"):
            Scaled(scale, PolynomialPhase((0.0, PHI)))

    @pytest.mark.parametrize("g, base", [((np.nan, 0.3, 0.1), (0.1, 0.25, 0.7)),
                                         ((PHI, np.inf, 0.1), (0.1, 0.25, 0.7)),
                                         ((PHI, 0.3, 0.1), (0.1, 0.25, -np.inf))])
    def test_heisenberg_elements_must_be_finite(self, g, base):
        with pytest.raises(ValueError, match="finite"):
            HeisenbergNilseq(HeisenbergElement(*g), HeisenbergElement(*base), TorusChar(1, 1))

    @pytest.mark.parametrize("m, k", [(1.5, 0), (0, -0.5), (np.nan, 1), (1, np.inf)])
    def test_torus_char_frequencies_must_be_integers(self, m, k):
        # e(1.5 x) is not lattice-invariant
        with pytest.raises(ValueError, match="integer"):
            TorusChar(m, k)

    def test_theta_frequency_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            ThetaType(1.5)

    def test_integral_floats_are_accepted(self):
        assert TorusChar(1.0, np.float64(-2.0)) == TorusChar(1, -2)
        assert ThetaType(2.0).ell == 2


class TestTable:
    def test_roundtrip_csv(self, tmp_path):
        path = tmp_path / "weights.csv"
        vals = np.exp(2j * np.pi * np.arange(16) * 0.1)
        lines = ["n,re,im"] + ["%d,%.17g,%.17g" % (i, v.real, v.imag) for i, v in enumerate(vals)]
        path.write_text("\n".join(lines) + "\n")
        w = table_from_csv(path, sup_error_budget=0.125)
        assert w.length == 16
        assert w.error_budget == 0.125
        assert np.abs(w.eval_many(np.arange(16)) - vals).max() == 0.0

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,re,im\n0,1,0\n2,1,0\n")
        with pytest.raises(ConfigError, match="no gaps"):
            table_from_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,re,im\n0,1,0\n1,0,{value}\n")
        with pytest.raises(ConfigError, match="row 1 has a non-finite value"):
            table_from_csv(path)

    def test_out_of_range(self):
        w = Table(np.ones(8))
        with pytest.raises(SequenceTooShortError):
            w.eval_many(np.arange(9))
        with pytest.raises(SequenceTooShortError):
            weight_samples(w, 9)

    def test_budget_propagates_through_products(self):
        t = Table(np.ones(32), sup_error_budget=0.01)
        w = Product(t, Scaled(2.0, PolynomialPhase((0.0,))))
        assert w.error_budget == pytest.approx(0.02)
        assert Scaled(3.0, t).error_budget == pytest.approx(0.03)


class TestCesaro:
    def test_constant_sequence(self):
        rep = cesaro_nilseq(constant_weight(1.0), [4, 8, 16])
        assert all(v == 1.0 for v in rep.values)

    def test_alternating_sequence(self):
        rep = cesaro_nilseq(PolynomialPhase((0.0, 0.5)), [3, 4, 5, 8])
        # partial means are 1/N for odd N (starting from n=0), 0 for even
        assert np.allclose(rep.values, [1 / 3, 0.0, 1 / 5, 0.0], atol=1e-15)

    def test_quadratic_golden_phase_small(self):
        # |A_N| at N = 2**16 frozen from the direct-summation oracle: 0.0023691
        rep = cesaro_nilseq(PolynomialPhase((0.0, 0.0, PHI)), [1 << k for k in range(10, 17)])
        assert abs(rep.value_at(1 << 16)) < 0.02
        direct = oracles.direct_mean(oracles.unit(oracles.exact_phase_seq((0.0, 0.0, PHI), 1 << 12)))
        assert abs(rep.value_at(1 << 12) - direct) < 1e-10

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            cesaro_nilseq(constant_weight(1.0), [8, 8])

    def test_error_budget_carried(self):
        w = Table(np.ones(64), sup_error_budget=0.5)
        rep = cesaro_nilseq(w, [16, 32])
        assert rep.error_budget == 0.5
