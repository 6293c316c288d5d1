"""Weight sequences: Heisenberg group algebra, lattice invariance, phase
evaluators, products, tables, Cesaro averaging."""

import numpy as np
import pytest

from ergonil import (
    HeisenbergElement,
    HeisenbergNilseq,
    PolynomialPhase,
    Product,
    Scaled,
    SequenceTooShortError,
    Table,
    ThetaType,
    TorusChar,
    TorusNilseq,
    cesaro_nilseq,
    check_gamma_invariance,
    constant_weight,
    eval_weight,
    heisenberg_pow,
    observable,
    product_weight,
    reduce_fundamental,
    table_from_csv,
    weight_samples,
)
from ergonil.errors import ConfigError, DomainError

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
        for _ in range(10**4):
            e = HeisenbergElement(*(10 * rng.normal(size=3)))
            red, gamma = reduce_fundamental(e)
            assert all(isinstance(v, int) for v in gamma)
            for v in (red.a, red.b, red.c):
                assert 0.0 <= v < 1.0
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


class _BareCenterChar:
    """z-character with the theta sum disabled: not lattice invariant."""

    def eval_raw(self, x, y, z):
        return np.exp(2j * np.pi * np.asarray(z, dtype=float))


class TestGammaInvariance:
    def test_torus_char_exact(self):
        rep = check_gamma_invariance(TorusChar(1, 0), 500, 1e-12)
        assert rep.passed and rep.max_violation < 1e-12

    def test_theta_type_within_tolerance(self):
        rep = check_gamma_invariance(ThetaType(1, 8, 1.0), 500, 1e-8)
        assert rep.passed and rep.max_violation < 1e-8

    def test_bare_center_character_fails(self):
        rep = check_gamma_invariance(_BareCenterChar(), 500, 1e-8)
        assert not rep.passed and rep.max_violation > 0.1


class TestWeights:
    def test_constant_polynomial_phase(self):
        w = PolynomialPhase((0.0,))
        assert (w.eval_many(np.arange(10)) == 1.0).all()
        assert eval_weight(w, 7) == 1.0

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
        w = ThetaType(1, 8, 1.0)
        seq = HeisenbergNilseq(g, base, w)
        for n in (0, 1, 5, 117):
            pt, _ = reduce_fundamental(heisenberg_pow(g, n) * base)
            want = complex(w.eval_raw(pt.a, pt.b, pt.c))
            assert abs(seq.eval(n) - want) < 1e-9

    def test_torus_nilseq(self):
        func = observable([((1,), 0.5), ((0,), 0.5)])
        w = TorusNilseq((PHI,), func, (0.25,))
        n = np.arange(100)
        want = 0.5 + 0.5 * oracles.unit([oracles.exact_phase((0.25, PHI), int(m)) for m in n])
        assert np.abs(w.eval_many(n) - want).max() < 1e-14
        assert w.bound == func.bound

    def test_torus_nilseq_past_float_times(self):
        # n alpha for n past 2^53: the time itself is no longer a float
        func = observable([((1, 0), 1.0), ((0, 1), 0.5j)])
        alpha, base = (PHI, SQRT2M1), (0.25, 0.1)
        w = TorusNilseq(alpha, func, base)
        n = np.array([(1 << 53) + 1, (1 << 60) + 3, -(1 << 60) - 3], dtype=np.int64)
        want = (oracles.unit([oracles.exact_phase((base[0], alpha[0]), int(m)) for m in n])
                + 0.5j * oracles.unit([oracles.exact_phase((base[1], alpha[1]), int(m)) for m in n]))
        assert np.abs(w.eval_many(n) - want).max() < 1e-12

    def test_product_is_pointwise_product(self):
        w1 = PolynomialPhase((0.0, 0.3))
        w2 = PolynomialPhase((0.1, 0.0, 0.2))
        prod = product_weight(w1, w2)
        n = np.arange(1000)
        assert (prod.eval_many(n) == w1.eval_many(n) * w2.eval_many(n)).all()
        assert prod.bound == w1.bound * w2.bound

    def test_product_with_one_is_identity(self):
        w = PolynomialPhase((0.0, 0.0, PHI))
        prod = product_weight(w, constant_weight(1.0))
        n = np.arange(1000)
        assert np.abs(prod.eval_many(n) - w.eval_many(n)).max() == 0.0

    def test_phase_products_add_exponents(self):
        t1, t2 = 0.3, 0.4512
        prod = product_weight(PolynomialPhase((0.0, t1)), PolynomialPhase((0.0, t2)))
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
            TorusNilseq((PHI,), observable([((1,), 0.7), ((2,), 0.3j)]), (0.0,)),
            HeisenbergNilseq(HeisenbergElement(PHI, 0.3, 0.1), HeisenbergElement.identity(),
                             ThetaType(2, 8, 1.0)),
            Scaled(2.0j, PolynomialPhase((0.0, 0.25))),
            Product(PolynomialPhase((0.0, 0.3)), Scaled(0.5, PolynomialPhase((0.0,)))),
        ]
        n = np.arange(2000)
        for w in seqs:
            assert np.abs(w.eval_many(n)).max() <= w.bound + 1e-12


class _Coordinates:
    """Probe F returning the reduced point (x, y, z) itself."""

    bound = 1.0

    def eval_raw(self, x, y, z):
        return np.stack([x, y, z], axis=-1)


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
        # floor(Y) = 2^27 - 2, so floor(Y) * n = 2^53 - 2^27, just inside
        (2.0 - 1.5 / (1 << 26), 1 << 26),
    ])
    def test_just_inside_limits(self, gb, n):
        g = HeisenbergElement(PHI, gb, 0.1)
        got = HeisenbergNilseq(g, self.BASE, _Coordinates()).eval_many(np.array([n]))[0]
        diff = np.abs(got - _reduced_exact(g, self.BASE, n))
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12

    @pytest.mark.parametrize("gb, n", [
        (0.3, 1 << 27), (0.3, -(1 << 27)),
        # floor(Y) * n = 2^53 and about 9.5e16, past the exact twist
        (2.0 + 1.0 / (1 << 27), 1 << 26), (5.3, (1 << 27) - 1),
    ])
    def test_past_limits_raise(self, gb, n):
        w = HeisenbergNilseq(HeisenbergElement(PHI, gb, 0.1), self.BASE, _Coordinates())
        with pytest.raises(DomainError):
            w.eval_many(np.array([0, 7, n]))
        with pytest.raises(DomainError):
            HeisenbergNilseq(w.g, self.BASE, TorusChar(1, 1)).eval(n)


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
