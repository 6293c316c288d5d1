"""Numerics: the uint64 turn kernels (`turn_sum`, `to_turns`, `from_turns`) and the
mod-1 polynomial kernel `frac_poly` against exact rational arithmetic, over all of
int64 and every small degree: bit for bit where every part has one word, within the
stated bound where a part has a second word; `frac` and `unit_phase` against their
allocating references, bit for bit."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergonil import DomainError, PolynomialPhase
from ergonil import numerics
from ergonil.numerics import (frac, frac_poly, from_turns, ordered_product, to_turns, turn_sum,
                              unit_phase)

import oracles
from oracles import circle_distance, rounded

PHI = (np.sqrt(5.0) - 1.0) / 2.0
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
EDGES = [0, 1, -1, (1 << 26) - 1, (1 << 26) + 1, -(1 << 26) - 1, (1 << 53) - 1, (1 << 53) + 1,
         -(1 << 53) - 1, INT64_MAX, -INT64_MAX, INT64_MIN]
# around the largest |n| whose n**h is an exact float
ROOTS = [s * (m + d) for m in (94906265, 208063, 9741, 1552, 456, 1 << 53)
         for d in (0, 1) for s in (1, -1)]


def circle_error(coefficients, ns):
    got = frac_poly(coefficients, np.array(ns, dtype=np.int64))
    want = np.array([oracles.exact_phase(coefficients, n) for n in ns])
    d = np.abs(got - want)
    assert ((got >= 0.0) & (got < 1.0)).all()
    return float(np.minimum(d, 1.0 - d).max())


coefficient = st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)
TWO_WORD = 2.0**-52  # the most a part with a second word moves a value (README)
HALF_ULP = 2.0**-54  # the final rounding of a value in [0, 1)
# coefficients with at most 64 fractional bits: every |c| >= 2**-12, and dyadic ones below
short_coefficient = (st.floats(-4.0, 4.0).filter(lambda c: c == 0.0 or abs(c) >= 2.0**-12)
                     | st.builds(math.ldexp, st.integers(-(1 << 53), 1 << 53), st.integers(-64, 0))
                     | st.sampled_from([2.0**60, -3.0, 0.5, 2.0**-64, -(2.0**-63)]))


def _root_below(bound, d):
    """Largest m with m**d < bound."""
    m = math.isqrt(bound) if d == 2 else int(bound ** (1.0 / d)) + 1
    while m**d >= bound:
        m -= 1
    return m


class TestFracPoly:
    @settings(max_examples=300, deadline=None)
    @given(
        coefficients=st.integers(0, 6).flatmap(lambda d: st.lists(coefficient, min_size=d + 1,
                                                                  max_size=d + 1)),
        ns=st.lists(st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(EDGES),
                    min_size=1, max_size=8),
    )
    def test_matches_exact_rationals(self, coefficients, ns):
        assert circle_error(coefficients, ns) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        coefficients=st.integers(0, 6).flatmap(lambda d: st.lists(coefficient, min_size=d + 1,
                                                                  max_size=d + 1)),
        ns=st.lists(st.integers(INT64_MIN, INT64_MAX) | st.integers(-(1 << 30), 1 << 30)
                    | st.sampled_from(EDGES + ROOTS), min_size=1, max_size=12),
    )
    def test_each_value_depends_on_its_own_time_only(self, coefficients, ns):
        ns = np.array(ns, dtype=np.int64)
        together = frac_poly(coefficients, ns)
        for i in range(ns.size):
            assert together[i:i + 1].tobytes() == frac_poly(coefficients, ns[i:i + 1]).tobytes()

    def test_degree5_value_does_not_depend_on_the_longest_time(self):
        # past |n| = 1552, n**5 is no exact float; the times below keep their bits
        p = (0.0, 0.1, 0.2, 0.3, 0.4, 0.123456789)
        ns = np.arange(1, (1 << 18) + 1, dtype=np.int64)
        assert frac_poly(p, ns)[:1024].tobytes() == frac_poly(p, ns[:1024]).tobytes()

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
    def test_int64_edges_every_degree(self, degree):
        rng = np.random.default_rng(degree)
        for scale in (1.0, 1e-5, 1e-30):
            coefficients = tuple(rng.uniform(-1.0, 1.0, degree + 1) * scale)
            assert circle_error(coefficients, EDGES) < 1e-12

    @pytest.mark.parametrize("degree", [8, 20])
    def test_high_degree_at_int64_max(self, degree):
        # |c| * n^d reaches 2^1200 here: far past what a float product can hold
        coefficients = (0.1,) * degree + (PHI,)
        assert circle_error(coefficients, [INT64_MAX, INT64_MIN, (1 << 60) + 3, 12345]) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), degree=st.integers(0, 6))
    def test_short_coefficients_are_correctly_rounded(self, data, degree):
        # every c_j with at most 64 fractional bits: each part is exact in turns, so the
        # value is the exact one rounded once
        coefficients = data.draw(st.lists(short_coefficient, min_size=degree + 1,
                                          max_size=degree + 1))
        ns = data.draw(st.lists(st.integers(INT64_MIN, INT64_MAX)
                                | st.sampled_from(EDGES + ROOTS), min_size=1, max_size=12))
        got = frac_poly(coefficients, np.array(ns, dtype=np.int64))
        want = [rounded(sum(Fraction(c) * m**j for j, c in enumerate(coefficients)))
                for m in ns]
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), degree=st.integers(2, 6))
    def test_wide_coefficients_within_the_bound(self, data, degree):
        # a c_j with more than 64 fractional bits enters as base-2**24 digit parts, each
        # with a second word: within TWO_WORD per part, plus the final rounding
        wide = st.sampled_from([1e-5, 2.0**-40 + 2.0**-90, -3e-7, 1e-30, 5e-324, PHI * 2.0**-13])
        coefficients = data.draw(st.lists(short_coefficient | wide, min_size=degree + 1,
                                          max_size=degree + 1))
        ns = data.draw(st.lists(st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(EDGES),
                                min_size=1, max_size=8))
        got = frac_poly(coefficients, np.array(ns, dtype=np.int64))
        parts = sum(-(-(c.as_integer_ratio()[1].bit_length() - 1) // 24)
                    for j, c in enumerate(coefficients) if j > 1)
        for g, m in zip(got, ns):
            exact = sum(Fraction(c) * m**j for j, c in enumerate(coefficients))
            assert 0.0 <= g < 1.0
            assert circle_distance(float(g), exact) <= parts * TWO_WORD + HALF_ULP

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("bits, digits", [(64, False), (65, True)])
    def test_64_fractional_bits_take_int64_and_65_take_digits(self, monkeypatch, degree, bits,
                                                              digits):
        calls, power_digits = [], numerics._power_digits
        monkeypatch.setattr(numerics, "_power_digits",
                            lambda n, j, *rest: calls.append(j) or power_digits(n, j, *rest))
        coefficients = (0.25, PHI) + (0.0,) * (degree - 2) + (3.0 * 2.0**-bits,)
        ns = [INT64_MAX, INT64_MIN, (1 << 53) + 1, -(1 << 53) - 1]
        assert circle_error(coefficients, ns) < 1e-12
        assert (degree in calls) == digits

    def test_int64_array_powers_wrap_without_a_warning(self):
        # the int64 form relies on this: pytest makes a RuntimeWarning an error, and a scalar
        # int64 product that overflows does warn
        ns = np.array([INT64_MAX, INT64_MIN, 3037000500, -(1 << 53) - 1], dtype=np.int64)
        for j in range(2, 7):
            wrapped = [((m**j + (1 << 63)) % (1 << 64)) - (1 << 63) for m in map(int, ns)]
            assert (ns**j).tolist() == wrapped

    def test_scalar_and_empty(self):
        assert frac_poly((0.5, 0.25), 3) == 0.25
        assert isinstance(frac_poly((0.5, 0.25), 3), float)
        assert frac_poly((0.1, PHI), np.array([], dtype=np.int64)).shape == (0,)

    def test_integer_coefficients_add_nothing(self):
        ns = np.array(EDGES, dtype=np.int64)
        assert (frac_poly((0.25, 3.0, -7.0, 2.0**60), ns) == 0.25).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_raises(self, bad):
        # the kernel still refuses it; a `PolynomialPhase` now refuses it when built
        with pytest.raises(DomainError, match="finite"):
            frac_poly((0.0, PHI, bad), [1, 2])
        with pytest.raises(ValueError, match="finite"):
            PolynomialPhase((bad,))


BLOCK = 1 << 14  # the block length of `averages.orbit_terms`


class TestFrac:
    def test_negative_zero_gives_positive_zero(self):
        for f in (frac, oracles.frac):
            assert np.asarray(f(-0.0)).tobytes() == np.float64(0.0).tobytes()
            assert f(np.array([-0.0, 0.0])).tobytes() == np.zeros(2).tobytes()

    def test_half_an_ulp_below_an_integer_gives_zero(self):
        # x - floor(x) = 1 - tiny rounds to 1.0, which is reported as 0.0
        x = np.array([-(2.0**-54), -1e-17, -(2.0**-60), -5e-324])
        assert (frac(x) == 0.0).all()
        assert frac(-(2.0**-53)) == 1.0 - 2.0**-53  # one ulp below 1 stays

    def test_values_past_2_52_are_integers(self):
        x = np.array([2.0**52, 2.0**52 + 1, 2.0**53 + 2, 1e300, -(2.0**52), -(2.0**53) - 2, -1e300])
        assert (frac(x) == 0.0).all()
        assert frac(2.0**52 - 0.5) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([1, 2, 3, BLOCK, BLOCK + 1]),
           top=st.integers(-2, 60))
    def test_matches_the_reference_bit_for_bit(self, seed, length, top):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, length) * 2.0**top
        got = frac(x)
        assert got.tobytes() == oracles.frac(x).tobytes()
        assert ((got >= 0.0) & (got < 1.0)).all()
        for v in x[:3]:  # 0-d inputs
            assert np.asarray(frac(v)).tobytes() == np.asarray(oracles.frac(v)).tobytes()

    def test_leaves_its_input_alone(self):
        x = np.array([0.5, -1.25, 3.75])
        frac(x)
        assert x.tolist() == [0.5, -1.25, 3.75]


WORD = 1 << 64
# int64 multipliers: every range, the edges of an exact float, and the extremes
int64s = (st.integers(INT64_MIN, INT64_MAX)
          | st.sampled_from([INT64_MIN, INT64_MAX, -INT64_MAX, (1 << 53) - 1, (1 << 53) + 1,
                             -(1 << 53) + 1, -(1 << 53) - 1, 1 << 53, -(1 << 53), 0, 1, -1])
          | st.integers((1 << 63) - 600, INT64_MAX) | st.integers(INT64_MIN, INT64_MIN + 600))
# scalars with at most 64 fractional bits, which are exact turns
one_word = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 2.0**40, -(2.0**52), 1e300, PHI,
                             -PHI, 2.0**-64, -(2.0**-63), 0.375])
            | st.floats(-1e6, 1e6).filter(lambda b: b == 0.0 or abs(b) >= 2.0**-12)
            | st.builds(math.ldexp, st.integers(-(1 << 53), 1 << 53), st.integers(-64, 0)))
# scalars with more fractional bits: a second word
two_word = (st.sampled_from([1e-5, 2.0**-40 + 2.0**-90, -1e-300, 5e-324, PHI * 2.0**-13])
            | st.floats(-(2.0**-12), 2.0**-12).filter(lambda b: b.as_integer_ratio()[1] > WORD))


def is_wide(b) -> bool:
    return Fraction(b).denominator > WORD


def exact_sum(products, terms, i):
    return (sum(Fraction(int(a[i])) * Fraction(b) for a, b in products)
            + sum(map(Fraction, terms)))


def products_of(data, scalars):
    length = data.draw(st.integers(1, 6))
    return [(np.array(data.draw(st.lists(int64s, min_size=length, max_size=length)),
                      dtype=np.int64), b) for b in scalars], length


class TestTurnSum:
    """`turn_sum` is exact in uint64 turns where every scalar has at most 64 fractional bits,
    and within TWO_WORD per part that has a second word."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scalars=st.lists(one_word, min_size=1, max_size=4),
           terms=st.lists(one_word, max_size=2))
    def test_matches_exact_turns_bit_for_bit(self, data, scalars, terms):
        products, length = products_of(data, scalars)
        before = b"".join(a.tobytes() for a, _ in products)
        got = turn_sum(products, terms)
        assert b"".join(a.tobytes() for a, _ in products) == before  # the operands are only read
        assert got.dtype == np.uint64
        want = [int(exact_sum(products, terms, i) * WORD) % WORD for i in range(length)]
        assert got.tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scalars=st.lists(one_word, min_size=1, max_size=4),
           terms=st.lists(one_word, max_size=2))
    def test_one_word_sums_are_correctly_rounded(self, data, scalars, terms):
        products, length = products_of(data, scalars)
        got = from_turns(turn_sum(products, terms))
        assert got.tolist() == [rounded(exact_sum(products, terms, i)) for i in range(length)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scalars=st.lists(one_word | two_word, min_size=1, max_size=4),
           terms=st.lists(one_word | two_word, max_size=2))
    def test_two_word_parts_within_the_bound(self, data, scalars, terms):
        products, length = products_of(data, scalars)
        got = from_turns(turn_sum(products, terms))
        parts = sum(map(is_wide, scalars + terms))
        for i in range(length):
            assert 0.0 <= got[i] < 1.0
            assert circle_distance(float(got[i]), exact_sum(products, terms, i)) <= (
                parts * TWO_WORD + HALF_ULP)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pair=st.tuples(one_word | two_word, one_word | two_word))
    def test_exact_products_of_two_floats(self, data, pair):
        # as the Heisenberg centre passes g.a * g.b: a Fraction, read with its second word
        b = Fraction(pair[0]) * Fraction(pair[1])
        products, length = products_of(data, [b])
        got = from_turns(turn_sum(products))
        for i in range(length):
            assert circle_distance(float(got[i]), exact_sum(products, [], i)) <= (
                TWO_WORD + HALF_ULP)

    def test_terms_alone(self):
        got = turn_sum(terms=[2.25, -0.5])
        assert np.ndim(got) == 0 and int(got) == 3 << 62 and from_turns(got) == 0.75

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), scalars=st.lists(one_word | two_word, min_size=1, max_size=3),
           terms=st.lists(one_word | two_word, max_size=2))
    def test_each_value_depends_on_its_own_multipliers_only(self, data, scalars, terms):
        products, length = products_of(data, scalars)
        got = turn_sum(products, terms)
        for i in range(length):
            alone = turn_sum([(a[i:i + 1], b) for a, b in products], terms)
            assert got[i:i + 1].tobytes() == alone.tobytes()

    def test_int64_extremes(self):
        a = np.array([INT64_MAX, (1 << 53) + 1, INT64_MIN, -1, 0], dtype=np.int64)
        assert from_turns(turn_sum([(a, 0.375)])).tolist() == [0.625, 0.375, 0.0, 0.625, 0.0]
        for b in (1e-5, 2.0**-40 + 2.0**-90):
            got = from_turns(turn_sum([(a, b)], [0.25]))
            for g, m in zip(got, a.tolist()):
                assert circle_distance(float(g), m * Fraction(b) + Fraction(1, 4)) <= (
                    TWO_WORD + HALF_ULP)

    @pytest.mark.parametrize("b, blocks", [(PHI, 2), (1e-5, 3.5)])
    def test_a_block_adds_at_most_its_buffers(self, b, blocks):
        # the output and one product buffer; a second word adds its float product, and
        # numpy's half-block buffer for the int64 -> float cast of the multiplier
        n = np.arange(BLOCK, dtype=np.int64) - BLOCK // 2
        turn_sum([(n, b)], [0.25])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            turn_sum([(n, b)], [0.25])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= blocks * 8 * BLOCK + 4096, peak / (8 * BLOCK)


class TestTurnConversions:
    def test_from_turns_rounds_once_to_nearest(self):
        rng = np.random.default_rng(11)
        u = rng.integers(0, WORD, 4096, dtype=np.uint64)
        # ties at the 2**11 spacing of [2**63, 2**64), and the top, which rounds to 1.0
        top = (u[:512] | np.uint64(1 << 63)) >> np.uint64(11) << np.uint64(11)
        u[:512] = top | np.uint64(1 << 10)
        u[512:520] = [WORD - 1, WORD - 1024, WORD - 1025, 0, 1, 1 << 63, (1 << 53) + 1, 3]
        assert from_turns(u).tolist() == [rounded(Fraction(int(v), WORD)) for v in u]

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(one_word | st.floats(-1e20, 1e20), min_size=1, max_size=8))
    def test_to_turns_is_exact_or_cut_within_a_turn(self, x):
        got = to_turns(np.array(x))
        for g, v in zip(got.tolist(), x):
            exact = Fraction(v) * WORD % WORD
            if not is_wide(v):
                assert g == exact
            else:  # cut toward 0 before the reduction: at most one turn away
                assert min((g - exact) % WORD, (exact - g) % WORD) < 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_to_turns_refuses_non_finite_coordinates(self, bad):
        # a NaN would otherwise cast to some turn and read as a valid phase
        with pytest.raises(DomainError, match="finite"):
            to_turns(np.array([0.25, bad]))

    def test_empty_one_element_and_zero_d_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (np.array([], np.int64), np.array([INT64_MIN], np.int64),
                      np.array(INT64_MAX, np.int64)):
                for b in (PHI, 1e-5, Fraction(PHI) * Fraction(1e-5)):
                    got = turn_sum([(n, b)], [0.3])
                    assert got.shape == n.shape and from_turns(got).shape == n.shape
            assert to_turns(np.array(-0.25)).shape == () and to_turns(-0.25) == 3 << 62
            assert from_turns(np.uint64(WORD - 1)) == 0.0
            assert frac_poly((0.1, PHI, 1e-5), INT64_MIN) == frac_poly((0.1, PHI, 1e-5),
                                                                     [INT64_MIN])[0]

    def test_the_suite_raises_runtime_warnings(self):
        # pyproject.toml's filterwarnings turns every RuntimeWarning into an error, so a
        # uint64 product that warned anywhere in the turn kernels would fail its test
        with pytest.raises(RuntimeWarning):
            warnings.warn("wrapped", RuntimeWarning)


def _phase_reference(theta):
    return np.exp((2j * np.pi) * theta)


class TestUnitPhase:
    def assert_same_bits(self, theta):
        got, want = unit_phase(theta), _phase_reference(theta)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.complex128
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_random_theta(self):
        self.assert_same_bits(np.random.default_rng(3).random(1 << 16))

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 13, 24, 30, 52])
    def test_dyadic_theta(self, p):
        k = np.random.default_rng(p).integers(0, 1 << p, 4096, dtype=np.int64)
        self.assert_same_bits(k / float(1 << p))

    def test_quarter_turns_and_the_top_of_the_circle(self):
        theta = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        self.assert_same_bits(theta)
        for v in theta:
            self.assert_same_bits(v)
            self.assert_same_bits(float(v))

    def test_zero_d_one_element_and_rows(self):
        rng = np.random.default_rng(5)
        self.assert_same_bits(np.array(0.3))
        assert np.ndim(unit_phase(np.array(0.3))) == 0
        self.assert_same_bits(rng.random(1))
        self.assert_same_bits(rng.random((3, 1000)))
        # the sweep's (rows, N) phase block of the dyadic nodes
        r, j, p = np.arange(5, dtype=np.int64), np.arange(2048, dtype=np.int64), 20
        self.assert_same_bits(((r[:, None] * j) & ((1 << p) - 1)) / float(1 << p))

    def test_output_owns_its_data(self):
        # numpy only elides `phase * other` into `phase *= other` on arrays that own
        # their data; otherwise it may swap the operands, which moves the last bit
        assert unit_phase(np.random.default_rng(7).random(BLOCK)).base is None


class TestOrderedProduct:
    @staticmethod
    def operands(size, seed):
        rng = np.random.default_rng(seed)
        x, y = (np.exp(2j * np.pi * rng.random(size)) * rng.random(size) for _ in range(2))
        return x, y

    @pytest.mark.parametrize("seed", range(20))
    def test_one_element_is_a_new_array(self, seed):
        # numpy rounds a one-element complex product in place differently, so the
        # operand it was asked to write into is left as it was
        x, y = self.operands(1, seed)
        kept = x.copy()
        got = ordered_product(x, y, x)
        assert got is not x and x.tobytes() == kept.tobytes()
        assert got.tobytes() == np.multiply(kept, y).tobytes()

    @pytest.mark.parametrize("size", [2, 5, 1 << 14, (1 << 15) + 3])
    def test_view_operand_is_written_in_operand_order(self, size):
        # a view of a longer array, which numpy's temporary elision would swap with a
        # temporary right operand; the product stays x * y and lands in the view
        x, y = self.operands(size + 7, size)
        whole = x.copy()
        view = whole[3 : 3 + size]
        want = np.multiply(x[3 : 3 + size], y[:size])
        got = ordered_product(view, y[:size], view)
        assert np.shares_memory(got, whole) and got.tobytes() == want.tobytes()
        assert whole[3 : 3 + size].tobytes() == want.tobytes()
        outside = np.r_[0:3, 3 + size : size + 7]
        assert whole[outside].tobytes() == x[outside].tobytes()

    def test_into_a_buffer(self):
        x, y = self.operands(64, 1)
        buf = np.empty_like(x)
        got = ordered_product(x, y, buf)
        assert got is buf and got.tobytes() == np.multiply(x, y).tobytes()
