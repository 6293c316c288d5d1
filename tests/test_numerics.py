"""Numerics: the exact mod-1 polynomial kernel `frac_poly` against exact
rational arithmetic, over all of int64 and every small degree; the in-place
kernels `frac`, `frac_combine` and `unit_phase` against their allocating
references, bit for bit."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergonil import DomainError, PolynomialPhase
from ergonil import numerics
from ergonil.numerics import frac, frac_combine, frac_poly, ordered_product, unit_phase

import oracles

PHI = (np.sqrt(5.0) - 1.0) / 2.0
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
EDGES = [0, 1, -1, (1 << 26) - 1, (1 << 26) + 1, -(1 << 26) - 1, (1 << 53) - 1, (1 << 53) + 1,
         -(1 << 53) - 1, INT64_MAX, -INT64_MAX, INT64_MIN]
# around the largest |n| whose n**h is an exact float: past it the power's int64 cast rounds,
# and `frac_combine` adds the remainder as one more product
ROOTS = [s * (m + d) for m in (94906265, 208063, 9741, 1552, 456, 1 << 53)
         for d in (0, 1) for s in (1, -1)]


def circle_error(coefficients, ns):
    got = frac_poly(coefficients, np.array(ns, dtype=np.int64))
    want = np.array([oracles.exact_phase(coefficients, n) for n in ns])
    d = np.abs(got - want)
    assert ((got >= 0.0) & (got < 1.0)).all()
    return float(np.minimum(d, 1.0 - d).max())


coefficient = st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)
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
        # past |n| = 1552, n**5 is no exact float: `frac_combine` adds a remainder
        # product for those times, and the times below keep their bits
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
    def test_matches_the_per_element_form_bit_for_bit(self, data, degree):
        # where every |n|**d < 2**63 - 2**10 and every c_j has at most 64 fractional bits, the
        # int64 cast of n**j is the single float of the old form, and the remainder that
        # `frac_combine` appends is its Dekker low part, added last as it was
        coefficients = data.draw(st.lists(short_coefficient, min_size=degree + 1,
                                          max_size=degree + 1))
        top = _root_below(2**63 - 2**10, max(degree, 1))
        ns = np.array(data.draw(st.lists(st.integers(-top, top)
                                         | st.sampled_from([m for m in ROOTS if abs(m) <= top]),
                                         min_size=1, max_size=12)), dtype=np.int64)
        assert (frac_poly(coefficients, ns).tobytes()
                == oracles.frac_poly_per_element(coefficients, ns).tobytes())

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
        with pytest.raises(DomainError, match="finite"):
            frac_poly((0.0, PHI, bad), [1, 2])
        with pytest.raises(DomainError):
            PolynomialPhase((bad,)).eval_many(np.arange(4))


BLOCK = 1 << 14  # the block length of `averages.orbit_terms`
# the second operand of every product: 0, negative, integer-valued, large and plain reals
scalar = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 2.0**40, -(2.0**52), PHI, -PHI])
          | st.floats(-1e6, 1e6)
          | st.floats(-(2.0**300), 2.0**300).filter(lambda b: b == 0.0 or abs(b) > 2.0**-300))
term = st.floats(-1e3, 1e3)


def _first_operands(seed, length, top, integral, count):
    """`count` arrays of times |n| <= 2**top (integral) or reals below 2**top, each
    with one element at the edge 2**top."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = (rng.integers(-(1 << top), (1 << top) + 1, length).astype(np.float64) if integral
             else rng.uniform(-1.0, 1.0, length) * 2.0**top)
        a[rng.integers(length)] = rng.choice([-1.0, 1.0]) * 2.0**top
        out.append(a)
    return out


def circle_distance(x: float, exact: Fraction) -> float:
    d = abs(Fraction(x) - exact)
    return float(min(d, 1 - d))


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


class TestFracCombine:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           length=st.sampled_from([1, 2, BLOCK, BLOCK + 1]),
           top=st.integers(0, 53),
           integral=st.booleans(),
           scalars=st.lists(scalar, min_size=1, max_size=5),
           terms=st.lists(term, max_size=2))
    def test_matches_the_reference_bit_for_bit(self, seed, length, top, integral, scalars, terms):
        firsts = _first_operands(seed, length, top, integral, len(scalars))
        products = list(zip(firsts, scalars))
        before = b"".join(a.tobytes() for a in firsts)
        got = frac_combine(products, terms)
        assert b"".join(a.tobytes() for a in firsts) == before  # the operands are only read
        assert got.tobytes() == oracles.frac_combine(products, terms).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.integers(-(1 << 53), 1 << 53), min_size=1, max_size=6),
           scalars=st.lists(scalar, min_size=1, max_size=5),
           terms=st.lists(term, max_size=2))
    def test_within_a_few_ulp_of_exact_rationals(self, times, scalars, terms):
        # 2k + m values in [0, 1) are added; the j-th addition rounds by at most j
        # half-ulps of 1, so the error is below M**2 * 2**-53 with M = 2k + m
        n = np.array(times, dtype=np.float64)
        got = frac_combine([(n, b) for b in scalars], terms)
        m = 2 * len(scalars) + len(terms)
        for i, t in enumerate(times):
            exact = sum(Fraction(t) * Fraction(b) for b in scalars) + sum(map(Fraction, terms))
            assert 0.0 <= got[i] < 1.0
            assert circle_distance(float(got[i]), exact % 1) <= m * m * 2.0**-53

    def test_terms_alone(self):
        got, want = frac_combine(terms=[2.25, -0.5]), oracles.frac_combine(terms=[2.25, -0.5])
        assert np.ndim(got) == 0 and got == 0.75
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# int64 multipliers: every range, the edges of the exact cast, and the top, where the cast
# rounds to 2**63 itself
int64s = (st.integers(INT64_MIN, INT64_MAX)
          | st.sampled_from([INT64_MIN, INT64_MAX, -INT64_MAX, (1 << 53) - 1, (1 << 53) + 1,
                             -(1 << 53) + 1, -(1 << 53) - 1, 1 << 53, -(1 << 53), 0])
          | st.integers((1 << 63) - 600, INT64_MAX) | st.integers(INT64_MIN, INT64_MIN + 600))
small_ints = st.integers(-(1 << 53), 1 << 53)


def _reduced_values(products, terms):
    """How many values in [0, 1) `frac_combine` adds: two per product, two more per int64
    multiplier with some |a| > 2**53 (its remainder), one per term."""
    big = sum(bool((np.abs(a.astype(np.float64)) >= 2.0**53).any()) for a, _ in products)
    return 2 * (len(products) + big) + len(terms)


class TestFracCombineIntegers:
    """An int64 multiplier is exact at every element, and where every |a| <= 2**53 it has
    the bits of its float form."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scalars=st.lists(scalar, min_size=1, max_size=4),
           terms=st.lists(term, max_size=2))
    def test_within_a_few_ulp_of_exact_rationals(self, data, scalars, terms):
        length = data.draw(st.integers(1, 6))
        firsts = [np.array(data.draw(st.lists(int64s, min_size=length, max_size=length)),
                           dtype=np.int64) for _ in scalars]
        before = b"".join(a.tobytes() for a in firsts)
        products = list(zip(firsts, scalars))
        got = frac_combine(products, terms)
        assert b"".join(a.tobytes() for a in firsts) == before  # the operands are only read
        m = _reduced_values(products, terms)
        for i in range(length):
            exact = (sum(Fraction(int(a[i])) * Fraction(b) for a, b in products)
                     + sum(map(Fraction, terms)))
            assert 0.0 <= got[i] < 1.0
            assert circle_distance(float(got[i]), exact % 1) <= m * m * 2.0**-53

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([1, 2, BLOCK, BLOCK + 1]),
           top=st.integers(0, 53), scalars=st.lists(scalar, min_size=1, max_size=4),
           terms=st.lists(term, max_size=2))
    def test_bit_equal_to_the_float_form_up_to_2_53(self, seed, length, top, scalars, terms):
        floats = _first_operands(seed, length, top, True, len(scalars))
        ints = [a.astype(np.int64) for a in floats]
        got = frac_combine(list(zip(ints, scalars)), terms)
        assert got.tobytes() == frac_combine(list(zip(floats, scalars)), terms).tobytes()
        assert got.tobytes() == oracles.frac_combine(list(zip(floats, scalars)), terms).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), scalars=st.lists(scalar, min_size=1, max_size=3),
           terms=st.lists(term, max_size=2))
    def test_small_multipliers_keep_their_bits_beside_large_ones(self, data, scalars, terms):
        # a large element in the same array, or in another product of the call, adds a
        # remainder product that is 0 at every small element, so their bits do not move
        length = data.draw(st.integers(2, 8))
        firsts = [np.array(data.draw(st.lists(small_ints, min_size=length, max_size=length)),
                           dtype=np.int64) for _ in scalars]
        big = data.draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=length - 1,
                                 unique=True))
        for i in big:
            firsts[data.draw(st.integers(0, len(firsts) - 1))][i] = data.draw(
                int64s.filter(lambda v: abs(v) > 1 << 53))
        small = np.setdiff1d(np.arange(length), big)
        got = frac_combine(list(zip(firsts, scalars)), terms)
        alone = frac_combine([(a[small].astype(np.float64), b) for a, b in zip(firsts, scalars)],
                             terms)
        assert got[small].tobytes() == alone.tobytes()

    def test_large_multipliers_need_their_remainder(self):
        # 2**63 - 1 casts to 2**63, and 2**53 + 1 to 2**53: the float form is off by b
        a, b = np.array([INT64_MAX, (1 << 53) + 1, INT64_MIN], dtype=np.int64), 0.375
        got = frac_combine([(a, b)])
        assert got.tolist() == [float((Fraction(int(v)) * Fraction(b)) % 1) for v in a]
        assert got.tolist() == [0.625, 0.375, 0.0]

    def test_an_int_block_adds_no_block_sized_array(self):
        n = np.arange(BLOCK, dtype=np.int64) - BLOCK // 2

        def peak(a):
            frac_combine([(a, PHI)], [0.25])
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                frac_combine([(a, PHI)], [0.25])
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak(n) <= peak(n.astype(np.float64)) + 4096


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
