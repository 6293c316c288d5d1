"""Systems: orbit closed forms, exact lattice dynamics, observables, and the
model factor-projection table."""

import itertools
import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ergonil import (
    AnzaiSkew,
    DimensionMismatchError,
    DomainError,
    Observable,
    RotationTorus,
    ToralAutomorphism,
    constant_observable,
    eval_observable,
    integrate_observable,
    invariant_conditional_expectation,
    observable,
    orbit_coords,
    orbit_point,
    project_Zk,
    zk_complement,
)
from ergonil.errors import UnsupportedSystemError
from ergonil.averages import orbit_terms
from ergonil.numerics import from_turns
from ergonil.systems import (INT64_MAX, MAX_MODULUS, SKEW_MAX_TIME, check_times,
                             eval_observable_many, lattice_orbit, mat_pow_mod)

import oracles
from oracles import circle_distance, rounded

PHI = (np.sqrt(5.0) - 1.0) / 2.0

CAT = ((2, 1), (1, 1))
# -CAT mod q has a row (q - 1, q - 1); applied to the point (q - 1, q - 1) its
# row sum is 2(q - 1)^2, the largest a lattice mat-vec can form
NEG_CAT = ((-2, -1), (-1, -1))
INT64_EDGE = (1 << 31) - 1  # largest prime with 2(q - 1)^2 < 2^63
PAST_INT64_EDGE = (1 << 31) + 11  # the next prime
BELOW_INT64_EDGE = ((1 << 31) - 19, (1 << 31) - 61, (1 << 31) - 69)  # the primes just below it
# det +1 and hyperbolic, with entries past int64: taken mod q in Python integers first
BIG_ENTRIES = ((2**70 + 1, 2**70), (1, 1))


class TestOrbits:
    def test_rotation_half_turn_identity(self):
        rot = RotationTorus((0.5,))
        assert orbit_point(rot, (0.25,), 2)[0] == 0.25

    def test_anzai_identity_case(self):
        anz = AnzaiSkew(PHI)
        assert tuple(orbit_point(anz, (0.3, 0.4), 0)) == (0.3, 0.4)

    def test_anzai_three_steps_by_hand(self):
        # T^3(0,0) with alpha=1/4: x = 3/4, y = 0 + 0 + 3*2/2 * 1/4 = 3/4
        anz = AnzaiSkew(0.25)
        assert tuple(orbit_point(anz, (0.0, 0.0), 3)) == (0.75, 0.75)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_closed_forms_match_iteration(self, n):
        rot = RotationTorus((PHI, 0.3181818181))
        x = orbit_point(rot, (0.1, 0.9), n)
        assert np.abs(x - oracles.iterate_rotation((PHI, 0.3181818181), (0.1, 0.9), n)).max() < 1e-12
        anz = AnzaiSkew(PHI)
        y = orbit_point(anz, (0.2, 0.7), n)
        assert np.abs(y - oracles.iterate_anzai(PHI, (0.2, 0.7), n)).max() < 1e-11

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        rot = RotationTorus((PHI,))
        anz = AnzaiSkew(np.sqrt(2) - 1)
        for _ in range(25):
            m, n = int(rng.integers(1, 2**15)), int(rng.integers(1, 2**15))
            for system, x0 in ((rot, (0.37,)), (anz, (0.37, 0.11))):
                direct = np.asarray(orbit_point(system, x0, m + n))
                stepped = np.asarray(orbit_point(system, tuple(orbit_point(system, x0, m)), n))
                diff = np.abs(direct - stepped)
                diff = np.minimum(diff, 1.0 - diff)  # wraparound distance
                assert diff.max() < 1e-10

    def test_negative_times_invert(self):
        anz = AnzaiSkew(PHI)
        x0 = (0.123, 0.456)
        fwd = orbit_point(anz, x0, 17)
        back = orbit_point(anz, tuple(fwd), -17)
        assert np.abs(np.asarray(back) - np.asarray(x0)).max() < 1e-12

    def test_mod1_accuracy_at_large_n(self):
        # closed form vs exact rational arithmetic at n = 2**20
        n = 1 << 20
        a = PHI
        rot = RotationTorus((a,))
        got = orbit_point(rot, (0.0,), n)[0]
        want = oracles.exact_phase((0.0, a), n)
        assert abs(got - want) < 1e-12
        anz = AnzaiSkew(a)
        gx, gy = orbit_point(anz, (0.0, 0.0), n)
        wy = float((Fraction(a) * n * (n - 1) / 2) % 1)
        assert abs(gx - want) < 1e-12
        assert abs(gy - wy) < 1e-12


class TestLattice:
    def test_cat_orbit_exact(self):
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        assert orbit_point(cat, (1, 0), 3) == oracles.iterate_cat(((2, 1), (1, 1)), cat.modulus, (1, 0), 3)

    def test_orbit_periodic_with_small_prime(self):
        q = 101
        cat = ToralAutomorphism(((2, 1), (1, 1)), modulus=q)
        # the matrix order divides the order of GL_2(Z_q); find it by brute force
        order = 1
        m = ((2, 1), (1, 1))
        p = m
        while p != ((1, 0), (0, 1)):
            p = tuple(tuple(sum(p[i][l] * m[l][j] for l in range(2)) % q for j in range(2)) for i in range(2))
            order += 1
            assert order < q * q
        v0 = (1, 0)
        assert orbit_point(cat, v0, order) == v0
        orbit = lattice_orbit(cat, v0, 0, 1, order)
        assert ((0 <= orbit) & (orbit < q)).all()

    def test_negative_power_uses_exact_inverse(self):
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        v = orbit_point(cat, (12345, 678), 9)
        assert orbit_point(cat, v, -9) == (12345, 678)

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="determinant"):
            ToralAutomorphism(((2, 0), (0, 2)))
        with pytest.raises(ValueError, match="hyperbolic"):
            ToralAutomorphism(((1, 1), (0, 1)))  # parabolic, |trace| = 2
        with pytest.raises(ValueError, match="root"):
            ToralAutomorphism(((0, 1), (1, 0)))  # involution, det -1, finite order
        with pytest.raises(ValueError, match="prime"):
            ToralAutomorphism(((2, 1), (1, 1)), modulus=91)

    def test_modulus_must_keep_residues_exact(self):
        # 2^31 + 11 and 2^53 - 111 are prime, but a mat-vec sum 2(q - 1)^2 no longer fits in int64
        for q in (PAST_INT64_EDGE, (1 << 53) - 111, (1 << 53) + 5, (1 << 64) + 13):
            with pytest.raises(ValueError, match="at most 2\\^31 - 1, .* fit in int64"):
                ToralAutomorphism(((2, 1), (1, 1)), modulus=q)
        top = ToralAutomorphism(((2, 1), (1, 1)), modulus=INT64_EDGE)  # the largest accepted
        assert orbit_point(top, orbit_point(top, (3, 5), 7), -7) == (3, 5)

    def test_finite_order_rule_matches_the_powers(self):
        # every 2x2 matrix with entries in [-6, 6]: accepted exactly when det = +-1, no
        # power up to 12 is the identity, and det 1 comes with |trace| >= 3
        def accepted_by_oracle(m):
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det not in (1, -1) or (det == 1 and abs(m[0][0] + m[1][1]) < 3):
                return False
            p = np.eye(2, dtype=np.int64)
            for _ in range(12):
                p = p @ np.array(m)
                if (p == np.eye(2)).all():
                    return False
            return True

        count = 0
        for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
            m = ((a, b), (c, d))
            try:
                ToralAutomorphism(m, modulus=101)
                ok = True
            except ValueError:
                ok = False
            assert ok == accepted_by_oracle(m), m
            count += ok
        assert count == 504

    def test_fibonacci_matrix_allowed(self):
        # det = -1, trace 1: hyperbolic, no root-of-unity eigenvalues
        ToralAutomorphism(((1, 1), (1, 0)))

    def test_mat_pow_mod(self):
        m = ((2, 1), (1, 1))
        np.testing.assert_array_equal(mat_pow_mod(m, 0, 97), [[1, 0], [0, 1]])
        p5 = mat_pow_mod(m, 5, 10**9)
        it = ((1, 0), (0, 1))
        for _ in range(5):
            it = tuple(tuple(sum(it[i][l] * m[l][j] for l in range(2)) for j in range(2)) for i in range(2))
        assert p5.dtype == np.int64
        np.testing.assert_array_equal(p5, it)

    def test_large_modulus_is_refused_before_any_orbit(self):
        # the q = 2^53 - 111 orbits once ran on Python ints; now no system or power takes q
        q = (1 << 53) - 111
        with pytest.raises(ValueError, match="2\\^31 - 1"):
            ToralAutomorphism(CAT, modulus=q)
        with pytest.raises(ValueError, match="2\\^31 - 1"):
            mat_pow_mod(CAT, 3, q)

    def test_primes_around_int64_bound(self):
        assert MAX_MODULUS == INT64_EDGE
        assert 2 * (INT64_EDGE - 1) ** 2 < 1 << 63 <= 2 * (PAST_INT64_EDGE - 1) ** 2
        assert oracles.is_prime_by_trial(INT64_EDGE) and oracles.is_prime_by_trial(PAST_INT64_EDGE)
        assert not any(map(oracles.is_prime_by_trial, range(INT64_EDGE + 1, PAST_INT64_EDGE)))
        below = [q for q in range(INT64_EDGE - 70, INT64_EDGE) if oracles.is_prime_by_trial(q)]
        assert tuple(reversed(below)) == BELOW_INT64_EDGE
        for matrix in (CAT, NEG_CAT):
            system = ToralAutomorphism(matrix, modulus=INT64_EDGE)
            for x0, start, step, count in (((INT64_EDGE - 1,) * 2, 0, 1, 2000), ((12345, 678), -3, 5, 2500)):
                want = oracles.cat_orbit(matrix, INT64_EDGE, x0, start, step, count)
                np.testing.assert_array_equal(lattice_orbit(system, x0, start, step, count), want)
            with pytest.raises(ValueError, match="fit in int64"):
                ToralAutomorphism(matrix, modulus=PAST_INT64_EDGE)

    def test_trial_division_matches_the_oracle(self):
        for q in itertools.chain(range(-3, 400), BELOW_INT64_EDGE, range(INT64_EDGE - 70, INT64_EDGE + 1)):
            try:
                ToralAutomorphism(CAT, modulus=q)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == oracles.is_prime_by_trial(q), q
        # the largest prime square below 2^31: its only divisor is isqrt(q) itself
        with pytest.raises(ValueError, match="prime"):
            ToralAutomorphism(CAT, modulus=46337**2)

    def test_entries_past_int64_keep_their_residues(self):
        system = ToralAutomorphism(BIG_ENTRIES)
        for x0, start, step, count in (((3, 5), -7, 3, 3000), ((INT64_EDGE - 1, 12345), 11, -2, 4097)):
            want = oracles.cat_orbit(BIG_ENTRIES, INT64_EDGE, x0, start, step, count)
            np.testing.assert_array_equal(lattice_orbit(system, x0, start, step, count), want)
        for n in (-5, -1, 0, 1, 6):
            want = [[v % INT64_EDGE for v in row] for row in oracles.integer_matrix_power(BIG_ENTRIES, n)]
            np.testing.assert_array_equal(mat_pow_mod(BIG_ENTRIES, n, INT64_EDGE), want)

    @settings(max_examples=150, deadline=None)
    @given(
        modulus=st.sampled_from((INT64_EDGE,) + BELOW_INT64_EDGE),
        # hyperbolic det +-1 matrices whose residues sit near q - 1 or that pass int64
        matrix=st.sampled_from([NEG_CAT, ((-3, -2), (-1, -1)), ((-1, -1), (-1, 0)), BIG_ENTRIES,
                                ((-(2**64) - 1, -(2**64)), (-1, -1))]),
        x0=st.tuples(st.integers(-(1 << 60), 1 << 60), st.integers(-(1 << 60), 1 << 60)),
        start=st.integers(-200, 200),
        step=st.integers(-40, 40),
        count=st.integers(0, 300),
    )
    def test_int64_orbits_and_powers_match_python_ints(self, modulus, matrix, x0, start, step, count):
        system = ToralAutomorphism(matrix, modulus=modulus)
        np.testing.assert_array_equal(lattice_orbit(system, x0, start, step, count),
                                      oracles.cat_orbit(matrix, modulus, x0, start, step, count))
        for n in (start, step):
            want = [[v % modulus for v in row] for row in oracles.integer_matrix_power(matrix, n)]
            np.testing.assert_array_equal(mat_pow_mod(matrix, n, modulus), want)

    @settings(max_examples=150, deadline=None)
    @given(
        modulus=st.sampled_from((101, INT64_EDGE) + BELOW_INT64_EDGE),
        matrix=st.sampled_from([CAT, NEG_CAT, ((1, 1), (1, 0)), ((3, 2), (1, 1))]),
        x0=st.tuples(st.integers(-(1 << 60), 1 << 60), st.integers(-(1 << 60), 1 << 60)),
        start=st.integers(-60, 60),
        step=st.integers(-6, 6),
        count=st.sampled_from([0, 1, 2])
        | st.integers(1, 24).flatmap(lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1]))
        | st.integers(1, 11).flatmap(  # the edges of the doubling rounds
            lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])),
    )
    def test_block_layout_matches_step_loop(self, modulus, matrix, x0, start, step, count):
        system = ToralAutomorphism(matrix, modulus=modulus)
        got = lattice_orbit(system, x0, start, step, count)
        assert got.shape == (count, 2) and got.dtype == np.int64
        np.testing.assert_array_equal(got, oracles.cat_orbit(matrix, modulus, x0, start, step, count))


class TestDomain:
    @pytest.mark.parametrize("system, x0, d", [
        (RotationTorus((PHI, 0.25)), (0.1, 0.9), 2),
        (AnzaiSkew(PHI), (0.2, 0.3), 2),
        (ToralAutomorphism(CAT), (12345, 678), 2),
        (RotationTorus((PHI,)), (0.1,), 1),
    ])
    def test_empty_times(self, system, x0, d):
        out = orbit_coords(system, x0, np.array([], np.int64))
        assert out.shape == (0, d) and out.dtype == np.uint64

    @pytest.mark.parametrize("x0", [(np.nan, 0.3), (0.2, np.inf), (-1e-300, 0.3), (0.2, 1.0)])
    def test_point_off_the_unit_cube_raises(self, x0):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            orbit_coords(AnzaiSkew(PHI), x0, np.arange(4))

    # n(n-1) fits in int64 up to SKEW_MAX_TIME = isqrt(2^63 - 1); the times around 2^27
    # were the limit while n(n-1)/2 had to be an exact float
    @pytest.mark.parametrize("n", [SKEW_MAX_TIME, -SKEW_MAX_TIME, SKEW_MAX_TIME - 1,
                                   (1 << 27) - 1, -(1 << 27) + 1, (1 << 27) - 2, (1 << 26) + 3])
    def test_skew_just_inside_limit(self, n):
        got = from_turns(orbit_coords(AnzaiSkew(PHI), (0.2, 0.3), [n])[0])
        diff = np.abs(got - oracles.exact_anzai(PHI, (0.2, 0.3), n))
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True), x=st.floats(0.0, 1.0, exclude_max=True),
           y=st.floats(0.0, 1.0, exclude_max=True),
           times=st.lists(st.integers(-SKEW_MAX_TIME, SKEW_MAX_TIME), min_size=1, max_size=6))
    def test_skew_exact_up_to_the_limit(self, alpha, x, y, times):
        got = from_turns(orbit_coords(AnzaiSkew(alpha), (x, y), np.array(times, np.int64)))
        want = np.array([oracles.exact_anzai(alpha, (x, y), m) for m in times])
        diff = np.abs(got - want)
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12

    def test_skew_limit_is_where_n_times_n_minus_1_fits_in_int64(self):
        assert SKEW_MAX_TIME == 3037000499
        assert SKEW_MAX_TIME * (SKEW_MAX_TIME + 1) <= INT64_MAX
        assert (SKEW_MAX_TIME + 1) * (SKEW_MAX_TIME + 2) > INT64_MAX

    @pytest.mark.parametrize("n", [SKEW_MAX_TIME + 1, -SKEW_MAX_TIME - 1, 1 << 32])
    def test_skew_past_limit_raises(self, n):
        with pytest.raises(DomainError, match="limit"):
            orbit_coords(AnzaiSkew(PHI), (0.2, 0.3), [0, 5, n])
        with pytest.raises(DomainError):
            orbit_point(AnzaiSkew(PHI), (0.2, 0.3), n)


class TestExponentDomain:
    """orbit_terms checks |e| * max|n| against the system's domain before forming e * n."""

    E1 = observable([((1,), 1.0)])
    SKEW_Y = observable([((0, 1), 1.0)])

    @pytest.mark.parametrize("e, n", [((1 << 50), [1, 5, 8]), (-(1 << 50), [8]),
                                      ((1 << 53) - 1, [1]), (3, [(1 << 53) // 3])])
    def test_rotation_just_inside_limit(self, e, n):
        got = orbit_terms(RotationTorus((PHI,)), (0.1,), np.array(n, np.int64), ((self.E1, e),))
        want = oracles.unit([float(oracles.exact_rotation(PHI, 0.1, e * m)) for m in n])
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("e, n", [((1 << 53) + 1, [1]), ((1 << 50) + 1, [1, 8]),
                                      (-(1 << 50), [9]), (1 << 62, [4])])
    def test_rotation_past_limit_raises(self, e, n):
        # the rotation's times are int64: e * n is exact up to |e| max|n| = 2^63 - 1
        # (these cases were past the 2^53 limit of an earlier closed form) and raises past it
        rot, times = RotationTorus((PHI,)), np.array(n, np.int64)
        sign, top = (1 if e > 0 else -1), max(map(abs, n))
        for e_in in ((e,) if abs(e) * top <= INT64_MAX else ()) + (sign * (INT64_MAX // top),):
            got = orbit_terms(rot, (0.1,), times, ((self.E1, e_in),))
            want = oracles.unit([float(oracles.exact_rotation(PHI, 0.1, e_in * m)) for m in n])
            assert np.abs(got - want).max() < 1e-12
        for e_past in ((e,) if abs(e) * top > INT64_MAX else ()) + (sign * (INT64_MAX // top + 1),):
            with pytest.raises(DomainError, match="limit"):
                orbit_terms(rot, (0.1,), times, ((self.E1, e_past),))

    def test_skew_exponent_limits(self):
        got = orbit_terms(AnzaiSkew(PHI), (0.2, 0.3), np.array([1]), ((self.SKEW_Y, SKEW_MAX_TIME),))
        y = oracles.exact_anzai(PHI, (0.2, 0.3), SKEW_MAX_TIME)[1]
        assert abs(got[0] - oracles.unit(y)) < 1e-12
        # 2^62 * 4 wraps to 0 in int64; the check runs in Python integers first
        for e, n in ((SKEW_MAX_TIME, [2]), (1 << 62, [4]), (1 << 31, [-2])):
            with pytest.raises(DomainError):
                orbit_terms(AnzaiSkew(PHI), (0.2, 0.3), np.array(n), ((self.SKEW_Y, e),))

    def test_lattice_exponent_limits(self):
        q, x0 = 101, (5, 17)
        period, v = 1, oracles.iterate_cat(CAT, q, x0, 1)
        while v != x0:
            period, v = period + 1, oracles.iterate_cat(CAT, q, v, 1)
        obs = observable([((1, 2), 1.0)])
        system = ToralAutomorphism(CAT, modulus=q)
        for e in ((1 << 62) - 1, -(1 << 62) + 1):
            r = oracles.iterate_cat(CAT, q, x0, e % period)
            got = orbit_terms(system, x0, np.array([1, 2]), ((obs, e),))
            r2 = oracles.iterate_cat(CAT, q, x0, (2 * e) % period)
            want = oracles.unit([(r[0] + 2 * r[1]) / q, (r2[0] + 2 * r2[1]) / q])
            assert np.abs(got - want).max() < 1e-12
        for e, n in ((1 << 62, [4]), (1 << 62, [2])):
            with pytest.raises(DomainError):
                orbit_terms(system, x0, np.array(n), ((obs, e),))


class TestObservables:
    def test_constant(self):
        obs = constant_observable(1.0, 1)
        assert eval_observable(obs, (0.77,)) == 1.0

    def test_single_character(self):
        obs = observable([((1,), 1.0)])
        assert abs(eval_observable(obs, (0.5,)) - (-1.0)) < 1e-15

    def test_two_term_example(self):
        obs = observable([((1, 0), 0.3), ((0, 2), 0.5)])
        got = eval_observable(obs, (0.25, 0.25))
        assert abs(got - (-0.5 + 0.3j)) < 1e-15

    def test_integration_reads_zero_mode(self):
        assert integrate_observable(constant_observable(1.0, 1)) == 1.0
        assert integrate_observable(observable([((1,), 1.0)])) == 0.0
        obs = observable([((0,), 0.3), ((1,), 0.7)])
        assert integrate_observable(obs) == 0.3

    def test_sup_bound_holds_on_random_points(self):
        rng = np.random.default_rng(3)
        obs = observable([((1, 0), 0.3 + 0.1j), ((0, 2), 0.5), ((2, -1), -0.25j)])
        pts = rng.random((10**6, 2))
        vals = eval_observable_many(obs, pts)
        assert np.abs(vals).max() <= obs.bound + 1e-12

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            observable([((1,), 1.0), ((1,), 2.0)])

    @pytest.mark.parametrize("coefficient", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_non_finite_coefficient_rejected(self, coefficient):
        with pytest.raises(ValueError, match="finite"):
            observable([((1,), 0.5), ((2,), coefficient)])

    @pytest.mark.parametrize("frequency", [1.5, np.nan, np.inf, np.float64(-0.25)])
    def test_non_integer_frequency_rejected(self, frequency):
        # int(1.5) would have made it e(x)
        with pytest.raises(ValueError, match="integer"):
            observable([((frequency,), 1.0)])
        with pytest.raises(ValueError, match="integer"):
            Observable(2, (((1, frequency), 1.0),))
        with pytest.raises(ValueError, match="integer"):
            observable([((1,), 0.5)]).coefficient(frequency)

    @pytest.mark.parametrize("frequency", [(1, 1), [1, 1], np.array([1, 1]),
                                           np.array([1.0, 1.0]), (np.int64(1), 1.0)])
    def test_coefficient_takes_every_frequency_spelling_the_constructor_takes(self, frequency):
        obs = observable([((0, 1), 1), ((1, 1), 0.5)])
        assert obs.coefficient(frequency) == 0.5
        assert observable([(frequency, 0.5)]) == observable([((1, 1), 0.5)])

    @pytest.mark.parametrize("frequency", [3, np.int64(3), np.array(3), np.array([3]), [3.0]])
    def test_a_circle_frequency_takes_every_spelling(self, frequency):
        line = observable([((3,), 0.25)])
        assert line.coefficient(frequency) == 0.25 and observable([(frequency, 0.25)]) == line

    def test_integral_float_frequency_accepted(self):
        assert observable([((1.0, np.float64(-2.0)), 0.5)]) == observable([((1, -2), 0.5)])

    def test_lattice_point_is_residue_over_modulus(self):
        # the residue pair itself would read e(k . p) = 1 for every frequency k; the float
        # point p / q and the orbit's exact turns both give e(k . p / q) within 1e-15
        obs = observable([((1, 0), 1.0), ((2, -1), 0.5 - 0.25j)])
        for q in (101, (1 << 31) - 1):
            cat = ToralAutomorphism(((2, 1), (1, 1)), modulus=q)
            for n in (0, 1, 7, 1000):
                p1, p2 = orbit_point(cat, (3, 5), n)
                want = (oracles.unit_exact(Fraction(p1, q))
                        + (0.5 - 0.25j) * oracles.unit_exact(Fraction(2 * p1 - p2, q)))
                assert abs(eval_observable(obs, np.divide((p1, p2), q)) - want) < 1e-15
                assert abs(orbit_terms(cat, (3, 5), np.array([n]), ((obs, 1),))[0] - want) < 1e-15
        cat = ToralAutomorphism(((2, 1), (1, 1)), modulus=101)
        assert orbit_point(cat, (3, 5), 1) == (11, 8)
        got = eval_observable(observable([((1, 0), 1.0)]), np.divide((11, 8), 101))
        assert got == pytest.approx(np.exp(2j * np.pi * 11 / 101), abs=1e-15)

    def test_dimension_mismatch(self):
        obs = observable([((1, 0), 1.0)])
        with pytest.raises(DimensionMismatchError):
            eval_observable(obs, (0.5,))

    def test_empirical_average_approaches_integral(self):
        # measure preservation: orbit averages drift toward the integral
        rot = RotationTorus((PHI,))
        obs = observable([((0,), 0.4), ((1,), 0.6)])
        coords = orbit_coords(rot, (0.11,), np.arange(1, 1 << 14))
        avg = eval_observable_many(obs, coords).mean()
        assert abs(avg - 0.4) < 1e-3


class TestProjectionTable:
    def test_rotation_unchanged(self):
        rot = RotationTorus((PHI,))
        obs = observable([((0,), 0.5), ((3,), 0.5j)])
        for k in (1, 2, 3):
            assert project_Zk(rot, obs, k).terms == obs.terms

    def test_toral_keeps_mean_only(self):
        cat = ToralAutomorphism(((2, 1), (1, 1)))
        obs = observable([((1, 1), 1.0)])
        for k in (1, 2, 3):
            assert project_Zk(cat, obs, k).terms == ()
        obs2 = observable([((0, 0), 0.25), ((1, 1), 1.0)])
        assert project_Zk(cat, obs2, 2).terms == (((0, 0), 0.25),)

    def test_anzai_table(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((1, 0), 0.5), ((0, 1), 0.5)])
        assert project_Zk(anz, obs, 1).terms == (((1, 0), 0.5),)
        assert project_Zk(anz, obs, 2).terms == obs.terms

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_projection_preserves_integral_exactly(self, k):
        systems = [RotationTorus((PHI, 0.25)), AnzaiSkew(PHI), ToralAutomorphism(((2, 1), (1, 1)))]
        obs = observable([((0, 0), 0.125 + 0.5j), ((1, 0), 0.25), ((0, 1), -0.3j), ((2, 2), 0.1)])
        for system in systems:
            assert integrate_observable(project_Zk(system, obs, k)) == integrate_observable(obs)

    def test_projection_idempotent(self):
        obs = observable([((0, 0), 0.1), ((1, 0), 0.2), ((0, 1), 0.3), ((1, 1), 0.4)])
        for system in (RotationTorus((PHI, 0.25)), AnzaiSkew(PHI), ToralAutomorphism(((2, 1), (1, 1)))):
            for k in (1, 2, 3):
                once = project_Zk(system, obs, k)
                assert project_Zk(system, once, k).terms == once.terms

    def test_complement(self):
        anz = AnzaiSkew(PHI)
        obs = observable([((1, 0), 0.5), ((0, 1), 0.5)])
        comp = zk_complement(anz, obs, 1)
        assert comp.terms == (((0, 1), 0.5),)
        assert zk_complement(anz, obs, 2).terms == ()


class TestSystemChecks:
    class NotASystem:
        dimension = 1
        alpha = (0.25,)

    @pytest.mark.parametrize("obj", [None, NotASystem(), (PHI,)], ids=["none", "lookalike", "tuple"])
    def test_non_system_is_unsupported(self, obj):
        obs, n = observable([((1,), 1.0)]), np.arange(4)
        calls = [lambda: orbit_coords(obj, (0.1,), n), lambda: orbit_point(obj, (0.1,), 1),
                 lambda: project_Zk(obj, obs, 1),
                 lambda: invariant_conditional_expectation(obj, obs, 1)]
        if obj is not None:  # without a system, check_times takes int64 times
            calls.append(lambda: check_times(n, obj))
        for call in calls:
            with pytest.raises(UnsupportedSystemError):
                call()

    def test_check_times_takes_a_system_kind(self):
        # a kind's declared times, as for its instances; another class is not a kind
        n = np.array([0, SKEW_MAX_TIME + 1], np.int64)
        check_times(n, RotationTorus)
        with pytest.raises(DomainError, match="n\\(n-1\\) fits in int64"):
            check_times(n, AnzaiSkew)
        with pytest.raises(UnsupportedSystemError):
            check_times(n, self.NotASystem)

    @pytest.mark.parametrize("x0", [(3.7, 5), (3.0, 5), (True, 5), (5, np.nan), (np.float64(3), 5)])
    def test_lattice_point_must_be_integers(self, x0):
        # truncating a float or counting a bool as 1 would start the orbit elsewhere
        cat = ToralAutomorphism(CAT, modulus=101)
        for call in (lambda: orbit_coords(cat, x0, np.arange(4)), lambda: orbit_point(cat, x0, 2),
                     lambda: lattice_orbit(cat, x0, 0, 1, 4)):
            with pytest.raises(ValueError, match="integers"):
                call()

    def test_lattice_point_takes_numpy_integers(self):
        cat = ToralAutomorphism(CAT, modulus=101)
        got = orbit_coords(cat, np.array([3, 106]), np.arange(5))
        np.testing.assert_array_equal(got, orbit_coords(cat, (3, 5), np.arange(5)))
        assert orbit_point(cat, (np.int32(3), 5), 2) == oracles.iterate_cat(CAT, 101, (3, 5), 2)


WORD = 1 << 64
# times: every declared int64 (|n| <= 2^63 - 1), the edges of an exact float, 0, +-1 and
# the extremes
int64_times = (st.integers(-INT64_MAX, INT64_MAX)
               | st.sampled_from([0, 1, -1, INT64_MAX, -INT64_MAX, (1 << 53) + 1,
                                  -(1 << 53) - 1]))
skew_times = (st.integers(-SKEW_MAX_TIME, SKEW_MAX_TIME)
              | st.sampled_from([0, 1, -1, SKEW_MAX_TIME, -SKEW_MAX_TIME, SKEW_MAX_TIME - 1]))
# angles and points in [0, 1): one word (at least 2^-12, or 0), and more fractional bits
one_word = (st.floats(2.0**-12, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.5, 2.0**-64]))
two_word = (st.sampled_from([1e-5, 2.0**-40 + 2.0**-90, 5e-324, PHI * 2.0**-13])
            | st.floats(0.0, 2.0**-12, exclude_min=True, exclude_max=True))
TWO_WORD, HALF_ULP = 2.0**-52, 2.0**-54  # README: per part with a second word; final rounding


def is_wide(b) -> bool:
    return Fraction(b).denominator > WORD


def exact_coords(system, x0, n: int):
    """T^n x0 of a rotation or the skew in exact rationals, not reduced."""
    if isinstance(system, AnzaiSkew):
        a, (x, y) = Fraction(system.alpha), map(Fraction, x0)
        return [x + n * a, y + n * x + Fraction(n * (n - 1), 2) * a]
    return [Fraction(x) + n * Fraction(a) for a, x in zip(system.alpha, x0)]


class TestTurnCoordinates:
    """Rotation and skew coordinates are turns: correctly rounded when every angle and point
    has at most 64 fractional bits, within TWO_WORD per two-word part otherwise. Lattice
    residues are the exact floor of p 2^64 / q."""

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.lists(one_word, min_size=1, max_size=3), data=st.data())
    def test_rotation_one_word_is_correctly_rounded(self, alpha, data):
        x0 = data.draw(st.lists(one_word, min_size=len(alpha), max_size=len(alpha)))
        times = data.draw(st.lists(int64_times, min_size=1, max_size=6))
        system = RotationTorus(alpha)
        got = from_turns(orbit_coords(system, x0, np.array(times, np.int64)))
        assert got.tolist() == [[rounded(c) for c in exact_coords(system, x0, m)] for m in times]

    @settings(max_examples=200, deadline=None)
    @given(alpha=one_word, x=one_word, y=one_word,
           times=st.lists(skew_times, min_size=1, max_size=6))
    def test_skew_one_word_is_correctly_rounded(self, alpha, x, y, times):
        system = AnzaiSkew(alpha)
        got = from_turns(orbit_coords(system, (x, y), np.array(times, np.int64)))
        assert got.tolist() == [[rounded(c) for c in exact_coords(system, (x, y), m)]
                                for m in times]

    @settings(max_examples=200, deadline=None)
    @given(alpha=one_word | two_word, x=one_word | two_word, y=one_word | two_word,
           data=st.data())
    def test_two_words_within_the_bound(self, alpha, x, y, data):
        for system, x0, times in ((RotationTorus((alpha, x)), (x, y), int64_times),
                                  (AnzaiSkew(alpha), (x, y), skew_times)):
            n = data.draw(st.lists(times, min_size=1, max_size=6))
            got = from_turns(orbit_coords(system, x0, np.array(n, np.int64)))
            # the parts of each coordinate: a rotation's n alpha_i and x_i; the skew's x part
            # n alpha and x, its y part n x, n(n-1)/2 alpha and y
            parts = ([[a, p] for a, p in zip(system.alpha, x0)] if isinstance(system, RotationTorus)
                     else [[alpha, x], [x, alpha, y]])
            for row, m in zip(got, n):
                for g, c, p in zip(row, exact_coords(system, x0, m), parts):
                    bound = sum(map(is_wide, p)) * TWO_WORD + HALF_ULP
                    assert circle_distance(float(g), c) <= bound

    @settings(max_examples=100, deadline=None)
    @given(modulus=st.sampled_from([INT64_EDGE, INT64_EDGE, 101, 3, 2]),
           x0=st.tuples(st.integers(0, INT64_EDGE - 1), st.integers(0, INT64_EDGE - 1)),
           start=st.integers(-50, 50), count=st.integers(1, 40))
    def test_lattice_turns_are_the_exact_floor(self, modulus, x0, start, count):
        # 2^64 // q passes int64 at q = 3 and is 2^63 at q = 2
        cat = ToralAutomorphism(CAT, modulus=modulus)
        got = orbit_coords(cat, x0, np.arange(start, start + count))
        residues = lattice_orbit(cat, x0, start, 1, count)
        assert got.dtype == np.uint64
        assert got.tolist() == [[(int(v) << 64) // modulus for v in row] for row in residues]

    def test_no_warning_for_empty_one_element_and_zero_d_inputs(self):
        obs = observable([((1, 0), 0.5), ((-3, 2), 0.25j), ((0, 0), 1.0)])
        systems = ((RotationTorus((PHI, 1e-5)), (0.1, 2.0**-40 + 2.0**-90)),
                   (AnzaiSkew(PHI), (1e-5, 0.3)), (ToralAutomorphism(CAT), (12345, 678)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for system, x0 in systems:
                for n in (np.array([], np.int64), np.array([-1]), np.array(SKEW_MAX_TIME),
                          np.array([0, 1, -SKEW_MAX_TIME])):
                    if isinstance(system, ToralAutomorphism) and n.size > 1:
                        n = np.arange(n.size)
                    coords = orbit_coords(system, x0, n)
                    assert coords.shape == (np.atleast_1d(n).size, 2)
                    assert eval_observable_many(obs, coords).shape == coords.shape[:1]
                point = orbit_point(system, x0, -3)
                if isinstance(system, ToralAutomorphism):
                    point = np.divide(point, system.modulus)
                assert np.isfinite(eval_observable(obs, point))
            assert eval_observable(obs, np.array([0.5, -0.25])) == pytest.approx(
                0.5 * -1 + 0.25j * 1 + 1.0, abs=1e-15)

    def test_negative_and_large_frequencies_are_exact(self):
        # k . x wraps mod 2^64 whatever k, so a negative frequency or one past int64 reads
        # e(k . x) of the exact turns
        coords = orbit_coords(RotationTorus((PHI, 0.3)), (0.1, 0.7), np.arange(-50, 50))
        for k in ((3, -2), (INT64_MAX, 1), (-(1 << 70) - 1, 5)):
            up = eval_observable_many(observable([(k, 1.0)]), coords)
            down = eval_observable_many(observable([(tuple(-v for v in k), 1.0)]), coords)
            assert np.abs(np.conj(up) - down).max() < 1e-15
            for row, value in zip(coords.tolist(), up):
                kx = Fraction(sum(v * c for v, c in zip(k, row)), WORD)
                assert abs(value - oracles.unit_exact(kx)) < 1e-15


class TestRotationClosedForm:
    """Each rotation coordinate is the turn X_i + n A_i, exact for every int64 time."""

    angles = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3)
    @settings(max_examples=200, deadline=None)
    @given(alpha=angles, data=st.data())
    def test_exact_for_every_int64_time(self, alpha, data):
        x0 = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=len(alpha),
                                max_size=len(alpha)))
        times = data.draw(st.lists(st.integers(-INT64_MAX, INT64_MAX) | st.sampled_from(
            [INT64_MAX, -INT64_MAX, (1 << 53) + 1, -(1 << 53) - 1]), min_size=1, max_size=6))
        got = from_turns(orbit_coords(RotationTorus(alpha), x0, np.array(times, np.int64)))
        want = np.array([[float(oracles.exact_rotation(a, x, m)) for a, x in zip(alpha, x0)]
                         for m in times])
        diff = np.abs(got - want)
        assert np.minimum(diff, 1.0 - diff).max() < 1e-12
