"""Numerics: the exact mod-1 polynomial kernel `frac_poly` against exact
rational arithmetic, over all of int64 and every small degree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergonil import DomainError, PolynomialPhase
from ergonil.numerics import frac_poly

import oracles

PHI = (np.sqrt(5.0) - 1.0) / 2.0
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
EDGES = [0, 1, -1, (1 << 26) - 1, (1 << 26) + 1, -(1 << 26) - 1, (1 << 53) - 1, (1 << 53) + 1,
         -(1 << 53) - 1, INT64_MAX, -INT64_MAX, INT64_MIN]


def circle_error(coefficients, ns):
    got = frac_poly(coefficients, np.array(ns, dtype=np.int64))
    want = np.array([oracles.exact_phase(coefficients, n) for n in ns])
    d = np.abs(got - want)
    assert ((got >= 0.0) & (got < 1.0)).all()
    return float(np.minimum(d, 1.0 - d).max())


coefficient = st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)


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
