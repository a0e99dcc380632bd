"""Multiplier symbol factories and the admissible-eps policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wie.symbols import (
    EpsilonPolicy,
    MultiplierSymbol,
    classical,
    fractional,
    from_table,
    zeroth_order,
)


class TestFactories:
    def test_classical_values(self):
        sym = classical()
        assert sym(3.0) == 9.0
        np.testing.assert_allclose(sym(np.array([-2.0, 0.0, 0.5])), [4.0, 0.0, 0.25])

    def test_scalar_in_scalar_out(self):
        assert isinstance(classical()(2.0), float)
        assert isinstance(fractional(0.5)(np.array([1.0, 2.0])), np.ndarray)

    @given(s=st.floats(0.05, 0.95), xi=st.floats(-30.0, 30.0))
    @settings(deadline=None, max_examples=80)
    def test_fractional_matches_power(self, s, xi):
        assert fractional(s)(xi) == pytest.approx((xi * xi) ** s, rel=1e-14)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.2])
    def test_fractional_order_bounds(self, s):
        with pytest.raises(ValueError):
            fractional(s)

    def test_zeroth_order_mass_is_free(self):
        kernel = lambda xi: np.exp(-0.5 * np.asarray(xi) ** 2)
        sym = zeroth_order(2.0, kernel)
        assert sym(0.0) == pytest.approx(1.0)       # 2 - 1
        assert sym(100.0) == pytest.approx(2.0)     # kernel gone at infinity

    def test_table_interpolates_and_clamps(self):
        sym = from_table([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert sym(0.5) == pytest.approx(0.5)
        assert sym(1.5) == pytest.approx(2.5)
        assert sym(-10.0) == pytest.approx(0.0)     # clamped left
        assert sym(10.0) == pytest.approx(4.0)      # clamped right

    def test_table_accepts_unsorted_points(self):
        sym = from_table([2.0, 0.0, 1.0], [4.0, 0.0, 1.0])
        assert sym(0.5) == pytest.approx(0.5)

    def test_table_shape_checks(self):
        with pytest.raises(ValueError):
            from_table([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            from_table([0.0], [1.0])

    def test_symbol_wraps_callable(self):
        sym = MultiplierSymbol("shifted", lambda xi: np.abs(xi) + 1.0)
        assert sym.name == "shifted"
        assert sym(-3.0) == pytest.approx(4.0)


class TestEpsilonPolicy:
    def test_negative_bound_threshold(self):
        assert EpsilonPolicy().epsilon_threshold(-1.0) == pytest.approx(0.125)

    def test_zero_bound_uses_cap(self):
        assert EpsilonPolicy().epsilon_threshold(0.0) == pytest.approx(0.5)

    def test_safety_scales_threshold(self):
        pol = EpsilonPolicy(safety=0.5)
        assert pol.epsilon_threshold(-4.0) == pytest.approx(0.015625)

    def test_positive_bound_rejected(self):
        with pytest.raises(ValueError):
            EpsilonPolicy().epsilon_threshold(0.3)

    def test_lower_bound_caps_at_zero(self):
        grid = np.linspace(-5.0, 5.0, 101)
        assert EpsilonPolicy().lower_bound(classical()(grid)) == 0.0

    def test_margin_shifts_bound(self):
        grid = np.linspace(-5.0, 5.0, 101)
        pol = EpsilonPolicy(margin=0.25)
        assert pol.lower_bound(classical()(grid)) == pytest.approx(-0.25)

    def test_threshold_for_negative_symbol(self):
        kernel = lambda xi: 2.0 * np.exp(-0.5 * np.asarray(xi) ** 2)
        sym = zeroth_order(1.0, kernel)          # dips to -1 at the origin
        grid = np.linspace(-10.0, 10.0, 201)
        pol = EpsilonPolicy()
        assert pol.epsilon_threshold(pol.lower_bound(sym(grid))) == pytest.approx(0.125)

    @given(bound=st.floats(-50.0, -0.01))
    @settings(deadline=None, max_examples=60)
    def test_threshold_keeps_discriminant_above_half(self, bound):
        eps = EpsilonPolicy().epsilon_threshold(bound)
        assert 1.0 + 4.0 * eps * bound >= 0.5 - 1e-12

