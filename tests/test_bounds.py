import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame import (
    BoundParamError,
    anytime_tau_bound,
    batch_error_bounds,
    tuned_batch_params,
)


class TestBatchErrorBounds:
    def test_zero_delta_clamps_to_one(self):
        p_l, _ = batch_error_bounds(2, 2, 100, 0.0, 0.9)
        assert p_l == 1.0

    def test_frozen_value_l500(self):
        p_l, _ = batch_error_bounds(2, 2, 500, 0.3, 0.999)
        assert p_l == pytest.approx(8 * math.exp(-22.5), rel=1e-12)

    def test_delta_l_formula(self):
        beta = 0.99 ** (1 / 100)  # beta^L = 0.99 at L = 100
        _, delta_l = batch_error_bounds(2, 2, 100, 0.1, beta)
        assert delta_l == pytest.approx(0.13, abs=1e-12)

    def test_parameter_ranges(self):
        with pytest.raises(BoundParamError):
            batch_error_bounds(1, 2, 100, 0.1, 0.9)
        with pytest.raises(BoundParamError):
            batch_error_bounds(2, 2, 100, 0.1, 1.0)

    @given(length=st.integers(1, 10_000), delta=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_probability_typed_output_in_unit_interval(self, length, delta):
        p_l, _ = batch_error_bounds(2, 2, length, delta, 0.9)
        assert 0.0 <= p_l <= 1.0


class TestTunedBatchParams:
    def test_frozen_eps_one(self):
        schedule = tuned_batch_params(1.0, 2, 2)
        assert schedule.delta == 0.0625
        assert schedule.batch_length == 6422
        assert schedule.beta_pow_l_window == (1 - 1 / 16, 1 - 1 / 32)

    def test_frozen_eps_half(self):
        schedule = tuned_batch_params(0.5, 2, 2)
        assert schedule.delta == 0.03125
        assert schedule.batch_length == 31410

    def test_delta_independent_of_k_n(self):
        for k, n in ((2, 2), (3, 2), (5, 7)):
            assert tuned_batch_params(0.4, k, n).delta == 0.4 / 16

    def test_range_error(self):
        with pytest.raises(BoundParamError):
            tuned_batch_params(0.0, 2, 2)
        with pytest.raises(BoundParamError):
            tuned_batch_params(1.5, 2, 2)


class TestAnytimeTauBound:
    def test_frozen_value(self):
        value = anytime_tau_bound(0.05, 0.2, 0.5, C=1.0)
        expected = 10 * math.log(20) / 0.04 + (1 + math.log(2)) / 0.2**5
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(6040.0, abs=0.1)

    def test_zero_support_is_infinite(self):
        assert anytime_tau_bound(0.05, 0.1, 0.0) == math.inf

    def test_decreasing_in_epsilon(self):
        lo = anytime_tau_bound(0.05, 0.1, 0.5)
        hi = anytime_tau_bound(0.05, 0.2, 0.5)
        assert hi < lo

    @pytest.mark.parametrize("gamma, epsilon, w_min, C, message", [
        (0.0, 0.1, 0.5, 1.0, "gamma must lie in"),
        (1.0, 0.1, 0.5, 1.0, "gamma must lie in"),
        (0.05, 0.0, 0.5, 1.0, "epsilon must be positive"),
        (0.05, 0.1, 0.5, 0.0, "universal constants must be positive"),
        (0.05, 0.1, 1.5, 1.0, "w_min must lie in"),
    ])
    def test_parameter_ranges(self, gamma, epsilon, w_min, C, message):
        with pytest.raises(BoundParamError, match=message):
            anytime_tau_bound(gamma, epsilon, w_min, C=C)
