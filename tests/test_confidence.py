"""Tests for the scalar confidence estimators."""

import math

import numpy as np
import pytest

from cges.confidence import (
    DEFAULT_CLAMP_EPSILON,
    TokenizedResponse,
    clamp,
    lns_arithmetic,
    lns_geometric,
    mars_step_weights,
    mars_stepwise,
    reward_passthrough,
)
from cges.errors import CGESError, EmptyResponseError, InvalidScoreError

EPS = DEFAULT_CLAMP_EPSILON


class TestLns:
    def test_geometric_of_certain_tokens_clamps_below_one(self):
        response = TokenizedResponse((1.0, 1.0, 1.0))
        assert lns_geometric(response) == 1.0 - EPS

    def test_geometric_of_constant_sequence(self):
        assert lns_geometric(TokenizedResponse((0.5, 0.5))) == pytest.approx(0.5, rel=1e-12)

    def test_geometric_hand_value(self):
        # sqrt(0.9 * 0.4) = 0.6
        assert lns_geometric(TokenizedResponse((0.9, 0.4))) == pytest.approx(0.6, rel=1e-12)

    def test_arithmetic_hand_value(self):
        assert lns_arithmetic(TokenizedResponse((0.9, 0.4))) == pytest.approx(0.65, rel=1e-12)

    def test_arithmetic_single_token_identity(self):
        assert lns_arithmetic(TokenizedResponse((0.37,))) == pytest.approx(0.37, rel=1e-15)

    def test_clamping_keeps_results_interior(self):
        low = lns_geometric(TokenizedResponse((1e-30, 1e-30)))
        assert low == EPS
        assert EPS <= lns_arithmetic(TokenizedResponse((1.0, 1e-30))) <= 1.0 - EPS

    def test_empty_response_rejected(self):
        with pytest.raises(EmptyResponseError):
            lns_geometric(TokenizedResponse(()))

    def test_geometric_never_exceeds_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            length = int(rng.integers(1, 40))
            probs = tuple(float(p) for p in rng.uniform(0.05, 1.0, size=length))
            response = TokenizedResponse(probs)
            geo, arith = lns_geometric(response), lns_arithmetic(response)
            assert geo <= arith + 1e-15
            if max(probs) - min(probs) > 1e-6:
                assert arith - geo > 0.0


def _steps(*step_probs):
    """One ``TokenizedResponse`` per reasoning step."""
    return [TokenizedResponse(tuple(probs)) for probs in step_probs]


class TestMars:
    def test_single_step_collapses_to_geometric(self):
        response = TokenizedResponse((0.9, 0.4, 0.7))
        assert mars_stepwise([response], [2.5]) == pytest.approx(lns_geometric(response), abs=1e-12)

    def test_uniform_importance_hand_value(self):
        assert mars_stepwise(_steps([0.9], [0.4]), [1.0, 1.0]) == pytest.approx(0.6, abs=1e-9)

    def test_skewed_importance_hand_value(self):
        # weights (0.75, 0.25) -> 0.9**0.75 * 0.4**0.25
        assert mars_stepwise(_steps([0.9], [0.4]), [1.0, 0.0]) == pytest.approx(
            0.9**0.75 * 0.4**0.25, abs=1e-9
        )

    def test_weights_sum_to_exactly_one(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_steps = int(rng.integers(1, 12))
            importance = [float(u) for u in rng.uniform(0.0, 5.0, size=n_steps)]
            weights = mars_step_weights(importance)
            assert math.fsum(weights) == 1.0

    def test_all_zero_importance_falls_back_to_uniform(self):
        assert mars_step_weights([0.0, 0.0]) == (0.5, 0.5)

    def test_importance_scaling_invariance(self):
        steps = _steps([0.9, 0.8], [0.4], [0.6, 0.5, 0.7])
        base = mars_stepwise(steps, [1.0, 3.0, 0.5])
        doubled = mars_stepwise(steps, [2.0, 6.0, 1.0])
        scaled = mars_stepwise(steps, [3.7, 11.1, 1.85])
        assert doubled == base
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_equal_steps_uniform_importance_matches_geometric(self):
        whole = TokenizedResponse((0.9, 0.8, 0.4, 0.3))
        assert mars_stepwise(_steps([0.9, 0.8], [0.4, 0.3]), [1.0, 1.0]) == pytest.approx(
            lns_geometric(whole), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_importance_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="importance scores must be finite and >= 0") as info:
            mars_stepwise(_steps([0.9], [0.4]), [1.0, bad])
        assert isinstance(info.value, CGESError)


class TestRewardPassthrough:
    def test_interior_identity(self):
        assert reward_passthrough(0.73) == 0.73

    def test_boundary_clamps(self):
        assert reward_passthrough(1.0) == 1.0 - EPS
        assert reward_passthrough(-0.1) == EPS

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidScoreError):
            reward_passthrough(float("nan"))
        with pytest.raises(InvalidScoreError):
            reward_passthrough(float("inf"))


class TestRangeInvariant:
    def test_every_estimator_stays_clamped(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            length = int(rng.integers(1, 20))
            probs = tuple(float(p) for p in rng.uniform(1e-9, 1.0, size=length))
            boundaries, cursor = [], 0
            while cursor < length:
                step = int(rng.integers(1, length - cursor + 1))
                boundaries.append((cursor, cursor + step))
                cursor += step
            importance = tuple(float(u) for u in rng.uniform(0, 2, size=len(boundaries)))
            response = TokenizedResponse(probs)
            steps = [TokenizedResponse(probs[start:stop]) for start, stop in boundaries]
            for value in (
                lns_geometric(response),
                lns_arithmetic(response),
                mars_stepwise(steps, importance),
                reward_passthrough(float(rng.normal())),
            ):
                assert EPS <= value <= 1.0 - EPS


class TestTokenizedResponse:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError) as info:
            TokenizedResponse((0.5, 0.0))
        assert isinstance(info.value, CGESError)
        with pytest.raises(ValueError) as info:
            TokenizedResponse((1.5,))
        assert isinstance(info.value, CGESError)

    def test_importance_length_must_match_steps(self):
        with pytest.raises(ValueError) as info:
            mars_stepwise(_steps([0.5], [0.5]), (1.0,))
        assert isinstance(info.value, CGESError)


class TestClamp:
    def test_clamp_helper(self):
        assert clamp(0.5) == 0.5
        assert clamp(2.0) == 1.0 - EPS
        assert clamp(-1.0) == EPS
