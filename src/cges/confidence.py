"""Scalar confidence estimators over token-level generation probabilities.

Each estimator maps a tokenized response (one per reasoning step for the
step-wise score, or an external reward score) to a single confidence in the
open interval (0, 1), clamped away from the boundaries so downstream
log-likelihoods stay finite.  A malformed input (no tokens, a token
probability outside (0, 1], or a reward score that is not finite) raises
``InvalidSampleError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ConfigurationError, InvalidSampleError

DEFAULT_CLAMP_EPSILON = 1e-6


class Estimator(Enum):
    """Available confidence estimators; values double as record-store keys."""

    LNS_ARITHMETIC = "lns_arith"
    LNS_GEOMETRIC = "lns_geo"
    MARS_STEPWISE = "mars"
    REWARD_PASSTHROUGH = "rm"


@dataclass(frozen=True)
class TokenizedResponse:
    """Per-token generation probabilities of a response, or of one reasoning step."""

    token_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.token_probs) == 0:
            raise InvalidSampleError("a tokenized response needs at least one token")
        for p in self.token_probs:
            if not 0.0 < p <= 1.0:
                raise InvalidSampleError(f"token probability must lie in (0, 1], got {p!r}")


def clamp(value: float) -> float:
    """Clamp into [DEFAULT_CLAMP_EPSILON, 1 - DEFAULT_CLAMP_EPSILON]."""
    return min(max(value, DEFAULT_CLAMP_EPSILON), 1.0 - DEFAULT_CLAMP_EPSILON)


def lns_geometric(response: TokenizedResponse) -> float:
    """Geometric mean of the token probabilities (length-normalized score)."""
    mean_log = math.fsum(math.log(p) for p in response.token_probs) / len(
        response.token_probs
    )
    return clamp(math.exp(mean_log))


def lns_arithmetic(response: TokenizedResponse) -> float:
    """Arithmetic mean of the token probabilities."""
    mean = math.fsum(response.token_probs) / len(response.token_probs)
    return clamp(mean)


def mars_step_weights(step_importance: Sequence[float]) -> tuple[float, ...]:
    """Step weights 1/(2S) + u_s_normalized/2; all-zero importance falls back to uniform.

    The true weights sum to 1, so the last one is written as the complement of
    the rest; that keeps the float sum exactly 1.0.
    """
    n_steps = len(step_importance)
    if n_steps == 0:
        raise ConfigurationError("at least one step is required")
    total = math.fsum(step_importance)
    if total > 0.0:
        normalized = [u / total for u in step_importance]
    else:
        normalized = [1.0 / n_steps] * n_steps
    base = 1.0 / (2 * n_steps)
    weights = [base + u / 2.0 for u in normalized]
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return tuple(weights)


def mars_stepwise(
    steps: Sequence[TokenizedResponse], step_importance: Sequence[float]
) -> float:
    """Importance-weighted geometric mean over reasoning steps.

    Each step's probability is the geometric mean of its token probabilities;
    ``step_importance`` holds one finite score >= 0 per step, turned into step
    weights by :func:`mars_step_weights`.
    """
    if len(step_importance) != len(steps):
        raise InvalidSampleError(
            f"got {len(step_importance)} importance scores for {len(steps)} steps"
        )
    for u in step_importance:
        if not (math.isfinite(u) and u >= 0.0):
            raise InvalidSampleError(f"importance scores must be finite and >= 0, got {u!r}")
    log_score = 0.0
    for step, weight in zip(steps, mars_step_weights(step_importance)):
        probs = step.token_probs
        log_score += weight * (math.fsum(math.log(p) for p in probs) / len(probs))
    return clamp(math.exp(log_score))


def reward_passthrough(score: float) -> float:
    """Use an external reward-model score directly as the confidence."""
    if not math.isfinite(score):
        raise InvalidSampleError(f"reward score must be finite, got {score!r}")
    return clamp(score)
