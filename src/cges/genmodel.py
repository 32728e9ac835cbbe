"""Generative simulator for confidence-weighted answer sampling.

Two regimes are simulated under a fixed candidate count K:

* ideal - the true answer is emitted with probability equal to the drawn
  confidence, wrong answers share the remainder uniformly;
* realistic - answers follow an arbitrary fixed distribution P over the
  candidates (index 0 is the true answer by convention) while the confidence
  is an independent, possibly miscalibrated, noise signal.

Each trial keeps its draws and the final cumulative log-score of every
candidate.  Its per-round paths (log-scores, the log-likelihood ratios between
the true answer and every competitor, and the posterior trajectory) are
computed on demand, so concentration experiments, which read only the final
round, never build them; expected LLR drift and concentration can still be
checked empirically against closed forms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError

# keeps law draws inside (0, 1) so logs stay finite; interior laws are unaffected
CONFIDENCE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# distribution descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    """Degenerate law: every draw equals ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise ConfigurationError(
                f"point-mass confidence must lie in (0, 1), got {self.value!r}"
            )


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ConfigurationError(
                f"uniform law needs 0 <= lo < hi <= 1, got [{self.lo!r}, {self.hi!r}]"
            )


@dataclass(frozen=True)
class Beta:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ConfigurationError(
                f"beta law needs positive shape parameters, got ({self.alpha!r}, {self.beta!r})"
            )


ScalarLaw = Union[PointMass, Uniform, Beta]


@dataclass(frozen=True)
class PointSimplex:
    """Fixed answer distribution over the K candidates."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(p < 0.0 for p in self.probs):
            raise ConfigurationError("answer probabilities must be >= 0")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"answer probabilities must sum to 1 within 1e-12, got {self.probs!r}"
            )


@dataclass(frozen=True)
class Dirichlet:
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(a <= 0.0 for a in self.alphas):
            raise ConfigurationError("Dirichlet concentrations must be > 0")


SimplexLaw = Union[PointSimplex, Dirichlet]

# a callable receives (P, rng) and returns one confidence in (0, 1)
ConfidenceNoise = Union[ScalarLaw, Callable[[np.ndarray, np.random.Generator], float]]


def sample_scalar(law: ScalarLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, PointMass):
        draws = np.full(size, law.value)
    elif isinstance(law, Uniform):
        draws = rng.uniform(law.lo, law.hi, size)
    elif isinstance(law, Beta):
        draws = rng.beta(law.alpha, law.beta, size)
    else:
        raise ConfigurationError(f"unknown scalar law {law!r}")
    return np.clip(draws, CONFIDENCE_FLOOR, 1.0 - CONFIDENCE_FLOOR)


def sample_simplex(law: SimplexLaw, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, PointSimplex):
        return np.asarray(law.probs, dtype=float)
    if isinstance(law, Dirichlet):
        return rng.dirichlet(law.alphas)
    raise ConfigurationError(f"unknown simplex law {law!r}")


def parse_scalar_law(text: str) -> ScalarLaw:
    """Parse CLI law descriptors: ``point:0.7``, ``uniform:0.55,0.95``, ``beta:2,5``."""
    kind, _, args = text.partition(":")
    try:
        values = [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse law {text!r}") from exc
    if kind == "point" and len(values) == 1:
        return PointMass(values[0])
    if kind == "uniform" and len(values) == 2:
        return Uniform(values[0], values[1])
    if kind == "beta" and len(values) == 2:
        return Beta(values[0], values[1])
    raise ConfigurationError(f"unknown scalar law {text!r}")


def parse_simplex_law(text: str) -> SimplexLaw:
    """Parse CLI descriptors: ``point:0.4,0.6`` or ``dirichlet:1,1,1``."""
    kind, _, args = text.partition(":")
    try:
        values = [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse law {text!r}") from exc
    if kind == "point" and len(values) >= 2:
        return PointSimplex(tuple(values))
    if kind == "dirichlet" and len(values) >= 2:
        return Dirichlet(tuple(values))
    raise ConfigurationError(f"unknown simplex law {text!r}")


# ---------------------------------------------------------------------------
# generator configs and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealGenConfig:
    k: int
    confidence_law: ScalarLaw
    m_max: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigurationError(f"candidate count must be >= 2, got {self.k!r}")
        if self.m_max < 1:
            raise ConfigurationError("m_max must be >= 1")


@dataclass(frozen=True)
class RealisticGenConfig:
    k: int
    answer_law: SimplexLaw
    confidence_noise: ConfidenceNoise
    m_max: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigurationError(f"candidate count must be >= 2, got {self.k!r}")
        if self.m_max < 1:
            raise ConfigurationError("m_max must be >= 1")
        if isinstance(self.answer_law, PointSimplex) and len(self.answer_law.probs) != self.k:
            raise ConfigurationError(
                f"answer law has {len(self.answer_law.probs)} entries for k={self.k}"
            )
        if isinstance(self.answer_law, Dirichlet) and len(self.answer_law.alphas) != self.k:
            raise ConfigurationError(
                f"answer law has {len(self.answer_law.alphas)} entries for k={self.k}"
            )


GenConfig = Union[IdealGenConfig, RealisticGenConfig]


def _log_terms(responses: np.ndarray, confidences: np.ndarray, k: int) -> np.ndarray:
    """Per-round log-likelihood of every candidate, shape (m, K).

    Row t holds log C at the answer drawn at round t + 1 and
    log((1 - C) / (K - 1)) at every other candidate: the fixed-K kernel.
    """
    log_hit = np.log(confidences)
    log_miss = np.log1p(-confidences) - math.log(k - 1)
    terms = np.repeat(log_miss[:, None], k, axis=1)
    terms[np.arange(len(responses)), responses] = log_hit
    return terms


def _normalise(log_scores: np.ndarray) -> np.ndarray:
    """Posterior rows from rows of log-scores: max shift, log-sum-exp, exp."""
    shift = log_scores.max(axis=1, keepdims=True)
    log_z = shift + np.log(np.exp(log_scores - shift).sum(axis=1, keepdims=True))
    return np.exp(log_scores - log_z)


@dataclass
class TrialTrace:
    """One simulated question: its draws, final log-scores and, on demand, paths.

    ``responses[t]`` and ``confidences[t]`` are the answer index and the
    confidence drawn at round t + 1; fixed-K candidates are the integers
    0..K-1.  ``final_log_score[j]`` is candidate j's cumulative log-score
    after the last round, and equals ``log_score_path[-1, j]`` bit for bit.

    The paths are computed on first access and then kept:
    ``log_score_path[t]`` is the cumulative log-score row after t + 1 rounds,
    ``posterior_path[t]`` its normalized posterior row, and
    ``llr_paths[j][t]`` the cumulative log-likelihood ratio between the true
    index and competitor j.  The posterior ratio mass[true]/mass[j] equals
    exp(llr_paths[j]) at every round, up to float rounding.
    """

    true_index: int
    k: int
    responses: np.ndarray
    confidences: np.ndarray
    final_log_score: np.ndarray

    @classmethod
    def from_draws(
        cls, true_index: int, responses: np.ndarray, confidences: np.ndarray, k: int
    ) -> TrialTrace:
        cumulative = np.cumsum(_log_terms(responses, confidences, k), axis=0)
        # a copy, not a view: the trace must not keep the (m, K) cumsum alive
        return cls(true_index, k, responses, confidences, cumulative[-1].copy())

    @cached_property
    def log_score_path(self) -> np.ndarray:
        return np.cumsum(_log_terms(self.responses, self.confidences, self.k), axis=0)

    @cached_property
    def posterior_path(self) -> np.ndarray:
        return _normalise(self.log_score_path)

    @cached_property
    def llr_paths(self) -> dict[int, np.ndarray]:
        terms = _log_terms(self.responses, self.confidences, self.k)
        truth = self.true_index
        return {
            j: np.cumsum(terms[:, truth] - terms[:, j]) for j in range(self.k) if j != truth
        }


def sample_ideal(
    config: IdealGenConfig, m: int, rng: np.random.Generator
) -> TrialTrace:
    """Simulate one question under the calibrated-confidence model.

    The true index is uniform over the K candidates; each round draws a
    confidence C from the configured law and emits the true answer with
    probability C, otherwise a uniformly random wrong one.
    """
    _check_rounds(config, m)
    true_index = int(rng.integers(config.k))
    confidences = sample_scalar(config.confidence_law, m, rng)
    matches = rng.random(m) < confidences
    wrong = rng.integers(config.k - 1, size=m)
    wrong = wrong + (wrong >= true_index)  # uniform over the K-1 others
    responses = np.where(matches, true_index, wrong)
    return TrialTrace.from_draws(true_index, responses, confidences, config.k)


def sample_realistic(
    config: RealisticGenConfig, m: int, rng: np.random.Generator
) -> TrialTrace:
    """Simulate one question with mismatched answer and confidence laws.

    Answers are i.i.d. from P (index 0 is the true answer); confidences come
    from the configured noise source and need not reflect P at all.
    """
    _check_rounds(config, m)
    probs = sample_simplex(config.answer_law, rng)
    responses = rng.choice(config.k, size=m, p=probs)
    if callable(config.confidence_noise):
        confidences = np.clip(
            np.array([config.confidence_noise(probs, rng) for _ in range(m)]),
            CONFIDENCE_FLOOR,
            1.0 - CONFIDENCE_FLOOR,
        )
    else:
        confidences = sample_scalar(config.confidence_noise, m, rng)
    return TrialTrace.from_draws(0, responses, confidences, config.k)


def _check_rounds(config: GenConfig, m: int) -> None:
    if not 1 <= m <= config.m_max:
        raise ConfigurationError(f"m must lie in [1, {config.m_max}], got {m}")


def simulate_trace(config: GenConfig, m: int, rng: np.random.Generator) -> TrialTrace:
    if isinstance(config, IdealGenConfig):
        return sample_ideal(config, m, rng)
    return sample_realistic(config, m, rng)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


class DriftMethod(Enum):
    CLOSED_FORM = "closed_form"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class DriftEstimate:
    """Expected per-round LLR increment against each competitor.

    Keys are competitor indices in the relabeled convention where the true
    answer sits at index 0.  Positive drift against every competitor means the
    posterior concentrates on the truth as rounds accumulate.
    """

    mu: dict[int, float]
    std_err: dict[int, float]
    method: DriftMethod


def drift(
    config: GenConfig,
    n_mc: int = 20_000,
    rng: Optional[np.random.Generator] = None,
    method: Optional[DriftMethod] = None,
) -> DriftEstimate:
    """Expected LLR drift, in closed form for point-mass laws or by Monte Carlo.

    The closed forms: ideal with constant confidence c has drift
    (c - theta) * log(c / theta) against every competitor, with
    theta = (1 - c)/(K - 1); realistic with constant P and c has drift
    (P_0 - P_j) * log(c / theta) against competitor j.
    """
    closed_form_ok = _closed_form_available(config)
    if method is DriftMethod.CLOSED_FORM and not closed_form_ok:
        raise ConfigurationError(
            "closed-form drift needs point-mass confidence (and answer) laws"
        )
    if method is None:
        method = DriftMethod.CLOSED_FORM if closed_form_ok else DriftMethod.MONTE_CARLO

    if method is DriftMethod.CLOSED_FORM:
        return _drift_closed_form(config)
    if n_mc < 1:
        raise ConfigurationError("Monte Carlo drift needs n_mc >= 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _drift_monte_carlo(config, n_mc, rng)


def _closed_form_available(config: GenConfig) -> bool:
    if isinstance(config, IdealGenConfig):
        return isinstance(config.confidence_law, PointMass)
    return isinstance(config.answer_law, PointSimplex) and isinstance(
        config.confidence_noise, PointMass
    )


def _drift_closed_form(config: GenConfig) -> DriftEstimate:
    k = config.k
    if isinstance(config, IdealGenConfig):
        c = config.confidence_law.value
        theta = (1.0 - c) / (k - 1)
        value = (c - theta) * (math.log(c) - math.log(theta))
        mu = {j: value for j in range(1, k)}
    else:
        c = config.confidence_noise.value
        theta = (1.0 - c) / (k - 1)
        log_ratio = math.log(c) - math.log(theta)
        probs = config.answer_law.probs
        mu = {j: (probs[0] - probs[j]) * log_ratio for j in range(1, k)}
    return DriftEstimate(
        mu=mu, std_err={j: 0.0 for j in mu}, method=DriftMethod.CLOSED_FORM
    )


def _drift_monte_carlo(
    config: GenConfig, n_mc: int, rng: np.random.Generator
) -> DriftEstimate:
    k = config.k
    if isinstance(config, IdealGenConfig):
        confidences = sample_scalar(config.confidence_law, n_mc, rng)
        matches = rng.random(n_mc) < confidences
        wrong = 1 + rng.integers(k - 1, size=n_mc)  # truth relabeled to 0
        responses = np.where(matches, 0, wrong)
    else:
        if isinstance(config.answer_law, PointSimplex):
            probs = np.tile(np.asarray(config.answer_law.probs), (n_mc, 1))
        else:
            probs = rng.dirichlet(config.answer_law.alphas, size=n_mc)
        responses = (rng.random((n_mc, 1)) > np.cumsum(probs, axis=1)).sum(axis=1)
        if callable(config.confidence_noise):
            confidences = np.clip(
                np.array([config.confidence_noise(p, rng) for p in probs]),
                CONFIDENCE_FLOOR,
                1.0 - CONFIDENCE_FLOOR,
            )
        else:
            confidences = sample_scalar(config.confidence_noise, n_mc, rng)

    log_ratio = np.log(confidences) - (np.log1p(-confidences) - math.log(k - 1))
    mu: dict[int, float] = {}
    std_err: dict[int, float] = {}
    for j in range(1, k):
        increments = np.where(
            responses == 0, log_ratio, np.where(responses == j, -log_ratio, 0.0)
        )
        mu[j] = float(increments.mean())
        std_err[j] = float(increments.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else float("inf")
    return DriftEstimate(mu=mu, std_err=std_err, method=DriftMethod.MONTE_CARLO)


# ---------------------------------------------------------------------------
# concentration experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    m: int
    trials: int
    success_freq: float
    mean_mass_truth: float
    drift: dict[int, float]
    seed: int


def concentration_experiment(
    config: GenConfig,
    m_schedule: Sequence[int],
    trials: int,
    drift_n_mc: int = 20_000,
) -> list[ConcentrationRow]:
    """Empirical concentration of the posterior on the true answer.

    For each m in the schedule, runs ``trials`` independent traces and reports
    how often the final argmax hits the truth and the mean posterior mass it
    holds.  Trial i of row m uses the generator seeded with
    (config.seed, m, i), so rows are independent and order-insensitive.  Only
    each trace's final log-scores are read; its per-round paths are never built.
    """
    if not m_schedule:
        raise ConfigurationError("m_schedule must name at least one round count")
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    for m in m_schedule:
        _check_rounds(config, m)
    drift_estimate = drift(
        config, n_mc=drift_n_mc, rng=np.random.default_rng([config.seed, 0x5EED])
    )
    rows: list[ConcentrationRow] = []
    for m in m_schedule:
        final_log_scores = np.empty((trials, config.k))
        truths = np.empty(trials, dtype=np.intp)
        for trial in range(trials):
            rng = np.random.default_rng([config.seed, m, trial])
            trace = simulate_trace(config, m, rng)
            final_log_scores[trial] = trace.final_log_score
            truths[trial] = trace.true_index
        posterior = _normalise(final_log_scores)
        # np.argmax takes the first maximum, matching earliest-label tie-breaking
        hits = int(np.count_nonzero(posterior.argmax(axis=1) == truths))
        mass_sum = 0.0  # summed in trial order; numpy's pairwise sum rounds differently
        for mass in posterior[np.arange(trials), truths].tolist():
            mass_sum += mass
        rows.append(
            ConcentrationRow(
                m=m,
                trials=trials,
                success_freq=hits / trials,
                mean_mass_truth=mass_sum / trials,
                drift=dict(drift_estimate.mu),
                seed=config.seed,
            )
        )
    return rows


def write_concentration_csv(rows: Sequence[ConcentrationRow], path: Union[str, Path]) -> None:
    """Emit experiment rows as CSV with one drift column per competitor."""
    path = Path(path)
    competitor_ids = sorted(rows[0].drift) if rows else []
    header = ["m", "trials", "success_freq", "mean_mass_truth"]
    header += [f"drift_{j}" for j in competitor_ids]
    header += ["seed"]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            record = [row.m, row.trials, row.success_freq, row.mean_mass_truth]
            record += [row.drift[j] for j in competitor_ids]
            record += [row.seed]
            writer.writerow(record)
