"""Generative simulator for confidence-weighted answer sampling.

Two regimes are simulated under a fixed candidate count K:

* ideal - the true answer is emitted with probability equal to the drawn
  confidence, wrong answers share the remainder uniformly;
* realistic - answers follow an arbitrary fixed distribution P over the
  candidates (index 0 is the true answer by convention) while the confidence
  is an independent, possibly miscalibrated, noise signal.

The API:

* ``draw_trials`` draws a block of n questions of m rounds at once, in either
  regime;
* ``drift`` is the expected per-round log-likelihood-ratio increment, in
  closed form for point-mass laws and by Monte Carlo otherwise;
* ``concentration_experiment`` scores blocks of ``draw_trials`` at each round
  count m of a schedule, and ``write_concentration_csv`` writes its rows.

The fixed-K log-likelihood is written once, in ``_round_terms``, which takes
its draws rounds first.  The experiment sums its output over rounds and the
Monte Carlo drift differences its candidate columns.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union, get_args

import numpy as np

from .errors import ConfigurationError

# keeps law draws inside (0, 1) so logs stay finite; interior laws are unaffected
CONFIDENCE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# distribution descriptors
# ---------------------------------------------------------------------------


def _check_finite(law: str, params: Sequence[float]) -> None:
    """Refuse NaN and infinite parameters, which the range checks below let through."""
    if not all(math.isfinite(v) for v in params):
        raise ConfigurationError(f"{law} law parameters must be finite, got {tuple(params)!r}")


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
        _check_finite("beta", (self.alpha, self.beta))
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
        _check_finite("point", self.probs)
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
        _check_finite("dirichlet", self.alphas)
        if any(a <= 0.0 for a in self.alphas):
            raise ConfigurationError("Dirichlet concentrations must be > 0")


SimplexLaw = Union[PointSimplex, Dirichlet]


def _check_int(name: str, value: object) -> None:
    """Refuse a bool, float or other non-integer where a count or seed belongs."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")


def _check_counts(config: GenConfig) -> None:
    """The integer fields both generator configs share: k, m_max and seed."""
    for name in ("k", "m_max", "seed"):
        _check_int(name, getattr(config, name))
    if config.k < 2:
        raise ConfigurationError(f"candidate count must be >= 2, got {config.k!r}")
    if config.m_max < 1:
        raise ConfigurationError("m_max must be >= 1")
    if config.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {config.seed!r}")


def _check_law(role: str, law: object, kind: object) -> None:
    """Refuse at config time a law the samplers would only refuse at draw time."""
    if not isinstance(law, get_args(kind)):
        names = ", ".join(t.__name__ for t in get_args(kind))
        raise ConfigurationError(f"{role} must be one of {names}, got {law!r}")


def sample_scalar(
    law: ScalarLaw, size: Union[int, tuple[int, ...]], rng: np.random.Generator
) -> np.ndarray:
    if isinstance(law, PointMass):
        draws = np.full(size, law.value)
    elif isinstance(law, Uniform):
        draws = rng.uniform(law.lo, law.hi, size)
    elif isinstance(law, Beta):
        draws = rng.beta(law.alpha, law.beta, size)
    else:
        raise ConfigurationError(f"unknown scalar law {law!r}")
    return np.clip(draws, CONFIDENCE_FLOOR, 1.0 - CONFIDENCE_FLOOR)


def sample_simplex(law: SimplexLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` answer distributions, one per row: shape (size, K)."""
    if isinstance(law, PointSimplex):
        return np.tile(np.asarray(law.probs, dtype=float), (size, 1))
    if isinstance(law, Dirichlet):
        return rng.dirichlet(law.alphas, size=size)
    raise ConfigurationError(f"unknown simplex law {law!r}")


def _parse_law(text: str) -> tuple[str, list[float]]:
    """Split a CLI law descriptor ``kind:v1,v2,...`` into its kind and values."""
    kind, _, args = text.partition(":")
    try:
        return kind, [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse law {text!r}") from exc


def parse_scalar_law(text: str) -> ScalarLaw:
    """Parse CLI law descriptors: ``point:0.7``, ``uniform:0.55,0.95``, ``beta:2,5``."""
    kind, values = _parse_law(text)
    if kind == "point" and len(values) == 1:
        return PointMass(values[0])
    if kind == "uniform" and len(values) == 2:
        return Uniform(values[0], values[1])
    if kind == "beta" and len(values) == 2:
        return Beta(values[0], values[1])
    raise ConfigurationError(f"unknown scalar law {text!r}")


def parse_simplex_law(text: str) -> SimplexLaw:
    """Parse CLI descriptors: ``point:0.4,0.6`` or ``dirichlet:1,1,1``."""
    kind, values = _parse_law(text)
    if kind == "point" and len(values) >= 2:
        return PointSimplex(tuple(values))
    if kind == "dirichlet" and len(values) >= 2:
        return Dirichlet(tuple(values))
    raise ConfigurationError(f"unknown simplex law {text!r}")


# ---------------------------------------------------------------------------
# generator configs and draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealGenConfig:
    k: int
    confidence_law: ScalarLaw
    m_max: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(self)
        _check_law("confidence law", self.confidence_law, ScalarLaw)


@dataclass(frozen=True)
class RealisticGenConfig:
    k: int
    answer_law: SimplexLaw
    confidence_noise: ScalarLaw
    m_max: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(self)
        _check_law("answer law", self.answer_law, SimplexLaw)
        _check_law("confidence noise", self.confidence_noise, ScalarLaw)
        if isinstance(self.answer_law, PointSimplex) and len(self.answer_law.probs) != self.k:
            raise ConfigurationError(
                f"answer law has {len(self.answer_law.probs)} entries for k={self.k}"
            )
        if isinstance(self.answer_law, Dirichlet) and len(self.answer_law.alphas) != self.k:
            raise ConfigurationError(
                f"answer law has {len(self.answer_law.alphas)} entries for k={self.k}"
            )


GenConfig = Union[IdealGenConfig, RealisticGenConfig]


def _round_terms(responses: np.ndarray, confidences: np.ndarray, k: int) -> np.ndarray:
    """Per-round log-likelihood of every candidate, rounds first: shape (m, n, K).

    Takes the answers and confidences of n questions as (m, n) arrays, round
    t + 1 in row t.  Entry [t, i, j] is log C at the answer question i drew at
    round t + 1 and log((1 - C) / (K - 1)) at every other candidate: the
    fixed-K kernel.  ``.sum(axis=0)`` adds the rounds one at a time in round
    order, so it equals the last row of each question's cumsum bit for bit;
    a sum over a contiguous last axis would sum pairwise and round differently.
    """
    m, n = responses.shape
    terms = np.repeat(np.log1p(-confidences) - math.log(k - 1), k).reshape(m, n, k)
    terms.reshape(m * n, k)[np.arange(m * n), responses.ravel()] = np.log(confidences).ravel()
    return terms


def _normalise(log_scores: np.ndarray) -> np.ndarray:
    """Posterior rows from rows of log-scores: max shift, log-sum-exp, exp."""
    shift = log_scores.max(axis=1, keepdims=True)
    log_z = shift + np.log(np.exp(log_scores - shift).sum(axis=1, keepdims=True))
    return np.exp(log_scores - log_z)


Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


def _draw_ideal(config: IdealGenConfig, m: int, n: int, rng: np.random.Generator) -> Draws:
    """n questions under the calibrated-confidence model.

    The true index is uniform over the K candidates; each round draws a
    confidence C from the configured law and emits the true answer with
    probability C, otherwise a uniformly random wrong one.
    """
    truths = rng.integers(config.k, size=n)
    confidences = sample_scalar(config.confidence_law, (n, m), rng)
    matches = rng.random((n, m)) < confidences
    wrong = rng.integers(config.k - 1, size=(n, m))
    wrong += wrong >= truths[:, None]  # uniform over the K-1 others
    return truths, np.where(matches, truths[:, None], wrong), confidences


def _draw_realistic(
    config: RealisticGenConfig, m: int, n: int, rng: np.random.Generator
) -> Draws:
    """n questions with mismatched answer and confidence laws.

    Each question draws its answer distribution P from the answer law;
    answers are then i.i.d. from P (index 0 is the true answer), and
    confidences come from the configured noise law, which need not reflect P
    at all.
    """
    probs = sample_simplex(config.answer_law, n, rng)
    # inverse CDF: the index is the count of CDF steps at or below the uniform,
    # as in Generator.choice; without the last step a sum rounding below 1
    # cannot yield index K
    steps = np.cumsum(probs, axis=1)[:, None, :-1]
    responses = (steps <= rng.random((n, m, 1))).sum(axis=2)
    confidences = sample_scalar(config.confidence_noise, (n, m), rng)
    return np.zeros(n, dtype=np.intp), responses, confidences


def draw_trials(config: GenConfig, m: int, n: int, rng: np.random.Generator) -> Draws:
    """Draw n independent questions of m rounds each from ``rng``.

    Returns ``(truths[n], responses[n, m], confidences[n, m])``: each
    question's true index, and the answer index and confidence of each of its
    rounds.  Every question the experiment scores is drawn here.
    """
    if isinstance(config, IdealGenConfig):
        return _draw_ideal(config, m, n, rng)
    return _draw_realistic(config, m, n, rng)


def _check_rounds(config: GenConfig, m: int) -> None:
    _check_int("m", m)
    if not 1 <= m <= config.m_max:
        raise ConfigurationError(f"m must lie in [1, {config.m_max}], got {m}")


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


# one-round draws behind a Monte Carlo drift estimate
DRIFT_N_MC = 20_000


def drift(config: GenConfig, rng: Optional[np.random.Generator] = None) -> DriftEstimate:
    """Expected LLR drift: in closed form when the laws are point masses,
    otherwise by Monte Carlo over ``DRIFT_N_MC`` rounds drawn from ``rng``
    (seeded with ``config.seed`` when not given).

    The closed forms: ideal with constant confidence c has drift
    (c - theta) * log(c / theta) against every competitor, with
    theta = (1 - c)/(K - 1); realistic with constant P and c has drift
    (P_0 - P_j) * log(c / theta) against competitor j.
    """
    if _closed_form_available(config):
        return _drift_closed_form(config)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _drift_monte_carlo(config, DRIFT_N_MC, rng)


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
    return DriftEstimate(mu, {j: 0.0 for j in mu}, DriftMethod.CLOSED_FORM)


def _drift_monte_carlo(
    config: GenConfig, n_mc: int, rng: np.random.Generator
) -> DriftEstimate:
    k = config.k
    # one round each from n_mc questions, each truth relabeled to index 0
    truths, responses, confidences = draw_trials(config, 1, n_mc, rng)
    relabeled = (responses - truths[:, None]) % k
    terms = _round_terms(relabeled.T, confidences.T, k)[0]
    mu: dict[int, float] = {}
    std_err: dict[int, float] = {}
    for j in range(1, k):
        increments = terms[:, 0] - terms[:, j]
        mu[j] = float(increments.mean())
        std_err[j] = float(increments.std(ddof=1) / math.sqrt(n_mc))
    return DriftEstimate(mu, std_err, DriftMethod.MONTE_CARLO)


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


# a block's (m, trials, K) log terms hold at most this many float64s (256 KB)
BLOCK_ELEMENTS = 2**15


def trials_per_block(m: int, k: int) -> int:
    """Trials drawn together by ``concentration_experiment`` at m rounds and K candidates."""
    return max(1, BLOCK_ELEMENTS // (m * k))


def concentration_experiment(
    config: GenConfig,
    m_schedule: Sequence[int],
    trials: int,
) -> list[ConcentrationRow]:
    """Empirical concentration of the posterior on the true answer.

    For each m in the schedule, runs ``trials`` independent questions and
    reports how often the final argmax hits the truth and the mean posterior
    mass it holds.  Row m draws from one generator seeded with
    (config.seed, m), so rows are independent and order-insensitive.  Its
    trials are drawn by ``draw_trials`` in consecutive blocks of
    ``trials_per_block(m, K)``, the last block taking what is left, so memory
    stays bounded whatever the trial count.  Only each block's final
    log-scores are computed: ``_round_terms`` scores the block rounds first
    and the sum adds the rounds in round order, so each trial's scores equal
    the last row of its own cumulative sum.
    """
    if not m_schedule:
        raise ConfigurationError("m_schedule must name at least one round count")
    _check_int("trials", trials)
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    for m in m_schedule:
        _check_rounds(config, m)
    drift_estimate = drift(config, rng=np.random.default_rng([config.seed, 0x5EED]))
    rows: list[ConcentrationRow] = []
    for m in m_schedule:
        rng = np.random.default_rng([config.seed, m])
        block = trials_per_block(m, config.k)
        hits = 0
        mass_sum = 0.0  # summed in trial order; numpy's pairwise sum rounds differently
        for start in range(0, trials, block):
            n = min(block, trials - start)
            truths, responses, confidences = draw_trials(config, m, n, rng)
            final_log_scores = _round_terms(responses.T, confidences.T, config.k).sum(axis=0)
            posterior = _normalise(final_log_scores)
            # np.argmax takes the first maximum, matching earliest-label tie-breaking
            hits += int(np.count_nonzero(posterior.argmax(axis=1) == truths))
            for mass in posterior[np.arange(n), truths].tolist():
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
