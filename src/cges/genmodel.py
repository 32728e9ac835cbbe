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
* ``drift`` is the expected per-round log-likelihood-ratio increment, in one
  closed form for point-mass laws in both regimes and by Monte Carlo
  otherwise;
* ``concentration_experiment`` scores blocks of ``draw_trials`` at each round
  count m of a schedule; ``harness.write_concentration_csv`` writes its rows.

Both score draws through ``posterior.log_score``, the controller's fixed-K kernel,
and the experiment reads its masses the way the controller's top read does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union, get_args

import numpy as np

from .errors import ConfigurationError
from .posterior import log_score

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
        law = self.answer_law
        entries = len(law.probs if isinstance(law, PointSimplex) else law.alphas)
        if entries != self.k:
            raise ConfigurationError(f"answer law has {entries} entries for k={self.k}")


GenConfig = Union[IdealGenConfig, RealisticGenConfig]


def _log_scores(responses: np.ndarray, confidences: np.ndarray, k: int) -> np.ndarray:
    """Every candidate's log score in each of n questions after m rounds, shape (K, n),
    from (n, m) answers and confidences.  Read rounds first, ``np.bincount`` adds each
    (question, candidate) sum in round order, as ``RunningPosterior.add`` does."""
    n, m = responses.shape
    rounds = confidences.T.ravel()
    log_miss = np.log1p(-rounds)
    cells = (responses.T * n + np.arange(n)).ravel()
    counts, hits, misses = (
        np.bincount(cells, w, k * n).reshape(k, n) for w in (None, np.log(rounds), log_miss)
    )
    total_miss = log_miss.reshape(m, n).sum(axis=0)
    return log_score(counts, hits, misses, m, total_miss, math.log(k - 1))


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


@dataclass(frozen=True)
class DriftEstimate:
    """Expected per-round LLR increment against each competitor.

    Keys are competitor indices in the relabeled convention where the true
    answer sits at index 0.  Positive drift against every competitor means the
    posterior concentrates on the truth as rounds accumulate.
    """

    mu: dict[int, float]
    std_err: dict[int, float]


# one-round draws behind a Monte Carlo drift estimate
DRIFT_N_MC = 20_000


def drift(config: GenConfig, rng: Optional[np.random.Generator] = None) -> DriftEstimate:
    """Expected LLR drift: in closed form when the laws are point masses,
    otherwise by Monte Carlo over ``DRIFT_N_MC`` rounds drawn from ``rng``
    (seeded with ``config.seed`` when not given).

    The closed form: with constant answer law P and constant confidence c,
    the drift against competitor j is (P_0 - P_j) * log(c / theta), with
    theta = (1 - c)/(K - 1).  The ideal regime is the case whose answer law
    is calibrated, P = (c, theta, ..., theta), so its drift against every
    competitor is (c - theta) * log(c / theta).
    """
    k = config.k
    if isinstance(config, IdealGenConfig):
        noise, answers = config.confidence_law, None  # P is calibrated, built below
    else:
        noise, answers = config.confidence_noise, config.answer_law
    if not isinstance(noise, PointMass) or isinstance(answers, Dirichlet):
        if rng is None:
            rng = np.random.default_rng(config.seed)
        return _drift_monte_carlo(config, DRIFT_N_MC, rng)
    c = noise.value
    theta = (1.0 - c) / (k - 1)
    probs = (c,) + (theta,) * (k - 1) if answers is None else answers.probs
    log_ratio = math.log(c) - math.log(theta)
    mu = {j: (probs[0] - probs[j]) * log_ratio for j in range(1, k)}
    return DriftEstimate(mu, {j: 0.0 for j in mu})


def _drift_monte_carlo(
    config: GenConfig, n_mc: int, rng: np.random.Generator
) -> DriftEstimate:
    k = config.k
    # one round each from n_mc questions, each truth relabeled to index 0
    truths, responses, confidences = draw_trials(config, 1, n_mc, rng)
    relabeled = (responses - truths[:, None]) % k
    scores = np.empty((k, n_mc))  # filled a block at a time: no other (K, n_mc) array is built
    # 64 KB arrays, which malloc reuses; each 256 KB one maps fresh pages, 3x slower
    block = max(1, BLOCK_ELEMENTS // (4 * k))
    for start in range(0, n_mc, block):
        rows = slice(start, start + block)
        scores[:, rows] = _log_scores(relabeled[rows], confidences[rows], k)
    mu: dict[int, float] = {}
    std_err: dict[int, float] = {}
    for j in range(1, k):
        increments = scores[0] - scores[j]
        mu[j] = float(increments.mean())
        std_err[j] = float(increments.std(ddof=1) / math.sqrt(n_mc))
    return DriftEstimate(mu, std_err)


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


# a block's trials * m * K (question, round, candidate) cells, unless one trial's
# m * K exceed it; the size fixes how a row's draws split, so a new one changes rows
BLOCK_ELEMENTS = 2**15


def trials_per_block(m: int, k: int) -> int:
    """Trials per ``concentration_experiment`` block at m rounds and K candidates, at least 1."""
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
    log-scores are computed.  An exact tie goes to the lowest candidate index,
    as in ``RunningPosterior(fixed_k=K, labels=range(K))``; in the realistic
    regime the truth is index 0, so a tie with it counts as a success.
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
            scores = _log_scores(responses, confidences, config.k)
            best = scores.argmax(axis=0)  # the first maximum: the lowest index
            hits += int(np.count_nonzero(best == truths))
            trial = np.arange(n)
            gaps = scores - scores[best, trial]  # log masses relative to the top's
            ratios = np.exp(gaps)
            ratios[best, trial] = 0.0  # the tail: the other masses, as the top read sums them
            for mass in np.exp(gaps[truths, trial] - np.log1p(ratios.sum(axis=0))).tolist():
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

