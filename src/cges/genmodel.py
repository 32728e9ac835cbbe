"""Generative simulator for confidence-weighted answer sampling.

Two regimes are simulated under a fixed candidate count K:

* ideal - the true answer is emitted with probability equal to the drawn
  confidence, wrong answers share the remainder uniformly;
* realistic - answers follow an arbitrary fixed distribution P over the
  candidates (index 0 is the true answer by convention) while the confidence
  is an independent, possibly miscalibrated, noise signal.

``draw_trials`` is the one draw path of each regime: it draws a block of n
questions at once.  A single question is its n = 1 case, kept as a
``TrialTrace``: only the draws, with the per-round paths (cumulative
log-scores, the log-likelihood ratios between the true answer and every
competitor, and the posterior trajectory) computed on demand.  Concentration
experiments build no traces: each row (one round count m) draws from one
generator seeded with (seed, m), in blocks of ``trials_per_block(m, K)``
questions, and scores only their final round.
Expected LLR drift and concentration can be checked empirically against
closed forms.
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

# a callable receives (P, rng) and returns one confidence in (0, 1)
ConfidenceNoise = Union[ScalarLaw, Callable[[np.ndarray, np.random.Generator], float]]


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
    """Per-round log-likelihood of every candidate, shape (..., m, K).

    Entry [..., t, j] is log C at the answer drawn at round t + 1 and
    log((1 - C) / (K - 1)) at every other candidate: the fixed-K kernel.
    Leading axes, such as a block's trial axis, pass through.
    """
    log_hit = np.log(confidences)[..., None]
    log_miss = (np.log1p(-confidences) - math.log(k - 1))[..., None]
    return np.where(responses[..., None] == np.arange(k), log_hit, log_miss)


def _normalise(log_scores: np.ndarray) -> np.ndarray:
    """Posterior rows from rows of log-scores: max shift, log-sum-exp, exp."""
    shift = log_scores.max(axis=1, keepdims=True)
    log_z = shift + np.log(np.exp(log_scores - shift).sum(axis=1, keepdims=True))
    return np.exp(log_scores - log_z)


@dataclass
class TrialTrace:
    """One simulated question: its draws and, on demand, its per-round paths.

    ``responses[t]`` and ``confidences[t]`` are the answer index and the
    confidence drawn at round t + 1; fixed-K candidates are the integers
    0..K-1.

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
    confidences come from the configured noise source, which need not reflect
    P at all.  A callable noise source is called once per round with
    (P, rng), in question order.
    """
    probs = sample_simplex(config.answer_law, n, rng)
    # inverse CDF: the index is the count of CDF steps at or below the uniform,
    # as in Generator.choice; without the last step a sum rounding below 1
    # cannot yield index K
    steps = np.cumsum(probs, axis=1)[:, None, :-1]
    responses = (steps <= rng.random((n, m, 1))).sum(axis=2)
    if callable(config.confidence_noise):
        noise = config.confidence_noise
        called = [noise(p, rng) for p in probs for _ in range(m)]
        confidences = np.clip(
            np.array(called).reshape(n, m), CONFIDENCE_FLOOR, 1.0 - CONFIDENCE_FLOOR
        )
    else:
        confidences = sample_scalar(config.confidence_noise, (n, m), rng)
    return np.zeros(n, dtype=np.intp), responses, confidences


def draw_trials(config: GenConfig, m: int, n: int, rng: np.random.Generator) -> Draws:
    """Draw n independent questions of m rounds each from ``rng``.

    Returns ``(truths[n], responses[n, m], confidences[n, m])``: each
    question's true index, and the answer index and confidence of each of its
    rounds.  This is the only place either regime's draws are made.
    """
    if isinstance(config, IdealGenConfig):
        return _draw_ideal(config, m, n, rng)
    return _draw_realistic(config, m, n, rng)


def simulate_trace(config: GenConfig, m: int, rng: np.random.Generator) -> TrialTrace:
    """One question of m rounds: ``draw_trials`` with n = 1, as a trace."""
    _check_rounds(config, m)
    truths, responses, confidences = draw_trials(config, m, 1, rng)
    return TrialTrace(int(truths[0]), config.k, responses[0], confidences[0])


def _check_rounds(config: GenConfig, m: int) -> None:
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
        # one round each from n_mc questions; the truth is index 0 already
        _, responses, confidences = _draw_realistic(config, 1, n_mc, rng)
        responses, confidences = responses[:, 0], confidences[:, 0]

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


# a block's (trials, m, K) log terms hold at most this many float64s (256 KB)
BLOCK_ELEMENTS = 2**15


def trials_per_block(m: int, k: int) -> int:
    """Trials drawn together by ``concentration_experiment`` at m rounds and K candidates."""
    return max(1, BLOCK_ELEMENTS // (m * k))


def concentration_experiment(
    config: GenConfig,
    m_schedule: Sequence[int],
    trials: int,
    drift_n_mc: int = 20_000,
) -> list[ConcentrationRow]:
    """Empirical concentration of the posterior on the true answer.

    For each m in the schedule, runs ``trials`` independent questions and
    reports how often the final argmax hits the truth and the mean posterior
    mass it holds.  Row m draws from one generator seeded with
    (config.seed, m), so rows are independent and order-insensitive.  Its
    trials are drawn by ``draw_trials`` in consecutive blocks of
    ``trials_per_block(m, K)``, the last block taking what is left, so memory
    stays bounded whatever the trial count.  Only each block's final
    log-scores are computed; no per-round path or ``TrialTrace`` is built.
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
        rng = np.random.default_rng([config.seed, m])
        block = trials_per_block(m, config.k)
        hits = 0
        mass_sum = 0.0  # summed in trial order; numpy's pairwise sum rounds differently
        for start in range(0, trials, block):
            n = min(block, trials - start)
            truths, responses, confidences = draw_trials(config, m, n, rng)
            # a sum over rounds adds them in order, so it equals a trial's cumsum[-1]
            final_log_scores = _log_terms(responses, confidences, config.k).sum(axis=1)
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
