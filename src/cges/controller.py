"""Adaptive sampling loop and fixed-budget baselines over a batch of questions.

Three methods share one sampler interface, a callable
``sampler(question_id, round) -> (label, confidence)``, and one loop,
``run``.  Each round samples every still-active question once; a method is
a stop rule and a predict rule:

* ``cges`` - stop once the top posterior mass reaches the threshold gamma,
  predict the posterior argmax;
* ``sc``   - never stop (draw the full budget), predict the majority label;
* ``esc``  - stop at a window boundary once the last ``esc_window`` samples
  agree, predict the majority label over everything drawn.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError
from .posterior import Label, RunningPosterior

Sampler = Callable[[str, int], tuple[Label, float]]


class Method(Enum):
    CGES = "cges"
    SC = "sc"
    ESC = "esc"


@dataclass(frozen=True)
class ControllerConfig:
    method: Method = Method.CGES
    gamma: float = 0.9
    budget: int = 16
    esc_window: int = 4
    fixed_k: Optional[int] = None  # None selects the observed+virtual policy
    max_parallel: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget!r}")
        if self.method is Method.ESC and not 1 <= self.esc_window <= self.budget:
            raise ConfigurationError(
                f"ESC window must lie in [1, budget], got window={self.esc_window} "
                f"budget={self.budget}"
            )
        if self.fixed_k is not None and self.fixed_k < 2:
            raise ConfigurationError(f"fixed K must be >= 2, got {self.fixed_k!r}")
        if self.max_parallel < 1:
            raise ConfigurationError("max_parallel must be >= 1")


@dataclass
class QuestionState:
    """Mutable per-question bookkeeping owned by the controller."""

    question_id: str
    posterior: RunningPosterior
    resolved: bool = False
    # trailing run of identical labels, for the ESC stop rule
    last_label: Optional[Label] = None
    run_length: int = 0

    @property
    def calls(self) -> int:
        return self.posterior.n

    def observe(self, label: Label, confidence: float) -> None:
        self.posterior.add(label, confidence)
        self.run_length = self.run_length + 1 if label == self.last_label else 1
        self.last_label = label


@dataclass(frozen=True)
class RunResult:
    predictions: dict[str, Label]
    avg_calls: float
    per_question_calls: dict[str, int]
    per_question_posterior: dict[str, RunningPosterior]
    # diagnostics: questions that exhausted the budget without their stop rule
    # firing (for CGES, without reaching gamma); always empty for SC
    unresolved: tuple[str, ...] = ()


# stop(state, round) -> bool, evaluated after each of the question's rounds;
# None draws the full budget and counts every question as resolved
StopRule = Optional[Callable[[QuestionState, int], bool]]
PredictRule = Callable[[QuestionState], Label]


def run(
    questions: Sequence[str], sampler: Sampler, config: ControllerConfig
) -> RunResult:
    """Sample every question round by round until its stop rule fires or the
    budget runs out, then predict.

    Round 1 samples every question once; each later round resamples exactly
    the questions whose stop rule has not fired.  For CGES stopping is
    inclusive (mass >= gamma stops) and the comparison runs in log space, so a
    threshold of 1.0 stays unreachable while any competing mass is positive.
    """
    stop, predict = _rules(config)
    qids = list(questions)
    if not qids:
        raise ConfigurationError("at least one question is required")
    if len(set(qids)) != len(qids):
        raise ConfigurationError("question ids must be unique")
    states = {
        qid: QuestionState(qid, RunningPosterior(fixed_k=config.fixed_k)) for qid in qids
    }

    active = qids
    for round_idx in range(1, config.budget + 1):
        if not active:
            break
        # one sampler call per active question, concurrently up to max_parallel;
        # a sampler exception ends the run (HTTP retries live in the client)
        if config.max_parallel > 1 and len(active) > 1:
            with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
                draws = list(pool.map(sampler, active, repeat(round_idx)))
        else:
            draws = [sampler(qid, round_idx) for qid in active]
        # applied in question order, so outcomes do not depend on scheduling
        for qid, (label, confidence) in zip(active, draws):
            states[qid].observe(label, confidence)
        if stop is not None:
            for qid in active:
                states[qid].resolved = stop(states[qid], round_idx)
            active = [qid for qid in active if not states[qid].resolved]

    per_question_calls = {qid: state.calls for qid, state in states.items()}
    unresolved = () if stop is None else tuple(qid for qid in qids if not states[qid].resolved)
    return RunResult(
        predictions={qid: predict(state) for qid, state in states.items()},
        avg_calls=sum(per_question_calls.values()) / len(states),
        per_question_calls=per_question_calls,
        per_question_posterior={qid: state.posterior for qid, state in states.items()},
        unresolved=unresolved,
    )


def _rules(config: ControllerConfig) -> tuple[StopRule, PredictRule]:
    """The (stop, predict) pair of the configured method."""

    def majority(state: QuestionState) -> Label:
        return _majority(state.posterior.counts)

    if config.method is Method.CGES:
        log_gamma = math.log(config.gamma)
        return (
            lambda state, _round: state.posterior.top_log_mass() >= log_gamma,
            lambda state: state.posterior.top_label(),
        )
    if config.method is Method.ESC:
        window = config.esc_window
        # a trailing partial window never stops a question
        return (
            lambda state, round_idx: round_idx % window == 0 and state.run_length >= window,
            majority,
        )
    return None, majority


def _majority(counts: dict[Label, int]) -> Label:
    # max returns the first maximum; insertion order = first-seen order
    return max(counts, key=counts.__getitem__)
