"""Adaptive sampling loop and fixed-budget baselines over a batch of questions.

Three methods share one sampler interface, a callable
``sampler(question_id, round) -> (label, confidence)``, and one loop,
``run_many``, which serves several configurations from one sample stream;
``run`` is its one-configuration form.  Each round samples every still-active
question once; a method is a stop rule and a predict rule:

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
    # trailing run of identical labels, for the ESC stop rule
    last_label: Optional[Label] = None
    run_length: int = 0
    # the posterior's top log mass, computed at most once per round
    _top_log_mass: Optional[float] = None

    def observe(self, label: Label, confidence: float) -> None:
        self.posterior.add(label, confidence)
        self.run_length = self.run_length + 1 if label == self.last_label else 1
        self.last_label = label
        self._top_log_mass = None

    def top_log_mass(self) -> float:
        if self._top_log_mass is None:
            self._top_log_mass = self.posterior.top_log_mass()
        return self._top_log_mass


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
    return run_many(questions, sampler, (config,))[0]


def run_many(
    questions: Sequence[str], sampler: Sampler, configs: Sequence[ControllerConfig]
) -> tuple[RunResult, ...]:
    """``run`` for several configurations over one shared sample stream.

    Configurations with the same ``fixed_k`` share each question's posterior.
    A question is resampled while any of them is open, i.e. its stop rule has
    not fired and its budget is not spent, so each (question, round) is drawn
    once per ``fixed_k`` rather than once per configuration.  A configuration
    keeps the calls, prediction, posterior and resolved flag of the round it
    closes at.  Result ``i`` equals ``run(questions, sampler, configs[i])``
    whenever the sampler serves the same draw each time a (question, round) is
    asked for.  The rounds run up to the largest ``max_parallel``.
    """
    qids = list(questions)
    if not qids:
        raise ConfigurationError("at least one question is required")
    if len(set(qids)) != len(qids):
        raise ConfigurationError("question ids must be unique")
    if not configs:
        raise ConfigurationError("at least one configuration is required")
    groups: dict[Optional[int], list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(config.fixed_k, []).append(index)
    results: dict[int, RunResult] = {}
    for fixed_k, indices in groups.items():
        group = _run_group(qids, sampler, [configs[i] for i in indices], fixed_k)
        results.update(zip(indices, group))
    return tuple(results[index] for index in range(len(configs)))


def _run_group(
    qids: list[str],
    sampler: Sampler,
    configs: list[ControllerConfig],
    fixed_k: Optional[int],
) -> list[RunResult]:
    """The loop of ``run_many`` for configurations sharing one ``fixed_k``."""
    rules = [_rules(config) for config in configs]
    budgets = [config.budget for config in configs]
    max_parallel = max(config.max_parallel for config in configs)
    states = [QuestionState(qid, RunningPosterior(fixed_k=fixed_k)) for qid in qids]
    # per question, the configurations still open on it
    open_on = [list(range(len(configs))) for _ in qids]
    # per configuration and question: (prediction, posterior, resolved) at closing
    closed: list[list] = [[None] * len(qids) for _ in configs]

    active = list(range(len(qids)))
    # one pool for the whole run; it starts no thread until the first map
    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        for round_idx in range(1, max(budgets) + 1):
            if not active:
                break
            # one sampler call per active question, concurrently up to max_parallel;
            # a sampler exception ends the run (HTTP retries live in the client)
            active_ids = [qids[q] for q in active]
            if max_parallel > 1 and len(active) > 1:
                draws = list(pool.map(sampler, active_ids, repeat(round_idx)))
            else:
                draws = [sampler(qid, round_idx) for qid in active_ids]
            # applied in question order, so outcomes do not depend on scheduling
            for q, (label, confidence) in zip(active, draws):
                states[q].observe(label, confidence)
            still_active = []
            for q in active:
                state = states[q]
                closing, staying = [], []
                for c in open_on[q]:
                    stop = rules[c][0]
                    fired = stop is not None and stop(state, round_idx)
                    if fired or round_idx == budgets[c]:
                        closing.append((c, fired or stop is None))
                    else:
                        staying.append(c)
                if closing:
                    # one snapshot per round; the last to close takes the live posterior
                    posterior = state.posterior.copy() if staying else state.posterior
                    for c, resolved in closing:
                        closed[c][q] = (rules[c][1](state), posterior, resolved)
                    open_on[q] = staying
                if staying:
                    still_active.append(q)
            active = still_active

    results = []
    for outcomes in closed:
        per_question_calls = {qid: outcomes[q][1].n for q, qid in enumerate(qids)}
        results.append(
            RunResult(
                predictions={qid: outcomes[q][0] for q, qid in enumerate(qids)},
                avg_calls=sum(per_question_calls.values()) / len(qids),
                per_question_calls=per_question_calls,
                per_question_posterior={qid: outcomes[q][1] for q, qid in enumerate(qids)},
                unresolved=tuple(qid for q, qid in enumerate(qids) if not outcomes[q][2]),
            )
        )
    return results


def _rules(config: ControllerConfig) -> tuple[StopRule, PredictRule]:
    """The (stop, predict) pair of the configured method."""

    def majority(state: QuestionState) -> Label:
        return _majority(state.posterior.counts)

    if config.method is Method.CGES:
        log_gamma = math.log(config.gamma)
        return (
            lambda state, _round: state.top_log_mass() >= log_gamma,
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
