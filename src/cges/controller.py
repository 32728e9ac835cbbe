"""Adaptive sampling loop and fixed-budget baselines over a batch of questions.

Three methods share one sampler interface, a callable
``sampler(question_id, round) -> (label, confidence)``, and one loop,
``run_many``, which serves several configurations sharing one ``fixed_k``
from one sample stream; ``run`` is its one-configuration form.  Each question
is one chain of rounds, drawn until no configuration is open on it; a method
is a stop rule and a predict rule:

* ``cges`` - stop once the top posterior mass reaches the threshold gamma,
  predict the posterior argmax;
* ``sc``   - never stop (draw the full budget), predict the majority label;
* ``esc``  - stop at a window boundary once the last ``esc_window`` samples
  agree, predict the majority label over everything drawn.

A chain keeps the question's posterior, its last label and that label's run
length.  While a CGES configuration is open it reads the posterior's top
(label index, log mass) once per round: the open CGES configurations form a
threshold ladder sorted by log gamma, closed up to that top in one comparison.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
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
        if not isinstance(self.method, Method):
            raise ConfigurationError(f"method must be a Method, got {self.method!r}")
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, numbers.Real):
            raise ConfigurationError(f"gamma must be a real number, got {self.gamma!r}")
        for name in ("budget", "esc_window", "fixed_k", "max_parallel"):
            value = getattr(self, name)
            if name == "fixed_k" and value is None:
                continue  # the observed+virtual policy
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
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


@dataclass(frozen=True)
class RunResult:
    predictions: dict[str, Label]
    avg_calls: float
    per_question_calls: dict[str, int]
    per_question_posterior: dict[str, RunningPosterior]
    # diagnostics: questions that exhausted the budget without their stop rule
    # firing (for CGES, without reaching gamma); always empty for SC
    unresolved: tuple[str, ...] = ()


def run(
    questions: Sequence[str], sampler: Sampler, config: ControllerConfig
) -> RunResult:
    """Sample each question round by round until its stop rule fires or the
    budget runs out, then predict.

    For CGES stopping is inclusive (mass >= gamma stops) and the comparison
    runs in log space, so a threshold of 1.0 stays unreachable while any
    competing mass is positive.
    """
    return run_many(questions, sampler, (config,))[0]


def run_many(
    questions: Sequence[str], sampler: Sampler, configs: Sequence[ControllerConfig]
) -> tuple[RunResult, ...]:
    """``run`` for several configurations over one shared sample stream.

    The configurations must share ``fixed_k``, and so each question's
    posterior; run configurations with another ``fixed_k`` in another call.  A
    question is resampled while any configuration is open, i.e. its stop rule
    has not fired and its budget is not spent, so each (question, round) is
    drawn once per call rather than once per configuration.  A configuration
    keeps the calls, prediction, posterior and resolved flag of the round it
    closes at.  Result ``i`` equals ``run(questions, sampler, configs[i])``
    whenever the sampler serves the same draw each time a (question, round) is
    asked for.  Up to the largest ``max_parallel`` chains run at once, and a
    worker takes the next question as soon as its chain ends.  Once a draw
    raises, no chain starts another; the draws in flight finish, and the error
    of the earliest question (in question order) whose chain raised propagates.
    """
    qids = list(questions)
    if not qids:
        raise ConfigurationError("at least one question is required")
    if len(set(qids)) != len(qids):
        raise ConfigurationError("question ids must be unique")
    if not configs:
        raise ConfigurationError("at least one configuration is required")
    fixed_ks = {config.fixed_k for config in configs}
    if len(fixed_ks) > 1:
        raise ConfigurationError(f"configurations run together must share fixed_k, got {fixed_ks}")
    (fixed_k,) = fixed_ks
    # the threshold ladder: (log gamma, index) of each CGES configuration, ascending
    ladder = sorted(
        (math.log(config.gamma), c)
        for c, config in enumerate(configs)
        if config.method is Method.CGES
    )
    windows = [
        (c, config.esc_window) for c, config in enumerate(configs) if config.method is Method.ESC
    ]
    at_budget: dict[int, list[int]] = {}  # round -> the configurations whose budget it spends
    for c, config in enumerate(configs):
        at_budget.setdefault(config.budget, []).append(c)
    max_parallel = max(config.max_parallel for config in configs)
    failed = threading.Event()  # set once a chain raises or the caller's wait ends early

    def chain(qid: str) -> list:
        """Per configuration, (prediction, posterior, resolved) at the round it
        closes on ``qid``; once a chain has failed, no chain makes another draw."""
        posterior = RunningPosterior(fixed_k=fixed_k)
        last_label, run_length = None, 0  # the trailing run of one label, for ESC
        outcomes: list = [None] * len(configs)
        rungs, n_open = ladder, len(configs)
        round_idx = 0
        try:
            while n_open and not failed.is_set():
                round_idx += 1
                label, confidence = sampler(qid, round_idx)
                posterior.add(label, confidence)
                run_length = run_length + 1 if label == last_label else 1
                last_label = label
                closing: dict[int, bool] = {}  # index -> resolved, of those closing this round
                # a CGES configuration closes only while on the ladder, so a
                # round that closes one has read its top
                if rungs:
                    top_index, top = posterior.top_index_and_log_mass()
                    for log_gamma, c in rungs:
                        if log_gamma > top:
                            break  # top < log gamma_j implies top < log gamma_i for i above j
                        closing[c] = True
                for c, window in windows:
                    # a trailing partial window never stops a question
                    if outcomes[c] is None and round_idx % window == 0 and run_length >= window:
                        closing[c] = True
                for c in at_budget.get(round_idx, ()):
                    if outcomes[c] is None:
                        # SC has no stop rule, so its budget close counts as resolved
                        closing.setdefault(c, configs[c].method is Method.SC)
                if closing:
                    # one snapshot per round; the last to close takes the live posterior
                    live = len(closing) == n_open
                    snapshot = posterior if live else posterior.copy()
                    for c, resolved in closing.items():
                        if configs[c].method is Method.CGES:
                            prediction = posterior.labels[top_index]
                        else:  # the majority; max keeps the first maximum, the earliest label
                            counts = posterior.counts
                            prediction = max(counts, key=counts.__getitem__)
                        outcomes[c] = (prediction, snapshot, resolved)
                    n_open -= len(closing)
                    rungs = [rung for rung in rungs if outcomes[rung[1]] is None]
        except BaseException:
            failed.set()
            raise
        return outcomes

    # a worker takes the next question as soon as its chain ends; a chain reads
    # only its own (question, round) draws, so outcomes do not depend on scheduling
    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        schedule = pool.map if max_parallel > 1 and len(qids) > 1 else map
        try:
            # raises the error of the earliest question whose chain raised
            per_question = list(schedule(chain, qids))
        finally:
            failed.set()  # on an early exit, the pool waits only for the draws in flight

    results = []
    for closed in zip(*per_question):  # per configuration, its outcome on each question
        per_question_calls = {qid: post.n for qid, (_, post, _) in zip(qids, closed)}
        results.append(
            RunResult(
                predictions={qid: prediction for qid, (prediction, _, _) in zip(qids, closed)},
                avg_calls=sum(per_question_calls.values()) / len(qids),
                per_question_calls=per_question_calls,
                per_question_posterior={qid: post for qid, (_, post, _) in zip(qids, closed)},
                unresolved=tuple(qid for qid, (_, _, ok) in zip(qids, closed) if not ok),
            )
        )
    return tuple(results)
