"""Adaptive sampling loop and fixed-budget baselines over a batch of questions.

Three methods share one sampler interface, a callable
``sampler(question_id, round) -> (label, confidence)``, and one loop,
``run_many``, which serves several configurations from one sample stream under
one K policy, ``fixed_k`` (None selects observed+virtual); ``run`` is its
one-configuration form.  Each question is one chain of rounds, drawn until no
configuration is open on it; a method is a stop rule and a predict rule:

* ``cges`` - stop once the top posterior mass reaches the threshold gamma,
  predict the posterior argmax;
* ``sc``   - never stop (draw the full budget), predict the majority label;
* ``esc``  - stop at a window boundary once the last ``esc_window`` samples
  agree, predict the majority label over everything drawn.

A chain keeps the question's posterior, its last label and that label's run
length, and adds every draw to the posterior.  The open CGES configurations
form a threshold ladder sorted by log gamma, whose lowest rung the posterior
watches: each ``add`` returns its O(1) ``screen`` verdict there, off the
bounds on the top mass that it carries between exact reads.  A rung proven out
of reach ends the round.  Otherwise the round closes every rung the bounds
prove reached, on the top label they track, and reads the top (label, log
mass) exactly, once, only if the next rung is proven neither reached nor out
of reach, or if the round spends a CGES budget; that read closes the ladder's
prefix up to it.  So every close is the one an exact read would make.  Off the
ladder a configuration closes only at a checkpoint, a budget or an ESC window
end, which are listed once per call; there the chain checks them.  Once the
ladder is empty (at the start, under SC or ESC alone) the chain calls
``stop_scoring``, since SC and ESC read nothing but the label counts: a round
where no threshold is open and no budget or window ends only draws and counts.

A pooled run (``max_parallel`` > 1) runs ``max_parallel`` + 1 chains on as
many workers, and each draw holds one of ``max_parallel`` slots while it calls
the sampler, so at most ``max_parallel`` draws are in flight.  A sampler that
waits between attempts does it inside ``lend_slot()``, which hands the draw's
slot to the one spare chain meanwhile.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

from .errors import ConfigurationError, InvalidSampleError
from .posterior import Label, RunningPosterior

Sampler = Callable[[str, int], tuple[Label, float]]

# .slots: the semaphore one of whose slots this thread's pooled draw holds
_draw = threading.local()


class _Stopped(Exception):
    """A pooled draw refused because a chain has failed; it ends its own chain."""


@contextlib.contextmanager
def lend_slot() -> Iterator[None]:
    """Give the calling draw's slot to a chain waiting for one while the body
    runs, and take a slot back before returning: a sampler wraps a wait that
    sends no request in it.  Outside a pooled draw it does nothing."""
    slots = getattr(_draw, "slots", None)
    if slots is None:
        yield
        return
    slots.release()
    try:
        yield
    finally:
        slots.acquire()


class Method(Enum):
    CGES = "cges"
    SC = "sc"
    ESC = "esc"


def check_gamma(gamma: object) -> None:
    """The rule for every stopping threshold: a real number (not a bool) in (0, 1]."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise ConfigurationError(f"gamma must be a real number, got {gamma!r}")
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma!r}")


@dataclass(frozen=True)
class ControllerConfig:
    method: Method = Method.CGES
    gamma: float = 0.9
    budget: int = 16
    esc_window: int = 4
    max_parallel: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise ConfigurationError(f"method must be a Method, got {self.method!r}")
        check_gamma(self.gamma)
        for name in ("budget", "esc_window", "max_parallel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget!r}")
        if self.method is Method.ESC and not 1 <= self.esc_window <= self.budget:
            raise ConfigurationError(
                f"ESC window must lie in [1, budget], got window={self.esc_window} "
                f"budget={self.budget}"
            )
        if self.max_parallel < 1:
            raise ConfigurationError(f"max_parallel must be >= 1, got {self.max_parallel!r}")


@dataclass(frozen=True)
class RunResult:
    predictions: dict[str, Label]
    avg_calls: float
    per_question_calls: dict[str, int]
    # diagnostics: questions that exhausted the budget without their stop rule
    # firing (for CGES, without reaching gamma); always empty for SC
    unresolved: tuple[str, ...] = ()


def run(
    questions: Sequence[str], sampler: Sampler, config: ControllerConfig, fixed_k: Optional[int] = None
) -> RunResult:
    """Sample each question round by round until its stop rule fires or the
    budget runs out, then predict.

    For CGES stopping is inclusive (mass >= gamma stops) and the comparison
    runs in log space, so a threshold of 1.0 stays unreachable while any
    competing mass is positive.
    """
    return run_many(questions, sampler, (config,), fixed_k)[0]


def run_many(
    questions: Sequence[str],
    sampler: Sampler,
    configs: Sequence[ControllerConfig],
    fixed_k: Optional[int] = None,
) -> tuple[RunResult, ...]:
    """``run`` for several configurations over one shared sample stream.

    Each question has one posterior under ``fixed_k``, built before its first
    draw; a draw it refuses raises naming the question and round.  A question
    is resampled while any configuration is open, i.e. its stop rule has not
    fired and its budget is not spent, so each (question, round) is drawn once
    per call rather than once per configuration.  A configuration keeps the
    prediction, calls and resolved flag of the round it closes at.  Result
    ``i`` equals ``run(questions, sampler, configs[i], fixed_k)`` whenever the
    sampler serves the same draw each time a (question, round) is asked for.
    Under the largest ``max_parallel`` > 1, up to that many draws run at once:
    each holds one of that many slots while it calls the sampler, one chain
    more than that runs, and a worker takes the next question as soon as its
    chain ends.  A draw lends its slot to the spare chain inside
    ``lend_slot()``.  Once a draw raises, no chain starts another; the draws
    in flight finish, and the error of the earliest question (in question
    order) whose chain raised propagates.
    """
    qids = list(questions)
    if not qids:
        raise ConfigurationError("at least one question is required")
    if len(set(qids)) != len(qids):
        raise ConfigurationError("question ids must be unique")
    if not configs:
        raise ConfigurationError("at least one configuration is required")
    # the threshold ladder: (log gamma, index) of each CGES configuration, ascending
    ladder = sorted(
        (math.log(config.gamma), c)
        for c, config in enumerate(configs)
        if config.method is Method.CGES
    )
    # the rounds where a configuration can close off the ladder, each with
    # (index, window, resolved, CGES) of what may close there: an ESC window
    # ends at each multiple of it up to the budget (a trailing partial window
    # never stops a question), then every configuration's budget ends
    closes: dict[int, list] = {}
    for c, config in enumerate(configs):
        if config.method is Method.ESC:
            for end in range(config.esc_window, config.budget + 1, config.esc_window):
                closes.setdefault(end, []).append((c, config.esc_window, True, False))
        # SC has no stop rule, so its budget close counts as resolved
        closes.setdefault(config.budget, []).append(
            (c, 0, config.method is Method.SC, config.method is Method.CGES)
        )
    # only a CGES budget close uses the round's exact read
    budgets = {config.budget for config in configs if config.method is Method.CGES}
    # (round, whether it spends a CGES budget, what may close there), ascending
    checkpoints = [(end, end in budgets, events) for end, events in sorted(closes.items())]
    max_parallel = max(config.max_parallel for config in configs)
    pooled = max_parallel > 1 and len(qids) > 1
    failed = False  # set once a chain raises or the caller's wait ends early
    if pooled:
        slots = threading.BoundedSemaphore(max_parallel)

        def draw(qid: str, round_idx: int) -> tuple[Label, float]:
            """The sampler's draw under one of ``max_parallel`` slots; once a
            chain has failed, ``_Stopped`` in its place."""
            nonlocal failed
            with slots:
                if failed:
                    raise _Stopped
                _draw.slots = slots
                try:
                    return sampler(qid, round_idx)
                except BaseException:
                    failed = True  # before the slot is freed, so no waiting chain draws
                    raise
                finally:
                    _draw.slots = None

    else:  # one chain at a time, and no other to stop
        draw = sampler

    def chain(qid: str) -> list:
        """Per configuration, (prediction, calls, resolved) at the round it
        closes on ``qid``; once a chain has failed, no chain makes another draw."""
        nonlocal failed
        posterior = RunningPosterior(fixed_k=fixed_k)
        add, screen = posterior.add, posterior.screen
        if ladder:
            posterior.watch(ladder[0][0])
        else:  # SC and ESC read only the label counts
            posterior.stop_scoring()
        last_label, run_length = None, 0  # the trailing run of one label, for ESC
        outcomes: list = [None] * len(configs)
        rungs, n_open = ladder, len(configs)
        round_idx = 0
        try:
            for checkpoint, spends_budget, events in checkpoints:
                # no configuration closes off the ladder before the checkpoint, so
                # with no threshold open a round only draws and counts
                while round_idx < checkpoint:
                    round_idx += 1
                    label, confidence = draw(qid, round_idx)
                    try:
                        verdict = add(label, confidence)  # the screen at rungs[0]
                    except (ConfigurationError, InvalidSampleError) as exc:
                        raise type(exc)(f"question {qid!r} round {round_idx}: {exc}") from exc
                    run_length = run_length + 1 if label == last_label else 1
                    last_label = label
                    # a CGES configuration closes on the ladder or at its budget
                    if round_idx == checkpoint and spends_budget:
                        verdict = None  # a budget closes on this round's read
                    if rungs and verdict is not False:
                        j = 0  # the ladder ascends, so the round closes the prefix rungs[:j]
                        while verdict:  # rungs[j] is proven reached
                            j += 1
                            verdict = screen(rungs[j][0]) if j < len(rungs) else False
                        if verdict is None:
                            _, top = posterior.top_index_and_log_mass()
                            while j < len(rungs) and rungs[j][0] <= top:
                                j += 1
                        if j:
                            prediction = posterior.top_label  # the read's top, or the proven one
                            for _, c in rungs[:j]:
                                outcomes[c] = (prediction, round_idx, True)
                            rungs, n_open = rungs[j:], n_open - j
                            if not rungs:  # no threshold will read the scores again
                                posterior.stop_scoring()
                                if not n_open:
                                    return outcomes
                            else:
                                posterior.watch(rungs[0][0])
                for c, window, resolved, cges in events:
                    if outcomes[c] is not None or run_length < window:
                        continue
                    if cges:  # closes at its budget with this round's read
                        outcomes[c] = (posterior.top_label, round_idx, resolved)
                        rungs = [rung for rung in rungs if rung[1] != c]
                        if rungs:
                            posterior.watch(rungs[0][0])
                        else:
                            posterior.stop_scoring()
                    else:  # the majority; max keeps the first maximum, the earliest label
                        counts = posterior.counts
                        outcomes[c] = (max(counts, key=counts.__getitem__), round_idx, resolved)
                    n_open -= 1
                if not n_open:
                    break
        except _Stopped:
            pass
        except BaseException:
            failed = True
            raise
        return outcomes

    # a worker takes the next question as soon as its chain ends; a chain reads
    # only its own (question, round) draws, so outcomes do not depend on scheduling
    with ThreadPoolExecutor(max_workers=max_parallel + 1) as pool:
        schedule = pool.map if pooled else map
        try:
            # raises the error of the earliest question whose chain raised
            per_question = list(schedule(chain, qids))
        finally:
            failed = True  # on an early exit, the pool waits only for the draws in flight

    results = []
    for closed in zip(*per_question):  # per configuration, its outcome on each question
        per_question_calls = {qid: calls for qid, (_, calls, _) in zip(qids, closed)}
        results.append(
            RunResult(
                predictions={qid: prediction for qid, (prediction, _, _) in zip(qids, closed)},
                avg_calls=sum(per_question_calls.values()) / len(qids),
                per_question_calls=per_question_calls,
                unresolved=tuple(qid for qid, (_, _, ok) in zip(qids, closed) if not ok),
            )
        )
    return tuple(results)
