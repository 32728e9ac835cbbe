"""Reference answers for the replay study, computed from the generated streams.

The oracle shares no code with the package.  It keeps per-label sufficient
statistics (count, sum of log C, sum of log(1 - C)) plus global totals, so
each sample costs O(1); the label score is

    score_L = S_L + (A - A_L) - (n - n_L) * log(K - 1)

with K = distinct labels + 1 (one reserved virtual candidate).  The virtual
reserve scores A - n * log(K - 1).  Ties go to the earliest-seen label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

Stream = Sequence[tuple[Hashable, float]]


class RunningPosterior:
    def __init__(self) -> None:
        self.n = 0
        self.a = 0.0  # sum of log(1 - C) over all samples
        self.count: dict[Hashable, int] = {}  # insertion order = first-seen order
        self.s: dict[Hashable, float] = {}
        self.a_label: dict[Hashable, float] = {}

    def add(self, label: Hashable, confidence: float) -> None:
        log_miss = math.log1p(-confidence)
        self.n += 1
        self.a += log_miss
        self.count[label] = self.count.get(label, 0) + 1
        self.s[label] = self.s.get(label, 0.0) + math.log(confidence)
        self.a_label[label] = self.a_label.get(label, 0.0) + log_miss

    def log_scores(self) -> tuple[dict[Hashable, float], float]:
        """Unnormalized log scores of the named labels and of the reserve."""
        log_k1 = math.log(len(self.count))  # K - 1 with K = labels + 1
        scores = {
            label: self.s[label] + (self.a - self.a_label[label]) - (self.n - n_l) * log_k1
            for label, n_l in self.count.items()
        }
        return scores, self.a - self.n * log_k1

    def masses(self) -> tuple[dict[Hashable, float], float]:
        scores, reserve = self.log_scores()
        shift = max(max(scores.values()), reserve)
        weights = {label: math.exp(v - shift) for label, v in scores.items()}
        total = math.fsum(list(weights.values()) + [math.exp(reserve - shift)])
        return {label: w / total for label, w in weights.items()}, math.exp(reserve - shift) / total

    def top(self) -> tuple[Hashable, float]:
        """(top label, log of its mass)."""
        scores, reserve = self.log_scores()
        best = max(scores, key=scores.__getitem__)  # first maximum = earliest label
        top_log = scores[best]
        tail = math.fsum(math.exp(v - top_log) for label, v in scores.items() if label != best)
        return best, -math.log1p(tail + math.exp(reserve - top_log))


def majority(labels: Sequence[Hashable]) -> Hashable:
    counts: dict[Hashable, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return max(counts, key=counts.__getitem__)


@dataclass(frozen=True)
class Outcome:
    prediction: Hashable
    calls: int


def cges(stream: Stream, gamma: float, budget: int) -> Outcome:
    posterior = RunningPosterior()
    log_gamma = math.log(gamma)
    for calls, (label, confidence) in enumerate(stream[:budget], start=1):
        posterior.add(label, confidence)
        best, top_log = posterior.top()
        if top_log >= log_gamma:
            break
    return Outcome(best, calls)


def sc(stream: Stream, budget: int) -> Outcome:
    return Outcome(majority([label for label, _ in stream[:budget]]), budget)


def esc(stream: Stream, window: int, budget: int) -> Outcome:
    labels = [label for label, _ in stream[:budget]]
    calls = budget
    for end in range(window, budget + 1, window):
        if len(set(labels[end - window : end])) == 1:
            calls = end
            break
    return Outcome(majority(labels[:calls]), calls)
