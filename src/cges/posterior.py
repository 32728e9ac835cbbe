"""Log-space Bayesian scoring of repeated answers weighted by their confidences.

The likelihood kernel is one-versus-rest: a sample whose label matches the
hypothesised answer has likelihood equal to its confidence C, and every other
hypothesis assigns it the residual mass (1 - C) / (K - 1), shared uniformly
across the K - 1 remaining candidates.  Multiplying these terms over all
samples and renormalizing yields a posterior over candidate answers.

All arithmetic is done in log space; direct products underflow once a few
hundred samples accumulate.  ``RunningPosterior`` keeps the sufficient
statistics of a sample stream, so adding a sample costs O(1) and every score
is read off them at query time; ``score`` is its batch form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .errors import (
    CandidateCountError,
    EmptySamplesError,
    InvalidSampleError,
    UnknownLabelError,
)

Label = Hashable


@dataclass(frozen=True)
class Sample:
    """One (answer label, confidence) observation drawn at round ``round``.

    The confidence must lie strictly inside (0, 1); upstream estimators clamp
    to the interior so that log-likelihoods stay finite.
    """

    label: Label
    confidence: float
    round: int = 1

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)
        if self.round < 1:
            raise InvalidSampleError(f"round must be a positive integer, got {self.round!r}")


@dataclass(frozen=True)
class CandidateSet:
    """Ordered distinct answer labels plus the rule fixing the count K.

    With ``fixed_k`` set, K is the given constant (multiple-choice style) and
    may exceed the number of labels seen so far; the unnamed remainder shares
    the all-mismatch score.  Without it, K is the number of observed labels
    plus one reserved virtual candidate that is never predicted.  The reserve
    keeps a single-sample posterior equal to its confidence instead of 1.
    """

    labels: tuple[Label, ...]
    fixed_k: Optional[int] = None

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise InvalidSampleError("candidate labels must be pairwise distinct")
        if self.fixed_k is not None:
            _check_fixed_k(self.fixed_k, len(self.labels))
        elif len(self.labels) < 1:
            raise CandidateCountError(
                "observed+virtual policy needs at least one observed label"
            )

    @classmethod
    def from_samples(
        cls, samples: Iterable[Sample], fixed_k: Optional[int] = None
    ) -> "CandidateSet":
        """Build the candidate set from samples, labels in first-seen order."""
        labels: dict[Label, None] = {}
        for sample in samples:
            labels.setdefault(sample.label, None)
        if not labels:
            raise EmptySamplesError("cannot build a candidate set from zero samples")
        return cls(labels=tuple(labels), fixed_k=fixed_k)


class RunningPosterior:
    """The posterior over candidate answers, kept as the sufficient statistics
    of a sample stream and updated in O(1) per sample.

    Per label it keeps the count n_L, S_L = sum of log C and A_L = sum of
    log(1 - C) over the label's samples; globally the count n and
    A = sum of log(1 - C).  The unnormalized log score of label L is

        score_L = S_L + (A - A_L) - (n - n_L) * log(K - 1)

    and each unnamed candidate scores A - n * log(K - 1).  K is read at query
    time (``fixed_k``, or the named labels plus one virtual reserve), so the
    scores stay exact when a new label grows K.  ``labels`` names candidates
    up front, with no samples; the rest are named as they are first seen.
    """

    __slots__ = ("fixed_k", "n", "sum_log_miss", "counts", "_sum_log_hit", "_sum_log_miss")

    def __init__(self, fixed_k: Optional[int] = None, labels: Iterable[Label] = ()) -> None:
        self.fixed_k = fixed_k
        self.n = 0
        self.sum_log_miss = 0.0
        # per-label sample counts; insertion order = first-seen order
        self.counts: dict[Label, int] = {}
        self._sum_log_hit: dict[Label, float] = {}
        self._sum_log_miss: dict[Label, float] = {}
        for label in labels:
            if label in self.counts:
                raise InvalidSampleError("candidate labels must be pairwise distinct")
            self._name(label)
        if fixed_k is not None:
            _check_fixed_k(fixed_k, len(self.counts))

    def copy(self) -> "RunningPosterior":
        """An independent posterior holding the same statistics."""
        twin = RunningPosterior(self.fixed_k)
        twin.n = self.n
        twin.sum_log_miss = self.sum_log_miss
        twin.counts = dict(self.counts)
        twin._sum_log_hit = dict(self._sum_log_hit)
        twin._sum_log_miss = dict(self._sum_log_miss)
        return twin

    def _name(self, label: Label) -> None:
        self.counts[label] = 0
        self._sum_log_hit[label] = 0.0
        self._sum_log_miss[label] = 0.0

    @property
    def effective_k(self) -> int:
        if self.fixed_k is not None:
            return self.fixed_k
        return len(self.counts) + 1

    def add(self, label: Label, confidence: float) -> None:
        """Fold one (label, confidence) observation into the statistics."""
        _check_confidence(confidence)
        if label not in self.counts:
            if self.fixed_k is not None:
                _check_fixed_k(self.fixed_k, len(self.counts) + 1)
            self._name(label)
        log_miss = math.log1p(-confidence)
        self.n += 1
        self.sum_log_miss += log_miss
        self.counts[label] += 1
        self._sum_log_hit[label] += math.log(confidence)
        self._sum_log_miss[label] += log_miss

    def log_scores(self) -> dict[Label, float]:
        """Unnormalized log score of every named label, in first-seen order."""
        log_k_minus_1 = math.log(self.effective_k - 1)
        n, total_miss = self.n, self.sum_log_miss
        hit, miss = self._sum_log_hit, self._sum_log_miss
        return {
            label: hit[label] + (total_miss - miss[label]) - (n - n_label) * log_k_minus_1
            for label, n_label in self.counts.items()
        }

    def reserve_log_score(self) -> Optional[float]:
        """Aggregate log score of the unnamed candidates, or None if all are named."""
        k = self.effective_k
        n_unnamed = k - len(self.counts)
        if n_unnamed <= 0:
            return None
        # every unnamed candidate has the all-mismatch score
        return self.sum_log_miss - self.n * math.log(k - 1) + math.log(n_unnamed)

    def top_label(self) -> Label:
        """The named label with the highest score; ties go to the earliest."""
        return _argmax(self.log_scores())

    def top_log_mass(self) -> float:
        """log of the top label's posterior mass.

        It is computed as -log1p(sum of the other masses relative to the top
        one), so it is exactly < 0 whenever any competing mass is positive and
        a threshold of 1.0 stays unreachable (robust at thresholds near 1).
        """
        scores = self.log_scores()
        best = _argmax(scores)
        top_log = scores[best]
        tail = math.fsum(math.exp(v - top_log) for label, v in scores.items() if label != best)
        reserve_log = self.reserve_log_score()
        if reserve_log is not None:
            tail += math.exp(reserve_log - top_log)
        return -math.log1p(tail)

    @property
    def labels(self) -> tuple[Label, ...]:
        """The named candidates, in first-seen order."""
        return tuple(self.counts)

    @property
    def masses(self) -> dict[Label, float]:
        """Normalized posterior mass of every named candidate, in first-seen order."""
        scores, _, log_z = self._normalized()
        return {label: math.exp(v - log_z) for label, v in scores.items()}

    @property
    def virtual_mass(self) -> float:
        """Combined mass of the candidates that carry no label.

        That is the single virtual candidate under the observed+virtual
        policy, or the unnamed remainder when a fixed K exceeds the named
        labels; 0.0 when every candidate is named.
        """
        _, reserve_log, log_z = self._normalized()
        return 0.0 if reserve_log is None else math.exp(reserve_log - log_z)

    def top(self) -> tuple[Label, float]:
        """(named candidate with maximal mass, its mass); ties go to the earliest.

        The virtual reserve is never returned, even when it outweighs every
        named candidate.  Selection compares unnormalized log scores, which
        order the masses monotonically.
        """
        scores, _, log_z = self._normalized()
        best = _argmax(scores)
        return best, math.exp(scores[best] - log_z)

    def _normalized(self) -> tuple[dict[Label, float], Optional[float], float]:
        """(log scores, reserve log score, log normalizer) via a max-shifted log-sum-exp."""
        if not self.n:
            raise EmptySamplesError("a posterior needs at least one sample")
        scores = self.log_scores()
        reserve_log = self.reserve_log_score()
        entries = list(scores.values())
        if reserve_log is not None:
            entries.append(reserve_log)
        return scores, reserve_log, _logsumexp(entries)

    def __eq__(self, other: object) -> bool:
        """Equal statistics: the same K rule, samples folded in the same order."""
        if not isinstance(other, RunningPosterior):
            return NotImplemented
        return (
            self.fixed_k == other.fixed_k
            and self.n == other.n
            and self.sum_log_miss == other.sum_log_miss
            and list(self.counts.items()) == list(other.counts.items())
            and self._sum_log_hit == other._sum_log_hit
            and self._sum_log_miss == other._sum_log_miss
        )

    __hash__ = None  # mutable


def score(samples: Sequence[Sample], candidates: CandidateSet) -> RunningPosterior:
    """Posterior over candidates given all samples, via log-space products.

    The batch form of ``RunningPosterior``: for each candidate the
    unnormalized log score sums log C over matching samples and
    log((1 - C)/(K - 1)) over the rest; masses come out of a max-shifted
    log-sum-exp.  Unnamed candidates (the virtual reserve, or the remainder
    under a fixed K) share the all-mismatch score.
    """
    samples = list(samples)
    if not samples:
        raise EmptySamplesError("score() requires at least one sample")
    running = RunningPosterior(candidates.fixed_k, candidates.labels)
    for sample in samples:
        if sample.label not in running.counts:
            raise UnknownLabelError(
                f"sample label {sample.label!r} is not in the fixed candidate set"
            )
        running.add(sample.label, sample.confidence)
    return running


def _argmax(scores: dict[Label, float]) -> Label:
    """The first key holding the maximal value."""
    if not scores:
        raise EmptySamplesError("posterior has no real candidates")
    return max(scores, key=scores.__getitem__)


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise InvalidSampleError(
            f"confidence must lie strictly inside (0, 1), got {confidence!r}"
        )


def _check_fixed_k(fixed_k: int, n_labels: int) -> None:
    if fixed_k < 2:
        raise CandidateCountError(f"fixed candidate count must be >= 2, got {fixed_k}")
    if fixed_k < n_labels:
        raise CandidateCountError(
            f"fixed candidate count {fixed_k} is smaller than the "
            f"{n_labels} distinct labels observed"
        )


def _logsumexp(values: Sequence[float]) -> float:
    shift = max(values)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in values))
