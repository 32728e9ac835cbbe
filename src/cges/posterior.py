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
from enum import Enum
from typing import Hashable, Iterable, Optional, Sequence

from .errors import (
    CandidateCountError,
    ContradictoryHypothesesError,
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


class KPolicy(Enum):
    """How the candidate count K is determined."""

    FIXED_K = "fixed"
    OBSERVED_PLUS_VIRTUAL = "observed+virtual"


@dataclass(frozen=True)
class CandidateSet:
    """Ordered distinct answer labels plus the policy fixing the count K.

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

    @property
    def policy(self) -> KPolicy:
        return KPolicy.FIXED_K if self.fixed_k is not None else KPolicy.OBSERVED_PLUS_VIRTUAL

    @property
    def effective_k(self) -> int:
        if self.fixed_k is not None:
            return self.fixed_k
        return len(self.labels) + 1

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


@dataclass(frozen=True)
class PosteriorVector:
    """Normalized posterior mass over candidate answers.

    ``virtual_mass`` is the combined mass of candidates that exist for
    normalization but carry no label: the single virtual candidate under the
    observed+virtual policy, or the unnamed remainder when a fixed K exceeds
    the number of named labels.  It is 0.0 when every candidate is named.
    """

    labels: tuple[Label, ...]
    masses: dict[Label, float]
    log_unnormalized: dict[Label, float]
    virtual_mass: float = 0.0
    reserve_log_unnormalized: Optional[float] = None
    log_normalizer: float = 0.0

    def top(self) -> tuple[Label, float]:
        return top(self)

    def top_log_mass(self) -> float:
        """log of the top candidate's mass, computed so it is exactly < 0
        whenever any competing mass is positive (robust at thresholds near 1)."""
        return _top_log_mass(self.log_unnormalized, self.reserve_log_unnormalized)


class RunningPosterior:
    """Sufficient statistics of a sample stream, updated in O(1) per sample.

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
        """log of the top label's posterior mass; see ``PosteriorVector.top_log_mass``."""
        return _top_log_mass(self.log_scores(), self.reserve_log_score())

    def posterior(self) -> "PosteriorVector":
        """The normalized posterior over the candidates named so far."""
        if not self.n:
            raise EmptySamplesError("a posterior needs at least one sample")
        log_unnormalized = self.log_scores()
        reserve_log = self.reserve_log_score()
        entries = list(log_unnormalized.values())
        if reserve_log is not None:
            entries.append(reserve_log)
        log_z = _logsumexp(entries)
        return PosteriorVector(
            labels=tuple(log_unnormalized),
            masses={label: math.exp(v - log_z) for label, v in log_unnormalized.items()},
            log_unnormalized=log_unnormalized,
            virtual_mass=math.exp(reserve_log - log_z) if reserve_log is not None else 0.0,
            reserve_log_unnormalized=reserve_log,
            log_normalizer=log_z,
        )


def log_likelihood(sample: Sample, hypothesis_matches: bool, effective_k: int) -> float:
    """Log-likelihood of one sample under a single hypothesis.

    Returns log C when the hypothesised answer equals the sample's label and
    log((1 - C) / (K - 1)) otherwise.
    """
    if effective_k < 2:
        raise CandidateCountError(
            f"effective candidate count must be >= 2, got {effective_k}"
        )
    if hypothesis_matches:
        return math.log(sample.confidence)
    return math.log1p(-sample.confidence) - math.log(effective_k - 1)


def llr_increment(
    sample: Sample, i_matches: bool, k_matches: bool, effective_k: int
) -> float:
    """Log-likelihood ratio contribution of one sample between two hypotheses.

    Positive values favour hypothesis i over hypothesis k; a sample matching
    neither contributes exactly zero.
    """
    if i_matches and k_matches:
        raise ContradictoryHypothesesError(
            "a sample cannot match both hypotheses of a likelihood ratio"
        )
    return log_likelihood(sample, i_matches, effective_k) - log_likelihood(
        sample, k_matches, effective_k
    )


def score(samples: Sequence[Sample], candidates: CandidateSet) -> PosteriorVector:
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
    return running.posterior()


def top(posterior: PosteriorVector) -> tuple[Label, float]:
    """The named candidate with maximal mass; ties go to the earliest-inserted label.

    The virtual reserve is never returned, even when it outweighs every named
    candidate.  Selection compares unnormalized log scores, which order the
    masses monotonically.
    """
    best = _argmax(posterior.log_unnormalized)
    return best, posterior.masses[best]


def _argmax(scores: dict[Label, float]) -> Label:
    """The first key holding the maximal value."""
    if not scores:
        raise EmptySamplesError("posterior has no real candidates")
    return max(scores, key=scores.__getitem__)


def _top_log_mass(scores: dict[Label, float], reserve_log: Optional[float]) -> float:
    """log of the top label's mass, computed as -log1p(sum of the other masses
    relative to it) so it is exactly < 0 whenever any competing mass is positive."""
    best = _argmax(scores)
    top_log = scores[best]
    tail = math.fsum(math.exp(v - top_log) for label, v in scores.items() if label != best)
    if reserve_log is not None:
        tail += math.exp(reserve_log - top_log)
    return -math.log1p(tail)


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
