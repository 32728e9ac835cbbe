"""Log-space Bayesian scoring of repeated answers weighted by their confidences.

The likelihood kernel is one-versus-rest: a sample whose label matches the
hypothesised answer has likelihood equal to its confidence C, and every other
hypothesis assigns it the residual mass (1 - C) / (K - 1), shared uniformly
across the K - 1 remaining candidates.  Multiplying these terms over all
samples and renormalizing yields a posterior over candidate answers.

All arithmetic is done in log space; direct products underflow once a few
hundred samples accumulate.  ``RunningPosterior`` keeps the sufficient
statistics of a sample stream, so adding a sample costs O(1) and every score
is read off them at query time; ``score`` is its batch form.  ``tally`` counts
a sample without its log terms, for a caller that reads only the counts from
then on; a tallied posterior refuses every score read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .errors import ConfigurationError, EmptySamplesError, InvalidSampleError

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
        RunningPosterior(self.fixed_k, self.labels)  # distinct labels, a valid fixed K
        if self.fixed_k is None and len(self.labels) < 1:
            raise ConfigurationError(
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

    Per label it keeps one record [n_L, S_L, A_L]: the count, S_L = sum of
    log C and A_L = sum of log(1 - C) over the label's samples; globally the
    count n and A = sum of log(1 - C).  The unnormalized log score of label L is

        score_L = S_L + (A - A_L) - (n - n_L) * log(K - 1)

    and each unnamed candidate scores A - n * log(K - 1).  K is read at query
    time (``fixed_k``, or the named labels plus one virtual reserve), so the
    scores stay exact when a new label grows K.  ``labels`` names candidates
    up front, with no samples; the rest are named as they are first seen.
    """

    __slots__ = ("fixed_k", "n", "sum_log_miss", "_records", "_tallied")

    def __init__(self, fixed_k: Optional[int] = None, labels: Iterable[Label] = ()) -> None:
        self.fixed_k = fixed_k
        self.n = 0
        self.sum_log_miss = 0.0
        # label -> [n_L, S_L, A_L]; insertion order = first-seen order
        self._records: dict[Label, list] = {}
        self._tallied = False  # set by ``tally``: the log sums then miss a sample
        for label in labels:
            if label in self._records:
                raise InvalidSampleError("candidate labels must be pairwise distinct")
            self._records[label] = [0, 0.0, 0.0]
        if fixed_k is not None:
            _check_fixed_k(fixed_k, len(self._records))

    @property
    def counts(self) -> dict[Label, int]:
        """Per-label sample counts in first-seen order, as a fresh dict."""
        return {label: record[0] for label, record in self._records.items()}

    def add(self, label: Label, confidence: float) -> None:
        """Fold one (label, confidence) observation into the statistics."""
        if not 0.0 < confidence < 1.0:
            _check_confidence(confidence)  # raises
        record = self._records.get(label)
        if record is None:
            if self.fixed_k is not None:
                _check_fixed_k(self.fixed_k, len(self._records) + 1)
            record = self._records[label] = [0, 0.0, 0.0]
        log_miss = math.log1p(-confidence)
        self.n += 1
        self.sum_log_miss += log_miss
        record[0] += 1
        record[1] += math.log(confidence)
        record[2] += log_miss

    def tally(self, label: Label, confidence: float) -> None:
        """Count one observation without its log terms, refusing what ``add``
        refuses; ``counts``, ``labels`` and ``n`` stay exact, but every score
        read raises from then on."""
        # the checks of ``add``, inlined there too: a shared call costs ``add`` time
        if not 0.0 < confidence < 1.0:
            _check_confidence(confidence)  # raises
        record = self._records.get(label)
        if record is None:
            if self.fixed_k is not None:
                _check_fixed_k(self.fixed_k, len(self._records) + 1)
            record = self._records[label] = [0, 0.0, 0.0]
        self.n += 1
        record[0] += 1
        self._tallied = True

    def _scores(self) -> tuple[list[float], Optional[float]]:
        """The named labels' log scores in first-seen order, and the unnamed
        candidates' aggregate (None if all are named): the one place the
        score formula lives."""
        if self._tallied:
            raise ConfigurationError("a tallied posterior keeps counts, not scores")
        k = len(self._records) + 1 if self.fixed_k is None else self.fixed_k
        if k < 2:  # observed+virtual with no label yet
            raise EmptySamplesError("a posterior needs at least one sample")
        log_k_minus_1 = math.log(k - 1)
        n, total_miss = self.n, self.sum_log_miss
        scores = [
            hit + (total_miss - miss) - (n - n_label) * log_k_minus_1
            for n_label, hit, miss in self._records.values()
        ]
        n_unnamed = k - len(self._records)
        if n_unnamed <= 0:
            return scores, None
        # every unnamed candidate has the all-mismatch score
        return scores, total_miss - n * log_k_minus_1 + math.log(n_unnamed)

    def top_log_mass(self) -> float:
        """log of the top label's posterior mass (see ``top_index_and_log_mass``)."""
        return self.top_index_and_log_mass()[1]

    def top_index_and_log_mass(self) -> tuple[int, float]:
        """(first-seen index of the top label, log of its posterior mass), read
        in one pass over the scores; ties go to the earliest label.

        The log mass is -log1p(sum of the other masses relative to the top
        one), so it is exactly < 0 whenever any competing mass is positive and
        a threshold of 1.0 stays unreachable (robust at thresholds near 1).
        """
        scores, reserve_log = self._scores()
        best = _first_max(scores)
        # the top label's score; the rest are the competitors
        top_log = scores.pop(best)
        tail = math.fsum([math.exp(v - top_log) for v in scores])
        if reserve_log is not None:
            tail += math.exp(reserve_log - top_log)
        return best, -math.log1p(tail)

    @property
    def labels(self) -> tuple[Label, ...]:
        """The named candidates, in first-seen order."""
        return tuple(self._records)

    @property
    def masses(self) -> dict[Label, float]:
        """Normalized posterior mass of every named candidate, in first-seen order."""
        scores, _, log_z = self._normalized()
        return {label: math.exp(v - log_z) for label, v in zip(self._records, scores)}

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
        best = _first_max(scores)
        return list(self._records)[best], math.exp(scores[best] - log_z)

    def _normalized(self) -> tuple[list[float], Optional[float], float]:
        """(log scores, reserve log score, log normalizer) via a max-shifted log-sum-exp."""
        if not self.n:
            raise EmptySamplesError("a posterior needs at least one sample")
        scores, reserve_log = self._scores()
        entries = scores if reserve_log is None else [*scores, reserve_log]
        return scores, reserve_log, _logsumexp(entries)


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
        if sample.label not in running._records:
            raise InvalidSampleError(
                f"sample label {sample.label!r} is not in the fixed candidate set"
            )
        running.add(sample.label, sample.confidence)
    return running


def _first_max(scores: list[float]) -> int:
    """The index of the first maximal score: ties go to the earliest label."""
    if not scores:
        raise EmptySamplesError("posterior has no real candidates")
    return scores.index(max(scores))


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise InvalidSampleError(
            f"confidence must lie strictly inside (0, 1), got {confidence!r}"
        )


def _check_fixed_k(fixed_k: int, n_labels: int) -> None:
    if isinstance(fixed_k, bool) or not isinstance(fixed_k, int):
        raise ConfigurationError(f"fixed candidate count must be an int, got {fixed_k!r}")
    if fixed_k < 2:
        raise ConfigurationError(f"fixed candidate count must be >= 2, got {fixed_k}")
    if fixed_k < n_labels:
        raise ConfigurationError(
            f"fixed candidate count {fixed_k} is smaller than the "
            f"{n_labels} distinct labels observed"
        )


def _logsumexp(values: Sequence[float]) -> float:
    shift = max(values)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in values))
