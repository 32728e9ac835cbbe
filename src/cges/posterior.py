"""Log-space Bayesian scoring of repeated answers weighted by their confidences.

The likelihood kernel is one-versus-rest: a sample whose label matches the
hypothesised answer has likelihood equal to its confidence C, and every other
hypothesis assigns it the residual mass (1 - C) / (K - 1), shared uniformly
across the K - 1 remaining candidates.  Multiplying these terms over all
samples and renormalizing yields a posterior over candidate answers.

All arithmetic is done in log space; direct products underflow once a few
hundred samples accumulate.  ``RunningPosterior`` keeps the sufficient
statistics of a sample stream, so adding a sample costs O(1) and every score
is read off them at query time by ``log_score``, which ``cges.genmodel`` also
applies to numpy arrays; ``score`` is its batch form.  Every mass it
reports comes off one normalisation, the exact top read, whose log mass is the
one a stopping rule compares.  Between exact reads, a lower and an upper bound
on the read's tail that ``add`` carries in O(1) let ``screen`` prove a threshold
out of reach or reached, and name the read's argmax when reached.  After
``stop_scoring`` a posterior only counts its samples and refuses every score read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Optional, Sequence

from .errors import ConfigurationError, EmptySamplesError, InvalidSampleError

Label = Hashable

# The bounds' rounding slack is _SLACK * n * (_LOG_SPAN + log(K - 1)) after n
# samples.  |log C| + |log(1 - C)| < _LOG_SPAN for every float C in (0, 1), so
# every log sum is below n * (_LOG_SPAN + log(K - 1)) in magnitude, and a score
# gap read from the sums is off by less than 1e-15 of that; _SLACK is ten times it.
_SLACK = 1e-14
_LOG_SPAN = 800.0
# Below this a read's terms may underflow to zero, so a smaller lower bound proves nothing.
_TINY = 1e-250
_STOPPED = "after stop_scoring a posterior keeps counts, not scores"


def log_score(n_label, hit, miss, n, total_miss, log_k_minus_1):
    """A candidate's unnormalized log score among K: ``hit`` and ``miss`` sum log C
    and log(1 - C) over its ``n_label`` samples, ``total_miss`` sums log(1 - C) over
    all ``n``.  The one statement of the formula, for floats and numpy arrays alike;
    its operation order fixes the last bits of every score."""
    return hit + (total_miss - miss) - (n - n_label) * log_k_minus_1


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
        _check_label(self.label)
        if type(self.round) is not int or self.round < 1:
            raise InvalidSampleError(f"round must be an integer >= 1, got {self.round!r}")


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

    Every score is the all-mismatch score A - n * log(K - 1) plus the label's
    excess S_L - A_L + n_L * log(K - 1), so a competitor's mass relative to
    the top one is e^(excess_L - excess_top), and a sample moves the excess of
    its own label only.  The tail is the sum of the other masses relative to
    the top one, and ``add`` carries it as an estimate T and an error allowance
    E, so that T - E and T + E bound it (see ``screen``): the top drawn with a
    gain g scales both by e^(-g); a competitor drawn that still trails swaps its
    old ratio for its new one in T and adds the old ratio times the rounding
    slack to E; a competitor drawn past the top, by a gap g >= 0, is the new top
    (every other label trails the old one), and T re-bases to (T + 1) e^(-g) - 1
    for the swapped T, E to the swapped E times e^(-g) plus the slack.  The top
    drawn with a loss (g < 0, a confidence below 1/K) scales both up, and keeps
    them only while the upper bound, under 1, shows that it still leads.  A new
    label (K or the unnamed count moves) or an overflow drops both bounds.  With
    one named label, the top, the tail is exactly (K - 1) e^(-excess_top), so a
    question's first draw sets T, with E = 0, without a read.
    """

    __slots__ = (
        "fixed_k", "n", "sum_log_miss", "_records", "_tail", "_error",
        "_top", "_top_label", "_top_excess", "_log_k_minus_1", "_watch",
    )

    def __init__(self, fixed_k: Optional[int] = None, labels: Iterable[Label] = ()) -> None:
        self.fixed_k = fixed_k
        self.n = 0
        self.sum_log_miss = 0.0
        # label -> [n_L, S_L, A_L]; insertion order = first-seen order
        self._records: dict[Label, list] = {}
        # the tail estimate and its allowance (None marks ``stop_scoring``), and the
        # top record (None: no bounds carried), its label, its excess and log(K - 1)
        # of the read they started from; expm1(-log gamma) of the watched threshold
        self._tail: Optional[float] = 0.0
        self._error = 0.0
        self._top: Optional[list] = None
        self._top_label: Label = None
        self._top_excess = self._log_k_minus_1 = 0.0
        self._watch = math.nan  # no threshold watched: ``add`` proves nothing
        for label in labels:
            _check_label(label)
            if label in self._records:
                raise InvalidSampleError("candidate labels must be pairwise distinct")
            self._records[label] = [0, 0.0, 0.0]
        if fixed_k is not None:
            _check_fixed_k(fixed_k, len(self._records))

    @property
    def counts(self) -> dict[Label, int]:
        """Per-label sample counts in first-seen order, as a fresh dict."""
        return {label: record[0] for label, record in self._records.items()}

    def add(self, label: Label, confidence: float) -> Optional[bool]:
        """Fold one (label, confidence) observation into the statistics, or
        after ``stop_scoring`` count it only; either way refuse a confidence
        outside (0, 1), an unhashable label and a label past a fixed K.  Return
        what ``screen`` would at the threshold set by ``watch`` (None once stopped)."""
        try:
            if not 0.0 < confidence < 1.0:
                _check_confidence(confidence)  # raises
            record = self._records.get(label)
        except TypeError:  # a confidence that is no real number, or an unhashable label
            _check_confidence(confidence)
            _check_label(label)
            raise
        tail = self._tail
        if record is None:
            if self.fixed_k is not None:
                _check_fixed_k(self.fixed_k, len(self._records) + 1)
            record = self._records[label] = [0, 0.0, 0.0]
            self._top = None  # a new label drops the bounds
        self.n += 1
        record[0] += 1
        if tail is None:  # scoring stopped: the count is all that is kept
            return None
        log_hit = math.log(confidence)
        log_miss = math.log1p(-confidence)
        self.sum_log_miss += log_miss
        record[1] += log_hit
        record[2] += log_miss
        top = self._top
        if top is not None:  # carry the bounds (see the class docstring), inlined: a call costs ``add`` time
            log_k_minus_1 = self._log_k_minus_1
            slack = _SLACK * self.n * (_LOG_SPAN + log_k_minus_1)
            excess = record[1] - record[2] + record[0] * log_k_minus_1
            gap = excess - self._top_excess  # log of its mass relative to the top's
            error = self._error
            if record is top:
                try:
                    scale = math.exp(-gap)
                except OverflowError:  # a loss past the float range
                    self._top = None
                    return None
                tail *= scale
                error *= scale
                if gap < 0.0 and (tail + error) * (1.0 + slack) >= 1.0:  # it may no longer lead
                    self._top = None
                    return None
                self._top_excess = excess
            else:
                # its ratio before this draw; a near tie that rounding hides moves
                # the tail by less than the slack on it
                old = math.exp(gap - (log_hit - log_miss + log_k_minus_1))
                error += old * slack
                if gap < 0.0:  # it still trails
                    tail += math.exp(gap) - old
                else:  # it is the new top, since every other label trails the old one
                    # (T + 1) e^(-gap) - 1 for the swapped T, with its new ratio e^gap
                    # cancelled out so that nothing overflows
                    scale = math.exp(-gap)
                    tail = (tail + 1.0 - old) * scale
                    error = error * scale + slack
                    self._top, self._top_label, self._top_excess = record, label, excess
        elif len(self._records) == 1:  # a question's first draw, say
            # one named label, so the top; the other K - 1 candidates are unnamed, of
            # excess 0, and the tail is exactly (K - 1) e^(-excess); observed+virtual has K = 2
            log_k_minus_1 = math.log((self.fixed_k or 2) - 1)
            excess = record[1] - record[2] + record[0] * log_k_minus_1
            try:
                tail = math.exp(log_k_minus_1 - excess)
            except OverflowError:  # the unnamed candidates outweigh the top past the float range
                return None
            self._top, self._top_label = record, label
            self._top_excess, self._log_k_minus_1 = excess, log_k_minus_1
            error = 0.0
            slack = _SLACK * self.n * (_LOG_SPAN + log_k_minus_1)
        else:
            return None
        self._tail, self._error = tail, error
        # ``screen`` at the watched threshold, inlined
        watch = self._watch
        low = (tail - error) * (1.0 - slack)
        if low > watch and low > _TINY:
            return False
        high = (tail + error) * (1.0 + slack)
        return True if high < watch and high < 1.0 else None

    def stop_scoring(self) -> None:
        """One way: ``add`` then counts each sample only, so ``counts``,
        ``labels`` and ``n`` stay exact, and every score read raises."""
        self._tail = None

    def _scores(self) -> tuple[list[float], Optional[float], float]:
        """The named labels' log scores in first-seen order, the unnamed
        candidates' aggregate (None if all are named) and log(K - 1), each
        through ``log_score`` (``add`` keeps the bounds with its excess form)."""
        if self._tail is None:
            raise ConfigurationError(_STOPPED)
        k = len(self._records) + 1 if self.fixed_k is None else self.fixed_k
        if k < 2:  # observed+virtual with no label yet
            raise EmptySamplesError("a posterior needs at least one sample")
        log_k_minus_1 = math.log(k - 1)
        n, total_miss = self.n, self.sum_log_miss
        scores = [
            log_score(n_label, hit, miss, n, total_miss, log_k_minus_1)
            for n_label, hit, miss in self._records.values()
        ]
        n_unnamed = k - len(self._records)
        if n_unnamed <= 0:
            return scores, None, log_k_minus_1
        # every unnamed candidate has the all-mismatch score
        unnamed = log_score(0, 0.0, 0.0, n, total_miss, log_k_minus_1)
        return scores, unnamed + math.log(n_unnamed), log_k_minus_1

    def top_log_mass(self) -> float:
        """log of the top label's posterior mass, read in one pass over the
        scores; the top, ties going to the earliest label, is then ``top_label``.
        This is the one normalisation: every mass the posterior reports comes off it.

        The log mass is -log1p(sum of the other masses relative to the top
        one), so it is exactly < 0 whenever any competing mass is positive and
        a threshold of 1.0 stays unreachable (robust at thresholds near 1).
        """
        scores, reserve_log, log_k_minus_1 = self._scores()
        if not scores:
            raise EmptySamplesError("posterior has no real candidates")
        top_log = max(scores)
        best = scores.index(top_log)  # ties go to the earliest label
        scores[best] = -math.inf  # the competitors only: e^-inf adds an exact 0.0
        tail = math.fsum([math.exp(v - top_log) for v in scores])
        # the bounds start afresh from this read, with no allowance
        self._top_label, top = next(islice(self._records.items(), best, None))
        self._top, self._top_excess = top, top[1] - top[2] + top[0] * log_k_minus_1
        self._log_k_minus_1, self._error = log_k_minus_1, 0.0
        if reserve_log is not None:
            shift = reserve_log - top_log
            try:
                tail += math.exp(shift)
            except OverflowError:  # the unnamed candidates outweigh the top past the float range
                self._top = None
                # log1p(tail + e^shift) = shift + log1p((1 + tail) e^-shift)
                return -shift - math.log1p((1.0 + tail) * math.exp(-shift))
        self._tail = tail
        return -math.log1p(tail)

    def watch(self, log_gamma: float) -> None:
        """Set the threshold whose ``screen`` verdict each ``add`` returns."""
        self._watch = _tail_at(log_gamma)

    def screen(self, log_gamma: float) -> Optional[bool]:
        """Whether the next ``top_log_mass`` would read a log mass of
        at least ``log_gamma``, told without that O(K) read: True proves it
        would, with ``top_label`` as its top; False proves it would not; None
        when the bounds cannot tell.

        That log mass is -log1p(tail), the tail being the other masses relative
        to the top one, so it reaches log gamma while the tail stays below
        expm1(-log gamma).  The bounds ``add`` carries, widened by the read's
        rounding slack, prove either side.  True also needs the upper bound
        under 1: then every other label trails the tracked top strictly, so the
        read finds that top, and no tie for the earliest label to break.
        """
        if self._tail is None:
            raise ConfigurationError(_STOPPED)
        if self._top is None:
            return None
        tail, error, watch = self._tail, self._error, _tail_at(log_gamma)
        slack = _SLACK * self.n * (_LOG_SPAN + self._log_k_minus_1)
        low = (tail - error) * (1.0 - slack)
        if low > watch and low > _TINY:
            return False
        high = (tail + error) * (1.0 + slack)
        return True if high < watch and high < 1.0 else None

    @property
    def top_label(self) -> Label:
        """The label the bounds track as the top: the last read's top, or a label
        drawn past it since.  Whenever ``screen`` returns True, the next read's top."""
        if self._tail is None:
            raise ConfigurationError(_STOPPED)
        return self._top_label

    @property
    def labels(self) -> tuple[Label, ...]:
        """The named candidates, in first-seen order."""
        return tuple(self._records)

    @property
    def masses(self) -> dict[Label, float]:
        """Normalized posterior mass of every named candidate, in first-seen order."""
        named, _ = self._log_masses()
        return {label: math.exp(v) for label, v in zip(self._records, named)}

    @property
    def virtual_mass(self) -> float:
        """Combined mass of the candidates that carry no label.

        That is the single virtual candidate under the observed+virtual
        policy, or the unnamed remainder when a fixed K exceeds the named
        labels; 0.0 when every candidate is named.
        """
        _, unnamed = self._log_masses()
        return 0.0 if unnamed is None else math.exp(unnamed)

    def top(self) -> tuple[Label, float]:
        """(named candidate with maximal mass, its mass); ties go to the earliest.

        The virtual reserve is never returned, even when it outweighs every
        named candidate.  The mass is exp of ``top_log_mass()``, the mass a
        stopping rule compares.
        """
        if not self.n:
            raise EmptySamplesError("a posterior needs at least one sample")
        log_mass = self.top_log_mass()  # the read names its top
        return self._top_label, math.exp(log_mass)

    def _log_masses(self) -> tuple[list[float], Optional[float]]:
        """(named log masses, unnamed log mass or None), each (score - top
        score) + the top log mass, so the top's is that log mass."""
        if not self.n:
            raise EmptySamplesError("a posterior needs at least one sample")
        log_mass = self.top_log_mass()
        scores, reserve_log, _ = self._scores()  # the same scores, bit for bit
        top_log = max(scores)
        named = [v - top_log + log_mass for v in scores]
        return named, None if reserve_log is None else reserve_log - top_log + log_mass


def score(samples: Sequence[Sample], candidates: CandidateSet) -> RunningPosterior:
    """Posterior over candidates given all samples, via log-space products.

    The batch form of ``RunningPosterior``: for each candidate the
    unnormalized log score sums log C over matching samples and
    log((1 - C)/(K - 1)) over the rest; masses come off the top read.
    Unnamed candidates (the virtual reserve, or the remainder under a fixed
    K) share the all-mismatch score.
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


def _tail_at(log_gamma: float) -> float:
    """expm1(-log gamma): the tail below which a read's top log mass reaches log gamma."""
    try:
        return math.expm1(-log_gamma)
    except OverflowError:  # a gamma below e^-709.78, subnormal: every finite tail reaches it
        return math.inf


def _check_label(label: Label) -> None:
    try:
        hash(label)
    except TypeError:
        raise InvalidSampleError(f"label must be hashable, got {label!r}") from None


def _check_confidence(confidence: float) -> None:
    try:
        inside = 0.0 < confidence < 1.0
    except TypeError:  # None or a string, say: no real number
        raise InvalidSampleError(f"confidence must be a real number, got {confidence!r}") from None
    if not inside:
        raise InvalidSampleError(f"confidence must lie strictly inside (0, 1), got {confidence!r}")


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
