"""Unit and property tests for the log-space answer-posterior kernel."""

import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cges
from cges import genmodel
from cges.errors import (
    CGESError,
    ConfigurationError,
    EmptySamplesError,
    InvalidSampleError,
)
from cges.genmodel import (
    IdealGenConfig,
    PointSimplex,
    RealisticGenConfig,
    Uniform,
    draw_trials,
)
from cges.posterior import (
    CandidateSet,
    RunningPosterior,
    Sample,
    score,
)
from conftest import overflow_streams, overtake_streams


def direct_product_masses(labels, confidences, k):
    """Independent oracle: literal per-candidate products, no log space."""
    scores = []
    for candidate in range(k):
        product = 1.0
        for label, confidence in zip(labels, confidences):
            if label == candidate:
                product *= confidence
            else:
                product *= (1.0 - confidence) / (k - 1)
        scores.append(product)
    z = sum(scores)
    return [s / z for s in scores]


# the refusal of every score read after ``stop_scoring``
STOPPED = "^after stop_scoring a posterior keeps counts, not scores$"


def log_scores(running):
    """The named labels' unnormalized log scores, keyed by label."""
    return dict(zip(running.labels, running._scores()[0]))


def one_sample(label, confidence, k, named=("a", "b")):
    """A fixed-K posterior naming ``named`` up front, after one sample."""
    running = RunningPosterior(fixed_k=k, labels=named)
    running.add(label, confidence)
    return running


class TestLogLikelihood:
    """One sample's likelihood as the running posterior applies it: log C to
    the matching hypothesis, log((1 - C) / (K - 1)) to every other."""

    def test_uninformative_at_one_over_k(self):
        running = one_sample("a", 0.5, 2)
        scores = log_scores(running)
        assert scores["a"] == pytest.approx(math.log(0.5), rel=1e-15)
        assert scores["a"] == pytest.approx(scores["b"], rel=1e-15)

    def test_mismatch_shares_residual_uniformly(self):
        running = one_sample("a", 0.9, 3)
        residual = math.log((1.0 - 0.9) / (3 - 1))
        assert log_scores(running)["b"] == pytest.approx(residual, rel=1e-12)
        assert running._scores()[1] == pytest.approx(residual, rel=1e-12)

    def test_match_returns_log_confidence(self):
        running = one_sample("a", 0.9, 3)
        assert log_scores(running)["a"] == pytest.approx(math.log(0.9), rel=1e-15)

    def test_rejects_degenerate_candidate_count(self):
        with pytest.raises(ConfigurationError):
            RunningPosterior(fixed_k=1)

    @pytest.mark.parametrize("fixed_k", [2.5, 3.0, True, "3"])
    def test_rejects_a_candidate_count_that_is_not_an_int(self, fixed_k):
        with pytest.raises(ConfigurationError, match="must be an int"):
            RunningPosterior(fixed_k=fixed_k)


class TestLlrIncrement:
    """One sample's log-likelihood ratio between two named hypotheses, read as
    the change it makes to their log-score difference."""

    @staticmethod
    def gap(running):
        scores = log_scores(running)
        return scores["a"] - scores["b"]

    def test_matching_first_hypothesis(self):
        value = self.gap(one_sample("a", 0.7, 2))
        assert value == pytest.approx(math.log(0.7 / 0.3), rel=1e-12)

    def test_matching_neither_is_exactly_zero(self):
        assert self.gap(one_sample("c", 0.7, 3)) == 0.0

    def test_antisymmetry(self):
        forward = self.gap(one_sample("a", 0.7, 2))
        backward = self.gap(one_sample("b", 0.7, 2))
        assert backward == -forward

    def test_both_matching_rejected(self):
        # a sample could match both hypotheses only if they named the same answer
        with pytest.raises(InvalidSampleError):
            RunningPosterior(fixed_k=2, labels=("a", "a"))


class TestCandidateSet:
    def test_observed_plus_virtual_counts_one_reserve(self):
        samples = [Sample("x", 0.5), Sample("y", 0.5)]
        posterior = score(samples, CandidateSet.from_samples(samples))
        expected = direct_product_masses([0, 1], [0.5, 0.5], 3)  # x, y and the reserve
        assert [*posterior.masses.values(), posterior.virtual_mass] == pytest.approx(
            expected, rel=1e-12
        )

    def test_first_seen_order_preserved(self):
        candidates = CandidateSet.from_samples(
            [Sample("b", 0.5), Sample("a", 0.5), Sample("b", 0.5)]
        )
        assert candidates.labels == ("b", "a")

    def test_fixed_k_must_cover_observed_labels(self):
        with pytest.raises(ConfigurationError):
            CandidateSet(("a", "b", "c"), fixed_k=2)

    def test_observed_virtual_needs_a_label(self):
        with pytest.raises(ConfigurationError, match="needs at least one observed label"):
            CandidateSet(labels=())

    def test_fixed_k_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CandidateSet(("a",), fixed_k=1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet(("a", "a"))
        with pytest.raises(InvalidSampleError):
            CandidateSet(("a", "a"))


def posterior_in_mode(mode, fixed_k=None):
    """A fresh posterior that folds its samples ("add") or, after
    ``stop_scoring``, counts them ("stop_scoring")."""
    running = RunningPosterior(fixed_k)
    if mode == "stop_scoring":
        running.stop_scoring()
    return running


class TestSampleValidation:
    @pytest.mark.parametrize("fold", ["add", "stop_scoring"])
    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_confidence_outside_open_interval_rejected(self, confidence, fold):
        with pytest.raises(InvalidSampleError):
            Sample("a", confidence)
        running = posterior_in_mode(fold)
        with pytest.raises(
            InvalidSampleError, match=r"^confidence must lie strictly inside \(0, 1\), got "
        ):
            running.add("a", confidence)
        assert running.n == 0 and running.counts == {}

    @pytest.mark.parametrize("fold", ["add", "stop_scoring"])
    @pytest.mark.parametrize(
        "label, confidence, message",
        [
            ("a", None, r"^confidence must be a real number, got None$"),
            ("a", "0.9", r"^confidence must be a real number, got '0\.9'$"),
            ("a", 0.5j, r"^confidence must be a real number, got 0\.5j$"),
            (["a"], 0.9, r"^label must be hashable, got \['a'\]$"),
            ({"a": 1}, 0.9, r"^label must be hashable, got \{'a': 1\}$"),
        ],
        ids=["none", "string", "complex", "list", "dict"],
    )
    def test_a_malformed_draw_is_refused_as_an_invalid_sample(self, fold, label, confidence, message):
        running = posterior_in_mode(fold)
        running.add("b", 0.6)
        with pytest.raises(InvalidSampleError, match=message):
            running.add(label, confidence)
        assert running.n == 1 and running.counts == {"b": 1}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RunningPosterior(labels=(["a"],)),
            lambda: CandidateSet((["a"],), fixed_k=2),
            lambda: score([Sample(["a"], 0.5)], CandidateSet(("a",), fixed_k=2)),
        ],
        ids=["named-label", "candidate-set", "batch-sample"],
    )
    def test_the_batch_path_refuses_an_unhashable_label_as_add_does(self, make):
        # each used to end in a bare TypeError: unhashable type: 'list'
        with pytest.raises(InvalidSampleError, match=r"^label must be hashable, got \['a'\]$"):
            make()

    @pytest.mark.parametrize("confidence", [None, "0.9"])
    def test_a_sample_refuses_a_confidence_that_is_no_number(self, confidence):
        with pytest.raises(InvalidSampleError, match="^confidence must be a real number, got "):
            Sample("a", confidence)

    @pytest.mark.parametrize("round_idx", [0, -1, "2", 1.5, 2.0, True, None])
    def test_a_round_that_is_not_an_integer_of_at_least_one_is_rejected(self, round_idx):
        # the record store's rule
        with pytest.raises(
            InvalidSampleError, match=f"^round must be an integer >= 1, got {re.escape(repr(round_idx))}$"
        ):
            Sample("a", 0.5, round_idx)
        assert Sample("a", 0.5, 2).round == 2

    def test_error_is_a_library_value_error(self):
        assert issubclass(InvalidSampleError, CGESError)
        assert issubclass(InvalidSampleError, ValueError)


class TestScoreExamples:
    def test_two_agreeing_confident_samples(self):
        samples = [Sample("a1", 0.9, 1), Sample("a1", 0.9, 2)]
        posterior = score(samples, CandidateSet(("a1", "a2"), fixed_k=2))
        assert posterior.masses["a1"] == pytest.approx(0.81 / 0.82, rel=1e-12)
        assert posterior.masses["a2"] == pytest.approx(0.01 / 0.82, rel=1e-12)

    def test_confident_minority_beats_majority(self):
        samples = [Sample("a1", 0.9, 1), Sample("a2", 0.2, 2), Sample("a2", 0.2, 3)]
        posterior = score(samples, CandidateSet(("a1", "a2", "a3"), fixed_k=3))
        expected = direct_product_masses([0, 1, 1], [0.9, 0.2, 0.2], 3)
        assert posterior.masses["a1"] == pytest.approx(expected[0], rel=1e-12)
        assert posterior.masses["a2"] == pytest.approx(expected[1], rel=1e-12)
        assert posterior.masses["a3"] == pytest.approx(expected[2], rel=1e-12)
        label, mass = posterior.top()
        assert label == "a1"
        assert mass == pytest.approx(0.144 / 0.154, rel=1e-12)

    def test_uniform_confidence_gives_uniform_posterior(self):
        samples = [Sample(lab, 0.25, t + 1) for t, lab in enumerate("abca")]
        posterior = score(samples, CandidateSet(tuple("abcd"), fixed_k=4))
        for mass in posterior.masses.values():
            assert mass == pytest.approx(0.25, rel=1e-12)

    def test_single_sample_posterior_equals_confidence(self):
        samples = [Sample("a1", 0.8)]
        posterior = score(samples, CandidateSet.from_samples(samples))
        assert posterior.masses["a1"] == pytest.approx(0.8, rel=1e-12)
        assert posterior.virtual_mass == pytest.approx(0.2, rel=1e-12)

    def test_fixed_k_with_unnamed_remainder(self):
        # one observed label, K=3: the two unnamed candidates share the miss score
        samples = [Sample("a", 0.5)]
        posterior = score(samples, CandidateSet(("a",), fixed_k=3))
        assert posterior.masses["a"] == pytest.approx(0.5, rel=1e-12)
        assert posterior.virtual_mass == pytest.approx(0.5, rel=1e-12)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(EmptySamplesError):
            score([], CandidateSet(("a",), fixed_k=2))

    def test_unknown_label_rejected_under_fixed_candidates(self):
        with pytest.raises(InvalidSampleError):
            score([Sample("z", 0.5)], CandidateSet(("a", "b"), fixed_k=2))


class TestTop:
    def test_tie_breaks_to_first_inserted(self):
        samples = [Sample("a1", 0.6, 1), Sample("a2", 0.6, 2)]
        posterior = score(samples, CandidateSet(("a1", "a2"), fixed_k=2))
        assert posterior.masses["a1"] == pytest.approx(posterior.masses["a2"], rel=1e-12)
        assert posterior.top()[0] == "a1"

    def test_virtual_candidate_never_predicted(self):
        samples = [Sample("a1", 0.4)]
        posterior = score(samples, CandidateSet.from_samples(samples))
        assert posterior.virtual_mass > posterior.masses["a1"]
        assert posterior.top() == ("a1", pytest.approx(0.4, rel=1e-12))

    def test_top_log_mass_matches_log_of_top_mass(self):
        samples = [Sample("a1", 0.9, 1), Sample("a2", 0.2, 2)]
        posterior = score(samples, CandidateSet.from_samples(samples))
        assert posterior.top_log_mass() == pytest.approx(
            math.log(posterior.top()[1]), abs=1e-12
        )

    def test_top_log_mass_stays_negative_when_linear_mass_saturates(self):
        # a full budget of near-certain samples rounds the top mass to exactly
        # 1.0 in linear space; the log margin still resolves the gap
        samples = [Sample("a1", 1.0 - 1e-6, t + 1) for t in range(16)]
        posterior = score(samples, CandidateSet.from_samples(samples))
        assert posterior.top()[1] == 1.0  # linear space saturates
        assert posterior.top_log_mass() < 0.0


def random_instance(rng, m, k):
    labels = [int(rng.integers(k)) for _ in range(m)]
    labels[0] = 0  # keep at least one label occupied for from_samples
    confidences = [float(c) for c in rng.uniform(0.02, 0.98, size=m)]
    return labels, confidences


class TestScoreProperties:
    def test_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            k = int(rng.integers(2, 6))
            labels, confidences = random_instance(rng, m, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            posterior = score(samples, CandidateSet(tuple(range(k)), fixed_k=k))
            total = sum(posterior.masses.values()) + posterior.virtual_mass
            assert abs(total - 1.0) < 1e-9

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(2, 5))
            labels, confidences = random_instance(rng, m, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            candidates = CandidateSet(tuple(range(k)), fixed_k=k)
            base = score(samples, candidates)
            order = rng.permutation(m)
            shuffled = [
                Sample(samples[i].label, samples[i].confidence, t + 1)
                for t, i in enumerate(order)
            ]
            other = score(shuffled, candidates)
            for label in candidates.labels:
                assert other.masses[label] == pytest.approx(base.masses[label], rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(2, 5))
            labels, confidences = random_instance(rng, m, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            base = score(samples, CandidateSet(tuple(range(k)), fixed_k=k))
            perm = list(rng.permutation(k))
            permuted_samples = [
                Sample(perm[s.label], s.confidence, s.round) for s in samples
            ]
            permuted_candidates = CandidateSet(tuple(perm[j] for j in range(k)), fixed_k=k)
            other = score(permuted_samples, permuted_candidates)
            for j in range(k):
                assert other.masses[perm[j]] == pytest.approx(base.masses[j], rel=1e-12)

    def test_appending_confident_sample_increases_its_mass(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            labels, confidences = random_instance(rng, m, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            candidates = CandidateSet(tuple(range(k)), fixed_k=k)
            base = score(samples, candidates)
            target = int(rng.integers(k))

            above = samples + [Sample(target, min(1.0 / k + 0.2, 0.95), m + 1)]
            assert score(above, candidates).masses[target] > base.masses[target]

            below = samples + [Sample(target, max(1.0 / k - 0.15, 0.02), m + 1)]
            assert score(below, candidates).masses[target] < base.masses[target]

    def test_appending_uninformative_sample_changes_nothing(self):
        rng = np.random.default_rng(19)
        for k in (2, 4, 5):
            labels, confidences = random_instance(rng, 6, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            candidates = CandidateSet(tuple(range(k)), fixed_k=k)
            base = score(samples, candidates)
            extended = samples + [Sample(0, 1.0 / k, 7)]
            other = score(extended, candidates)
            for label in candidates.labels:
                assert other.masses[label] == pytest.approx(base.masses[label], rel=1e-9)

    def test_boundary_clamped_confidences_stay_valid(self):
        # estimator clamping can pin every confidence to an interval edge
        eps = 1e-6
        samples = [Sample("a", eps, 1), Sample("b", 1.0 - eps, 2), Sample("a", eps, 3)]
        posterior = score(samples, CandidateSet(("a", "b"), fixed_k=2))
        total = sum(posterior.masses.values())
        assert abs(total - 1.0) < 1e-9
        assert all(mass >= 0.0 for mass in posterior.masses.values())

    def test_long_runs_survive_where_direct_products_underflow(self):
        # 400 low-confidence samples: the naive product is exactly 0.0 in
        # floats, the log-space masses remain finite and normalized
        samples = [Sample("a", 0.01, t + 1) for t in range(400)]
        direct = 0.01**400
        assert direct == 0.0
        posterior = score(samples, CandidateSet(("a", "b"), fixed_k=2))
        assert math.isfinite(log_scores(posterior)["a"])
        assert abs(sum(posterior.masses.values()) - 1.0) < 1e-9
        assert posterior.top()[0] == "b"  # 0.01 << 1/2 is evidence against "a"

    def test_matches_direct_product_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            labels, confidences = random_instance(rng, m, k)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            posterior = score(samples, CandidateSet(tuple(range(k)), fixed_k=k))
            expected = direct_product_masses(labels, confidences, k)
            for j in range(k):
                assert posterior.masses[j] == pytest.approx(expected[j], rel=1e-10)


def log_likelihood(confidence, matches, k):
    """One sample's log-likelihood under one hypothesis: log C on a match,
    log((1 - C) / (K - 1)) otherwise."""
    return math.log(confidence) if matches else math.log1p(-confidence) - math.log(k - 1)


def naive_log_scores(stream, named, k):
    """Per-hypothesis log products built from ``log_likelihood``, no running sums.

    Returns the named labels' scores and the scores of the k - len(named)
    unnamed hypotheses, which no sample matches.
    """
    named_scores = {
        h: math.fsum(log_likelihood(c, label == h, k) for label, c in stream) for h in named
    }
    unnamed = [math.fsum(log_likelihood(c, False, k) for _, c in stream)] * (k - len(named))
    return named_scores, unnamed


def naive_posterior(stream, named, k):
    """(masses of the named labels, unnamed mass, top label, log top mass)."""
    named_scores, unnamed = naive_log_scores(stream, named, k)
    entries = list(named_scores.values()) + unnamed
    shift = max(entries)
    z = math.fsum(math.exp(v - shift) for v in entries)
    masses = {h: math.exp(v - shift) / z for h, v in named_scores.items()}
    virtual = math.fsum(math.exp(v - shift) for v in unnamed) / z
    best = max(named_scores, key=named_scores.__getitem__)
    top_log = named_scores[best]
    others = [v for h, v in named_scores.items() if h != best] + unnamed
    tail = math.fsum(math.exp(v - top_log) for v in others)
    return masses, virtual, best, -math.log1p(tail)


def assert_close(got, want, rel=1e-12):
    assert got == pytest.approx(want, rel=rel, abs=1e-300), (got, want)


class TestRunningPosterior:
    def check_against_naive(self, running, stream, named, k):
        masses, virtual, best, top_log = naive_posterior(stream, named, k)
        posterior = running
        assert posterior.labels == tuple(named)
        for label in named:
            assert_close(posterior.masses[label], masses[label])
        assert_close(posterior.virtual_mass, virtual)
        running.top_log_mass()
        assert running.top_label == best == posterior.top()[0]
        assert_close(running.top_log_mass(), top_log)
        assert running.top_log_mass() == posterior.top_log_mass()

    def test_matches_naive_product_as_k_grows(self):
        # observed+virtual: K = distinct labels + 1 grows as new labels arrive
        rng = np.random.default_rng(29)
        for _ in range(200):
            n_labels = int(rng.integers(1, 6))
            running = RunningPosterior()
            stream, named = [], []
            for _ in range(int(rng.integers(1, 25))):
                label = f"a{int(rng.integers(n_labels))}"
                confidence = float(rng.uniform(0.01, 0.99))
                running.add(label, confidence)
                stream.append((label, confidence))
                if label not in named:
                    named.append(label)
                self.check_against_naive(running, stream, named, len(named) + 1)

    def test_matches_naive_product_under_fixed_k_with_unseen_labels(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            # draw from fewer labels than K so some candidates are never seen
            n_drawn = int(rng.integers(1, k + 1))
            running = RunningPosterior(fixed_k=k)
            stream, named = [], []
            for _ in range(int(rng.integers(1, 25))):
                label = int(rng.integers(n_drawn))
                confidence = float(rng.uniform(0.01, 0.99))
                running.add(label, confidence)
                stream.append((label, confidence))
                if label not in named:
                    named.append(label)
                self.check_against_naive(running, stream, named, k)

    def test_named_but_unseen_labels_score_as_all_mismatch(self):
        running = RunningPosterior(fixed_k=4, labels=("x", "y"))
        running.add("y", 0.7)
        running.add("z", 0.6)
        self.check_against_naive(running, [("y", 0.7), ("z", 0.6)], ["x", "y", "z"], 4)
        assert running.counts == {"x": 0, "y": 1, "z": 1}

    def test_earliest_label_wins_exact_ties(self):
        for fixed_k in (None, 2, 5):
            running = RunningPosterior(fixed_k=fixed_k)
            for label, confidence in [("b", 0.6), ("a", 0.6), ("b", 0.8), ("a", 0.8)]:
                running.add(label, confidence)
            scores = log_scores(running)
            assert scores["a"] == scores["b"]
            running.top_log_mass()
            assert running.top_label == "b"
            assert running.top()[0] == "b"

    def test_counts_is_a_snapshot(self):
        running = RunningPosterior(fixed_k=3)
        running.add("a", 0.7)
        running.add("b", 0.6)
        scores = log_scores(running)
        counts = running.counts
        counts["a"] = 5
        counts["c"] = 1
        del counts["b"]
        assert running.counts == {"a": 1, "b": 1}
        assert running.labels == ("a", "b")
        assert log_scores(running) == scores

    @pytest.mark.parametrize("fold", ["add", "stop_scoring"])
    def test_fixed_k_overflow_rejected(self, fold):
        running = posterior_in_mode(fold, fixed_k=2)
        running.add("a", 0.5)
        running.add("b", 0.5)
        with pytest.raises(
            ConfigurationError,
            match="^fixed candidate count 2 is smaller than the 3 distinct labels observed$",
        ):
            running.add("c", 0.5)
        assert running.counts == {"a": 1, "b": 1}

    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_after_stop_scoring_a_posterior_counts_but_refuses_every_score_read(self, fixed_k):
        stream = [("b", 0.6), ("a", 0.9), ("b", 0.3), ("c", 0.7)]
        added, stopped = RunningPosterior(fixed_k), RunningPosterior(fixed_k)
        for i, (label, confidence) in enumerate(stream):
            added.add(label, confidence)
            if i == 2:  # the controller's order: score while a threshold is open, then count
                stopped.stop_scoring()
            stopped.add(label, confidence)
        assert list(stopped.counts.items()) == list(added.counts.items())
        assert stopped.labels == added.labels == ("b", "a", "c")
        assert stopped.n == added.n == 4
        for read in ("top_log_mass", "top_label", "top", "masses", "virtual_mass"):
            with pytest.raises(ConfigurationError, match=STOPPED):
                value = getattr(stopped, read)  # a property raises here
                value()  # a method here
            value = getattr(added, read)  # the twin that folded every sample still reads
            if callable(value):
                value()
        with pytest.raises(ConfigurationError, match=STOPPED):
            stopped.screen(math.log(0.9))  # the screen is a score read too
        added.screen(math.log(0.9))

    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_stop_scoring_is_one_way(self, fixed_k):
        running = RunningPosterior(fixed_k)
        running.add("a", 0.9)
        running.top_log_mass()  # a read that leaves a floor
        running.stop_scoring()
        for _ in range(2):
            running.stop_scoring()  # again: still stopped
            with pytest.raises(ConfigurationError, match=STOPPED):
                running.top_log_mass()  # a refused read restarts nothing
            with pytest.raises(ConfigurationError, match=STOPPED):
                running.screen(math.log(0.5))
            running.add("b", 0.6)  # a new label drops no floor back in
            running.add("a", 0.9)
        assert running.counts == {"a": 3, "b": 2} and running.n == 5
        with pytest.raises(ConfigurationError, match=STOPPED):
            running.masses

    def test_score_is_the_batch_form(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            labels, confidences = random_instance(rng, int(rng.integers(1, 12)), 4)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            running = RunningPosterior()
            for sample in samples:
                running.add(sample.label, sample.confidence)
            batch = score(samples, CandidateSet.from_samples(samples))
            # the same statistics, labels in the same first-seen order
            assert list(batch.counts.items()) == list(running.counts.items())
            assert list(log_scores(batch).items()) == list(log_scores(running).items())
            assert batch.sum_log_miss == running.sum_log_miss

    def test_posterior_needs_a_sample(self):
        with pytest.raises(EmptySamplesError):
            RunningPosterior().masses
        with pytest.raises(EmptySamplesError):
            RunningPosterior(fixed_k=3, labels=("x",)).top()

    @pytest.mark.parametrize(
        "read",
        [
            "top_log_mass", "top", "masses", "virtual_mass",
        ],
    )
    def test_every_read_of_an_empty_posterior_needs_a_sample(self, read):
        # K = 1 under observed+virtual: a read used to fail on log(K - 1)
        with pytest.raises(EmptySamplesError, match="^a posterior needs at least one sample$"):
            value = getattr(RunningPosterior(), read)  # a property raises here
            value()  # a method here

    def test_empty_posteriors_with_k_of_two_or_more_read_as_before(self):
        # named labels, or a fixed K, give K >= 2 before any sample
        assert log_scores(RunningPosterior(labels=("x",))) == {"x": 0.0}
        named = RunningPosterior(labels=("x",))
        assert named.top_log_mass() == -math.log(2) and named.top_label == "x"
        assert log_scores(RunningPosterior(fixed_k=3)) == {}
        assert RunningPosterior(fixed_k=3)._scores()[1] == math.log(3)
        with pytest.raises(EmptySamplesError, match="no real candidates"):
            RunningPosterior(fixed_k=3).top_log_mass()

    def test_simulator_log_scores_share_the_formula(self):
        # the simulator feeds ``log_score`` the running sums, taken by ``np.bincount``
        # over numpy's logs: equal to the running posterior's up to rounding
        rng = np.random.default_rng(41)
        for trial in range(40):
            k = int(rng.integers(2, 6))
            if trial % 2:
                config = IdealGenConfig(k=k, confidence_law=Uniform(0.05, 0.95))
            else:
                config = RealisticGenConfig(
                    k=k,
                    answer_law=PointSimplex((1.0 / k,) * k),
                    confidence_noise=Uniform(0.05, 0.95),
                )
            _, responses, confidences = draw_trials(config, int(rng.integers(1, 200)), 1, rng)
            running = RunningPosterior(fixed_k=k, labels=range(k))
            for label, confidence in zip(responses[0].tolist(), confidences[0].tolist()):
                running.add(label, confidence)
            scores = log_scores(running)
            final = genmodel._log_scores(responses, confidences, k)[:, 0]
            for j in range(k):
                assert_close(scores[j], float(final[j]))


def knife_edge_streams():
    """(stream, fixed K) cases for the screen: seeded random streams, streams
    whose top mass nears 1 or reaches it, and a competitor close to the top
    that then draws a confidence of 1e-12, so that its old ratio is nearly all
    the floor; and a competitor that overtakes the top by one hair, on an
    exact tie, and under the fixed K alone."""
    rng = np.random.default_rng(41)
    for fixed_k in (None, 8):
        for _ in range(6):
            lean = rng.uniform(0.4, 0.9)
            yield [
                ("a" if rng.uniform() < lean else str(rng.choice(list("bcd"))),
                 float(rng.choice([rng.uniform(0.05, 0.95), 1e-12, 1 - 1e-12], p=[0.8, 0.1, 0.1])))
                for _ in range(60)
            ], fixed_k
        for confidence in (0.99, 0.999, 1 - 1e-6):
            yield [("a", confidence)] * 3 + [("b", 0.5), ("a", confidence)] * 3, fixed_k
        # a top mass of exactly 1 once the read's terms underflow to 0 (gamma = 1 closes)
        yield [(str(j), 0.5) for j in range(6)] + [("a", 0.9999)] * 80, fixed_k
        for repeats in range(3, 9):
            for hit in (0.8, 0.9, 0.95):
                yield [("a", hit)] * 3 + [("b", hit), ("a", hit)] * repeats + [("b", 1e-12)], fixed_k
        for stream in overtake_streams():
            yield stream, fixed_k


class TestScreen:
    """``screen`` proves a top log mass below a threshold, or reaching it,
    without reading it, and never against what the next exact read finds."""

    @pytest.mark.parametrize("read_every", [1, 3, 7])
    def test_a_top_the_next_read_reaches_is_never_screened_out(self, read_every):
        for stream, fixed_k in knife_edge_streams():
            screened, exact = RunningPosterior(fixed_k), RunningPosterior(fixed_k)
            proved = 0
            for t, (label, confidence) in enumerate(stream, 1):
                screened.add(label, confidence)
                exact.add(label, confidence)
                top = exact.top_log_mass()
                # log gamma at the read's top log mass, and the log of gamma = exp(top)
                for log_gamma in (top, math.log(math.exp(top))):
                    if log_gamma <= top:  # the read reaches gamma: a close
                        assert screened.screen(log_gamma) is not False, (stream, fixed_k, t)
                proved += screened.screen(top * (1 - 1e-6)) is False  # just out of reach
                if t % read_every == 0:
                    screened.top_log_mass()
            assert proved, (stream, fixed_k)  # the floor is tight, not just 0

    @pytest.mark.parametrize("read_every", [1, 3, 7])
    def test_every_proof_agrees_with_the_exact_read(self, read_every):
        # False proves the read below log gamma; True proves that it reaches log
        # gamma, on the label the read finds; add returns screen at the watched gamma
        gammas = (0.3, 0.5, 2 / 3, 0.9, 1 - 1e-12, 1.0)
        # 1e-300 draws: the unnamed candidates outweigh the top past the float range
        overflow = [("a", 1e-300)] * 2 + [("b", 0.9), ("a", 1e-300)] + [("b", 0.9)] * 4
        cases = [*knife_edge_streams(), *((overflow, fixed_k) for fixed_k in (None, 4, 10**6))]
        proofs = Counter()
        for stream, fixed_k in cases:
            screened, exact = RunningPosterior(fixed_k), RunningPosterior(fixed_k)
            for t, (label, confidence) in enumerate(stream, 1):
                watched = math.log(gammas[t % len(gammas)])
                screened.watch(watched)
                verdict = screened.add(label, confidence)
                assert verdict is screened.screen(watched), (stream, fixed_k, t)
                exact.add(label, confidence)
                top = exact.top_log_mass()
                # log gamma at the read's top log mass, one ulp and a hair either side, and
                # the log of gamma = exp(top) unless that underflows to 0
                near = [top, math.nextafter(top, -math.inf), math.nextafter(top, 0.0)]
                near += [top * (1 - 1e-6), top * (1 + 1e-6)]
                if math.exp(top):
                    near.append(math.log(math.exp(top)))
                for log_gamma in [*map(math.log, gammas), *near]:
                    verdict = screened.screen(log_gamma)
                    if verdict is False:
                        assert top < log_gamma, (stream, fixed_k, t, log_gamma)
                    elif verdict:
                        assert top >= log_gamma, (stream, fixed_k, t, log_gamma)
                        assert screened.top_label == exact.top_label, (stream, fixed_k, t)
                    proofs[verdict] += 1
                if t % read_every == 0:
                    screened.top_log_mass()
        assert proofs[True] and proofs[False]

    @pytest.mark.parametrize("fixed_k", [None, 2, 3, 8])
    @pytest.mark.parametrize("confidence", [1e-12, 0.1, 0.5, 0.9, 1 - 1e-12])
    def test_one_draw_proves_only_what_its_read_would(self, fixed_k, confidence):
        # a one-label posterior's tail is known exactly, before any read
        running, exact = RunningPosterior(fixed_k), RunningPosterior(fixed_k)
        running.add("a", confidence)
        exact.add("a", confidence)
        top = exact.top_log_mass()
        log_gammas = [top, math.log(math.exp(top)), top * (1 + 1e-6), top * (1 - 1e-6), top / 2]
        log_gammas += [math.log(gamma) for gamma in (1e-13, 0.05, 0.5, 0.95, 1 - 1e-13, 1.0)]
        proved = [log_gamma for log_gamma in log_gammas if running.screen(log_gamma) is False]
        assert all(top < log_gamma for log_gamma in proved)
        assert top * (1 - 1e-6) in proved

    @pytest.mark.parametrize("fixed_k", [None, 3, 8, 10**6])
    def test_a_top_drawn_past_the_float_range_drops_the_bounds(self, fixed_k):
        # e^(-gap) of the top's loss overflows: add drops the bounds and proves
        # nothing, and the next read is the exact one
        for stream in overflow_streams():
            running, exact = RunningPosterior(fixed_k), RunningPosterior(fixed_k)
            running.watch(math.log(0.9))
            for t, (label, confidence) in enumerate(stream):
                exact.add(label, confidence)
                top = exact.top_log_mass()  # the reference reads every round
                if confidence == 5e-324:
                    assert running.screen(math.log(0.5)) is not None  # the bounds are carried
                    assert running.top_label == label
                    assert running.add(label, confidence) is None
                    assert all(
                        running.screen(math.log(gamma)) is None for gamma in (1e-300, 0.5, 0.9, 1.0)
                    )
                    assert running.top_log_mass() == top
                    assert running.top_label == exact.top_label
                    break
                running.add(label, confidence)
                if t:  # the read a new label forces in ``run_many``
                    running.top_log_mass()
            else:
                raise AssertionError("no draw at 5e-324")

    def test_a_fresh_or_unread_posterior_proves_nothing(self):
        running = RunningPosterior()
        assert running.screen(math.log(1e-300)) is not False  # no draw yet
        running.add("a", 0.1)
        assert running.screen(math.log(0.99)) is False
        running.add("b", 0.6)  # a new label moves K
        assert running.screen(math.log(0.99)) is not False
        assert running.top_log_mass() < math.log(0.99)
        assert running.screen(math.log(0.99)) is False
        # a named candidate of no sample may outweigh the drawn one: nothing is known before a read
        for fixed_k in (None, 8):
            named = RunningPosterior(fixed_k, labels=("a", "b"))
            named.add("a", 0.1)
            assert named.screen(math.log(0.99)) is not False
            assert named.top_log_mass() < math.log(0.99)
            assert named.screen(math.log(0.99)) is False


def dict_top_log_mass(running):
    """The top log mass read off the scores as a dict: argmax by key lookup,
    then ``fsum`` over a generator of the other masses, then the reserve."""
    scores = log_scores(running)
    best = max(scores, key=scores.__getitem__)
    top_log = scores[best]
    tail = math.fsum(math.exp(v - top_log) for label, v in scores.items() if label != best)
    reserve_log = running._scores()[1]
    if reserve_log is not None:
        tail += math.exp(reserve_log - top_log)
    return -math.log1p(tail)


# a few repeated confidences, so that exact ties between labels are common
confidences = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None)
@given(
    stream=st.lists(st.tuples(st.sampled_from("abcde"), confidences), min_size=1, max_size=30),
    fixed_k=st.sampled_from([None, 3, 5]),
)
@example(stream=[("b", 0.5), ("a", 0.5)], fixed_k=None)
@example(stream=[("b", 0.5), ("a", 0.5), ("c", 0.5)], fixed_k=3)
def test_kernel_reads_are_bit_identical_to_the_dict_reading(stream, fixed_k):
    running = RunningPosterior(fixed_k=fixed_k)
    for label, confidence in stream:
        if fixed_k is not None and label not in running.counts and len(running.counts) == fixed_k:
            continue  # a label past K is refused; tested elsewhere
        running.add(label, confidence)
        assert running.top_log_mass() == dict_top_log_mass(running)
        scores = log_scores(running)
        # the first label holding the maximal score: ties go to the earliest
        assert running.top_label == max(
            scores, key=scores.__getitem__
        )


def test_kernel_imports_load_neither_numpy_nor_requests():
    # a fresh interpreter: modules the test process imported already must not count
    src = str(Path(cges.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, cges, cges.posterior, cges.controller; "
        "print(sorted({'numpy', 'requests', 'http.client'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# confidences near 0 and 1 as well as in between; with a large fixed K and
# small confidences the unnamed candidates outweigh the top, up past the float range
extreme_confidences = st.one_of(
    st.sampled_from([1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 2**-53]),
    st.floats(1e-300, 1 - 2**-53),
)


@settings(max_examples=300, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.sampled_from("abcd"), extreme_confidences), min_size=1, max_size=30
    ),
    fixed_k=st.sampled_from([None, 4, 5, 10**6]),
)
@example(stream=[("a", 1e-300)] * 2, fixed_k=None)  # the unnamed mass past the float range
@example(stream=[("a", 1e-300)] * 2, fixed_k=10**6)
@example(stream=[("a", 1 - 1e-12)] * 20, fixed_k=4)  # a top mass that rounds to 1.0
def test_every_mass_is_read_off_the_top_log_mass(stream, fixed_k):
    running = RunningPosterior(fixed_k=fixed_k)
    for label, confidence in stream:
        running.add(label, confidence)
        log_mass = running.top_log_mass()
        read_top = running.top_label
        label_top, mass = running.top()
        # bit for bit: the reported mass is the one a stopping rule compares
        assert label_top == read_top
        assert mass == math.exp(log_mass) == math.exp(running.top_log_mass())
        assert running.masses[label_top] == mass
        assert all(0.0 <= m <= 1.0 for m in running.masses.values())
        assert 0.0 <= running.virtual_mass <= 1.0 + 1e-12  # a sum of rounded logs
