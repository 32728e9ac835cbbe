"""Unit and property tests for the log-space answer-posterior kernel."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cges
from cges import genmodel
from cges.errors import (
    CandidateCountError,
    CGESError,
    EmptySamplesError,
    InvalidSampleError,
    UnknownLabelError,
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
        scores = running.log_scores()
        assert scores["a"] == pytest.approx(math.log(0.5), rel=1e-15)
        assert scores["a"] == pytest.approx(scores["b"], rel=1e-15)

    def test_mismatch_shares_residual_uniformly(self):
        running = one_sample("a", 0.9, 3)
        residual = math.log((1.0 - 0.9) / (3 - 1))
        assert running.log_scores()["b"] == pytest.approx(residual, rel=1e-12)
        assert running.reserve_log_score() == pytest.approx(residual, rel=1e-12)

    def test_match_returns_log_confidence(self):
        running = one_sample("a", 0.9, 3)
        assert running.log_scores()["a"] == pytest.approx(math.log(0.9), rel=1e-15)

    def test_rejects_degenerate_candidate_count(self):
        with pytest.raises(CandidateCountError):
            RunningPosterior(fixed_k=1)

    @pytest.mark.parametrize("fixed_k", [2.5, 3.0, True, "3"])
    def test_rejects_a_candidate_count_that_is_not_an_int(self, fixed_k):
        with pytest.raises(CandidateCountError, match="must be an int"):
            RunningPosterior(fixed_k=fixed_k)


class TestLlrIncrement:
    """One sample's log-likelihood ratio between two named hypotheses, read as
    the change it makes to their log-score difference."""

    @staticmethod
    def gap(running):
        scores = running.log_scores()
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
        assert score(samples, CandidateSet.from_samples(samples)).effective_k == 3

    def test_first_seen_order_preserved(self):
        candidates = CandidateSet.from_samples(
            [Sample("b", 0.5), Sample("a", 0.5), Sample("b", 0.5)]
        )
        assert candidates.labels == ("b", "a")

    def test_fixed_k_must_cover_observed_labels(self):
        with pytest.raises(CandidateCountError):
            CandidateSet(("a", "b", "c"), fixed_k=2)

    def test_fixed_k_below_two_rejected(self):
        with pytest.raises(CandidateCountError):
            CandidateSet(("a",), fixed_k=1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet(("a", "a"))
        with pytest.raises(InvalidSampleError):
            CandidateSet(("a", "a"))


class TestSampleValidation:
    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_confidence_outside_open_interval_rejected(self, confidence):
        with pytest.raises(InvalidSampleError):
            Sample("a", confidence)
        with pytest.raises(InvalidSampleError):
            RunningPosterior().add("a", confidence)

    def test_round_below_one_rejected(self):
        with pytest.raises(InvalidSampleError):
            Sample("a", 0.5, 0)

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
        with pytest.raises(UnknownLabelError):
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
        assert math.isfinite(posterior.log_scores()["a"])
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
        assert running.labels[running.top_index_and_log_mass()[0]] == best == posterior.top()[0]
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
                assert running.effective_k == len(named) + 1
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
                assert running.effective_k == k
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
            scores = running.log_scores()
            assert scores["a"] == scores["b"]
            assert running.labels[running.top_index_and_log_mass()[0]] == "b"
            assert running.top()[0] == "b"

    def test_copy_keeps_its_own_records(self):
        original = RunningPosterior()
        for label, confidence in [("a", 0.7), ("b", 0.6), ("a", 0.8)]:
            original.add(label, confidence)
        twin = original.copy()
        assert twin == original
        before = (original.counts, original.log_scores(), original.top_log_mass())
        twin.add("a", 0.9)
        twin.add("c", 0.5)
        assert (original.counts, original.log_scores(), original.top_log_mass()) == before
        after = (twin.counts, twin.log_scores(), twin.top_log_mass())
        original.add("b", 0.9)
        assert (twin.counts, twin.log_scores(), twin.top_log_mass()) == after
        assert twin.counts == {"a": 3, "b": 1, "c": 1}
        assert original.counts == {"a": 2, "b": 2}

    def test_counts_is_a_snapshot(self):
        running = RunningPosterior(fixed_k=3)
        running.add("a", 0.7)
        running.add("b", 0.6)
        scores = running.log_scores()
        counts = running.counts
        counts["a"] = 5
        counts["c"] = 1
        del counts["b"]
        assert running.counts == {"a": 1, "b": 1}
        assert running.labels == ("a", "b")
        assert running.log_scores() == scores

    def test_fixed_k_overflow_rejected(self):
        running = RunningPosterior(fixed_k=2)
        running.add("a", 0.5)
        running.add("b", 0.5)
        with pytest.raises(CandidateCountError):
            running.add("c", 0.5)

    def test_score_is_the_batch_form(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            labels, confidences = random_instance(rng, int(rng.integers(1, 12)), 4)
            samples = [Sample(lab, c, t + 1) for t, (lab, c) in enumerate(zip(labels, confidences))]
            running = RunningPosterior()
            for sample in samples:
                running.add(sample.label, sample.confidence)
            assert running == score(samples, CandidateSet.from_samples(samples))

    def test_posterior_needs_a_sample(self):
        with pytest.raises(EmptySamplesError):
            RunningPosterior().masses
        with pytest.raises(EmptySamplesError):
            RunningPosterior(fixed_k=3, labels=("x",)).top()

    def test_simulator_log_scores_share_the_formula(self):
        # the simulator's numpy sum over rounds and the running sums score alike under fixed K
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
            scores = running.log_scores()
            final = genmodel._round_terms(responses.T, confidences.T, k).sum(axis=0)[0]
            for j in range(k):
                assert_close(scores[j], float(final[j]))


def dict_top_log_mass(running):
    """The top log mass read off ``log_scores`` as a dict: argmax by key lookup,
    then ``fsum`` over a generator of the other masses, then the reserve."""
    scores = running.log_scores()
    best = max(scores, key=scores.__getitem__)
    top_log = scores[best]
    tail = math.fsum(math.exp(v - top_log) for label, v in scores.items() if label != best)
    reserve_log = running.reserve_log_score()
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
        scores = running.log_scores()
        # the first label holding the maximal score: ties go to the earliest
        assert running.labels[running.top_index_and_log_mass()[0]] == max(
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
