"""Tests for the adaptive controller and the fixed-budget baselines."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from cges.controller import ControllerConfig, Method, run, run_many
from cges.errors import ConfigurationError, SamplerError
from cges.posterior import CandidateSet, Sample, score


def stream_sampler(streams):
    """Sampler serving per-question lists of (label, confidence) by round."""

    def sample(question_id, round_idx):
        return streams[question_id][round_idx - 1]

    return sample


def constant_sampler(label, confidence):
    def sample(question_id, round_idx):
        return label, confidence

    return sample


def random_streams(rng, n_questions, budget, n_labels=4, prefix="q"):
    streams = {}
    for i in range(n_questions):
        streams[f"{prefix}{i}"] = [
            (f"ans{int(rng.integers(n_labels))}", float(rng.uniform(0.05, 0.95)))
            for _ in range(budget)
        ]
    return streams


class TestCgesRun:
    def test_confident_answer_stops_after_one_call(self):
        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=16)
        result = run(["q0"], constant_sampler("a1", 0.99), config)
        assert result.per_question_calls["q0"] == 1
        assert result.predictions["q0"] == "a1"
        assert result.avg_calls == 1.0
        assert result.unresolved == ()

    def test_gamma_one_exhausts_the_budget(self):
        config = ControllerConfig(method=Method.CGES, gamma=1.0, budget=5)
        result = run(["q0"], constant_sampler("a1", 0.99), config)
        assert result.per_question_calls["q0"] == 5
        assert result.unresolved == ("q0",)

    def test_gamma_one_prediction_equals_full_budget_argmax(self):
        rng = np.random.default_rng(42)
        budget = 8
        streams = random_streams(rng, 20, budget)
        config = ControllerConfig(method=Method.CGES, gamma=1.0, budget=budget)
        result = run(list(streams), stream_sampler(streams), config)
        for qid, stream in streams.items():
            samples = [
                Sample(label, confidence, t + 1)
                for t, (label, confidence) in enumerate(stream)
            ]
            full = score(samples, CandidateSet.from_samples(samples))
            assert result.predictions[qid] == full.top()[0]
            assert result.per_question_calls[qid] == budget

    def test_mixed_resolution_average(self):
        budget = 6
        streams = {
            "fast": [("a", 0.99)] * budget,
            "slow": [(f"b{t}", 0.3) for t in range(budget)],  # never concentrates
        }
        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=budget)
        result = run(list(streams), stream_sampler(streams), config)
        assert result.per_question_calls == {"fast": 1, "slow": budget}
        assert result.avg_calls == (1 + budget) / 2
        assert result.unresolved == ("slow",)

    def test_calls_non_decreasing_in_gamma(self):
        rng = np.random.default_rng(7)
        budget = 16
        streams = random_streams(rng, 30, budget)
        sampler = stream_sampler(streams)
        previous = None
        for gamma in (0.7, 0.8, 0.9, 0.99, 0.999, 1.0):
            config = ControllerConfig(method=Method.CGES, gamma=gamma, budget=budget)
            result = run(list(streams), sampler, config)
            calls = [result.per_question_calls[qid] for qid in streams]
            assert all(1 <= c <= budget for c in calls)
            if previous is not None:
                assert all(now >= before for now, before in zip(calls, previous))
            previous = calls

    def test_batch_independence(self):
        rng = np.random.default_rng(11)
        streams = random_streams(rng, 6, 8)
        sampler = stream_sampler(streams)
        config = ControllerConfig(method=Method.CGES, gamma=0.85, budget=8)
        together = run(list(streams), sampler, config)
        for qid in streams:
            alone = run([qid], sampler, config)
            assert alone.predictions[qid] == together.predictions[qid]
            assert alone.per_question_calls[qid] == together.per_question_calls[qid]

    def test_deterministic_and_parallel_invariant(self):
        rng = np.random.default_rng(13)
        streams = random_streams(rng, 12, 10)
        sampler = stream_sampler(streams)
        serial = ControllerConfig(method=Method.CGES, gamma=0.9, budget=10)
        threaded = ControllerConfig(
            method=Method.CGES, gamma=0.9, budget=10, max_parallel=4
        )
        first = run(list(streams), sampler, serial)
        second = run(list(streams), sampler, serial)
        third = run(list(streams), sampler, threaded)
        assert first == second == third

    def test_one_pool_serves_every_round(self):
        # a ThreadPoolExecutor names its threads "ThreadPoolExecutor-<pool>_<worker>"
        pools = set()

        def sampler(question_id, round_idx):
            pools.add(threading.current_thread().name.rsplit("_", 1)[0])
            return "a", 0.5

        config = ControllerConfig(method=Method.SC, budget=5, max_parallel=2)
        run(["q0", "q1", "q2"], sampler, config)
        assert len(pools) == 1 and pools.pop().startswith("ThreadPoolExecutor-")

    def test_fixed_k_policy_reaches_threshold_faster(self):
        # under fixed K the reserve mass shrinks with K, not with observations
        stream = {"q": [("a", 0.8), ("a", 0.8), ("a", 0.8), ("a", 0.8)]}
        fixed = ControllerConfig(method=Method.CGES, gamma=0.97, budget=4, fixed_k=2)
        open_ended = ControllerConfig(method=Method.CGES, gamma=0.97, budget=4)
        fixed_calls = run(["q"], stream_sampler(stream), fixed).per_question_calls["q"]
        open_calls = run(["q"], stream_sampler(stream), open_ended).per_question_calls["q"]
        assert fixed_calls <= open_calls


class TestScRun:
    def test_strict_majority(self):
        streams = {"q": [("a1", 0.5), ("a2", 0.5), ("a2", 0.5), ("a1", 0.5), ("a2", 0.5)]}
        result = run(["q"], stream_sampler(streams), ControllerConfig(method=Method.SC, budget=5))
        assert result.predictions["q"] == "a2"
        assert result.per_question_calls["q"] == 5

    def test_tie_breaks_to_first_seen(self):
        streams = {"q": [("a1", 0.5), ("a2", 0.5)]}
        result = run(["q"], stream_sampler(streams), ControllerConfig(method=Method.SC, budget=2))
        assert result.predictions["q"] == "a1"

    def test_confidences_are_ignored(self):
        # identical labels with wildly different confidences: same prediction
        low = {"q": [("a", 0.1), ("b", 0.1), ("a", 0.1)]}
        high = {"q": [("a", 0.9), ("b", 0.9), ("a", 0.9)]}
        assert (
            run(["q"], stream_sampler(low), ControllerConfig(method=Method.SC, budget=3))
            .predictions
            == run(["q"], stream_sampler(high), ControllerConfig(method=Method.SC, budget=3))
            .predictions
        )

    def test_uses_exactly_the_budget(self):
        rng = np.random.default_rng(3)
        streams = random_streams(rng, 10, 7)
        result = run(
            list(streams), stream_sampler(streams), ControllerConfig(method=Method.SC, budget=7)
        )
        assert all(calls == 7 for calls in result.per_question_calls.values())

    def test_minority_confident_fixture_votes_wrong(self):
        streams = {"q": [("a1", 0.9), ("a2", 0.2), ("a2", 0.2)]}
        sc = run(["q"], stream_sampler(streams), ControllerConfig(method=Method.SC, budget=3))
        assert sc.predictions["q"] == "a2"
        config = ControllerConfig(method=Method.CGES, gamma=1.0, budget=3)
        bayes = run(["q"], stream_sampler(streams), config)
        assert bayes.predictions["q"] == "a1"


class TestEscRun:
    def test_first_window_agreement_stops(self):
        streams = {"q": [("a", 0.5)] * 4}
        result = run(
            ["q"],
            stream_sampler(streams),
            ControllerConfig(method=Method.ESC, esc_window=4, budget=16),
        )
        assert result.per_question_calls["q"] == 4
        assert result.predictions["q"] == "a"

    def test_second_window_agreement(self):
        labels = ["a", "b", "a", "a", "a", "a", "a", "a"]
        streams = {"q": [(lab, 0.5) for lab in labels] + [("a", 0.5)] * 8}
        result = run(
            ["q"],
            stream_sampler(streams),
            ControllerConfig(method=Method.ESC, esc_window=4, budget=16),
        )
        assert result.per_question_calls["q"] == 8

    def test_never_agreeing_stream_exhausts_budget(self):
        streams = {"q": [(f"a{t}", 0.5) for t in range(16)]}
        result = run(
            ["q"],
            stream_sampler(streams),
            ControllerConfig(method=Method.ESC, esc_window=4, budget=16),
        )
        assert result.per_question_calls["q"] == 16

    def test_trailing_partial_window_cannot_stop(self):
        # rounds 5..6 agree but never form a full window of 4
        labels = ["a", "b", "c", "d", "e", "e"]
        streams = {"q": [(lab, 0.5) for lab in labels]}
        result = run(
            ["q"],
            stream_sampler(streams),
            ControllerConfig(method=Method.ESC, esc_window=4, budget=6),
        )
        assert result.per_question_calls["q"] == 6

    def test_window_must_fit_budget(self):
        with pytest.raises(ConfigurationError):
            run(
                ["q"],
                constant_sampler("a", 0.5),
                ControllerConfig(method=Method.ESC, esc_window=8, budget=4),
            )


class TestRunDispatch:
    def test_dispatches_by_method(self):
        streams = {"q": [("a", 0.99)] * 4}
        sampler = stream_sampler(streams)
        cges = run(["q"], sampler, ControllerConfig(method=Method.CGES, gamma=0.9, budget=4))
        sc = run(["q"], sampler, ControllerConfig(method=Method.SC, budget=4))
        esc = run(["q"], sampler, ControllerConfig(method=Method.ESC, budget=4, esc_window=2))
        assert cges.per_question_calls["q"] == 1
        assert sc.per_question_calls["q"] == 4
        assert esc.per_question_calls["q"] == 2

    def test_results_compare_by_their_posteriors(self):
        rng = np.random.default_rng(17)
        streams = random_streams(rng, 5, 6)
        # one first-round confidence halved: SC still predicts and counts alike
        changed = {qid: list(stream) for qid, stream in streams.items()}
        label, confidence = changed["q0"][0]
        changed["q0"][0] = (label, confidence / 2)
        for method in Method:
            config = ControllerConfig(method=method, budget=6, esc_window=2)
            first = run(list(streams), stream_sampler(streams), config)
            assert run(list(streams), stream_sampler(streams), config) == first
            assert run(list(streams), stream_sampler(changed), config) != first

    def test_duplicate_question_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run(["q", "q"], constant_sampler("a", 0.5), ControllerConfig())

    def test_empty_question_list_rejected(self):
        with pytest.raises(ConfigurationError):
            run([], constant_sampler("a", 0.5), ControllerConfig())


class TestSamplerFailures:
    def test_sampler_exception_propagates_after_one_call(self):
        attempts = {"count": 0}

        def flaky(question_id, round_idx):
            attempts["count"] += 1
            raise OSError("transient")

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4)
        with pytest.raises(OSError, match="transient"):
            run(["q"], flaky, config)
        assert attempts["count"] == 1

    def test_pooled_sampler_exception_propagates(self):
        attempts = {"q0": 0, "q1": 0}

        def half_broken(question_id, round_idx):
            attempts[question_id] += 1
            if question_id == "q1":
                raise OSError("down")
            return "a", 0.5

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4, max_parallel=2)
        with pytest.raises(OSError, match="down"):
            run(["q0", "q1"], half_broken, config)
        assert attempts == {"q0": 1, "q1": 1}

    def test_definitive_sampler_error_is_not_retried(self):
        attempts = {"count": 0}

        def refusing(question_id, round_idx):
            attempts["count"] += 1
            raise SamplerError("record is degraded")

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4)
        with pytest.raises(SamplerError, match="degraded"):
            run(["q"], refusing, config)
        assert attempts["count"] == 1


def skewed_streams(rng, n_questions, budget, n_labels=3):
    """Streams whose questions lean on one label by varying degrees, so that
    stop rules fire at many different rounds."""
    streams = {}
    for i in range(n_questions):
        lean = rng.uniform(0.3, 0.95)
        streams[f"q{i}"] = [
            (
                "ans0" if rng.uniform() < lean else f"ans{int(rng.integers(1, n_labels))}",
                float(rng.uniform(0.3, 0.95)),
            )
            for _ in range(budget)
        ]
    return streams


def counting_sampler(streams):
    reads = {}

    def sample(question_id, round_idx):
        reads[question_id, round_idx] = reads.get((question_id, round_idx), 0) + 1
        return streams[question_id][round_idx - 1]

    return sample, reads


class TestRunMany:
    """``run_many`` serves several configurations from one sample stream."""

    @staticmethod
    def mixed_configs(rng, fixed_k, max_parallel):
        common = dict(fixed_k=fixed_k, max_parallel=max_parallel)
        configs = [
            ControllerConfig(method=Method.SC, budget=int(rng.integers(1, 13)), **common),
            ControllerConfig(method=Method.ESC, budget=12, esc_window=2, **common),
            ControllerConfig(method=Method.ESC, budget=8, esc_window=3, **common),
        ]
        for gamma in (0.7, 0.9, 0.99, 1.0):
            budget = int(rng.integers(1, 13))
            configs.append(
                ControllerConfig(method=Method.CGES, gamma=gamma, budget=budget, **common)
            )
        return configs

    @pytest.mark.parametrize("seed", range(8))
    def test_each_result_equals_its_own_run(self, seed):
        rng = np.random.default_rng(seed)
        streams = skewed_streams(rng, 16, 12)
        sampler = stream_sampler(streams)
        configs = [
            config
            for fixed_k in (None, 3, 5)
            for max_parallel in (1, 2)
            for config in self.mixed_configs(rng, fixed_k, max_parallel)
        ]
        rng.shuffle(configs)
        results = run_many(list(streams), sampler, configs)
        assert len(results) == len(configs)
        for config, result in zip(configs, results):
            assert result == run(list(streams), sampler, config), config

    def test_stops_spread_over_rounds(self):
        # the mixture above exercises closings at many rounds, resolved and not
        rng = np.random.default_rng(0)
        streams = skewed_streams(rng, 16, 12)
        config = ControllerConfig(method=Method.CGES, gamma=0.99, budget=12)
        result = run(list(streams), stream_sampler(streams), config)
        assert len(set(result.per_question_calls.values())) >= 4
        assert 0 < len(result.unresolved) < len(streams)

    def test_each_key_is_read_once_per_fixed_k(self):
        rng = np.random.default_rng(3)
        streams = skewed_streams(rng, 10, 12)
        sampler, reads = counting_sampler(streams)
        configs = [
            ControllerConfig(method=Method.CGES, gamma=gamma, budget=12)
            for gamma in (0.7, 0.8, 0.9, 0.99, 0.999)
        ]
        results = run_many(list(streams), sampler, configs)
        assert set(reads.values()) == {1}
        # each question is read as far as its most demanding configuration
        for qid in streams:
            deepest = max(result.per_question_calls[qid] for result in results)
            assert {rnd for q, rnd in reads if q == qid} == set(range(1, deepest + 1))

        # a second fixed_k keeps its own posterior, so it reads the stream again
        sampler, reads = counting_sampler(streams)
        fixed = [replace(config, fixed_k=3) for config in configs]
        run_many(list(streams), sampler, fixed + configs)
        assert set(reads.values()) == {1, 2}

    def test_configurations_closing_together_share_a_snapshot(self):
        streams = {"q0": [("a", 0.99)] * 4}
        configs = [
            ControllerConfig(method=Method.CGES, gamma=0.9, budget=4),
            ControllerConfig(method=Method.CGES, gamma=0.95, budget=4),
            ControllerConfig(method=Method.SC, budget=4),
        ]
        early, also_early, last = run_many(["q0"], stream_sampler(streams), configs)
        assert early.per_question_posterior["q0"] is also_early.per_question_posterior["q0"]
        assert early.per_question_posterior["q0"].n == 1
        assert last.per_question_posterior["q0"].n == 4

    def test_needs_a_configuration(self):
        with pytest.raises(ConfigurationError):
            run_many(["q0"], constant_sampler("a", 0.9), [])


class TestConfigValidation:
    def test_gamma_bounds(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(gamma=0.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(gamma=1.5)

    def test_budget_bound(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(budget=0)

    def test_esc_window_bound(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(method=Method.ESC, budget=4, esc_window=5)

    def test_fixed_k_bound(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(fixed_k=1)
