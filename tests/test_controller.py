"""Tests for the adaptive controller and the fixed-budget baselines."""

import itertools
import math
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from cges import controller
from cges.controller import ControllerConfig, Method, run, run_many
from cges.errors import ConfigurationError, InvalidSampleError, SamplerError
from cges.posterior import CandidateSet, RunningPosterior, Sample, score
from conftest import overflow_streams, overtake_streams


def stream_sampler(streams):
    """Sampler serving per-question lists of (label, confidence) by round."""

    def sample(question_id, round_idx):
        return streams[question_id][round_idx - 1]

    return sample


def constant_sampler(label, confidence):
    def sample(question_id, round_idx):
        return label, confidence

    return sample


def stagger_chains(monkeypatch, *ready):
    """Make ``run_many``'s pool submit its third question, and those after it,
    only once every event in ``ready`` is set: the first two chains draw first."""

    class StaggeredPool(ThreadPoolExecutor):
        submitted = 0

        def submit(self, fn, *args, **kwargs):
            if self.submitted == 2:
                assert all(event.wait(5) for event in ready), "the first chains never drew"
            self.submitted += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(controller, "ThreadPoolExecutor", StaggeredPool)


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

    def test_a_subnormal_gamma_closes_on_the_first_draw(self):
        # expm1(-log gamma) overflows below gamma = e^-709.78; any top mass reaches it
        config = ControllerConfig(method=Method.CGES, gamma=5e-324, budget=4)
        streams = {"q0": [("a", 0.9)] * 4, "q1": [("b", 0.1)] * 4}
        result = run(list(streams), stream_sampler(streams), config)
        assert result.per_question_calls == {"q0": 1, "q1": 1}
        assert result.predictions == {"q0": "a", "q1": "b"}

    def test_stop_is_inclusive_at_the_threshold(self):
        # a gamma whose log equals the first round's top log mass stops there;
        # the next gamma up does not
        for confidence in np.linspace(0.6, 0.95, 36):
            posterior = RunningPosterior()
            posterior.add("a", float(confidence))
            top = posterior.top_log_mass()
            if math.log(math.exp(top)) == top:
                break
        else:
            pytest.fail("no confidence gives a gamma at the exact top log mass")
        gamma = math.exp(top)
        above = math.nextafter(gamma, 1.0)
        assert math.log(above) > top
        configs = [
            ControllerConfig(method=Method.CGES, gamma=g, budget=3) for g in (above, gamma, 0.5)
        ]
        sampler = constant_sampler("a", float(confidence))
        not_yet, at, below = run_many(["q0"], sampler, configs)
        assert (at.avg_calls, below.avg_calls) == (1.0, 1.0)
        assert not_yet.avg_calls > 1.0

    def test_a_stop_on_the_budget_round_counts_as_resolved(self):
        streams = {"q0": [("a", 0.6), ("a", 0.99)], "q1": [("a", 0.6), ("b", 0.6)]}
        configs = [
            ControllerConfig(method=Method.CGES, gamma=0.9, budget=2),
            ControllerConfig(method=Method.ESC, esc_window=2, budget=2),
            ControllerConfig(method=Method.SC, budget=2),
        ]
        cges, esc, sc = run_many(list(streams), stream_sampler(streams), configs)
        assert cges.per_question_calls == esc.per_question_calls == {"q0": 2, "q1": 2}
        assert cges.unresolved == esc.unresolved == ("q1",)
        assert sc.unresolved == ()

    @pytest.mark.parametrize(
        "stream, budget, gamma, fixed_k",
        [
            (list(zip("abba", (0.3, 0.35, 0.65, 0.7))), 4, 0.9, None),
            (list(zip("abbbaa", (0.3, 0.9, 0.1, 0.65, 0.7, 0.65))), 6, 0.99, 3),
            (
                list(zip("aaaaabbbba", (0.1, 0.7, 0.35, 0.6, 0.65, 0.6, 0.7, 0.65, 0.5, 0.65))),
                10,
                0.99,
                4,
            ),
        ],
        ids=["observed-virtual", "fixed-k-3", "fixed-k-4"],
    )
    def test_an_exact_tie_at_the_budget_goes_to_the_earliest_label(
        self, stream, budget, gamma, fixed_k
    ):
        # the floor proves gamma out of reach in the last round, and the top
        # read of an earlier round named b; the budget close reads afresh
        posterior = RunningPosterior(fixed_k)
        for label, confidence in stream:
            posterior.add(label, confidence)
        named = posterior.masses
        assert named["a"] == named["b"] and posterior.top()[0] == "a"
        config = ControllerConfig(method=Method.CGES, gamma=gamma, budget=budget)
        result = run(["q"], stream_sampler({"q": stream}), config, fixed_k)
        assert result.predictions == {"q": "a"}
        assert result.unresolved == ("q",)

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

    def test_no_round_barrier(self):
        # q_slow's first draw waits until q_fast has drawn round 3; under a
        # round barrier q_fast could not start round 2, and the wait times out
        fast_round_3 = threading.Event()

        def sampler(question_id, round_idx):
            if question_id == "q_fast" and round_idx == 3:
                fast_round_3.set()
            elif question_id == "q_slow" and round_idx == 1:
                assert fast_round_3.wait(5), "q_fast waited on q_slow's round 1"
            return "a", 0.5

        config = ControllerConfig(method=Method.SC, budget=4, max_parallel=2)
        result = run(["q_slow", "q_fast"], sampler, config)
        assert result.per_question_calls == {"q_slow": 4, "q_fast": 4}

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
        config = ControllerConfig(method=Method.CGES, gamma=0.97, budget=4)
        fixed_calls = run(["q"], stream_sampler(stream), config, 2).per_question_calls["q"]
        open_calls = run(["q"], stream_sampler(stream), config).per_question_calls["q"]
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

    def test_results_compare_by_predictions_and_calls(self):
        rng = np.random.default_rng(17)
        streams = random_streams(rng, 5, 6)
        # one first-round confidence halved: SC predicts and counts alike, and
        # a result holds nothing else that could tell the two runs apart
        changed = {qid: list(stream) for qid, stream in streams.items()}
        label, confidence = changed["q0"][0]
        changed["q0"][0] = (label, confidence / 2)
        config = ControllerConfig(method=Method.SC, budget=6)
        first = run(list(streams), stream_sampler(streams), config)
        assert [field.name for field in fields(first)] == [
            "predictions", "avg_calls", "per_question_calls", "unresolved",
        ]
        assert run(list(streams), stream_sampler(streams), config) == first
        assert run(list(streams), stream_sampler(changed), config) == first
        changed["q0"] = [("other", 0.5)] * 6
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
        # q1's first draw fails while q0's first draw is in flight; q0's chain
        # finishes that draw and starts no other
        attempts = {"q0": 0, "q1": 0}
        q0_drawing, q1_failed = threading.Event(), threading.Event()

        def half_broken(question_id, round_idx):
            attempts[question_id] += 1
            if question_id == "q1":
                assert q0_drawing.wait(5), "q0's first draw never started"
                q1_failed.set()
                raise OSError("down")
            q0_drawing.set()
            assert q1_failed.wait(5), "q1's first draw never failed"
            return "a", 0.5

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4, max_parallel=2)
        with pytest.raises(OSError, match="down"):
            run(["q0", "q1"], half_broken, config)
        assert attempts == {"q0": 1, "q1": 1}

    def test_no_queued_question_is_drawn_after_a_failure(self, monkeypatch):
        qids = [f"q{i}" for i in range(8)]
        attempts = dict.fromkeys(qids, 0)
        q0_drawing, q1_drawing, q1_failed = (threading.Event() for _ in range(3))

        def half_broken(question_id, round_idx):
            attempts[question_id] += 1
            if question_id == "q1":
                q1_drawing.set()
                assert q0_drawing.wait(5), "q0's first draw never started"
                q1_failed.set()
                raise OSError("down")
            if question_id == "q0":
                q0_drawing.set()
                assert q1_failed.wait(5), "q1's first draw never failed"
            return "a", 0.5

        # the spare chain starts once q0 and q1 hold both slots
        stagger_chains(monkeypatch, q0_drawing, q1_drawing)
        config = ControllerConfig(method=Method.SC, budget=4, max_parallel=2)
        with pytest.raises(OSError, match="down"):
            run(qids, half_broken, config)
        assert attempts == {"q0": 1, "q1": 1, **dict.fromkeys(qids[2:], 0)}

    def test_a_chain_waiting_for_a_slot_draws_nothing_after_a_failure(self, monkeypatch):
        # q0 and q1 hold both slots and q2's chain waits for one; q1's draw
        # raises, and the slot it frees goes to q2's chain, whose release returns
        # only once that chain has drawn or given the slot back.  q0's draw
        # holds its slot until then.  So q2 draws exactly when the failure is
        # flagged after the slot is freed, or not checked once a slot is taken.
        attempts = {"q0": 0, "q1": 0, "q2": 0}
        q0_drawing, q1_drawing, q2_waiting, q2_settled = (threading.Event() for _ in range(4))
        waiters = set()

        class WatchedSlots(threading.BoundedSemaphore):
            def __enter__(self):
                if not self.acquire(blocking=False):
                    waiters.add(threading.get_ident())
                    q2_waiting.set()
                    self.acquire()
                return True

            def release(self, n=1):
                super().release(n)
                if threading.get_ident() in waiters:
                    q2_settled.set()
                elif waiters:  # hand the freed slot to the waiting chain
                    assert q2_settled.wait(5), "the waiting chain never settled"

        def sampler(question_id, round_idx):
            attempts[question_id] += 1
            if question_id == "q0":
                q0_drawing.set()
                assert q2_settled.wait(5), "q2's chain never settled"
            elif question_id == "q1":
                q1_drawing.set()
                assert q2_waiting.wait(5), "q2's chain never waited for a slot"
                raise OSError("down")
            else:
                q2_settled.set()
            return "a", 0.5

        monkeypatch.setattr(controller.threading, "BoundedSemaphore", WatchedSlots)
        stagger_chains(monkeypatch, q0_drawing, q1_drawing)
        config = ControllerConfig(method=Method.SC, budget=4, max_parallel=2)
        with pytest.raises(OSError, match="down"):
            run(["q0", "q1", "q2"], sampler, config)
        assert attempts == {"q0": 1, "q1": 1, "q2": 0}

    def test_earliest_failing_question_wins(self):
        # both chains raise, q1 first; the error is that of the first question in order
        q0_drawing, q1_failed = threading.Event(), threading.Event()

        def broken(question_id, round_idx):
            if question_id == "q0":
                q0_drawing.set()
                assert q1_failed.wait(5), "q1's first draw never failed"
                raise OSError("q0 down")
            assert q0_drawing.wait(5), "q0's first draw never started"
            q1_failed.set()
            raise OSError("q1 down")

        config = ControllerConfig(method=Method.CGES, budget=4, max_parallel=2)
        with pytest.raises(OSError, match="q0 down"):
            run(["q0", "q1"], broken, config)

    def test_definitive_sampler_error_is_not_retried(self):
        attempts = {"count": 0}

        def refusing(question_id, round_idx):
            attempts["count"] += 1
            raise SamplerError("record is degraded")

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4)
        with pytest.raises(SamplerError, match="degraded"):
            run(["q"], refusing, config)
        assert attempts["count"] == 1


class TestLendSlot:
    """A pooled draw holds one of ``max_parallel`` slots; inside ``lend_slot()``
    the spare chain may use it."""

    def test_outside_a_pooled_draw_lending_does_nothing(self):
        with controller.lend_slot():
            pass

        def sampler(question_id, round_idx):
            with controller.lend_slot():
                return "a", 0.5

        for max_parallel in (1, 2):  # a serial run, and a pooled run of one question
            config = ControllerConfig(method=Method.SC, budget=3, max_parallel=max_parallel)
            assert run(["q0"], sampler, config).per_question_calls == {"q0": 3}

    def test_a_lent_slot_serves_the_spare_chain(self, monkeypatch):
        # q0's first draw lends its slot and q1's holds the other, both until
        # q2 has drawn: only the lent slot lets q2's chain draw at all
        streams = {f"q{i}": [("a", 0.9), ("b", 0.6), ("a", 0.7)] for i in range(4)}
        q0_drawing, q1_drawing, q2_drew = (threading.Event() for _ in range(3))
        lock = threading.Lock()
        sending = {"now": 0, "most": 0}  # draws in the sampler and not lending

        def count(step):
            with lock:
                sending["now"] += step
                sending["most"] = max(sending["most"], sending["now"])

        def sampler(question_id, round_idx):
            count(1)
            try:
                if (question_id, round_idx) == ("q0", 1):
                    q0_drawing.set()
                    count(-1)
                    with controller.lend_slot():
                        assert q2_drew.wait(5), "the lent slot served no other chain"
                    count(1)
                elif (question_id, round_idx) == ("q1", 1):
                    q1_drawing.set()
                    assert q2_drew.wait(5), "the lent slot served no other chain"
                elif question_id == "q2":
                    q2_drew.set()
                return streams[question_id][round_idx - 1]
            finally:
                count(-1)

        stagger_chains(monkeypatch, q0_drawing, q1_drawing)
        config = ControllerConfig(method=Method.CGES, gamma=0.99, budget=3, max_parallel=2)
        pooled = run(list(streams), sampler, config)
        assert pooled == run(list(streams), stream_sampler(streams), replace(config, max_parallel=1))
        assert sending["most"] == 2

    def test_a_lender_takes_the_next_freed_slot_before_a_new_draw(self, monkeypatch):
        # q0 lends its slot to q2 and takes it back while q1 and q2 hold both slots;
        # the slot q1 frees next goes to q0, not to q1's next round.  The slots let
        # any draw that asks within half a second go before the lender's take-back,
        # so only the controller keeps the order
        names = {}  # thread -> the question whose chain it runs
        returning, lender_back, other_asked, settled, q0_drawing, q1_drawing, q2_drew = (
            threading.Event() for _ in range(7)
        )
        order = []  # the questions that take a slot once the lender is back

        class RecordingSlots(threading.BoundedSemaphore):
            def __enter__(self):
                return self.acquire()

            def acquire(self, blocking=True, timeout=None):
                name = names.get(threading.get_ident())
                if name == "q0" and returning.is_set() and not lender_back.is_set():
                    lender_back.set()
                    other_asked.wait(0.5)
                elif lender_back.is_set():
                    other_asked.set()
                taken = super().acquire(blocking, timeout)
                if lender_back.is_set():
                    order.append(name)
                    settled.set()
                return taken

        def sampler(question_id, round_idx):
            names[threading.get_ident()] = question_id
            if (question_id, round_idx) == ("q0", 1):
                q0_drawing.set()
                with controller.lend_slot():
                    assert q2_drew.wait(5), "the lent slot served no other chain"
                    returning.set()
            elif (question_id, round_idx) == ("q1", 1):
                q1_drawing.set()
                assert lender_back.wait(5), "the lender never asked for its slot back"
            elif (question_id, round_idx) == ("q2", 1):
                q2_drew.set()
                assert settled.wait(5), "no chain took the slot q1 freed"
            return "a", 0.6

        monkeypatch.setattr(controller.threading, "BoundedSemaphore", RecordingSlots)
        stagger_chains(monkeypatch, q0_drawing, q1_drawing)
        config = ControllerConfig(method=Method.SC, budget=2, max_parallel=2)
        qids = ["q0", "q1", "q2"]
        result = run(qids, sampler, config)
        assert order[0] == "q0", order
        assert result == run(qids, constant_sampler("a", 0.6), replace(config, max_parallel=1))

    def test_lending_draws_under_frequent_thread_switches(self):
        # more workers than cores and every other draw lends its slot: no more
        # than max_parallel draws send at once, and the result is the serial one
        rng = np.random.default_rng(11)
        streams = skewed_streams(rng, 48, 8)
        lock = threading.Lock()
        sending = {"now": 0, "most": 0}

        def count(step):
            with lock:
                sending["now"] += step
                sending["most"] = max(sending["most"], sending["now"])

        def sampler(question_id, round_idx):
            if round_idx % 2:
                with controller.lend_slot():
                    pass
            count(1)
            try:
                return streams[question_id][round_idx - 1]
            finally:
                count(-1)

        configs = [
            ControllerConfig(method=Method.SC, budget=8, max_parallel=4),
            ControllerConfig(method=Method.CGES, gamma=0.9, budget=8, max_parallel=4),
        ]
        serial = run_many(
            list(streams), stream_sampler(streams), [replace(c, max_parallel=1) for c in configs]
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_many(list(streams), sampler, configs)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        assert 1 <= sending["most"] <= 4


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


def edge_streams(rng, n_questions, budget, n_labels, k):
    """Streams at the edges of the posterior's floor: one label leads, the
    others are first seen at random rounds, and confidences sit at the clamps
    1e-12 and 1 - 1e-12 or below 1/K, where a drawn leader loses ground."""
    streams = {}
    for i in range(n_questions):
        lean = rng.uniform(0.3, 0.95)
        debuts = [1, *rng.integers(1, budget + 1, n_labels - 1)]
        stream = []
        for t in range(1, budget + 1):
            seen = [j for j, debut in enumerate(debuts) if debut <= t]
            j = 0 if rng.uniform() < lean else int(rng.choice(seen))
            u = rng.uniform()
            if u < 0.05:
                confidence = 1e-12
            elif u < 0.1:
                confidence = 1 - 1e-12
            elif u < 0.3:
                confidence = rng.uniform(0.2, 1.0) / k
            else:
                confidence = rng.uniform(0.05, 0.95)
            stream.append((f"ans{j}", float(confidence)))
        streams[f"q{i}"] = stream
    return streams


def tie_streams(rng, n_questions, budget):
    """Streams of two labels whose confidences, drawn from {0.3, 0.35, 0.65,
    0.7}, often leave the two labels' scores exactly tied."""
    return {
        f"q{i}": [
            ("ab"[int(rng.integers(2))], float(rng.choice([0.3, 0.35, 0.65, 0.7])))
            for _ in range(budget)
        ]
        for i in range(n_questions)
    }


def oracle_close(stream, config, fixed_k):
    """(prediction, calls, resolved) of one configuration on one stream, from
    its method's definition alone: SC and ESC count labels, CGES reads the
    exact top every round.  Ties go to the earliest label."""
    labels = [label for label, _ in stream]

    def majority(n):
        counts = Counter(labels[:n])  # first-seen order; max keeps the first maximum
        return max(counts, key=counts.__getitem__)

    if config.method is Method.SC:
        return majority(config.budget), config.budget, True
    if config.method is Method.ESC:
        window = config.esc_window
        for end in range(window, config.budget + 1, window):
            if len(set(labels[end - window : end])) == 1:
                return majority(end), end, True
        return majority(config.budget), config.budget, False
    posterior = RunningPosterior(fixed_k)
    for calls, (label, confidence) in enumerate(stream[: config.budget], 1):
        posterior.add(label, confidence)
        log_mass = posterior.top_log_mass()
        if log_mass >= math.log(config.gamma):
            return posterior.top_label, calls, True
    return posterior.top_label, config.budget, False


def counting_sampler(streams):
    reads = {}

    def sample(question_id, round_idx):
        reads[question_id, round_idx] = reads.get((question_id, round_idx), 0) + 1
        return streams[question_id][round_idx - 1]

    return sample, reads


class TestRunMany:
    """``run_many`` serves several configurations from one sample stream."""

    @staticmethod
    def mixed_configs(rng, max_parallel):
        common = dict(max_parallel=max_parallel)
        configs = [
            ControllerConfig(method=Method.SC, budget=int(rng.integers(1, 13)), **common),
            ControllerConfig(method=Method.ESC, budget=12, esc_window=2, **common),
            ControllerConfig(method=Method.ESC, budget=8, esc_window=3, **common),
        ]
        # 0.9 twice; the other configurations' budgets are at most 12
        for gamma in (0.7, 0.9, 0.9, 0.99, 1.0):
            budget = int(rng.integers(1, 13))
            configs.append(
                ControllerConfig(method=Method.CGES, gamma=gamma, budget=budget, **common)
            )
        configs.append(ControllerConfig(method=Method.CGES, gamma=0.95, budget=16, **common))
        return configs

    @pytest.mark.parametrize("seed", range(8))
    def test_each_result_equals_its_own_run(self, seed):
        rng = np.random.default_rng(seed)
        streams = skewed_streams(rng, 16, 16)
        sampler = stream_sampler(streams)
        for fixed_k in (None, 3, 5):
            configs = [
                config
                for max_parallel in (1, 2, 8)
                for config in self.mixed_configs(rng, max_parallel)
            ]
            rng.shuffle(configs)
            results = run_many(list(streams), sampler, configs, fixed_k)
            assert len(results) == len(configs)
            for config, result in zip(configs, results):
                assert result == run(list(streams), sampler, config, fixed_k), config
                # serial and pooled runs agree
                serial = replace(config, max_parallel=1)
                assert result == run(list(streams), sampler, serial, fixed_k)

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_mixed_methods_match_an_oracle_of_their_definitions(self, fixed_k, max_parallel):
        rng = np.random.default_rng(17)
        streams = skewed_streams(rng, 40, 14)
        common = dict(max_parallel=max_parallel)
        configs = [
            # SC budgets below and above every CGES budget; ESC windows that
            # do not divide their budgets
            ControllerConfig(method=Method.SC, budget=5, **common),
            ControllerConfig(method=Method.ESC, budget=10, esc_window=3, **common),
            ControllerConfig(method=Method.CGES, gamma=0.9, budget=8, **common),
            ControllerConfig(method=Method.ESC, budget=9, esc_window=4, **common),
            ControllerConfig(method=Method.CGES, gamma=0.7, budget=6, **common),
            ControllerConfig(method=Method.SC, budget=14, **common),
            ControllerConfig(method=Method.CGES, gamma=0.99, budget=12, **common),
            ControllerConfig(method=Method.CGES, gamma=1.0, budget=7, **common),
        ]
        results = run_many(list(streams), stream_sampler(streams), configs, fixed_k)
        for config, result in zip(configs, results):
            closes = {qid: oracle_close(stream, config, fixed_k) for qid, stream in streams.items()}
            calls = {qid: n for qid, (_, n, _) in closes.items()}
            assert result == controller.RunResult(
                predictions={qid: prediction for qid, (prediction, _, _) in closes.items()},
                avg_calls=sum(calls.values()) / len(streams),
                per_question_calls=calls,
                unresolved=tuple(qid for qid, (_, _, ok) in closes.items() if not ok),
            ), config
            if config.method is not Method.SC and config.gamma < 1.0:
                # the streams close each stop rule both before and at its budget
                assert 1 < len(set(calls.values())) and 0 < len(result.unresolved) < len(streams)

    def test_pooled_chains_under_frequent_thread_switches(self):
        # more workers than cores, switching threads every few bytecodes: each
        # chain still reads each of its keys once and closes as the serial run does
        rng = np.random.default_rng(5)
        streams = skewed_streams(rng, 64, 12)
        configs = [
            ControllerConfig(method=Method.SC, budget=12, max_parallel=8),
            ControllerConfig(method=Method.ESC, budget=12, esc_window=3, max_parallel=8),
            *(
                ControllerConfig(method=Method.CGES, gamma=gamma, budget=12, max_parallel=8)
                for gamma in (0.7, 0.9, 0.99)
            ),
        ]
        serial = run_many(
            list(streams), stream_sampler(streams), [replace(c, max_parallel=1) for c in configs]
        )
        sampler, reads = counting_sampler(streams)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_many(list(streams), sampler, configs)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        assert len(reads) == 64 * 12 and set(reads.values()) == {1}

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
        cges_only = [
            ControllerConfig(method=Method.CGES, gamma=gamma, budget=12)
            for gamma in (0.7, 0.8, 0.9, 0.99, 0.999)
        ]
        inputs = [
            (skewed_streams(rng, 10, 12), cges_only),
            # SC and ESC budgets and ESC window ends among the ladder's closes
            (skewed_streams(rng, 10, 16), self.mixed_configs(rng, 2)),
        ]
        for streams, configs in inputs:
            calls = {}
            # another K policy is another call, with its own posteriors and its own reads
            for fixed_k in (None, 3):
                sampler, reads = counting_sampler(streams)
                results = run_many(list(streams), sampler, configs, fixed_k)
                assert set(reads.values()) == {1}
                # each question is read as far as its most demanding configuration
                for qid in streams:
                    deepest = max(result.per_question_calls[qid] for result in results)
                    assert {rnd for q, rnd in reads if q == qid} == set(range(1, deepest + 1))
                calls[fixed_k] = [result.per_question_calls for result in results]
            assert calls[None] != calls[3]  # the K policy reached the posteriors

    def test_top_is_read_at_most_once_per_draw(self, monkeypatch):
        # the thresholds share one top read per round, and the CGES predict
        # rule reuses it at close; a round whose floor proves the lowest open
        # threshold out of reach reads nothing
        tops = Counter()
        serials = itertools.count()  # not id(): a freed posterior's id is reused

        class CountingPosterior(RunningPosterior):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.serial = next(serials)

            def top_log_mass(self):
                tops[self.serial, self.n] += 1
                return super().top_log_mass()

        monkeypatch.setattr(controller, "RunningPosterior", CountingPosterior)
        rng = np.random.default_rng(11)
        streams = skewed_streams(rng, 32, 16)
        sampler, reads = counting_sampler(streams)
        gammas = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999)
        configs = [ControllerConfig(method=Method.CGES, gamma=g, budget=16) for g in gammas]
        results = run_many(list(streams), sampler, configs)
        monkeypatch.undo()
        assert set(tops.values()) == {1}
        assert sum(tops.values()) <= sum(reads.values())
        assert sum(tops.values()) < sum(reads.values())  # this stream skips some reads
        for config, result in zip(configs, results):
            assert result == run(list(streams), stream_sampler(streams), config)

    def test_only_a_cges_budget_forces_a_read(self, monkeypatch):
        # an SC budget closes on the label counts: the round it ends reads
        # only if the screen cannot prove the open thresholds out of reach
        read_at = []

        class CountingPosterior(RunningPosterior):
            def top_log_mass(self):
                read_at.append(self.n)
                return super().top_log_mass()

        monkeypatch.setattr(controller, "RunningPosterior", CountingPosterior)
        streams = {"q": [("a", 0.6), ("b", 0.6)] * 6}
        cges = ControllerConfig(method=Method.CGES, gamma=0.999, budget=12)
        sc = ControllerConfig(method=Method.SC, budget=5)
        runs = {}
        for configs in ((cges,), (cges, sc)):
            read_at.clear()
            results = run_many(list(streams), stream_sampler(streams), configs)
            runs[len(configs)] = list(read_at), results[0]
        assert runs[1] == runs[2]
        assert 5 not in runs[2][0] and 12 in runs[2][0]

    def test_a_proven_close_makes_no_read(self, monkeypatch):
        # the bounds prove gamma 0.9 reached at q0's first draw and at q1's third,
        # where its read after the new label "b" carries them; gamma 1.0 closes at its
        # budget on that round's read
        read_at = []  # per question, in order: the chains run serially

        class CountingPosterior(RunningPosterior):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                read_at.append([])

            def top_log_mass(self):
                read_at[-1].append(self.n)
                return super().top_log_mass()

        monkeypatch.setattr(controller, "RunningPosterior", CountingPosterior)
        streams = {"q0": [("a", 0.99)] * 6, "q1": [("a", 0.6), ("b", 0.3)] + [("a", 0.9)] * 4}
        configs = [
            ControllerConfig(method=Method.CGES, gamma=0.9, budget=6),
            ControllerConfig(method=Method.CGES, gamma=1.0, budget=5),
        ]
        results = run_many(list(streams), stream_sampler(streams), configs)
        monkeypatch.undo()
        assert read_at == [[5], [2, 5]]
        assert results[0].per_question_calls == {"q0": 1, "q1": 3}
        for config, result in zip(configs, results):
            closes = {qid: oracle_close(stream, config, None) for qid, stream in streams.items()}
            calls = {qid: n for qid, (_, n, _) in closes.items()}
            assert result == controller.RunResult(
                predictions={qid: prediction for qid, (prediction, _, _) in closes.items()},
                avg_calls=sum(calls.values()) / len(streams),
                per_question_calls=calls,
                unresolved=tuple(qid for qid, (_, _, ok) in closes.items() if not ok),
            ), config

    @pytest.mark.parametrize(
        "family, seed, extra_k",
        [
            *(pytest.param("edge", s, k, id=f"{k}-{s}") for k in (None, 2) for s in range(4)),
            # seeds at which a CGES budget ends on an exact tie the floor alone would screen
            *(
                pytest.param("ties", s, k, id=f"ties-{k}-{s}")
                for s, k in ((265, None), (328, None), (0, 0), (3, 0), (0, 2), (53, 2))
            ),
            # a competitor overtakes the top while the floor holds; K = 8 under extra_k 5
            *(pytest.param("overtake", 0, k, id=f"overtake-{k}") for k in (None, 5)),
            # the top drawn with a loss whose e^(-gap) overflows
            *(pytest.param("overflow", 0, k, id=f"overflow-{k}") for k in (None, 5)),
        ],
    )
    def test_the_screen_changes_no_result(self, monkeypatch, family, seed, extra_k):
        # the reference reads the top every round a threshold is open
        class ReadEveryRound(RunningPosterior):
            def add(self, label, confidence):
                super().add(label, confidence)  # and prove nothing

        rng = np.random.default_rng(seed)
        if family in ("overtake", "overflow"):
            fixed_k = None if extra_k is None else 3 + extra_k  # the streams name up to 3 labels
            family_streams = overtake_streams() if family == "overtake" else overflow_streams()
            streams = {f"q{i}": stream for i, stream in enumerate(family_streams)}
            # a threshold at every top mass the streams reach: each closes on its round's read
            gammas = set()
            for stream in streams.values():
                exact = RunningPosterior(fixed_k)
                for label, confidence in stream:
                    exact.add(label, confidence)
                    gammas.add(math.exp(exact.top_log_mass()))
            configs = [ControllerConfig(method=Method.CGES, gamma=g, budget=8) for g in sorted(gammas)]
        elif family == "ties":
            fixed_k = None if extra_k is None else 2 + extra_k
            streams = tie_streams(rng, 20, 16)
            configs = self.mixed_configs(rng, 1)
        else:
            n_labels = int(rng.integers(2, 6))
            fixed_k = None if extra_k is None else n_labels + extra_k
            streams = edge_streams(rng, 30, 200, n_labels, fixed_k or n_labels + 1)
            gammas = [0.05, *rng.uniform(0.05, 1.0, 5), 1 - 1e-12, 1.0]
            configs = [
                ControllerConfig(method=Method.CGES, gamma=g, budget=int(rng.integers(1, 201)))
                for g in gammas
            ]
        screened = run_many(list(streams), stream_sampler(streams), configs, fixed_k)
        monkeypatch.setattr(controller, "RunningPosterior", ReadEveryRound)
        assert screened == run_many(list(streams), stream_sampler(streams), configs, fixed_k)

    def test_builds_one_posterior_per_question(self, monkeypatch):
        # configurations that close at different rounds keep no posterior of
        # their own: a question's one posterior lives as long as its chain
        built = []

        class CountingPosterior(RunningPosterior):
            def __new__(cls, *args, **kwargs):  # every construction, a copy's too
                built.append(cls)
                return super().__new__(cls)

        # the kernel module's own name too, which a copy made there would use
        monkeypatch.setattr(controller, "RunningPosterior", CountingPosterior)
        monkeypatch.setattr("cges.posterior.RunningPosterior", CountingPosterior)
        rng = np.random.default_rng(13)
        streams = skewed_streams(rng, 16, 16)
        for max_parallel in (1, 2):
            built.clear()
            configs = self.mixed_configs(rng, max_parallel)
            results = run_many(list(streams), stream_sampler(streams), configs)
            assert len(built) == len(streams)
            assert all(len({r.per_question_calls[q] for r in results}) > 1 for q in streams)

    def test_needs_a_configuration(self):
        with pytest.raises(ConfigurationError):
            run_many(["q0"], constant_sampler("a", 0.9), [])

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize(
        "fixed_k, message",
        [
            (1, "must be >= 2, got 1"),
            (2.5, "must be an int, got 2.5"),
            (True, "must be an int, got True"),
            ("3", "must be an int, got '3'"),
        ],
    )
    def test_a_bad_fixed_k_is_refused_before_any_draw(self, fixed_k, message, max_parallel):
        # K is checked once, by the posterior each chain builds before its first draw
        streams = {f"q{i}": [("a", 0.9)] * 4 for i in range(4)}
        config = ControllerConfig(method=Method.CGES, budget=4, max_parallel=max_parallel)
        sampler, reads = counting_sampler(streams)
        with pytest.raises(ConfigurationError, match=f"^fixed candidate count {message}$"):
            run(list(streams), sampler, config, fixed_k)
        with pytest.raises(ConfigurationError, match=f"^fixed candidate count {message}$"):
            run_many(list(streams), sampler, [config, replace(config, method=Method.SC)], fixed_k)
        assert reads == {}

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize(
        "fixed_k, q1, error, message",
        [
            # a stub that serves confidence 1.0
            (
                None,
                ("a", 1.0),
                InvalidSampleError,
                r"confidence must lie strictly inside \(0, 1\), got 1\.0",
            ),
            # a third label under K = 2
            (
                2,
                ("c", 0.6),
                ConfigurationError,
                "fixed candidate count 2 is smaller than the 3 distinct labels observed",
            ),
            # a stub that serves no number, or a label no dict can key
            (None, ("a", None), InvalidSampleError, "confidence must be a real number, got None"),
            (None, ("a", "0.9"), InvalidSampleError, r"confidence must be a real number, got '0\.9'"),
            (None, (["a"], 0.6), InvalidSampleError, r"label must be hashable, got \['a'\]"),
        ],
        ids=["confidence", "fixed_k", "none", "string", "unhashable"],
    )
    @pytest.mark.parametrize(
        "gammas, refused_by",
        [
            ((), "counting"),  # SC alone never reads a score
            ((0.999,), "scoring"),  # still open at round 3
            ((0.5,), "counting"),  # closed at round 1, where q1's top mass is 0.6
        ],
        ids=["sc", "cges-0.999-sc", "cges-0.5-sc"],
    )
    def test_a_refused_draw_names_its_question_and_round(
        self, monkeypatch, gammas, refused_by, fixed_k, q1, error, message, max_parallel
    ):
        refusals = []

        class RecordingPosterior(RunningPosterior):
            mode = "scoring"

            def stop_scoring(self):
                super().stop_scoring()
                self.mode = "counting"

            def add(self, label, confidence):
                try:
                    return super().add(label, confidence)
                except Exception:
                    refusals.append((self.mode, self.n + 1))
                    raise

        monkeypatch.setattr(controller, "RunningPosterior", RecordingPosterior)
        streams = {
            "q0": [("a", 0.9)] * 4,
            "q1": [("a", 0.6), ("b", 0.6), q1, ("a", 0.6)],
            "q2": [("a", 0.9)] * 4,
        }
        configs = [
            ControllerConfig(method=Method.CGES, gamma=gamma, budget=4, max_parallel=max_parallel)
            for gamma in gammas
        ]
        configs.append(ControllerConfig(method=Method.SC, budget=4, max_parallel=max_parallel))
        with pytest.raises(error, match=f"^question 'q1' round 3: {message}$") as caught:
            run_many(list(streams), stream_sampler(streams), configs, fixed_k)
        assert type(caught.value.__cause__) is error  # the posterior's own error, chained
        assert refusals == [(refused_by, 3)]


class TestConfigValidation:
    def test_gamma_bounds(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(gamma=0.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(gamma=1.5)

    def test_budget_bound(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(budget=0)

    def test_max_parallel_bound(self):
        with pytest.raises(ConfigurationError, match="^max_parallel must be >= 1, got 0$"):
            ControllerConfig(max_parallel=0)

    def test_esc_window_bound(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(method=Method.ESC, budget=4, esc_window=5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", 2.5),
            ("budget", True),
            ("budget", "4"),
            ("esc_window", 2.0),
            ("max_parallel", 1.5),
            ("max_parallel", False),
        ],
    )
    def test_integer_fields_must_be_ints(self, field, value):
        for method in Method:
            with pytest.raises(ConfigurationError, match=f"{field} must be an int"):
                ControllerConfig(method=method, **{field: value})

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("method", "cges", "a Method"),
            ("method", None, "a Method"),
            ("gamma", True, "a real number"),
            ("gamma", "0.9", "a real number"),
            ("gamma", None, "a real number"),
        ],
    )
    def test_method_and_gamma_types_are_checked(self, field, value, kind):
        # method="cges" used to run with no stop rule; gamma=True ran as 1.0
        # and gamma="0.9" raised a bare TypeError
        message = re.escape(f"{field} must be {kind}, got {value!r}")
        for method in Method:
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                ControllerConfig(**{"method": method, field: value})
