"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import csv
import itertools
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from cges import genmodel
from cges.cli import main
from cges.confidence import (
    TokenizedResponse,
    lns_arithmetic,
    lns_geometric,
    mars_step_weights,
    mars_stepwise,
)
from cges.controller import ControllerConfig, Method, run
from cges.genmodel import (
    IdealGenConfig,
    PointMass,
    PointSimplex,
    RealisticGenConfig,
    Uniform,
    concentration_experiment,
    draw_trials,
    drift,
)
from cges.harness import (
    DEFAULT_GAMMA_GRID,
    ExperimentSpec,
    Question,
    sweep_gamma,
)
from cges.llmclient import (
    AnswerFormat,
    EndpointConfig,
    RecordStore,
    SampleRecord,
    live_sampler,
    replay_sampler,
)
from cges.posterior import CandidateSet, RunningPosterior, Sample, score

FIXTURES = Path(__file__).parent / "fixtures"


def read_csv_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


CONF_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _verdict(name, body):
    try:
        body()
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def direct_product_masses(labels, confidences, k):
    """Literal product evaluation of the scoring rule, no log space."""
    scores = []
    for candidate in range(k):
        product = 1.0
        for label, confidence in zip(labels, confidences):
            product *= confidence if label == candidate else (1.0 - confidence) / (k - 1)
        scores.append(product)
    z = sum(scores)
    return [s / z for s in scores]


def canonical_instances(m, k, confs):
    """All (labels, confidences) instances up to the module's symmetries.

    Labels are enumerated up to relabeling (set partitions of the sample
    positions into at most K blocks); within a block only the multiset of
    confidences matters because scoring is invariant under sample reordering,
    and blocks of equal content are interchangeable by label permutation.
    Both symmetries are asserted directly by the posterior property tests.
    """

    def blocks(remaining, max_blocks, ceiling):
        if remaining == 0:
            yield []
            return
        if max_blocks == 0:
            return
        for size in range(min(remaining, ceiling[0]), 0, -1):
            for multiset in itertools.combinations_with_replacement(confs, size):
                descriptor = (size, multiset)
                if descriptor > ceiling:
                    continue
                for rest in blocks(remaining - size, max_blocks - 1, descriptor):
                    yield [descriptor] + rest

    sentinel = (m, tuple([float("inf")] * m))
    for descriptors in blocks(m, k, sentinel):
        labels, confidences = [], []
        for block_index, (size, multiset) in enumerate(descriptors):
            labels.extend([block_index] * size)
            confidences.extend(multiset)
        yield labels, confidences


def build_replay_store(path, streams):
    store = RecordStore.open_record(path)
    for qid, stream in streams.items():
        for rnd, (label, confidence) in enumerate(stream, start=1):
            store.append(
                SampleRecord(
                    question_id=qid,
                    round=rnd,
                    prompt="",
                    raw_text="",
                    extracted_label=label,
                    token_probs=None,
                    confidence_by_estimator={"lns_arith": confidence},
                    seed=0,
                    timestamp="2026-08-01T00:00:00+00:00",
                )
            )
    return RecordStore.open_replay(path)


def random_streams(rng, n_questions, budget, n_labels=4):
    return {
        f"q{i:03d}": [
            (f"ans{int(rng.integers(n_labels))}", float(rng.uniform(0.05, 0.95)))
            for _ in range(budget)
        ]
        for i in range(n_questions)
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_score_oracle_equivalence():
    def body():
        start = time.perf_counter()
        sample_cache = {}

        def cached_sample(label, confidence, round_idx):
            key = (label, confidence, round_idx)
            if key not in sample_cache:
                sample_cache[key] = Sample(label, confidence, round_idx)
            return sample_cache[key]

        checked = 0
        for k in (2, 3, 4):
            candidates = CandidateSet(tuple(range(k)), fixed_k=k)
            for m in range(1, 7):
                for labels, confidences in canonical_instances(m, k, CONF_GRID):
                    samples = [
                        cached_sample(lab, conf, t + 1)
                        for t, (lab, conf) in enumerate(zip(labels, confidences))
                    ]
                    posterior = score(samples, candidates)
                    expected = direct_product_masses(labels, confidences, k)
                    for j in range(k):
                        assert math.isclose(
                            posterior.masses[j], expected[j], rel_tol=1e-10
                        ), (m, k, labels, confidences, j)
                    checked += 1
        assert checked > 25_000

        # no-reduction spot check over the full instance space
        rng = np.random.default_rng(2024)
        for _ in range(20_000):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            labels = [int(rng.integers(k)) for _ in range(m)]
            confidences = [CONF_GRID[int(rng.integers(5))] for _ in range(m)]
            samples = [
                cached_sample(lab, conf, t + 1)
                for t, (lab, conf) in enumerate(zip(labels, confidences))
            ]
            posterior = score(samples, CandidateSet(tuple(range(k)), fixed_k=k))
            expected = direct_product_masses(labels, confidences, k)
            for j in range(k):
                assert math.isclose(posterior.masses[j], expected[j], rel_tol=1e-10)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"

    _verdict("criterion 1: score matches the direct-product oracle (m<=6, K<=4)", body)


def test_criterion_2_ideal_concentration():
    def body():
        start = time.perf_counter()
        informative = IdealGenConfig(
            k=5, confidence_law=Uniform(0.55, 0.95), m_max=100, seed=101
        )
        rows = concentration_experiment(informative, [100], trials=2000)
        assert rows[0].success_freq >= 0.995, rows[0]
        assert rows[0].mean_mass_truth >= 0.98, rows[0]

        control = IdealGenConfig(
            k=5, confidence_law=PointMass(0.2), m_max=100, seed=102
        )
        control_rows = concentration_experiment(control, [100], trials=2000)
        assert abs(control_rows[0].success_freq - 0.2) <= 0.05, control_rows[0]

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"concentration experiment took {elapsed:.1f}s"

    _verdict("criterion 2: ideal-model posterior concentrates on the truth", body)


def test_criterion_3_realistic_drift_and_converse():
    def body():
        start = time.perf_counter()
        minority = RealisticGenConfig(
            k=2,
            answer_law=PointSimplex((0.4, 0.6)),
            confidence_noise=PointMass(0.3),
            m_max=500,
            seed=103,
        )
        converse = RealisticGenConfig(
            k=2,
            answer_law=PointSimplex((0.4, 0.6)),
            confidence_noise=PointMass(0.7),
            m_max=500,
            seed=104,
        )

        expected_drift = (0.4 - 0.6) * math.log(0.3 / 0.7)  # +0.169459572...
        closed_minority = drift(minority)
        closed_converse = drift(converse)
        assert abs(closed_minority.mu[1] - expected_drift) <= 1e-12
        assert abs(closed_converse.mu[1] + expected_drift) <= 1e-12

        for config, closed in ((minority, closed_minority), (converse, closed_converse)):
            mc = genmodel._drift_monte_carlo(config, 40_000, np.random.default_rng(config.seed))
            assert abs(mc.mu[1] - closed.mu[1]) < 3 * mc.std_err[1], (mc, closed)

        minority_rows = concentration_experiment(minority, [500], trials=1000)
        assert minority_rows[0].success_freq >= 0.99, minority_rows[0]

        converse_rows = concentration_experiment(converse, [500], trials=1000)
        assert converse_rows[0].mean_mass_truth <= 0.05, converse_rows[0]

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"drift experiments took {elapsed:.1f}s"

    _verdict("criterion 3: realistic drift signs decide concentration", body)


def test_criterion_4_llr_posterior_path_identity():
    def body():
        # each simulated question goes round by round through the controller's kernel
        rng = np.random.default_rng(105)
        for trial in range(100):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(20, 61))
            if trial % 2 == 0:
                config = IdealGenConfig(k=k, confidence_law=Uniform(0.2, 0.9), m_max=m)
            else:
                probs = rng.dirichlet(np.ones(k))
                config = RealisticGenConfig(
                    k=k,
                    answer_law=PointSimplex(tuple(float(p) for p in probs / probs.sum())),
                    confidence_noise=Uniform(0.2, 0.9),
                    m_max=m,
                )
            truths, responses, confidences = draw_trials(config, m, 1, rng)
            truth = int(truths[0])
            others = [j for j in range(k) if j != truth]
            running = RunningPosterior(fixed_k=k, labels=range(k))
            llr = np.zeros(len(others))  # cumulative LLR of the truth over each competitor
            ratios, llrs = [], []
            for label, c in zip(responses[0].tolist(), confidences[0].tolist()):
                running.add(label, c)
                # log(C / theta): a round naming the truth adds it, one naming j subtracts it
                step = math.log(c) - math.log((1.0 - c) / (k - 1))
                llr += [step * ((label == truth) - (label == j)) for j in others]
                masses = running.masses
                ratios.append([masses[truth] / masses[j] for j in others])
                llrs.append(llr.copy())
            assert np.allclose(ratios, np.exp(llrs), rtol=1e-9), trial

    _verdict("criterion 4: posterior ratios equal exp(cumulative LLR) every round", body)


def test_criterion_5_minority_confident_fixture():
    def body():
        stream = {"q": [("a1", 0.9), ("a2", 0.2), ("a2", 0.2)]}

        def sampler(qid, rnd):
            return stream[qid][rnd - 1]

        majority = run(["q"], sampler, ControllerConfig(method=Method.SC, budget=3))
        assert majority.predictions["q"] == "a2"  # frequency vote is wrong

        config = ControllerConfig(method=Method.CGES, gamma=1.0, budget=3, fixed_k=3)
        bayes = run(["q"], sampler, config)
        assert bayes.predictions["q"] == "a1"
        mass = bayes.per_question_posterior["q"].masses["a1"]
        assert abs(mass - 0.144 / 0.154) <= 1e-6  # = 0.935064935...

    _verdict("criterion 5: confident minority answer beats the majority vote", body)


def test_criterion_6_controller_laws(tmp_path):
    def body():
        budget = 16

        # budget law on a second, independent random store
        extra_streams = random_streams(np.random.default_rng(1106), 200, budget)
        extra_store = build_replay_store(tmp_path / "laws2.jsonl", extra_streams)
        for gamma in (0.7, 0.9, 0.999):
            bounded = run(
                list(extra_streams),
                replay_sampler(extra_store, "lns_arith"),
                ControllerConfig(method=Method.CGES, gamma=gamma, budget=budget),
            )
            assert all(1 <= c <= budget for c in bounded.per_question_calls.values())

        rng = np.random.default_rng(106)
        streams = random_streams(rng, 200, budget)
        store = build_replay_store(tmp_path / "laws.jsonl", streams)
        sampler = replay_sampler(store, "lns_arith")
        qids = list(streams)

        # budget law + non-decreasing calls across the default threshold grid
        questions = [Question(qid, "", "ans0", AnswerFormat.BOXED_MATH) for qid in qids]
        spec = ExperimentSpec(
            questions=questions,
            methods=[ControllerConfig(method=Method.CGES, budget=budget)],
            seeds=(0,),
            store=store,
        )
        curve = sweep_gamma(spec)
        assert [p.gamma for p in curve] == list(DEFAULT_GAMMA_GRID)
        calls = [p.avg_calls for p in curve]
        assert all(c <= budget for c in calls)
        assert calls == sorted(calls), calls

        # gamma = 1.0 equals full-budget aggregation, question by question
        full = run(
            qids, sampler, ControllerConfig(method=Method.CGES, gamma=1.0, budget=budget)
        )
        for qid, stream in streams.items():
            assert full.per_question_calls[qid] == budget
            samples = [Sample(lab, conf, t + 1) for t, (lab, conf) in enumerate(stream)]
            reference = score(samples, CandidateSet.from_samples(samples)).top()[0]
            assert full.predictions[qid] == reference

        # SC uses exactly the budget
        majority = run(qids, sampler, ControllerConfig(method=Method.SC, budget=budget))
        assert all(c == budget for c in majority.per_question_calls.values())

        # ESC stops at the first fully agreeing window
        window = 4
        esc = run(
            qids, sampler, ControllerConfig(method=Method.ESC, esc_window=window, budget=budget)
        )
        for qid, stream in streams.items():
            labels = [lab for lab, _ in stream]
            expected = budget
            for stop in range(window, budget + 1, window):
                if len(set(labels[stop - window : stop])) == 1:
                    expected = stop
                    break
            assert esc.per_question_calls[qid] == expected, qid

    _verdict("criterion 6: controller budget, monotonicity, and baseline laws", body)


def test_criterion_7_confidence_estimators():
    def body():
        rng = np.random.default_rng(107)
        for _ in range(10_000):
            length = int(rng.integers(1, 24))
            if rng.random() < 0.1:
                probs = tuple([float(rng.uniform(0.05, 1.0))] * length)  # constant
            else:
                probs = tuple(float(p) for p in rng.uniform(0.05, 1.0, size=length))
            response = TokenizedResponse(probs)
            geo, arith = lns_geometric(response), lns_arithmetic(response)
            assert geo <= arith + 1e-12
            if max(probs) - min(probs) <= 1e-15:
                assert abs(arith - geo) <= 1e-12
            elif max(probs) - min(probs) > 1e-4:
                assert arith - geo > 1e-12

        for _ in range(2000):
            n_steps = int(rng.integers(1, 10))
            importance = [float(u) for u in rng.uniform(0.0, 4.0, size=n_steps)]
            assert math.fsum(mars_step_weights(importance)) == 1.0

        single_step = TokenizedResponse(tuple(float(p) for p in rng.uniform(0.1, 1.0, size=12)))
        assert abs(mars_stepwise([single_step], [3.0]) - lns_geometric(single_step)) <= 1e-12

        # hand-derived values
        assert abs(lns_geometric(TokenizedResponse((0.9, 0.4))) - 0.6) <= 1e-9
        assert abs(lns_arithmetic(TokenizedResponse((0.9, 0.4))) - 0.65) <= 1e-9
        skewed = mars_stepwise([TokenizedResponse((0.9,)), TokenizedResponse((0.4,))], [1.0, 0.0])
        assert abs(skewed - 0.9**0.75 * 0.4**0.25) <= 1e-9

    _verdict("criterion 7: estimator inequalities, weights, and hand values", body)


class _StubHandler(BaseHTTPRequestHandler):
    answers = {}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][0]["content"]
        answer = next(
            (ans for key, ans in self.answers.items() if key in prompt), "0"
        )
        seed = payload.get("seed", 0)
        logprobs = [-0.05 - (seed % 7) * 0.01, -0.2, -0.1]
        choice = {
            "message": {"role": "assistant", "content": f"Therefore \\boxed{{{answer}}}."},
            "logprobs": {"content": [{"token": "t", "logprob": lp} for lp in logprobs]},
        }
        body = json.dumps({"choices": [choice]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_criterion_8_replay_determinism(tmp_path):
    def body():
        _StubHandler.answers = {"alpha": "11", "beta": "22", "gamma": "33"}
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            endpoint = EndpointConfig(
                base_url=f"http://127.0.0.1:{server.server_port}",
                model_name="stub",
                request_timeout=5.0,
            )
            dataset_path = tmp_path / "dataset.jsonl"
            with dataset_path.open("w") as handle:
                for name, gold in (("alpha", "11"), ("beta", "22"), ("gamma", "33")):
                    handle.write(
                        json.dumps(
                            {
                                "id": name,
                                "prompt": f"question {name}",
                                "gold": gold,
                                "format": "boxed_math",
                            }
                        )
                        + "\n"
                    )

            store_path = tmp_path / "recorded.jsonl"
            prompts = {
                name: (f"question {name}", AnswerFormat.BOXED_MATH)
                for name in ("alpha", "beta", "gamma")
            }
            sampler = live_sampler(
                endpoint,
                prompts,
                store=RecordStore.open_record(store_path),
                base_seed=1,
            )
            config = ControllerConfig(method=Method.CGES, gamma=1.0, budget=3)
            live = run(list(prompts), sampler, config)
        finally:
            server.shutdown()
            server.server_close()

        # re-execution in replay mode matches the live run exactly
        replayed = run(
            list(prompts), replay_sampler(RecordStore.open_replay(store_path)), config
        )
        assert replayed == live

        # byte-identical prediction CSVs across executions and parallelism
        outputs = []
        for name, parallel in (("one.csv", "1"), ("two.csv", "1"), ("par.csv", "8")):
            out = tmp_path / name
            code = main(
                [
                    "replay",
                    "--dataset", str(dataset_path),
                    "--replay", str(store_path),
                    "--method", "cges",
                    "--gamma", "1.0",
                    "--budget", "3",
                    "--max-parallel", parallel,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    _verdict("criterion 8: record-then-replay runs are byte-identical", body)


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    def body():
        sim_out = tmp_path / "sim.csv"
        assert 0 == main(
            [
                "simulate",
                "--mode", "realistic",
                "--k", "2",
                "--answer-law", "point:0.4,0.6",
                "--confidence-law", "point:0.3",
                "--m-schedule", "1,10,50",
                "--trials", "50",
                "--out", str(sim_out),
            ]
        )
        sim_rows = read_csv_rows(sim_out)
        assert len(sim_rows) == 3
        assert set(sim_rows[0]) == {
            "m", "trials", "success_freq", "mean_mass_truth", "drift_1", "seed",
        }

        score_out = tmp_path / "score.csv"
        assert 0 == main(
            [
                "score",
                "--samples", str(FIXTURES / "minority_samples.jsonl"),
                "--out", str(score_out),
            ]
        )
        score_rows = read_csv_rows(score_out)
        assert set(score_rows[0]) == {"label", "mass"}
        assert len(score_rows) >= 2

        sweep_out = tmp_path / "curve.csv"
        assert 0 == main(
            [
                "sweep",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(FIXTURES / "mini_store.jsonl"),
                "--budget", "4",
                "--seeds", "0",
                "--out", str(sweep_out),
            ]
        )
        sweep_rows = read_csv_rows(sweep_out)
        assert set(sweep_rows[0]) == {"gamma", "avg_calls", "accuracy"}
        assert len(sweep_rows) == len(DEFAULT_GAMMA_GRID)

        replay_out = tmp_path / "predictions.csv"
        assert 0 == main(
            [
                "replay",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(FIXTURES / "mini_store.jsonl"),
                "--budget", "4",
                "--gamma", "0.95",
                "--out", str(replay_out),
            ]
        )
        replay_rows = read_csv_rows(replay_out)
        assert set(replay_rows[0]) == {
            "question_id", "prediction", "calls", "top_mass", "resolved",
        }
        assert [row["question_id"] for row in replay_rows] == ["q1", "q2", "q3", "q4"]
        capsys.readouterr()  # swallow the subcommand chatter

    _verdict("criterion 9: CLI subcommands succeed on the bundled fixtures", body)
