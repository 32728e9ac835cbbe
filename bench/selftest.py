"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

Checks that the oracle agrees with ``cges.posterior.score`` on small random
cases, that the stub's schedule is deterministic (in ``gen`` and through the
running server), that ``HostClock`` samples the host during a block and puts
back the signal handler, and that the metric names the benchmark prints are
exactly those declared in ``BENCHMARK.json``.  Prints one PASS/FAIL line per test
and exits non-zero on any failure.
"""

from __future__ import annotations

import json
import random
import sys
import signal
import tempfile
import time
import traceback
import urllib.error
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from calibrate import INTERVAL_S, HostClock  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def test_oracle_matches_score() -> None:
    from cges.posterior import CandidateSet, Sample, score

    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 12)
        labels = [f"a{rng.randint(0, 3)}" for _ in range(n)]
        confidences = [rng.uniform(0.01, 0.99) for _ in range(n)]
        samples = [Sample(label, c, i + 1) for i, (label, c) in enumerate(zip(labels, confidences))]
        want = score(samples, CandidateSet.from_samples(samples))
        running = oracle.RunningPosterior()
        for label, c in zip(labels, confidences):
            running.add(label, c)
        masses, reserve = running.masses()
        assert list(masses) == list(want.labels), (masses, want.labels)
        for label, mass in masses.items():
            assert abs(mass - want.masses[label]) <= 1e-12 * max(1.0, mass), (label, mass, want)
        assert abs(reserve - want.virtual_mass) <= 1e-12, (reserve, want.virtual_mass)
        best, log_mass = running.top()
        assert best == want.top()[0]
        assert abs(log_mass - want.top_log_mass()) <= 1e-12


def test_oracle_baselines() -> None:
    stream = [("x", 0.5), ("y", 0.9), ("y", 0.9), ("x", 0.5)] + [("z", 0.5)] * 4
    assert oracle.sc(stream, 8) == oracle.Outcome("z", 8)
    assert oracle.sc(stream, 4) == oracle.Outcome("x", 4)  # tie: earliest label
    assert oracle.esc(stream, 4, 8) == oracle.Outcome("z", 8)
    assert oracle.esc(stream, 2, 8) == oracle.Outcome("x", 6)  # tie: earliest label
    assert oracle.cges([("x", 0.95)] * 3, 0.9, 3) == oracle.Outcome("x", 1)


def test_generators_deterministic() -> None:
    assert gen.replay_streams(3) == gen.replay_streams(3)
    assert gen.replay_streams(3) != gen.replay_streams(4)
    assert gen.live_questions(3) == gen.live_questions(3)
    for seed in range(200):
        assert gen.stub_reply(seed, 0, 0.7) == gen.stub_reply(seed, 0, 0.7)
    first = [gen.stub_reply(seed, 0, 0.7).status for seed in range(5000)]
    share = first.count(503) / len(first)
    assert 0.01 < share < 0.03, share
    assert all(gen.stub_reply(seed, 1, 0.7).status == 200 for seed in range(500))


def test_stub_server_deterministic() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        questions = gen.live_questions(5)
        _, schedule = gen.write_live_inputs(questions, Path(tmp))
        stub = workloads.StubProcess(schedule)
        try:
            payload = {
                "model": "stub",
                "messages": [{"role": "user", "content": f"Benchmark problem {questions[0].question_id}: x"}],
                "seed": 12345,
            }

            def ask() -> tuple[int, bytes]:
                request = urllib.request.Request(
                    stub.url + "/v1/chat/completions", data=json.dumps(payload).encode()
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        return response.status, response.read()
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.read()

            first = [ask(), ask()]
            log = stub.log()
            stub.reset()
            assert [ask(), ask()] == first
            expected = [gen.stub_reply(12345, attempt, questions[0].p_correct) for attempt in (0, 1)]
            assert [status for status, _ in first] == [reply.status for reply in expected]
            # the log exposes the injected latency of every request served
            for attempt, (entry, reply) in enumerate(zip(log, expected)):
                assert entry == [12345, attempt, reply.status, reply.latency_ms]
        finally:
            stub.close()


def test_host_clock() -> None:
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        end = time.perf_counter() + 5 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) >= 4, clock.samples  # before, after and timer samples
    assert 0.0 < clock.handler_s < clock.wall_s
    assert clock.scaled_s == (clock.wall_s - clock.handler_s) * clock.speed


def test_metric_names_match_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = set(layer_metrics(SpanRecorder(), 1, [])) | {"trace.overhead_s"}
    assert layer == {m["name"] for m in spec["per_layer"]}, layer ^ {m["name"] for m in spec["per_layer"]}
    assert {"setup_s", "run_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS: {name}")
            except Exception:  # noqa: BLE001 - report every failing test
                failures += 1
                print(f"FAIL: {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
