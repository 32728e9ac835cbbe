"""The three benchmark workloads.

Each workload generates its inputs from the seed, measures a cold set-up
several times (median reported), runs a warm-up pass, then repeats timed
passes of the same work (for live_stub, of fresh draws; see below) until the
time is up, and checks every pass's outputs; the median pass is reported.  Set-ups and the passes of the CPU-bound workloads
are timed with ``HostClock`` (``calibrate.py``), which divides the shared
host's speed out; live_stub mostly waits on the stub's fixed latencies, so its
passes are timed as measured.  Passes run untraced for the end-to-end metrics.
In a traced run, untraced and traced passes alternate: the traced ones give
the per-layer metrics (median over traced passes), the pair gives the
tracing overhead.

* replay_study - method comparison plus the default gamma sweep over a
  complete 300 x 64 record store; the sampler is a dict lookup, so the time
  is posterior rescoring, controller rounds and harness repetition.
* live_stub - closed loop, 2 workers each waiting for its reply: cges
  (gamma 0.9, budget 16) on 96 questions against the stub server in its own
  process; the time is waiting, HTTP, parsing, confidence and store appends.
  Each pass asks with its own base seed, so it draws its own answers: the
  number of calls cges makes spreads ~7 % (IQR / median over 40 draws), and
  the median pass of a run averages over several draws.  (A
  traced run gives its untraced and traced pass of a pair the same draw.)
* simulate - the README concentration experiment plus an ideal-regime run;
  only the simulator and numpy run.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen
import oracle
from calibrate import HostClock
from layers import install, key_note, layer_metrics
from spans import SpanRecorder, recording

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# the default 9-point threshold grid the sweep must report, ascending
SWEEP_GRID = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99, 0.999, 0.9999)
REPLAY_BUDGET = 64
ESC_WINDOW = 4
COMPARE_GAMMA = 0.9
LIVE_GAMMA = 0.9
LIVE_BUDGET = 16
LIVE_WORKERS = 2
# the tail percentile of sampler-call latency; a live run keeps measuring
# until at least ten calls lie beyond it
TAIL_PERCENTILE = 99.0
TAIL_MIN_CALLS = 1000
SIM_M_SCHEDULE = (1, 10, 100, 500)
SIM_TRIALS = 500


@dataclass
class Checks:
    """Counts checked operations; a mismatch is recorded, never raised."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass
class Outcome:
    checks: Checks
    metrics: dict[str, tuple[float, str]]
    report: list[str]


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def _setup_probe(src: Path, workload: str, *paths: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(src), workload, *map(str, paths)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Workload:
    """Template: prepare inputs, set up, then timed passes."""

    name = ""
    workers = 1
    # passes keep a core busy, so their time is rescaled to a quiet host
    rescale = True

    def __init__(self, src: Path, workdir: Path, seed: int) -> None:
        self.src = src
        self.workdir = workdir
        self.seed = seed
        self.checks = Checks()
        self.speeds: list[float] = []  # HostClock speed of each rescaled pass
        # which draw of the inputs a pass runs; only live_stub draws anew
        self.draw = 0

    # subclasses provide these three
    def setup_once(self) -> float:
        """One cold set-up of the program, in seconds rescaled to a quiet host."""
        raise NotImplementedError

    def run_pass(self, recorder: Optional[SpanRecorder]) -> dict[str, float]:
        """One timed pass; returns its phase times, in order, and keeps its outputs."""
        raise NotImplementedError

    def check_pass(self) -> None:
        """Check the last pass's outputs; runs with no span recorder installed."""
        raise NotImplementedError

    def start(self) -> None:
        """Untimed set-up of the measuring process itself."""

    def enough(self, passes: list[dict[str, float]]) -> bool:
        return len(passes) >= 3

    def summary(self, passes: list[dict[str, float]]) -> list[str]:
        """Workload-specific figures printed before the metrics."""
        return []

    def stub_log(self) -> list:
        return []

    def close(self) -> None:
        pass

    # -- measuring -----------------------------------------------------------

    def measure(self, seconds: float, traced: bool, trace_out: Path) -> Outcome:
        if traced:
            self.start()
            return self._measure_traced(seconds, trace_out)
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        self.start()
        deadline = time.perf_counter() + seconds
        self.run_pass(None)  # warm-up
        # high-water mark after set-up and one pass; later passes repeat the
        # same kind of work, and reading it here keeps thread and allocator churn of
        # a variable number of passes out of it, and reading it before the
        # pass is checked keeps out the check's copies of the pass's records
        peak_rss_mb = _peak_rss_mb()
        self.check_pass()
        passes: list[dict[str, float]] = []
        walls: list[float] = []
        while time.perf_counter() < deadline or not self.enough(passes):
            self.draw += 1
            passes.append(self.timed_pass(walls))
        report = self.summary(passes)
        totals = [sum(p.values()) for p in passes]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(totals), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.insert(
            0,
            f"passes: {len(passes)} after 1 warm-up, wall s each: "
            f"{' '.join(f'{w:.3f}' for w in walls)}",
        )
        if self.rescale:
            report.insert(1, f"rescaled s each: {' '.join(f'{t:.3f}' for t in totals)}")
            report.insert(1, f"host speed each: {' '.join(f'{v:.3f}' for v in self.speeds)}")
        report.insert(1, f"setup_s each: {' '.join(f'{s:.3f}' for s in setups)}")
        return Outcome(self.checks, metrics, report)

    def plain_pass(self) -> dict[str, float]:
        timings = self.run_pass(None)
        self.check_pass()
        return timings

    def timed_pass(self, walls: list[float]) -> dict[str, float]:
        """One untraced pass; appends its wall time to ``walls`` and returns
        its phase times, rescaled to a quiet host when ``rescale`` is set."""
        if not self.rescale:
            timings = self.plain_pass()
            walls.append(sum(timings.values()))
            return timings
        with HostClock() as clock:
            timings = self.run_pass(None)
        self.check_pass()
        walls.append(clock.wall_s)
        self.speeds.append(clock.speed)
        factor = clock.scaled_s / clock.wall_s
        return {phase: t * factor for phase, t in timings.items()}

    def _measure_traced(self, seconds: float, trace_out: Path) -> Outcome:
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict[str, float]] = []
        deadline = time.perf_counter() + seconds
        self.plain_pass()  # warm-up, as in an untraced run
        while time.perf_counter() < deadline or not traced:
            self.draw += 1  # the untraced and the traced pass of a pair run one draw
            plain.append(sum(self.plain_pass().values()))
            with recording(install) as recorder:
                traced.append(sum(self.run_pass(recorder).values()))
            self.check_pass()
            layers.append(layer_metrics(recorder, self.workers, self.stub_log()))
            last = recorder
        last.write_tsv(trace_out, f"{self.name}-seed{self.seed}")
        metrics = {
            key: (statistics.median([layer[key][0] for layer in layers]), layers[0][key][1])
            for key in layers[0]
        }
        overhead = statistics.median(t - u for u, t in zip(plain, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        covered = sum(metrics[f"{layer}.self_s"][0] for layer in ("posterior", "controller", "harness"))
        report = [
            f"passes: {len(plain)} untraced + {len(traced)} traced, alternating",
            f"untraced run_s {statistics.median(plain):.4f} s, traced run_s "
            f"{statistics.median(traced):.4f} s (median passes)",
            f"posterior + controller + harness self time: {covered:.4f} s "
            f"({covered / statistics.median(traced):.1%} of the median traced pass)",
            f"spans of the last traced pass: {len(last)} -> {trace_out}",
        ]
        return Outcome(self.checks, metrics, report)


# ---------------------------------------------------------------------------
# replay study
# ---------------------------------------------------------------------------


class ReplayStudy(Workload):
    name = "replay_study"

    def __init__(self, src: Path, workdir: Path, seed: int) -> None:
        super().__init__(src, workdir, seed)
        self.questions = gen.replay_streams(seed)
        self.dataset_path, self.store_path = gen.write_replay_inputs(self.questions, workdir)
        self.expected = self._oracle()

    def _oracle(self) -> dict[str, dict[str, oracle.Outcome]]:
        """Per configuration label: question id -> oracle outcome."""
        out = {
            "sc": {q.question_id: oracle.sc(q.stream, REPLAY_BUDGET) for q in self.questions},
            "esc": {
                q.question_id: oracle.esc(q.stream, ESC_WINDOW, REPLAY_BUDGET)
                for q in self.questions
            },
        }
        for gamma in SWEEP_GRID:  # includes COMPARE_GAMMA
            out[f"cges@{gamma}"] = {
                q.question_id: oracle.cges(q.stream, gamma, REPLAY_BUDGET) for q in self.questions
            }
        return out

    def _aggregate(self, key: str) -> tuple[float, float]:
        """(avg_calls, accuracy) the oracle predicts for one configuration."""
        outcomes = self.expected[key]
        gold = {q.question_id: q.gold for q in self.questions}
        calls = sum(o.calls for o in outcomes.values()) / len(outcomes)
        acc = sum(o.prediction == gold[qid] for qid, o in outcomes.items()) / len(outcomes)
        return calls, acc

    def setup_once(self) -> float:
        return _setup_probe(self.src, self.name, self.dataset_path, self.store_path)

    def start(self) -> None:
        from cges import harness, llmclient
        from cges.controller import ControllerConfig, Method

        self.store = llmclient.RecordStore.open_replay(self.store_path)
        self.dataset = harness.load_dataset(self.dataset_path)
        self.configs = {
            "sc": ControllerConfig(method=Method.SC, budget=REPLAY_BUDGET),
            "esc": ControllerConfig(method=Method.ESC, budget=REPLAY_BUDGET, esc_window=ESC_WINDOW),
            f"cges@{COMPARE_GAMMA}": ControllerConfig(
                method=Method.CGES, gamma=COMPARE_GAMMA, budget=REPLAY_BUDGET
            ),
        }
        self.spec = harness.ExperimentSpec(
            questions=self.dataset, methods=list(self.configs.values()), store=self.store
        )
        self._check_per_question()

    def _check_per_question(self) -> None:
        """Every question's prediction and call count, for every configuration."""
        from cges import controller, llmclient
        from cges.controller import ControllerConfig, Method

        configs = dict(self.configs)
        for gamma in SWEEP_GRID:
            configs[f"cges@{gamma}"] = ControllerConfig(
                method=Method.CGES, gamma=gamma, budget=REPLAY_BUDGET
            )
        qids = [q.question_id for q in self.questions]
        for key, config in configs.items():
            result = controller.run(qids, llmclient.replay_sampler(self.store), config)
            for qid, want in self.expected[key].items():
                self.checks.expect(
                    result.predictions.get(qid) == want.prediction
                    and result.per_question_calls.get(qid) == want.calls,
                    f"{key} {qid}: got ({result.predictions.get(qid)!r}, "
                    f"{result.per_question_calls.get(qid)}) want "
                    f"({want.prediction!r}, {want.calls})",
                )

    def run_pass(self, recorder: Optional[SpanRecorder]) -> dict[str, float]:
        from cges import harness, llmclient

        if recorder is not None:
            # a store load per traced pass, outside the timed region
            llmclient.RecordStore.open_replay(self.store_path)
        start = time.perf_counter()
        report = harness.compare_methods(self.spec)
        middle = time.perf_counter()
        curve = harness.sweep_gamma(self.spec)
        end = time.perf_counter()
        self.outputs = (report, curve)
        return {"compare_s": middle - start, "sweep_s": end - middle}

    def check_pass(self) -> None:
        report, curve = self.outputs
        for row, key in zip(report.rows, self.configs):
            calls, acc = self._aggregate(key)
            self.checks.expect(
                _close(row.avg_calls, calls) and _close(row.accuracy, acc),
                f"compare row {row.method}: got ({row.avg_calls}, {row.accuracy}) "
                f"want ({calls}, {acc})",
            )
        self.checks.expect(len(report.rows) == len(self.configs), "compare row count")
        self.checks.expect(
            tuple(point.gamma for point in curve) == SWEEP_GRID, "sweep grid differs"
        )
        for point in curve:
            calls, acc = self._aggregate(f"cges@{point.gamma}")
            self.checks.expect(
                _close(point.avg_calls, calls) and _close(point.accuracy, acc),
                f"curve point {point.gamma}: got ({point.avg_calls}, {point.accuracy}) "
                f"want ({calls}, {acc})",
            )

    def summary(self, passes):
        compare_s = statistics.median(p["compare_s"] for p in passes)
        sweep_s = statistics.median(p["sweep_s"] for p in passes)
        return [
            f"compare_s {compare_s:.4f} s (median, rescaled)",
            f"sweep_s {sweep_s:.4f} s (median, rescaled)",
        ]


# ---------------------------------------------------------------------------
# live stub
# ---------------------------------------------------------------------------


class StubProcess:
    """The stub server in its own process; ``close`` stops it and waits."""

    def __init__(self, schedule: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--questions", str(schedule)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def reset(self) -> None:
        request = urllib.request.Request(self.url + "/reset", data=b"", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()

    def log(self) -> list:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.loads(response.read())["log"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class LiveStub(Workload):
    name = "live_stub"
    workers = LIVE_WORKERS
    rescale = False

    def __init__(self, src: Path, workdir: Path, seed: int) -> None:
        super().__init__(src, workdir, seed)
        self.questions = {q.question_id: q for q in gen.live_questions(seed)}
        self.dataset_path, self.schedule_path = gen.write_live_inputs(
            list(self.questions.values()), workdir
        )
        self.stub: Optional[StubProcess] = None
        # over the untraced passes: sampler-call latencies in ms, and HTTP
        # requests the stub served
        self.latencies_ms: list[float] = []
        self.requests = 0
        self.pass_index = 0
        self._log: list = []

    def setup_once(self) -> float:
        # the stub starts in its own process; this one samples the host meanwhile
        with HostClock() as clock:
            stub = StubProcess(self.schedule_path)
        stub.close()
        stub_s = clock.scaled_s
        fresh = self.workdir / "setup_store.jsonl"
        return stub_s + _setup_probe(self.src, self.name, self.dataset_path, fresh)

    def start(self) -> None:
        from cges import harness, llmclient
        from cges.controller import ControllerConfig, Method

        self.stub = StubProcess(self.schedule_path)
        dataset = harness.load_dataset(self.dataset_path)
        self.qids = [q.question_id for q in dataset]
        self.prompts = {q.question_id: (q.prompt, q.format) for q in dataset}
        self.endpoint = llmclient.EndpointConfig(
            base_url=self.stub.url, model_name="stub", request_timeout=30.0
        )
        self.config = ControllerConfig(
            method=Method.CGES, gamma=LIVE_GAMMA, budget=LIVE_BUDGET, max_parallel=LIVE_WORKERS
        )

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    def stub_log(self) -> list:
        return self._log

    def enough(self, passes) -> bool:
        return len(passes) >= 3 and len(self.latencies_ms) >= TAIL_MIN_CALLS

    def run_pass(self, recorder: Optional[SpanRecorder]) -> dict[str, float]:
        from cges import controller, llmclient

        self.pass_index += 1
        path = self.workdir / f"record-{self.pass_index}.jsonl"
        self.stub.reset()
        store = llmclient.RecordStore.open_record(path)
        live = llmclient.live_sampler(
            self.endpoint, self.prompts, store=store, base_seed=self.seed * 1000 + self.draw
        )
        if recorder is not None:
            live = recorder.wrap("sampler.live", live, note=key_note)
        latencies: list[float] = []

        def sampler(question_id, round_idx):
            begin = time.perf_counter()
            try:
                return live(question_id, round_idx)
            finally:
                latencies.append((time.perf_counter() - begin) * 1000.0)

        start = time.perf_counter()
        result = controller.run(self.qids, sampler, self.config)
        elapsed = time.perf_counter() - start
        self._log = self.stub.log()
        if recorder is None:
            self.latencies_ms.extend(latencies)
            self.requests += len(self._log)
        self.outputs = (result, path, len(latencies))
        return {"run_s": elapsed}

    def check_pass(self) -> None:
        from cges import controller, llmclient

        result, path, calls = self.outputs

        replayed = controller.run(
            self.qids,
            llmclient.replay_sampler(llmclient.RecordStore.open_replay(path)),
            self.config,
        )
        self.checks.expect(replayed == result, "record -> replay RunResult differs")
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        self.checks.expect(
            len(records) == calls == sum(result.per_question_calls.values()),
            f"{len(records)} stored records for {calls} sampler calls",
        )
        served = {seed: attempt for seed, attempt, status, _ in self._log if status == 200}
        for record in records:
            question = self.questions[record["question_id"]]
            attempt = served.get(record["seed"])
            if attempt is None:
                self.checks.expect(False, f"record {record['question_id']} seed never served")
                continue
            reply = gen.stub_reply(record["seed"], attempt, question.p_correct)
            label = question.gold if reply.correct else question.distractor
            probs = [min(max(math.exp(lp), 1e-300), 1.0) for lp in reply.logprobs]
            confidence = min(max(math.fsum(probs) / len(probs), 1e-6), 1.0 - 1e-6)
            got = record["confidence_by_estimator"].get("lns_arith", -1.0)
            self.checks.expect(
                record["extracted_label"] == label and abs(got - confidence) <= 1e-9,
                f"record {record['question_id']} round {record['round']}: got "
                f"({record['extracted_label']!r}, {got}) want ({label!r}, {confidence})",
            )
        path.unlink()

    def summary(self, passes):
        latencies = self.latencies_ms
        p50 = _percentile(latencies, 50.0)
        tail = _percentile(latencies, TAIL_PERCENTILE)
        beyond = sum(v > tail for v in latencies)
        requests = self.requests
        return [
            f"sample_p50_ms {p50:.4f} ms over {len(latencies)} sampler calls",
            f"sample_tail_ms {tail:.4f} ms = p{TAIL_PERCENTILE:g} over "
            f"{len(latencies)} sampler calls ({beyond} beyond it)",
            f"requests_per_sample {requests / len(latencies):.4f} "
            f"({requests} requests served / {len(latencies)} samples)",
        ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class Simulate(Workload):
    name = "simulate"

    def __init__(self, src: Path, workdir: Path, seed: int) -> None:
        super().__init__(src, workdir, seed)
        self.first_rows = None

    def setup_once(self) -> float:
        return _setup_probe(self.src, self.name)

    def start(self) -> None:
        from cges import genmodel as g

        self.realistic = g.RealisticGenConfig(
            k=2,
            answer_law=g.PointSimplex((0.4, 0.6)),
            confidence_noise=g.PointMass(0.3),
            m_max=max(SIM_M_SCHEDULE),
            seed=self.seed,
        )
        self.ideal = g.IdealGenConfig(
            k=4, confidence_law=g.Uniform(0.55, 0.95), m_max=max(SIM_M_SCHEDULE), seed=self.seed
        )
        # ideal regime: E[(C - theta) log(C / theta)] over C ~ U(0.55, 0.95), K = 4,
        # and the Monte Carlo standard errors of the estimate the experiment makes
        self.ideal_drift = _ideal_drift(0.55, 0.95, 4)
        self.ideal_std_err = g.drift(
            self.ideal, rng=np.random.default_rng([self.seed, 0x5EED])
        ).std_err

    def run_pass(self, recorder: Optional[SpanRecorder]) -> dict[str, float]:
        from cges import genmodel

        start = time.perf_counter()
        realistic = genmodel.concentration_experiment(self.realistic, SIM_M_SCHEDULE, SIM_TRIALS)
        middle = time.perf_counter()
        ideal = genmodel.concentration_experiment(self.ideal, SIM_M_SCHEDULE, SIM_TRIALS)
        end = time.perf_counter()
        self.outputs = (realistic, ideal)
        return {"realistic_s": middle - start, "ideal_s": end - middle}

    def check_pass(self) -> None:
        realistic, ideal = self.outputs
        expect = self.checks.expect
        # realistic regime, closed form: (P_0 - P_1) * log(c / theta), theta = (1 - c)/(K - 1)
        c = 0.3
        closed = (0.4 - 0.6) * (math.log(c) - math.log((1.0 - c) / (2 - 1)))
        for row in realistic:
            expect(_close(row.drift[1], closed), f"realistic drift {row.drift[1]} != {closed}")
        for j, mu in ideal[0].drift.items():
            expect(
                abs(mu - self.ideal_drift) <= 5.0 * self.ideal_std_err[j] and mu > 0.0,
                f"ideal drift vs {j}: {mu} is not within 5 std errors of {self.ideal_drift}",
            )
        # positive drift: the posterior mass on the truth grows with m
        for rows in (realistic, ideal):
            expect(
                rows[-1].mean_mass_truth > rows[0].mean_mass_truth
                and rows[-1].success_freq > rows[0].success_freq,
                f"no concentration: m={rows[0].m} {rows[0].mean_mass_truth} -> "
                f"m={rows[-1].m} {rows[-1].mean_mass_truth}",
            )
            expect([r.m for r in rows] == list(SIM_M_SCHEDULE), "m schedule differs")
        rows = (realistic, ideal)
        if self.first_rows is None:
            self.first_rows = rows
        expect(rows == self.first_rows, "simulation rows differ between passes of one seed")


def _ideal_drift(lo: float, hi: float, k: int, steps: int = 20_000) -> float:
    """Simpson's rule for the mean of (c - theta) log(c / theta) over U(lo, hi)."""

    def f(c: float) -> float:
        theta = (1.0 - c) / (k - 1)
        return (c - theta) * (math.log(c) - math.log(theta))

    h = (hi - lo) / steps
    total = f(lo) + f(hi)
    total += 4.0 * math.fsum(f(lo + (2 * i - 1) * h) for i in range(1, steps // 2 + 1))
    total += 2.0 * math.fsum(f(lo + 2 * i * h) for i in range(1, steps // 2))
    return total * h / 3.0 / (hi - lo)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "replay_study": ReplayStudy,
    "live_stub": LiveStub,
    "simulate": Simulate,
}
