"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed.  The program under
test never sees the generators, only the files (or the stub server's replies)
they produce, so its outputs can be checked against the in-memory streams.

* ``replay_streams``   - per-question (label, confidence) streams for the
  replay study, a mix of easy, spread/low-confidence and minority-but-
  confident questions;
* ``write_replay_inputs`` - the dataset JSONL and a complete record store;
* ``live_questions`` / ``write_live_inputs`` - the live dataset and the
  stub's per-question answer and difficulty schedule;
* ``stub_reply``       - the stub server's deterministic answer, logprobs,
  latency and failure decision per (request seed, attempt).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

REPLAY_QUESTIONS = 300
REPLAY_ROUNDS = 64

# question mix of the replay study: (kind, share)
REPLAY_MIX = (("easy", 0.5), ("spread", 0.3), ("minority", 0.2))

LIVE_QUESTIONS = 96
STUB_LATENCY_MEDIAN_MS = 18.0
STUB_LATENCY_SIGMA = 0.35
STUB_FAIL_FRACTION = 0.02
STUB_TOKENS = 256

_STD_NORMAL = NormalDist()

TIMESTAMP = "2026-01-01T00:00:00+00:00"


@dataclass(frozen=True)
class ReplayQuestion:
    question_id: str
    kind: str
    gold: str
    stream: tuple[tuple[str, float], ...]


def replay_streams(seed: int) -> list[ReplayQuestion]:
    """The replay study's questions with their full 64-round sample streams."""
    rng = np.random.default_rng([seed, 0xC6E5])
    kinds = [kind for kind, share in REPLAY_MIX for _ in range(round(share * REPLAY_QUESTIONS))]
    rng.shuffle(kinds)
    questions = []
    for index, kind in enumerate(kinds):
        gold = str(int(rng.integers(10, 1000)))
        wrong = [str(int(v)) for v in rng.choice(np.arange(1000, 2000), size=4, replace=False)]
        labels, probs, conf_lo, conf_hi = _question_law(kind, gold, wrong, rng)
        picks = rng.choice(len(labels), size=REPLAY_ROUNDS, p=probs)
        lo, hi = conf_lo[picks], conf_hi[picks]
        confidences = lo + (hi - lo) * rng.random(REPLAY_ROUNDS)
        stream = tuple(
            (labels[p], float(c)) for p, c in zip(picks.tolist(), confidences.tolist())
        )
        questions.append(ReplayQuestion(f"q{index:03d}", kind, gold, stream))
    return questions


def _question_law(kind, gold, wrong, rng):
    """Answer probabilities and per-answer confidence ranges for one question.

    The last label is the parser's INVALID sentinel, drawn rarely with low
    confidence, so it competes as an ordinary candidate.
    """
    labels = [gold] + wrong[:3] + ["INVALID"]
    if kind == "easy":
        p_true = rng.uniform(0.7, 0.95)
        lo = [0.65, 0.2, 0.2, 0.2, 0.05]
        hi = [0.97, 0.6, 0.6, 0.6, 0.3]
    elif kind == "spread":
        p_true = rng.uniform(0.3, 0.45)
        lo = [0.2, 0.15, 0.15, 0.15, 0.05]
        hi = [0.55, 0.55, 0.55, 0.55, 0.3]
    else:  # minority: a confident minority against a timid majority
        p_true = rng.uniform(0.25, 0.4)
        lo = [0.8, 0.05, 0.2, 0.2, 0.05]
        hi = [0.97, 0.35, 0.5, 0.5, 0.3]
    p_invalid = 0.02
    rest = 1.0 - p_true - p_invalid
    if kind == "minority":
        shares = np.array([0.8, 0.1, 0.1])
    else:
        shares = rng.dirichlet([1.0, 1.0, 1.0])
    probs = np.concatenate([[p_true], rest * shares, [p_invalid]])
    return labels, probs / probs.sum(), np.array(lo), np.array(hi)


def write_replay_inputs(questions: list[ReplayQuestion], directory: Path) -> tuple[Path, Path]:
    """Write the dataset JSONL and the complete record store; return both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset = directory / "replay_dataset.jsonl"
    store = directory / "replay_store.jsonl"
    with dataset.open("w", encoding="utf-8") as handle:
        for q in questions:
            handle.write(json.dumps(_dataset_row(q.question_id, q.gold)) + "\n")
    with store.open("w", encoding="utf-8") as handle:
        for q in questions:
            for rnd, (label, confidence) in enumerate(q.stream, start=1):
                record = {
                    "question_id": q.question_id,
                    "round": rnd,
                    "prompt": _prompt(q.question_id),
                    "raw_text": f"Reasoning for round {rnd}. Therefore \\boxed{{{label}}}.",
                    "extracted_label": label,
                    "token_probs": None,
                    "step_importance": None,
                    "confidence_by_estimator": {"lns_arith": confidence},
                    "seed": 0,
                    "timestamp": TIMESTAMP,
                }
                handle.write(json.dumps(record) + "\n")
    return dataset, store


def _prompt(question_id: str) -> str:
    return f"Benchmark problem {question_id}: compute the requested value."


def _dataset_row(question_id: str, gold: str) -> dict:
    return {"id": question_id, "prompt": _prompt(question_id), "gold": gold, "format": "boxed_math"}


# ---------------------------------------------------------------------------
# live stub schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StubQuestion:
    """Per-question answer law the stub serves: gold, distractor, difficulty."""

    question_id: str
    gold: str
    distractor: str
    p_correct: float


def live_questions(seed: int) -> list[StubQuestion]:
    """The live questions; every seed gets the same spread of difficulties
    (evenly spaced, in shuffled order), so the work per pass varies little."""
    rng = np.random.default_rng([seed, 0x57AB])
    difficulty = np.linspace(0.45, 0.95, LIVE_QUESTIONS)
    rng.shuffle(difficulty)
    out = []
    for index, p_correct in enumerate(difficulty.tolist()):
        gold = str(int(rng.integers(10, 1000)))
        distractor = str(int(rng.integers(1000, 2000)))
        out.append(StubQuestion(f"l{index:03d}", gold, distractor, p_correct))
    return out


def write_live_inputs(questions: list[StubQuestion], directory: Path) -> tuple[Path, Path]:
    """Write the dataset JSONL the program reads and the stub's schedule file."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset = directory / "live_dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as handle:
        for q in questions:
            handle.write(json.dumps(_dataset_row(q.question_id, q.gold)) + "\n")
    schedule = directory / "stub_questions.json"
    schedule.write_text(json.dumps([asdict(q) for q in questions]), encoding="utf-8")
    return dataset, schedule


def _unit_draws(request_seed: int, attempt: int, count: int) -> np.ndarray:
    digest = hashlib.sha256(f"{request_seed}:{attempt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big")).random(count)


@dataclass(frozen=True)
class StubReply:
    status: int
    latency_ms: float
    correct: bool
    logprobs: tuple[float, ...]


def stub_reply(request_seed: int, attempt: int, p_correct: float) -> StubReply:
    """The stub's decision for one request: a pure function of its inputs.

    A first attempt fails with 503 for a deterministic ~2 % of request seeds;
    the retry of the same seed succeeds.  Latency is lognormal with an 18 ms
    median.  The answer is the gold one with probability ``p_correct``; token
    logprobs are higher for the gold answer, so confidence carries signal.
    """
    u = _unit_draws(request_seed, attempt, 4 + STUB_TOKENS)
    z = _STD_NORMAL.inv_cdf(min(max(float(u[0]), 1e-12), 1.0 - 1e-12))
    latency_ms = STUB_LATENCY_MEDIAN_MS * math.exp(STUB_LATENCY_SIGMA * z)
    if attempt == 0 and u[1] < STUB_FAIL_FRACTION:
        return StubReply(503, latency_ms, False, ())
    correct = bool(u[2] < p_correct)
    # mean token probability (the lns_arith confidence) near 0.72 when right,
    # near 0.55 when wrong, jittered per response
    target = (0.72 if correct else 0.55) + 0.1 * (float(u[3]) - 0.5)
    probs = np.clip(target + 0.4 * (u[4:] - 0.5), 0.01, 1.0)
    return StubReply(200, latency_ms, correct, tuple(np.log(probs).tolist()))
