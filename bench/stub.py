"""Local chat-completions stub server for the live_stub workload.

Run as its own process:

    python3 bench/stub.py --questions QUESTIONS.json

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` once it listens.
Every reply is decided by ``gen.stub_reply`` from the request's ``seed`` and
how many times that seed was seen before (the attempt), so a run is
reproducible: same latency, same 503s, same answers and logprobs.  A reply
is sent when its injected latency has passed since the request was read, so
the stub's own work hides inside the latency.

Besides ``POST /v1/chat/completions`` it serves ``GET /stats`` (one entry per
request served: seed, attempt, status, injected latency in ms) and
``POST /reset`` (forget attempts and the log, between benchmark passes).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

_QUESTION_ID = re.compile(r"Benchmark problem (\S+):")


class StubState:
    def __init__(self, questions: dict[str, gen.StubQuestion]) -> None:
        self.questions = questions
        self.lock = threading.Lock()
        self.attempts: dict[int, int] = {}
        self.log: list[tuple[int, int, int, float]] = []

    def next_attempt(self, seed: int) -> int:
        with self.lock:
            attempt = self.attempts.get(seed, 0)
            self.attempts[seed] = attempt + 1
            return attempt

    def served(self, seed: int, attempt: int, status: int, latency_ms: float) -> None:
        with self.lock:
            self.log.append((seed, attempt, status, latency_ms))

    def reset(self) -> None:
        with self.lock:
            self.attempts.clear()
            self.log.clear()


class StubHandler(BaseHTTPRequestHandler):
    # keep-alive connections, and no Nagle delay: with Nagle on, the body
    # written after the headers waits for the client's delayed ACK (~40 ms)
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: StubState

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            self.state.reset()
            self._send(200, b"{}")
            return
        arrived = time.perf_counter()
        payload = json.loads(raw)
        seed = int(payload["seed"])
        match = _QUESTION_ID.search(payload["messages"][0]["content"])
        question = self.state.questions[match.group(1)]
        attempt = self.state.next_attempt(seed)
        reply = gen.stub_reply(seed, attempt, question.p_correct)
        body = b'{"error": "overloaded"}'
        if reply.status == 200:
            answer = question.gold if reply.correct else question.distractor
            choice = {
                "index": 0,
                "message": {
                    "role": "assistant",
                    "content": f"Working through the problem. Therefore \\boxed{{{answer}}}.",
                },
                "logprobs": {
                    "content": [{"token": "t", "logprob": lp} for lp in reply.logprobs]
                },
            }
            body = json.dumps({"choices": [choice]}).encode()
        time.sleep(max(0.0, arrived + reply.latency_ms / 1000.0 - time.perf_counter()))
        self.state.served(seed, attempt, reply.status, reply.latency_ms)
        self._send(reply.status, body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        with self.state.lock:
            body = json.dumps({"log": self.state.log}).encode()
        self._send(200, body)

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--questions", type=Path, required=True)
    args = parser.parse_args()
    questions = {
        row["question_id"]: gen.StubQuestion(**row)
        for row in json.loads(args.questions.read_text(encoding="utf-8"))
    }
    StubHandler.state = StubState(questions)
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.daemon_threads = True
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
