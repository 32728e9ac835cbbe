"""Benchmark entry point.

    python3 bench/run.py --workload replay_study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/``; nothing needs installing.  Workloads: replay_study, live_stub,
simulate, or ``all`` (each in its own process, one after the other).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a span-traced run; the metric names are those of
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go under
``.bench_work/``; the spans of a traced run are written there too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("replay_study", "live_stub", "simulate")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics() -> dict[str, list[str]]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def import_program() -> None:
    """Import the package from this checkout's sources, and nowhere else."""
    if not (SRC / "cges" / "__init__.py").is_file():
        fail(f"no package sources at {SRC / 'cges'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cges

    if Path(cges.__file__).resolve().parent != (SRC / "cges").resolve():
        fail(f"imported cges from {cges.__file__}, not from {SRC}")


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds like an exception, so the stub server is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    declared = declared_metrics()
    import_program()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in declared["workloads"]:
        fail(f"workload {args.workload} is not declared in BENCHMARK.json")

    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_out = WORK / f"spans-{args.workload}.tsv"
    workload = workloads.WORKLOADS[args.workload](SRC, workdir, args.seed)
    try:
        outcome = workload.measure(args.seconds, bool(args.trace), trace_out)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    checks = outcome.checks
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if sorted(outcome.metrics) != sorted(wanted):
        fail(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(outcome.metrics))}, "
            f"extra {sorted(set(outcome.metrics) - set(wanted))}"
        )
    for line in outcome.report:
        print(line)
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    print(
        f"failed_frac {checks.failed / max(checks.attempted, 1):.6f} "
        f"({checks.failed} of {checks.attempted} checked operations)"
    )
    for name in wanted:
        value, unit = outcome.metrics[name]
        print(f"{name:34s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
                    for name in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
