"""Command-line interface.

Subcommands:
  simulate  run generator concentration experiments, emit a CSV table
  score     one-shot posterior over a JSONL file of (label, confidence) samples
  run       compare methods (sc / esc / cges) over a dataset, emit a comparison CSV
  sweep     sweep the stopping threshold over a grid, emit a curve CSV
  replay    re-execute one method from a record store, emit per-question predictions
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from . import harness
from .confidence import Estimator
from .controller import ControllerConfig, Method, run as run_controller
from .errors import CGESError, ConfigurationError
from .llmclient import EndpointConfig, RecordStore, read_jsonl, replay_sampler
from .posterior import RunningPosterior

ESTIMATOR_FLAGS = {
    "lns-arith": Estimator.LNS_ARITHMETIC,
    "lns-geo": Estimator.LNS_GEOMETRIC,
    "mars": Estimator.MARS_STEPWISE,
    "rm": Estimator.REWARD_PASSTHROUGH,
}


def _parse_k_policy(text: str) -> Optional[int]:
    """"observed+virtual" -> None, "fixed:K" -> K."""
    if text == "observed+virtual":
        return None
    if text.startswith("fixed:"):
        return int(text.split(":", 1)[1])
    raise argparse.ArgumentTypeError(
        f"k policy must be 'observed+virtual' or 'fixed:K', got {text!r}"
    )


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cges", description=__doc__)
    # no flag prefixes: `sweep --gamma` must fail, not bind to `--gamma-grid`
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    sim = sub.add_parser("simulate", help="generator concentration experiments")
    sim.add_argument("--mode", choices=["ideal", "realistic"], default="ideal")
    sim.add_argument("--k", type=int, default=2)
    sim.add_argument("--confidence-law", default="uniform:0.55,0.95")
    sim.add_argument("--answer-law", default="point:0.5,0.5", help="realistic mode only")
    sim.add_argument("--m-schedule", type=_parse_int_list, default=[1, 5, 25, 100])
    sim.add_argument("--trials", type=int, default=200)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=Path, required=True)
    sim.set_defaults(handler=cmd_simulate)

    sco = sub.add_parser("score", help="posterior over a JSONL of samples")
    sco.add_argument("--samples", type=Path, required=True)
    sco.add_argument("--k-policy", type=_parse_k_policy, default=None)
    sco.add_argument("--out", type=Path, default=None)
    sco.set_defaults(handler=cmd_score)

    cmp_ = sub.add_parser("run", help="compare methods over a dataset")
    _add_source_flags(cmp_)
    cmp_.add_argument("--gamma", type=float, default=0.9)
    cmp_.add_argument("--window", type=int, default=4)
    cmp_.add_argument(
        "--method",
        action="append",
        choices=["sc", "esc", "cges"],
        help="repeatable; defaults to sc,esc,cges",
    )
    cmp_.add_argument("--out", type=Path, default=None)
    cmp_.set_defaults(handler=cmd_run)

    swp = sub.add_parser("sweep", help="stopping-threshold sweep")
    _add_source_flags(swp)
    swp.add_argument(
        "--gamma-grid",
        type=_parse_float_list,
        default=list(harness.DEFAULT_GAMMA_GRID),
    )
    swp.add_argument("--out", type=Path, required=True)
    swp.set_defaults(handler=cmd_sweep)

    rep = sub.add_parser("replay", help="re-execute one method from a record store")
    rep.add_argument("--dataset", type=Path, required=True)
    rep.add_argument("--replay", type=Path, required=True)
    rep.add_argument("--method", choices=["sc", "esc", "cges"], default="cges")
    rep.add_argument("--gamma", type=float, default=0.9)
    rep.add_argument("--budget", type=int, default=16)
    rep.add_argument("--window", type=int, default=4)
    rep.add_argument("--estimator", choices=sorted(ESTIMATOR_FLAGS), default="lns-arith")
    rep.add_argument("--k-policy", type=_parse_k_policy, default=None)
    rep.add_argument("--max-parallel", type=int, default=1)
    rep.add_argument("--out", type=Path, required=True)
    rep.set_defaults(handler=cmd_replay)

    return parser


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", type=Path, required=True)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--replay", type=Path, help="replay store path")
    source.add_argument("--endpoint-config", type=Path, help="endpoint JSON config")
    parser.add_argument(
        "--record", type=Path, help="record live samples to this store; needs --endpoint-config"
    )
    parser.add_argument("--budget", type=int, default=16)
    parser.add_argument("--estimator", choices=sorted(ESTIMATOR_FLAGS), default="lns-arith")
    parser.add_argument("--k-policy", type=_parse_k_policy, default=None)
    parser.add_argument(
        "--seeds",
        type=_parse_int_list,
        default=list(harness.DEFAULT_SEEDS),
        help="base seeds to average over; live endpoints only, a replay runs once",
    )
    parser.add_argument("--max-parallel", type=int, default=1)


def _build_spec(args: argparse.Namespace, methods: list[ControllerConfig]) -> harness.ExperimentSpec:
    if args.replay is not None and args.record is not None:
        raise ConfigurationError(
            "--record captures live samples and cannot be combined with --replay"
        )
    questions = harness.load_dataset(args.dataset)
    store = endpoint = record_store = None
    if args.replay is not None:
        store = _open_replay(args, questions)
    else:
        endpoint = EndpointConfig.from_json_file(args.endpoint_config)
        if args.record is not None:
            record_store = RecordStore.open_record(args.record)
    return harness.ExperimentSpec(
        questions=questions,
        methods=methods,
        gamma_grid=getattr(args, "gamma_grid", list(harness.DEFAULT_GAMMA_GRID)),
        seeds=args.seeds,
        estimator=ESTIMATOR_FLAGS[args.estimator],
        store=store,
        endpoint=endpoint,
        record_store=record_store,
    )


def _open_replay(args: argparse.Namespace, questions: list[harness.Question]) -> RecordStore:
    """The replay store, refused before round 1 if a record of these questions
    lacks the chosen estimator's confidence."""
    store = RecordStore.open_replay(args.replay)
    store.require_estimator([q.question_id for q in questions], ESTIMATOR_FLAGS[args.estimator])
    return store


def _method_config(name: str, args: argparse.Namespace) -> ControllerConfig:
    return ControllerConfig(
        method=Method(name),
        gamma=args.gamma,
        budget=args.budget,
        esc_window=args.window,
        fixed_k=args.k_policy,
        max_parallel=args.max_parallel,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import genmodel  # numpy; no other command loads it

    # at least 1, so a bad schedule entry is named by the experiment, not as m_max
    m_max = max([1, *args.m_schedule])
    if args.mode == "ideal":
        config: genmodel.GenConfig = genmodel.IdealGenConfig(
            k=args.k,
            confidence_law=genmodel.parse_scalar_law(args.confidence_law),
            m_max=m_max,
            seed=args.seed,
        )
    else:
        config = genmodel.RealisticGenConfig(
            k=args.k,
            answer_law=genmodel.parse_simplex_law(args.answer_law),
            confidence_noise=genmodel.parse_scalar_law(args.confidence_law),
            m_max=m_max,
            seed=args.seed,
        )
    rows = genmodel.concentration_experiment(config, args.m_schedule, args.trials)
    genmodel.write_concentration_csv(rows, args.out)
    for row in rows:
        print(
            f"m={row.m:<6d} success={row.success_freq:.4f} "
            f"mean_mass_truth={row.mean_mass_truth:.4f}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    posterior = RunningPosterior(args.k_policy)
    for line_no, raw in read_jsonl(args.samples):
        try:
            label = harness.label_field(raw, "label")
            # round is checked, not read: the posterior does not depend on it
            confidence, round_idx = raw["confidence"], raw.get("round", 1)
            # the record store's type rule: exact numbers, so a string or a bool fails
            if type(confidence) not in (int, float):
                raise TypeError(f"'confidence' must be a number, got {confidence!r}")
            if type(round_idx) is not int or round_idx < 1:
                raise TypeError(f"'round' must be an integer >= 1, got {round_idx!r}")
            posterior.add(label, confidence)  # a fixed K too small fails on this line
        except KeyError as exc:
            raise ConfigurationError(
                f"{args.samples}:{line_no}: sample record lacks field {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{args.samples}:{line_no}: bad sample record: {exc}"
            ) from exc
    label, mass = posterior.top()
    masses, virtual_mass = posterior.masses, posterior.virtual_mass
    for candidate, candidate_mass in masses.items():
        print(f"{candidate}\t{candidate_mass:.6f}")
    if virtual_mass > 0.0:
        print(f"(virtual)\t{virtual_mass:.6f}")
    print(f"top: {label} ({mass:.6f})")
    if args.out is not None:
        import csv as _csv

        with args.out.open("w", encoding="utf-8", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["label", "mass"])
            writer.writerows(masses.items())
            if virtual_mass > 0.0:
                writer.writerow(["(virtual)", virtual_mass])
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    names = args.method or ["sc", "esc", "cges"]
    methods = [_method_config(name, args) for name in names]
    spec = _build_spec(args, methods)
    report = harness.compare_methods(spec)
    print(harness.summarize_report(report))
    if args.out is not None:
        harness.write_comparison_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = ControllerConfig(
        method=Method.CGES,
        budget=args.budget,
        fixed_k=args.k_policy,
        max_parallel=args.max_parallel,
    )
    spec = _build_spec(args, [base])
    if not args.gamma_grid:
        print("warning: empty gamma grid, emitting an empty curve", file=sys.stderr)
    curve = harness.sweep_gamma(spec)
    harness.write_curve_csv(curve, args.out)
    for point in curve:
        print(f"gamma={point.gamma:<8g} avg_calls={point.avg_calls:.3f} accuracy={point.accuracy:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    questions = harness.load_dataset(args.dataset)
    store = _open_replay(args, questions)
    config = _method_config(args.method, args)
    sampler = replay_sampler(store, ESTIMATOR_FLAGS[args.estimator])
    result = run_controller([q.question_id for q in questions], sampler, config)
    harness.write_predictions_csv(result, questions, args.out)
    acc = harness.accuracy(result.predictions, questions)
    print(f"avg_calls={result.avg_calls:.3f} accuracy={acc:.4f} unresolved={len(result.unresolved)}")
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CGESError, OSError) as exc:  # OSError: e.g. an unwritable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
