"""Experiment orchestration: method comparisons, threshold sweeps, CSV reports.

Datasets are JSONL files with one question per line:
``{"id": ..., "prompt": ..., "gold": ..., "format": "boxed_math"|"letter_choice"}``.
Samples come either from a replay store, which runs once, or a live endpoint,
whose results are averaged over seeds; both are written as CSV tables plus a
plain-text summary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .confidence import Estimator
from .controller import ControllerConfig, Method, RunResult, Sampler, check_gamma, run_many
from .errors import ConfigurationError
from .llmclient import (
    AnswerFormat,
    EndpointConfig,
    RecordStore,
    live_sampler,
    normalize_answer,
    read_jsonl,
    replay_sampler,
)
from .posterior import RunningPosterior

# stopping-threshold grid swept by default, ascending
DEFAULT_GAMMA_GRID = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99, 0.999, 0.9999)
DEFAULT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Question:
    question_id: str
    prompt: str
    gold: str
    format: AnswerFormat


def label_field(raw: dict, key: str) -> str:
    """A string or number field as text; null, booleans, lists and objects fail."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"{key!r} must be a string or a number, got {value!r}")
    return str(value)


def load_dataset(path: Union[str, Path]) -> list[Question]:
    questions: list[Question] = []
    first_line: dict[str, int] = {}
    for line_no, raw in read_jsonl(path):
        try:
            question = Question(
                question_id=label_field(raw, "id"),
                prompt=raw["prompt"],
                gold=label_field(raw, "gold"),
                format=AnswerFormat(raw["format"]),
            )
            if not isinstance(question.prompt, str):
                raise TypeError(f"'prompt' must be a string, got {question.prompt!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}:{line_no}: bad question record: {exc}") from exc
        qid = question.question_id
        if qid in first_line:
            raise ConfigurationError(
                f"{path}:{line_no}: question id {qid!r} already appears on line {first_line[qid]}"
            )
        first_line[qid] = line_no
        questions.append(question)
    if not questions:
        raise ConfigurationError(f"dataset {path} holds no questions")
    return questions


def accuracy(predictions: Mapping[str, str], questions: Sequence[Question]) -> float:
    """Fraction of questions whose normalized prediction matches their gold
    label, both normalized under the question's answer format."""
    golds = [normalize_answer(q.gold, q.format) for q in questions]
    return _accuracy(predictions, questions, golds, {})


def _accuracy(
    predictions: Mapping[str, str],
    questions: Sequence[Question],
    golds: Sequence[str],
    normalized: dict[tuple[str, AnswerFormat], str],
) -> float:
    """``accuracy`` against ``golds``, the questions' gold labels already normalized,
    and ``normalized``, each prediction's normalized form by (text, format) so far,
    so a study that scores many predictions normalizes each gold and each distinct
    prediction once.  The key is the text, which tells 1, 1.0 and True apart."""
    qids = {q.question_id for q in questions}
    missing = sorted(qids - set(predictions))
    extra = sorted(set(predictions) - qids)
    if missing or extra:
        raise ConfigurationError(
            f"prediction/gold key mismatch; missing={missing!r} extra={extra!r}"
        )
    if not questions:
        raise ConfigurationError("no questions to score")
    hits = 0
    for q, gold in zip(questions, golds):
        key = (str(predictions[q.question_id]), q.format)
        try:
            prediction = normalized[key]
        except KeyError:
            prediction = normalized[key] = normalize_answer(*key)
        hits += prediction == gold
    return hits / len(questions)


@dataclass
class ExperimentSpec:
    """Everything needed to run one experiment over a question set."""

    questions: Sequence[Question]
    methods: Sequence[ControllerConfig]
    gamma_grid: Sequence[float] = DEFAULT_GAMMA_GRID
    seeds: Sequence[int] = DEFAULT_SEEDS
    estimator: Estimator = Estimator.LNS_ARITHMETIC
    fixed_k: Optional[int] = None  # the K policy; None selects observed+virtual
    store: Optional[RecordStore] = None
    endpoint: Optional[EndpointConfig] = None
    record_store: Optional[RecordStore] = None

    def __post_init__(self) -> None:
        if not self.questions:
            raise ConfigurationError("experiment needs at least one question")
        if not self.methods:
            raise ConfigurationError("experiment needs at least one method")
        if not self.seeds:
            raise ConfigurationError("experiment needs at least one seed")
        if (self.store is None) == (self.endpoint is None):
            raise ConfigurationError(
                "provide exactly one sample source: a replay store or an endpoint"
            )
        if self.record_store is not None and self.endpoint is None:
            raise ConfigurationError("a record store keeps live samples and needs an endpoint")
        if self.record_store is not None and len(self.seeds) > 1:
            # records are keyed (question, round); a second seed would collide
            raise ConfigurationError("recording a live run requires a single seed")
        for config in self.methods:
            if not isinstance(config, ControllerConfig):
                raise ConfigurationError(f"methods must be ControllerConfigs, got {config!r}")
        for seed in self.seeds:
            if type(seed) is not int:  # a bool or a numeric string is not a seed
                raise ConfigurationError(f"seeds must be integers, got {seed!r}")
        for gamma in self.gamma_grid:
            check_gamma(gamma)


@dataclass(frozen=True)
class MethodRow:
    method: str
    gamma: Optional[float]
    avg_calls: float
    accuracy: float
    delta_calls: Optional[float] = None
    delta_acc: Optional[float] = None


@dataclass(frozen=True)
class CurvePoint:
    gamma: float
    avg_calls: float
    accuracy: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[MethodRow, ...]


def method_label(config: ControllerConfig) -> str:
    if config.method is Method.ESC:
        return f"esc_w{config.esc_window}"
    return config.method.value


def _make_sampler(spec: ExperimentSpec, seed: int):
    if spec.store is not None:
        return replay_sampler(spec.store, spec.estimator)
    prompts = {q.question_id: (q.prompt, q.format) for q in spec.questions}
    return live_sampler(
        spec.endpoint,
        prompts,
        estimator=spec.estimator,
        store=spec.record_store,
        base_seed=seed,
    )


def _measure(
    spec: ExperimentSpec, configs: Sequence[ControllerConfig]
) -> list[tuple[float, float]]:
    """Seed-averaged (avg_calls, accuracy) of each configuration, in order.

    Every configuration reads one stream per seed, so a (question, round) is
    drawn once per seed however many configurations ask for it.  Seeds apply
    to a live endpoint only: a replay store serves one fixed stream whatever
    the seed, so it runs once.
    """
    if not configs:
        return []
    qids = [q.question_id for q in spec.questions]
    golds = [normalize_answer(q.gold, q.format) for q in spec.questions]
    normalized: dict[tuple[str, AnswerFormat], str] = {}
    per_seed = []
    for seed in spec.seeds if spec.store is None else spec.seeds[:1]:
        results = run_many(qids, _make_sampler(spec, seed), configs, spec.fixed_k)
        per_seed.append(
            [
                (result.avg_calls, _accuracy(result.predictions, spec.questions, golds, normalized))
                for result in results
            ]
        )
    # the mean of each figure over the seeds, as statistics.fmean computes it,
    # without that module's import cost
    return [
        tuple(math.fsum(values) / len(values) for values in zip(*column))
        for column in zip(*per_seed)
    ]


def compare_methods(spec: ExperimentSpec) -> ComparisonReport:
    """Run every configured method and report deltas against the SC row."""
    measured = [
        (config, calls, acc)
        for config, (calls, acc) in zip(spec.methods, _measure(spec, spec.methods))
    ]
    sc = next(
        ((calls, acc) for config, calls, acc in measured if config.method is Method.SC),
        None,
    )
    rows = []
    for config, calls, acc in measured:
        delta_calls = calls - sc[0] if sc is not None else None
        delta_acc = acc - sc[1] if sc is not None else None
        rows.append(
            MethodRow(
                method=method_label(config),
                gamma=config.gamma if config.method is Method.CGES else None,
                avg_calls=calls,
                accuracy=acc,
                delta_calls=delta_calls,
                delta_acc=delta_acc,
            )
        )
    return ComparisonReport(rows=tuple(rows))


def sweep_gamma(spec: ExperimentSpec) -> tuple[CurvePoint, ...]:
    """One seed-averaged curve point per grid threshold, in grid order.

    Every point runs the first CGES configuration in ``spec.methods`` with
    its threshold replaced by the grid value.
    """
    base = next((config for config in spec.methods if config.method is Method.CGES), None)
    if base is None:
        raise ConfigurationError("gamma sweep needs a CGES method configuration")
    configs = [replace(base, gamma=gamma) for gamma in spec.gamma_grid]
    return tuple(
        CurvePoint(gamma=config.gamma, avg_calls=calls, accuracy=acc)
        for config, (calls, acc) in zip(configs, _measure(spec, configs))
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    return "" if value is None else str(value)


def _write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The framing of every report file: UTF-8 CSV, a header line, then ``rows``."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_records(path: Union[str, Path], kind: type, records: Iterable) -> None:
    """One line per dataclass record: a column per field of ``kind``, in
    declaration order, with None as an empty cell."""
    header = [field.name for field in fields(kind)]
    _write_csv(path, header, ([_cell(value) for value in astuple(record)] for record in records))


def write_comparison_csv(report: ComparisonReport, path: Union[str, Path]) -> None:
    _write_records(path, MethodRow, report.rows)


def write_curve_csv(curve: Sequence[CurvePoint], path: Union[str, Path]) -> None:
    _write_records(path, CurvePoint, curve)


def write_concentration_csv(rows: Sequence, path: Union[str, Path]) -> None:
    """``genmodel.concentration_experiment`` rows, one drift column per
    competitor; the rows are read by attribute, so this module needs no numpy."""
    columns = ["m", "trials", "success_freq", "mean_mass_truth"]
    drift_ids = sorted(rows[0].drift) if rows else []
    records = (
        [*(getattr(row, name) for name in columns), *(row.drift[j] for j in drift_ids), row.seed]
        for row in rows
    )
    _write_csv(path, [*columns, *(f"drift_{j}" for j in drift_ids), "seed"], records)


def write_predictions_csv(
    result: RunResult,
    questions: Sequence[Question],
    sampler: Sampler,
    fixed_k: Optional[int],
    path: Union[str, Path],
) -> None:
    """Per-question predictions in dataset order; byte-stable across reruns.

    ``top_mass`` folds rounds 1..calls of each question from ``sampler`` under
    ``fixed_k``, so the sampler must serve the same draws again, as replay does.
    """
    unresolved = set(result.unresolved)

    def rows() -> Iterator[list]:
        for question in questions:
            qid = question.question_id
            calls = result.per_question_calls[qid]
            posterior = RunningPosterior(fixed_k)
            for round_idx in range(1, calls + 1):
                posterior.add(*sampler(qid, round_idx))
            resolved = int(qid not in unresolved)
            yield [qid, result.predictions[qid], calls, posterior.top()[1], resolved]

    _write_csv(path, ["question_id", "prediction", "calls", "top_mass", "resolved"], rows())


def summarize_report(report: ComparisonReport) -> str:
    lines = [f"{'method':<12} {'gamma':>8} {'avg_calls':>10} {'accuracy':>9} {'d_calls':>8} {'d_acc':>8}"]
    for row in report.rows:
        lines.append(
            f"{row.method:<12} {_cell(row.gamma):>8} {row.avg_calls:>10.3f} "
            f"{row.accuracy:>9.4f} "
            f"{(f'{row.delta_calls:+.3f}' if row.delta_calls is not None else '-'):>8} "
            f"{(f'{row.delta_acc:+.4f}' if row.delta_acc is not None else '-'):>8}"
        )
    return "\n".join(lines)
