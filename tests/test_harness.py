"""Tests for experiment orchestration and the command-line interface."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cges
from cges.cli import ESTIMATOR_FLAGS, build_parser, main
from cges.confidence import Estimator
from cges.controller import ControllerConfig, Method, run
from cges.errors import ConfigurationError
from cges.posterior import RunningPosterior
from cges.harness import (
    DEFAULT_GAMMA_GRID,
    ExperimentSpec,
    Question,
    accuracy,
    compare_methods,
    load_dataset,
    summarize_report,
    sweep_gamma,
    write_comparison_csv,
    write_curve_csv,
    write_predictions_csv,
)
from cges.llmclient import (
    INDEX_SUFFIX,
    AnswerFormat,
    EndpointConfig,
    RecordStore,
    SampleRecord,
    normalize_answer,
    replay_sampler,
)

from conftest import FIXTURES, read_csv_rows


def _golden_rows():
    """One (golden, argv) param per row of fixtures/golden_commands.txt, the one
    list of golden commands; CI runs the same rows through the installed script."""
    rows = []
    for line in (FIXTURES / "golden_commands.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            golden, *argv = line.split()
            name = golden.removeprefix("golden_").removesuffix(".csv")
            if "--max-parallel" in argv:  # a parallel run of a serial row's golden
                name += "-parallel"
            rows.append(pytest.param(golden, argv, id=name))
    return rows


GOLDEN_ROWS = _golden_rows()
GOLDENS = pytest.mark.parametrize("golden, argv", GOLDEN_ROWS)
REPLAY_GOLDENS = pytest.mark.parametrize(
    "golden, argv", [row for row in GOLDEN_ROWS if "--replay" in row.values[1]]
)


def golden_argv(argv, store):
    """A table row's arguments for ``main``: fixture paths resolved against
    FIXTURES, and the --replay store swapped for ``store``, the test's own copy."""
    resolved = []
    for previous, arg in zip([None, *argv], argv):
        if previous == "--replay":
            resolved.append(str(store))
        elif arg.startswith("tests/fixtures/"):
            resolved.append(str(FIXTURES / arg.removeprefix("tests/fixtures/")))
        else:
            resolved.append(arg)
    return resolved


def build_store(tmp_path, streams, name="store.jsonl"):
    """Write a replay store from {qid: [(label, confidence), ...]} streams."""
    store = RecordStore.open_record(tmp_path / name)
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
                    confidence_by_estimator={
                        "lns_arith": confidence,
                        "lns_geo": confidence,
                    },
                    seed=0,
                    timestamp="2026-08-01T00:00:00+00:00",
                )
            )
    return RecordStore.open_replay(tmp_path / name)


def spec_for(tmp_path, streams, gold, methods, store_name="store.jsonl", **overrides):
    questions = [
        Question(qid, f"prompt {qid}", gold[qid], AnswerFormat.BOXED_MATH)
        for qid in streams
    ]
    fields = dict(
        questions=questions,
        methods=methods,
        seeds=(0,),
        store=build_store(tmp_path, streams, store_name),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestLoadDataset:
    def test_round_trip(self):
        questions = load_dataset(FIXTURES / "mini_dataset.jsonl")
        assert [q.question_id for q in questions] == ["q1", "q2", "q3", "q4"]
        assert questions[0].gold == "42"
        assert questions[2].format is AnswerFormat.LETTER_CHOICE

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "q1", "prompt": "p"}\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            load_dataset(path)

    def test_malformed_json_line_reports_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"id": "q1", "prompt": "p", "gold": "1", "format": "boxed_math"}\n{"id": "q2", "pro\n'
        )
        with pytest.raises(ConfigurationError, match="torn.jsonl:2"):
            load_dataset(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "q1", "prompt": "p", "gold": "1", "format": "boxed_math"}\n'
            "\n"
            '{"id": "q1", "prompt": "r", "gold": "2", "format": "boxed_math"}\n'
        )
        with pytest.raises(ConfigurationError, match=r"dup\.jsonl:3: .*'q1'.* line 1"):
            load_dataset(path)

    def test_repeated_id_fails_the_cli(self, tmp_path, capsys, mini_store):
        path = tmp_path / "dup.jsonl"
        line = '{"id": "q1", "prompt": "p", "gold": "42", "format": "boxed_math"}\n'
        path.write_text(line * 2)
        code = main(
            [
                "replay",
                "--dataset", str(path),
                "--replay", str(mini_store),
                "--budget", "4",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "dup.jsonl:2" in err and "'q1'" in err and "line 1" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"prompt": 5},
            {"prompt": None},
            {"id": None},
            {"id": True},
            {"id": ["q1"]},
            {"id": {"q": 1}},
            {"gold": None},
            {"gold": False},
            {"gold": [42]},
            {"gold": {"v": 42}},
        ],
    )
    def test_field_types_are_checked(self, tmp_path, fields):
        record = {"id": "q1", "prompt": "p", "gold": "42", "format": "boxed_math"}
        record.update(fields)
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (key,) = fields
        with pytest.raises(ConfigurationError, match=rf"typed\.jsonl:1: .*'{key}'"):
            load_dataset(path)

    def test_numeric_id_and_gold_load_as_text(self, tmp_path):
        path = tmp_path / "numeric.jsonl"
        path.write_text('{"id": 7, "prompt": "p", "gold": 42, "format": "boxed_math"}\n')
        (question,) = load_dataset(path)
        assert (question.question_id, question.gold) == ("7", "42")

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ConfigurationError):
            load_dataset(path)


def _questions(gold, fmt=AnswerFormat.BOXED_MATH):
    """One question per {id: gold} entry, all in one answer format."""
    return [Question(qid, "p", answer, fmt) for qid, answer in gold.items()]


class TestAccuracy:
    def test_all_and_none(self):
        assert accuracy({"a": "1", "b": "2"}, _questions({"a": "1", "b": "2"})) == 1.0
        assert accuracy({"a": "x", "b": "y"}, _questions({"a": "1", "b": "2"})) == 0.0

    def test_whitespace_normalization(self):
        assert accuracy({"a": "3/4 "}, _questions({"a": "3/4"})) == 1.0
        assert accuracy({"a": " 1  2 "}, _questions({"a": "1 2"})) == 1.0

    def test_letter_case_folding(self):
        assert accuracy({"a": "b"}, _questions({"a": "B"}, AnswerFormat.LETTER_CHOICE)) == 1.0
        assert accuracy({"a": "b"}, _questions({"a": "B"}, AnswerFormat.BOXED_MATH)) == 0.0

    def test_each_question_scores_under_its_own_format(self):
        questions = [
            Question("a", "p", "B", AnswerFormat.LETTER_CHOICE),
            Question("b", "p", "B", AnswerFormat.BOXED_MATH),
        ]
        assert accuracy({"a": "b", "b": "b"}, questions) == 0.5

    def test_key_mismatch_lists_ids(self):
        with pytest.raises(ConfigurationError, match="q2"):
            accuracy({"q1": "x"}, _questions({"q1": "x", "q2": "y"}))
        with pytest.raises(ConfigurationError, match="q3"):
            accuracy({"q1": "x", "q3": "z"}, _questions({"q1": "x"}))

    def test_nothing_to_score(self):
        with pytest.raises(ConfigurationError, match="no questions to score"):
            accuracy({}, [])

    def test_normalize_answer(self):
        assert normalize_answer("  3 /  4\n", AnswerFormat.BOXED_MATH) == "3 / 4"
        assert normalize_answer("c", AnswerFormat.LETTER_CHOICE) == "C"


class TestWritePredictionsCsv:
    @pytest.mark.parametrize("fixed_k", [None, 3])
    def test_top_mass_folds_only_the_draws_each_question_took(self, tmp_path, fixed_k):
        # q0 closes on its first draw; its later draws would move the mass
        streams = {
            "q0": [("a", 0.99), ("b", 0.9), ("b", 0.9), ("b", 0.9)],
            "q1": [("a", 0.6), ("b", 0.7), ("b", 0.6), ("a", 0.5)],
        }

        def sample(question_id, round_idx):
            return streams[question_id][round_idx - 1]

        config = ControllerConfig(method=Method.CGES, gamma=0.9, budget=4)
        result = run(list(streams), sample, config, fixed_k)
        assert result.per_question_calls == {"q0": 1, "q1": 4}
        out = tmp_path / "predictions.csv"
        write_predictions_csv(result, _questions({"q0": "a", "q1": "b"}), sample, fixed_k, out)

        def top_mass(qid, calls):
            posterior = RunningPosterior(fixed_k)
            for label, confidence in streams[qid][:calls]:
                posterior.add(label, confidence)
            return posterior.top()[1]

        rows = read_csv_rows(out)
        assert [row["question_id"] for row in rows] == ["q0", "q1"]
        for row in rows:
            calls = int(row["calls"])
            assert calls == result.per_question_calls[row["question_id"]]
            assert row["top_mass"] == repr(top_mass(row["question_id"], calls))
        assert float(rows[0]["top_mass"]) != top_mass("q0", 4)


class TestCompareMethods:
    def test_degenerate_all_correct_fixture(self, tmp_path):
        streams = {f"q{i}": [("right", 0.97)] * 6 for i in range(4)}
        gold = {qid: "right" for qid in streams}
        spec = spec_for(
            tmp_path,
            streams,
            gold,
            methods=[
                ControllerConfig(method=Method.SC, budget=6),
                ControllerConfig(method=Method.ESC, budget=6, esc_window=2),
                ControllerConfig(method=Method.CGES, gamma=0.9, budget=6),
            ],
        )
        report = compare_methods(spec)
        by_method = {row.method: row for row in report.rows}
        assert all(row.accuracy == 1.0 for row in report.rows)
        assert by_method["cges"].avg_calls <= by_method["sc"].avg_calls
        assert by_method["sc"].delta_calls == 0.0
        assert by_method["sc"].delta_acc == 0.0
        assert by_method["sc"].avg_calls == 6.0

    def test_minority_confident_item_separates_methods(self, tmp_path):
        streams = {"q0": [("right", 0.9), ("wrong", 0.2), ("wrong", 0.2)]}
        gold = {"q0": "right"}
        spec = spec_for(
            tmp_path,
            streams,
            gold,
            methods=[
                ControllerConfig(method=Method.SC, budget=3),
                ControllerConfig(method=Method.CGES, gamma=1.0, budget=3),
            ],
        )
        report = compare_methods(spec)
        by_method = {row.method: row for row in report.rows}
        assert by_method["sc"].accuracy == 0.0
        assert by_method["cges"].accuracy == 1.0
        assert by_method["cges"].delta_acc == 1.0

    def test_single_seed_equals_average(self, tmp_path):
        streams = {"q0": [("a", 0.8), ("a", 0.85)], "q1": [("b", 0.6), ("c", 0.4)]}
        gold = {"q0": "a", "q1": "b"}
        methods = [ControllerConfig(method=Method.CGES, gamma=0.95, budget=2)]
        single = compare_methods(spec_for(tmp_path, streams, gold, methods, seeds=(0,)))
        triple = compare_methods(
            spec_for(tmp_path, streams, gold, methods, store_name="s2.jsonl", seeds=(0, 1, 2))
        )
        assert single.rows[0].avg_calls == triple.rows[0].avg_calls
        assert single.rows[0].accuracy == triple.rows[0].accuracy

    def test_seed_averages_are_arithmetic_means(self, monkeypatch):
        import cges.harness as harness_module

        # seed-dependent sampler: question resolves after seed+1 rounds
        def fake_make_sampler(spec, seed):
            def sample(qid, rnd):
                return ("a", 0.95) if rnd > seed else (f"b{rnd}", 0.3)

            return sample

        monkeypatch.setattr(harness_module, "_make_sampler", fake_make_sampler)
        spec = ExperimentSpec(
            questions=[Question("q0", "prompt q0", "a", AnswerFormat.BOXED_MATH)],
            methods=[ControllerConfig(method=Method.CGES, gamma=0.9, budget=8)],
            seeds=(0, 1, 2),
            endpoint=EndpointConfig(base_url="http://127.0.0.1:9", model_name="never-called"),
        )
        row = compare_methods(spec).rows[0]
        # per-seed calls are 1, 2, 3 -> mean 2.0; all predictions correct
        assert row.avg_calls == pytest.approx(2.0)
        assert row.accuracy == 1.0

    def test_replay_runs_once_whatever_the_seeds(self, tmp_path, monkeypatch):
        import cges.harness as harness_module

        served = Counter()

        def counting_replay_sampler(store, estimator):
            replay = replay_sampler(store, estimator)

            def sample(qid, rnd):
                served[qid, rnd] += 1
                return replay(qid, rnd)

            return sample

        monkeypatch.setattr(harness_module, "replay_sampler", counting_replay_sampler)
        streams = {"q0": [("a", 0.8), ("a", 0.85)], "q1": [("b", 0.6), ("c", 0.4)]}
        methods = [
            ControllerConfig(method=Method.SC, budget=2),
            ControllerConfig(method=Method.CGES, gamma=0.95, budget=2),
        ]
        spec = spec_for(tmp_path, streams, {"q0": "a", "q1": "b"}, methods, seeds=(0, 1, 2))
        report = compare_methods(spec)
        # both methods read one stream: every round of both questions, once
        assert served == {(qid, rnd): 1 for qid in streams for rnd in (1, 2)}
        assert [row.avg_calls for row in report.rows] == [2.0, 2.0]

    def test_no_sc_row_leaves_deltas_unset(self, tmp_path):
        streams = {"q0": [("a", 0.9)]}
        spec = spec_for(
            tmp_path,
            streams,
            {"q0": "a"},
            methods=[ControllerConfig(method=Method.CGES, gamma=0.5, budget=1)],
        )
        row = compare_methods(spec).rows[0]
        assert row.delta_calls is None and row.delta_acc is None

    def test_summary_renders_every_row(self, tmp_path):
        streams = {"q0": [("a", 0.9), ("a", 0.9)]}
        spec = spec_for(
            tmp_path,
            streams,
            {"q0": "a"},
            methods=[
                ControllerConfig(method=Method.SC, budget=2),
                ControllerConfig(method=Method.CGES, gamma=0.8, budget=2),
            ],
        )
        text = summarize_report(compare_methods(spec))
        assert "sc" in text and "cges" in text


class TestSweepGamma:
    def test_calls_non_decreasing_along_grid(self, tmp_path):
        rng = np.random.default_rng(21)
        streams = {
            f"q{i}": [
                (f"ans{int(rng.integers(3))}", float(rng.uniform(0.1, 0.9)))
                for _ in range(8)
            ]
            for i in range(20)
        }
        gold = {qid: "ans0" for qid in streams}
        spec = spec_for(
            tmp_path,
            streams,
            gold,
            methods=[ControllerConfig(method=Method.CGES, gamma=0.9, budget=8)],
            gamma_grid=DEFAULT_GAMMA_GRID,
        )
        curve = sweep_gamma(spec)
        assert [p.gamma for p in curve] == list(DEFAULT_GAMMA_GRID)
        calls = [p.avg_calls for p in curve]
        assert calls == sorted(calls)

    def test_empty_grid_gives_empty_curve(self, tmp_path):
        streams = {"q0": [("a", 0.9)]}
        spec = spec_for(
            tmp_path,
            streams,
            {"q0": "a"},
            methods=[ControllerConfig(method=Method.CGES, budget=1)],
            gamma_grid=(),
        )
        assert sweep_gamma(spec) == ()

    def test_requires_a_cges_method(self, tmp_path):
        streams = {"q0": [("a", 0.9)]}
        spec = spec_for(
            tmp_path,
            streams,
            {"q0": "a"},
            methods=[ControllerConfig(method=Method.SC, budget=1)],
        )
        with pytest.raises(ConfigurationError):
            sweep_gamma(spec)


class TestExperimentSpecValidation:
    def test_requires_exactly_one_source(self, tmp_path):
        questions = [Question("q0", "p", "a", AnswerFormat.BOXED_MATH)]
        with pytest.raises(ConfigurationError):
            ExperimentSpec(questions=questions, methods=[ControllerConfig()])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"questions": []}, "experiment needs at least one question"),
            ({"methods": []}, "experiment needs at least one method"),
            ({"methods": ["cges"]}, "methods must be ControllerConfigs, got 'cges'"),
            ({"seeds": ()}, "experiment needs at least one seed"),
            ({"seeds": (0, 1)}, "recording a live run requires a single seed"),
            ({"seeds": ("0",)}, "seeds must be integers, got '0'"),
            ({"seeds": (True,)}, "seeds must be integers, got True"),
            # the grid takes the controller's gamma rule and its messages
            ({"gamma_grid": ("0.9",)}, "gamma must be a real number, got '0.9'"),
            ({"gamma_grid": (True,)}, "gamma must be a real number, got True"),
            ({"gamma_grid": (0.9, 1.5)}, "gamma must lie in (0, 1], got 1.5"),
        ],
        ids=[
            "no-questions", "no-methods", "methods-string", "no-seeds", "record-two-seeds",
            "seed-string", "seed-bool", "gamma-string", "gamma-bool", "gamma-above-one",
        ],
    )
    def test_questions_seeds_and_recording_are_checked(self, tmp_path, overrides, message):
        fields = dict(
            questions=[Question("q0", "p", "a", AnswerFormat.BOXED_MATH)],
            methods=[ControllerConfig()],
            seeds=(0,),
            endpoint=EndpointConfig(base_url="http://localhost:1", model_name="m"),
            record_store=RecordStore.open_record(tmp_path / "out.jsonl"),
        )
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**{**fields, **overrides})

    def test_record_store_needs_an_endpoint(self, tmp_path):
        record_store = RecordStore.open_record(tmp_path / "out.jsonl")
        with pytest.raises(ConfigurationError, match="needs an endpoint"):
            spec_for(
                tmp_path,
                {"q0": [("a", 0.9)]},
                {"q0": "a"},
                methods=[ControllerConfig()],
                record_store=record_store,
            )

    def test_gamma_grid_bounds(self, tmp_path):
        streams = {"q0": [("a", 0.9)]}
        with pytest.raises(ConfigurationError):
            spec_for(
                tmp_path,
                streams,
                {"q0": "a"},
                methods=[ControllerConfig()],
                gamma_grid=(0.0,),
            )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_estimator_flags_are_the_hyphenated_store_keys(self):
        assert ESTIMATOR_FLAGS == {
            "lns-arith": Estimator.LNS_ARITHMETIC,
            "lns-geo": Estimator.LNS_GEOMETRIC,
            "mars": Estimator.MARS_STEPWISE,
            "rm": Estimator.REWARD_PASSTHROUGH,
        }

    def test_replay_shares_the_run_and_sweep_flag_defaults(self):
        parser = build_parser()
        source = ["--dataset", "d.jsonl", "--replay", "s.jsonl"]
        parsed = {
            command: vars(parser.parse_args([command, *source, *extra]))
            for command, extra in [("run", []), ("sweep", ["--out", "o"]), ("replay", ["--out", "o"])]
        }
        shared = ("dataset", "replay", "budget", "estimator", "k_policy", "max_parallel")
        assert {name: parsed["run"][name] for name in shared} == {
            "dataset": Path("d.jsonl"), "replay": Path("s.jsonl"), "budget": 16,
            "estimator": "lns-arith", "k_policy": None, "max_parallel": 1,
        }
        for command in ("sweep", "replay"):
            assert {name: parsed[command][name] for name in shared} == {
                name: parsed["run"][name] for name in shared
            }

    def test_simulate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--mode", "ideal",
                "--k", "3",
                "--confidence-law", "uniform:0.5,0.9",
                "--m-schedule", "1,5",
                "--trials", "20",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 2
        assert {"m", "trials", "success_freq", "mean_mass_truth", "seed"} <= set(rows[0])

    @pytest.mark.parametrize(
        "law_flags",
        [
            ["--confidence-law", "beta:nan,2"],
            ["--confidence-law", "beta:inf,2"],
            ["--mode", "realistic", "--answer-law", "point:nan,1"],
            ["--mode", "realistic", "--answer-law", "dirichlet:nan,1"],
        ],
        ids=["beta-nan", "beta-inf", "point-nan", "dirichlet-nan"],
    )
    def test_simulate_rejects_non_finite_law_parameters(self, tmp_path, capsys, law_flags):
        out = tmp_path / "sim.csv"
        code = main(["simulate", *law_flags, "--trials", "5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_simulate_refuses_an_answer_law_in_ideal_mode(self, tmp_path, capsys):
        # the ideal regime has no answer law: the flag used to be ignored
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--answer-law", "point:0.9,0.1", "--trials", "5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --answer-law applies to --mode realistic only\n"
        assert not out.exists()

    def test_simulate_rejects_a_negative_seed(self, tmp_path, capsys):
        # numpy's seeding used to raise a ValueError that reached the user
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--seed", "-1", "--trials", "5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("score --samples s.jsonl", "--k-policy", "fixed:abc"),
            ("run --dataset d.jsonl --replay s.jsonl", "--seeds", "0,a"),
            ("simulate --out o.csv", "--m-schedule", "1,x"),
            ("sweep --dataset d.jsonl --replay s.jsonl --out o.csv", "--gamma-grid", "0.9,abc"),
        ],
        ids=["k-policy", "seeds", "m-schedule", "gamma-grid"],
    )
    def test_a_malformed_flag_value_names_the_accepted_form(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main([*command.split(), flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and f"got {value!r}" in err
        assert "_parse_" not in err

    @pytest.mark.parametrize(
        "schedule, named",
        [("", "m_schedule"), ("0", "got 0"), ("5,-1", "got -1")],
        ids=["empty", "zero", "negative"],
    )
    def test_simulate_rejects_bad_schedule(self, tmp_path, capsys, schedule, named):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--m-schedule", schedule, "--trials", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "m_max" not in err
        assert not out.exists()

    def test_score_command(self, tmp_path, capsys):
        out = tmp_path / "score.csv"
        code = main(
            [
                "score",
                "--samples", str(FIXTURES / "minority_samples.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "top: a1" in printed
        rows = read_csv_rows(out)
        labels = {row["label"] for row in rows}
        assert {"a1", "a2", "(virtual)"} == labels

    def test_score_command_fixed_k(self, capsys):
        code = main(
            [
                "score",
                "--samples", str(FIXTURES / "minority_samples.jsonl"),
                "--k-policy", "fixed:3",
            ]
        )
        assert code == 0
        assert "top: a1 (0.935065)" in capsys.readouterr().out

    def test_score_command_with_every_candidate_named_has_no_virtual_row(
        self, tmp_path, capsys
    ):
        out = tmp_path / "score.csv"
        code = main(
            [
                "score",
                "--samples", str(FIXTURES / "minority_samples.jsonl"),
                "--k-policy", "fixed:2",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["a1\t0.993103", "a2\t0.006897", "top: a1 (0.993103)"]
        assert [row["label"] for row in read_csv_rows(out)] == ["a1", "a2"]

    def test_score_command_rejects_confidence_of_one(self, tmp_path, capsys):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"label": "a", "confidence": 0.5}\n{"label": "b", "confidence": 1.0}\n')
        code = main(["score", "--samples", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples.jsonl:2" in err

    def test_score_command_rejects_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"label": "a", "confidence": 0.5}\n{"label": \n')
        code = main(["score", "--samples", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples.jsonl:2" in err

    @pytest.mark.parametrize("record", ['{"confidence": 0.5}', '{"label": "a"}'])
    def test_score_command_rejects_missing_field(self, tmp_path, capsys, record):
        path = tmp_path / "samples.jsonl"
        path.write_text(record + "\n")
        code = main(["score", "--samples", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples.jsonl:1" in err

    @pytest.mark.parametrize("label", ["null", "true", '["a"]', '{"a": 1}'])
    def test_score_command_rejects_non_scalar_label(self, tmp_path, capsys, label):
        path = tmp_path / "samples.jsonl"
        path.write_text(
            '{"label": "None", "confidence": 0.6}\n'
            f'{{"label": {label}, "confidence": 0.7}}\n'
        )
        code = main(["score", "--samples", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples.jsonl:2" in err
        assert "'label' must be a string or a number" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"confidence": "0.6"', "'confidence' must be a number"),
            ('"confidence": 0.6, "round": 2.7', "'round' must be an integer >= 1"),
            ('"confidence": 0.6, "round": true', "'round' must be an integer >= 1"),
        ],
        ids=["string-confidence", "float-round", "bool-round"],
    )
    def test_score_command_refuses_coerced_field_types(self, tmp_path, capsys, fields, message):
        path = tmp_path / "samples.jsonl"
        path.write_text(f'{{"label": "a", "confidence": 0.6}}\n{{"label": "a", {fields}}}\n')
        assert main(["score", "--samples", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "samples.jsonl:2" in err and message in err

    def test_score_command_takes_observed_virtual_spelled_out(self, capsys):
        samples = str(FIXTURES / "minority_samples.jsonl")
        assert main(["score", "--samples", samples]) == 0
        default = capsys.readouterr().out
        assert main(["score", "--samples", samples, "--k-policy", "observed+virtual"]) == 0
        assert capsys.readouterr().out == default
        assert "(virtual)\t" in default

    def test_score_command_names_the_line_of_a_fixed_k_overflow(self, tmp_path, capsys):
        path = tmp_path / "samples.jsonl"
        path.write_text(
            '{"label": "a", "confidence": 0.6}\n{"label": "b", "confidence": 0.7}\n'
            '{"label": "a", "confidence": 0.8}\n{"label": "c", "confidence": 0.9}\n'
        )
        assert main(["score", "--samples", str(path), "--k-policy", "fixed:2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: bad sample record: ")
        assert "fixed candidate count 2 is smaller than the 3 distinct labels" in err

    @pytest.mark.parametrize(
        "command", [["replay"], ["run", "--seeds", "0"]], ids=["replay", "run"]
    )
    def test_a_fixed_k_overflow_names_its_question_and_round(
        self, tmp_path, capsys, command, mini_store
    ):
        # q1's four rounds answer a, b, c, d: K = 2 cannot hold round 3's label
        lines = mini_store.read_text().splitlines()
        for round_idx, label in enumerate("abcd", start=1):
            record = json.loads(lines[round_idx - 1])
            assert (record["question_id"], record["round"]) == ("q1", round_idx)
            record["extracted_label"] = label
            lines[round_idx - 1] = json.dumps(record)
        mini_store.write_text("\n".join(lines) + "\n")
        argv = [
            *command,
            "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
            "--replay", str(mini_store),
            "--budget", "4",
            "--gamma", "0.999",
            "--k-policy", "fixed:2",
            "--out", str(tmp_path / "out.csv"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: question 'q1' round 3: fixed candidate count 2 is smaller than "
            "the 3 distinct labels observed\n"
        )

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["no-lines", "blank-lines"])
    def test_score_command_names_a_file_without_samples(self, tmp_path, capsys, text):
        path = tmp_path / "samples.jsonl"
        path.write_text(text)
        assert main(["score", "--samples", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: holds no samples\n"

    def test_score_command_accepts_numeric_labels(self, tmp_path, capsys):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"label": 3, "confidence": 0.6}\n{"label": "3", "confidence": 0.7}\n')
        assert main(["score", "--samples", str(path)]) == 0
        assert "top: 3 " in capsys.readouterr().out

    def test_run_command(self, tmp_path, capsys, mini_store):
        out = tmp_path / "compare.csv"
        code = main(
            [
                "run",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(mini_store),
                "--budget", "4",
                "--gamma", "0.95",
                "--seeds", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert [row["method"] for row in rows] == ["sc", "esc_w4", "cges"]
        sc_row = rows[0]
        assert float(sc_row["avg_calls"]) == 4.0
        assert float(sc_row["delta_calls"]) == 0.0
        # the minority-confident item q2 makes SC lose exactly one question
        assert float(sc_row["accuracy"]) == 0.75
        cges_row = rows[2]
        assert float(cges_row["accuracy"]) == 1.0
        assert float(cges_row["avg_calls"]) <= 4.0

    def test_sweep_command(self, tmp_path, mini_store):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "sweep",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(mini_store),
                "--budget", "4",
                "--seeds", "0",
                "--gamma-grid", "0.7,0.9,0.99",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert [row["gamma"] for row in rows] == ["0.7", "0.9", "0.99"]
        calls = [float(row["avg_calls"]) for row in rows]
        assert calls == sorted(calls)

    def test_sweep_command_empty_grid(self, tmp_path, capsys, caplog, mini_store):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "sweep",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(mini_store),
                "--budget", "4",
                "--seeds", "0",
                "--gamma-grid", "",
                "--out", str(out),
            ]
        )
        assert code == 0
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if "empty" in line] == [
            "warning: empty gamma grid, emitting an empty curve"
        ]
        assert not [r for r in caplog.records if "empty" in r.getMessage()]
        assert out.read_bytes() == b"gamma,avg_calls,accuracy\r\n"

    @pytest.mark.parametrize("flag", [["--gamma", "0.5"], ["--window", "3"]])
    def test_sweep_command_rejects_ignored_flags(self, tmp_path, capsys, flag, mini_store):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                    "--replay", str(mini_store),
                    "--budget", "4",
                    "--seeds", "0",
                    *flag,
                    "--out", str(out),
                ]
            )
        assert exc.value.code != 0
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_record_beside_replay_is_rejected(self, tmp_path, capsys, command, mini_store):
        out, record = tmp_path / "out.csv", tmp_path / "record.jsonl"
        code = main(
            [
                command,
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(mini_store),
                "--record", str(record),
                "--budget", "4",
                "--seeds", "0",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--record" in err and "--replay" in err
        assert not out.exists()
        assert not record.exists()

    def test_replay_command_is_byte_stable(self, tmp_path, mini_store):
        outs = []
        for name, parallel in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            out = tmp_path / name
            code = main(
                [
                    "replay",
                    "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                    "--replay", str(mini_store),
                    "--method", "cges",
                    "--gamma", "0.95",
                    "--budget", "4",
                    "--max-parallel", parallel,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        header = outs[0].split(b"\r\n")[0]
        assert header == b"question_id,prediction,calls,top_mass,resolved"

    def test_every_golden_file_has_a_command(self):
        named = {row.values[0] for row in GOLDEN_ROWS}
        assert named == {path.name for path in FIXTURES.glob("golden_*.csv")}

    @GOLDENS
    def test_outputs_match_golden_files(self, tmp_path, capsys, golden, argv, mini_store):
        out = tmp_path / golden
        assert main([*golden_argv(argv, mini_store), "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / golden).read_bytes()

    @REPLAY_GOLDENS
    def test_replay_outputs_match_golden_files_with_and_without_the_index(
        self, tmp_path, monkeypatch, golden, argv, mini_store
    ):
        index = tmp_path / f"mini_store.jsonl{INDEX_SUFFIX}"
        argv = golden_argv(argv, mini_store)
        assert main([*argv, "--out", str(tmp_path / "miss.csv")]) == 0  # no index yet
        assert index.is_file()

        def no_decoding(store):
            raise AssertionError("a replay open with a valid index decoded the store")

        monkeypatch.setattr(RecordStore, "_load", no_decoding)
        assert main([*argv, "--out", str(tmp_path / "hit.csv")]) == 0
        for name in ("miss.csv", "hit.csv"):
            assert (tmp_path / name).read_bytes() == (FIXTURES / golden).read_bytes()

    def test_replay_commands_load_neither_numpy_nor_requests(self, tmp_path, mini_store):
        source = [
            "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
            "--replay", str(mini_store),
            "--budget", "4",
        ]
        argvs = [
            ["score", "--samples", str(FIXTURES / "minority_samples.jsonl")],
            *(
                [name, *source, "--out", str(tmp_path / f"{name}.csv")]
                for name in ("replay", "run", "sweep")
            ),
        ]
        code = (
            "import json, sys\n"
            "sys.modules['numpy'] = sys.modules['requests'] = None  # importing either now fails\n"
            "sys.modules['http.client'] = None  # nor may replay load the live client's HTTP stack\n"
            "sys.modules['hashlib'] = sys.modules['datetime'] = None  # nor its seeds and timestamps\n"
            "from cges.cli import main\n"
            f"print([main(argv) for argv in json.loads({json.dumps(argvs)!r})])\n"
        )
        src = str(Path(cges.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
        # replay found no index and wrote one, run and sweep read it: both paths ran
        assert (tmp_path / f"mini_store.jsonl{INDEX_SUFFIX}").is_file()

    @pytest.mark.parametrize("command", ["replay", "run", "sweep"])
    def test_replay_store_lacking_the_estimator_fails_before_round_one(
        self, tmp_path, capsys, monkeypatch, command
    ):
        lines = (FIXTURES / "mini_store.jsonl").read_text().splitlines()
        for line_no in (6, 14):  # q2 round 2 and q4 round 2
            raw = json.loads(lines[line_no - 1])
            del raw["confidence_by_estimator"]["mars"]
            lines[line_no - 1] = json.dumps(raw)
        store = tmp_path / "store.jsonl"
        store.write_text("\n".join(lines) + "\n")
        reads = []
        contains = RecordStore.__contains__

        def counting_contains(store, key):  # the replay sampler's miss path asks first
            reads.append(key)
            return contains(store, key)

        monkeypatch.setattr(RecordStore, "__contains__", counting_contains)
        argv = [
            command, "--replay", str(store), "--estimator", "mars", "--budget", "4",
            "--out", str(tmp_path / "out.csv"),
        ]
        code = main([*argv, "--dataset", str(FIXTURES / "mini_dataset.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{store}:6: " in err and "'mars'" in err
        assert reads == []  # no round ran
        assert not (tmp_path / "out.csv").exists()

        # only the records of the dataset's questions are checked
        questions = (FIXTURES / "mini_dataset.jsonl").read_text().splitlines()
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("".join(f"{line}\n" for line in questions if '"q2"' not in line))
        assert main([*argv, "--dataset", str(dataset)]) == 1
        assert f"{store}:14: " in capsys.readouterr().err
        dataset.write_text("".join(f"{line}\n" for line in questions[::2]))  # q1 and q3
        assert main([*argv, "--dataset", str(dataset)]) == 0

    def test_replay_missing_round_fails_cleanly(self, tmp_path, capsys, mini_store):
        code = main(
            [
                "replay",
                "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
                "--replay", str(mini_store),
                "--method", "sc",
                "--budget", "9",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "no recorded sample" in capsys.readouterr().err

    def test_replay_miss_names_the_store(self, tmp_path, capsys, mini_store):
        argv = [
            "replay",
            "--dataset", str(FIXTURES / "mini_dataset.jsonl"),
            "--replay", str(mini_store),
        ]
        out = tmp_path / "x.csv"
        assert main([*argv, "--method", "sc", "--budget", "64", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {mini_store}: no recorded sample for question 'q1' round 5\n"
        )

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["replay", "--dataset", "{tmp}/missing.jsonl", "--replay", "{store}",
              "--budget", "4", "--out", "{tmp}/o.csv"], "{tmp}/missing.jsonl"),
            (["replay", "--dataset", "{dataset}", "--replay", "{tmp}",
              "--budget", "4", "--out", "{tmp}/o.csv"], "{tmp}"),
            (["score", "--samples", "{tmp}/missing.jsonl"], "{tmp}/missing.jsonl"),
            (["replay", "--dataset", "{dataset}", "--replay", "{store}",
              "--budget", "4", "--out", "{tmp}/no_dir/o.csv"], "{tmp}/no_dir/o.csv"),
        ],
        ids=["missing-dataset", "store-is-a-directory", "missing-samples", "unwritable-out"],
    )
    def test_unreadable_paths_fail_closed(self, tmp_path, capsys, argv, named, mini_store):
        paths = dict(
            tmp=tmp_path,
            dataset=FIXTURES / "mini_dataset.jsonl",
            store=mini_store,
        )
        assert main([arg.format(**paths) for arg in argv]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        assert named.format(**paths) in err_lines[0]

    def test_csv_writers_are_deterministic(self, tmp_path):
        streams = {"q0": [("a", 0.9), ("a", 0.8)]}
        spec = spec_for(
            tmp_path,
            streams,
            {"q0": "a"},
            methods=[
                ControllerConfig(method=Method.SC, budget=2),
                ControllerConfig(method=Method.CGES, gamma=0.85, budget=2),
            ],
        )
        report = compare_methods(spec)
        first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_comparison_csv(report, first)
        write_comparison_csv(compare_methods(spec), second)
        assert first.read_bytes() == second.read_bytes()

        curve = sweep_gamma(spec)
        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        write_curve_csv(curve, c1)
        write_curve_csv(curve, c2)
        assert c1.read_bytes() == c2.read_bytes()
