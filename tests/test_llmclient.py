"""Tests for answer extraction, the record store, and the endpoint client."""

import ast
import contextlib
import dataclasses
import gc
import hashlib
import inspect
import json
import logging
import marshal
import math
import os
import ssl
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cges
from cges.cli import main
from cges.confidence import Estimator
from cges.controller import ControllerConfig, Method, run
from cges.errors import (
    CGESError,
    ConfigurationError,
    DuplicateRecordError,
    InvalidSampleError,
    ReplayMissError,
    SamplerError,
)
from cges.llmclient import (
    INDEX_FORMAT,
    INDEX_SUFFIX,
    INVALID_LABEL,
    AnswerFormat,
    EndpointConfig,
    RecordStore,
    SampleRecord,
    _NUMBER_TYPES,
    _TOKEN_PROBS_TYPES,
    _check_record,
    _decode_line,
    _index_header,
    _open_lines,
    _parse_completion,
    derive_seed,
    extract_answer,
    live_sampler,
    render_prompt,
    replay_sampler,
    sample_once,
)


class TestExtractAnswer:
    def test_boxed_simple(self):
        assert extract_answer(r"so the result is \boxed{3/4}", AnswerFormat.BOXED_MATH) == "3/4"

    def test_boxed_nested_braces(self):
        text = r"therefore \boxed{\frac{3}{4}} holds"
        assert extract_answer(text, AnswerFormat.BOXED_MATH) == r"\frac{3}{4}"

    def test_boxed_last_one_wins(self):
        text = r"first \boxed{1} but actually \boxed{2}"
        assert extract_answer(text, AnswerFormat.BOXED_MATH) == "2"

    def test_boxed_whitespace_normalized(self):
        assert extract_answer("\\boxed{ 42\n}", AnswerFormat.BOXED_MATH) == "42"

    def test_boxed_missing_gives_sentinel(self):
        assert extract_answer("ran out of tokens", AnswerFormat.BOXED_MATH) == INVALID_LABEL
        assert extract_answer("", AnswerFormat.BOXED_MATH) == INVALID_LABEL

    def test_boxed_empty_content_gives_sentinel(self):
        assert extract_answer(r"\boxed{}", AnswerFormat.BOXED_MATH) == INVALID_LABEL

    def test_boxed_unclosed_gives_sentinel(self):
        assert extract_answer(r"\boxed{42", AnswerFormat.BOXED_MATH) == INVALID_LABEL

    def test_letter_variants(self):
        assert extract_answer("Answer: B. Because...", AnswerFormat.LETTER_CHOICE) == "B"
        assert extract_answer("the answer is (c)", AnswerFormat.LETTER_CHOICE) == "C"
        assert extract_answer("Answer - d", AnswerFormat.LETTER_CHOICE) == "D"

    def test_letter_last_marker_wins(self):
        text = "Answer: A ... wait, no. Answer: E"
        assert extract_answer(text, AnswerFormat.LETTER_CHOICE) == "E"

    def test_letter_without_marker_gives_sentinel(self):
        assert extract_answer("it is clearly B", AnswerFormat.LETTER_CHOICE) == INVALID_LABEL
        assert extract_answer("", AnswerFormat.LETTER_CHOICE) == INVALID_LABEL

    def test_extraction_idempotence(self):
        for fmt, canonical in (
            (AnswerFormat.BOXED_MATH, lambda lab: f"\\boxed{{{lab}}}"),
            (AnswerFormat.LETTER_CHOICE, lambda lab: f"Answer: {lab}"),
        ):
            for raw in (r"we get \boxed{12 + x}", "Answer: C", "garbage"):
                label = extract_answer(raw, fmt)
                assert extract_answer(canonical(label), fmt) in (label, INVALID_LABEL)
                if label != INVALID_LABEL:
                    assert extract_answer(canonical(label), fmt) == label


# brace-balanced text holding no nested \boxed opener
BALANCED = st.recursive(
    st.text(st.characters(blacklist_characters="{}")),
    lambda inner: st.lists(inner | inner.map("{{{}}}".format), max_size=3).map("".join),
    max_leaves=8,
).filter(lambda text: "\\boxed" not in text)


class TestExtractAnswerProperties:
    @settings(deadline=None)
    @given(st.text(), st.sampled_from(AnswerFormat))
    def test_any_text_yields_a_non_empty_label(self, text, fmt):
        label = extract_answer(text, fmt)
        assert isinstance(label, str) and label

    @settings(deadline=None)
    @given(BALANCED.filter(str.split))
    def test_boxed_content_round_trips_whitespace_normalized(self, content):
        text = rf"\boxed{{{content}}}"
        assert extract_answer(text, AnswerFormat.BOXED_MATH) == " ".join(content.split())


class TestRenderPrompt:
    def test_math_instruction(self):
        prompt = render_prompt("Compute 2+2.", AnswerFormat.BOXED_MATH)
        assert prompt.startswith("Compute 2+2.")
        assert "\\boxed{" in prompt

    def test_choice_instruction(self):
        prompt = render_prompt("Pick one.", AnswerFormat.LETTER_CHOICE)
        assert "Answer: <letter>" in prompt


def make_record(question_id="q0", round_idx=1, label="42", **overrides):
    fields = dict(
        question_id=question_id,
        round=round_idx,
        prompt="p",
        raw_text=r"\boxed{42}",
        extracted_label=label,
        token_probs=(0.9, 0.8),
        confidence_by_estimator={"lns_arith": 0.85, "lns_geo": 0.8485},
        seed=7,
        timestamp="2026-01-01T00:00:00+00:00",
    )
    fields.update(overrides)
    return SampleRecord(**fields)


# one bad line's fault, made by editing a good record's JSON object
BAD_RECORD_EDITS = pytest.mark.parametrize(
    "edit",
    [
        lambda raw: raw.pop("question_id"),
        lambda raw: raw.pop("round"),
        lambda raw: raw.pop("extracted_label"),
        lambda raw: raw.update(round=0),
        lambda raw: raw.update(round="1"),
        lambda raw: raw.update(extracted_label=""),
        lambda raw: raw.update(question_id=["q0"]),
        lambda raw: raw.update(token_probs="0.9"),
        lambda raw: raw.update(confidence_by_estimator={"lns_arith": "0.8"}),
        lambda raw: raw.clear(),
        lambda raw: raw.update(seed="x"),
        lambda raw: raw.update(seed=True),
        lambda raw: raw.update(prompt=5),
        lambda raw: raw.update(raw_text=[1]),
        lambda raw: raw.update(timestamp=None),
        lambda raw: raw.update(confidence_by_estimator=[["lns_arith", 0.8]]),
        lambda raw: raw.update(token_probs=5),
        lambda raw: raw.update(confidence_by_estimator={"lns_arith": True}),
        lambda raw: raw.pop("prompt"),
        lambda raw: raw.pop("raw_text"),
        lambda raw: raw.pop("token_probs"),
        lambda raw: raw.pop("confidence_by_estimator"),
        lambda raw: raw.pop("seed"),
        lambda raw: raw.pop("timestamp"),
    ],
    ids=[
        "no-question-id", "no-round", "no-label", "round-0", "round-string",
        "empty-label", "list-question-id", "string-token-probs",
        "string-confidence", "empty-object", "string-seed", "bool-seed",
        "number-prompt", "list-raw-text", "null-timestamp", "pairs-confidences",
        "number-token-probs", "bool-confidence", "no-prompt", "no-raw-text",
        "no-token-probs", "no-confidences", "no-seed", "no-timestamp",
    ],
)


def stored_entries(record, path):
    """The store's entry of ``record`` appended to a fresh store at ``path``:
    as the append indexed it, and as a record-mode and a replay-mode load do."""
    store = RecordStore.open_record(path)
    store.append(record)
    key = (record.question_id, record.round)
    return [
        kept_entry(store, *key),
        kept_entry(RecordStore.open_record(path), *key),
        kept_entry(RecordStore.open_replay(path), *key),
    ]


def kept_entry(store, question_id, round_idx):
    """What a store keeps of one record: (label, confidences, seed, prompt, line)."""
    label, seed, prompt, line = store._rounds[question_id][round_idx]
    return label, store._confidences(question_id, round_idx), seed, prompt, line


def entry_of(record, line):
    return (
        record.extracted_label, record.confidence_by_estimator, record.seed, record.prompt, line
    )


class TestSampleRecord:
    def test_store_round_trip_is_byte_stable(self, tmp_path):
        record = make_record()
        path = tmp_path / "store.jsonl"
        assert stored_entries(record, path) == [entry_of(record, 1)] * 3
        assert path.read_text(encoding="utf-8") == record.to_json_line() + "\n"

    def test_degraded_record_reads_back_with_no_confidences(self, tmp_path):
        record = make_record(token_probs=None, confidence_by_estimator={})
        entries = stored_entries(record, tmp_path / "store.jsonl")
        assert entries == [entry_of(record, 1)] * 3
        assert entries[0][1] == {}

    def test_estimator_keys_serialized_sorted(self):
        record = make_record(confidence_by_estimator={"rm": 0.5, "lns_arith": 0.6})
        parsed = json.loads(record.to_json_line())
        assert list(parsed["confidence_by_estimator"]) == ["lns_arith", "rm"]

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            make_record(label="")

    @settings(deadline=None)
    @given(
        st.builds(
            SampleRecord,
            question_id=st.text(),
            round=st.integers(min_value=1),
            prompt=st.text(),
            raw_text=st.text(),
            extracted_label=st.text(min_size=1),
            token_probs=st.none() | st.lists(st.floats(allow_nan=False)).map(tuple),
            confidence_by_estimator=st.dictionaries(
                st.text(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            ),
            seed=st.integers(),
            timestamp=st.text(),
        )
    )
    def test_store_round_trip_property(self, record):
        line = record.to_json_line()
        assert "\n" not in line
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "store.jsonl"
            assert stored_entries(record, path) == [entry_of(record, 1)] * 3
            assert path.read_text(encoding="utf-8") == line + "\n"


class TestRecordStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RecordStore.open_record(path)
        store.append(make_record(round_idx=1))
        store.append(make_record(round_idx=2))
        assert len(store) == 2

        replay = RecordStore.open_replay(path)
        assert kept_entry(replay, "q0", 1) == entry_of(make_record(round_idx=1), 1)
        assert (
            kept_entry(replay, "q0", 2)
            == kept_entry(store, "q0", 2)
            == entry_of(make_record(round_idx=2), 2)
        )
        assert ("q0", 2) in replay

    def test_duplicate_append_rejected(self, tmp_path):
        store = RecordStore.open_record(tmp_path / "store.jsonl")
        store.append(make_record())
        with pytest.raises(DuplicateRecordError):
            store.append(make_record())

    def test_record_mode_resumes_existing_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(make_record(round_idx=1))
        resumed = RecordStore.open_record(path)
        resumed.append(make_record(round_idx=2))
        assert len(RecordStore.open_replay(path)) == 2
        with pytest.raises(DuplicateRecordError):
            resumed.append(make_record(round_idx=1))

    def test_replay_mode_requires_existing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RecordStore.open_replay(tmp_path / "missing.jsonl")

    def test_replay_miss_identifies_the_key(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(make_record())
        sampler = replay_sampler(RecordStore.open_replay(path))
        with pytest.raises(
            ReplayMissError, match=r"store\.jsonl: no recorded sample for question 'q0' round 9$"
        ):
            sampler("q0", 9)

    TORN_TAILS = pytest.mark.parametrize(
        "tail",
        [
            b'{"question_id": "q0", "round": 3, "extracted_la',
            '{"question_id": "q0", "round": 3, "raw_text": "\u00e9'.encode()[:-1],
        ],
        ids=["mid-key", "mid-utf8-character"],
    )

    @staticmethod
    def write_two_records(path):
        store = RecordStore.open_record(path)
        store.append(make_record(round_idx=1))
        store.append(make_record(round_idx=2))

    @TORN_TAILS
    def test_torn_final_line_names_path_and_line(self, tmp_path, tail):
        path = tmp_path / "store.jsonl"
        self.write_two_records(path)
        with path.open("ab") as handle:
            handle.write(tail)
        with pytest.raises(CGESError, match="store.jsonl:3"):
            RecordStore.open_replay(path)

    @TORN_TAILS
    def test_record_mode_cuts_a_torn_final_line_and_resumes(self, tmp_path, caplog, tail):
        path = tmp_path / "store.jsonl"
        self.write_two_records(path)
        intact = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(tail)
        with caplog.at_level(logging.WARNING, logger="cges.llmclient"):
            store = RecordStore.open_record(path)
        assert "store.jsonl:3: torn final line" in caplog.text
        assert path.read_bytes() == intact  # the file keeps its 2 lines
        store.append(make_record(round_idx=3))
        replay = RecordStore.open_replay(path)
        assert len(replay) == 3 and kept_entry(replay, "q0", 3)[-1] == 3

    def test_torn_line_before_the_last_fails_closed_in_record_mode(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self.write_two_records(path)
        with path.open("ab") as handle:
            handle.write(b'{"question_id": "q0", "round": 3, "extracted_la\n')
            handle.write(make_record(round_idx=4).to_json_line().encode())
        torn = path.read_bytes()
        for mode in (RecordStore.open_record, RecordStore.open_replay):
            with pytest.raises(CGESError, match="store.jsonl:3"):
                mode(path)
        assert path.read_bytes() == torn

    def test_append_after_a_last_line_without_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(make_record().to_json_line())
        store = RecordStore.open_record(path)
        store.append(make_record(round_idx=2))
        assert kept_entry(RecordStore.open_replay(path), "q0", 2)[-1] == 2

    def test_each_append_opens_writes_and_closes_the_file(self, tmp_path, monkeypatch):
        appending = []
        path_open = Path.open

        def spy(self, mode="r", *args, **kwargs):
            handle = path_open(self, mode, *args, **kwargs)
            if mode.startswith("a"):
                appending.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", spy)
        path = tmp_path / "store.jsonl"
        store = RecordStore.open_record(path)
        assert not path.exists()  # created by the first append
        for round_idx in (1, 2, 3):
            store.append(make_record(round_idx=round_idx))
            assert path.read_text().count("\n") == round_idx  # the line is on disk
            assert len(appending) == round_idx
            assert all(handle.closed for handle in appending)
        assert len(RecordStore.open_replay(path)) == 3

    def test_concurrent_appends_keep_every_line_and_its_number(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RecordStore.open_record(path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda q=q: [
                        store.append(make_record(question_id=q, round_idx=r)) for r in range(1, 26)
                    ]
                )
                for q in (f"q{i}" for i in range(8))
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 25
        replay = RecordStore.open_replay(path)
        for line_no, line in enumerate(lines, start=1):
            raw = json.loads(line)
            key = (raw["question_id"], raw["round"])
            assert kept_entry(replay, *key)[-1] == kept_entry(store, *key)[-1] == line_no

    @pytest.mark.parametrize("mode", [RecordStore.open_record, RecordStore.open_replay])
    def test_require_estimator_names_the_earliest_line_of_interleaved_questions(
        self, tmp_path, mode
    ):
        # a pooled --record run writes the rounds of its questions interleaved
        degraded = dict(token_probs=None, confidence_by_estimator={})
        records = [
            make_record(question_id="q1", round_idx=1),
            make_record(question_id="q0", round_idx=1),
            make_record(question_id="q0", round_idx=2, **degraded),
            make_record(question_id="q1", round_idx=2, **degraded),
        ]
        path = tmp_path / "store.jsonl"
        path.write_text("".join(record.to_json_line() + "\n" for record in records))
        store = mode(path)
        with pytest.raises(ConfigurationError, match=r"store.jsonl:3: .*'q0' round 2 .*none"):
            store.require_estimator(["q1", "q0"], Estimator.LNS_ARITHMETIC)
        with pytest.raises(ConfigurationError, match=r"store.jsonl:4: .*'q1' round 2 .*none"):
            store.require_estimator(["q1"], Estimator.LNS_ARITHMETIC)

    def test_two_estimators_in_either_key_order_round_trip(self, tmp_path):
        records = [
            make_record(round_idx=1, confidence_by_estimator={"lns_geo": 0.3, "lns_arith": 0.4}),
            make_record(round_idx=2, confidence_by_estimator={"lns_arith": 0.6, "lns_geo": 0.5}),
            make_record(round_idx=3, confidence_by_estimator={"lns_geo": 0.7}),
        ]
        path = tmp_path / "store.jsonl"
        store = RecordStore.open_record(path)
        for record in records:
            store.append(record)
        for view in (store, RecordStore.open_record(path), RecordStore.open_replay(path)):
            for line, record in enumerate(records, start=1):
                assert kept_entry(view, "q0", record.round) == entry_of(record, line)

    def test_require_estimator_names_the_line_without_reading_the_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        degraded = make_record(round_idx=2, token_probs=None, confidence_by_estimator={})
        lines = [make_record().to_json_line(), "", degraded.to_json_line()]
        path.write_text("\n".join(lines) + "\n")
        store = RecordStore.open_replay(path)
        path.unlink()
        store.require_estimator(["q1"], Estimator.LNS_GEOMETRIC)  # q0 is not asked for
        with pytest.raises(ConfigurationError, match=r"store.jsonl:3: .*'q0' round 2 .*none"):
            store.require_estimator(["q0"], Estimator.LNS_GEOMETRIC)

    @BAD_RECORD_EDITS
    def test_bad_record_names_path_and_line(self, tmp_path, edit):
        raw = json.loads(make_record(round_idx=2).to_json_line())
        edit(raw)
        path = tmp_path / "store.jsonl"
        path.write_text(make_record().to_json_line() + "\n" + json.dumps(raw) + "\n")
        for mode in (RecordStore.open_record, RecordStore.open_replay):
            with pytest.raises(CGESError, match="store.jsonl:2"):
                mode(path)

    def test_a_repeated_record_names_path_and_line_and_leaves_no_index(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(make_record().to_json_line() + "\n" + make_record().to_json_line() + "\n")
        for mode in (RecordStore.open_record, RecordStore.open_replay):
            with pytest.raises(
                DuplicateRecordError, match=r"store.jsonl:2: duplicate record for \('q0', 1\)"
            ):
                mode(path)
        assert not index_of(path).exists()

    def test_a_missing_field_is_named_and_other_keys_are_ignored(self, tmp_path):
        raw = json.loads(make_record().to_json_line())
        raw["step_importance"] = [1.0, 2.0]  # a key cges does not write
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        assert kept_entry(RecordStore.open_replay(path), "q0", 1) == entry_of(make_record(), 1)
        del raw["seed"]
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(
            ConfigurationError, match=r"store.jsonl:1: bad sample record: KeyError\('seed'\)"
        ):
            RecordStore.open_replay(path)

    @BAD_RECORD_EDITS
    def test_bad_record_fails_direct_construction(self, edit):
        raw = json.loads(make_record(round_idx=2).to_json_line())
        edit(raw)
        # the constructor takes every field; one the edit removed is passed as a
        # value of no field's type (None is a valid token_probs)
        values = {
            field.name: raw.get(field.name, object()) for field in dataclasses.fields(SampleRecord)
        }
        with pytest.raises(InvalidSampleError):
            SampleRecord(**values)

    @pytest.mark.parametrize(
        "second_fault",
        [{"token_probs": "0.9"}, {"confidence_by_estimator": {"lns_arith": 1.5, "rm": "0.8"}}],
        ids=["string-token-probs", "string-confidence"],
    )
    def test_type_fault_is_named_before_range_fault(self, tmp_path, second_fault):
        raw = json.loads(make_record(round_idx=2).to_json_line())
        raw["confidence_by_estimator"] = {"lns_arith": 1.5}
        raw.update(second_fault)
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(ConfigurationError, match="store.jsonl:1: .*must be numbers"):
            RecordStore.open_replay(path)
        with pytest.raises(InvalidSampleError, match="must be numbers"):
            SampleRecord(**raw)

    @pytest.mark.parametrize("confidence", ["NaN", "0.0", "1.0", "-0.1"])
    def test_confidence_outside_the_open_interval_names_path_and_line(
        self, tmp_path, confidence
    ):
        line = make_record(round_idx=2).to_json_line().replace("0.85", confidence)
        path = tmp_path / "store.jsonl"
        path.write_text(make_record().to_json_line() + "\n" + line + "\n")
        for mode in (RecordStore.open_record, RecordStore.open_replay):
            with pytest.raises(ConfigurationError, match="store.jsonl:2: .*lns_arith"):
                mode(path)

    def test_cli_replay_exits_on_out_of_range_confidence(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        store.write_text(make_record().to_json_line().replace("0.85", "NaN") + "\n")
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            json.dumps({"id": "q0", "prompt": "p", "gold": "42", "format": "boxed_math"})
            + "\n"
        )
        argv = ["replay", "--dataset", str(dataset), "--replay", str(store)]
        assert main([*argv, "--budget", "1", "--out", str(tmp_path / "out.csv")]) == 1
        assert "store.jsonl:1" in capsys.readouterr().err

    def test_non_object_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(CGESError, match="store.jsonl:1: bad sample record"):
            RecordStore.open_replay(path)

    def test_whitespace_around_a_line_is_allowed_and_trailing_data_is_not(self, tmp_path):
        path = tmp_path / "store.jsonl"
        line = make_record().to_json_line()
        path.write_bytes(f"  {line}\r\n{make_record(round_idx=2).to_json_line()} \n".encode())
        assert len(RecordStore.open_replay(path)) == 2
        path.write_text(f"{line}\n{line} x\n")
        with pytest.raises(CGESError, match="store.jsonl:2: malformed JSON: Extra data"):
            RecordStore.open_replay(path)

    def test_record_store_needs_an_existing_directory(self, tmp_path):
        path = tmp_path / "missing_dir" / "out.jsonl"
        with pytest.raises(ConfigurationError, match=r"missing_dir/out\.jsonl"):
            RecordStore.open_record(path)
        (tmp_path / "a_file").write_text("")
        with pytest.raises(ConfigurationError, match="is not a directory"):
            RecordStore.open_record(tmp_path / "a_file" / "out.jsonl")

    def test_replay_store_refuses_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(make_record())
        with pytest.raises(ConfigurationError):
            RecordStore.open_replay(path).append(make_record(round_idx=2))


@pytest.fixture(scope="module")
def wide_store(tmp_path_factory):
    """A 300-question by 64-round store with one estimator, as a live run
    records it: derived seeds, one prompt per question, a few labels."""
    path = tmp_path_factory.mktemp("wide") / "store.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for q in range(300):
            for round_idx in range(1, 65):
                record = make_record(
                    question_id=f"q{q}",
                    round_idx=round_idx,
                    label=str(round_idx % 4),
                    prompt=f"question {q}",
                    confidence_by_estimator={"lns_arith": round_idx / 100},
                    seed=derive_seed(0, f"q{q}", round_idx),
                )
                handle.write(record.to_json_line() + "\n")
    return path


class TestStoreLayout:
    def test_retained_bytes_per_record(self, wide_store):
        gc.collect()
        tracemalloc.start()
        try:
            store = RecordStore.open_replay(wide_store)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 300 * 64
        assert retained / len(store) < 260  # 472 B when each record kept its own dict

    def test_retained_bytes_per_record_after_an_index_hit(self, wide_store):
        RecordStore.open_replay(wide_store)  # writes the index if no open has yet
        gc.collect()
        tracemalloc.start()
        try:
            store, decoded = open_replay_decoding(wide_store)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not decoded and len(store) == 300 * 64
        assert retained / len(store) < 260

    def test_an_estimator_name_is_one_object_per_store(self, wide_store):
        store = RecordStore.open_replay(wide_store)
        names = [
            name
            for q in range(300)
            for round_idx in range(1, 65)
            for name in store._confidences(f"q{q}", round_idx)
        ]
        assert len(names) == 300 * 64
        assert len({id(name) for name in names}) == 1


def store_layout(store):
    """Everything a replay reads of a load, with the order of questions,
    rounds and estimator names, and of the questions and rounds in each
    estimator's column."""
    return (
        [(question_id, list(rounds.items())) for question_id, rounds in store._rounds.items()],
        [
            (name, [(question_id, list(rounds.items())) for question_id, rounds in column.items()])
            for name, column in store._columns.items()
        ],
    )


def index_of(path):
    return path.with_name(path.name + INDEX_SUFFIX)


def packed_double(value):
    """A confidence as the replay index writes it: ``marshal``'s little-endian double."""
    return struct.pack("<d", value)


def reheaded_index(index, version=marshal.version, payload=None):
    """The index bytes with another ``marshal`` version in their header line, or
    another payload, each under a header whose payload CRC-32 matches."""
    header, kept = index.split(b"\n", 1)
    payload = kept if payload is None else payload
    fields = header.split(b" ")  # format, marshal version, store bytes and CRC, payload CRC
    fields[1], fields[-1] = str(version).encode(), str(zlib.crc32(payload)).encode()
    return b" ".join(fields) + b"\n" + payload


def open_replay_decoding(path):
    """(the store opened in replay mode, whether the open decoded the store)."""
    loads = []
    load = RecordStore._load

    def spy(store):
        loads.append(store.path)
        return load(store)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RecordStore, "_load", spy)
        store = RecordStore.open_replay(path)
    return store, bool(loads)


def write_interleaved_store(path):
    """Rounds of three questions interleaved as a pooled run writes them, with
    degraded records, a blank line, estimators first seen in another order
    than sorted, and no newline after the last line."""
    degraded = dict(token_probs=None, confidence_by_estimator={})
    geo_first = json.loads(make_record(question_id="q0", round_idx=2).to_json_line())
    geo_first["confidence_by_estimator"] = {"lns_geo": 0.31, "mars": 0.5, "lns_arith": 0.7}
    lines = [
        make_record(question_id="q1", round_idx=1, label="7", **degraded).to_json_line(),
        json.dumps(geo_first),
        make_record(question_id="q1", round_idx=3, prompt="other").to_json_line(),
        "",
        make_record(question_id="q2", round_idx=1, seed=2**70).to_json_line(),
        make_record(question_id="q0", round_idx=1, label="INVALID", **degraded).to_json_line(),
        make_record(
            question_id="q1", round_idx=2, confidence_by_estimator={"mars": 1e-300}
        ).to_json_line(),
    ]
    path.write_text("\n".join(lines))


class TestReplayIndex:
    @pytest.mark.parametrize("store", ["fixture", "interleaved"])
    def test_a_hit_rebuilds_the_maps_of_a_full_load(self, tmp_path, store):
        path = tmp_path / "store.jsonl"
        if store == "fixture":
            path.write_bytes((Path(__file__).parent / "fixtures" / "mini_store.jsonl").read_bytes())
        else:
            write_interleaved_store(path)
        loaded, decoded = open_replay_decoding(path)
        assert decoded and index_of(path).is_file()
        indexed, decoded = open_replay_decoding(path)
        assert not decoded
        assert store_layout(indexed) == store_layout(loaded)
        if store == "interleaved":
            assert list(loaded._rounds) == ["q1", "q0", "q2"]
            assert list(loaded._columns) == ["lns_geo", "mars", "lns_arith"]
            assert loaded._separator == "\n" and loaded._lines == 7

    def test_a_hit_holds_one_object_per_label_prompt_and_name(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_interleaved_store(path)
        RecordStore.open_replay(path)
        store, decoded = open_replay_decoding(path)
        assert not decoded
        cells = [cell for rounds in store._rounds.values() for cell in rounds.values()]
        for place in (0, 2):  # label, prompt
            assert len({id(cell[place]) for cell in cells}) == len({cell[place] for cell in cells})

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["q0", "q1", "é"]),
                st.integers(min_value=1, max_value=6),
                st.text(min_size=1, max_size=3),
                st.dictionaries(
                    st.sampled_from(["lns_arith", "lns_geo", "mars"]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                ),
                st.integers(),
            ),
            unique_by=lambda cell: cell[:2],
        )
    )
    def test_a_hit_equals_a_full_load_on_any_store(self, cells):
        records = [
            make_record(
                question_id=question_id, round_idx=round_idx, label=label, seed=seed,
                prompt=question_id * round_idx, confidence_by_estimator=confidences,
            ).to_json_line()
            for question_id, round_idx, label, confidences, seed in cells
        ]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "store.jsonl"
            path.write_text("".join(f"{line}\n" for line in records))
            loaded, _ = open_replay_decoding(path)
            indexed, decoded = open_replay_decoding(path)
            assert not decoded
            assert store_layout(indexed) == store_layout(loaded)

    @pytest.mark.parametrize(
        "change",
        [
            lambda path: RecordStore.open_record(path).append(make_record(round_idx=9)),
            # the same length, another CRC: a key cannot come from the length or the mtime
            lambda path: path.write_text(path.read_text().replace("0.85", "0.86", 1)),
        ],
        ids=["appended", "edited-in-place"],
    )
    def test_a_stale_index_falls_back_to_a_full_load(self, tmp_path, change):
        path = tmp_path / "store.jsonl"
        self.write_store(path)
        RecordStore.open_replay(path)
        change(path)
        self.assert_missed_then_rewritten(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda index: index.write_bytes(index.read_bytes()[: len(index.read_bytes()) // 2]),
            lambda index: index.write_bytes(index.read_bytes()[:-2]),
            lambda index: index.write_bytes(index.read_bytes() + b"\n"),
            lambda index: index.write_bytes(
                index.read_bytes().replace(packed_double(0.85), packed_double(0.95), 1)
            ),
            lambda index: index.write_bytes(index.read_bytes().replace(b"q0", b"q9", 1)),
            lambda index: index.write_text(""),
        ],
        ids=["torn", "torn-last-line", "trailing-bytes", "garbled-number", "garbled-id", "empty"],
    )
    def test_a_torn_or_garbled_index_falls_back_to_a_full_load(self, tmp_path, damage):
        path = tmp_path / "store.jsonl"
        self.write_store(path)
        RecordStore.open_replay(path)
        damage(index_of(path))
        self.assert_missed_then_rewritten(path)

    @pytest.mark.parametrize(
        "foreign",
        [
            lambda index: index.write_bytes(
                index.read_bytes().replace(INDEX_FORMAT.encode(), b"cges-index/0", 1)
            ),
            lambda index: index.write_text("[1, 2, 3]\n"),
            lambda index: index.write_bytes(b"\x80\x04\x95 not json\n"),
            lambda index: index.write_bytes(
                reheaded_index(index.read_bytes(), version=marshal.version + 1)
            ),
            lambda index: index.write_bytes(
                reheaded_index(index.read_bytes(), payload=marshal.dumps([1, 2, 3]))
            ),
        ],
        ids=["older-format", "other-json", "binary", "other-marshal-version", "other-payload"],
    )
    def test_a_foreign_index_falls_back_to_a_full_load(self, tmp_path, foreign):
        path = tmp_path / "store.jsonl"
        self.write_store(path)
        RecordStore.open_replay(path)
        foreign(index_of(path))
        self.assert_missed_then_rewritten(path)

    def test_an_unwritable_index_leaves_the_open_whole_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self.write_store(path)
        index_of(path).mkdir()  # a path no index can be read from or renamed onto
        for _ in range(2):
            store, decoded = open_replay_decoding(path)
            assert decoded and len(store) == 3
        assert sorted(tmp_path.iterdir()) == [path, index_of(path)]

    def test_a_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        self.write_store(path)

        def read_only(source, target):
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(os, "replace", read_only)
        store, decoded = open_replay_decoding(path)
        assert decoded and len(store) == 3
        assert list(tmp_path.iterdir()) == [path]

    def test_record_mode_neither_reads_nor_writes_an_index(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self.write_store(path)
        RecordStore.open_record(path).append(make_record(round_idx=4))
        assert not index_of(path).exists()
        RecordStore.open_replay(path)
        index = index_of(path).read_bytes()
        store = RecordStore.open_record(path)
        assert len(store) == 4 and index_of(path).read_bytes() == index

    @BAD_RECORD_EDITS
    def test_bad_record_beside_an_index_of_the_good_store_names_path_and_line(
        self, tmp_path, edit
    ):
        good = make_record(round_idx=2).to_json_line()
        raw = json.loads(good)
        edit(raw)
        path = tmp_path / "store.jsonl"
        path.write_text(make_record().to_json_line() + "\n" + good + "\n")
        RecordStore.open_replay(path)
        assert index_of(path).is_file()
        path.write_text(make_record().to_json_line() + "\n" + json.dumps(raw) + "\n")
        for mode in (RecordStore.open_record, RecordStore.open_replay):
            with pytest.raises(CGESError, match="store.jsonl:2"):
                mode(path)

    # INDEX_FORMAT and a digest of what decides what a load accepts and keeps,
    # and of the index's writer and reader: the record's fields, the types its
    # check accepts, and the syntax trees of these functions, so that a comment,
    # docstring or layout edit leaves the digest as it is.  When this fails,
    # bump INDEX_FORMAT (an index written before then misses once) and pin the
    # new pair here.
    PINNED_FORMAT = (
        "cges-index/3",
        "0265140847446fc7d129f55dd42b3b648a6380c54ad67c45a88ad1f96e9f725e",
    )

    def test_index_format_is_bumped_with_what_a_load_checks_or_keeps(self):
        parts = [
            [field.name for field in dataclasses.fields(SampleRecord)],
            *(
                sorted(kind.__name__ for kind in kinds)
                for kinds in (_NUMBER_TYPES, _TOKEN_PROBS_TYPES)
            ),
        ]
        for function in (
            _open_lines, _decode_line, _check_record, RecordStore._keep, RecordStore._load,
            _index_header, RecordStore._write_index, RecordStore._load_index,
        ):
            tree = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]
            body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
            parts.append([ast.dump(tree.args), *map(ast.dump, body)])
        digest = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
        pinned = (INDEX_FORMAT, digest)
        assert pinned == self.PINNED_FORMAT, (
            "what a load checks or keeps, or the replay index, changed: bump INDEX_FORMAT "
            "and pin the new pair"
        )

    @staticmethod
    def write_store(path):
        path.write_text(
            "".join(make_record(round_idx=r).to_json_line() + "\n" for r in (1, 2, 3))
        )

    @staticmethod
    def assert_missed_then_rewritten(path):
        store, decoded = open_replay_decoding(path)
        assert decoded
        # record mode never reads an index: its open is a full load
        assert store_layout(store) == store_layout(RecordStore.open_record(path))
        again, decoded = open_replay_decoding(path)  # from the index the miss rewrote
        assert not decoded
        assert store_layout(again) == store_layout(store)


class TestReplaySampler:
    def test_serves_label_and_confidence(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(make_record())
        sampler = replay_sampler(RecordStore.open_replay(path), Estimator.LNS_GEOMETRIC)
        assert sampler("q0", 1) == ("42", 0.8485)

    def test_missing_round_raises_replay_miss(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(make_record())
        sampler = replay_sampler(RecordStore.open_replay(path))
        with pytest.raises(ReplayMissError):
            sampler("q0", 2)

    def test_degraded_record_refused_for_probability_estimators(self, tmp_path):
        path = tmp_path / "store.jsonl"
        RecordStore.open_record(path).append(
            make_record(token_probs=None, confidence_by_estimator={})
        )
        sampler = replay_sampler(RecordStore.open_replay(path), Estimator.LNS_ARITHMETIC)
        with pytest.raises(SamplerError) as caught:
            sampler("q0", 1)
        assert str(caught.value) == (
            f"{path}:1: record for question 'q0' round 1 has no 'lns_arith' confidence "
            "(available: none)"
        )

    def test_requires_replay_mode(self, tmp_path):
        store = RecordStore.open_record(tmp_path / "store.jsonl")
        with pytest.raises(ConfigurationError):
            replay_sampler(store)


# ---------------------------------------------------------------------------
# endpoint client against a local stub server
# ---------------------------------------------------------------------------


class StubState:
    def __init__(self):
        self.requests = []
        self.fail_next = 0  # replies with the fail_status status
        self.fail_status = 500
        self.non_json_next = 0  # replies with a 200 status and a body that is not JSON
        self.omit_logprobs = False
        self.text = r"The sum is \boxed{42}."
        self.logprobs = [-0.1, -0.2, -0.05]
        self.body = None  # when set, sent as the 200 reply: JSON-encoded, or bytes as they are
        self.lock = threading.Lock()
        self.in_flight = 0  # requests being served, and the most served at once
        self.most_in_flight = 0

    def count_in_flight(self, step):
        with self.lock:
            self.in_flight += step
            self.most_in_flight = max(self.most_in_flight, self.in_flight)


def chat_completion(state):
    """The body of the stub's 200 reply: ``state.body``, or a chat completion
    of ``state.text`` with ``state.logprobs`` unless it omits them."""
    choice = {"message": {"role": "assistant", "content": state.text}}
    if not state.omit_logprobs:
        choice["logprobs"] = {"content": [{"token": "t", "logprob": lp} for lp in state.logprobs]}
    reply = {"choices": [choice]} if state.body is None else state.body
    return reply if isinstance(reply, bytes) else json.dumps(reply).encode()


def make_stub_handler(state):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            state.count_in_flight(1)
            try:
                self.reply()
            finally:
                state.count_in_flight(-1)

        def reply(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            state.requests.append(
                {"path": self.path, "payload": payload, "auth": self.headers.get("Authorization"),
                 "headers": dict(self.headers), "port": self.client_address[1]}
            )
            if state.fail_next > 0:
                state.fail_next -= 1
                self.send_response(state.fail_status)
                self.end_headers()
                return
            if state.non_json_next > 0:
                state.non_json_next -= 1
                self.send_response(200)
                self.send_header("Content-Length", "8")
                self.end_headers()
                self.wfile.write(b"not json")
                return
            body = chat_completion(state)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


@contextlib.contextmanager
def serving(handler):
    """The base URL of a local server running ``handler`` until the block exits."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def stub_server():
    state = StubState()
    with serving(make_stub_handler(state)) as base_url:
        yield base_url, state


def endpoint_for(base_url, **overrides):
    fields = dict(
        base_url=base_url,
        model_name="stub-model",
        request_timeout=5.0,
        max_retries=2,
    )
    fields.update(overrides)
    return EndpointConfig(**fields)


class TestSampleOnce:
    def test_fills_record_from_response(self, stub_server):
        base_url, state = stub_server
        record = sample_once(
            "q0", "What is 40+2?", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=11
        )
        assert record.extracted_label == "42"
        assert record.raw_text == state.text
        expected_probs = tuple(math.exp(lp) for lp in state.logprobs)
        assert record.token_probs == pytest.approx(expected_probs)
        assert set(record.confidence_by_estimator) == {"lns_arith", "lns_geo"}
        assert record.seed == 11
        assert "What is 40+2?" in record.prompt

    def test_request_carries_decoding_defaults(self, stub_server, monkeypatch):
        base_url, state = stub_server
        monkeypatch.setenv("CGES_API_KEY", "sk-test")
        sample_once("q0", "x", AnswerFormat.BOXED_MATH, 3, endpoint_for(base_url), seed=0)
        sent = state.requests[-1]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["payload"]["temperature"] == 0.7
        assert sent["payload"]["top_p"] == 1.0
        assert sent["payload"]["max_tokens"] == 32768
        assert sent["payload"]["logprobs"] is True
        assert sent["auth"] == "Bearer sk-test"

    def test_api_key_is_not_replaced_by_netrc(self, stub_server, monkeypatch, tmp_path):
        base_url, state = stub_server
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login someone password hunter2\n")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("CGES_API_KEY", "sk-test")
        sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0)
        assert state.requests[-1]["auth"] == "Bearer sk-test"

    @pytest.mark.parametrize("failure", ["fail_next", "non_json_next"])
    def test_transient_http_failure_is_retried(self, stub_server, failure):
        base_url, state = stub_server
        setattr(state, failure, 2)
        record = sample_once(
            "q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0
        )
        assert record.extracted_label == "42"
        assert len(state.requests) == 3

    @pytest.mark.parametrize("failure", ["fail_next", "non_json_next"])
    def test_persistent_failure_raises_sampler_error(self, stub_server, failure):
        base_url, state = stub_server
        setattr(state, failure, 99)
        with pytest.raises(SamplerError, match="3 attempts"):
            sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0)
        assert len(state.requests) == 3

    def test_positive_logprob_clamps_to_probability_one(self, stub_server):
        base_url, state = stub_server
        state.logprobs = [1e308, -0.1]
        record = sample_once(
            "q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0
        )
        assert record.token_probs == pytest.approx((1.0, math.exp(-0.1)))

    def test_missing_logprobs_degrades_record(self, stub_server):
        base_url, state = stub_server
        state.omit_logprobs = True
        record = sample_once(
            "q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0
        )
        assert record.token_probs is None
        assert record.confidence_by_estimator == {}

    def test_unparseable_text_maps_to_invalid(self, stub_server):
        base_url, state = stub_server
        state.text = "no final answer here"
        record = sample_once(
            "q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), seed=0
        )
        assert record.extracted_label == INVALID_LABEL


class TestLiveSampler:
    def test_records_then_replays_identically(self, stub_server, tmp_path):
        base_url, _ = stub_server
        store_path = tmp_path / "recorded.jsonl"
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        sampler = live_sampler(
            endpoint_for(base_url),
            prompts,
            estimator=Estimator.LNS_GEOMETRIC,
            store=RecordStore.open_record(store_path),
            base_seed=1,
        )
        live = [sampler("q0", r) for r in (1, 2, 3)]
        replay = replay_sampler(
            RecordStore.open_replay(store_path), Estimator.LNS_GEOMETRIC
        )
        assert [replay("q0", r) for r in (1, 2, 3)] == live

    def test_passes_seed_and_connection_by_keyword(self, stub_server, monkeypatch):
        base_url, _ = stub_server
        calls = []
        original = cges.llmclient.sample_once

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cges.llmclient, "sample_once", spy)
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        live_sampler(endpoint_for(base_url), prompts, base_seed=3)("q0", 2)
        assert calls[0]["seed"] == derive_seed(3, "q0", 2)
        assert calls[0]["connection"] is not None

    def test_recorded_rounds_are_reused_not_requeried(self, stub_server, tmp_path):
        base_url, state = stub_server
        store = RecordStore.open_record(tmp_path / "shared.jsonl")
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        first = live_sampler(endpoint_for(base_url), prompts, store=store)
        drawn = [first("q0", r) for r in (1, 2)]
        requests_before = len(state.requests)

        second = live_sampler(endpoint_for(base_url), prompts, store=store)
        assert [second("q0", r) for r in (1, 2)] == drawn
        assert len(state.requests) == requests_before  # no new network calls
        assert second("q0", 3)  # beyond the recorded rounds it samples live
        assert len(state.requests) == requests_before + 1

    @pytest.mark.parametrize(
        "foreign, message",
        [
            (dict(seed=derive_seed(1, "q0", 1)), "has seed"),
            (
                dict(prompt=render_prompt("What is 40+3?", AnswerFormat.BOXED_MATH)),
                "has a different prompt",
            ),
        ],
        ids=["seed", "prompt"],
    )
    def test_foreign_record_is_refused(self, stub_server, tmp_path, foreign, message):
        base_url, state = stub_server
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        fields = dict(
            seed=derive_seed(0, "q0", 1),
            prompt=render_prompt("What is 40+2?", AnswerFormat.BOXED_MATH),
        )
        fields.update(foreign)
        store = RecordStore.open_record(tmp_path / "store.jsonl")
        store.append(make_record(**fields))
        sampler = live_sampler(endpoint_for(base_url), prompts, store=store, base_seed=0)
        with pytest.raises(ConfigurationError, match=rf"store.jsonl: .*'q0' round 1 {message}"):
            sampler("q0", 1)
        assert state.requests == []

    def test_resumed_record_without_the_estimator_names_path_and_line(
        self, stub_server, tmp_path
    ):
        base_url, state = stub_server
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        path = tmp_path / "store.jsonl"
        prompt = render_prompt("What is 40+2?", AnswerFormat.BOXED_MATH)
        store = RecordStore.open_record(path)
        store.append(make_record(seed=derive_seed(0, "q0", 1), prompt=prompt))
        store.append(
            make_record(
                round_idx=2,
                seed=derive_seed(0, "q0", 2),
                prompt=prompt,
                confidence_by_estimator={"lns_arith": 0.85},  # a record of lns-arith only
            )
        )
        sampler = live_sampler(
            endpoint_for(base_url), prompts, estimator=Estimator.LNS_GEOMETRIC, store=store
        )
        assert sampler("q0", 1) == ("42", 0.8485)
        with pytest.raises(SamplerError) as caught:
            sampler("q0", 2)
        assert str(caught.value) == (
            f"{path}:2: record for question 'q0' round 2 has no 'lns_geo' confidence "
            "(available: lns_arith)"
        )
        assert state.requests == []

    def test_fresh_degraded_sample_names_the_missing_log_probabilities(self, stub_server):
        base_url, state = stub_server
        state.omit_logprobs = True
        sampler = live_sampler(endpoint_for(base_url), {"q0": ("x", AnswerFormat.BOXED_MATH)})
        with pytest.raises(SamplerError) as caught:
            sampler("q0", 1)
        assert str(caught.value) == (
            "record for question 'q0' round 1 has no 'lns_arith' confidence (available: none); "
            "the record may be degraded (missing token log-probabilities)"
        )

    def test_recording_requires_record_mode(self, stub_server, tmp_path):
        base_url, _ = stub_server
        path = tmp_path / "s.jsonl"
        RecordStore.open_record(path).append(make_record())
        with pytest.raises(ConfigurationError):
            live_sampler(
                endpoint_for(base_url),
                {},
                store=RecordStore.open_replay(path),
            )

    @pytest.mark.parametrize("flag", ["mars", "rm"])
    def test_cli_refuses_estimator_a_live_endpoint_cannot_serve(
        self, stub_server, tmp_path, capsys, flag
    ):
        base_url, state = stub_server
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "q0", "prompt": "40+2?", "gold": "42", "format": "boxed_math"})
            + "\n"
        )
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"base_url": base_url, "model_name": "m"}))
        record = tmp_path / "out.jsonl"
        code = main(
            ["run", "--dataset", str(dataset), "--endpoint-config", str(config),
             "--estimator", flag, "--record", str(record), "--seeds", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a live endpoint serves only the lns_arith and lns_geo")
        assert state.requests == []
        assert not record.exists()


def write_live_inputs(tmp_path, base_url, n_questions=2):
    """A dataset of boxed-math questions and an endpoint config for the stub."""
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": f"q{i}", "prompt": f"40+{i}?", "gold": "42",
                        "format": "boxed_math"}) + "\n"
            for i in range(n_questions)
        )
    )
    config = tmp_path / "endpoint.json"
    config.write_text(json.dumps({"base_url": base_url, "model_name": "m"}))
    return dataset, config


class TestRecordFlag:
    def test_cli_refuses_a_record_path_in_a_missing_directory(
        self, stub_server, tmp_path, capsys
    ):
        base_url, state = stub_server
        dataset, config = write_live_inputs(tmp_path, base_url)
        record = tmp_path / "missing_dir" / "out.jsonl"
        code = main(
            ["run", "--dataset", str(dataset), "--endpoint-config", str(config),
             "--record", str(record), "--seeds", "0"]
        )
        assert code == 1
        assert str(record) in capsys.readouterr().err
        assert state.requests == []


class TestOneStreamPerSource:
    """Every method and curve point reads one stream per seed: one request
    per (seed, question, round) read, however many configurations ask."""

    @staticmethod
    def requested_seeds(state):
        return [request["payload"]["seed"] for request in state.requests]

    def test_live_sweep_reads_each_key_once(self, stub_server, tmp_path, capsys):
        base_url, state = stub_server
        dataset, config = write_live_inputs(tmp_path, base_url)
        code = main(
            ["sweep", "--dataset", str(dataset), "--endpoint-config", str(config),
             "--budget", "3", "--seeds", "0,1", "--gamma-grid", "0.7,0.9,1.0",
             "--out", str(tmp_path / "curve.csv")]
        )
        assert code == 0
        # gamma = 1.0 never stops, so every round of every question is read
        keys = [derive_seed(seed, qid, rnd) for seed in (0, 1) for qid in ("q0", "q1")
                for rnd in (1, 2, 3)]
        assert sorted(self.requested_seeds(state)) == sorted(keys)

    def test_live_run_reads_each_key_once(self, stub_server, tmp_path, capsys):
        base_url, state = stub_server
        dataset, config = write_live_inputs(tmp_path, base_url)
        code = main(
            ["run", "--dataset", str(dataset), "--endpoint-config", str(config),
             "--budget", "4", "--window", "2", "--seeds", "0,1"]
        )
        assert code == 0
        assert "esc_w2" in capsys.readouterr().out
        # SC draws the full budget, so every round of every question is read
        keys = [derive_seed(seed, qid, rnd) for seed in (0, 1) for qid in ("q0", "q1")
                for rnd in (1, 2, 3, 4)]
        assert sorted(self.requested_seeds(state)) == sorted(keys)


class TestOneRetryLayer:
    """HTTP failures are retried by the client only; the controller never retries."""

    def run_cges(self, base_url, **endpoint_overrides):
        prompts = {"q0": ("What is 40+2?", AnswerFormat.BOXED_MATH)}
        sampler = live_sampler(endpoint_for(base_url, **endpoint_overrides), prompts)
        return run(["q0"], sampler, ControllerConfig(method=Method.CGES, budget=1))

    def test_transient_failure_costs_its_retries_only(self, stub_server):
        base_url, state = stub_server
        state.fail_next = 2
        result = self.run_cges(base_url)
        assert result.predictions == {"q0": "42"}
        assert len(state.requests) == 3

    def test_persistent_failure_costs_one_client_budget(self, stub_server):
        base_url, state = stub_server
        state.fail_next = 99
        with pytest.raises(SamplerError, match="4 attempts"):
            self.run_cges(base_url, max_retries=3)
        assert len(state.requests) == 4

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_a_status_no_retry_can_change_costs_one_request(self, stub_server, status):
        base_url, state = stub_server
        state.fail_status, state.fail_next = status, 99
        with pytest.raises(SamplerError, match=f"refused question 'q0' round 1: HTTP {status}"):
            self.run_cges(base_url, max_retries=3)
        assert len(state.requests) == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_a_status_a_retry_can_change_is_retried(self, stub_server, status):
        base_url, state = stub_server
        state.fail_status, state.fail_next = status, 1
        assert self.run_cges(base_url).predictions == {"q0": "42"}
        assert len(state.requests) == 2

    def test_malformed_reply_costs_one_request(self, stub_server):
        base_url, state = stub_server
        state.body = {"choices": [{"message": None}]}
        with pytest.raises(SamplerError, match="'q0' round 1: malformed completion message"):
            self.run_cges(base_url, max_retries=3)
        assert len(state.requests) == 1

    def test_a_null_reply_costs_one_request(self, stub_server):
        # JSON, but no chat completion: refused at once, with the parser's reason
        base_url, state = stub_server
        state.body = b"null"
        endpoint = endpoint_for(base_url, max_retries=3)
        with pytest.raises(SamplerError) as caught:
            sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint, seed=0)
        assert str(caught.value) == "question 'q0' round 1: malformed completion payload: None"
        assert len(state.requests) == 1

    def test_cli_run_exits_on_malformed_reply(self, stub_server, tmp_path, capsys):
        base_url, state = stub_server
        state.body = {"choices": [{"message": None}]}
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "q0", "prompt": "40+2?", "gold": "42", "format": "boxed_math"})
            + "\n"
        )
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"base_url": base_url, "model_name": "m"}))
        code = main(
            ["run", "--dataset", str(dataset), "--endpoint-config", str(config),
             "--method", "cges", "--seeds", "0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert len(state.requests) == 1


def keep_alive_handler(state, drop_after_reply):
    """The stub over HTTP/1.1, which keeps connections open unless it drops
    them after each reply, without announcing it with ``Connection: close``."""

    class Handler(make_stub_handler(state)):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            super().do_POST()
            self.close_connection = drop_after_reply

    return Handler


class TestHttpClient:
    """The client speaks HTTP through the standard library's ``http.client``."""

    def test_sample_once_needs_no_third_party_http_stack(self, stub_server):
        base_url, state = stub_server
        code = (
            "import sys\n"
            "sys.modules['requests'] = None  # importing it now fails\n"
            "from cges.llmclient import AnswerFormat, EndpointConfig, sample_once\n"
            f"endpoint = EndpointConfig(base_url={base_url!r}, model_name='m')\n"
            "print(sample_once('q0', 'x', AnswerFormat.BOXED_MATH, 1, endpoint, 0).extracted_label)\n"
        )
        src = str(Path(cges.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "42"
        assert len(state.requests) == 1

    def test_worker_keeps_one_connection_alive(self):
        state = StubState()
        with serving(keep_alive_handler(state, drop_after_reply=False)) as base_url:
            sampler = live_sampler(endpoint_for(base_url), {"q0": ("x", AnswerFormat.BOXED_MATH)})
            assert [sampler("q0", r)[0] for r in (1, 2, 3)] == ["42"] * 3
            del sampler  # closes its connection before the server stops
        assert len({request["port"] for request in state.requests}) == 1
        headers = state.requests[0]["headers"]
        assert headers["Content-Type"] == "application/json"
        assert headers["Accept-Encoding"] == "identity"

    def test_concurrent_workers_share_no_connection_and_close_them_all(self):
        state = StubState()
        questions = [f"q{i}" for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(keep_alive_handler(state, drop_after_reply=False)) as base_url:
                prompts = {qid: ("x", AnswerFormat.BOXED_MATH) for qid in questions}
                sampler = live_sampler(endpoint_for(base_url), prompts)
                config = ControllerConfig(method=Method.SC, budget=3, max_parallel=8)
                result = run(questions, sampler, config)
                del sampler
                gc.collect()  # a connection lost from the sampler would leak here
        finally:
            sys.setswitchinterval(interval)
        assert result.predictions == dict.fromkeys(questions, "42")
        assert len(state.requests) == 3 * len(questions)
        # one connection per worker thread: max_parallel + 1 of them, and no
        # more than max_parallel requests at once
        assert len({request["port"] for request in state.requests}) <= 9
        assert 1 <= state.most_in_flight <= 8

    def test_connection_dropped_while_idle_is_reopened_not_retried(self, caplog):
        state = StubState()
        with serving(keep_alive_handler(state, drop_after_reply=True)) as base_url:
            sampler = live_sampler(endpoint_for(base_url), {"q0": ("x", AnswerFormat.BOXED_MATH)})
            with caplog.at_level(logging.WARNING, logger="cges.llmclient"):
                assert sampler("q0", 1)[0] == sampler("q0", 2)[0] == "42"
            del sampler
        assert len(state.requests) == 2
        assert len({request["port"] for request in state.requests}) == 2
        assert caplog.records == []

    def test_fresh_connection_closed_without_reply_is_a_retry(self):
        state = StubState()

        class Handler(make_stub_handler(state)):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                state.requests.append(self.path)  # and close without a reply

        with serving(Handler) as base_url:
            with pytest.raises(SamplerError, match="3 attempts"):
                sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint_for(base_url), 0)
        assert len(state.requests) == 3

    def test_https_is_not_downgraded_to_http(self, stub_server):
        base_url, state = stub_server
        endpoint = endpoint_for(base_url.replace("http://", "https://"))
        with pytest.raises(SamplerError, match="3 attempts") as info:
            sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint, seed=0)
        assert isinstance(info.value.__cause__, ssl.SSLError)
        assert state.requests == []

    def test_base_url_path_prefixes_the_completions_path(self, stub_server):
        base_url, state = stub_server
        endpoint = endpoint_for(base_url + "/proxy/")
        sample_once("q0", "x", AnswerFormat.BOXED_MATH, 1, endpoint, seed=0)
        assert state.requests[-1]["path"] == "/proxy/v1/chat/completions"


class TestSlotLending:
    """A pooled draw waits out a retry's backoff with its slot lent to the spare
    chain, so the endpoint keeps up to ``max_parallel`` requests and no more."""

    def test_a_backoff_lends_its_slot_and_keeps_max_parallel_in_flight(self):
        # each question's first request gets a 503; the stub counts requests in
        # flight and the requests that found max_parallel in flight while
        # another question was backing off, which a draw that slept on its
        # slot would leave at most max_parallel - 1
        state = StubState()
        seen, backing_off = set(), set()
        counts = {"requests": 0, "in_flight": 0, "most": 0, "lent": 0}

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True  # the body is not held back for the headers' ack

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                question = payload["messages"][0]["content"]
                with state.lock:
                    backing_off.discard(question)
                    counts["requests"] += 1
                    counts["in_flight"] += 1
                    counts["most"] = max(counts["most"], counts["in_flight"])
                    counts["lent"] += counts["in_flight"] == 2 and bool(backing_off)
                    first = question not in seen
                    seen.add(question)
                time.sleep(0.02)
                body = b"" if first else chat_completion(state)
                self.send_response(503 if first else 200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.wfile.flush()
                with state.lock:
                    counts["in_flight"] -= 1
                    if first:
                        backing_off.add(question)

            def log_message(self, *args):
                pass

        questions = [f"q{i}" for i in range(6)]
        prompts = {qid: (f"question {qid}", AnswerFormat.BOXED_MATH) for qid in questions}
        results = {}
        for max_parallel in (2, 1):
            seen.clear()
            with serving(Handler) as base_url:
                sampler = live_sampler(endpoint_for(base_url), prompts)
                config = ControllerConfig(method=Method.SC, budget=3, max_parallel=max_parallel)
                results[max_parallel] = run(questions, sampler, config)
                del sampler
                if max_parallel == 2:
                    assert counts["most"] == 2
                    assert counts["lent"] >= 1
                else:  # sample_once holding no slot still retries the 503, once
                    served = counts["requests"]
                    endpoint = endpoint_for(base_url)
                    record = sample_once("q6", "x", AnswerFormat.BOXED_MATH, 1, endpoint, seed=0)
                    assert record.extracted_label == "42" and counts["requests"] == served + 2
        assert results[2] == results[1]
        assert results[2].per_question_calls == dict.fromkeys(questions, 3)


CHOICE_BASE = {"message": {"content": "Answer: A"}}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


def or_junk(good):
    """Mostly ``good``, sometimes an arbitrary JSON value in its place."""
    return st.one_of(good, good, good, JSON_VALUES)


# payloads near the accepted shapes, any field of which may be malformed
LOGPROB = or_junk(st.floats(max_value=0.0) | st.none() | st.floats() | st.integers())
COMPLETION_LIKE = st.fixed_dictionaries(
    {
        "choices": or_junk(
            st.lists(
                or_junk(
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "message": or_junk(
                                st.fixed_dictionaries(
                                    {}, optional={"content": or_junk(st.none() | st.text())}
                                )
                            ),
                            "text": or_junk(st.none() | st.text()),
                            "logprobs": or_junk(
                                st.fixed_dictionaries(
                                    {},
                                    optional={
                                        "content": st.lists(
                                            or_junk(st.fixed_dictionaries({"logprob": LOGPROB})),
                                            max_size=4,
                                        ),
                                        "token_logprobs": st.lists(LOGPROB, max_size=4),
                                    },
                                )
                            ),
                        },
                    )
                ),
                max_size=2,
            )
        )
    }
)


class TestParseCompletion:
    def test_chat_and_legacy_shapes(self):
        chat = {
            "choices": [
                {
                    "message": {"content": "hi"},
                    "logprobs": {"content": [{"logprob": -0.5}, {"logprob": None}]},
                }
            ]
        }
        assert _parse_completion(chat) == ("hi", [-0.5])
        # the legacy completions shape answers a payload sample_once never sends
        legacy = {"choices": [{"text": "yo", "logprobs": {"token_logprobs": [None, -1]}}]}
        with pytest.raises(SamplerError, match="malformed completion message: None"):
            _parse_completion(legacy)
        assert _parse_completion({"choices": [{"message": {"content": None}}]}) == ("", None)

    @pytest.mark.parametrize(
        "body",
        [
            [],
            "text",
            None,
            {},
            {"choices": None},
            {"choices": []},
            {"choices": {"0": CHOICE_BASE}},
            {"choices": [None]},
            {"choices": ["text"]},
            {"choices": [{"message": None}]},
            {"choices": [{"message": "hi"}]},
            {"choices": [{"message": {"content": ["part"]}}]},
            {"choices": [{"text": 7}]},
            {"choices": [dict(CHOICE_BASE, logprobs={"content": [None]})]},
            {"choices": [dict(CHOICE_BASE, logprobs={"content": [-0.5]})]},
            {"choices": [dict(CHOICE_BASE, logprobs={"content": [{"logprob": "x"}]})]},
            {"choices": [dict(CHOICE_BASE, logprobs={"content": [{"logprob": True}]})]},
            {"choices": [dict(CHOICE_BASE, logprobs={"content": [{"logprob": math.nan}]})]},
        ],
    )
    def test_malformed_payload_raises_sampler_error(self, body):
        with pytest.raises(SamplerError):
            _parse_completion(body)

    @settings(deadline=None)
    @given(COMPLETION_LIKE | JSON_VALUES)
    def test_any_json_value_parses_or_raises_sampler_error(self, body):
        try:
            text, logprobs = _parse_completion(body)
        except SamplerError:
            return
        assert isinstance(text, str)
        assert logprobs is None or (
            logprobs and all(type(lp) is float and math.isfinite(lp) for lp in logprobs)
        )

    @settings(deadline=None)
    @given(st.lists(st.none() | st.floats() | st.integers(-(10**6), 10**6), max_size=6))
    def test_logprobs_parse_to_finite_floats_or_raise(self, values):
        entries = [{"logprob": value} for value in values]
        body = {"choices": [dict(CHOICE_BASE, logprobs={"content": entries})]}
        kept = [float(value) for value in values if value is not None]
        if all(map(math.isfinite, kept)):
            assert _parse_completion(body) == ("Answer: A", kept or None)
        else:
            with pytest.raises(SamplerError, match="not a finite number"):
                _parse_completion(body)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "q0", 1) == derive_seed(1, "q0", 1)
        seen = {derive_seed(1, f"q{i}", r) for i in range(10) for r in range(1, 5)}
        assert len(seen) == 40


class TestEndpointConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            endpoint_for("http://x", temperature=-1.0)
        with pytest.raises(ConfigurationError):
            endpoint_for("http://x", top_p=0.0)

        with pytest.raises(ConfigurationError):
            endpoint_for("http://x", max_retries=-1)
        for url in ("localhost:8000", "ftp://x", "http://", "127.0.0.1"):
            with pytest.raises(ConfigurationError, match="base_url must be an http"):
                endpoint_for(url)
        assert endpoint_for("HTTPS://x/prefix").base_url == "HTTPS://x/prefix"

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"max_retries": 1.5}, "max_retries must be int, got 1.5"),
            ({"max_tokens": 2.5}, "max_tokens must be int, got 2.5"),
            ({"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
            ({"max_retries": True}, "max_retries must be int, got True"),
            ({"request_timeout": True}, "request_timeout must be float, got True"),
            ({"temperature": "0.5"}, "temperature must be float, got '0.5'"),
            ({"request_timeout": 0.0}, "request_timeout must be > 0, got 0.0"),
        ],
    )
    def test_direct_construction_checks_types(self, override, match):
        with pytest.raises(ConfigurationError) as caught:
            endpoint_for("http://x", **override)
        assert str(caught.value) == match  # the whole message, naming field and value

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({"base_url": "http://h", "model_name": "m"}))
        config = EndpointConfig.from_json_file(path)
        assert config.base_url == "http://h"
        assert config.temperature == 0.7

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"base_url": "http://h", "model_name": ', "cannot read endpoint config"),
            ('["http://h", "m"]', "must be a JSON object"),
            ('{"base_url": "http://h", "model_name": "m", "max_parallel": 4}',
             "unknown key 'max_parallel'"),
            ('{"model_name": "m"}', "missing .*'base_url'"),
            ('{"base_url": "http://h"}', "missing .*'model_name'"),
            ('{"base_url": "http://h", "model_name": "m", "temperature": "0.5"}',
             "temperature must be float, got '0.5'"),
            ('{"base_url": "http://h", "model_name": "m", "max_retries": true}',
             "max_retries must be int, got True"),
            ('{"base_url": "http://h", "model_name": "m", "top_p": 0}', "top_p"),
            ('{"base_url": "http://h", "model_name": "m", "temperature": NaN}',
             "temperature must be finite, got nan"),
            ('{"base_url": "http://h", "model_name": "m", "temperature": Infinity}',
             "temperature must be finite, got inf"),
            ('{"base_url": "http://h", "model_name": "m", "request_timeout": NaN}',
             "request_timeout must be finite, got nan"),
            ('{"base_url": "http://h", "model_name": "m", "request_timeout": Infinity}',
             "request_timeout must be finite, got inf"),
            ('{"base_url": "localhost:8000", "model_name": "m"}', "base_url must be an http"),
            ('{"base_url": "http://h/v1", "model_name": "m", '
             '"completions_path": "chat/completions"}',
             "completions_path must start with '/', got 'chat/completions'"),
        ],
    )
    def test_from_json_file_fails_closed(self, tmp_path, capsys, text, match):
        path = tmp_path / "endpoint.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=match) as info:
            EndpointConfig.from_json_file(path)
        assert str(path) in str(info.value)

        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            json.dumps({"id": "q0", "prompt": "p", "gold": "1", "format": "boxed_math"}) + "\n"
        )
        code = main(["run", "--dataset", str(dataset), "--endpoint-config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read endpoint config"):
            EndpointConfig.from_json_file(tmp_path / "absent.json")
