"""Chat-completions endpoint client, answer extraction, and JSONL record store.

Live sampling issues one generation request per (question, round) with token
log-probabilities enabled, extracts the answer label, computes the
probability-based confidences, and optionally appends the record to an
append-only JSONL store.  Replay mode serves stored records by
(question_id, round) and never touches the network, which makes whole runs
deterministic and byte-reproducible.
"""

from __future__ import annotations

import contextlib
import json
import json.scanner
import logging
import marshal
import math
import operator
import os
import re
import sys
import threading
import time
import weakref
import zlib
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Optional, Union
from urllib.parse import urlsplit

from .confidence import Estimator, TokenizedResponse, lns_arithmetic, lns_geometric
from .controller import Sampler
from .errors import (
    ConfigurationError,
    DuplicateRecordError,
    InvalidSampleError,
    ReplayMissError,
    SamplerError,
)

logger = logging.getLogger(__name__)

INVALID_LABEL = "INVALID"

# exp() of very negative logprobs underflows to 0; keep token probs positive
MIN_TOKEN_PROB = 1e-300


class AnswerFormat(Enum):
    BOXED_MATH = "boxed_math"
    LETTER_CHOICE = "letter_choice"


MATH_INSTRUCTION = (
    "Solve the problem step by step. "
    "End with your final answer inside \\boxed{...}."
)
CHOICE_INSTRUCTION = (
    "Think step by step. "
    'End with a final line of the form "Answer: <letter>".'
)


def render_prompt(question_text: str, fmt: AnswerFormat) -> str:
    """Attach the answer-format instruction to the question text."""
    instruction = (
        MATH_INSTRUCTION if fmt is AnswerFormat.BOXED_MATH else CHOICE_INSTRUCTION
    )
    return f"{question_text.rstrip()}\n\n{instruction}"


_BOXED_OPEN = re.compile(r"\\boxed\s*\{")
_ANSWER_LETTER = re.compile(
    r"\banswer\s*(?:is)?\s*[:\-]?\s*\(?([A-Ja-j])\)?\b", re.IGNORECASE
)


def normalize_answer(label: str, fmt: AnswerFormat) -> str:
    """The answer rule: trim, collapse internal whitespace, and uppercase a
    letter choice.  Two answers are the same when their normalized forms are."""
    normalized = " ".join(str(label).split())
    if fmt is AnswerFormat.LETTER_CHOICE:
        normalized = normalized.upper()
    return normalized


def extract_answer(text: str, fmt: AnswerFormat) -> str:
    """Pull the final answer label out of a raw response.

    Boxed math takes the content of the last ``\\boxed{...}`` (brace-matched),
    letter choice the last option letter after an "Answer" marker; either is
    then normalized by ``normalize_answer``.  Anything unparseable, or a box
    holding only whitespace, maps to the sentinel label ``INVALID``.
    """
    if fmt is AnswerFormat.BOXED_MATH:
        content = _last_boxed(text)
    else:
        matches = _ANSWER_LETTER.findall(text)
        content = matches[-1] if matches else ""
    return normalize_answer(content, fmt) or INVALID_LABEL


def _last_boxed(text: str) -> str:
    openers = list(_BOXED_OPEN.finditer(text))
    for match in reversed(openers):
        start = match.end()
        depth = 1
        pos = start
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        if depth == 0:
            return text[start : pos - 1]
    return ""


# ---------------------------------------------------------------------------
# endpoint client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Connection and decoding settings for a chat-completions endpoint.

    The API key is looked up from the named environment variable at request
    time and never written anywhere.
    """

    base_url: str
    model_name: str
    temperature: float = 0.7
    top_p: float = 1.0
    max_tokens: int = 32_768
    request_timeout: float = 120.0
    max_retries: int = 3
    completions_path: str = "/v1/chat/completions"
    api_key_env: str = "CGES_API_KEY"

    def __post_init__(self) -> None:
        types = {"str": (str,), "int": (int,), "float": (int, float)}  # by annotation; no bool
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) not in types[field.type]:
                raise ConfigurationError(f"{field.name} must be {field.type}, got {value!r}")
        for name in ("temperature", "request_timeout"):  # JSON admits NaN and Infinity
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.temperature < 0.0:
            raise ConfigurationError(f"temperature must be >= 0, got {self.temperature!r}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigurationError(f"top_p must lie in (0, 1], got {self.top_p!r}")
        if self.max_tokens < 1:
            raise ConfigurationError(f"max_tokens must be >= 1, got {self.max_tokens!r}")
        if self.request_timeout <= 0:
            raise ConfigurationError(f"request_timeout must be > 0, got {self.request_timeout!r}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries!r}")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ConfigurationError(
                f"base_url must be an http:// or https:// URL, got {self.base_url!r}"
            )
        if not self.completions_path.startswith("/"):  # it is appended to base_url's path
            raise ConfigurationError(
                f"completions_path must start with '/', got {self.completions_path!r}"
            )

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "EndpointConfig":
        """Config from a JSON object keyed by field name; any fault raises
        ``ConfigurationError`` naming the path (and the key, where there is one)."""
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{path}: cannot read endpoint config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: endpoint config must be a JSON object")
        accepted = [field.name for field in fields(cls)]
        for key in raw:
            if key not in accepted:
                raise ConfigurationError(
                    f"{path}: unknown key {key!r}; accepted keys: {', '.join(accepted)}"
                )
        try:
            return cls(**raw)
        except (TypeError, ConfigurationError) as exc:  # TypeError: a required key is missing
            raise ConfigurationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SampleRecord:
    """One persisted sampling outcome for a (question, round) pair."""

    question_id: str
    round: int
    prompt: str
    raw_text: str
    extracted_label: str
    token_probs: Optional[tuple[float, ...]]
    confidence_by_estimator: dict[str, float]
    seed: int
    timestamp: str

    def __post_init__(self) -> None:
        _check_record(vars(self))

    def to_json_line(self) -> str:
        # field order, then estimator names sorted; tuples serialize as lists
        payload = dict(vars(self))
        payload["confidence_by_estimator"] = dict(sorted(self.confidence_by_estimator.items()))
        return json.dumps(payload, ensure_ascii=False)


_NUMBER_TYPES = frozenset((int, float))  # exact types: bool is refused
_TOKEN_PROBS_TYPES = frozenset((list, tuple, type(None)))
_record_fields = operator.itemgetter(*(field.name for field in fields(SampleRecord)))


def _check_record(record: Mapping[str, Any]) -> tuple:
    """The one validation of a record's fields, of whatever type they arrive,
    run by direct construction and by the record store's loader: every field
    ``SampleRecord`` declares, in its order, checked and returned; other keys
    are ignored.  A missing field raises ``KeyError``, any other fault
    ``InvalidSampleError``.  Type faults are named before range faults."""
    values = _record_fields(record)
    (question_id, round_idx, prompt, raw_text, label,
     token_probs, confidences, seed, timestamp) = values
    if not (
        type(question_id) is type(label) is type(prompt) is type(raw_text) is type(timestamp) is str
    ):
        raise InvalidSampleError(
            "question_id, extracted_label, prompt, raw_text and timestamp must be strings"
        )
    if type(seed) is not int:
        raise InvalidSampleError(f"seed must be an integer, got {seed!r}")
    if not label:
        raise InvalidSampleError("extracted_label must be non-empty (use the INVALID sentinel)")
    if type(round_idx) is not int or round_idx < 1:
        raise InvalidSampleError(f"round must be an integer >= 1, got {round_idx!r}")
    if type(confidences) is not dict:
        raise InvalidSampleError(
            f"confidence_by_estimator must be an object, got {confidences!r:.200}"
        )
    if (
        not _NUMBER_TYPES.issuperset(map(type, confidences.values()))
        or type(token_probs) not in _TOKEN_PROBS_TYPES
        or (token_probs and not _NUMBER_TYPES.issuperset(map(type, token_probs)))
    ):
        raise InvalidSampleError("confidences and token_probs must be numbers")
    for name, confidence in confidences.items():
        if not 0.0 < confidence < 1.0:  # also False for NaN
            raise InvalidSampleError(
                f"{name!r} confidence must lie strictly inside (0, 1), got {confidence!r}"
            )
    return values


_decoder = json.JSONDecoder()  # what json.loads calls, without its per-call checks
_scan = json.scanner.make_scanner(_decoder)  # _decoder.decode minus its whitespace regexes


def _open_lines(path: Union[str, Path]) -> BinaryIO:
    try:
        return Path(path).open("rb")
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _decode_line(path: Union[str, Path], line_no: int, line: bytes) -> Any:
    try:
        text = line.decode("utf-8")
        try:
            value, end = _scan(text, 0)
        except StopIteration:  # no value at 0: decode() skips whitespace or names the fault
            pass
        else:
            if end == len(text) or text[end:] == "\n":
                return value
        return _decoder.decode(text)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{path}:{line_no}: malformed JSON: {exc}") from exc


def read_jsonl(path: Union[str, Path]) -> Iterator[tuple[int, Any]]:
    """(line number, decoded value) for every non-blank line of a JSONL file.

    A line that is not valid UTF-8 JSON, such as a line torn by a crash
    mid-append, raises ``ConfigurationError`` naming ``path:line``; a file
    that cannot be opened raises it naming the path.
    """
    with _open_lines(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isspace():
                yield line_no, _decode_line(path, line_no, line)


class StoreMode(Enum):
    RECORD = "record"
    REPLAY = "replay"


# A replay index's format, part of its key: bump it whenever what a load accepts
# or keeps changes (``_decode_line``, ``_check_record`` and its type sets,
# ``RecordStore._keep``, ``RecordStore._load``), or the index's own layout does
# (``_index_header``, ``RecordStore._write_index``, ``RecordStore._load_index``),
# so that no index written before is read.
INDEX_FORMAT = "cges-index/3"
INDEX_SUFFIX = ".cges-index"
_BLOCK = 1 << 16  # bytes per read when hashing a store


def _store_key(path: Path) -> tuple[int, int]:
    """(byte length, CRC-32) of a file, read in ``_BLOCK``-byte pieces."""
    size, crc = 0, 0
    with path.open("rb") as handle:
        while block := handle.read(_BLOCK):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def _index_header(size: int, crc: int, payload: bytes) -> bytes:
    """A replay index's first line: ``INDEX_FORMAT``, the ``marshal`` version,
    the store's byte length and CRC-32, and the CRC-32 of the payload after it."""
    return f"{INDEX_FORMAT} {marshal.version} {size} {crc} {zlib.crc32(payload)}\n".encode()


class RecordStore:
    """Append-only JSONL store of sample records, keyed by (question, round).

    What a load or an append keeps sits in two maps: ``_rounds`` maps a
    question id to its rounds, each a ``(label, seed, prompt, line)`` tuple,
    and ``_columns`` maps each estimator name, held once per store, to its
    confidences by question and round.  Record mode loads any existing file
    and appends new records (duplicates raise); replay mode requires the file
    to exist and refuses to sample.  Appends are serialized, and each opens the
    file, writes its line and closes it; reads are safe from any thread once
    loaded.

    A replay open that has loaded and checked every line writes the two maps
    to a replay index beside the store (``<store>.cges-index``): one header
    line holding ``INDEX_FORMAT``, the ``marshal`` version, the store's byte
    length and CRC-32 and the payload's CRC-32, then both maps as one
    ``marshal`` payload.  A later replay open whose header matches the store
    and the payload rebuilds the maps, in the order a full load keeps, and
    decodes no store line; any miss (no index, a torn, garbled or foreign one,
    a store that does not match) loads the store in full and writes the index
    anew.  An index that cannot be written is skipped.  Record mode neither
    reads nor writes an index.
    """

    def __init__(self, path: Union[str, Path], mode: StoreMode) -> None:
        self.path = Path(path)
        self.mode = mode
        self._lock = threading.Lock()
        self._rounds: dict[str, dict[int, tuple[str, int, str, int]]] = {}
        self._columns: dict[str, dict[str, dict[int, float]]] = {}
        self._lines = 0  # lines in the file, blank ones included
        self._separator = ""  # written before the next line: a newline the file lacks
        if mode is StoreMode.REPLAY:
            if not self.path.exists():
                raise ConfigurationError(f"replay store {self.path} does not exist")
            index = self.path.with_name(self.path.name + INDEX_SUFFIX)
            if not self._load_index(index):
                self._write_index(index, *self._load())
        elif self.path.exists():
            self._load()

    def _keep(
        self, question_id: str, round_idx: int, label: str,
        confidences: Mapping[str, float], seed: int, prompt: str, line: int,
    ) -> bool:
        """File one checked record under its question and its estimators;
        False, keeping nothing, if its (question, round) is already kept."""
        rounds = self._rounds.setdefault(question_id, {})
        if round_idx in rounds:
            return False
        for name, confidence in confidences.items():
            self._columns.setdefault(name, {}).setdefault(question_id, {})[round_idx] = confidence
        rounds[round_idx] = (label, seed, prompt, line)  # last: once found, it is whole
        return True

    def _load(self) -> Optional[tuple[int, int]]:
        """Check every line by the record rules and keep what sampling reads;
        return the byte length and CRC-32 of the bytes read, the replay index's
        key, or None once a torn final line was cut.

        In record mode a last line that lacks its newline and does not decode
        is what a crash mid-append leaves: it is logged, cut off, and the store
        resumes.  Any other bad line raises naming ``path:line``.
        """
        keep = self._keep
        shared = {}.setdefault  # ids, labels and prompts: one string object per value
        line_no, line, crc = 0, b"\n", 0
        with _open_lines(self.path) as handle:
            for line_no, line in enumerate(handle, start=1):
                crc = zlib.crc32(line, crc)
                if line.isspace():
                    continue
                try:
                    raw = _decode_line(self.path, line_no, line)
                except ConfigurationError:
                    if self.mode is StoreMode.REPLAY or line.endswith(b"\n"):
                        raise
                    cut = handle.tell() - len(line)  # the torn line's first byte
                    break
                try:
                    question_id, round_idx, prompt, _, label, _, confidences, seed, _ = (
                        _check_record(raw)
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"{self.path}:{line_no}: bad sample record: {exc!r}"
                    ) from exc
                if not keep(
                    shared(question_id, question_id), round_idx, shared(label, label),
                    confidences, seed, shared(prompt, prompt), line_no,
                ):
                    raise DuplicateRecordError(
                        f"{self.path}:{line_no}: duplicate record for {(question_id, round_idx)!r}"
                    )
            else:  # every line was read
                self._lines = line_no
                self._separator = "" if line.endswith(b"\n") else "\n"
                return handle.tell(), crc
        # the loop stopped at a torn final line; the lines before it are kept
        logger.warning(
            "%s:%d: torn final line (%d bytes, left by a crash mid-append); "
            "truncating it and resuming",
            self.path,
            line_no,
            len(line),
        )
        os.truncate(self.path, cut)
        self._lines = line_no - 1
        return None

    def _write_index(self, index: Path, size: int, crc: int) -> None:
        """Write the replay index of the maps loaded from ``size`` store bytes of
        CRC-32 ``crc``: its header line, then both maps as one ``marshal``
        payload.  It is written to a temporary file beside the index and renamed
        over it; if that fails, the store has no index and no temporary file is
        left."""
        payload = marshal.dumps((self._rounds, self._columns))
        temp = index.with_name(f"{index.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with temp.open("wb") as handle:
                handle.write(_index_header(size, crc, payload))
                handle.write(payload)
            os.replace(temp, index)
        except OSError as exc:
            logger.debug("%s: replay index not written: %s", index, exc)
        finally:
            with contextlib.suppress(OSError):  # gone once renamed
                temp.unlink()

    def _load_index(self, index: Path) -> bool:
        """Rebuild the maps from the replay index if its header line is the one
        this store and the payload after it call for; False, keeping nothing, on
        any miss.  The payload is decoded only once its CRC-32 has matched."""
        try:
            with index.open("rb") as handle:
                header, payload = handle.readline(), handle.read()
            if header != _index_header(*_store_key(self.path), payload):
                return False
            self._rounds, self._columns = marshal.loads(payload)
        except (OSError, ValueError, EOFError, TypeError):
            return False
        return True

    @classmethod
    def open_record(cls, path: Union[str, Path]) -> "RecordStore":
        """Open a store to append to; the file itself is created by the first append."""
        path = Path(path)
        # checked now, so a run cannot pay for a request whose record it cannot write
        if not path.parent.is_dir():
            raise ConfigurationError(
                f"cannot record to {path}: {path.parent} is not a directory"
            )
        return cls(path, StoreMode.RECORD)

    @classmethod
    def open_replay(cls, path: Union[str, Path]) -> "RecordStore":
        return cls(path, StoreMode.REPLAY)

    def __len__(self) -> int:
        return sum(map(len, self._rounds.values()))

    def __contains__(self, key: tuple[str, int]) -> bool:
        question_id, round_idx = key
        return round_idx in self._rounds.get(question_id, ())

    def _confidences(self, question_id: str, round_idx: int) -> dict[str, float]:
        """The confidences of one kept record, keyed by the store's names."""
        return {
            name: column[question_id][round_idx]
            for name, column in list(self._columns.items())  # an append may add a name meanwhile
            if round_idx in column.get(question_id, ())
        }

    def require_estimator(
        self, question_ids: Iterable[str], estimator: Union[Estimator, str]
    ) -> None:
        """Raise ``ConfigurationError`` naming ``path:line`` of the first stored
        record of these questions that lacks the estimator's confidence."""
        key = _estimator_key(estimator)
        column = self._columns.get(key, {})
        first = min(  # the lowest line: the rounds of questions interleave in the file
            (
                (line, question_id, round_idx)
                for question_id in set(question_ids)
                for round_idx, (_, _, _, line) in self._rounds.get(question_id, {}).items()
                if round_idx not in column.get(question_id, ())
            ),
            default=None,
        )
        if first is not None:
            _, question_id, round_idx = first
            raise ConfigurationError(self._missing_confidence(question_id, round_idx, key))

    def _missing_confidence(self, question_id: str, round_idx: int, key: str) -> str:
        """The refusal of a kept record that has no ``key`` confidence, naming its
        ``path:line`` and the estimators it has."""
        line = self._rounds[question_id][round_idx][3]
        available = ", ".join(sorted(self._confidences(question_id, round_idx))) or "none"
        return (
            f"{self.path}:{line}: record for question {question_id!r} round {round_idx} "
            f"has no {key!r} confidence (available: {available})"
        )

    def append(self, record: SampleRecord) -> None:
        if self.mode is not StoreMode.RECORD:
            raise ConfigurationError("store is in replay mode; appends are not allowed")
        key = (record.question_id, record.round)
        line = record.to_json_line() + "\n"  # serialized outside the lock: most of an append
        with self._lock:
            if key in self:
                raise DuplicateRecordError(f"duplicate record for {key!r}")
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(self._separator + line)
            self._separator = ""
            self._lines += 1
            self._keep(
                record.question_id, record.round, record.extracted_label,
                record.confidence_by_estimator, record.seed, record.prompt, self._lines,
            )


def derive_seed(base_seed: int, question_id: str, round_idx: int) -> int:
    """Stable per-request seed from (base seed, question, round)."""
    import hashlib  # only the live path derives seeds; replay never loads it

    digest = hashlib.sha256(f"{base_seed}:{question_id}:{round_idx}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def _connect(endpoint: EndpointConfig) -> Any:
    """A keep-alive ``http.client`` connection to the endpoint's host, opened by
    its first request; HTTPS verifies certificates with the default SSL context."""
    import http.client  # the live path's own dependency; replay never loads it

    url = urlsplit(endpoint.base_url)
    kind = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
    return kind(url.netloc, timeout=endpoint.request_timeout)


def _post(connection: Any, path: str, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
    """Status and body of one POST.  A failure closes the connection, so the next
    request opens a fresh one; a kept-alive connection that the server dropped
    while it sat idle is reopened once, which is not a retry."""
    reused = connection.sock is not None
    try:
        connection.request("POST", path, data, headers)
        response = connection.getresponse()
        return response.status, response.read()
    except BaseException as exc:
        connection.close()
        # http.client.RemoteDisconnected is a ConnectionResetError
        if reused and isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return _post(connection, path, data, headers)
        raise


def sample_once(
    question_id: str,
    prompt_text: str,
    fmt: AnswerFormat,
    round_idx: int,
    endpoint: EndpointConfig,
    seed: int,
    connection: Any = None,
) -> SampleRecord:
    """Issue one generation request and package the outcome as a record.

    Token log-probabilities are requested; when the server omits them the
    record is degraded (no probability-based confidences) and a warning is
    logged.  HTTP failures (a transport error, a status of 400 or above, or a
    body that is not JSON) are retried up to the configured bound, then raise;
    this is the package's only retry layer.  A JSON reply of any other shape
    than a chat completion, ``null`` included, is refused without a retry.
    ``connection`` is a keep-alive connection from ``_connect``; without one,
    the call opens its own and closes it.
    """
    if connection is None:
        with contextlib.closing(_connect(endpoint)) as connection:
            return sample_once(question_id, prompt_text, fmt, round_idx, endpoint, seed, connection)
    from datetime import datetime, timezone
    from http.client import HTTPException

    prompt = render_prompt(prompt_text, fmt)
    path = urlsplit(endpoint.base_url).path.rstrip("/") + endpoint.completions_path
    payload = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": endpoint.temperature,
        "top_p": endpoint.top_p,
        "max_tokens": endpoint.max_tokens,
        "logprobs": True,
        "seed": seed,
    }
    data = json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(endpoint.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    for attempt in range(endpoint.max_retries + 1):
        try:
            status, reply = _post(connection, path, data, headers)
            if status >= 400:
                raise HTTPException(f"HTTP {status}: {reply[:200]!r}")
            body = json.loads(reply)
            break
        except (OSError, HTTPException, ValueError) as exc:
            failure = exc
            logger.warning(
                "request for question %r round %d failed (attempt %d/%d): %s",
                question_id,
                round_idx,
                attempt + 1,
                endpoint.max_retries + 1,
                exc,
            )
            if attempt < endpoint.max_retries:
                time.sleep(min(0.1 * 2**attempt, 2.0))
    else:
        raise SamplerError(
            f"endpoint request for question {question_id!r} round {round_idx} "
            f"failed after {endpoint.max_retries + 1} attempts"
        ) from failure

    try:
        raw_text, logprobs = _parse_completion(body)
    except SamplerError as exc:
        raise SamplerError(f"question {question_id!r} round {round_idx}: {exc}") from exc
    token_probs: Optional[tuple[float, ...]] = None
    confidences: dict[str, float] = {}
    if logprobs:
        # a positive logprob is clamped to probability 1 before exp can overflow
        token_probs = tuple(max(math.exp(min(lp, 0.0)), MIN_TOKEN_PROB) for lp in logprobs)
        tokenized = TokenizedResponse(token_probs=token_probs)
        confidences[Estimator.LNS_ARITHMETIC.value] = lns_arithmetic(tokenized)
        confidences[Estimator.LNS_GEOMETRIC.value] = lns_geometric(tokenized)
    else:
        logger.warning(
            "no token log-probabilities for question %r round %d; "
            "probability-based estimators will refuse this record",
            question_id,
            round_idx,
        )
    return SampleRecord(
        question_id=question_id,
        round=round_idx,
        prompt=prompt,
        raw_text=raw_text,
        extracted_label=extract_answer(raw_text, fmt),
        token_probs=token_probs,
        confidence_by_estimator=confidences,
        seed=seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _parse_completion(body: Any) -> tuple[str, Optional[list[float]]]:
    """Text and per-token logprobs from a chat-completions payload, the shape
    ``sample_once`` asks for.

    Any other shape raises ``SamplerError``. Null text and null logprobs are
    skipped, as servers send them for empty completions and unscored tokens.
    """
    choices = body.get("choices") if isinstance(body, dict) else None
    if not isinstance(choices, list) or not choices or not isinstance(choices[0], dict):
        raise SamplerError(f"malformed completion payload: {body!r:.200}")
    choice = choices[0]
    message = choice.get("message")
    if not isinstance(message, dict):
        raise SamplerError(f"malformed completion message: {message!r:.200}")
    text = message.get("content")
    if not isinstance(text, (str, type(None))):
        raise SamplerError(f"completion text is not a string: {text!r:.200}")
    raw = choice.get("logprobs")
    values: list = []
    if isinstance(raw, dict) and isinstance(raw.get("content"), list):
        if not all(isinstance(entry, dict) for entry in raw["content"]):
            raise SamplerError("malformed completion payload: a logprob entry is not an object")
        values = [entry.get("logprob") for entry in raw["content"]]
    logprobs = [_finite_logprob(value) for value in values if value is not None]
    return text or "", logprobs or None


def _finite_logprob(value: Any) -> float:
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # False for nan
        return float(value)
    raise SamplerError(f"logprob {value!r:.200} is not a finite number")


# ---------------------------------------------------------------------------
# sampler adapters for the controller
# ---------------------------------------------------------------------------


def _estimator_key(estimator: Union[Estimator, str]) -> str:
    return estimator.value if isinstance(estimator, Estimator) else str(estimator)


def replay_sampler(
    store: RecordStore, estimator: Union[Estimator, str] = Estimator.LNS_ARITHMETIC
) -> Sampler:
    """Sampler that serves stored records and never performs network access."""
    if store.mode is not StoreMode.REPLAY:
        raise ConfigurationError("replay_sampler needs a store opened in replay mode")
    key = _estimator_key(estimator)
    rounds = store._rounds  # a replay store never changes once loaded
    column = store._columns.get(key, {})

    def sample(question_id: str, round_idx: int) -> tuple[str, float]:
        try:
            return rounds[question_id][round_idx][0], column[question_id][round_idx]
        except KeyError:
            if (question_id, round_idx) not in store:
                raise ReplayMissError(
                    f"{store.path}: no recorded sample for question {question_id!r} round {round_idx}"
                ) from None
            raise SamplerError(store._missing_confidence(question_id, round_idx, key)) from None

    return sample


def live_sampler(
    endpoint: EndpointConfig,
    prompts: Mapping[str, tuple[str, AnswerFormat]],
    estimator: Union[Estimator, str] = Estimator.LNS_ARITHMETIC,
    store: Optional[RecordStore] = None,
    base_seed: int = 0,
) -> Sampler:
    """Sampler that queries the endpoint, optionally recording every sample.

    With a store attached, a (question, round) pair that is already recorded
    is served from the store instead of re-queried, so a run resumed on the
    store of an interrupted one sends no request twice.
    A stored record made under another base seed or prompt raises
    ``ConfigurationError`` naming the store and the key.  Only the estimators
    ``sample_once`` computes are accepted, before any request is sent.
    """
    if store is not None and store.mode is not StoreMode.RECORD:
        raise ConfigurationError("live_sampler can only record into a record-mode store")
    key = _estimator_key(estimator)
    served = (Estimator.LNS_ARITHMETIC.value, Estimator.LNS_GEOMETRIC.value)
    if key not in served:
        raise ConfigurationError(
            f"a live endpoint serves only the {' and '.join(served)} confidences, not {key!r}"
        )
    local = threading.local()  # a connection carries one request at a time: one per worker
    opened = contextlib.ExitStack()  # closes every connection when the sampler is collected

    def sample(question_id: str, round_idx: int) -> tuple[str, float]:
        prompt_text, fmt = prompts[question_id]
        seed = derive_seed(base_seed, question_id, round_idx)
        if store is not None and (question_id, round_idx) in store:
            label, stored_seed, stored_prompt, _ = store._rounds[question_id][round_idx]
            if stored_seed != seed:
                mismatch = f"seed {stored_seed}, this run's is {seed}"
            elif stored_prompt != render_prompt(prompt_text, fmt):
                mismatch = "a different prompt"
            else:
                column = store._columns.get(key, {}).get(question_id, {})
                if round_idx not in column:
                    raise SamplerError(store._missing_confidence(question_id, round_idx, key))
                return label, column[round_idx]
            raise ConfigurationError(
                f"{store.path}: stored record for question {question_id!r} round "
                f"{round_idx} has {mismatch}; record into a fresh store"
            )
        connection = getattr(local, "connection", None)
        if connection is None:
            connection = local.connection = _connect(endpoint)
            opened.callback(connection.close)
        record = sample_once(
            question_id, prompt_text, fmt, round_idx, endpoint, seed=seed, connection=connection
        )
        if store is not None:
            store.append(record)
        confidences = record.confidence_by_estimator
        if key not in confidences:
            available = ", ".join(sorted(confidences)) or "none"
            raise SamplerError(
                f"record for question {question_id!r} round {round_idx} has no {key!r} "
                f"confidence (available: {available}); the record may be degraded "
                "(missing token log-probabilities)"
            )
        return record.extracted_label, confidences[key]

    weakref.finalize(sample, opened.close)
    return sample
