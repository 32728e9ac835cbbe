"""Fail closed, fuzzed: a mutated input file ends in a result or in one
``error:`` line, never in a traceback.

Each example edits one bundled fixture, the replay store, the dataset or the
``cges score`` sample file, either at the JSON-value level (a field, an
element or a whole line replaced by null, a bool, NaN, 1e308, 10**400, a list
or an object, or a key or an element deleted) or at the byte level (a line
duplicated, truncated, or broken by invalid UTF-8), and runs one command that
reads the file through ``cli.main`` in-process.  The same edits are made to
a chat-completion body for ``_parse_completion`` and to an endpoint config
read by ``EndpointConfig.from_json_file``, so no example sends a request.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cges.cli import main
from cges.errors import ConfigurationError, SamplerError
from cges.llmclient import EndpointConfig, _parse_completion

FIXTURES = Path(__file__).parent / "fixtures"

# what an edit puts in place of a field, an element or a whole line
BAD_VALUES = (None, True, False, math.nan, 1e308, 10**400, [], [0.5, "a"], {}, {"a": 0.5})
EDITS = ("replace", "delete", "duplicate", "truncate", "utf-8")

FILES = {
    "store": "mini_store.jsonl",
    "dataset": "mini_dataset.jsonl",
    "samples": "minority_samples.jsonl",
}
# each file an example edits, with a command that reads it
REPLAY_COMMANDS = (["replay"], ["run", "--seeds", "0"], ["sweep", "--seeds", "0"])
CASES = [
    *(
        (target, [*command, "--budget", "4"])
        for target in ("store", "dataset")
        for command in REPLAY_COMMANDS
    ),
    ("samples", ["score"]),
    ("samples", ["score", "--k-policy", "fixed:3"]),
]

CHAT_COMPLETION = {
    "choices": [
        {
            "message": {"role": "assistant", "content": r"so \boxed{42}"},
            "logprobs": {"content": [{"token": "t", "logprob": -0.1}, {"logprob": -0.2}]},
        }
    ]
}
ENDPOINT = {"base_url": "http://127.0.0.1:9", "model_name": "m", "max_retries": 2, "top_p": 0.9}


def edit_value(data, value, edit):
    """``value`` with one edit where a walk down from the top stops: the part
    there replaced by a bad value (``edit`` "replace"), or one of its keys or
    elements deleted ("delete")."""
    keys = list(value) if isinstance(value, dict) else []
    if isinstance(value, list):
        keys = list(range(len(value)))
    if edit == "replace" and (not keys or data.draw(st.integers(0, 3), label="stop") == 0):
        return data.draw(st.sampled_from(BAD_VALUES), label="bad value")
    if edit == "delete":  # a deletion stops at an object or a list
        inner = [key for key in keys if value[key] and isinstance(value[key], (dict, list))]
        if not inner or data.draw(st.booleans(), label="stop"):
            edited = value.copy()
            del edited[data.draw(st.sampled_from(keys), label="deleted")]
            return edited
        keys = inner
    key = data.draw(st.sampled_from(keys), label="key")
    edited = value.copy()
    edited[key] = edit_value(data, value[key], edit)
    return edited


def edit_lines(data, lines):
    """The JSON lines of a file, one of them edited."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i].rstrip(b"\n")
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    if edit in ("replace", "delete"):
        lines[i] = json.dumps(edit_value(data, json.loads(line), edit)).encode() + b"\n"
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "truncate":
        lines[i] = line[: data.draw(st.integers(0, len(line) - 1), label="cut")] + b"\n"
    else:  # a lone lead byte, or a continuation byte with no lead byte
        at = data.draw(st.integers(0, len(line)), label="offset")
        byte = data.draw(st.sampled_from([b"\xc3", b"\x80", b"\xff"]), label="byte")
        lines[i] = line[:at] + byte + line[at:] + b"\n"
    return b"".join(lines)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_every_command_fails_closed_on_an_edited_input(case, data):
    target, command = case
    with tempfile.TemporaryDirectory() as workdir:
        paths = {}
        for name, file_name in FILES.items():
            paths[name] = Path(workdir) / file_name
            paths[name].write_bytes((FIXTURES / file_name).read_bytes())
        lines = paths[target].read_bytes().splitlines(keepends=True)
        paths[target].write_bytes(edit_lines(data, lines))
        if target == "samples":
            sources = ["--samples", str(paths["samples"])]
        else:
            sources = ["--dataset", str(paths["dataset"]), "--replay", str(paths["store"])]
        argv = [*command, *sources, "--out", str(Path(workdir) / "out.csv")]
        stderr = io.StringIO()
        # the arguments are well formed, so argparse never exits here; an
        # exception escaping ``main`` fails the test
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), (argv, code, err)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(["replace", "delete"]), st.data())
def test_an_edited_chat_completion_parses_or_raises_sampler_error(edit, data):
    body = edit_value(data, CHAT_COMPLETION, edit)
    try:
        text, logprobs = _parse_completion(body)
    except SamplerError:
        return
    assert isinstance(text, str)
    assert logprobs is None or all(type(lp) is float and math.isfinite(lp) for lp in logprobs)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_an_edited_endpoint_config_loads_or_raises_configuration_error(data):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "endpoint.json"
        path.write_bytes(edit_lines(data, [json.dumps(ENDPOINT).encode()]))
        try:
            config = EndpointConfig.from_json_file(path)
        except ConfigurationError:
            return
        assert isinstance(config, EndpointConfig)
