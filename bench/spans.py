"""In-memory span recorder for the traced benchmark run.

The recorder wraps the package's public functions where their callers look
them up (for example ``cges.controller.score``, not ``cges.posterior.score``),
so the program itself carries no tracing code.  Each call becomes a span:
name, start, end and the span that caused it.  Spans stay in flat arrays
until the run ends; self time (a span's duration minus the part its children
cover) is computed from them afterwards.

Sampler calls made from a worker thread have no open span on their own
thread; they are attached to the innermost span open on the thread that
installed the recorder, which is the controller run waiting for them.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # per-span notes, e.g. the (question, round) key of a sampler call
        self.notes: dict[int, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self._by_name: Optional[dict[str, list[int]]] = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Optional[Callable[[tuple, dict, object], object]] = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        ``note(args, kwargs, result)`` may return a value stored with the span.
        """
        with self._lock:
            name_id = self._name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else -1
            with self._lock:
                index = len(self.name)
                self.name.append(name_id)
                self.parent.append(parent)
                self.start.append(0)
                self.end.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.start[index] = start
                self.end[index] = end
            if note is not None:
                self.notes[index] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, note=None, kind: str = "function") -> None:
        """Replace ``owner.attr`` by its traced form until ``restore``.

        ``kind`` is ``"method"`` for a plain method on a class,
        ``"classmethod"`` for a classmethod, and ``"factory"`` for a function
        whose calls are not traced but whose returned callable is.  A missing
        attribute is skipped, so the metrics of a layer that no longer has
        the function read zero.
        """
        if not hasattr(owner, attr):
            return
        original = owner.__dict__[attr] if kind != "function" else getattr(owner, attr)
        if kind == "classmethod":
            traced = classmethod(self.wrap(name, original.__func__, note))
        elif kind == "factory":

            def traced(*args, **kwargs):
                return self.wrap(name, original(*args, **kwargs), note)

        else:
            traced = self.wrap(name, original, note)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def spans(self, name: str) -> list[int]:
        """Indices of the spans called ``name``; call once recording is over."""
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for index, name_id in enumerate(self.name):
                self._by_name[self.names[name_id]].append(index)
        return self._by_name.get(name, [])

    def duration_s(self, index: int) -> float:
        return (self.end[index] - self.start[index]) / 1e9

    def self_times_s(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(index)
        out = []
        for index in range(len(self.name)):
            lo, hi = self.start[index], self.end[index]
            covered = 0
            reach = lo
            for child in sorted(children.get(index, ()), key=lambda c: self.start[c]):
                c_lo, c_hi = max(self.start[child], reach), min(self.end[child], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            out.append((hi - lo - covered) / 1e9)
        return out

    def ancestor(self, index: int, name: str) -> int:
        """Nearest enclosing span called ``name``, or -1."""
        name_id = self._name_ids.get(name)
        index = self.parent[index]
        while index >= 0 and self.name[index] != name_id:
            index = self.parent[index]
        return index

    def write_tsv(self, path: Path, run_id: str) -> None:
        """All spans as tab-separated lines, times in ns from the first span.

        Columns: run, span, parent (-1 for none), name, start_ns, end_ns.
        Spans of one benchmark pass share ``run``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.start) if len(self) else 0
        names = self.names
        with path.open("w", encoding="utf-8") as handle:
            handle.write("run\tspan\tparent\tname\tstart_ns\tend_ns\n")
            handle.writelines(
                f"{run_id}\t{index}\t{parent}\t{names[name]}\t{start - origin}\t{end - origin}\n"
                for index, (name, parent, start, end) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)
                )
            )


@contextmanager
def recording(install: Callable[[SpanRecorder], None]) -> Iterator[SpanRecorder]:
    """A recorder with ``install`` applied; the patches are undone on exit."""
    recorder = SpanRecorder()
    install(recorder)
    try:
        yield recorder
    finally:
        recorder.restore()
