"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: :class:`Hooks`
replaces each traced callable at the name its callers look up (a module
global, a class attribute, or a ctypes function cached on the kernel
library) with a wrapper that records one span per call, and restores
the originals on exit.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent)`` on the thread that made the
call.  Spans live in per-thread parallel arrays, so recording needs no
lock and costs a few appends; they are reduced to per-layer self times
only after the traced section ends.  A span's self time is its duration
minus the durations of its direct children, so the self times of one
thread's spans add up exactly to the duration of that thread's root
spans.  The benchmark's own root spans (``bench.*``) belong to no layer:
their self time is the unattributed remainder.

Beside the spans, hooks add exact counters (walk steps, bytes computed
from array ``nbytes``) to a per-thread tally.  Counters depend only on
the inputs, never on timing, so two traced operations on the same
inputs must produce identical counters.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``count(tally, args, kwargs, result)`` adds exact counters for one call.
CountFn = Callable[[Counter, tuple, dict, Any], None]


class _ThreadLog:
    """One thread's spans, as parallel arrays, plus its counters."""

    __slots__ = ("names", "parents", "starts", "ends", "stack", "counts")

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()


class SpanRecorder:
    """Collects spans and counters from every thread that calls a hook."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def wrap(
        self, fn: Callable, name: str, count: Optional[CountFn] = None
    ) -> Callable:
        """``fn`` recording one ``name`` span (and its counters) per call."""
        name_id = self.name_id(name)
        log_of = self._log
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = log_of()
            index = len(log.starts)
            log.names.append(name_id)
            log.parents.append(log.stack[-1])
            log.ends.append(0.0)
            log.stack.append(index)
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = clock()
                log.stack.pop()
            if count is not None:
                count(log.counts, args, kwargs, result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """A context manager recording one ``name`` span."""
        return _Span(self, self.name_id(name))

    def counters(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    def spans(self) -> Dict[str, np.ndarray]:
        """Every span as flat arrays, with each span's self time."""
        columns: Dict[str, List[np.ndarray]] = {
            key: [] for key in ("name", "parent", "start", "end", "self", "thread")
        }
        offset = 0
        for thread_index, log in enumerate(self._logs):
            count = len(log.starts)
            if not count:
                continue
            names = np.frombuffer(log.names, dtype=np.int32)[:count]
            parents = np.frombuffer(log.parents, dtype=np.int32)[:count]
            starts = np.frombuffer(log.starts, dtype=np.float64)[:count]
            ends = np.frombuffer(log.ends, dtype=np.float64)[:count]
            durations = ends - starts
            has_parent = parents >= 0
            child_time = np.bincount(
                parents[has_parent], weights=durations[has_parent], minlength=count
            )
            columns["name"].append(names.astype(np.int64))
            columns["parent"].append(
                np.where(has_parent, parents.astype(np.int64) + offset, -1)
            )
            columns["start"].append(starts.copy())
            columns["end"].append(ends.copy())
            columns["self"].append(durations - child_time)
            columns["thread"].append(np.full(count, thread_index, dtype=np.int64))
            offset += count
        return {
            key: (np.concatenate(parts) if parts else np.empty(0))
            for key, parts in columns.items()
        }


class _Span:
    def __init__(self, recorder: SpanRecorder, name_id: int) -> None:
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> "_Span":
        log = self._recorder._log()
        self._log = log
        self._index = len(log.starts)
        log.names.append(self._name_id)
        log.parents.append(log.stack[-1])
        log.ends.append(0.0)
        log.stack.append(self._index)
        log.starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._log.ends[self._index] = time.perf_counter()
        self._log.stack.pop()


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Hooks:
    """Installs span wrappers for a traced section and removes them after.

    ``targets`` are ``(target, span name, count)`` triples; a target is
    ``"module:attribute"`` or ``"module:Class.method"``.  Targets that
    no longer exist are skipped and listed in :attr:`missing`, so a
    refactor that renames a traced callable shows up as a missing hook
    (and a zero for its layer) rather than a crash.  ``foreign`` maps a
    ctypes function name on ``library`` to a span name; those are
    wrapped on the library object, where every call site looks them up.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        targets: List[Tuple[str, str, Optional[CountFn]]],
        library: Any = None,
        foreign: Optional[Dict[str, str]] = None,
    ) -> None:
        self._recorder = recorder
        self._targets = targets
        self._library = library
        self._foreign = foreign or {}
        self._saved: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def __enter__(self) -> "Hooks":
        for target, name, count in self._targets:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    self.missing.append(target)
                    continue
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(
                        self._recorder.wrap(raw.__func__, name, count)
                    )
                else:
                    replacement = self._recorder.wrap(raw, name, count)
            elif hasattr(owner, attr):
                raw = getattr(owner, attr)
                replacement = self._recorder.wrap(raw, name, count)
            else:
                self.missing.append(target)
                continue
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        for symbol, name in self._foreign.items():
            try:
                function = getattr(self._library, symbol)
            except AttributeError:
                self.missing.append(symbol)
                continue
            self._saved.append((self._library, symbol, function))
            setattr(self._library, symbol, self._recorder.wrap(function, name))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
