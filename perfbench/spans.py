"""In-memory span recorder for the traced benchmark run.

A span covers one call into a pmichannel module, made from the benchmark's
own replay of a driver's task loop.  Each span holds its name, start, end,
parent and task id.  The parent stack is thread-local, so spans opened in a
worker thread nest under that thread's task span.  Spans stay in memory
until ``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    task: object
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    counts: Counter = field(default_factory=Counter)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and attributes warnings to the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unattributed: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, task=None):
        """Time the enclosed calls; the task id is inherited from the parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if task is None and parent is not None:
            task = parent.task
        s = Span(next(self._ids), name, task, parent.id if parent else None, time.perf_counter())
        stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        stack = self._stack()
        (stack[-1].counts if stack else self.unattributed)[category.__name__] += 1

    @contextmanager
    def capturing_warnings(self):
        """Count every warning on the span that raised it instead of printing it.

        The filter and hook are process-wide, so warnings from worker
        threads are counted too; enter this once, from the main thread.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._showwarning
            yield

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "task": s.task,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "error": s.error,
                            "counts": dict(s.counts),
                        }
                    )
                    + "\n"
                )
