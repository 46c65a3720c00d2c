"""In-memory spans around calls into ganf's modules.

A traced run wraps module attributes at run time (nothing under ``src/``
changes), records one span per call with its name, start, end and parent,
and writes every span as JSON when the run ends. Spans opened in worker
threads have their own stacks, so a scoring thread's spans nest under the
call that thread made.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident(),
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- queries ----

    def _by_id(self) -> dict[int, dict]:
        return {s["id"]: s for s in self.spans}

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Seconds of every span called ``name``, optionally only below an ancestor."""
        by_id = self._by_id()
        out = []
        for s in self.spans:
            if s["name"] != name or s["end"] is None:
                continue
            if under is not None and not self._has_ancestor(s, under, by_id):
                continue
            out.append(s["end"] - s["start"])
        return out

    @staticmethod
    def _has_ancestor(span: dict, name: str, by_id: dict[int, dict]) -> bool:
        parent = span["parent"]
        while parent is not None:
            span = by_id[parent]
            if span["name"] == name:
                return True
            parent = span["parent"]
        return False

    def median_ms(self, name: str, under: str | None = None) -> float:
        values = self.durations(name, under)
        if not values:
            raise KeyError(f"no span {name!r}" + (f" under {under!r}" if under else ""))
        return 1e3 * statistics.median(values)

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration less the time its child spans cover.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            total = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total
            row["self_s"] += total - child_time.get(s["id"], 0.0)
        return out

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump({**extra, "self_times": self.self_times(), "spans": self.spans},
                      fh, indent=1)
