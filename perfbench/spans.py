"""In-memory spans: name, start, end, parent.

Times are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so spans recorded in a worker process line up
with those of run.py.  A disabled tracer records nothing.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []

    @property
    def current(self):
        return self._open[-1] if self._open else None

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        if not self.enabled:
            return -1
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent})
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self.add(name, time.perf_counter(), None, self.current)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def adopt(self, spans: list) -> None:
        """Attach spans recorded by a worker under the currently open span."""
        base = len(self.spans)
        for s in spans:
            parent = self.current if s["parent"] is None else base + s["parent"]
            self.add(s["name"], s["start"], s["end"], parent)


def totals(spans: list) -> dict:
    """Per span name: (summed duration, count)."""
    out: dict = {}
    for s in spans:
        total, count = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (total + s["end"] - s["start"], count + 1)
    return out
