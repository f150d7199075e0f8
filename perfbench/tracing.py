"""In-memory spans around the benchmark's own calls into the package."""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    job: str
    tag: str
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call; ``workload``, ``job`` and ``tag`` label the
    spans opened while they are set."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.workload = ""
        self.job = ""
        self.tag = ""

    @contextlib.contextmanager
    def span(self, name):
        rec = Span(
            id=len(self.spans), name=name, start=time.perf_counter(), end=0.0,
            parent=self._stack[-1].id if self._stack else None,
            workload=self.workload, job=self.job, tag=self.tag,
        )
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, work=None, **kwargs):
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        # work counts are taken after the span closes, outside its time
        if work is not None:
            rec.work = work(out) if callable(work) else dict(work)
        return out

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the part of it that its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.seconds - covered
        return out

    def totals(self, tag: str) -> dict[str, dict]:
        """Per span name: count, busy seconds, self seconds and summed work."""
        own = self.self_seconds()
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.tag != tag:
                continue
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": {}})
            t["calls"] += 1
            t["s"] += s.seconds
            t["self_s"] += own[s.id]
            for k, v in s.work.items():
                t["work"][k] = t["work"].get(k, 0) + v
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
