"""In-memory spans recorded around calls into the lyness package.

A span is a dict with ``id``, ``name``, ``parent`` (the id of the enclosing
span, or None), ``start`` and ``end`` (``time.perf_counter`` seconds, which
on Linux is the system-wide monotonic clock, so spans from child processes
line up with the parent's) and ``counts``, exact work counts recorded at the
same boundary.  Spans stay in memory; the run writes them out when it ends.
"""
from __future__ import annotations

import contextlib
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for rec in spans:
            self.spans.append({**rec, "id": rec["id"] + base,
                               "parent": parent if rec["parent"] is None
                               else rec["parent"] + base})

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median(s["end"] - s["start"] for s in self.named(name))

    def median_count(self, name: str, key: str) -> float:
        return statistics.median(s["counts"][key] for s in self.named(name))

    def median_total(self, name: str, per: str, key: str | None = None) -> float:
        """Median over ``per`` spans of the summed duration (or count ``key``)
        of the ``name`` spans directly inside each."""
        totals = {s["id"]: 0.0 for s in self.named(per)}
        for s in self.named(name):
            if s["parent"] in totals:
                totals[s["parent"]] += (s["end"] - s["start"] if key is None
                                        else s["counts"][key])
        return statistics.median(totals.values())


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op on an untraced run."""
    return contextlib.nullcontext({"counts": {}}) if tracer is None else tracer.span(name)
