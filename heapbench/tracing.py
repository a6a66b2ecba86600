"""Spans recorded by the benchmark around its own calls into the library.

A span is (name, start, end, parent span, op id).  Spans are kept in
memory during a pass and written out when the run ends.  The untraced
passes use `NullTracer`, whose `call` and `op` add one Python call and
nothing else.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def op(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op_id = -1

    def call(self, name, fn, *args):
        rec = [name, 0, 0, self._open[-1] if self._open else -1, self._op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def op(self, name, fn, *args):
        """Span of one whole op; the spans opened inside it share its op id."""
        self._op_id += 1
        return self.call(name, fn, *args)

    def self_ns(self) -> list[int]:
        """Duration minus the part covered by child spans, per span.

        Within one thread, child spans nest inside their parent and never
        overlap each other, so the covered part is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def median_self_ms(self) -> dict[str, float]:
        by_name: dict[str, list[int]] = {}
        for rec, own in zip(self.spans, self.self_ns()):
            by_name.setdefault(rec[0], []).append(own)
        return {name: statistics.median(v) / 1e6 for name, v in by_name.items()}

    def write(self, path, label: str) -> None:
        own = self.self_ns()
        with open(path, "a") as fh:
            for i, ((name, start, end, parent, op_id), s) in enumerate(zip(self.spans, own)):
                fh.write(
                    json.dumps(
                        {
                            "pass": label,
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op_id,
                            "self_ns": s,
                        }
                    )
                    + "\n"
                )
