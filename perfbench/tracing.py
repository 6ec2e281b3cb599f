"""Span tracing from outside the program, plus the timing statistics the benchmark reports.

A `Tracer` replaces a function or method with a wrapper that records one span
per call: its name, start, end and parent span.  Spans stay in memory until
the run ends.  `self_times` turns them into per-span self time (duration minus
the part of it the span's direct children cover); `tail_percentile` picks the
highest percentile that still has at least ten samples beyond it.

Stdlib only, so the parent process and the tests can import it without numpy.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Sequence

# percentiles in per-mille, so the "samples beyond" count is exact integer arithmetic
PERCENTILES_PER_MILLE = (500, 900, 990, 999)
MIN_SAMPLES_BEYOND = 10
_INHERITED = object()


class Tracer:
    """Records spans and counters through wrappers it installs and can remove."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with ``timed(span, owner.attr, before, after)``."""
        raw = vars(owner).get(attr, _INHERITED)  # a staticmethod stays one when restored
        setattr(owner, attr, self.timed(span, getattr(owner, attr), before, after))
        self._patches.append((owner, attr, raw))

    def timed(
        self,
        span: str | None,
        fn: Callable,
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``span`` per call.

        ``span`` None records no span, for counting-only wrappers.
        ``before(args, kwargs)`` may return a new kwargs dict;
        ``after(args, kwargs, result)`` may return a replacement result.  Both
        run inside the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = None
            if span is not None:
                rec = [span, clock(), 0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
            try:
                if before is not None:
                    kwargs = before(args, kwargs) or kwargs
                result = fn(*args, **kwargs)
                if after is not None:
                    replaced = after(args, kwargs, result)
                    if replaced is not None:
                        result = replaced
                return result
            finally:
                if rec is not None:
                    stack.pop()
                    rec[2] = clock()

        return wrapper

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def write(self, path: str | Path) -> None:
        """Write all spans as gzipped JSON lines sharing this tracer's run id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Self time of each span: its duration minus the union of its direct children.

    Spans are (name, start, end, parent index or -1).  Children are clipped to
    their parent's interval; adjacent or overlapping children are merged so no
    instant is subtracted twice.  Grandchildren lie inside children and are
    not looked at.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) for the highest percentile with >= 10 samples beyond it.

    Candidates are p50, p90, p99 and p99.9 by the nearest-rank rule: the value
    at rank ceil(n p / 100) of the sorted samples, with n - rank samples
    beyond it.  Returns None when even p50 has fewer than ten beyond.
    """
    n = len(values)
    ordered = sorted(values)
    best = None
    for pm in PERCENTILES_PER_MILLE:
        rank = -(-n * pm // 1000)
        if rank >= 1 and n - rank >= MIN_SAMPLES_BEYOND:
            best = (pm / 10.0, ordered[rank - 1], n)
    return best

