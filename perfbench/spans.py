"""In-memory spans recorded around calls into the program's public functions.

The traced entry scripts replace a public function or method with a
wrapper that appends ``(start, end, *extra)`` to a list, and write every
list out once when they finish.  Nothing inside ``src/`` is changed.
Times are ``time.perf_counter()`` readings, which on Linux come from the
monotonic clock shared by every process on the host, so spans from the
server and the load generator can be compared directly.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from typing import Any, Callable


class SpanLog:
    """Named lists of span tuples, kept in memory until :meth:`as_dict`."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple]] = {}

    def add(self, name: str, start: float, end: float, *extra: Any) -> None:
        self.spans.setdefault(name, []).append((start, end, *extra))

    def timed(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        """``fn`` wrapped to log a span; ``extra(args, kwargs, result)``
        returns further fields for the span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            fields = extra(args, kwargs, result) if extra is not None else ()
            self.add(name, start, end, *fields)
            return result

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [span[1] - span[0] for span in self.spans.get(name, [])]

    def as_dict(self) -> dict[str, list[list]]:
        return {name: [list(span) for span in spans] for name, spans in self.spans.items()}


def median(values: list[float]) -> float:
    """Median; 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
