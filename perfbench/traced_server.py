"""Traced serve entry: wraps the serving layers' public methods, then runs
``repro.serve.http.run_server`` with the flags ``python -m repro serve``
uses by default, and writes the spans out when the server stops.

Usage::

    python3 perfbench/traced_server.py INDEX --workers W --port 0 --spans OUT.json

Spans (``perf_counter`` seconds):

* ``open``: ``open_index``;
* ``http``: ``HttpFrontend.handle_connection`` as ``(start, end, request)``;
* ``submit``: ``AsyncQueryService.submit`` as ``(start, end, request, s, t)``;
* ``service_batch``: ``AsyncQueryService.query_batch`` as
  ``(start, end, request, pairs)``;
* ``dispatch``: the dispatch target's ``query_batch`` (``PSPCIndex`` with
  no workers, ``WorkerPool`` with workers) as ``(start, end, pairs,
  pair list or None)``; the pair list is kept for small batches
  so that point queries can be matched to the kernel call that answered
  them.

``request`` numbers connections; a context variable carries it from the
connection handler into the service calls made by the same task.
"""

from __future__ import annotations

import argparse
import contextvars
import itertools
import json
import time

from spans import SpanLog

#: largest dispatch batch whose pairs are logged (the point batch size)
_LOGGED_PAIRS = 64

_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar("request", default=-1)


def _install_wrappers(log: SpanLog) -> None:
    from repro.core.index import PSPCIndex
    from repro.serve.async_service import AsyncQueryService
    from repro.serve.http import HttpFrontend
    from repro.serve.pool import WorkerPool

    numbers = itertools.count()
    handle_connection = HttpFrontend.handle_connection
    submit = AsyncQueryService.submit
    service_batch = AsyncQueryService.query_batch

    async def traced_handle_connection(self, reader, writer):
        request = next(numbers)
        _REQUEST.set(request)
        start = time.perf_counter()
        try:
            return await handle_connection(self, reader, writer)
        finally:
            log.add("http", start, time.perf_counter(), request)

    async def traced_submit(self, s, t, **kwargs):
        start = time.perf_counter()
        try:
            return await submit(self, s, t, **kwargs)
        finally:
            log.add("submit", start, time.perf_counter(), _REQUEST.get(), s, t)

    async def traced_service_batch(self, pairs, **kwargs):
        start = time.perf_counter()
        try:
            return await service_batch(self, pairs, **kwargs)
        finally:
            log.add("service_batch", start, time.perf_counter(), _REQUEST.get(), len(pairs))

    def dispatch_fields(args, kwargs, result):
        pairs = args[1]
        return len(pairs), [list(p) for p in pairs] if len(pairs) <= _LOGGED_PAIRS else None

    HttpFrontend.handle_connection = traced_handle_connection
    AsyncQueryService.submit = traced_submit
    AsyncQueryService.query_batch = traced_service_batch
    PSPCIndex.query_batch = log.timed("dispatch", PSPCIndex.query_batch, dispatch_fields)
    WorkerPool.query_batch = log.timed("dispatch", WorkerPool.query_batch, dispatch_fields)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("index")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from repro import open_index
    from repro.serve.http import run_server

    log = SpanLog()
    _install_wrappers(log)
    start = time.perf_counter()
    counter = open_index(args.index, mmap=True)
    log.add("open", start, time.perf_counter())
    try:
        status = run_server(counter, port=args.port, workers=args.workers, announce=print)
    finally:
        counter.close()
        with open(args.spans, "w") as fh:
            json.dump(log.as_dict(), fh)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
