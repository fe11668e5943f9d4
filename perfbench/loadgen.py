"""The load generator: one process, at most ``nproc`` threads and
connections.

Each slot (thread) keeps one ``http.client`` connection.  While the
server answers ``Connection: close``, ``http.client`` reconnects on the
next request by itself; :class:`TimedConnection` records how long each
connect took, so a server that keeps connections alive shows the saving
in ``http.connect_ms``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field


class TimedConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that logs the duration of every TCP connect."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, timeout=60)
        self.connects: list[float] = []

    def connect(self) -> None:
        start = time.perf_counter()
        super().connect()
        self.connects.append(time.perf_counter() - start)


@dataclass
class Request:
    """One request as the client saw it (``perf_counter`` seconds)."""

    due: float
    sent: float
    done: float
    connect: float
    answer: object = None
    error: str = ""


@dataclass
class Phase:
    """The requests of one rate step or one closed loop."""

    requests: list[Request] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    def latencies(self) -> list[float]:
        """Latency of each answered request, counted from when it was due."""
        return [r.done - r.due for r in self.requests if not r.error]


def _exchange(
    conn: TimedConnection, method: str, path: str, body: bytes | None
) -> tuple[object, float, float]:
    """One request/response; returns the decoded JSON, the connect time and
    when the last response byte arrived (before decoding)."""
    before = len(conn.connects)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        raise
    done = time.perf_counter()
    connect = sum(conn.connects[before:])
    if not 200 <= response.status < 300:
        raise http.client.HTTPException(f"HTTP {response.status}: {payload[:200]!r}")
    return json.loads(payload), connect, done


def open_loop(
    host: str, port: int, pairs: list[tuple[int, int]], rate: float, slots: int
) -> Phase:
    """Send ``GET /query`` for every pair on a fixed schedule of ``rate``
    requests per second, regardless of how fast answers come back.

    A request that finds every slot busy is sent late; its latency is
    still counted from the moment it was due.
    """
    phase = Phase()
    lock = threading.Lock()
    cursor = [0]
    phase.started = time.perf_counter() + 0.02
    results: list[Request | None] = [None] * len(pairs)

    def slot() -> None:
        conn = TimedConnection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(pairs):
                    return
                due = phase.started + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                s, t = pairs[i]
                sent = time.perf_counter()
                try:
                    body, connect, done = _exchange(conn, "GET", f"/query?s={s}&t={t}", None)
                    results[i] = Request(due, sent, done, connect, (body["dist"], body["count"]))
                except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                    results[i] = Request(due, sent, time.perf_counter(), 0.0, error=repr(exc))
        finally:
            conn.close()

    threads = [threading.Thread(target=slot) for _ in range(slots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.ended = time.perf_counter()
    phase.requests = [r for r in results if r is not None]
    return phase


def closed_loop(host: str, port: int, bodies: list[bytes], seconds: float) -> Phase:
    """``POST /query_batch`` over one connection, each request sent when the
    previous answer arrived, cycling through ``bodies`` for ``seconds``:
    request ``i`` carries ``bodies[i % len(bodies)]``.
    """
    phase = Phase()
    conn = TimedConnection(host, port)
    phase.started = time.perf_counter()
    try:
        while time.perf_counter() - phase.started < seconds or not phase.requests:
            k = len(phase.requests) % len(bodies)
            sent = time.perf_counter()
            try:
                body, connect, done = _exchange(conn, "POST", "/query_batch", bodies[k])
                answer = [(r["dist"], r["count"]) for r in body["results"]]
                phase.requests.append(Request(sent, sent, done, connect, answer))
            except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as exc:
                phase.requests.append(Request(sent, sent, time.perf_counter(), 0.0, error=repr(exc)))
    finally:
        conn.close()
    phase.ended = time.perf_counter()
    return phase
