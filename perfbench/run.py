"""The repo benchmark: build an index from a seeded graph, serve it over
HTTP, and measure both legs end to end (``--trace 0``) or layer by layer
(``--trace 1``).

Usage::

    python3 perfbench/run.py --workload social --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One run of a workload:

1. makes the workload's graph from ``--seed`` (``inputs.py``);
2. build leg (``build_child.py``, its own process): hands the edge list to
   ``repro.graph`` as a ``Graph``, alternates vectorized and parallel
   ``build_index`` calls, checks that parallel labels are bit-identical
   to vectorized ones, and saves the index;
3. checks a seeded sample of pairs against the BFS oracle;
4. point leg: ``python -m repro serve INDEX --workers 0``, driven by
   open-loop ``GET /query`` at a nominal rate, then up a ladder of rates;
5. bulk leg: ``python -m repro serve INDEX --workers nproc``, driven
   closed-loop over one connection with ``POST /query_batch``;
6. compares every HTTP answer with in-process ``open_index`` answers,
   stops each server with SIGTERM and checks its exit status, and counts
   leaked ``/dev/shm/repro-*`` segments and ``resource_tracker`` lines.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median ``Graph`` construction, plus the median time from
  launching each server until its first ``/healthz`` 200;
* ``build_s`` / ``build_par_s``: median wall time of ``build_index(g,
  method="pspc")`` with the vectorized engine / the parallel engine on
  ``nproc`` workers, spawn included;
* ``index_mb``: size of the saved ``.npz``;
* ``p50_ms``: point-query latency at the nominal rate, each request
  timed from when it was due;
* ``max_rps``: the highest ladder rate whose median latency stays under
  the limit in ``spec.json`` without a growing backlog (median of three
  climbs);
* ``qps``: pairs answered per second by ``POST /query_batch``;
* ``peak_rss_mb``: the largest peak RSS of the program's processes: the
  build process, or a server's parent plus its workers.

The nominal rate's p90 and p99 are printed but not part of the result:
on a small shared VM they move by tens of percent from run to run with
the host's scheduling, more than any bound a regression gate could use.

Every check counts as attempted and every mismatch as failed, so
``failed / attempted`` in the result line is the run's error rate.  A
traced run repeats both serve legs through ``traced_server.py`` and
reports the layer metrics of ``spec.json``'s ``layers`` map, which also
names the end-to-end metric each one should move.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro import build_index, open_index  # noqa: E402
from repro.core.engine import validate_pairs  # noqa: E402
from repro.graph import Graph  # noqa: E402

import inputs  # noqa: E402
import loadgen  # noqa: E402
import procs  # noqa: E402
from spans import median, quantile  # noqa: E402

with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)
#: metric names and units: the end-to-end list and the per-layer list
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    METRICS = json.load(_fh)

NPROC = len(os.sched_getaffinity(0))


class Run:
    """State of one benchmark run: work directory, child environment, and
    the correctness ledger (every check counts as attempted)."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.spec = SPEC["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(os.path.join(self.work, "tmp"))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONUNBUFFERED="1",
            TMPDIR=os.path.join(self.work, "tmp"),
        )
        self.index_path = os.path.join(self.work, "index.npz")
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        #: printed for reading, not part of the result line
        self.info: dict[str, float] = {}
        self.climbs: list[list[tuple[float, float, bool]]] = []
        self.rss_mb: list[float] = []
        self.setup_s = 0.0
        self.tracker_lines = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


# ----------------------------------------------------------------------
# build leg
# ----------------------------------------------------------------------
def build_leg(run: Run, n: int, edges: np.ndarray) -> None:
    np.save(run.path("edges.npy"), edges)
    argv = [
        sys.executable, os.path.join(HERE, "build_child.py"),
        "--edges", run.path("edges.npy"), "--n", str(n),
        "--landmarks", str(SPEC["landmarks"]), "--workers", str(NPROC),
        "--seconds", str(run.seconds * SPEC["shares"]["build"]),
        "--graph-repeats", str(SPEC["graph_repeats"]),
        "--out", run.index_path, "--result", run.path("build.json"),
    ] + (["--trace"] if run.trace else [])
    shm_before = procs.shm_segments()
    with open(run.path("build.err"), "w") as err:
        child = subprocess.Popen(argv, cwd=ROOT, env=run.env, stderr=err)
        try:
            status = child.wait(timeout=170)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if status != 0:
        with open(run.path("build.err")) as fh:
            sys.stderr.write(fh.read())
        raise RuntimeError(f"build leg exited with status {status}")
    with open(run.path("build.json")) as fh:
        result = json.load(fh)
    run.attempted += result["attempted"]
    run.failures.extend(result["failures"])
    run.rss_mb.append(result["peak_rss_mb"])
    leaked = len(procs.shm_segments() - shm_before)
    run.check(leaked == 0, f"build leg leaked {leaked} shm segments")
    tracker = procs.count_tracker_lines(run.path("build.err"))
    run.setup_s += median(result["setup_s"])
    run.metrics["build_s"] = median(result["build_s"])
    run.metrics["build_par_s"] = median(result["build_par_s"])
    run.metrics["index_mb"] = os.path.getsize(run.index_path) / 1e6
    if run.trace:
        run.layers.update({name: median(values) for name, values in result["layers"].items()})
        run.layers["shm.build_leaked_segments"] = leaked
        run.layers["shm.build_tracker_stderr_lines"] = tracker


def oracle_check(run: Run, n: int, edges: np.ndarray) -> None:
    """A seeded sample of pairs against ``build_index(g, method="bfs")``."""
    oracle = build_index(Graph(n, edges), method="bfs")
    pairs = inputs.make_pairs(n, SPEC["oracle_pairs"], run.seed, stream=1)
    index = open_index(run.index_path)
    try:
        for pair, got, want in zip(pairs, index.query_batch(pairs), oracle.query_batch(pairs)):
            run.check(
                (got.dist, got.count) == (want.dist, want.count),
                f"index answers {pair} with {(got.dist, got.count)}, BFS with {(want.dist, want.count)}",
            )
    finally:
        index.close()


# ----------------------------------------------------------------------
# serve legs
# ----------------------------------------------------------------------
def launch(run: Run, workers: int, name: str, traced: bool) -> procs.Server:
    if traced:
        argv = [
            sys.executable, os.path.join(HERE, "traced_server.py"), run.index_path,
            "--workers", str(workers), "--port", "0", "--spans", run.path(f"{name}.spans.json"),
        ]
    else:
        argv = [
            sys.executable, "-m", "repro", "serve", run.index_path,
            "--workers", str(workers), "--port", "0",
        ]
    return procs.Server(argv, run.env, ROOT, run.path(f"{name}.err"))


def stop(run: Run, server: procs.Server, name: str) -> None:
    status, rss_mb = server.stop()
    run.check(status == 0, f"{name} server exited with status {status}")
    run.rss_mb.append(rss_mb)
    run.tracker_lines += server.tracker_lines()


def start_server(run: Run, workers: int, name: str, traced: bool) -> procs.Server:
    """Launch ``server_launches`` times (untraced) and keep the last one;
    the median launch-to-healthy time joins the run's set-up time."""
    launches = 1 if traced else SPEC["server_launches"]
    setups = []
    for i in range(launches):
        server = launch(run, workers, name, traced)
        setups.append(server.setup_s)
        if i + 1 < launches:
            stop(run, server, name)
    if not traced:
        run.setup_s += median(setups)
    return server


def answers(index, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(r.dist, r.count) for r in index.query_batch(pairs)]


def max_rps(rungs: list[tuple[float, float, bool]], limit: float) -> float:
    """The highest passing rung, moved toward the next rung up by where the
    rung latency crosses the limit between them (linear in rate)."""
    passed = [i for i, rung in enumerate(rungs) if rung[2]]
    if not passed:
        rate, latency, _ = rungs[0]
        return rate * limit / latency
    rate, latency, _ = rungs[passed[-1]]
    if passed[-1] + 1 == len(rungs):
        return rate
    next_rate, next_latency, _ = rungs[passed[-1] + 1]
    if next_latency <= max(latency, limit):
        return rate
    return rate + (next_rate - rate) * (limit - latency) / (next_latency - latency)


def point_leg(run: Run, index, traced: bool) -> dict:
    """Open-loop point queries on ``--workers 0``.

    The nominal rate gives p50/p90.  Then the ladder is climbed
    ``ladder_passes`` times, each climb ending when ``stop_after_failures``
    rungs in a row fail, and ``max_rps`` is the median over the climbs.  A
    rung passes when its median latency stays under the limit, no request
    fails, and the lateness of its last quarter has not grown past half the
    limit over its first quarter (no growing backlog).  The rung verdict
    uses the median, not a tail percentile, and a climb goes on past a
    single failing rung, because on a small shared VM host stalls push a
    rung's tail over any useful limit long before the server saturates.
    """
    cfg = SPEC["point"]
    q, limit = cfg["rung_quantile"], cfg["rung_limit_ms"] / 1e3
    name = "point-traced" if traced else "point"
    server = start_server(run, 0, name, traced)
    streams = itertools.count(100)
    phases: list[loadgen.Phase] = []

    def drive(rate: float, share: float) -> tuple[float, float, bool]:
        pairs = inputs.make_pairs(index.n, int(rate * share * run.seconds), run.seed, next(streams))
        expected = answers(index, pairs)
        phase = loadgen.open_loop(server.host, server.port, pairs, rate, NPROC)
        phases.append(phase)
        for request, want in zip(phase.requests, expected):
            run.check(
                not request.error and request.answer == want,
                f"GET /query answered {request.answer or request.error}, expected {want}",
            )
        late = [r.sent - r.due for r in phase.requests]
        quarter = max(1, len(late) // 4)
        growing = median(late[-quarter:]) - median(late[:quarter]) > limit / 2
        latency = quantile(phase.latencies(), q)
        ok = latency <= limit and not growing and all(not r.error for r in phase.requests)
        return rate, latency, ok

    try:
        nominal = drive(cfg["nominal_rate"], cfg["nominal_share"])
        climbs = []
        for _ in range(cfg["ladder_passes"]):
            rungs = [nominal]
            for rate in cfg["ladder"]:
                rungs.append(drive(rate, cfg["step_share"]))
                if not any(rung[2] for rung in rungs[-cfg["stop_after_failures"] :]):
                    break
            climbs.append(rungs)
        status, stats = server.get("/stats")
        run.check(status == 200, f"GET /stats answered {status}")
    finally:
        stop(run, server, name)
    latencies = phases[0].latencies()
    return {
        "p50_ms": median(latencies) * 1e3,
        "p90_ms": quantile(latencies, 0.9) * 1e3,
        "p99_ms": quantile(latencies, 0.99) * 1e3,
        "max_rps": median([max_rps(rungs, limit) for rungs in climbs]),
        "climbs": climbs,
        "late_p99_ms": quantile([r.sent - r.due for r in phases[0].requests], 0.99) * 1e3,
        "phases": phases,
        "stats": stats,
    }


def bulk_leg(run: Run, index, traced: bool) -> dict:
    """Closed-loop ``POST /query_batch`` on ``--workers nproc``."""
    cfg = SPEC["bulk"]
    size = cfg["pairs_per_request"]
    pairs = inputs.make_pairs(index.n, size * cfg["bodies"], run.seed, stream=3)
    batches = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    bodies = [json.dumps({"pairs": batch}).encode() for batch in batches]
    expected = [answers(index, batch) for batch in batches]
    name = "bulk-traced" if traced else "bulk"
    server = start_server(run, NPROC, name, traced)
    try:
        phase = loadgen.closed_loop(
            server.host, server.port, bodies, run.seconds * SPEC["shares"]["bulk"]
        )
        status, stats = server.get("/stats")
        run.check(status == 200, f"GET /stats answered {status}")
    finally:
        stop(run, server, name)
    answered = 0
    for i, request in enumerate(phase.requests):
        want = expected[i % len(bodies)]
        ok = not request.error and request.answer == want
        run.check(ok, f"POST /query_batch #{i} differs from in-process answers: {request.error}")
        answered += size if ok else 0
    return {
        "qps": answered / (phase.ended - phase.started),
        "phase": phase,
        "batches": batches,
        "stats": stats,
    }


# ----------------------------------------------------------------------
# the traced run's ledger
# ----------------------------------------------------------------------
def load_spans(run: Run, name: str) -> dict[str, list[list]]:
    with open(run.path(f"{name}.spans.json")) as fh:
        return json.load(fh)


def point_ledger(run: Run, leg: dict) -> None:
    """Self times along the point path: connect (client), http, admission
    (``submit`` minus its kernel call) and the dispatch target."""
    spans = load_spans(run, "point-traced")
    http = {rid: end - start for start, end, rid in spans.get("http", [])}
    dispatch = sorted(spans.get("dispatch", []), key=lambda span: span[0])
    starts = [span[0] for span in dispatch]
    submit, admission, http_total, http_self, kernel = [], [], [], [], []
    for start, end, rid, s, t in spans.get("submit", []):
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        match = [d for d in dispatch[lo:hi] if d[1] <= end and d[3] and [s, t] in d[3]]
        if not match or rid not in http:
            continue
        spent = end - start
        submit.append(spent)
        kernel.append(match[0][1] - match[0][0])
        admission.append(spent - kernel[-1])
        http_total.append(http[rid])
        http_self.append(http[rid] - spent)
    requests = [r for phase in leg["phases"] for r in phase.requests if not r.error]
    client = [r.done - r.sent for r in requests]
    connect = [r.connect for r in requests]
    explained = mean(connect) + mean(http_self) + mean(admission) + mean(kernel)
    stats = leg["stats"]
    run.layers.update(
        {
            "store.open_s": spans["open"][0][1] - spans["open"][0][0],
            "gen.late_ms": leg["late_p99_ms"],
            "http.connect_ms": median(connect) * 1e3,
            "http.request_p50_ms": median(http_total) * 1e3,
            "http.request_p90_ms": quantile(http_total, 0.9) * 1e3,
            "http.self_ms": median(http_self) * 1e3,
            "async_service.submit_ms": median(submit) * 1e3,
            "async_service.admission_wait_ms": median(admission) * 1e3,
            "dispatch.calls": len(dispatch),
            "dispatch.pairs_per_call": mean([d[2] for d in dispatch]),
            "dispatch.kernel_ms": median(kernel) * 1e3,
            "service.timeout_flushes": stats.get("timeout_flushes", 0),
            "service.full_flushes": stats.get("full_flushes", 0),
            "service.mean_batch_size": stats.get("mean_batch_size", 0.0),
            "trace.coverage_point": explained / mean(client),
        }
    )


def bulk_ledger(run: Run, leg: dict, index) -> None:
    """Self times along the bulk path: connect, http, the service's bulk
    path, and the worker pool's ``query_batch`` (pipes, kernel, reassembly)."""
    spans = load_spans(run, "bulk-traced")
    http = {rid: end - start for start, end, rid in spans.get("http", [])}
    dispatch = sorted(spans.get("dispatch", []), key=lambda span: span[0])
    starts = [span[0] for span in dispatch]
    service, service_self, http_total, http_self, pool = [], [], [], [], []
    pool_pairs = 0
    for start, end, rid, _pairs in spans.get("service_batch", []):
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        inner = [d for d in dispatch[lo:hi] if d[1] <= end]
        if rid not in http:
            continue
        spent = end - start
        service.append(spent)
        pool.append(sum(d[1] - d[0] for d in inner))
        pool_pairs += sum(d[2] for d in inner)
        service_self.append(spent - pool[-1])
        http_total.append(http[rid])
        http_self.append(http[rid] - spent)
    requests = [r for r in leg["phase"].requests if not r.error]
    client = [r.done - r.sent for r in requests]
    connect = [r.connect for r in requests]
    explained = mean(connect) + mean(http_self) + mean(service_self) + mean(pool)
    validate_ms, engine_ms = engine_per_1k(index, leg["batches"])
    run.layers.update(
        {
            "store.open_s": median(
                [run.layers["store.open_s"], spans["open"][0][1] - spans["open"][0][0]]
            ),
            "http.bulk_connect_ms": median(connect) * 1e3,
            "http.bulk_request_ms": median(http_total) * 1e3,
            "http.bulk_self_ms": median(http_self) * 1e3,
            "async_service.query_batch_ms": median(service) * 1e3,
            "async_service.bulk_self_ms": median(service_self) * 1e3,
            "dispatch.bulk_calls": len(dispatch),
            "dispatch.bulk_pairs_per_call": mean([d[2] for d in dispatch]),
            "pool.query_batch_ms": sum(pool) / max(1, pool_pairs) * 1e6,
            "engine.validate_ms": validate_ms,
            "engine.query_batch_ms": engine_ms,
            "service.bulk_flushes": leg["stats"].get("bulk_flushes", 0),
            "trace.coverage_bulk": explained / mean(client),
        }
    )


def engine_per_1k(index, batches: list[list[tuple[int, int]]]) -> tuple[float, float]:
    """In-process ms per 1k pairs of ``validate_pairs`` and
    ``QueryEngine.query_batch`` (which runs ``query_batch_compact``)."""
    validate, kernel = [], []
    pairs = sum(len(batch) for batch in batches)
    for _ in range(3):
        start = time.perf_counter()
        for batch in batches:
            validate_pairs(batch, index.n)
        validate.append(time.perf_counter() - start)
        start = time.perf_counter()
        for batch in batches:
            index.engine.query_batch(batch)
        kernel.append(time.perf_counter() - start)
    return median(validate) / pairs * 1e6, median(kernel) / pairs * 1e6


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
def provenance(run: Run) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "git_sha": sha,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def execute(run: Run) -> None:
    shm_before = procs.shm_segments()
    n, edges = inputs.make_graph(run.spec["graph"], run.seed)
    build_leg(run, n, edges)
    oracle_check(run, n, edges)
    index = open_index(run.index_path, mmap=True)
    try:
        point = point_leg(run, index, traced=False)
        bulk = bulk_leg(run, index, traced=False)
        run.metrics.update(
            {
                "setup_s": run.setup_s,
                "qps": bulk["qps"],
                "p50_ms": point["p50_ms"],
                "max_rps": point["max_rps"],
            }
        )
        run.info.update({"p90_ms": point["p90_ms"], "p99_ms": point["p99_ms"]})
        run.climbs = point["climbs"]
        if run.trace:
            serve_tracker = run.tracker_lines
            traced_point = point_leg(run, index, traced=True)
            point_ledger(run, traced_point)
            traced_bulk = bulk_leg(run, index, traced=True)
            bulk_ledger(run, traced_bulk, index)
            run.layers["trace.overhead_p50"] = traced_point["p50_ms"] / point["p50_ms"]
            run.layers["trace.overhead_qps"] = bulk["qps"] / traced_bulk["qps"]
            run.layers["shm.serve_tracker_stderr_lines"] = serve_tracker
    finally:
        index.close()
    leaked = len(procs.shm_segments() - shm_before)
    run.check(leaked == 0, f"run leaked {leaked} shm segments")
    run.metrics["peak_rss_mb"] = max(run.rss_mb)
    if run.trace:
        run.layers["shm.serve_leaked_segments"] = leaked - run.layers["shm.build_leaked_segments"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        execute(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"error_rate {len(run.failures) / run.attempted:.6f} ({len(run.failures)}/{run.attempted})")
    values = run.layers if run.trace else run.metrics
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in METRICS["per_layer" if run.trace else "end_to_end"]
    }
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in run.info.items():
        print(f"{name:<36} {value:>14.6g} (not gated)")
    for rungs in run.climbs:
        print("ladder rate:p50_ms " + " ".join(
            f"{rate}:{latency * 1e3:.1f}{'' if ok else '(fail)'}" for rate, latency, ok in rungs
        ))
    print("provenance " + json.dumps(provenance(run)))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
