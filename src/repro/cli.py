"""Command-line interface: ``python -m repro`` or the ``pspc`` script.

Subcommands
-----------
``info``        — graph statistics for an edge-list file or named dataset.
``build``       — build any registered counter method (``--method``) and
                  save it (one versioned ``.npz`` format for every kind).
``query``       — answer SPC queries from a saved index of any kind
                  (:func:`repro.api.open_index` sniffs the payload).
``serve``       — serve a saved index over HTTP: asyncio front-end plus a
                  shared-memory worker pool (``--workers N``).
``serve-bench`` — drive a workload through the admission-batched
                  :class:`repro.api.QueryService` and report latency stats.
``bench``       — run one of the paper's experiments and print its table.
``audit``       — validate a saved index against its graph.
``lint``        — run ``reprolint``, the project-invariant static analyser
                  (also installed as the ``reprolint`` console script).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import QueryService, build_index, method_names, open_index
from repro.core.labels import LabelIndex
from repro.devtools import cli as devtools_cli
from repro.devtools.fmt import FORMATS, render_rows
from repro.digraph.index import DirectedSPCIndex
from repro.errors import ReproError
from repro.experiments import harness
from repro.experiments.datasets import (
    dataset_names,
    directed_dataset_names,
    load_dataset,
    load_directed_dataset,
)
from repro.graph.io import read_edge_list, read_edge_list_directed
from repro.graph.properties import graph_stats
from repro.ordering import ORDERINGS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table3": lambda args: harness.exp_table3_datasets(),
    "fig5": lambda args: harness.exp_indexing_time(
        threads=args.threads, engine=args.engine
    ),
    "fig5build": lambda args: (
        (
            harness.exp_build_parallel_directed(workers=tuple(args.workers_sweep))
            if args.engine == "parallel"
            else harness.exp_build_engines_directed()
        )
        if args.method == "directed"
        else (
            harness.exp_build_parallel(workers=tuple(args.workers_sweep))
            if args.engine == "parallel"
            else harness.exp_build_engines()
        )
    ),
    "fig6": lambda args: harness.exp_index_size(),
    "fig7": lambda args: harness.exp_query_time(threads=args.threads),
    "fig7batch": lambda args: harness.exp_query_batch(),
    "fig8": lambda args: harness.exp_build_speedup(),
    "fig9": lambda args: harness.exp_query_speedup(),
    "fig10a": lambda args: harness.exp_ablation_landmarks(threads=args.threads),
    "fig10b": lambda args: harness.exp_ablation_schedule(threads=args.threads),
    "fig10c": lambda args: harness.exp_ablation_order(threads=args.threads),
    "fig11": lambda args: harness.exp_delta_effect(threads=args.threads),
    "fig12": lambda args: harness.exp_landmark_count(threads=args.threads),
    "fig13": lambda args: harness.exp_time_breakdown(),
    "serve": lambda args: harness.exp_query_service(),
    "serve-scaling": lambda args: harness.exp_serve_scaling(),
    "serve-chaos": lambda args: harness.exp_serve_chaos(),
    "serve-trace": lambda args: harness.exp_serve_traced(),
}


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return load_dataset(args.dataset)
    if args.graph:
        return read_edge_list(Path(args.graph))
    raise ReproError("provide --graph FILE or --dataset KEY")


def _load_directed_graph(args: argparse.Namespace):
    if getattr(args, "dataset", None):
        return load_directed_dataset(args.dataset)
    if args.graph:
        return read_edge_list_directed(Path(args.graph))
    raise ReproError(
        "provide --graph FILE or --dataset KEY (directed dataset keys end in -D)"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="pspc",
        description="PSPC: parallel shortest-path counting (ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="edge-list file (SNAP/KONECT style)")
        p.add_argument(
            "--dataset",
            choices=sorted(dataset_names(include_road=True))
            + sorted(directed_dataset_names()),
            help="named benchmark dataset (keys ending in -D are directed)",
        )

    p_info = sub.add_parser("info", help="print graph statistics")
    add_graph_args(p_info)

    p_build = sub.add_parser("build", help="build any SPC counter kind")
    add_graph_args(p_build)
    p_build.add_argument("--out", required=True, help="output index file")
    p_build.add_argument(
        "--method",
        default="pspc",
        choices=method_names(),
        help="counter kind from the repro.api method registry",
    )
    p_build.add_argument("--ordering", default="degree", choices=sorted(ORDERINGS))
    p_build.add_argument("--builder", default="pspc", choices=["pspc", "hpspc"])
    p_build.add_argument("--paradigm", default="pull", choices=["pull", "push"])
    p_build.add_argument("--landmarks", type=int, default=0)
    p_build.add_argument("--threads", type=int, default=1)
    p_build.add_argument(
        "--store",
        default="compact",
        choices=["compact", "tuple"],
        help="serving representation (compact numpy arrays by default)",
    )
    p_build.add_argument(
        "--engine",
        default="vectorized",
        choices=["vectorized", "reference", "parallel"],
        help="label-construction engine (vectorized array kernels by default; "
        "reference runs the exact per-vertex loops; parallel shards the "
        "kernels across spawned processes over shared memory)",
    )
    p_build.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process count for --engine parallel (ignored otherwise)",
    )
    p_build.add_argument(
        "--no-one-shell",
        action="store_true",
        help="method=reduced: skip the 1-shell peel stage",
    )
    p_build.add_argument(
        "--no-equivalence",
        action="store_true",
        help="method=reduced: skip the neighbourhood-equivalence stage",
    )
    p_build.add_argument(
        "--rebuild-threshold",
        type=int,
        default=16,
        help="method=dynamic: buffered updates before a full label rebuild",
    )
    p_build.add_argument(
        "--no-compress",
        action="store_true",
        help="write the index uncompressed so read-only consumers can "
        "memory-map the label arrays (larger file, lazy open)",
    )
    p_build.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase/per-iteration build timings (vectorized and "
        "parallel engines) and print the breakdown; the profile persists "
        "into the saved index metadata",
    )

    p_query = sub.add_parser("query", help="query a saved index (any kind)")
    p_query.add_argument("--index", required=True, help="index file from `build`")
    p_query.add_argument("pairs", nargs="+", help="queries as s,t (e.g. 3,17)")
    p_query.add_argument(
        "--format",
        dest="fmt",
        default="table",
        choices=list(FORMATS),
        help="output format (same renderer as `repro lint`)",
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="add per-pair query-cost columns: label entries scanned, label "
        "sizes, and the meeting hub",
    )

    p_http = sub.add_parser(
        "serve",
        help="serve a saved index over HTTP (asyncio + shared-memory workers)",
    )
    p_http.add_argument("index", help="index file from `build` (any kind)")
    p_http.add_argument("--host", default="127.0.0.1")
    p_http.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p_http.add_argument(
        "--workers",
        type=int,
        default=0,
        help="spawned worker processes serving the index from shared "
        "memory (0 serves in-process)",
    )
    p_http.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the index into this many vertex-range shards "
        "(default 1: the whole index as one shard); workers own shards "
        "round-robin and the batch router scatters by home shard",
    )
    p_http.add_argument(
        "--cold-shards",
        default="",
        help="comma-separated shard indexes published to disk only "
        "(attached lazily via mmap instead of shared memory)",
    )
    p_http.add_argument("--batch-size", type=int, default=64)
    p_http.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="longest a query waits behind an in-flight batch (milliseconds); "
        "a query that finds the kernel idle flushes at once",
    )
    p_http.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="LRU point-query cache entries (0 disables)",
    )
    p_http.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="admission-queue bound; a full queue answers 429 (0 = unbounded)",
    )
    p_http.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help="concurrently executing kernel batches (0 = unbounded)",
    )
    p_http.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="default per-request budget; an expired request answers 504 "
        "(0 = no deadline; clients can pass their own deadline_ms)",
    )
    p_http.add_argument(
        "--trace",
        action="store_true",
        help="record per-request span timings into ring buffers, served at "
        "/debug/trace and /debug/events and as histograms in /metrics",
    )
    p_http.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        help="log one structured-JSON line per query slower than this "
        "(implies --trace; 0 disables)",
    )

    p_serve = sub.add_parser(
        "serve-bench",
        help="drive a workload through the batched QueryService and report stats",
    )
    add_graph_args(p_serve)
    p_serve.add_argument(
        "--index", help="saved index of any kind (alternative to --graph/--dataset)"
    )
    p_serve.add_argument(
        "--method",
        default="pspc",
        choices=method_names(),
        help="counter to build when no --index is given",
    )
    p_serve.add_argument("--queries", type=int, default=10_000)
    p_serve.add_argument("--batch-size", type=int, default=512)
    p_serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="admission deadline for unfilled batches (milliseconds)",
    )
    p_serve.add_argument("--seed", type=int, default=7)

    p_bench = sub.add_parser("bench", help="run a paper experiment")
    p_bench.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    p_bench.add_argument("--threads", type=int, default=harness.DEFAULT_THREADS)
    p_bench.add_argument(
        "--method",
        default="pspc",
        choices=["pspc", "directed"],
        help="index kind for experiments that support both (fig5build: "
        "directed runs the two-label engines over the bundled -D datasets)",
    )
    p_bench.add_argument(
        "--engine",
        default="reference",
        choices=["vectorized", "reference", "parallel"],
        help="build engine for experiments that construct indexes "
        "(fig5; reference keeps the paper-faithful loop timings; "
        "fig5build with parallel measures the real process-parallel build)",
    )
    p_bench.add_argument(
        "--workers-sweep",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="worker counts for `bench fig5build --engine parallel`",
    )
    p_bench.add_argument(
        "--plot", action="store_true", help="render the rows as an ASCII chart"
    )

    p_audit = sub.add_parser("audit", help="validate a saved index against its graph")
    add_graph_args(p_audit)
    p_audit.add_argument("--index", required=True, help="index file from `build`")
    p_audit.add_argument(
        "--deep",
        action="store_true",
        help="also audit every label entry against the canonical ESPC definition",
    )
    p_audit.add_argument("--samples", type=int, default=500, help="query pairs to check")

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the project-invariant static analyser",
    )
    devtools_cli.add_lint_arguments(p_lint)

    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    stats = graph_stats(graph, name=args.dataset or args.graph or "")
    print(harness.format_rows([stats.__dict__], title="graph statistics"))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = (
        _load_directed_graph(args) if args.method == "directed" else _load_graph(args)
    )
    counter = build_index(
        graph,
        method=args.method,
        ordering=args.ordering,
        builder=args.builder,
        paradigm=args.paradigm,
        num_landmarks=args.landmarks,
        threads=args.threads,
        store=args.store,
        engine=args.engine,
        workers=args.workers,
        use_one_shell=not args.no_one_shell,
        use_equivalence=not args.no_equivalence,
        rebuild_threshold=args.rebuild_threshold,
        profile=args.profile,
    )
    if args.no_compress:
        import inspect

        if "compress" not in inspect.signature(counter.save).parameters:
            raise ReproError(
                f"method {args.method!r} does not support --no-compress "
                "(only label-array payloads can be written uncompressed)"
            )
        counter.save(args.out, compress=False)
    else:
        counter.save(args.out)
    entries = getattr(counter, "total_entries", None)
    entries_note = f"{entries()} entries, " if callable(entries) else ""
    print(
        f"built {args.method} counter over {counter.n} vertices: "
        f"{entries_note}{counter.size_mb():.3f} MB, "
        f"{counter.stats.total_seconds:.2f}s -> {args.out}"
    )
    if args.profile:
        from repro.obs.profile import render_profile

        print()
        print(render_profile(counter.stats))
    return 0


def _parse_pairs(texts: list[str]) -> list[tuple[int, int]]:
    pairs = []
    for pair in texts:
        try:
            s_text, t_text = pair.split(",")
            pairs.append((int(s_text), int(t_text)))
        except ValueError:
            raise ReproError(f"bad query {pair!r}; expected s,t") from None
    return pairs


def _close_counter(counter) -> None:
    """Release a counter's memory maps when its kind supports closing.

    The mmap-capable facades (PSPC/HP-SPC/directed-compact) expose
    ``close()``; recipe and baseline payloads have nothing to release.
    """
    close = getattr(counter, "close", None)
    if callable(close):
        close()


def _cmd_query(args: argparse.Namespace) -> int:
    # read-only path: lazy-open label arrays when the file allows it,
    # and release the maps (file descriptor) before exiting
    counter = open_index(args.index, mmap=True)
    pairs = _parse_pairs(args.pairs)
    try:
        if args.explain:
            from repro.obs.explain import explain_pairs

            rows = explain_pairs(counter, pairs)
            title = "SPC queries (explained)"
        else:
            rows = [
                {"s": r.s, "t": r.t, "dist": r.dist, "count": r.count}
                for r in counter.query_batch(pairs)
            ]
            title = "SPC queries"
    finally:
        _close_counter(counter)
    print(render_rows(rows, args.fmt, title=title))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import run_server

    counter = open_index(args.index, mmap=True)
    cold_shards = tuple(
        int(tok) for tok in args.cold_shards.split(",") if tok.strip()
    )
    print(
        f"loaded {type(counter).__name__} over {counter.n} vertices from "
        f"{args.index}; workers={args.workers} shards={args.shards}",
        flush=True,
    )
    try:
        return run_server(
            counter,
            host=args.host,
            port=args.port,
            workers=args.workers,
            shards=args.shards,
            cold_shards=cold_shards,
            batch_size=args.batch_size,
            max_wait=args.max_wait_ms / 1000.0,
            cache_size=args.cache_size,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
            deadline_ms=args.deadline_ms,
            trace=args.trace,
            slow_ms=args.slow_ms,
            announce=print,
        )
    finally:
        # the index file stays mapped for the server's whole lifetime;
        # a clean SIGTERM shutdown must release it with everything else
        _close_counter(counter)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.index:
        counter = open_index(args.index)
    else:
        graph = (
            _load_directed_graph(args)
            if args.method == "directed"
            else _load_graph(args)
        )
        counter = build_index(graph, method=args.method)
    rng = np.random.default_rng(args.seed)
    pairs = [
        (int(s), int(t)) for s, t in rng.integers(counter.n, size=(args.queries, 2))
    ]

    start = time.perf_counter()
    direct = counter.query_batch(pairs)
    direct_seconds = time.perf_counter() - start

    with QueryService(
        counter, batch_size=args.batch_size, max_wait=args.max_wait_ms / 1000.0
    ) as service:
        start = time.perf_counter()
        served = service.query_batch(pairs)
        service_seconds = time.perf_counter() - start
        if served != direct:
            raise ReproError("QueryService answers diverged from direct query_batch")
        stats = service.stats()
    rows = [
        {
            "queries": args.queries,
            "batch_size": args.batch_size,
            "batches": stats["batches"],
            "direct_us": round(direct_seconds / args.queries * 1e6, 2),
            "service_us": round(service_seconds / args.queries * 1e6, 2),
            "mean_flush_us": stats["mean_flush_us"],
            "max_flush_us": stats["max_flush_us"],
        }
    ]
    print(harness.format_rows(rows, title="serve-bench (QueryService)"))
    print(
        f"answers identical to per-pair queries; "
        f"{stats['batches']} kernel calls for {args.queries} queries"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = _EXPERIMENTS[args.experiment](args)
    print(harness.format_rows(rows, title=f"experiment {args.experiment}"))
    if args.plot and rows:
        print()
        print(_plot_rows(args.experiment, rows))
    return 0


def _plot_rows(experiment: str, rows: list[dict]) -> str:
    """Pick a chart type matching the experiment's figure in the paper."""
    from repro.experiments.plots import bar_chart, line_chart

    if "speedup" in rows[0] and "threads" in rows[0]:  # figs 8-9: one line per dataset
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            series.setdefault(row["dataset"], []).append(
                (float(row["threads"]), float(row["speedup"]))
            )
        return line_chart(series, title=f"{experiment}: speedup vs threads")
    numeric = [
        k for k, v in rows[0].items() if k != "dataset" and isinstance(v, (int, float))
    ]
    label = "dataset" if "dataset" in rows[0] else next(iter(rows[0]))
    keys = [k for k in numeric if k not in ("threads", "queries", "delta", "landmarks")]
    return bar_chart(rows, label, keys[:3], title=f"{experiment}")


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.verify import audit_canonical, audit_structure, verify_counter

    counter = open_index(args.index, mmap=True)
    try:
        graph = (
            _load_directed_graph(args)
            if isinstance(counter, DirectedSPCIndex)
            else _load_graph(args)
        )
        if counter.n != graph.n:
            raise ReproError(
                f"index covers {counter.n} vertices but the graph has {graph.n}"
            )
        labels = getattr(counter, "labels", None)
        if isinstance(labels, LabelIndex):
            audit_structure(labels)
            print("structure audit: ok")
            if args.deep:
                audit_canonical(labels, graph)
                print("canonical-entry audit: ok")
        elif args.deep:
            raise ReproError(
                "--deep audits label entries and needs a label-backed index "
                "(pspc/hpspc payloads)"
            )
        verify_counter(counter, graph, samples=args.samples)
    finally:
        _close_counter(counter)
    print(f"query audit ({args.samples} random pairs): ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "build": _cmd_build,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
        "bench": _cmd_bench,
        "audit": _cmd_audit,
        "lint": devtools_cli.run_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away: exit quietly, the
        # conventional behaviour for line-oriented CLI tools
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
