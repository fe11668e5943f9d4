"""Build leg of a workload, run as its own process so that its peak RSS is
the build's alone.

Hands the edge list to ``repro.graph`` as a ``Graph`` (the set-up step),
then alternates ``build_index(..., engine="vectorized")`` and
``engine="parallel"`` builds until the time budget is spent, checks that
every parallel build's labels are bit-identical to the vectorized ones,
and saves the vectorized index.  With ``--trace`` it also wraps the
build layers' public functions and asks the builds for their phase
profile, which the program reports through ``BuildStats``.

Usage::

    python3 perfbench/build_child.py --edges E.npy --n N --landmarks L \
        --workers W --seconds S --out index.npz --result result.json [--trace]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import time

import numpy as np

from spans import SpanLog

_LABEL_ARRAYS = ("indptr", "hubs", "dists", "counts")
#: builds per engine even when one build outlasts the time budget
_MIN_BUILDS = 2


def _install_wrappers(log: SpanLog) -> None:
    import repro.core.fastbuild as fastbuild
    import repro.core.index as index
    import repro.core.procbuild as procbuild

    index.build_pspc_vectorized = log.timed("fastbuild", index.build_pspc_vectorized)
    procbuild.build_pspc_parallel = log.timed("procbuild", procbuild.build_pspc_parallel)
    fastbuild.build_landmark_index = log.timed("landmarks", fastbuild.build_landmark_index)
    procbuild.build_landmark_index = log.timed("landmarks", procbuild.build_landmark_index)
    get_ordering = index.get_ordering
    index.get_ordering = lambda name: log.timed("ordering", get_ordering(name))


def _program_reported(stats, engine: str, layers: dict[str, list[float]]) -> None:
    """Copy the phase times the build reports about itself."""
    phases = stats.profile.get("engine_phases", {})
    if engine == "vectorized":
        for phase in ("pull_merge", "query_rule", "commit"):
            layers.setdefault(f"fastbuild.{phase}_s", []).append(phases.get(phase, 0.0))
        layers.setdefault("fastbuild.iterations", []).append(stats.n_iterations)
        layers.setdefault("fastbuild.entries", []).append(stats.total_entries)
    else:
        layers.setdefault("procbuild.spawn_s", []).append(stats.phase("spawn"))
        for phase in ("iter", "republish", "commit"):
            layers.setdefault(f"procbuild.{phase}_s", []).append(phases.get(phase, 0.0))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--edges", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--landmarks", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--graph-repeats", type=int, default=5)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro import build_index
    from repro.graph import Graph

    edges = np.load(args.edges)
    graph_s = []
    for _ in range(args.graph_repeats):
        start = time.perf_counter()
        graph = Graph(args.n, edges)
        graph_s.append(time.perf_counter() - start)

    log = SpanLog()
    if args.trace:
        _install_wrappers(log)
    times: dict[str, list[float]] = {"vectorized": [], "parallel": []}
    layers: dict[str, list[float]] = {}
    failures: list[str] = []
    reference = None
    began = time.perf_counter()
    while True:
        for engine in ("vectorized", "parallel"):
            extra = {"workers": args.workers} if engine == "parallel" else {}
            start = time.perf_counter()
            built = build_index(
                graph,
                method="pspc",
                engine=engine,
                num_landmarks=args.landmarks,
                profile=args.trace,
                **extra,
            )
            times[engine].append(time.perf_counter() - start)
            if built.stats.engine != engine:
                failures.append(f"{engine} build ran on engine {built.stats.engine!r}")
            if args.trace:
                _program_reported(built.stats, engine, layers)
            if reference is None:
                reference = built
                continue
            if engine == "parallel" and not all(
                np.array_equal(getattr(built.store, name), getattr(reference.store, name))
                for name in _LABEL_ARRAYS
            ):
                failures.append("parallel labels differ from vectorized labels")
            # free this build before the next one, so that the peak RSS is
            # the kept reference plus one build, whatever the build count
            built.close()
            del built
            gc.collect()
        done = len(times["parallel"])
        if done >= _MIN_BUILDS and time.perf_counter() - began >= args.seconds:
            break

    start = time.perf_counter()
    reference.save(args.out)
    save_s = time.perf_counter() - start
    reference.close()
    layers["graph.csr_s"] = graph_s
    layers["store.save_s"] = [save_s]
    layers["store.bytes"] = [os.path.getsize(args.out)]
    for name in ("ordering", "landmarks", "fastbuild", "procbuild"):
        if name in log.spans:
            layers[f"{name}.s"] = log.durations(name)
    result = {
        "setup_s": graph_s,
        "build_s": times["vectorized"],
        "build_par_s": times["parallel"],
        "attempted": len(times["vectorized"]) + 2 * len(times["parallel"]),
        "failures": failures,
        "layers": layers,
        # kilobytes on Linux: the build process itself, not its workers
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
