"""HTTP serving smoke: build, serve, check against BFS, shut down clean.

Builds a small uncompressed FB index, starts ``python -m repro serve`` on
it with the given worker and shard layout, and checks over loopback:

* ``/healthz`` reports ``ok``, the worker count, the shard count, which
  shards are cold and how many live owners each shard has;
* point (``GET /query``) and batch (``POST /query_batch``) answers equal
  the BFS oracle's, bit for bit;
* ``/stats`` reports the pool and its fleet: the shard count, a query
  count per shard and, with more than one shard, total label bytes
  larger than any one shard's hot bytes (the index exceeds what a worker
  maps);
* ``/metrics`` carries the per-shard series for every shard;
* 50 point queries over one ``http.client`` connection open exactly one
  TCP connection (HTTP/1.1 keep-alive);
* SIGTERM, with an idle kept-alive client still connected, exits 0 and
  leaves no ``repro-seg-*`` block in ``/dev/shm``.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/serve_http_smoke.py --workers 2
    PYTHONPATH=src python benchmarks/serve_http_smoke.py --workers 3 --shards 3 --cold-shards 2
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.baselines.bfs_spc import OnlineBFSCounter
from repro.experiments.datasets import load_dataset, random_query_pairs
from repro.serve.shm import SEGMENT_PREFIX


def shm_segments() -> set[str]:
    root = "/dev/shm"
    if not os.path.isdir(root):
        return set()
    return {f for f in os.listdir(root) if f.startswith(SEGMENT_PREFIX)}


def expected_owners(workers: int, shards: int, shard: int) -> int:
    """Live owners of ``shard``: workers wrap round-robin over shards."""
    if workers < shards:
        return 1
    return sum(1 for w in range(workers) if w % shards == shard)


class CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts its TCP connects."""

    connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


def keep_alive_client(port: int, pairs: "list[tuple[int, int]]") -> CountingConnection:
    """Answer ``pairs`` over one connection; return it, still open."""
    conn = CountingConnection("127.0.0.1", port, timeout=30)
    for s, t in pairs:
        conn.request("GET", f"/query?s={s}&t={t}")
        response = conn.getresponse()
        answer = json.loads(response.read())
        assert response.status == 200 and (answer["s"], answer["t"]) == (s, t), answer
    return conn


def start_server(index: Path, args: argparse.Namespace) -> "tuple[subprocess.Popen, int]":
    command = [
        sys.executable, "-m", "repro", "serve", str(index),
        "--workers", str(args.workers), "--shards", str(args.shards),
        "--port", "0",
    ]
    if args.cold_shards:
        command += ["--cold-shards", args.cold_shards]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = proc.stdout.readline()  # type: ignore[union-attr]
        if not line:  # EOF: the server died before reporting a port
            break
        print("server:", line.strip())
        if "serving on" in line:
            return proc, int(line.rsplit(":", 1)[1].split()[0])
    proc.kill()
    raise AssertionError("server never reported its port")


def check(port: int, args: argparse.Namespace, cold: "set[int]") -> None:
    def get(path: str) -> dict:
        url = f"http://127.0.0.1:{port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    oracle = OnlineBFSCounter(load_dataset("FB"))
    pairs = random_query_pairs(load_dataset("FB"), 60, seed=9)

    health = get("/healthz")
    assert health["status"] == "ok" and health["workers"] == args.workers, health
    assert health["shards"] == args.shards, health
    owners = {row["shard"]: row for row in health["shard_owners"]}
    assert sorted(owners) == list(range(args.shards)), health
    for shard, row in owners.items():
        assert row["hot"] is (shard not in cold), health
        assert row["live_owners"] == expected_owners(args.workers, args.shards, shard), health

    for s, t in pairs[:10]:
        answer = get(f"/query?s={s}&t={t}")
        expected = oracle.query(s, t)
        assert (answer["dist"], answer["count"]) == (expected.dist, expected.count), answer

    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query_batch",
        data=json.dumps({"pairs": [list(p) for p in pairs]}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        results = json.loads(response.read())["results"]
    for row, (s, t) in zip(results, pairs):
        expected = oracle.query(s, t)
        assert (row["dist"], row["count"]) == (expected.dist, expected.count), row

    conn = keep_alive_client(port, pairs[:50])
    conn.close()
    assert conn.connects == 1, f"50 point queries opened {conn.connects} connections"

    stats = get("/stats")
    assert stats["pool"]["workers"] == args.workers, stats
    fleet = stats["pool"]["fleet"]
    assert fleet["shards"] == args.shards, stats
    per_shard = {row["shard"]: row for row in fleet["per_shard"]}
    for shard in cold:
        assert per_shard[shard]["hot"] is False, fleet
    if args.shards > 1:
        # the RAM-per-worker contract: each worker attaches only its own
        # shards, so the fleet's label bytes exceed any one hot shard's
        hot_bytes = [row["nbytes"] for row in per_shard.values() if row["hot"]]
        assert fleet["total_label_bytes"] > max(hot_bytes), fleet
    assert sum(row["queries"] for row in per_shard.values()) > 0, fleet

    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as response:
        metrics = response.read().decode()
    for shard in range(args.shards):
        for series in ("repro_shard_queries_total", "repro_shard_live_owners",
                       "repro_shard_label_bytes"):
            assert f'{series}{{shard="{shard}"}}' in metrics, (series, shard)
    print(f"served answers match BFSCounter on {len(pairs)} pairs "
          f"({args.workers} workers, {args.shards} shards)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--cold-shards", default="", help="comma-separated shard indexes")
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be >= 1: the smoke checks the worker pool")
    cold = {int(tok) for tok in args.cold_shards.split(",") if tok.strip()}

    before = shm_segments()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        index = Path(tmp) / "fb_serve.npz"
        subprocess.run(
            [sys.executable, "-m", "repro", "build", "--dataset", "FB",
             "--method", "pspc", "--landmarks", "20", "--no-compress",
             "--out", str(index)],
            check=True,
        )
        proc, port = start_server(index, args)
        idle = None
        try:
            check(port, args, cold)
            # a kept-alive client that stays connected must not hold up
            # the shutdown (Server.wait_closed() waits for every open
            # connection on Python >= 3.12)
            idle = keep_alive_client(port, [(0, 1)])
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            if idle is not None:
                idle.close()
        assert code == 0, f"server exited with {code}"
    leftovers = shm_segments() - before
    assert not leftovers, f"leaked shm segments: {leftovers}"
    print("clean shutdown, no shm segments left behind")


if __name__ == "__main__":
    main()
