"""Process hygiene: peak RSS of a process tree, shm segment counts, and the
lifecycle of a ``repro serve`` process."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time

SHM_DIR = "/dev/shm"
_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments (``repro-*``)."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("repro-")}
    except FileNotFoundError:
        return set()


def _tree(root: int) -> list[int]:
    """``root`` and every live descendant, found through ``/proc/*/stat``."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: the ppid follows the last ')'
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found = [root]
    for pid in found:
        found.extend(child for child, parent in parent_of.items() if parent == pid)
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root: int) -> float:
    """Peak RSS (``VmHWM``) summed over ``root`` and its live descendants,
    in MB.  An upper bound on the tree's joint peak, since shared pages
    count once per process that maps them; read it while the processes
    are still alive."""
    return sum(_hwm_kb(pid) for pid in _tree(root)) / 1024.0


class Server:
    """One server process: started, probed until healthy, stopped by SIGTERM."""

    def __init__(self, argv: list[str], env: dict, cwd: str, stderr_path: str) -> None:
        self._stderr = open(stderr_path, "w")
        self.stderr_path = stderr_path
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self._port = threading.Event()
        self.host, self.port = "127.0.0.1", 0
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            self._wait_healthy(deadline=start + 120.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            match = _SERVING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                self._port.set()

    def _wait_healthy(self, deadline: float) -> None:
        while not self._port.wait(0.001):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: exit {self.proc.poll()}")
        while time.perf_counter() < deadline:
            if self.get("/healthz")[0] == 200:
                return
            time.sleep(0.001)
        raise RuntimeError("server never answered /healthz with 200")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            conn.close()

    def stop(self) -> tuple[int | None, float]:
        """SIGTERM, wait; returns ``(exit status, peak RSS MB)``."""
        descendants = _tree(self.proc.pid)[1:]
        rss_mb = tree_rss_mb(self.proc.pid)
        status = self.proc.poll()
        if status is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                status = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                status = None
        # workers and the resource tracker exit after the parent; wait for them
        deadline = time.perf_counter() + 30.0
        while any(_running(pid) for pid in descendants):
            if time.perf_counter() > deadline:
                status = None
                break
            time.sleep(0.01)
        self._reader.join(timeout=10)
        self._stderr.close()
        return status, rss_mb

    def tracker_lines(self) -> int:
        return count_tracker_lines(self.stderr_path)


def count_tracker_lines(path: str) -> int:
    """Lines of ``multiprocessing.resource_tracker`` noise in a stderr file."""
    with open(path, errors="replace") as fh:
        return sum(1 for line in fh if "resource_tracker" in line)
