"""Start, observe and stop the shipped deployment: ``repro fleet``.

The fleet runs as a child process (``python -m repro.cli fleet --replicas 2
--store <fresh dir> --port 0``) in its own session, so that whatever goes
wrong, the whole process group (front and replicas) can be stopped.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.service import ServiceClient, ServiceClientError

REPLICAS = 2
_BANNER = re.compile(r"listening on (http://\S+)")
#: Seconds a fleet may take to come up before the run is abandoned.
SPAWN_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


def boot_clock() -> float:
    """Seconds on the clock replicas' uptimes are measured against."""
    return time.clock_gettime(time.CLOCK_BOOTTIME)


class Fleet:
    """One ``repro fleet`` process and what the benchmark learns about it."""

    def __init__(self, src_root: Path, store: Path, log: Path) -> None:
        self.src_root = src_root
        self.store = store
        self.log = log
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.setup_s: float | None = None
        self.replica_ready_s: list[float] = []
        self.replicas: list[dict[str, Any]] = []
        self._banner = threading.Event()
        self._reader: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "Fleet":
        """Spawn and wait until the front answers healthz 200, both replicas in."""
        self.store.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src_root)
        command = [
            sys.executable, "-m", "repro.cli", "fleet",
            "--replicas", str(REPLICAS), "--store", str(self.store),
            "--port", "0",
        ]
        spawned_boot = boot_clock()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        if not self._banner.wait(SPAWN_TIMEOUT) or self.url is None:
            self.kill()
            raise RuntimeError(f"fleet did not announce its address; see {self.log}")
        client = ServiceClient(self.url, timeout=30.0)
        try:
            while True:
                try:
                    health = client.request("GET", "/healthz")
                except ServiceClientError:  # 503 while replicas come up
                    health = {}
                if health.get("in_rotation") == REPLICAS:
                    break
                if time.perf_counter() - started > SPAWN_TIMEOUT:
                    raise RuntimeError("fleet never had both replicas in rotation")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - started
            status = client.request("GET", "/fleet")
            self.replicas = status["replicas"]
            # A replica's own uptime, read on the boot clock, dates the
            # moment its service came up; relative to the fleet's spawn.
            for replica in self.replicas:
                answer = ServiceClient(replica["url"], timeout=30.0)
                health = answer.request("GET", "/healthz")
                now = boot_clock()
                answer.close()
                self.replica_ready_s.append(
                    now - health["uptime_seconds"] - spawned_boot
                )
        except BaseException:
            self.kill()
            raise
        finally:
            client.close()
        return self

    def _pump(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        with open(self.log, "w", encoding="utf-8") as sink:
            for line in self.process.stdout:
                sink.write(line)
                if self.url is None:
                    match = _BANNER.search(line)
                    if match is not None:
                        self.url = match.group(1)
                        self._banner.set()
        self._banner.set()

    def stop(self) -> None:
        """SIGTERM: the fleet drains every replica, then exits."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reap()

    def kill(self) -> None:
        """SIGKILL the whole session (front and replicas) and wait."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._reap()

    def _reap(self) -> None:
        # Replicas are the front's children; once the front is gone, make
        # sure none of them outlives it.
        for replica in self.replicas:
            pid = replica.get("pid")
            if pid is None:
                continue
            deadline = time.monotonic() + STOP_TIMEOUT
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self._reader is not None:
            self._reader.join(10.0)

    # -- observation ------------------------------------------------------------
    def pids(self) -> list[int]:
        assert self.process is not None
        return [self.process.pid] + [
            replica["pid"] for replica in self.replicas if replica.get("pid")
        ]

    def metrics(self) -> dict[str, Any]:
        client = ServiceClient(self.url, timeout=60.0)
        try:
            return client.request("GET", "/metrics")
        finally:
            client.close()

    def uss_mib(self) -> float:
        """Summed unique set size (private pages) of front and replicas."""
        total_kib = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(("Private_Clean:", "Private_Dirty:")):
                        total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def replica_urls(self) -> list[str]:
        return [replica["url"] for replica in self.replicas]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def counter_delta(after: dict[str, Any], before: dict[str, Any],
                  path: str) -> float:
    """``after - before`` for one dotted path into two metrics payloads."""
    def dig(payload: dict[str, Any]) -> float:
        value: Any = payload
        for part in path.split("."):
            value = value.get(part, 0) if isinstance(value, dict) else 0
        return float(value or 0)

    return dig(after) - dig(before)
