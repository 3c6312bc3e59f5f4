"""Start, probe and stop ``repro cluster serve`` and its workers.

Servers run as subprocesses of the benchmark, from the checkout's own
``src`` tree, with their runtime files inside the checkout.  Every
process started here is stopped and waited for, on success and on error.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from traffic import Mux

_LISTENING = re.compile(rb"listening on [^:\s]+:(\d+)")


def child_env(src: Path, hook: Path | None, trace_dir: Path | None) -> dict[str, str]:
    """The server's environment: the checkout's ``src`` first on the
    path, plus the tracing hook for traced runs."""
    env = dict(os.environ)
    parts = [str(src)]
    if trace_dir is not None:
        parts.append(str(hook))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _descendants(pid: int) -> list[int]:
    """Child pids of ``pid`` (one level), from ``/proc``."""
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows the ")".
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One running cluster router (the workers are its children)."""

    def __init__(self, argv: list[str], env: dict[str, str], workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(workdir),
        )
        self.port: int | None = None
        self.children: list[int] = []

    async def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Block until the server answers ``health``; returns set-up time
        (process start to first ``health`` answer)."""
        deadline = self.started + timeout_s
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited rc={self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start listening in time")
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            await asyncio.sleep(0.01)
        mux = await Mux.open("127.0.0.1", self.port, 1)
        try:
            health = await mux.call({"op": "health", "id": "perfbench-health"})
        finally:
            await mux.close()
        if health.get("status") != "ok":
            raise RuntimeError(f"server unhealthy: {health}")
        setup_s = time.perf_counter() - self.started
        self.children = _descendants(self.proc.pid)
        return setup_s

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and its worker processes, summed."""
        return sum(peak_rss_mb(pid) for pid in [self.proc.pid, *self.children])

    async def stop(self, timeout_s: float = 60.0) -> None:
        """Graceful ``shutdown`` op, then terminate/kill; waits for every
        process of the tier, workers included."""
        try:
            if self.port is not None and self.proc.poll() is None:
                mux = await Mux.open("127.0.0.1", self.port, 1)
                try:
                    await mux.call({"op": "shutdown", "id": "perfbench-stop"}, timeout_s)
                finally:
                    await mux.close()
            await asyncio.to_thread(self.proc.wait, timeout_s)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        """Hard stop of anything of this tier still running (idempotent)."""
        for pid in self.children:
            if _is_worker(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass  # exited meanwhile
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pid in self.children:
            _wait_gone(pid)
        self._log.close()


def _is_worker(pid: int) -> bool:
    """Whether ``pid`` is still a live ``repro`` process (not a reused pid)."""
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"repro" in cmdline


def _wait_gone(pid: int, timeout_s: float = 10.0) -> None:
    """Wait until a non-child process has exited."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return  # exited; its parent reaps it
        time.sleep(0.01)
