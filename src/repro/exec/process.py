"""Fault-tolerant process-pool execution.

The only backend with real CPU parallelism: units run in pre-warmed
worker processes, so a grid of wormhole batches scales past one core
instead of time-slicing the GIL.  Processes also *die* — OOM kills,
segfaults in native code, operators poking at the wrong PID — and a
``concurrent.futures`` pool answers every subsequent submission with
``BrokenProcessPool`` forever once that happens.  This backend treats
worker death as weather, not as an error:

* **crash detection** — ``BrokenProcessPool`` (and a worker vanishing
  mid-result) is caught, never propagated to callers;
* **automatic restart** — the broken pool is torn down and a fresh
  pre-warmed pool built in its place;
* **per-unit timeout** — an optional wall-clock budget per unit; a
  stalled worker is terminated with its pool and the unit retried;
* **bounded retry with exponential backoff** — each failed unit is
  re-submitted up to ``max_retries`` times, sleeping
  ``backoff_base_s * 2**attempt`` between attempts;
* **graceful degradation** — after ``degrade_after`` consecutive
  infrastructure failures the backend stops fighting and permanently
  falls back to an :class:`~repro.exec.inline.InlineBackend`, trading
  parallelism for availability (slow answers beat no answers).

Exceptions raised *by the unit function itself* propagate unchanged on
first occurrence: a deterministic failure would fail identically on
every retry, and hiding it behind recovery machinery would only delay
the report.

Because units are pure functions of picklable payloads (trial seeds
derive from specs, never from worker state), a retried unit returns a
bit-identical result — recovery is invisible in the response stream,
which is what lets the service promise "zero admitted requests
dropped" across a worker kill.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from .base import ExecutionError, _StatsMixin
from .inline import InlineBackend

__all__ = ["ProcessPoolBackend"]


def _warm(_: int) -> int:
    """No-op unit used to force worker startup ahead of real work."""
    return _


class ProcessPoolBackend(_StatsMixin):
    """Pre-warmed worker processes with crash recovery and degradation.

    Parameters
    ----------
    workers:
        Worker processes in the pool.
    timeout_s:
        Optional wall-clock budget per unit; on overrun the pool is
        terminated (the stalled worker with it) and the unit retried.
        ``None`` disables the timeout.
    max_retries:
        Re-submissions per unit after infrastructure failures before
        :class:`~repro.exec.base.ExecutionError` is raised (degradation,
        when armed, usually intervenes first).
    backoff_base_s:
        First retry sleeps this long; each further retry doubles it.
    degrade_after:
        Consecutive infrastructure failures (across units) after which
        the backend permanently degrades to inline execution.  ``0``
        disables degradation.
    prewarm:
        Start (and wait for) all workers at construction time so the
        first real unit never pays fork latency and ``worker_pids`` is
        immediately meaningful.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout_s: float | None = None,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        degrade_after: int = 5,
        prewarm: bool = True,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.workers = int(workers)
        self.timeout_s = timeout_s
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.degrade_after = int(degrade_after)
        self.prewarm = bool(prewarm)
        self._pool: ProcessPoolExecutor | None = None
        self._inline = InlineBackend()
        self._strikes = 0  # consecutive infrastructure failures
        self._degraded = False
        if self.prewarm:
            self._ensure_pool()

    # -- pool lifecycle ------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the backend has fallen back to inline execution."""
        return self._degraded

    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes (empty if no pool)."""
        with self._lock:
            pool = self._pool
            if pool is None or pool._processes is None:
                return []
            return [p.pid for p in pool._processes.values()]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            pool = self._pool
        if pool is not None and self._lost_worker(pool):
            # A worker died between units (an external kill, the OOM
            # killer): restart now instead of running at reduced width
            # until the executor happens to notice.
            self._restart_pool()
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                if self.prewarm:
                    for f in [
                        self._pool.submit(_warm, i) for i in range(self.workers)
                    ]:
                        f.result()
            return self._pool

    @staticmethod
    def _lost_worker(pool: ProcessPoolExecutor) -> bool:
        processes = pool._processes
        return bool(processes) and not all(
            p.is_alive() for p in list(processes.values())
        )

    def _teardown_pool(self) -> None:
        """Kill the current pool outright (broken or stalled workers)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = pool._processes
        if processes:
            for p in list(processes.values()):
                p.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _restart_pool(self) -> None:
        self._teardown_pool()
        self.stats.counters.bump("worker_restarts")
        if not self._degraded:
            self._ensure_pool()

    def _note_failure(self) -> None:
        """One infrastructure failure; degrade after ``degrade_after``."""
        self._strikes += 1
        if (
            self.degrade_after > 0
            and self._strikes >= self.degrade_after
            and not self._degraded
        ):
            self._degraded = True
            self.stats.counters.bump("degradations")
            self.stats.mode.set("inline")
            self._teardown_pool()

    # -- execution -----------------------------------------------------
    def run(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        if self._degraded:
            return self._inline.run(fn, arg)
        attempt = 0
        while True:
            ok, outcome = self._attempt(fn, arg)
            if ok:
                return outcome
            self._note_failure()
            if self._degraded:
                return self._inline.run(fn, arg)
            self._restart_pool()
            attempt += 1
            if attempt > self.max_retries:
                self.stats.counters.bump("failures")
                raise ExecutionError(
                    f"unit failed {attempt} times ({outcome}); retries exhausted"
                )
            self.stats.counters.bump("retried")
            time.sleep(self.backoff_base_s * 2 ** (attempt - 1))

    def _attempt(self, fn: Callable[[Any], Any], arg: Any) -> tuple[bool, Any]:
        """One submission; ``(True, result)`` or ``(False, failure label)``.

        Success resets the strike counter — recovery only degrades on
        *consecutive* failures.
        """
        pool = self._ensure_pool()
        self.stats.counters.bump("submitted")
        try:
            future = pool.submit(fn, arg)
        except BrokenProcessPool:
            return False, "worker pool broken at submit"
        try:
            result = future.result(self.timeout_s)
        except BrokenProcessPool:
            return False, "worker died mid-unit"
        except FuturesTimeoutError:
            self.stats.counters.bump("timeouts")
            return False, f"unit exceeded timeout_s={self.timeout_s}"
        self._strikes = 0
        self.stats.counters.bump("completed")
        return True, result

    def map(self, fn: Callable[[Any], Any], args: Sequence[Any]) -> list[Any]:
        """Fan units across the pool; recover stragglers via :meth:`run`.

        The happy path is one parallel pass.  Units touched by a crash
        or timeout are re-run individually through :meth:`run`, which
        owns backoff, bounded retries, and degradation; units that
        already completed keep their results (re-execution would return
        identical bits anyway — trials are pure — but why pay twice).
        """
        if self._degraded:
            return self._inline.map(fn, args)
        args = list(args)
        sentinel = object()
        results: list[Any] = [sentinel] * len(args)
        pool = self._ensure_pool()
        futures: dict[int, Any] = {}
        casualties: list[int] = []
        broke = False
        for i, arg in enumerate(args):
            self.stats.counters.bump("submitted")
            try:
                futures[i] = pool.submit(fn, arg)
            except BrokenProcessPool:
                casualties.append(i)
                broke = True
        deadline = (
            None if self.timeout_s is None else time.monotonic() + self.timeout_s
        )
        for i, future in futures.items():
            remaining: float | None = None
            if deadline is not None:
                remaining = max(1e-3, deadline - time.monotonic())
            try:
                results[i] = future.result(remaining)
                self.stats.counters.bump("completed")
            except BrokenProcessPool:
                casualties.append(i)
                broke = True
            except FuturesTimeoutError:
                self.stats.counters.bump("timeouts")
                casualties.append(i)
                broke = True
        if broke:
            self._note_failure()
            if not self._degraded:
                self._restart_pool()
        else:
            self._ensure_pool()  # restarts a worker lost during the pass
        for i in sorted(casualties):
            self.stats.counters.bump("retried")
            results[i] = self.run(fn, args[i])
        assert all(r is not sentinel for r in results)
        return results

    def close(self) -> None:
        if not self._closed:
            with self._lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        super().close()
