"""Outside-in tracing: spans around the program's public entry points.

:func:`install` replaces a fixed list of public functions and methods of
``repro`` with thin wrappers that record one span per call (name, start,
end, parent span, thread, a few attributes) into a :class:`Recorder`.
Nothing under ``src/`` is edited; the wrappers are installed from this
file, in the benchmark process directly and in server and cluster worker
processes through ``hook/sitecustomize.py``.  Spans stay in memory and
are written out as JSON lines when the process ends.

Parents are tracked with a context variable, so nesting is per thread and
per asyncio task.  The one thread hop that matters — an exec backend
handing a unit to a pool thread — carries the parent across explicitly.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

ENV_DIR = "PERFBENCH_TRACE_DIR"

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)

#: The five flit-level models and their serial simulator classes.
SERIAL_CLASSES = {
    "wormhole": ("repro.sim.wormhole", "WormholeSimulator"),
    "cut_through": ("repro.sim.cut_through", "CutThroughSimulator"),
    "store_forward": ("repro.sim.store_forward", "StoreForwardSimulator"),
    "restricted": ("repro.sim.restricted", "RestrictedWormholeSimulator"),
    "adaptive": ("repro.sim.adaptive", "AdaptiveMeshRouter"),
}
MODELS = tuple(SERIAL_CLASSES)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, role: str | None = "bench") -> None:
        self.role = role
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, sid, parent, name, t0, t1, attrs) -> None:
        self.spans.append(
            (sid, parent, name, t0, t1, threading.get_ident(), attrs)
        )

    def _role(self) -> str:
        if self.role is not None:
            return self.role
        # Server processes learn their role from the command they run.
        return "router" if "cluster" in sys.argv[1:] else "server"

    def rows(self) -> list[dict[str, Any]]:
        role = self._role()
        return [
            {
                "pid": self._pid,
                "role": role,
                "id": sid,
                "parent": parent,
                "name": name,
                "t0": t0,
                "t1": t1,
                "thread": thread,
                "attrs": attrs,
            }
            for sid, parent, name, t0, t1, thread, attrs in self.spans
        ]

    def write(self, directory: str | os.PathLike) -> Path:
        path = Path(directory) / f"spans-{self._role()}-{self._pid}.jsonl"
        with open(path, "w") as out:
            for row in self.rows():
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
        return path


def wrap(rec: Recorder, name: str, fn: Callable, attrs=None) -> Callable:
    """A recording wrapper around a plain or ``async`` callable.

    ``attrs(args, kwargs, result)`` may add a small dict to the span.
    """
    clock = time.perf_counter_ns

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            sid = rec.next_id()
            token = _CURRENT.set(sid)
            t0 = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                t1 = clock()
                _CURRENT.reset(token)
            extra = attrs(args, kwargs, result) if attrs else None
            rec.add(sid, parent, name, t0, t1, {"async": 1, **(extra or {})})
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        sid = rec.next_id()
        token = _CURRENT.set(sid)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            _CURRENT.reset(token)
        rec.add(sid, parent, name, t0, t1, attrs(args, kwargs, result) if attrs else None)
        return result

    return wrapper


def _in_parent(parent: int, fn: Callable, arg: Any) -> Any:
    """Run ``fn(arg)`` as a child of span ``parent`` when it runs on a
    thread with no open span (a pool thread).  On the caller's thread a
    nested backend call (``map`` calling ``run``) is already the parent."""
    if _CURRENT.get():
        return fn(arg)
    token = _CURRENT.set(parent)
    try:
        return fn(arg)
    finally:
        _CURRENT.reset(token)


def _wrap_backend_call(rec: Recorder, name: str, method: Callable, many: bool) -> Callable:
    """Wrap ``backend.run``/``backend.map`` so the unit function runs
    with the backend span as its parent, whichever thread executes it."""
    clock = time.perf_counter_ns

    @functools.wraps(method)
    def wrapper(self, fn, arg):
        parent = _CURRENT.get()
        sid = rec.next_id()
        token = _CURRENT.set(sid)
        t0 = clock()
        try:
            result = method(self, functools.partial(_in_parent, sid, fn), arg)
        finally:
            t1 = clock()
            _CURRENT.reset(token)
        rec.add(sid, parent, name, t0, t1, {"units": len(arg)} if many else None)
        return result

    return wrapper


def _steps(result) -> int:
    inner = getattr(result, "result", result)  # adaptive wraps its result
    return int(inner.steps_executed)


def _batch_attrs(args, kwargs, results) -> dict[str, int]:
    return {"trials": len(results), "steps": sum(_steps(r) for r in results)}


def _serial_attrs(args, kwargs, result) -> dict[str, int]:
    return {"steps": _steps(result)}


def _load_attrs(args, kwargs, result) -> dict[str, int]:
    return {"hit": int(result is not None)}


def _request_attrs(args, kwargs, result) -> dict[str, str]:
    msg = args[1] if len(args) > 1 else kwargs.get("msg", {})
    return {"op": str(msg.get("op", "?"))}


def install(rec: Recorder) -> None:
    """Install every wrapper into the already importable ``repro``."""
    import importlib

    from repro import cache as cache_mod
    from repro.analysis import estimate as estimate_mod
    from repro.cluster import router as router_mod
    from repro.cluster import worker as worker_mod
    from repro.exec import inline, process, thread
    from repro.service import batcher, client, protocol, server
    from repro.sim import batch, sweep

    sweep.run_sweep = wrap(rec, "sweep.run_sweep", sweep.run_sweep)
    for wl_name, build in list(sweep.WORKLOADS.items()):
        sweep.WORKLOADS[wl_name] = wrap(rec, "sweep.build", build)
    for model in MODELS:
        fn_name = f"run_{model}_batch"
        setattr(batch, fn_name, wrap(rec, f"kernel.{model}", getattr(batch, fn_name), _batch_attrs))
    for model, (mod_name, cls_name) in SERIAL_CLASSES.items():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        cls.run = wrap(rec, f"serial.{model}", cls.run, _serial_attrs)
    batcher.execute_compatible = wrap(
        rec, "exec.execute_compatible", batcher.execute_compatible
    )
    for cls in (inline.InlineBackend, thread.ThreadBackend, process.ProcessPoolBackend):
        cls.run = _wrap_backend_call(rec, "exec.run", cls.run, many=False)
        cls.map = _wrap_backend_call(rec, "exec.map", cls.map, many=True)
    cache_mod.ResultCache.load = wrap(
        rec, "cache.load", cache_mod.ResultCache.load, _load_attrs
    )
    cache_mod.ResultCache.store = wrap(rec, "cache.store", cache_mod.ResultCache.store)
    estimate_mod.estimate_spec = wrap(rec, "estimate.estimate_spec", estimate_mod.estimate_spec)
    encode = wrap(rec, "protocol.encode", protocol.encode_message)
    decode = wrap(rec, "protocol.decode", protocol.decode_message)
    for mod in (protocol, server, client, router_mod):
        if hasattr(mod, "encode_message"):
            mod.encode_message = encode
        if hasattr(mod, "decode_message"):
            mod.decode_message = decode
    client.ServiceClient.request = wrap(
        rec, "router.forward", client.ServiceClient.request, _request_attrs
    )
    worker_mod.WorkerSupervisor.start = wrap(
        rec, "supervisor.start", worker_mod.WorkerSupervisor.start
    )


def install_from_env() -> Recorder | None:
    """Hook entry point: trace this process when the env asks for it."""
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return None
    rec = Recorder(role=None)
    install(rec)
    atexit.register(rec.write, directory)
    return rec
