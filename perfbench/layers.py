"""Per-layer metrics of a traced run, the layer table and the tracing
overhead.

Spans come from every traced process (``spans-<role>-<pid>.jsonl``).  On
``sweep`` the layers are measured in the benchmark process itself; on
``cluster`` they are measured in the router and its workers, and the
benchmark process's own spans (its kernel probe, the correctness
replay) are left out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import measure
from spans import MODELS, Recorder, wrap

FIXED_PATH_MODELS = MODELS[:4]


def load_spans(directory: Path) -> list[dict[str, Any]]:
    rows = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path) as handle:
            rows.extend(json.loads(line) for line in handle)
    return rows


class SpanIndex:
    """Spans with their children, per process."""

    def __init__(self, rows: list[dict[str, Any]]) -> None:
        self.rows = rows
        self.children: dict[tuple[int, int], list[dict]] = defaultdict(list)
        for row in rows:
            self.children[(row["pid"], row["parent"])].append(row)

    def named(self, name: str, roles: set[str] | None = None) -> list[dict]:
        return [
            r for r in self.rows if r["name"] == name and (roles is None or r["role"] in roles)
        ]

    def kids(self, row: dict) -> list[dict]:
        return self.children.get((row["pid"], row["id"]), [])

    def descendants(self, row: dict, names: set[str]) -> list[dict]:
        out, stack = [], list(self.kids(row))
        while stack:
            kid = stack.pop()
            if kid["name"] in names:
                out.append(kid)
            stack.extend(self.kids(kid))
        return out


def _dur(row: dict) -> float:
    return (row["t1"] - row["t0"]) / 1e9


def _interval(row: dict) -> tuple[float, float]:
    return row["t0"] / 1e9, row["t1"] / 1e9


def _self(row: dict, kids: list[dict]) -> float:
    start, end = _interval(row)
    return measure.self_time(start, end, [_interval(k) for k in kids])


def _p(values: list[float], q: float) -> float:
    return measure.quantile(values, q) if values else 0.0


def per_layer(workload: str, run, rows: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 where the
    workload does not reach the layer."""
    index = SpanIndex(rows)
    roles = {"bench"} if workload == "sweep" else {"server", "router"}
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    # Kernels and the serial T=1 path.
    for m in MODELS:
        spans = index.named(f"kernel.{m}", roles)
        seconds = sum(_dur(s) for s in spans)
        steps = sum(s["attrs"]["steps"] for s in spans)
        put(f"kernel.{m}.calls", len(spans), "count")
        put(f"kernel.{m}.trials", sum(s["attrs"]["trials"] for s in spans), "count")
        put(f"kernel.{m}.s", seconds, "s")
        put(f"kernel.{m}.trial_steps", steps, "count")
        put(f"kernel.{m}.us_per_trial_step", seconds / steps * 1e6 if steps else 0.0, "us")
    for m in FIXED_PATH_MODELS:
        spans = index.named(f"serial.{m}", roles)
        put(f"serial.{m}.calls", len(spans), "count")
        put(f"serial.{m}.ms.p50", _p([_dur(s) * 1e3 for s in spans], 0.5), "ms")

    # repro.sim.sweep
    kernel_names = {f"kernel.{m}" for m in MODELS}
    sweeps = index.named("sweep.run_sweep", roles)
    self_s = 0.0
    widths = [0, 0]
    for s in sweeps:
        kernels = index.descendants(s, kernel_names)
        self_s += _self(s, kernels)
        widths[0] += sum(k["attrs"]["trials"] for k in kernels)
        widths[1] += len(kernels)
    put("sweep.self_s", self_s, "s")
    put("sweep.workload_build_s", sum(_dur(s) for s in index.named("sweep.build", roles)), "s")
    put("sweep.units", sum(s["attrs"]["units"] for s in index.named("exec.map", roles)), "count")
    put("sweep.batch_width.mean", widths[0] / widths[1] if widths[1] else 0.0, "trials")

    # repro.exec
    overheads = [_self(s, index.kids(s)) * 1e3 for s in index.named("exec.run", roles)]
    put("exec.run_overhead_ms.p50", _p(overheads, 0.5), "ms")
    stats = run.raw.get("stats") or {}
    workers = [w for w in stats.get("workers") or [] if w]
    if workload == "sweep":
        exec_stats = [run.raw.get("exec", {})]
    else:
        exec_stats = [w.get("exec", {}) for w in workers]
    for key in ("retried", "failures", "worker_restarts"):
        put(f"exec.{key}", sum(e.get(key, 0) for e in exec_stats), "count")

    # repro.service: the cluster's workers
    ops = run.raw.get("ops", [])
    queue = [
        float(op.response["queue_ms"]) for op in ops
        if op.outcome == "ok" and op.kind != "estimate"
        and op.response.get("provenance") != "cache" and "queue_ms" in op.response
    ]
    put("service.queue_ms.p50", _p(queue, 0.5), "ms")
    put("service.queue_ms.p99", _p(queue, 0.99), "ms")
    batches = stats.get("batches") or {}
    put("service.batch_occupancy.mean", batches.get("mean_occupancy", 0.0), "trials")
    put("service.batches", batches.get("count", 0), "count")
    lat = [w.get("latency_ms") or {} for w in workers if w]
    put("service.server_ms.p50", max((x.get("p50", 0.0) for x in lat), default=0.0), "ms")
    put("service.server_ms.p99", max((x.get("p99", 0.0) for x in lat), default=0.0), "ms")
    front = (stats.get("latency_ms") or {}).get("p50", 0.0)
    client_p50 = run.e2e.get("latency_p50_ms", (0.0,))[0]
    put("service.outside_ms.p50", client_p50 - front if stats else 0.0, "ms")
    counters = [w.get("counters") or {} for w in workers if w]
    put(
        "service.rejected",
        sum(v for c in counters for k, v in c.items() if k.startswith("rejected_")),
        "count",
    )
    put("service.deadline_expired", sum(c.get("deadline_expired", 0) for c in counters), "count")
    put("service.errors", sum(c.get("errors", 0) + c.get("protocol_errors", 0) for c in counters), "count")
    put(
        "service.queue_peak",
        max(((w.get("queue") or {}).get("peak", 0) for w in workers if w), default=0),
        "count",
    )
    for what in ("encode", "decode"):
        durs = [_dur(s) * 1e6 for s in index.named(f"protocol.{what}", roles)]
        put(f"protocol.{what}_us.p50", _p(durs, 0.5), "us")

    # repro.cluster
    rc = stats.get("counters", {})
    for key in ("forwarded", "cache_served", "estimated", "forward_retries", "rejected_unavailable"):
        put(f"router.{key}", rc.get(key, 0), "count")
    rlat = stats.get("latency_ms") or {}
    put("router.server_ms.p50", rlat.get("p50", 0.0), "ms")
    put("router.server_ms.p99", rlat.get("p99", 0.0), "ms")
    forwards = [
        _dur(s) * 1e3 for s in index.named("router.forward", {"router"})
        if s["attrs"].get("op") == "run"
    ]
    put("router.forward_ms.p50", _p(forwards, 0.5), "ms")
    shares = [(w.get("counters") or {}).get("requests_total", 0) for w in workers if w]
    put(
        "router.worker_share.max",
        max(shares) / sum(shares) if sum(shares) else 0.0,
        "ratio",
    )
    spawn = index.named("supervisor.start", {"router"})
    put("supervisor.spawn_s", sum(_dur(s) for s in spawn), "s")
    put(
        "supervisor.worker_restarts",
        (stats.get("tier") or {}).get("worker_restarts", 0),
        "count",
    )

    # repro.cache: the router's cache on cluster, the in-process hit
    # probe on sweep.
    cache_roles = {"router"} if workload == "cluster" else {"bench"}
    loads = index.named("cache.load", cache_roles)
    stores = index.named("cache.store", cache_roles)
    hits = sum(s["attrs"]["hit"] for s in loads)
    put("cache.hits", hits, "count")
    put("cache.misses", len(loads) - hits, "count")
    put("cache.stores", len(stores), "count")
    put("cache.hit_rate", hits / len(loads) if loads else 0.0, "ratio")
    put("cache.load_ms.p50", _p([_dur(s) * 1e3 for s in loads], 0.5), "ms")
    put("cache.store_ms.p50", _p([_dur(s) * 1e3 for s in stores], 0.5), "ms")

    # repro.analysis.estimate
    est_roles = {"bench"} if workload == "sweep" else {"server", "router"}
    est = [_dur(s) * 1e6 for s in index.named("estimate.estimate_spec", est_roles)]
    put("estimate.calls", len(est), "count")
    put("estimate.us.p50", _p(est, 0.5), "us")
    put("estimate.us.p99", _p(est, 0.99), "us")

    # Benchmark validity.
    put("client.sched_lag_ms.p99", _p(run.raw.get("sched_lag_ms", []), 0.99), "ms")
    put("client.attempted", run.attempted, "count")
    put("client.failed", run.failed, "count")
    put("client.mismatched", run.mismatched, "count")
    return out


def table(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per (role, layer): calls, total, self and waiting time.

    Self time is a span minus what its child spans cover.  Waiting is
    the part of that covered time spent in children on *other* threads
    (the caller blocked on a pool thread), and for ``async`` spans the
    whole self time (suspended on I/O while the loop ran other work).
    """
    index = SpanIndex(rows)
    acc: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for row in rows:
        kids = index.kids(row)
        start, end = _interval(row)
        own = measure.self_time(start, end, [_interval(k) for k in kids])
        other = measure.covered(
            start, end, [_interval(k) for k in kids if k["thread"] != row["thread"]]
        )
        is_async = bool((row["attrs"] or {}).get("async"))
        entry = acc[(row["role"], row["name"])]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += 0.0 if is_async else own
        entry[3] += other + (own if is_async else 0.0)
    return [
        {"role": role, "layer": name, "calls": int(c), "total_s": t, "self_s": s, "wait_s": w}
        for (role, name), (c, t, s, w) in sorted(acc.items())
    ]


def span_cost_us(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op, in µs."""
    rec = Recorder("cost")
    noop = wrap(rec, "noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - t0) / calls * 1e6


def overhead(results_dir: Path, workload: str, run) -> dict[str, Any]:
    """Tracing overhead: this traced run's end-to-end metrics against the
    newest untraced run of the same workload, plus the wrapper cost."""
    newest = None
    for path in results_dir.glob(f"{workload}-seed*-trace0/result.json"):
        if newest is None or path.stat().st_mtime > newest.stat().st_mtime:
            newest = path
    out: dict[str, Any] = {"span_cost_us": span_cost_us()}
    if newest is None:
        out["untraced"] = None
        return out
    base = json.loads(newest.read_text())["end_to_end"]
    out["untraced"] = str(newest.parent.name)
    out["change"] = {
        k: (v - base[k]["value"]) / base[k]["value"]
        for k, (v, _, _) in run.e2e.items()
        if k in base and base[k]["value"]
    }
    return out


def render_table(workload: str, rows: list[dict[str, Any]], over: dict[str, Any]) -> str:
    lines = [
        f"per-layer self time, workload {workload}",
        f"  {'role':<7} {'layer':<26} {'calls':>8} {'total_s':>10} {'self_s':>10} {'wait_s':>10}",
    ]
    for r in rows:
        lines.append(
            f"  {r['role']:<7} {r['layer']:<26} {r['calls']:>8} "
            f"{r['total_s']:>10.4f} {r['self_s']:>10.4f} {r['wait_s']:>10.4f}"
        )
    lines.append(f"tracing overhead: {over['span_cost_us']:.2f} us per span")
    if over.get("untraced"):
        lines.append(f"  traced vs untraced run {over['untraced']}:")
        for k, v in sorted(over["change"].items()):
            lines.append(f"    {k:<28} {v * 100:+.1f}%")
    else:
        lines.append("  no untraced run of this workload to compare against")
    return "\n".join(lines)
