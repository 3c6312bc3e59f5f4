"""The two workloads: ``sweep`` (in-process grids) and ``cluster``
(``repro cluster serve --workers 2``).

Each returns a :class:`Run`: the end-to-end metrics with their sample
counts, the raw material the per-layer metrics are computed from, and
every correctness, reconciliation and validity problem found.  The
program is treated as a black box: only public functions, the wire
protocol and the ``stats`` op are used.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import measure
from procs import Server, child_env
from traffic import Mux, Op, closed_loop, open_loop

MODELS = ("wormhole", "cut_through", "store_forward", "restricted", "adaptive")

#: How an invalid-run reason starts when the load generator fell behind.
LATE = "generator ran late"

#: Fresh interpreters (sweep) or tier starts (cluster) behind ``setup_s``.
SETUP_REPEATS = 3
#: A request with no answer after this long counts as timed out.
REQUEST_TIMEOUT_S = 60
#: A generator whose lag p99 exceeds this was starved of CPU.
SCHED_LAG_P99_BOUND_MS = 25

# sweep: in-process samples, each kind spread evenly over the run.
#: One-trial ``run_sweep`` calls behind ``latency_p50/p99_ms`` (p99 needs 1000).
LATENCY_CALLS = 1000
#: Stored trials served back through ``run_sweep(cache_dir=)``.
HIT_CALLS = 400
#: In-process ``estimate_spec`` calls.
ESTIMATE_CALLS = 400
#: Trials per model stored for the hit probe (and estimated).
HIT_ITEMS_PER_MODEL = 40

# cluster
#: The open loop runs in this many segments; the kernel probe runs
#: before each one and after the closed loop, while the tier idles.
OPEN_SEGMENTS = 12
#: Rounds of the kernel probe grids in each gap.
PROBE_ROUNDS_PER_GAP = 3
#: Exact answers per model replayed through the serial path as well.
SERIAL_REPLAY_PER_MODEL = 2


@dataclass
class Context:
    root: Path
    cfg: dict[str, Any]
    seed: int
    seconds: float
    trace: bool
    outdir: Path

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def hook(self) -> Path:
        return self.root / "perfbench" / "hook"

    def sub_seed(self, tag: int) -> int:
        """A 32-bit seed for one purpose, derived from the workload seed."""
        return int(np.random.SeedSequence([self.seed, tag]).generate_state(1)[0])


@dataclass
class Run:
    """Everything one workload run measured."""

    #: name -> (value, unit, samples)
    e2e: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Raw inputs of the per-layer metrics (see ``layers.py``).
    raw: dict[str, Any] = field(default_factory=dict)
    #: Small JSON-ready facts about the run, written to ``result.json``.
    notes: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs / counters
    invalid: list[str] = field(default_factory=list)  # run not usable

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.e2e[name] = (float(value), unit, int(samples))

    def percentile(self, name: str, values: list[float], q: float) -> None:
        """Report quantile ``q`` of ``values`` in ms, if the sample allows."""
        if not measure.percentile_ok(len(values), q):
            self.invalid.append(
                f"{name}: {len(values)} samples, {measure.samples_needed(q)} "
                f"needed for at least {measure.SAMPLES_BEYOND} beyond p{q * 100:g}"
            )
            return
        value = measure.quantile(values, q)
        if math.isinf(value):
            self.invalid.append(f"{name}: failed requests reach the p{q * 100:g}")
            return
        self.metric(name, value, "ms", len(values))


def _normal(metrics: dict[str, Any]) -> dict[str, Any]:
    """Metrics as they look after a trip over the JSON wire."""
    return json.loads(json.dumps(metrics))


# ----------------------------------------------------------------------
# In-process pieces shared by the workloads
# ----------------------------------------------------------------------


def run_grid(specs: list, root_seed: int, run: Run) -> tuple[Any, float]:
    """One ``run_sweep`` call, inline backend, default batch size, no
    cache; checks every trial delivered all its messages."""
    from repro.exec import InlineBackend
    from repro.sim import sweep

    backend = InlineBackend()
    t0 = time.perf_counter()
    result = sweep.run_sweep(specs, root_seed=root_seed, backend=backend)
    elapsed = time.perf_counter() - t0
    exec_stats = run.raw.setdefault("exec", {})
    for key, value in backend.stats_snapshot().items():
        if isinstance(value, int):
            exec_stats[key] = exec_stats.get(key, 0) + value
    run.attempted += len(result)
    for trial in result:
        m = trial.metrics
        if m["delivered"] != m["messages"] or m["deadlocked"] or m["hit_step_cap"]:
            run.failed += 1
            run.problems.append(f"{trial.spec.label()}: not all messages delivered: {m}")
    return result, elapsed


class Grids:
    """One ``run_sweep`` grid per model over B, run round after round.

    Rounds are spread over a run, so that no model's throughput hangs on
    one moment of a machine whose speed drifts.
    """

    def __init__(self, ctx: Context, run: Run, grids: dict[str, dict[str, Any]]) -> None:
        from repro.exec import InlineBackend
        from repro.sim import sweep

        self.run = run
        self.specs = {
            m: sweep.sweep_grid(
                g["workload"], m, ctx.cfg["Bs"], workload_params=g["params"],
                message_length=g["L"], repeats=g["repeats"],
            )
            for m, g in grids.items()
        }
        #: model -> [(trials, seconds)], one per grid
        self.samples: dict[str, list[tuple[int, float]]] = {m: [] for m in MODELS}
        #: model -> (first grid's result, its root seed)
        self.first: dict[str, tuple[Any, int]] = {}
        # Finish lazy set-up before timing: import every model's code and
        # build every workload, through one untimed single-flit batch each.
        for m, g in grids.items():
            warm = sweep.sweep_grid(
                g["workload"], m, [1, 2], workload_params=g["params"], message_length=1
            )
            sweep.run_sweep(warm, backend=InlineBackend())

    def round(self, root_seed: int, between=None) -> None:
        """One grid per model; ``between()`` runs after each grid."""
        for m in MODELS:
            result, elapsed = run_grid(self.specs[m], root_seed, self.run)
            self.samples[m].append((len(result), elapsed))
            self.first.setdefault(m, (result, root_seed))
            if between is not None:
                between()

    def report(self) -> None:
        """``trials_per_s.<model>``: its trials over its ``run_sweep`` wall
        time, summed over all its grids of the run."""
        for m, samples in self.samples.items():
            rate = sum(n for n, _ in samples) / sum(s for _, s in samples)
            self.run.metric(f"trials_per_s.{m}", rate, "trials/s", len(samples))
        self.run.notes["grids"] = self.samples


def measure_setup(code: str, ctx: Context) -> list[float]:
    """Import + workload builds in fresh interpreters, timed from outside."""
    env = child_env(ctx.src, None, None)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=str(ctx.root))
        times.append(time.perf_counter() - t0)
    return times


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


class Sampler:
    """A fixed number of timed in-process calls, spread over a run:
    ``catch_up(share)`` brings the count to ``share`` of the target."""

    def __init__(self, target: int, call) -> None:
        self.target = target
        self.call = call  # call(i) -> ms
        self.ms: list[float] = []

    def catch_up(self, share: float) -> None:
        while len(self.ms) < math.ceil(self.target * min(1.0, share)):
            self.ms.append(self.call(len(self.ms)))


def sweep_workload(ctx: Context) -> Run:
    from repro.analysis.estimate import estimate_spec
    from repro.cache import ResultCache
    from repro.sim import sweep

    run = Run()
    grids_cfg = ctx.cfg["sweep"]["grids"]
    builds = sorted({(g["workload"], json.dumps(g["params"], sort_keys=True)) for g in grids_cfg.values()})
    code = "import json\nimport repro.sim.sweep as s\n" + "".join(
        f"s.WORKLOADS[{w!r}](**json.loads({p!r}))\n" for w, p in builds
    )
    setups = measure_setup(code, ctx)
    run.metric("setup_s", measure.median(setups), "s", len(setups))

    grids = Grids(ctx, run, grids_cfg)

    # latency: one trial per run_sweep call, drawn like the cluster's
    # fresh trials but of the fast models only, so that 1000 calls stay
    # a small share of the run.
    fresh = Traffic(
        dict(ctx.cfg["cluster"], models=ctx.cfg["sweep"]["latency_models"]), ctx.seed, "l", 4
    )

    def one_trial(i: int) -> float:
        op = fresh.op(i, "exact")
        t0 = time.perf_counter()
        run_grid([_trial_spec(op.spec)], op.root_seed, run)
        return (time.perf_counter() - t0) * 1000.0

    latency = Sampler(LATENCY_CALLS, one_trial)

    # hits and estimates, on trials of the first round.
    cache_dir = ctx.outdir / "hit-cache"
    stored: list[tuple[Any, int, dict]] = []

    def hit(i: int) -> float:
        spec, rs, metrics = stored[i % len(stored)]
        t0 = time.perf_counter()
        result = sweep.run_sweep([spec], root_seed=rs, cache_dir=cache_dir)
        ms = (time.perf_counter() - t0) * 1000.0
        run.attempted += 1
        trial = result.trials[0]
        if not trial.cached or _normal(trial.metrics) != _normal(metrics):
            run.failed += 1
            run.mismatched += 1
            run.problems.append(f"cache hit differs from stored answer: {spec.label()}")
        return ms

    def estimate(i: int) -> float:
        spec = stored[i % len(stored)][0]
        t0 = time.perf_counter()
        estimate_spec(spec).to_metrics()
        return (time.perf_counter() - t0) * 1000.0

    hits = Sampler(HIT_CALLS, hit)
    estimates = Sampler(ESTIMATE_CALLS, estimate)

    samplers = (latency, hits, estimates)

    def pace() -> None:
        # After every grid, so that each kind of sample is taken at many
        # moments of the run: on this machine the speed of short
        # interpreter-bound calls switches between levels for seconds at
        # a time, and a median over few moments switches with it.
        if stored:
            share = (time.perf_counter() - start) / ctx.seconds
            for sampler in samplers:
                sampler.catch_up(share)

    start = time.perf_counter()
    rounds = round_s = 0
    while rounds == 0 or time.perf_counter() - start + round_s <= ctx.seconds:
        t0 = time.perf_counter()
        grids.round(ctx.sub_seed(1000 + rounds), pace)
        if not stored:
            cache = ResultCache(cache_dir)
            for result, rs in grids.first.values():
                for t in list(result)[:HIT_ITEMS_PER_MODEL]:
                    stored.append((t.spec, rs, t.metrics))
                    cache.store(t.spec.cache_key(rs), t.spec.key(), t.metrics, rs)
        round_s = time.perf_counter() - t0
        rounds += 1
    for sampler in samplers:
        sampler.catch_up(1.0)

    grids.report()
    samples = [s for per_model in grids.samples.values() for s in per_model]
    total_trials = sum(n for n, _ in samples)
    run.metric("capacity_rps", total_trials / sum(t for _, t in samples), "req/s", total_trials)
    run.percentile("latency_p50_ms", latency.ms, 0.50)
    run.percentile("latency_p99_ms", latency.ms, 0.99)
    run.percentile("hit_latency_p50_ms", hits.ms, 0.50)
    run.percentile("estimate_latency_p50_ms", estimates.ms, 0.50)

    # Outside the timed rounds: one trial per model replayed serially.
    for i, m in enumerate(MODELS):
        result, rs = grids.first[m]
        trial = list(result)[(ctx.seed + i) % len(result)]
        run.attempted += 1
        serial = sweep.run_sweep([trial.spec], root_seed=rs, batch_size=1).trials[0]
        if _normal(serial.metrics) != _normal(trial.metrics):
            run.failed += 1
            run.mismatched += 1
            run.problems.append(f"batched != batch_size=1 replay: {trial.spec.label()}")
    run.notes["serial_replayed"] = len(MODELS)
    run.metric(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
        1,
    )
    return run


# ----------------------------------------------------------------------
# cluster traffic
# ----------------------------------------------------------------------


class Traffic:
    """The seeded request stream of one phase: op ``i`` is a pure
    function of (workload seed, phase, i)."""

    def __init__(self, wcfg: dict[str, Any], seed: int, phase: str, tag: int) -> None:
        self.cfg = wcfg
        self.phase = phase
        self.rng = np.random.default_rng([seed, tag])
        self.base_seed = (seed * 1_000_003 + tag * 100_003) % (1 << 32)
        self.seed, self.tag = seed, tag
        self.kinds: list[str] = []
        self._cells: list[tuple[str, int]] = []
        self.ops: list[Op] = []
        self.fresh: list[tuple[int, Op]] = []  # (index, op), index ascending

    def _spec(self, i: int) -> dict[str, Any]:
        """The next (model, L) cell: every cell once per block, in seeded
        order, so slow models arrive evenly rather than in clumps."""
        c = self.cfg
        if not self._cells:
            cells = [(m, L) for m in c["models"] for L in c["lengths"]]
            self._cells = [cells[j] for j in self.rng.permutation(len(cells))]
        model, length = self._cells.pop()
        return {
            "workload": c["workload"],
            "simulator": model,
            "B": (1, 2, 4)[i % 3],
            "workload_params": c["params"],
            "sim_params": {},
            "message_length": int(length),
            "repeat": 0,
        }

    def op(self, i: int, kind: str | None = None) -> Op:
        assert i == len(self.ops), "ops are generated in order"
        if kind is None:
            if i >= len(self.kinds):
                self.kinds = measure.block_mix(self.seed, self.tag, self.cfg["mix"], 2 * i + 100)
            kind = self.kinds[i]
        oid = f"{self.phase}{i}"
        if kind == "repeat":
            # Repeat an answer old enough to be in the cache already.
            eligible = bisect.bisect_right(
                self.fresh, i - self.cfg["repeat_lag_ops"], key=lambda e: e[0]
            )
            if not eligible:
                kind = "exact"
            else:
                origin = self.fresh[int(self.rng.integers(eligible))][1]
                op = Op(oid, "repeat", origin.spec, origin.root_seed, self.phase, origin.id)
        if kind == "exact":
            op = Op(oid, "exact", self._spec(i), (self.base_seed + i) % (1 << 32), self.phase)
            self.fresh.append((i, op))
        elif kind == "estimate":
            op = Op(oid, "estimate", self._spec(i), 0, self.phase)
        self.ops.append(op)
        return op


def _trial_spec(spec: dict[str, Any]):
    from repro.sim.sweep import TrialSpec

    return TrialSpec.make(
        spec["workload"],
        spec["simulator"],
        B=spec["B"],
        workload_params=spec["workload_params"],
        sim_params=spec["sim_params"],
        message_length=spec["message_length"],
        repeat=spec["repeat"],
    )


def gate(run: Run, ops: list[Op]) -> None:
    """The correctness gate, outside the timed window.

    Exact answers are replayed locally (batched through
    ``execute_compatible``, plus a fixed per-model sample through the
    ``batch_size=1`` serial path); estimates must equal
    ``estimate_spec(spec).to_metrics()``; repeats must equal the first
    answer for their key.
    """
    from repro.analysis.estimate import estimate_spec
    from repro.service.batcher import execute_compatible
    from repro.sim import sweep
    from repro.sim.batch import batch_compat_key

    by_id = {op.id: op for op in ops}
    bad: set[str] = set()
    groups: dict[tuple, list[Op]] = {}
    for op in ops:
        if op.outcome != "ok" or op.kind == "estimate":
            continue
        if op.kind == "repeat":
            origin = by_id.get(op.origin)
            if origin is not None and origin.outcome == "ok" and (
                origin.response["metrics"] != op.response["metrics"]
            ):
                bad.add(op.id)
        spec = _trial_spec(op.spec)
        groups.setdefault(batch_compat_key(spec), []).append(op)
    for items in groups.values():
        for j in range(0, len(items), 128):
            chunk = items[j : j + 128]
            local = execute_compatible([(_trial_spec(o.spec), o.root_seed) for o in chunk])
            for op, metrics in zip(chunk, local):
                if _normal(metrics) != op.response["metrics"]:
                    bad.add(op.id)
    per_model: dict[str, int] = {}
    for op in ops:
        if op.outcome != "ok" or op.kind != "exact":
            continue
        model = op.spec["simulator"]
        if per_model.get(model, 0) >= SERIAL_REPLAY_PER_MODEL:
            continue
        per_model[model] = per_model.get(model, 0) + 1
        serial = sweep.run_sweep([_trial_spec(op.spec)], root_seed=op.root_seed, batch_size=1)
        if _normal(serial.trials[0].metrics) != op.response["metrics"]:
            bad.add(op.id)
    estimates: dict[str, dict] = {}
    for op in ops:
        if op.outcome != "ok" or op.kind != "estimate":
            continue
        key = json.dumps(op.spec, sort_keys=True)
        if key not in estimates:
            estimates[key] = _normal(estimate_spec(_trial_spec(op.spec)).to_metrics())
        if estimates[key] != op.response["metrics"]:
            bad.add(op.id)
    for oid in sorted(bad):
        run.problems.append(f"response {oid} differs from the local replay")
    run.mismatched += len(bad)
    run.failed += len(bad)
    run.notes["serial_replayed"] = sum(per_model.values())


def account(run: Run, ops: list[Op]) -> dict[str, int]:
    """Client-side outcome counts; checks attempted == sum of outcomes."""
    counts = {k: 0 for k in ("ok", "rejected", "deadline_exceeded", "error", "timeout")}
    for op in ops:
        counts[op.outcome] += 1
    problem = measure.reconcile("client attempted", len(ops), counts)
    if problem:
        run.problems.append(problem)
    run.attempted += len(ops)
    run.failed += len(ops) - counts["ok"]
    return counts


def server_terminals(counters: dict[str, int]) -> dict[str, int]:
    """A server's terminal counters (every admitted run ends in one)."""
    names = [k for k in counters if k.startswith("rejected_")]
    names += ["completed", "deadline_expired", "errors", "protocol_errors"]
    return {k: counters[k] for k in names if k in counters}


async def _spawn(ctx: Context, argv_for) -> tuple[Server, list[float]]:
    """Start the tier ``SETUP_REPEATS`` times (set-up time of each), keep
    the last one running for the measurement."""
    setups = []
    server = None
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        workdir = ctx.outdir / f"server{k}"
        trace_dir = ctx.outdir / "spans" if ctx.trace and last else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        server = Server(argv_for(workdir), child_env(ctx.src, ctx.hook, trace_dir), workdir)
        try:
            setups.append(await server.wait_ready())
        except BaseException:
            server.kill()
            raise
        if not last:
            await server.stop()
    return server, setups


async def _cluster(ctx: Context) -> Run:
    run = Run()
    wcfg = ctx.cfg["cluster"]
    # Kernel throughput probe: small per-model grids with the same inputs
    # on every run (round r uses root seed r), so they track the kernels
    # and the machine, not the seed.  It runs while the tier idles.
    grids = Grids(ctx, run, wcfg["probe_grids"])

    def probe() -> None:
        for _ in range(PROBE_ROUNDS_PER_GAP):
            grids.round(len(grids.samples[MODELS[0]]))

    def argv_for(workdir: Path) -> list[str]:
        return [
            "cluster", "serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", str(wcfg["workers"]),
            "--runtime-dir", str(workdir / "runtime"), "--cache-dir", str(workdir / "cache"),
        ]

    server, setups = await _spawn(ctx, argv_for)
    run.metric("setup_s", measure.median(setups), "s", len(setups))
    try:
        mux = await Mux.open("127.0.0.1", server.port, os.cpu_count() or 1)
        try:
            open_t = Traffic(wcfg, ctx.seed, "o", 1)
            duration = wcfg["open_share"] * ctx.seconds
            offsets = measure.poisson_offsets(ctx.seed, 1, wcfg["open_rate_rps"], duration)
            open_ops = [open_t.op(i) for i in range(len(offsets))]
            # The open loop in segments, the probe in the gaps: arrivals
            # keep their offsets within a segment, and the tier has
            # drained before the probe runs.
            seg = duration / OPEN_SEGMENTS
            for k in range(OPEN_SEGMENTS):
                lo = bisect.bisect_left(offsets, k * seg)
                hi = bisect.bisect_left(offsets, (k + 1) * seg)
                probe()
                await open_loop(
                    mux, open_ops[lo:hi], [o - k * seg for o in offsets[lo:hi]],
                    timeout_s=REQUEST_TIMEOUT_S,
                )
            closed_t = Traffic(wcfg, ctx.seed, "c", 2)
            closed_ops, closed_s = await closed_loop(
                mux,
                closed_t.op,
                in_flight=wcfg["closed_in_flight"],
                duration_s=wcfg["closed_share"] * ctx.seconds,
                timeout_s=REQUEST_TIMEOUT_S,
            )
            stats = await mux.call({"op": "stats", "id": "perfbench-stats"})
            probe()
        finally:
            await mux.close()
        run.metric("peak_rss_mb", server.peak_rss_mb(), "MB", 1 + len(server.children))
    finally:
        await server.stop()
    ops = open_ops + closed_ops
    run.raw.update(ops=ops, stats=stats)
    write_ops(ctx.outdir / "ops.jsonl", ops)

    lags = [op.lag_ms for op in open_ops]
    run.raw["sched_lag_ms"] = lags
    lag_p99 = measure.quantile(lags, 0.99) if lags else 0.0
    if lag_p99 > SCHED_LAG_P99_BOUND_MS:
        run.invalid.append(f"{LATE}: sched lag p99 {lag_p99:.2f} ms > {SCHED_LAG_P99_BOUND_MS} ms")
    grids.report()
    # Exact-mode requests: fresh trials and repeats the router may answer
    # from its cache.
    exact_open = [op.latency_ms for op in open_ops if op.mode == "exact"]
    run.percentile("latency_p50_ms", exact_open, 0.50)
    run.percentile("latency_p99_ms", exact_open, 0.99)
    # Answers per second: ok exact-mode answers inside the window over
    # the window.
    closed_start = min(op.due for op in closed_ops)
    done = [
        op for op in closed_ops
        if op.mode == "exact" and op.outcome == "ok" and op.done - closed_start <= closed_s
    ]
    run.metric("capacity_rps", len(done) / closed_s, "req/s", len(done))
    run.percentile("estimate_latency_p50_ms", [op.latency_ms for op in ops if op.kind == "estimate"], 0.50)
    hits = [
        op.latency_ms for op in ops
        if op.kind == "repeat" and op.outcome == "ok" and op.response.get("provenance") == "cache"
    ]
    run.percentile("hit_latency_p50_ms", hits, 0.50)

    run.notes["outcomes"] = account(run, ops)
    gate(run, ops)
    reconcile_service(run, stats, ops)
    return run


def write_ops(path: Path, ops: list[Op]) -> None:
    """Every request of the run, one JSON line each (times in seconds
    from the first due time), for looking into a run after the fact."""
    t0 = min((op.due for op in ops), default=0.0)
    with open(path, "w") as out:
        for op in ops:
            resp = op.response or {}
            row = {
                "id": op.id,
                "kind": op.kind,
                "model": op.spec.get("simulator"),
                "L": op.spec.get("message_length"),
                "B": op.spec.get("B"),
                "due": op.due - t0,
                "lag_ms": op.lag_ms,
                "latency_ms": None if math.isinf(op.latency_ms) else op.latency_ms,
                "outcome": op.outcome,
                "queue_ms": resp.get("queue_ms"),
                "batched": resp.get("batched"),
                "worker": resp.get("worker"),
                "provenance": resp.get("provenance"),
            }
            out.write(json.dumps(row) + "\n")


def reconcile_service(run: Run, stats: dict[str, Any], ops: list[Op]) -> None:
    """Every admitted request ends in exactly one terminal counter, at
    the router and at each worker; the router's forwards and cache
    answers match what the workers and the client saw."""
    workers = stats.get("workers") or []
    counters = stats["counters"]
    checks = [
        measure.reconcile(
            "router forwarded",
            counters["forwarded"],
            {
                f"worker{i}.requests_total": (w or {}).get("counters", {}).get("requests_total", 0)
                for i, w in enumerate(workers)
            },
        ),
        measure.reconcile(
            "router cache_served",
            counters["cache_served"],
            {
                "client provenance=cache": sum(
                    1 for op in ops if op.response and op.response.get("provenance") == "cache"
                )
            },
        ),
    ]
    tiers = [("router", stats)] + [(f"worker{i}", w) for i, w in enumerate(workers) if w]
    for label, snap in tiers:
        c = snap["counters"]
        checks.append(measure.reconcile(f"{label} requests_total", c["requests_total"], server_terminals(c)))
    run.problems.extend(c for c in checks if c)


def cluster_workload(ctx: Context) -> Run:
    return asyncio.run(_cluster(ctx))


WORKLOADS = {
    "sweep": sweep_workload,
    "cluster": cluster_workload,
}
