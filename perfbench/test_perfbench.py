"""Self-tests of the benchmark's own logic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from traffic import Op  # noqa: E402

CLUSTER = {
    "models": ["wormhole", "cut_through", "store_forward", "restricted"],
    "workload": "chain-bundle",
    "params": {"chains": 2, "depth": 5, "messages": 3},
    "lengths": [8, 16],
    "mix": {"exact": 0.6, "repeat": 0.2, "estimate": 0.2},
    "repeat_lag_ops": 5,
}


# -- schedules ---------------------------------------------------------


def test_schedule_is_deterministic_for_a_seed():
    a = measure.poisson_offsets(7, 1, 50.0, 4.0)
    assert a == measure.poisson_offsets(7, 1, 50.0, 4.0)
    assert a != measure.poisson_offsets(8, 1, 50.0, 4.0)
    assert a != measure.poisson_offsets(7, 2, 50.0, 4.0)
    assert len(a) == 200
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 4.0


def test_block_mix_keeps_exact_shares():
    kinds = measure.block_mix(3, 1, CLUSTER["mix"], 1000)
    for j in range(0, 1000, 10):
        block = kinds[j : j + 10]
        assert block.count("exact") == 6
        assert block.count("repeat") == 2
        assert block.count("estimate") == 2
    assert kinds == measure.block_mix(3, 1, CLUSTER["mix"], 1000)
    assert kinds != measure.block_mix(4, 1, CLUSTER["mix"], 1000)
    with pytest.raises(ValueError):
        measure.block_mix(3, 1, {"exact": 0.55, "repeat": 0.45}, 10)


def _stream(seed: int, n: int) -> list[tuple]:
    traffic = workloads.Traffic(CLUSTER, seed, "o", 1)
    return [
        (op.id, op.kind, op.spec, op.root_seed, op.origin)
        for op in (traffic.op(i) for i in range(n))
    ]


def test_request_stream_is_deterministic_for_a_seed():
    assert _stream(11, 300) == _stream(11, 300)
    assert _stream(11, 300) != _stream(12, 300)


def test_repeats_point_at_old_enough_fresh_requests():
    stream = _stream(5, 400)
    index = {oid: i for i, (oid, *_rest) in enumerate(stream)}
    seeds = [rs for _, kind, _, rs, _ in stream if kind == "exact"]
    assert len(seeds) == len(set(seeds)), "every fresh request has its own seed"
    repeats = [(oid, origin) for oid, kind, _, _, origin in stream if kind == "repeat"]
    assert repeats
    for oid, origin in repeats:
        assert stream[index[origin]][1] == "exact"
        assert index[oid] - index[origin] >= CLUSTER["repeat_lag_ops"]


# -- the percentile rule -----------------------------------------------


def test_sampler_spreads_a_fixed_count_over_the_run():
    calls = []
    sampler = workloads.Sampler(10, lambda i: calls.append(i) or float(i))
    sampler.catch_up(0.25)
    assert calls == [0, 1, 2]
    sampler.catch_up(0.25)
    assert len(calls) == 3, "no call twice for the same share"
    sampler.catch_up(1.7)
    assert calls == list(range(10)) and sampler.ms == [float(i) for i in range(10)]


def test_samples_needed_leaves_ten_beyond():
    assert measure.samples_needed(0.5) == 20
    assert measure.samples_needed(0.99) == 1000
    assert measure.samples_needed(0.9) == 100
    assert not measure.percentile_ok(999, 0.99)
    assert measure.percentile_ok(1000, 0.99)


def test_run_refuses_a_percentile_without_enough_samples():
    run = workloads.Run()
    run.percentile("latency_p99_ms", [1.0] * 999, 0.99)
    assert "latency_p99_ms" not in run.e2e and run.invalid
    run = workloads.Run()
    run.percentile("latency_p99_ms", [float(i) for i in range(1000)], 0.99)
    assert run.e2e["latency_p99_ms"][2] == 1000 and not run.invalid


def test_failures_count_as_infinitely_late():
    values = [1.0] * 985 + [math.inf] * 15
    assert math.isinf(measure.quantile(values, 0.99))
    assert measure.quantile(values, 0.5) == 1.0
    run = workloads.Run()
    run.percentile("latency_p99_ms", values, 0.99)
    assert run.invalid and "latency_p99_ms" not in run.e2e


def test_quantile_matches_linear_interpolation():
    assert measure.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert measure.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0


# -- reconciliation ----------------------------------------------------


def test_reconcile_names_every_counter_on_mismatch():
    assert measure.reconcile("x", 5, {"a": 2, "b": 3}) is None
    report = measure.reconcile("server requests_total", 6, {"completed": 4, "errors": 1})
    assert report == "server requests_total: 6 != completed=4 + errors=1 (= 5)"


def _op(oid: str, status: str | None, provenance: str | None = None) -> Op:
    op = Op(oid, "exact", {}, 0)
    if status is not None:
        op.response = {"id": oid, "status": status}
        if provenance:
            op.response["provenance"] = provenance
    return op


def _cluster_stats(forwarded: int, cache_served: int, worker_totals: list[int]) -> dict:
    def counters(total):
        return {"requests_total": total, "completed": total, "rejected_queue_full": 0,
                "deadline_expired": 0, "errors": 0, "protocol_errors": 0}

    router = counters(forwarded + cache_served)
    router.update(forwarded=forwarded, cache_served=cache_served, rejected_unavailable=0)
    return {
        "counters": router,
        "workers": [{"counters": counters(t)} for t in worker_totals],
    }


def test_reconciliation_passes_a_consistent_tier():
    run = workloads.Run()
    ops = [_op("a", "ok", "cache"), _op("b", "ok"), _op("c", "ok")]
    workloads.reconcile_service(run, _cluster_stats(2, 1, [1, 1]), ops)
    assert run.problems == []


def test_reconciliation_catches_lost_forwards_and_cache_answers():
    run = workloads.Run()
    ops = [_op("a", "ok", "cache"), _op("b", "ok"), _op("c", "ok")]
    workloads.reconcile_service(run, _cluster_stats(3, 2, [1, 1]), ops)
    assert any(p.startswith("router forwarded: 3 != worker0.requests_total=1") for p in run.problems)
    assert any(p.startswith("router cache_served: 2 != client provenance=cache=1") for p in run.problems)


def test_reconciliation_catches_a_request_with_no_terminal_counter():
    stats = _cluster_stats(4, 0, [2, 2])
    stats["workers"][1]["counters"].update(completed=1, rejected_queue_full=0)
    run = workloads.Run()
    workloads.reconcile_service(run, stats, [_op("a", "ok")])
    assert run.problems == [
        "worker1 requests_total: 2 != rejected_queue_full=0 + completed=1 + "
        "deadline_expired=0 + errors=0 + protocol_errors=0 (= 1)"
    ]


def test_client_accounting_adds_up():
    run = workloads.Run()
    counts = workloads.account(run, [_op("a", "ok"), _op("b", "rejected"), _op("c", None)])
    assert counts["ok"] == 1 and counts["rejected"] == 1 and counts["timeout"] == 1
    assert run.attempted == 3 and run.failed == 2 and not run.problems


# -- self time on nested spans -----------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert measure.self_time(0.0, 10.0, []) == 10.0
    assert measure.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert measure.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0
    assert measure.covered(0.0, 10.0, [(1.0, 2.0), (2.0, 3.0)]) == 2.0


def _row(sid, parent, name, t0, t1, thread=1, attrs=None):
    return {"pid": 1, "role": "bench", "id": sid, "parent": parent, "name": name,
            "t0": int(t0 * 1e9), "t1": int(t1 * 1e9), "thread": thread, "attrs": attrs}


def test_layer_table_on_nested_spans():
    rows = [
        _row(1, 0, "sweep.run_sweep", 0.0, 10.0),
        _row(2, 1, "exec.map", 1.0, 9.0, attrs={"units": 2}),
        _row(3, 2, "exec.run", 1.0, 5.0, thread=2),
        _row(4, 3, "kernel.wormhole", 2.0, 4.0, thread=2, attrs={"trials": 3, "steps": 30}),
        _row(5, 2, "exec.run", 5.0, 9.0),
        _row(6, 5, "kernel.wormhole", 5.5, 8.5, attrs={"trials": 5, "steps": 50}),
    ]
    table = {r["layer"]: r for r in layers.table(rows)}
    assert table["sweep.run_sweep"]["self_s"] == pytest.approx(2.0)
    assert table["exec.map"]["self_s"] == pytest.approx(0.0)
    assert table["exec.map"]["wait_s"] == pytest.approx(4.0)  # the run on thread 2
    assert table["exec.run"]["calls"] == 2
    assert table["exec.run"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert table["kernel.wormhole"]["self_s"] == pytest.approx(5.0)


def test_sweep_self_time_subtracts_only_kernel_descendants():
    rows = [
        _row(1, 0, "sweep.run_sweep", 0.0, 10.0),
        _row(2, 1, "exec.map", 1.0, 9.0, attrs={"units": 1}),
        _row(3, 2, "exec.run", 1.0, 9.0),
        _row(4, 3, "kernel.restricted", 2.0, 6.0, attrs={"trials": 3, "steps": 300}),
    ]
    run = workloads.Run()
    out = layers.per_layer("sweep", run, rows)
    assert out["sweep.self_s"][0] == pytest.approx(6.0)
    assert out["sweep.batch_width.mean"][0] == 3.0
    assert out["kernel.restricted.us_per_trial_step"][0] == pytest.approx(4.0 / 300 * 1e6)
    assert out["exec.run_overhead_ms.p50"][0] == pytest.approx(4000.0)
    assert out["sweep.units"][0] == 1


# -- span parents across backend calls ---------------------------------


class _Inline:
    def run(self, fn, arg):
        return fn(arg)

    def map(self, fn, args):
        return [self.run(fn, a) for a in args]


class _Pool:
    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)

    def run(self, fn, arg):
        return self.pool.submit(fn, arg).result()

    def map(self, fn, args):
        return [f.result() for f in [self.pool.submit(fn, a) for a in args]]


@pytest.mark.parametrize("backend_cls", [_Inline, _Pool])
def test_unit_spans_are_children_of_the_innermost_backend_call(backend_cls):
    rec = spans.Recorder()

    class Backend(backend_cls):
        pass

    Backend.run = spans._wrap_backend_call(rec, "exec.run", backend_cls.run, many=False)
    Backend.map = spans._wrap_backend_call(rec, "exec.map", backend_cls.map, many=True)
    unit = spans.wrap(rec, "kernel.x", lambda a: a * 2)
    backend = Backend()
    assert backend.map(unit, [1, 2]) == [2, 4]
    assert backend.run(unit, 3) == 6
    rows = rec.rows()
    by_id = {row["id"]: row for row in rows}
    kernels = sorted((r for r in rows if r["name"] == "kernel.x"), key=lambda r: r["t0"])
    # Inline: map calls run on the same thread, so run is the parent.
    # Pool: map submits units straight to a pool thread, so map is.
    expected = ["exec.run"] * 3 if backend_cls is _Inline else ["exec.map", "exec.map", "exec.run"]
    assert [by_id[k["parent"]]["name"] for k in kernels] == expected
