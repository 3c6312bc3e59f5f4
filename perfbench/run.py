"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|cluster \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs span wrappers in every process (this one, the
cluster router and its workers) and reports the per-layer metrics, a
per-layer table and the tracing overhead instead.  The last line of
standard output is always ``{"correct", "attempted", "failed",
"metrics"}``.  A run whose correctness gate fails still prints its
result, with ``correct: false``; a run that is not valid as a
measurement (too few samples for a percentile, a generator that ran
late) prints no result and exits with code 3.  Results and raw spans
are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    import numpy

    from repro.sim.fastpath import active_backend

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_FASTPATH": active_backend(),
    }


def _terminate(signum, frame) -> None:
    # Unwind through every ``finally`` so started servers are stopped.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cfg = json.loads((HERE / "config.json").read_text())

    outdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ctx = workloads.Context(ROOT, cfg, args.seed, args.seconds, bool(args.trace), outdir)

    recorder = None
    if args.trace:
        import spans

        (outdir / "spans").mkdir()
        recorder = spans.Recorder("bench")
        spans.install(recorder)
    started = time.perf_counter()
    run = workloads.WORKLOADS[args.workload](ctx)
    if run.invalid and all(r.startswith(workloads.LATE) for r in run.invalid):
        # A generator starved of CPU measured the machine, not the program:
        # measure once more, from scratch, and keep the first verdict.
        first = run.invalid
        shutil.rmtree(outdir)
        outdir.mkdir(parents=True)
        if recorder is not None:
            recorder.spans.clear()
            (outdir / "spans").mkdir()
        run = workloads.WORKLOADS[args.workload](ctx)
        run.notes["retried_after"] = first
    wall_s = time.perf_counter() - started
    if recorder is not None:
        recorder.write(outdir / "spans")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        span_rows = layers.load_spans(outdir / "spans")
        values = layers.per_layer(args.workload, run, span_rows)
        table = layers.table(span_rows)
    else:
        values = {k: (v, unit) for k, (v, unit, _) in run.e2e.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not run.invalid:
        run.invalid.append(f"metrics not measured: {', '.join(missing)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(ROOT),
        "machine": _machine(),
        "wall_s": wall_s,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatched": run.mismatched,
        "problems": run.problems,
        "invalid": run.invalid,
        "end_to_end": {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in run.e2e.items()
        },
        "notes": run.notes,
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        record["layer_table"] = table
        record["tracing_overhead"] = layers.overhead(ROOT / ".perfbench", args.workload, run)
    (outdir / "result.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        print(layers.render_table(args.workload, table, record["tracing_overhead"]))

    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if run.invalid:
        for reason in run.invalid:
            print(f"perfbench: invalid run: {reason}", file=sys.stderr)
        return 3
    m = record["machine"]
    print(
        f"{args.workload} seed={args.seed} commit={record['commit'][:12]} "
        f"cpus={m['cpus']} python={m['python']} numpy={m['numpy']} "
        f"fastpath={m['REPRO_FASTPATH']} wall={wall_s:.1f}s"
    )
    if not args.trace:
        for name, (v, unit, n) in sorted(run.e2e.items()):
            print(f"  {name:<28} {v:>12.4f} {unit:<9} n={n}")
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared
    }
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": max(1, run.attempted),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
