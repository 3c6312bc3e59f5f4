"""Batched lockstep simulation: whole trial grids as stacked state.

Every sweep in this repository (E1/E2/E5, ``repro sweep``) runs many
*independent* trials over the same workload — one per ``(B, seed)``
grid cell — and each trial's engine state is nothing but flat integer
arrays per message.  Running them one at a time pays full Python
dispatch and small-array NumPy overhead per trial per step.  This
module stacks ``T`` such trials into ``(T, M)`` state arrays and steps
them in lockstep, for **every** router model:

======================  =============================================
runner                  serial counterpart
======================  =============================================
:func:`run_wormhole_batch`       :class:`~repro.sim.wormhole.WormholeSimulator`
:func:`run_cut_through_batch`    :class:`~repro.sim.cut_through.CutThroughSimulator`
:func:`run_store_forward_batch`  :class:`~repro.sim.store_forward.StoreForwardSimulator`
:func:`run_restricted_batch`     :class:`~repro.sim.restricted.RestrictedWormholeSimulator`
:func:`run_adaptive_batch`       :class:`~repro.sim.adaptive.AdaptiveMeshRouter`
======================  =============================================

Each runner validates its inputs, builds the matching
:mod:`repro.sim.kernels` kernel at ``T`` trials and steps a shared
:class:`~repro.sim.engine.BatchStepLoop`:

* one vectorized contend/rank/grant arbitration per step over the
  combined ``(trial, slot)`` key space
  (:class:`~repro.sim.engine.BatchSlotArbiter`);
* one stacked acquire/release/completion update per step;
* one shared clock with per-trial completion / deadlock / step-cap
  masking, so finished trials drop out of the active set without
  stalling the batch.

A serial simulator class is a thin ``T = 1`` call of its runner with
``seeds=[its generator]`` (``np.random.default_rng`` returns a
``Generator`` unchanged, so a reused instance keeps drawing from one
continuing stream).  The runners are therefore the only place a model
is validated, capped and set up.

:data:`MODEL_SPECS` is the one registry of the five models: what a
caller needs to run one (serial class, runner, buffering knob,
arbitration keyword and default, problem shape, telemetry support).
:func:`run_trial` (one trial, through the serial class) and
:func:`run_trials` (many trials, one lockstep runner call) are the two
ways every front end — :func:`repro.simulate`, the sweep runner, the
service batcher — runs a model.

Bit-exactness contract
----------------------
``run_<model>_batch(...)[i]`` is bit-identical to the ``T = 1`` run
with the same parameters and ``seeds[i]`` — same completion times,
makespan, executed steps, blocked counts, deadlock flags, step-cap
flags, and per-trial ``extra`` keys (and, for adaptive, the same taken
paths).  The load-bearing facts:

* trials are independent: trial ``i``'s state is read and written only
  where trial ``i`` has active messages, and the combined arbitration
  key space keeps slot groups of different trials disjoint;
* each trial keeps its **own** RNG (``np.random.default_rng(seeds[i])``)
  and draws from it exactly as its ``T = 1`` run would — per-step draws
  happen only in steps where that trial acts, setup-time draws (rank
  permutations, rotating-service offsets, injection delays) happen once
  per trial at startup;
* the shared clock visits every step at which any trial acts; a trial's
  state does not change during steps where it merely waits, so running
  through another trial's steps is observationally identical to its own
  run's idle-gap skipping (see :class:`BatchStepLoop`).

The batch-vs-serial equivalence suites (``tests/sim/test_batch.py``
and ``tests/sim/test_batch_models.py``) pin this contract over the
golden-case shapes and randomized property sweeps, and the
:mod:`repro.fuzz` invariant guards it nightly.

Telemetry probes (``telemetry=``) attach at ``T = 1`` only: per-trial
probe streams would serialize the batch (defeating its purpose) and
collectors never perturb results, so profile single trials.  The
restricted model has no probe hooks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..network.graph import Network, NetworkError
from ..network.mesh import KAryNCube
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet, RunMeta
from .adaptive import _POLICIES, AdaptiveMeshRouter, AdaptiveRunResult
from .cut_through import CutThroughSimulator
from .engine import (
    BatchStepLoop,
    PaddedPaths,
    _per_trial,
    pad_paths,
    resolve_step_cap,
)
from .kernels import (
    AdaptiveKernel,
    CutThroughKernel,
    RestrictedKernel,
    StoreForwardKernel,
    WormholeKernel,
    validate_vc_ids,
)
from .restricted import RestrictedWormholeSimulator
from .stats import SimulationResult
from .store_forward import _PRIORITIES as _SF_PRIORITIES
from .store_forward import StoreForwardSimulator
from .wormhole import _EDGE_SIMPLE_WHAT, _PRIORITIES, WormholeSimulator

__all__ = [
    "BATCHED_MODELS",
    "MODEL_SPECS",
    "ModelSpec",
    "batch_compat_key",
    "run_adaptive_batch",
    "run_cut_through_batch",
    "run_restricted_batch",
    "run_store_forward_batch",
    "run_trial",
    "run_trials",
    "run_wormhole_batch",
]

def batch_compat_key(spec) -> tuple:
    """What makes two sweep cells / service requests lockstep-compatible.

    Trials sharing this key can ride in one ``run_<model>_batch`` call:
    they share the model, the workload (hence the path matrix), ``L``,
    and the sim params (hence the priority discipline), while the
    per-trial knob (``B``, buffer size, bandwidth) varies per trial via
    the batch engine's per-trial capacities and seeds stay per-trial by
    construction.  ``repeat`` only separates derived seeds, so it never
    splits a batch.

    Both packers — :func:`repro.sim.sweep.run_sweep` and the
    :class:`repro.service.batcher.DynamicBatcher` — key on this one
    helper, so "compatible" cannot drift between the offline and online
    paths.  ``spec`` is any object with the :class:`~repro.sim.sweep
    .TrialSpec` identity fields.
    """
    return (
        spec.simulator,
        spec.workload,
        spec.workload_params,
        spec.message_length,
        spec.sim_params,
    )


def _seed_rngs(seeds, runner: str) -> list:
    """One independent generator per trial, or raise on an empty batch."""
    seeds = list(seeds)
    if not seeds:
        raise NetworkError(
            "seeds is empty: a batch needs at least one trial "
            f"({runner} simulates one trial per seed)"
        )
    return [np.random.default_rng(s) for s in seeds]


def _shared_lengths(message_length, M: int) -> np.ndarray:
    """Per-message ``L`` shared by all trials (scalar or ``(M,)``)."""
    arr = np.asarray(message_length, dtype=np.int64)
    try:
        L = (
            np.full(M, int(arr), dtype=np.int64)
            if arr.ndim == 0
            else np.broadcast_to(arr, (M,)).copy()
        )
    except ValueError:
        raise NetworkError(
            f"message_length must be a scalar or have shape ({M},), got "
            f"shape {np.asarray(message_length).shape}"
        ) from None
    if M and L.min() < 1:
        raise NetworkError("message length L must be >= 1")
    return L


def _shared_release(release_times, M: int) -> np.ndarray:
    """Per-message release times shared by all trials."""
    release = (
        np.zeros(M, dtype=np.int64)
        if release_times is None
        else np.asarray(release_times, dtype=np.int64).copy()
    )
    if release.shape != (M,):
        raise NetworkError(f"release_times must have shape ({M},)")
    if M and release.min() < 0:
        raise NetworkError("release times must be >= 0")
    return release


def _probes(telemetry, T: int, runner: str) -> "ProbeSet | None":
    """Coerce ``telemetry=``; probes attach to a single trial only."""
    probes = ProbeSet.coerce(telemetry)
    if probes is not None and T != 1:
        raise NetworkError(
            f"telemetry probes attach to a single trial; {runner} got "
            f"{T} seeds (run batches without telemetry)"
        )
    return probes


def _start(loop: BatchStepLoop, probes, meta: RunMeta) -> None:
    """Open a ``T = 1`` run's telemetry and hand the probes to the loop."""
    if probes is not None:
        probes.on_run_start(meta)
        loop.probes = probes


def _empty_results(T: int, probes=None, meta=None) -> list[SimulationResult]:
    """Results of a run without messages (the probes see start and end)."""
    out = [
        SimulationResult(
            completion_times=np.full(0, -1, dtype=np.int64),
            makespan=-1,
            steps_executed=0,
            blocked_steps=np.zeros(0, dtype=np.int64),
        )
        for _ in range(T)
    ]
    if probes is not None:
        probes.on_run_start(meta)
        probes.on_run_end(out[0])
    return out


# ----------------------------------------------------------------------
# Wormhole (Section 1.1: B virtual channels per edge).
# ----------------------------------------------------------------------


def run_wormhole_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    num_virtual_channels: int | Sequence[int] = 1,
    priority: str = "random",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    vc_ids: np.ndarray | Sequence[Sequence[int]] | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Simulate ``T = len(seeds)`` independent wormhole trials in lockstep.

    Parameters
    ----------
    net:
        The shared network (only ``num_edges`` is used).
    paths:
        The shared per-message routes (or a pre-packed
        :class:`~repro.sim.engine.PaddedPaths`); every trial routes the
        same workload — batch *grids* over workloads by batching each
        workload's cells separately (see :func:`repro.sim.sweep.run_sweep`).
    message_length:
        The paper's ``L`` (scalar or per-message), shared by all trials.
    seeds:
        One entry per trial (at least one) — anything
        ``np.random.default_rng`` accepts (int, ``SeedSequence``,
        ``Generator``, ``None``).  Each trial draws from its own
        generator in serial order.
    num_virtual_channels:
        The ``B`` of each trial — a scalar or a per-trial sequence, so
        one batch can cover a whole ``B`` sweep of a grid.
    priority:
        The arbitration discipline, shared by the batch (``"random"``,
        ``"age"``, ``"index"``, or ``"rank"`` — see
        :class:`~repro.sim.wormhole.WormholeSimulator`).
    release_times / max_steps / vc_ids:
        As in :meth:`WormholeSimulator.run`, shared by all trials.  With
        ``vc_ids``, every trial's ``B`` must exceed the largest assigned
        class id.
    telemetry:
        :mod:`repro.telemetry` probes for a single-trial run (one seed).

    Returns
    -------
    list[SimulationResult]
        Per-trial results, bit-identical to each trial's serial run.
    """
    rngs = _seed_rngs(seeds, "run_wormhole_batch")
    T = len(rngs)
    probes = _probes(telemetry, T, "run_wormhole_batch")
    B = _per_trial(num_virtual_channels, T, "num_virtual_channels")
    if B.min() < 1:
        raise NetworkError(
            f"need at least one virtual channel, got {int(B.min())}"
        )
    if priority not in _PRIORITIES:
        raise NetworkError(f"priority must be one of {_PRIORITIES}")

    pp = PaddedPaths.from_paths(paths)
    padded, D = pp.padded, pp.lengths
    M = int(D.size)
    L = _shared_lengths(message_length, M)
    pp.require_edge_simple(_EDGE_SIMPLE_WHAT)
    release = _shared_release(release_times, M)
    meta = RunMeta(
        simulator="wormhole",
        num_messages=M,
        num_edges=net.num_edges,
        num_virtual_channels=int(B[0]),
        paths=padded,
        lengths=D,
        message_length=L,
        release=release,
    )
    if M == 0:
        return _empty_results(T, probes, meta)

    total_moves = L + D - 1
    trivial = D == 0
    caps = resolve_step_cap(
        max_steps,
        "wormhole",
        release=release,
        total_moves=total_moves,
        trivial=trivial,
    )
    vc_padded = (
        None
        if vc_ids is None
        else validate_vc_ids(padded, D, vc_ids, int(B.min()))
    )

    loop = BatchStepLoop(T, M, release, caps)
    loop.mark_trivial(trivial, release)
    kernel = WormholeKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        release=release,
        capacities=B,
        priority=priority,
        rngs=rngs,
        vc_padded=vc_padded,
        probes=probes,
    )
    _start(loop, probes, meta)
    loop.run(kernel.body)
    return loop.results()


# ----------------------------------------------------------------------
# Virtual cut-through (Section 1.4: B flits of one message per edge).
# ----------------------------------------------------------------------


def run_cut_through_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    buffer_flits: int | Sequence[int] = 1,
    priority: str = "random",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Lockstep batch of :class:`~repro.sim.cut_through.CutThroughSimulator`
    trials — one per seed, with per-trial ``buffer_flits``."""
    rngs = _seed_rngs(seeds, "run_cut_through_batch")
    T = len(rngs)
    probes = _probes(telemetry, T, "run_cut_through_batch")
    B = _per_trial(buffer_flits, T, "buffer_flits")
    if B.min() < 1:
        raise NetworkError("buffer must hold at least one flit")
    if priority not in ("random", "index"):
        raise NetworkError("priority must be 'random' or 'index'")

    pp = PaddedPaths.from_paths(paths)
    padded, D = pp.padded, pp.lengths
    M = int(D.size)
    L = _shared_lengths(message_length, M)
    pp.require_edge_simple()
    release = _shared_release(release_times, M)
    meta = RunMeta(
        simulator="cut_through",
        num_messages=M,
        num_edges=net.num_edges,
        num_virtual_channels=1,
        paths=padded,
        lengths=D,
        message_length=L,
        release=release,
        extra={"flits_per_grant": L},
    )
    if M == 0:
        return _empty_results(T, probes, meta)

    trivial = D == 0
    caps = resolve_step_cap(
        max_steps,
        "cut_through",
        release=release,
        lengths=D,
        message_length=L,
        num_messages=M,
    )
    loop = BatchStepLoop(T, M, release, caps)
    loop.mark_trivial(trivial, release)
    kernel = CutThroughKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        buffer_flits=B,
        priority=priority,
        rngs=rngs,
        probes=probes,
    )
    _start(loop, probes, meta)
    loop.run(kernel.body)
    return loop.results()


# ----------------------------------------------------------------------
# Store-and-forward (Section 1: whole-message hops).
# ----------------------------------------------------------------------


def run_store_forward_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int,
    *,
    seeds: Sequence,
    bandwidth_flits_per_step: int | Sequence[int] = 1,
    priority: str = "farthest",
    delay_range: int = 0,
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Lockstep batch of :class:`~repro.sim.store_forward
    .StoreForwardSimulator` trials — one per seed, with per-trial
    bandwidth ``B`` (so the shared clock counts *message steps* whose
    flit-step length ``ceil(L / B)`` differs per trial; per-trial
    results are reported in flit steps, exactly like serial runs)."""
    rngs = _seed_rngs(seeds, "run_store_forward_batch")
    T = len(rngs)
    probes = _probes(telemetry, T, "run_store_forward_batch")
    BW = _per_trial(bandwidth_flits_per_step, T, "bandwidth_flits_per_step")
    if BW.min() < 1:
        raise NetworkError("bandwidth must be >= 1 flit per step")
    if priority not in _SF_PRIORITIES:
        raise NetworkError(f"priority must be one of {_SF_PRIORITIES}")
    if message_length < 1:
        raise NetworkError("message length L must be >= 1")

    # Deliberately no edge-simplicity check: see the store_forward
    # module docstring (an edge is held only within the step it
    # transmits, so repeated edges just queue twice).
    padded, D = pad_paths(paths)
    M = int(D.size)
    hop = -(-int(message_length) // BW)  # per-trial ceil(L / B)
    release_fs = _shared_release(release_times, M)
    # Convert to per-trial message steps, rounding up to a boundary.
    release = -(-release_fs[None, :] // hop[:, None])
    if M and delay_range > 0:
        release = release + np.stack(
            [rng.integers(0, delay_range, size=M) for rng in rngs]
        )
    meta = RunMeta(
        simulator="store_forward",
        num_messages=M,
        num_edges=net.num_edges,
        num_virtual_channels=1,
        paths=padded,
        lengths=D,
        message_length=np.full(M, message_length, dtype=np.int64),
        release=release[0],
        extra={
            "flits_per_grant": int(message_length),
            "flit_steps_per_step": int(hop[0]),
        },
    )
    if M == 0:
        return _empty_results(T, probes, meta)

    caps = np.asarray(
        [
            resolve_step_cap(
                max_steps, "store_forward", release=release[i], lengths=D
            )
            for i in range(T)
        ],
        dtype=np.int64,
    )
    # Greedy store-and-forward cannot deadlock: every contended edge
    # forwards one message per step, so progress is unconditional.
    loop = BatchStepLoop(
        T, M, release, caps, detect_deadlock=False, time_scale=hop
    )
    loop.mark_trivial(D == 0, release * hop[:, None])
    kernel = StoreForwardKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        release=release,
        hop=hop,
        priority=priority,
        rngs=rngs,
        probes=probes,
    )
    _start(loop, probes, meta)
    loop.run(kernel.body)
    return loop.results(
        lambda i: {
            "max_queue": int(kernel.max_queue[i]),
            "message_step_flits": int(hop[i]),
        }
    )


# ----------------------------------------------------------------------
# Restricted multiplexing (Section 1.4 Remarks: buffers without wires).
# ----------------------------------------------------------------------


def run_restricted_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    num_buffers: int | Sequence[int] = 1,
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
) -> list[SimulationResult]:
    """Lockstep batch of :class:`~repro.sim.restricted
    .RestrictedWormholeSimulator` trials — one per seed, with per-trial
    buffer counts ``B``."""
    rngs = _seed_rngs(seeds, "run_restricted_batch")
    T = len(rngs)
    B = _per_trial(num_buffers, T, "num_buffers")
    if B.min() < 1:
        raise NetworkError("need at least one buffer slot per edge")

    pp = PaddedPaths.from_paths(paths)
    padded, D = pp.padded, pp.lengths
    M = int(D.size)
    L = _shared_lengths(message_length, M)
    pp.require_edge_simple()
    release = _shared_release(release_times, M)
    if M == 0:
        return _empty_results(T)

    trivial = D == 0
    caps = resolve_step_cap(
        max_steps,
        "restricted",
        release=release,
        lengths=D,
        message_length=L,
        num_messages=M,
    )
    loop = BatchStepLoop(T, M, release, caps)
    loop.mark_trivial(trivial, release)
    kernel = RestrictedKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        capacities=B,
        rngs=rngs,
    )
    loop.run(kernel.body)
    return loop.results()


# ----------------------------------------------------------------------
# Adaptive mesh routing (Section 1.3.4's category).
# ----------------------------------------------------------------------


def run_adaptive_batch(
    cube: KAryNCube,
    demands: list[tuple[int, int]],
    message_length: int,
    *,
    seeds: Sequence,
    num_virtual_channels: int | Sequence[int] = 1,
    policy: str = "west-first",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[AdaptiveRunResult]:
    """Lockstep batch of :class:`~repro.sim.adaptive.AdaptiveMeshRouter`
    trials — one per seed, with per-trial ``B``.  Returns
    :class:`~repro.sim.adaptive.AdaptiveRunResult` objects so each
    trial's adaptively chosen routes stay inspectable."""
    rngs = _seed_rngs(seeds, "run_adaptive_batch")
    T = len(rngs)
    probes = _probes(telemetry, T, "run_adaptive_batch")
    if cube.n != 2 or cube.wrap:
        raise NetworkError("adaptive routing is implemented for 2-D meshes")
    B = _per_trial(num_virtual_channels, T, "num_virtual_channels")
    if B.min() < 1:
        raise NetworkError("need at least one virtual channel")
    if policy not in _POLICIES:
        raise NetworkError(f"policy must be one of {_POLICIES}")
    L = int(message_length)
    if L < 1:
        raise NetworkError("message length L must be >= 1")

    M = len(demands)
    release = _shared_release(release_times, M)
    # Minimal routes all have the Manhattan length.
    dists = np.asarray(
        [
            sum(
                abs(a - b)
                for a, b in zip(cube.coords(s), cube.coords(d))
            )
            for s, d in demands
        ],
        dtype=np.int64,
    )
    meta = RunMeta(
        simulator="adaptive",
        num_messages=M,
        num_edges=cube.network.num_edges,
        num_virtual_channels=int(B[0]),
        paths=None,
        lengths=dists,
        message_length=np.full(M, L, dtype=np.int64),
        release=release,
        extra={"flits_per_grant": L, "policy": policy},
    )
    if M == 0:
        return [
            AdaptiveRunResult(r, []) for r in _empty_results(T, probes, meta)
        ]
    caps = resolve_step_cap(
        max_steps, "adaptive", release=release, lengths=dists, message_length=L
    )
    loop = BatchStepLoop(T, M, release, caps)
    loop.mark_trivial(dists == 0, release)
    kernel = AdaptiveKernel(
        loop,
        cube=cube,
        demands=demands,
        message_length=L,
        dists=dists,
        capacities=B,
        policy=policy,
        rngs=rngs,
        probes=probes,
    )
    _start(loop, probes, meta)
    loop.run(kernel.body)
    return [
        AdaptiveRunResult(res, kernel.taken_paths(i))
        for i, res in enumerate(loop.results())
    ]


# ----------------------------------------------------------------------
# The model registry and the two ways to run a model.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Everything a front end needs to run one flit-level router model.

    ``knob`` is the model's buffering keyword — what :func:`repro.simulate`
    and the sweep call ``B`` — shared by the serial constructor and the
    runner (per trial there).  ``choice`` names the arbitration keyword
    (``"priority"`` or the adaptive turn model's ``"policy"``; ``None``
    for the restricted model, which has neither) and ``default`` its
    value when a caller leaves it unset.  ``mesh`` models route
    ``(cube, demands)`` problems online instead of ``(net, paths)``.
    ``options`` lists the run keywords beyond ``release_times`` /
    ``max_steps`` the model accepts; ``telemetry`` says whether its runs
    accept probes.
    """

    name: str
    serial: type
    runner: str
    knob: str
    choice: str | None
    default: str | None
    mesh: bool = False
    telemetry: bool = True
    options: tuple[str, ...] = ()

    def accepts(self, option: str) -> bool:
        """Whether a run of this model takes the ``option`` keyword."""
        return (
            option in ("release_times", "max_steps")
            or option in self.options
            or (option == "telemetry" and self.telemetry)
        )


#: The five flit-level models, in paper order.
MODEL_SPECS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec(
            name="wormhole",
            serial=WormholeSimulator,
            runner="run_wormhole_batch",
            knob="num_virtual_channels",
            choice="priority",
            default="random",
            options=("vc_ids",),
        ),
        ModelSpec(
            name="cut_through",
            serial=CutThroughSimulator,
            runner="run_cut_through_batch",
            knob="buffer_flits",
            choice="priority",
            default="random",
        ),
        ModelSpec(
            name="store_forward",
            serial=StoreForwardSimulator,
            runner="run_store_forward_batch",
            knob="bandwidth_flits_per_step",
            choice="priority",
            default="farthest",
        ),
        ModelSpec(
            name="restricted",
            serial=RestrictedWormholeSimulator,
            runner="run_restricted_batch",
            knob="num_buffers",
            choice=None,
            default=None,
            telemetry=False,
        ),
        ModelSpec(
            name="adaptive",
            serial=AdaptiveMeshRouter,
            runner="run_adaptive_batch",
            knob="num_virtual_channels",
            choice="policy",
            default="west-first",
            mesh=True,
        ),
    )
}

#: Models with a lockstep batch runner (all of them — the sweep packer,
#: the service batcher, and the facade key off this set).
BATCHED_MODELS = frozenset(MODEL_SPECS)


def _model_args(
    model: str, problem, B, choice: str | None, options: dict[str, Any]
) -> tuple[ModelSpec, tuple, dict[str, Any], dict[str, Any]]:
    """Resolve one call: spec, positional problem, settings, run options.

    ``problem`` is a :class:`~repro.sim.sweep.Workload` (anything with
    ``net`` / ``padded_paths()`` or ``cube`` / ``demands``).  Options
    left at ``None`` are dropped; any other option the model does not
    take is an error.
    """
    try:
        spec = MODEL_SPECS[model]
    except KeyError:
        raise NetworkError(
            f"model {model!r} has no lockstep runner; flit-level models: "
            f"{', '.join(MODEL_SPECS)}"
        ) from None
    if spec.mesh:
        if problem.cube is None or problem.demands is None:
            raise NetworkError(
                f"the {model} model needs a mesh problem (a (cube, demands) "
                "tuple or a mesh workload such as mesh-permutation)"
            )
        args = (problem.cube, problem.demands)
    else:
        args = (problem.net, problem.padded_paths())
    settings: dict[str, Any] = {spec.knob: B}
    if spec.choice is not None:
        settings[spec.choice] = choice or spec.default
    run_kw = {k: v for k, v in options.items() if v is not None}
    for key in run_kw:
        if not spec.accepts(key):
            takers = [m for m, s in MODEL_SPECS.items() if s.accepts(key)]
            raise NetworkError(
                f"model {model!r} does not accept {key}= (models that do: "
                f"{', '.join(takers) or 'none'})"
            )
    return spec, args, settings, run_kw


def _unwrap(result):
    """The :class:`SimulationResult` (adaptive runs also carry routes)."""
    return result.result if isinstance(result, AdaptiveRunResult) else result


def run_trial(
    model: str,
    problem,
    message_length,
    *,
    seed,
    B: int,
    choice: str | None = None,
    **options,
) -> SimulationResult:
    """One trial of ``model`` through its serial simulator class.

    ``B`` is the model's buffering knob and ``choice`` its arbitration
    keyword's value (``None`` = the registry default); ``options`` are
    run keywords such as ``release_times``, ``max_steps``, ``vc_ids`` or
    ``telemetry``.  Bit-identical to ``run_trials(..., seeds=[seed])``.
    """
    spec, (where, what), settings, run_kw = _model_args(
        model, problem, B, choice, options
    )
    sim = spec.serial(where, **settings, seed=seed)
    return _unwrap(sim.run(what, message_length, **run_kw))


def run_trials(
    model: str,
    problem,
    message_length,
    *,
    seeds: Sequence,
    B,
    choice: str | None = None,
    **options,
) -> list[SimulationResult]:
    """``len(seeds)`` trials of ``model`` in one lockstep runner call.

    ``B`` is a scalar or one knob value per seed; the rest is as in
    :func:`run_trial`.  The runner is looked up on this module at call
    time, so a wrapper installed over ``run_<model>_batch`` sees every
    call.
    """
    spec, (where, what), settings, run_kw = _model_args(
        model, problem, B, choice, options
    )
    runner = globals()[spec.runner]
    runs = runner(where, what, message_length, seeds=seeds, **settings, **run_kw)
    return [_unwrap(r) for r in runs]
