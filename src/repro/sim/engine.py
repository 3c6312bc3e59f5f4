"""Shared simulation-engine core for every router in :mod:`repro.sim`.

The five routers (wormhole, cut-through, store-and-forward, restricted,
adaptive) implement different *buffer models* but share one synchronous
step protocol and one arbitration kernel.  This module owns that shared
machinery so each router contributes only its advance rule:

:func:`pad_paths` / :func:`check_edge_simple` / :class:`PaddedPaths`
    Path packing and validation (formerly private to the wormhole
    module; re-exported there for back compatibility).
    :class:`PaddedPaths` caches one packed-and-validated matrix so
    repeated runs of the same workload (every seed of a sweep grid
    cell) skip the re-pack and re-check.
:func:`grant_free_slots` / :class:`BatchSlotArbiter`
    The vectorized contend/rank/grant kernel — sort the contenders by
    ``(slot, priority)``, rank each contender within its slot group, and
    grant the first ``free`` of every group — plus occupancy tracking
    for slot models that hold grants across steps (capacity-``B`` edges,
    or capacity-1 ``(edge, VC-class)`` pairs), one flat occupancy array
    over the combined ``(trial, slot)`` key space.  **This is the only
    place in** ``repro.sim`` **where the kernel exists**; the circuit
    and continuous simulators call it too.
:class:`BatchStepLoop`
    The synchronous step protocol — time advance, release gating,
    idle-gap skipping, step caps, deadlock declaration, result assembly
    — for ``T`` independent trials on one shared clock with per-trial
    completion / deadlock / step-cap masking.  It is the only step loop:
    a serial simulator run is a ``T = 1`` loop, which also carries the
    telemetry lifecycle (deadlock and run-end events, the
    ``telemetry_abort`` annotation).
:func:`default_step_cap` / :func:`resolve_step_cap`
    The documented per-model ``max_steps`` bounds with one shared
    override path.

Bit-exactness contract
----------------------
The engine reproduces the original per-router loops *exactly*: the same
RNG draws in the same order, the same arbitration outcomes, the same
probe event ordering, and the same deadlock declarations.  The golden
suite in ``tests/sim/test_golden_equivalence.py`` pins this against
outputs recorded from the pre-engine simulators.

Edge-simplicity note
--------------------
Every slot-holding router validates that paths are edge-simple (a worm
cannot hold two buffer slots on one edge).  The store-and-forward
router is deliberately **exempt**: it holds no per-edge slot across
steps (an edge is owned only within the message step it transmits) and
its queues are unbounded, so a path that repeats an edge is still
well-defined — the message simply queues at that edge again.  See
:mod:`repro.sim.store_forward`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..network.graph import NetworkError
from ..routing.paths import Path
from ..telemetry.probe import ProbeSet
from . import fastpath
from .stats import SimulationResult

__all__ = [
    "BatchSlotArbiter",
    "BatchStepLoop",
    "PaddedPaths",
    "age_priorities",
    "check_edge_simple",
    "default_step_cap",
    "grant_free_slots",
    "grant_free_slots_reference",
    "pad_paths",
    "resolve_step_cap",
]


# ----------------------------------------------------------------------
# Path packing and validation.
# ----------------------------------------------------------------------


def check_edge_simple(
    padded: np.ndarray, what: str = "path of message {m} is not edge-simple"
) -> None:
    """Raise unless every padded path row is free of repeated edge ids.

    A single sort over the padded matrix replaces the former per-message
    ``np.unique`` loop: after sorting each row, a duplicate edge shows
    up as two equal adjacent entries (the ``-1`` padding is masked out),
    so the whole check is one vectorized pass regardless of ``M``.
    """
    if padded.shape[0] == 0 or padded.shape[1] < 2:
        return
    srt = np.sort(padded, axis=1)
    dup = (srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)
    bad = np.flatnonzero(dup.any(axis=1))
    if bad.size:
        raise NetworkError(what.format(m=int(bad[0])))


def pad_paths(paths: Sequence[Path] | Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-message edge-id lists into a padded matrix.

    Returns ``(padded, lengths)`` where ``padded`` has shape
    ``(M, max_len)`` with ``-1`` padding and ``lengths[m]`` is message
    ``m``'s path length ``D_m``.
    """
    if isinstance(paths, PaddedPaths):
        return paths.padded, paths.lengths
    edge_lists = [
        list(p.edges) if isinstance(p, Path) else list(p) for p in paths
    ]
    lengths = np.asarray([len(e) for e in edge_lists], dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    padded = np.full((len(edge_lists), max_len), -1, dtype=np.int64)
    for m, edges in enumerate(edge_lists):
        padded[m, : len(edges)] = edges
    return padded, lengths


class PaddedPaths:
    """A packed path matrix that can be reused across simulator runs.

    Packing (``pad_paths``) and edge-simplicity validation
    (``check_edge_simple``) depend only on the routes, not on ``B``,
    the seed, or the priority discipline — yet every ``run()`` call
    used to redo both.  Wrapping the routes once in a
    :class:`PaddedPaths` and passing *it* wherever ``paths`` is
    accepted amortizes that work over all trials of the workload (the
    sweep runner does this per worker process).

    Instances are simulator-agnostic: validation is cached by
    :meth:`require_edge_simple` after the first successful check, and
    the ``padded`` / ``lengths`` arrays must be treated as read-only.
    """

    __slots__ = ("padded", "lengths", "_edge_simple")

    def __init__(self, padded: np.ndarray, lengths: np.ndarray) -> None:
        self.padded = padded
        self.lengths = lengths
        self._edge_simple = False

    @classmethod
    def from_paths(
        cls, paths: "Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths"
    ) -> "PaddedPaths":
        if isinstance(paths, cls):
            return paths
        return cls(*pad_paths(paths))

    @property
    def num_messages(self) -> int:
        return int(self.lengths.size)

    def require_edge_simple(self, what: str | None = None) -> "PaddedPaths":
        """Validate once; later calls (any caller, any message) are free."""
        if not self._edge_simple:
            if what is None:
                check_edge_simple(self.padded)
            else:
                check_edge_simple(self.padded, what)
            self._edge_simple = True
        return self


# ----------------------------------------------------------------------
# The arbitration kernel.
# ----------------------------------------------------------------------


def grant_free_slots(
    slots: np.ndarray,
    prio: np.ndarray,
    capacity: int | np.ndarray,
    occupancy: np.ndarray | None = None,
) -> np.ndarray:
    """The vectorized contend/rank/grant kernel shared by every router.

    ``slots[i]`` is the slot id contender ``i`` requests and ``prio[i]``
    its priority (smaller wins).  Contenders are sorted by
    ``(slot, priority)``; within each slot group the first
    ``capacity - occupancy[slot]`` contenders are granted.  Returns the
    boolean granted mask aligned with the input order.  Occupancy is
    **not** updated — callers that hold grants across steps acquire via
    :class:`BatchSlotArbiter`.

    ``capacity`` may be a per-contender array (constant within each
    slot group) — this is how :class:`BatchSlotArbiter` arbitrates
    trials with different ``B`` in one call.

    The post-sort rank/grant scan runs on the backend selected by
    :mod:`repro.sim.fastpath` (pure NumPy, or a numba jit of the same
    linear scan); both produce bit-identical masks.
    """
    order = np.lexsort((prio, slots))
    if order.size == 0:
        return np.zeros(0, dtype=bool)
    sorted_slots = slots[order]
    if isinstance(capacity, np.ndarray):
        sorted_caps = capacity[order]
    else:
        sorted_caps = np.full(order.size, capacity, dtype=np.int64)
    granted_sorted = fastpath.segmented_grant(
        sorted_slots, sorted_caps, occupancy
    )
    granted = np.empty(order.size, dtype=bool)
    granted[order] = granted_sorted
    return granted


def grant_free_slots_reference(
    slots: np.ndarray,
    prio: np.ndarray,
    capacity: int | np.ndarray,
    occupancy: np.ndarray | None = None,
) -> np.ndarray:
    """Naive per-slot reference for :func:`grant_free_slots`.

    Kept (not exported to routers) as the oracle for the fastpath
    parity suite: for every distinct slot, stable-sort its contenders
    by priority and grant the first ``capacity - occupancy`` of them.
    Quadratic and allocation-happy — never used in the hot path.
    """
    slots = np.asarray(slots)
    prio = np.asarray(prio)
    granted = np.zeros(slots.size, dtype=bool)
    for slot in np.unique(slots):
        members = np.flatnonzero(slots == slot)
        members = members[np.argsort(prio[members], kind="stable")]
        if isinstance(capacity, np.ndarray):
            free = int(capacity[members[0]])
        else:
            free = int(capacity)
        if occupancy is not None:
            free -= int(occupancy[slot])
        # Over-occupied slots have no free seats, not a wrapped slice.
        granted[members[: max(free, 0)]] = True
    return granted


def age_priorities(release: np.ndarray) -> np.ndarray:
    """Earlier-released-first priority ranks, ties broken by index."""
    return np.lexsort((np.arange(release.size), release)).argsort()


class BatchSlotArbiter:
    """``T`` independent slot pools arbitrated in one kernel call.

    Trial ``i`` owns ``num_slots[i]`` slots with capacity
    ``capacities[i]``; the pools are laid out back to back in one flat
    occupancy array, and every contention round runs
    :func:`grant_free_slots` once over the combined ``(trial, slot)``
    key ``offset[trial] + slot``.  Because keys never collide across
    trials, the grants for each trial are exactly what arbitrating that
    trial's pool on its own would have produced — trials may even have
    different capacities (a mixed-``B`` batch).
    """

    def __init__(
        self,
        num_slots: np.ndarray | Sequence[int],
        capacities: np.ndarray | Sequence[int],
    ) -> None:
        num_slots = np.asarray(num_slots, dtype=np.int64)
        self.capacities = np.asarray(capacities, dtype=np.int64)
        if num_slots.shape != self.capacities.shape or num_slots.ndim != 1:
            raise NetworkError(
                "num_slots and capacities must be 1-D arrays of equal length"
            )
        if num_slots.size and self.capacities.min() < 1:
            raise NetworkError("slot capacity must be >= 1")
        self.num_trials = int(num_slots.size)
        self.offsets = np.zeros(self.num_trials + 1, dtype=np.int64)
        np.cumsum(num_slots, out=self.offsets[1:])
        self.occupancy = np.zeros(int(self.offsets[-1]), dtype=np.int64)

    def keys(self, trials: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Combined ``(trial, slot)`` keys into the flat occupancy."""
        return self.offsets[trials] + slots

    def contend(
        self, trials: np.ndarray, slots: np.ndarray, prio: np.ndarray
    ) -> np.ndarray:
        """Granted mask for one combined round (does not acquire)."""
        if slots.size == 0:
            return np.zeros(0, dtype=bool)
        return grant_free_slots(
            self.keys(trials, slots),
            prio,
            self.capacities[trials],
            self.occupancy,
        )

    def acquire(self, trials: np.ndarray, slots: np.ndarray) -> None:
        np.add.at(self.occupancy, self.keys(trials, slots), 1)

    def vacate(self, trials: np.ndarray, slots: np.ndarray) -> None:
        np.add.at(self.occupancy, self.keys(trials, slots), -1)


# ----------------------------------------------------------------------
# Per-model step caps.
# ----------------------------------------------------------------------


def _wormhole_cap(*, release, total_moves, trivial, **_):
    # Every step, at least one pending message moves (else deadlock is
    # declared), and each message needs L + D - 1 moves.
    if not (~trivial).any():
        return 0
    return int(release.max() + total_moves[~trivial].sum() + 1)


def _cut_through_cap(*, release, lengths, message_length, num_messages, **_):
    # Worst case is full serialization with per-hop drain lag.
    max_d = int(lengths.max())
    return int(
        release.max()
        + (int(message_length.max()) + 2 * max_d + 2) * num_messages
        + 10
    )


def _restricted_cap(*, release, lengths, message_length, num_messages, **_):
    # One flit per edge per step: full serialization costs about
    # L * D per message in the worst case.
    max_d = int(lengths.max())
    return int(
        release.max()
        + (int(message_length.max()) * (max_d + 2) + 4) * num_messages
        + 10
    )


def _store_forward_cap(*, release, lengths, **_):
    # Greedy store-and-forward always grants one message per contended
    # edge, so the schedule needs at most sum(D) message steps of work.
    return int(release.max() + lengths.sum() + 1)


def _adaptive_cap(*, release, lengths, message_length, **_):
    # Minimal adaptive routes have Manhattan length `lengths`; pad per
    # message for drain and injection slack.
    return int(release.max() + (message_length + lengths + 2).sum() + 10)


_STEP_CAPS: dict[str, Callable[..., int]] = {
    "wormhole": _wormhole_cap,
    "cut_through": _cut_through_cap,
    "restricted": _restricted_cap,
    "store_forward": _store_forward_cap,
    "adaptive": _adaptive_cap,
}


def default_step_cap(model: str, **dims) -> int:
    """The documented per-model ``max_steps`` bound.

    Each bound is generous enough that any *live* simulation of that
    buffer model finishes under it, so hitting the cap means livelock
    (or a deadlock the model cannot itself declare).  Accepted ``dims``
    (all NumPy arrays unless noted): ``release``, ``lengths`` (path /
    Manhattan lengths ``D_m``), ``message_length`` (per-message ``L``),
    ``num_messages`` (int), ``total_moves`` (``L + D - 1``),
    ``trivial`` (zero-length-path mask).  Units are the model's native
    steps (flit steps; message steps for store-and-forward).
    """
    try:
        cap = _STEP_CAPS[model]
    except KeyError:
        raise NetworkError(f"no step-cap bound for model {model!r}") from None
    return cap(**dims)


def resolve_step_cap(max_steps: int | None, model: str, **dims) -> int:
    """The shared override path: an explicit ``max_steps`` wins,
    otherwise the model's :func:`default_step_cap` applies."""
    if max_steps is not None:
        return int(max_steps)
    return default_step_cap(model, **dims)


# ----------------------------------------------------------------------
# The batched (lockstep) step loop.
# ----------------------------------------------------------------------

_FAR_FUTURE = np.iinfo(np.int64).max


def _per_trial(value, T: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-trial sequence to a ``(T,)`` array."""
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full(T, int(arr), dtype=np.int64)
    if arr.shape != (T,):
        raise NetworkError(
            f"{name} must be a scalar or match the {T} seeds "
            f"(one entry per trial), got shape {arr.shape}"
        )
    return arr.copy()


class BatchStepLoop:
    """The synchronous step protocol for ``T`` independent trials.

    All trials share one clock and one ``body(t, active)`` call per
    step; per-trial state lives in stacked ``(T, M)`` arrays.  A serial
    simulator run is this loop at ``T = 1``.  The loop owns everything
    that is *not* the buffer model, per trial:

    * release gating: a message released at ``r`` first contends at
      step ``r + 1``;
    * ``active`` is the ``(T, M)`` mask of released, unfinished
      messages of still-running trials; the body mutates
      :attr:`completion` / :attr:`done` / :attr:`blocked` in place and
      returns the ``(T,)`` mask of trials in which any message moved
      (only active messages move, so it lies inside the trials with
      active messages);
    * a trial whose last message completes at step ``t`` is finalized
      with ``steps = t`` and drops out of the active set — the batch
      never stalls on it again;
    * a trial that executed a step without movement while every one of
      its pending messages was already released can never change
      configuration again and is declared deadlocked at that step
      (``detect_deadlock=False`` opts out for models that cannot
      deadlock, e.g. greedy store-and-forward);
    * each trial has its own step cap; a trial that is still pending
      after executing step ``max_steps[i]`` is finalized with the cap
      flag;
    * idle trials (pending messages, none released yet) wait without
      consuming work; when *every* live trial is idle the shared clock
      jumps to the earliest next release (idle-gap skipping).  A trial
      whose next release lies at or beyond its step cap is finalized
      with ``steps`` = that release time and the cap flag set.

    Telemetry is a ``T = 1`` feature: a runner that attaches a
    :class:`~repro.telemetry.probe.ProbeSet` sets :attr:`probes` before
    :meth:`run`.  The loop then stops at the first step after which the
    probes report an abort (pending messages make that a capped run),
    and :meth:`results` dispatches ``on_deadlock`` / ``on_run_end`` and
    records ``extra["telemetry_abort"]`` — so the lifecycle tail is the
    same for every router.

    Bit-exactness per trial holds because a trial's state evolves only
    in steps where it has active messages, and those steps happen at
    the same ``t`` with the same inputs as in its own ``T = 1`` run; the
    steps it merely waits through touch none of its state.

    The per-step bookkeeping is a handful of NumPy calls whatever ``T``
    is: one comparison against a per-message release gate (``release``
    while pending, never once done) yields the active mask, and the
    finish, deadlock and cap checks run only on the steps where a
    message completed, a trial stood still, or the clock reached the
    smallest live cap.
    """

    #: Probes of a ``T = 1`` run (see the class docstring), or ``None``.
    probes: "ProbeSet | None" = None

    def __init__(
        self,
        num_trials: int,
        num_messages: int,
        release: np.ndarray,
        max_steps: np.ndarray | int,
        *,
        detect_deadlock: bool = True,
        time_scale: int | np.ndarray = 1,
    ) -> None:
        T = self.T = int(num_trials)
        M = self.M = int(num_messages)
        # Releases may differ per trial (store-and-forward converts flit
        # steps to per-trial message steps): (M,) or (T, M), broadcast.
        self.release = np.asarray(release, dtype=np.int64)
        self.max_steps = _per_trial(max_steps, T, "max_steps")
        self.detect_deadlock = detect_deadlock
        self.time_scale = _per_trial(time_scale, T, "time_scale")
        self.completion = np.full((T, M), -1, dtype=np.int64)
        self.blocked = np.zeros((T, M), dtype=np.int64)
        self.done = np.zeros((T, M), dtype=bool)
        self.live = np.ones(T, dtype=bool)
        self.steps = np.zeros(T, dtype=np.int64)
        self.deadlocked = np.zeros(T, dtype=bool)
        self.hit_cap = np.zeros(T, dtype=bool)
        self.t = 0

    def mark_trivial(self, trivial: np.ndarray, completion: np.ndarray) -> None:
        """Deliver zero-length-path messages at their release time.

        ``completion`` is ``(M,)`` (shared) or ``(T, M)`` (per trial).
        """
        if not trivial.any():
            return
        self.done[:, trivial] = True
        self.completion[:, trivial] = np.asarray(completion)[..., trivial]

    def _end(self, trials: np.ndarray, steps) -> None:
        """Finalize ``trials`` (a mask or indices) after ``steps`` steps."""
        self.steps[trials] = steps
        self.live[trials] = False
        self._gate[trials] = _FAR_FUTURE
        self._n_live = int(np.count_nonzero(self.live))

    def _end_finished(self, t: int) -> None:
        """Finalize the live trials whose every message is done."""
        finished = self.live & self.done.all(axis=1)
        if finished.any():
            self._end(finished, t)

    def _end_capped(self, t: int, active: np.ndarray | None = None) -> None:
        """Finalize the live trials whose step cap ``t`` has reached.

        A trial that was idle at step ``t`` (no row of ``active``) ends at
        its next release instead: its own clock would have jumped there.
        """
        capped = np.flatnonzero(self.live & (t >= self.max_steps))
        if capped.size:
            steps = np.full(capped.size, t, dtype=np.int64)
            if active is not None:
                idle = ~active[capped].any(axis=1)
                steps[idle] = self._gate[capped[idle]].min(axis=1)
            self.hit_cap[capped] = True
            self._end(capped, steps)

    def run(self, body: Callable[[int, np.ndarray], np.ndarray]) -> None:
        release, done, live = self.release, self.done, self.live
        max_steps, probes = self.max_steps, self.probes
        detect_deadlock = self.detect_deadlock
        t = self.t
        # gate < t is the active mask: a pending message's release time,
        # _FAR_FUTURE once it is done or its trial has ended.
        gate = self._gate = np.where(done, _FAR_FUTURE, release)
        self._n_live = int(np.count_nonzero(live))
        # Trials with nothing to do (all paths trivial) end at step 0; a
        # cap at or below the starting clock ends a trial unstepped.
        self._end_finished(t)
        self._end_capped(t)
        n_done = np.count_nonzero(done)
        next_cap = int(max_steps.min()) if self.T else 0
        while self._n_live:
            t += 1
            active = gate < t
            if not np.count_nonzero(active):
                # Every live trial is idle: a trial whose next release
                # lies at or past its step cap ends right there, and the
                # shared clock jumps to the earliest remaining release.
                rows = np.flatnonzero(live)
                minrel = gate[rows].min(axis=1)
                over = minrel >= max_steps[rows]
                if over.any():
                    self.hit_cap[rows[over]] = True
                    self._end(rows[over], minrel[over])
                if not over.all():
                    t = int(minrel[~over].min())
                continue
            n_live = self._n_live
            moved = body(t, active)
            if probes is not None and probes.aborted:
                # Stop where the probes asked to; pending messages make
                # the run a capped one.
                self.hit_cap |= live & ~done.all(axis=1)
                self._end(live.copy(), t)
                break
            n = np.count_nonzero(done)
            if n != n_done:
                # 1) trials whose last message finished this step
                n_done = n
                np.copyto(gate, _FAR_FUTURE, where=done)
                self._end_finished(t)
            if detect_deadlock and np.count_nonzero(moved) < n_live:
                # 2) deadlock: a trial that executed this step without any
                # movement while all its pending messages were released.
                stuck = live & ~moved & active.any(axis=1)
                unreleased = (~done & (release >= t)).any(axis=1)
                dead = stuck & ~unreleased
                if dead.any():
                    self.deadlocked |= dead
                    self._end(dead, t)
            if t >= next_cap:
                # 3) per-trial step caps.
                self._end_capped(t, active)
                if self._n_live:
                    next_cap = int(max_steps[live].min())
        self.t = t

    def results(
        self, extra_factory: Callable[[int], dict] | None = None
    ) -> list[SimulationResult]:
        """Per-trial :class:`SimulationResult` objects, in trial order.

        ``extra_factory(i)`` supplies trial ``i``'s ``extra`` dict (e.g.
        the store-and-forward per-trial queue-depth telemetry).  With
        :attr:`probes` attached this also ends the run's telemetry: a
        deadlock event, the abort annotation, and ``on_run_end``.
        """
        out = []
        for i in range(self.T):
            completion = self.completion[i].copy()
            out.append(
                SimulationResult(
                    completion_times=completion,
                    makespan=int(completion.max()) if self.M else -1,
                    steps_executed=int(self.steps[i]) * int(self.time_scale[i]),
                    blocked_steps=self.blocked[i].copy(),
                    deadlocked=bool(self.deadlocked[i]),
                    hit_step_cap=bool(self.hit_cap[i]),
                    extra=extra_factory(i) if extra_factory is not None else {},
                )
            )
        probes = self.probes
        if probes is not None:
            (result,) = out
            if result.deadlocked:
                probes.on_deadlock(
                    int(self.steps[0]), np.flatnonzero(~self.done[0])
                )
            elif probes.aborted:
                result.extra["telemetry_abort"] = probes.abort_reason
            probes.on_run_end(result)
        return out
