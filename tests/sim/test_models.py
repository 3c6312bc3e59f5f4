"""The model registry and the one way to run a trial.

Every flit-level router is one :data:`repro.sim.batch.MODEL_SPECS`
entry; its serial class is a ``T = 1`` call of its lockstep runner, so
validation, step caps and telemetry behave the same whichever entry
point a caller uses.
"""

import inspect

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import NetworkError
from repro.network.mesh import KAryNCube
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim import batch
from repro.sim.batch import BATCHED_MODELS, MODEL_SPECS, run_trial, run_trials
from repro.sim.sweep import Workload
from repro.telemetry import TraceRecorder

MODELS = sorted(MODEL_SPECS)
L = 4


def _problem(model):
    """A two-message problem for ``model`` (a mesh for adaptive)."""
    if MODEL_SPECS[model].mesh:
        cube = KAryNCube(4, 2, wrap=False)
        return cube, [(0, 15), (3, 12)]
    net, walks = chain_bundle(1, 4, 2)
    return net, paths_from_node_walks(net, walks)


def _serial(model, release_times):
    spec = MODEL_SPECS[model]
    where, what = _problem(model)
    sim = spec.serial(where, seed=0)
    return sim.run(what, L, release_times=release_times)


def _simulate_seed(model, release_times):
    return simulate(
        _problem(model),
        model=model,
        seed=0,
        message_length=L,
        release_times=release_times,
    )


def _simulate_batch(model, release_times):
    return simulate(
        _problem(model),
        model=model,
        batch=[0, 1],
        message_length=L,
        release_times=release_times,
    )


BAD_RELEASES = {
    "negative": [-3, 0],
    "mis-shaped": [0, 0, 0],
}


@pytest.mark.parametrize("bad", sorted(BAD_RELEASES))
@pytest.mark.parametrize(
    "entry",
    [_serial, _simulate_seed, _simulate_batch],
    ids=["serial", "simulate-seed", "simulate-batch"],
)
@pytest.mark.parametrize("model", MODELS)
def test_release_times_are_validated_on_every_entry_point(model, entry, bad):
    with pytest.raises(NetworkError, match="release"):
        entry(model, np.asarray(BAD_RELEASES[bad], dtype=np.int64))


def test_registry_covers_the_batched_models():
    assert set(MODEL_SPECS) == set(BATCHED_MODELS)
    for name, spec in MODEL_SPECS.items():
        assert spec.name == name
        runner = getattr(batch, spec.runner)
        params = inspect.signature(runner).parameters
        assert spec.knob in params
        assert spec.knob in inspect.signature(spec.serial).parameters
        if spec.choice is not None:
            assert params[spec.choice].default == spec.default
        assert ("telemetry" in params) == spec.telemetry
        for option in spec.options:
            assert option in params


@pytest.mark.parametrize("model", MODELS)
def test_run_trial_matches_run_trials(model):
    where, what = _problem(model)
    if MODEL_SPECS[model].mesh:
        wl = Workload(net=where.network, cube=where, demands=what)
    else:
        wl = Workload(net=where, paths=what)
    one = run_trial(model, wl, L, seed=7, B=2)
    (many,) = run_trials(model, wl, L, seeds=[7], B=[2])
    assert one.completion_times.tolist() == many.completion_times.tolist()
    assert one.steps_executed == many.steps_executed
    assert one.blocked_steps.tolist() == many.blocked_steps.tolist()


def test_run_helpers_reject_options_a_model_does_not_take():
    net, paths = _problem("cut_through")
    wl = Workload(net=net, paths=paths)
    with pytest.raises(NetworkError, match="vc_ids"):
        run_trial("cut_through", wl, L, seed=0, B=1, vc_ids=[[0] * 4] * 2)
    with pytest.raises(NetworkError, match="telemetry"):
        run_trial("restricted", wl, L, seed=0, B=1, telemetry=[TraceRecorder()])
    with pytest.raises(NetworkError, match="mesh"):
        run_trials("adaptive", wl, L, seeds=[0], B=1)


@pytest.mark.parametrize(
    "model", [m for m in MODELS if MODEL_SPECS[m].telemetry]
)
def test_probes_attach_to_one_trial_only(model):
    spec = MODEL_SPECS[model]
    where, what = _problem(model)
    runner = getattr(batch, spec.runner)
    with pytest.raises(NetworkError, match="single trial"):
        runner(where, what, L, seeds=[0, 1], telemetry=[TraceRecorder()])
    recorder = TraceRecorder()
    runner(where, what, L, seeds=[0], telemetry=[recorder])
    assert recorder.to_trace().steps > 0


@pytest.mark.parametrize("model", MODELS)
def test_reused_serial_instance_continues_its_rng_stream(model):
    spec = MODEL_SPECS[model]
    where, what = _problem(model)
    settings = {spec.knob: 1}
    if spec.choice == "priority":
        settings["priority"] = "random"
    sim = spec.serial(where, **settings, seed=11)
    first = sim.run(what, L)
    second = sim.run(what, L)

    rng = np.random.default_rng(11)
    runner = getattr(batch, spec.runner)
    want = [runner(where, what, L, seeds=[rng], **settings)[0] for _ in range(2)]
    for got, ref in zip((first, second), want):
        got = getattr(got, "result", got)
        ref = getattr(ref, "result", ref)
        assert got.completion_times.tolist() == ref.completion_times.tolist()
        assert got.blocked_steps.tolist() == ref.blocked_steps.tolist()
    # Both runs drew from one stream: the instance's generator now sits
    # exactly where two continuing runs leave a fresh one.
    assert sim._rng.bit_generator.state == rng.bit_generator.state
    fresh = np.random.default_rng(11)
    assert sim._rng.bit_generator.state != fresh.bit_generator.state
