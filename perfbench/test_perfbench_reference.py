"""The benchmark's independent reference propagator agrees with qugray on
tiny configurations. Run with `PYTHONPATH=src pytest perfbench`."""

import importlib.resources

import numpy as np
import pytest

import reference
from qugray import config, dynamics, noisegen, pulses


def tiny_config(preset, steps=64, realizations=4):
    text = (importlib.resources.files("qugray") / "presets" /
            f"{preset}.cfg").read_text()
    parsed = config.parse_config_text(text)
    parsed["time_steps"] = steps
    parsed["realisations"] = realizations
    return config.build_system_config(parsed)


@pytest.mark.parametrize("preset", ["qutrit_desk_strong", "qubit_desk_strong"])
def test_propagators_match_ensemble(preset):
    cfg = tiny_config(preset)
    params = pulses.sample_random_params(cfg.dim, cfg.n_max, cfg.a_max(),
                                         seed=2)
    real_set = noisegen.synthesize(cfg.noise, seed=3)
    wave = reference.drive(params.flatten(), cfg.dim, cfg.n_max,
                           cfg.carrier.scales, cfg.carrier.drive_freqs,
                           cfg.carrier.total_time, cfg.carrier.steps)
    ours = reference.propagators(cfg.omega, cfg.g, wave,
                                 real_set.samples.transpose(1, 2, 0),
                                 cfg.carrier.dt)
    theirs = dynamics.propagate_ensemble(cfg, params, real_set)
    assert np.abs(ours - theirs).max() < 1e-10


@pytest.mark.parametrize("preset",
                         ["qutrit_desk_strong", "qutrit_desk_closed"])
def test_expectations_match_dataset(preset):
    cfg = tiny_config(preset)
    examples, manifest = dynamics.generate_dataset(cfg, 2, seed=5)
    noise = None if cfg.closed else \
        noisegen.synthesize(cfg.noise, seed=manifest["seed"]).samples
    for ex in examples:
        ref = reference.example_expectations(cfg, ex.theta, noise)
        assert np.abs(ref - ex.expectations).max() < 1e-10
