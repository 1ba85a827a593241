"""Random streams never replay one another: dataset pulses and optimizer
restarts draw from keys that no noise realization uses, for any d."""

import numpy as np

from conftest import make_config
from qugray import control, dynamics, graybox, streams


def noise_stream(seed, channel, realization):
    """The noise realization's stream, keyed as noise ensembles always were."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,
                                                         realization))
    return np.random.Generator(np.random.Philox(ss))


def test_noise_keys_unchanged():
    for channel, realization in ((0, 0), (1, 5), (3, 2)):
        np.testing.assert_array_equal(
            streams.noise_generator(7, channel, realization).random(8),
            noise_stream(7, channel, realization).random(8))


def test_example_pulses_do_not_replay_channel_1_noise():
    cfg = make_config(d=3, steps=64, realizations=4)
    a_max = cfg.a_max()
    for index in range(3):
        amps = dynamics._sample_example_params(cfg, a_max, 4, index).amplitudes
        replay = noise_stream(4, 1, index).uniform(-a_max, a_max,
                                                   size=amps.shape)
        assert not np.array_equal(amps, replay)


def test_d4_restart_does_not_replay_channel_3_noise():
    cfg = make_config(d=4, steps=64, realizations=4)
    bound = cfg.a_max()
    # with no descent steps the result is the restart's seeded start point
    res = control.optimize_gate(graybox.ExactClosedModel(cfg), "X01",
                                restarts=1, seed=2, max_iters=0)
    # drawn in the restart's own coordinates u = theta / bound, so a key
    # collision would reproduce theta_star bit for bit
    replay = bound * noise_stream(2, 3, 0).uniform(-0.6, 0.6,
                                                   size=res.theta_star.size)
    assert not np.array_equal(res.theta_star, replay)
