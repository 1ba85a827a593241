"""Random streams never replay one another: dataset pulses and optimizer
restarts draw from keys that no noise realization uses, for any d. Noise
keys computed a block at a time equal SeedSequence's."""

import numpy as np
import pytest

from conftest import make_config
from qugray import control, dynamics, graybox, streams


def noise_stream(seed, channel, realization):
    """The noise realization's stream, keyed as noise ensembles always were."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,
                                                         realization))
    return np.random.Generator(np.random.Philox(ss))


def seed_sequence_keys(seed, channel, start, stop):
    """Philox keys of realizations [start, stop), one SeedSequence each."""
    return np.array([np.random.SeedSequence(
        entropy=seed, spawn_key=(channel, r)).generate_state(2, np.uint64)
        for r in range(start, stop)], dtype=np.uint64).reshape(-1, 2)


def test_noise_keys_unchanged():
    # a Philox keyed by noise_keys replays the realization's stream
    for channel, realization in ((0, 0), (1, 5), (3, 2)):
        key = streams.noise_keys(7, channel, realization, realization + 1)[0]
        np.testing.assert_array_equal(
            np.random.Generator(np.random.Philox(key=key)).random(8),
            noise_stream(7, channel, realization).random(8))


# 1 to 5 uint32 words of run entropy: below, at and above the pool size of
# 4, where SeedSequence stops zero-padding
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 70 + 3, 2 ** 96 - 1,
         2 ** 96, 2 ** 128 + 9, 2 ** 160 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_keys_equal_seed_sequence(seed):
    for channel in (0, 1, 2, 2 ** 32 - 1):
        for start, stop in ((0, 6), (37, 41), (2 ** 32 - 3, 2 ** 32)):
            keys = streams.noise_keys(seed, channel, start, stop)
            assert keys.dtype == np.uint64
            np.testing.assert_array_equal(
                keys, seed_sequence_keys(seed, channel, start, stop))


def test_noise_keys_accept_numpy_integers_and_empty_ranges():
    np.testing.assert_array_equal(
        streams.noise_keys(np.int64(9), np.int64(2), 3, 5),
        seed_sequence_keys(9, 2, 3, 5))
    assert streams.noise_keys(9, 2, 4, 4).shape == (0, 2)


@pytest.mark.parametrize("seed, channel, start, stop", [
    (0, 2 ** 32, 0, 1),          # channel would span two words
    (0, 0, 0, 2 ** 32 + 1),      # realization 2**32 would too
    (0, 0, 2 ** 32, 2 ** 32 + 1),
    (0, -1, 0, 1),
    (0, 0, -1, 1),
    (0, 0, 3, 2),
    (-1, 0, 0, 1),
])
def test_noise_keys_reject_indices_outside_one_word(seed, channel, start,
                                                     stop):
    with pytest.raises(ValueError):
        streams.noise_keys(seed, channel, start, stop)


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
