"""Random streams never replay one another: dataset pulses and optimizer
restarts draw from keys that no noise realization uses, for any d. A noise
channel's key is SeedSequence's, and realization r is the channel's stream
jumped r times: the key with counter word 2 set to r."""

import numpy as np
import pytest

from conftest import make_config
from qugray import control, dynamics, graybox, noisegen, streams


def noise_stream(seed, channel, realization):
    """The noise realization's stream, built with numpy's documented API."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,))
    return np.random.Generator(np.random.Philox(ss).jumped(realization))


def realization_stream(key, realization):
    """A Philox under `key` with counter word 2 at `realization`."""
    return np.random.Generator(np.random.Philox(
        key=key, counter=[0, 0, realization, 0]))


def test_noise_keys_unchanged():
    # the channel's key, at the realization's counter, replays the stream
    for channel, realization in ((0, 0), (1, 5), (3, 2)):
        key = streams.noise_key(7, channel)
        np.testing.assert_array_equal(
            realization_stream(key, realization).random(8),
            noise_stream(7, channel, realization).random(8))


# 1 to 5 uint32 words of run entropy: below, at and above the pool size of
# 4, where SeedSequence stops zero-padding
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 70 + 3, 2 ** 96 - 1,
         2 ** 96, 2 ** 128 + 9, 2 ** 160 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_keys_equal_seed_sequence(seed):
    for channel in (0, 1, 2, 2 ** 32 - 1):
        key = streams.noise_key(seed, channel)
        assert key.dtype == np.uint64 and key.shape == (2,)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,))
        np.testing.assert_array_equal(key, ss.generate_state(2, np.uint64))
        # realizations past one uint32 word are counter blocks too
        for start, stop in ((0, 6), (37, 41), (2 ** 32 - 3, 2 ** 32 + 2)):
            for r in range(start, stop):
                np.testing.assert_array_equal(
                    realization_stream(key, r).random(4),
                    noise_stream(seed, channel, r).random(4))


def small_spec(channels=2, realizations=6):
    return noisegen.NoiseSpec(alpha1=1.0, alpha2=0.0, channels=channels,
                              realizations=realizations, steps=16,
                              total_time=1.0)


def test_noise_keys_accept_numpy_integers_and_empty_ranges():
    np.testing.assert_array_equal(streams.noise_key(np.int64(9),
                                                    np.int64(2)),
                                  streams.noise_key(9, 2))
    spec = small_spec()
    np.testing.assert_array_equal(
        noisegen.synthesize(spec, np.int64(9), 3, 5).samples,
        noisegen.synthesize(spec, 9, 3, 5).samples)
    assert noisegen.synthesize(spec, 9, 4, 4).samples.shape == (2, 0, 16)


# each case puts one index outside its range: the seed or the channel of
# the channel's key, or the realization range drawn under it
@pytest.mark.parametrize("seed, channel, start, stop", [
    (0, 2 ** 32, 0, 1),          # channel would span two words
    (0, -1, 0, 1),
    (0, 0, -1, 1),
    (0, 0, 3, 2),
    (-1, 0, 0, 1),
])
def test_noise_keys_reject_indices_outside_one_word(seed, channel, start,
                                                     stop):
    with pytest.raises(ValueError):
        streams.noise_key(seed, channel)
        noisegen.synthesize(small_spec(channels=1), seed, start, stop)


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
