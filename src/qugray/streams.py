"""Keys of every random stream in the package.

Each stream is a Philox generator seeded by
SeedSequence(entropy=seed, spawn_key=key). Noise channels own the one-word
keys (channel,), and realization r of a channel is that channel's stream
jumped r times: its counter starts with word 2 set to r, so every
realization owns a disjoint block of 2**128 draws under the channel's key.
Every other stream has the three-word key (domain, index, 0): a key of
another length never equals a noise key, whatever the number of noise
channels d, so no consumer can replay a noise realization's draws.
"""

import operator

import numpy as np

EXAMPLE_PULSE = 1      # index: dataset example
OPTIMIZER_RESTART = 2  # index: restart
WEIGHT_INIT = 3
TRAINING_BATCHES = 4


def generator(seed, domain, index=0):
    """Stream `index` of a non-noise domain (one of the constants above)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index, 0))
    return np.random.Generator(np.random.Philox(ss))


def noise_key(seed, channel):
    """Philox key (2 uint64) of noise channel `channel`, the key
    Philox(SeedSequence(entropy=seed, spawn_key=(channel,))) takes. A
    channel of 2**32 or more would take two key words."""
    channel = operator.index(channel)
    if not 0 <= channel < 2 ** 32:
        raise ValueError(f"noise channel {channel} needs an index in "
                         "[0, 2**32)")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,))
    return ss.generate_state(2, np.uint64)
