"""Keys of every random stream in the package.

Each stream is a Philox generator seeded by
SeedSequence(entropy=seed, spawn_key=key). Noise realizations own the
two-word keys (channel, realization). Every other stream has the three-word
key (domain, index, 0): a key of another length never equals a noise key,
whatever the number of noise channels d, so no consumer can replay a noise
realization's draws.
"""

import numpy as np

EXAMPLE_PULSE = 1      # index: dataset example
OPTIMIZER_RESTART = 2  # index: restart
WEIGHT_INIT = 3
TRAINING_BATCHES = 4
GRADIENT_CHECK = 5


def _philox(seed, key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def noise_generator(seed, channel, realization):
    """Stream of one noise realization on one channel."""
    return _philox(seed, (channel, realization))


def generator(seed, domain, index=0):
    """Stream `index` of a non-noise domain (one of the constants above)."""
    return _philox(seed, (domain, index, 0))
