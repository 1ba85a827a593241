"""Keys of every random stream in the package.

Each stream is a Philox generator seeded by
SeedSequence(entropy=seed, spawn_key=key). Noise realizations own the
two-word keys (channel, realization). Every other stream has the three-word
key (domain, index, 0): a key of another length never equals a noise key,
whatever the number of noise channels d, so no consumer can replay a noise
realization's draws.

Noise keys are needed for whole blocks of realizations at once, so
`noise_keys` computes them with numpy's documented SeedSequence hash
vectorized over the realization index, instead of one SeedSequence per row.
"""

import operator

import numpy as np

EXAMPLE_PULSE = 1      # index: dataset example
OPTIMIZER_RESTART = 2  # index: restart
WEIGHT_INIT = 3
TRAINING_BATCHES = 4
GRADIENT_CHECK = 5

# numpy.random.SeedSequence's hash (pool size 4, uint32 words)
_POOL_SIZE = 4
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_MASK = 0xffffffff
_WORD = 2 ** 32


def generator(seed, domain, index=0):
    """Stream `index` of a non-noise domain (one of the constants above)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index, 0))
    return np.random.Generator(np.random.Philox(ss))


def _words(value):
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = []
    while True:
        words.append(value & _MASK)
        value >>= 32
        if not value:
            return words


def _hashmix(value, const):
    """SeedSequence's hashmix of a uint32 word (an int, or a uint32 array,
    which wraps as the reference's uint32 arithmetic does) under hash
    constant `const` -> (hashed word, next constant)."""
    nxt = const * _MULT_A & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two uint32 words (ints or uint32 arrays)."""
    result = ((_MIX_MULT_L * x & _MASK) - (_MIX_MULT_R * y & _MASK)) & _MASK
    return result ^ result >> 16


def _channel_pool(seed, channel):
    """SeedSequence's entropy pool and hash constant once the run entropy
    and `channel` are mixed in, before the realization word (ints, shared
    by every realization of the channel)."""
    run = _words(seed)
    # with a spawn key present the run entropy is zero-padded to the pool
    run += [0] * (_POOL_SIZE - len(run))
    const = _INIT_A
    pool = []
    for word in run[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in run[_POOL_SIZE:] + [channel]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return tuple(pool), const


def noise_keys(seed, channel, start, stop):
    """Philox keys of noise realizations [start, stop) on `channel`, shape
    (stop - start, 2) uint64. Row i equals
    SeedSequence(entropy=seed, spawn_key=(channel, start + i))
    .generate_state(2, np.uint64), the key `Philox` takes from that
    SeedSequence. A spawn-key element of 2**32 or more would take two
    words, so indices must lie below it."""
    seed, channel = operator.index(seed), operator.index(channel)
    if not 0 <= channel < _WORD or not 0 <= start <= stop <= _WORD:
        raise ValueError(f"noise key (channel {channel}, realizations "
                         f"[{start}, {stop})) needs indices in [0, 2**32)")
    shared, const = _channel_pool(seed, channel)
    realization = np.arange(start, stop, dtype=np.uint32)
    pool = []
    for word in shared:
        value, const = _hashmix(realization, const)
        pool.append(_mix(word, value))
    # generate_state(2, uint64): one uint32 word hashed from each pool word,
    # paired little-endian
    state = np.empty((stop - start, _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i, word in enumerate(pool):
        word = word ^ const
        const = const * _MULT_B & _MASK
        word = word * const & _MASK
        state[:, i] = word ^ word >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)
