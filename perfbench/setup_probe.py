"""Set-up cost of a fresh interpreter: import qugray, load the workload's
configs, and warm up the propagation kernel and the noise FFT once per
config. Prints the elapsed seconds.

    python3 perfbench/setup_probe.py CONFIG [CONFIG ...]
"""

import time

_START = time.perf_counter()

import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up(config_paths):
    import numpy as np
    from qugray import config, dynamics, noisegen, pulses
    for path in config_paths:
        cfg, _ = config.load_config(path)
        zero = pulses.PulseParams(cfg.dim,
                                  np.zeros((cfg.n_max, cfg.dim - 1, 2)))
        dynamics.propagate_closed(cfg, zero)
        noisegen.synthesize(dataclasses.replace(cfg.noise, realizations=1),
                            seed=0)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import qugray.cli  # noqa: F401  (imports every layer)
    warm_up(sys.argv[1:])
    print(repr(time.perf_counter() - _START))
