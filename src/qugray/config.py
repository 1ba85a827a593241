"""Flat key-value run configuration files.

Format: one `key = value` per line, `#` comments. Keys mirror the system
parameter tables (`evolution_time_s`, `time_steps`, `realisations`,
`omega_1_hz`, `g_1`, `alpha_1`, ...). Every physical quantity carries its
unit in the key suffix; `_hz` values are multiplied by 2 pi at load so the
in-memory system always works in rad/s. Unknown keys are rejected.

Shipped presets cover the full-scale qubit/qutrit parameter tables and the
rescaled desk-scale variants used by the test suite (frequencies scaled so
omega_1 * T ~ 7e2 with >= 8 samples per carrier period at M = 1000, noise
couplings rescaled to preserve the strong-noise operator deviations).
"""

import numpy as np

from .dynamics import SystemConfig
from .errors import InvalidConfigError
from .noisegen import NoiseSpec
from .pulses import CarrierSpec

_GLOBAL_KEYS = {
    "dimension": int,
    "evolution_time_s": float,
    "time_steps": int,
    "realisations": int,
    "n_max": int,
    "alpha_1": float,
    "alpha_2": float,
    "noise_f_min_hz": float,
    "seed": int,
    "basis": str,
}


def _allowed_keys(d):
    keys = dict(_GLOBAL_KEYS)
    for j in range(d):
        keys[f"omega_{j}_hz"] = float
        keys[f"omega_{j}_rad_s"] = float
        keys[f"g_{j}"] = float
    for i in range(1, d):
        keys[f"drive_frequency_{i}_hz"] = float
        keys[f"drive_frequency_{i}_rad_s"] = float
        keys[f"carrier_amplitude_{i}"] = float
    return keys


def parse_config_text(text, source="<config>"):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidConfigError(f"{source}:{lineno}: expected key = value")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise InvalidConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    if "dimension" not in raw:
        raise InvalidConfigError(f"{source}: missing required key 'dimension'")
    try:
        d = int(raw["dimension"])
    except ValueError as exc:
        raise InvalidConfigError(f"{source}: bad dimension: {exc}") from exc
    allowed = _allowed_keys(d)
    parsed = {}
    for key, value in raw.items():
        if key not in allowed:
            raise InvalidConfigError(f"{source}: unknown key {key!r} for "
                                     f"dimension {d}")
        try:
            parsed[key] = allowed[key](value)
        except ValueError as exc:
            raise InvalidConfigError(f"{source}: bad value for {key}: {exc}") \
                from exc
    return parsed


def _freq(parsed, stem, source, required=True, default=None):
    """Fetch a rad/s value given either the _hz or _rad_s spelling."""
    hz_key, rad_key = f"{stem}_hz", f"{stem}_rad_s"
    if hz_key in parsed and rad_key in parsed:
        raise InvalidConfigError(f"{source}: give {hz_key} or {rad_key}, not both")
    if hz_key in parsed:
        return 2.0 * np.pi * parsed[hz_key]
    if rad_key in parsed:
        return parsed[rad_key]
    if required:
        raise InvalidConfigError(f"{source}: missing {hz_key} or {rad_key}")
    return default


def build_system_config(parsed, source="<config>"):
    d = parsed["dimension"]
    for key in ("evolution_time_s", "time_steps", "realisations", "n_max",
                "alpha_1", "alpha_2"):
        if key not in parsed:
            raise InvalidConfigError(f"{source}: missing required key {key!r}")
    if parsed.get("seed", 0) < 0:
        raise InvalidConfigError(f"{source}: seed must be >= 0, got "
                                 f"{parsed['seed']}")
    T = parsed["evolution_time_s"]
    M = parsed["time_steps"]
    omega = [_freq(parsed, f"omega_{j}", source, required=(j > 0), default=0.0)
             for j in range(d)]
    drive = [_freq(parsed, f"drive_frequency_{i}", source) for i in range(1, d)]
    scales = []
    for i in range(1, d):
        key = f"carrier_amplitude_{i}"
        if key not in parsed:
            raise InvalidConfigError(f"{source}: missing required key {key!r}")
        scales.append(parsed[key])
    g = [parsed.get(f"g_{j}", 0.0) for j in range(d)]
    carrier = CarrierSpec(scales=scales, drive_freqs=drive, total_time=T,
                          steps=M)
    noise = NoiseSpec(alpha1=parsed["alpha_1"], alpha2=parsed["alpha_2"],
                      channels=d, realizations=parsed["realisations"],
                      steps=M, total_time=T,
                      f_min=parsed.get("noise_f_min_hz"))
    return SystemConfig(dim=d, omega=omega, carrier=carrier, g=g, noise=noise,
                        basis=parsed.get("basis", "gell_mann"),
                        seed=parsed.get("seed", 0),
                        n_max=parsed["n_max"])


def list_presets():
    import importlib.resources  # only preset-name lookups need it
    root = importlib.resources.files("qugray") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_config(path_or_preset):
    """Load a config file; bare preset names resolve to the shipped files."""
    import os
    if os.path.exists(path_or_preset):
        with open(path_or_preset) as fh:
            text = fh.read()
        source = path_or_preset
    else:
        import importlib.resources
        resource = importlib.resources.files("qugray") / "presets" / \
            f"{path_or_preset}.cfg"
        if not resource.is_file():
            raise InvalidConfigError(
                f"{path_or_preset!r} is neither a file nor a preset; presets: "
                + ", ".join(list_presets()))
        text = resource.read_text()
        source = f"preset:{path_or_preset}"
    parsed = parse_config_text(text, source=source)
    return build_system_config(parsed, source=source), parsed
