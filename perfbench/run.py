"""qugray pipeline benchmark.

    python3 perfbench/run.py --workload sim-strong --seed 1 --seconds 30 \
        --trace 0

Run from the root of a qugray source tree; qugray is imported from its
`src/` directory. Every pass runs the whole pipeline in-process through
`qugray.cli.main`: simulate datasets (`gen-dataset`), learn and control
(`gen-dataset` of a closed qutrit, `train`, `optimize`, `landscape`,
`expand`), and verify synthesized noise (`psd-check`). A workload scales up
one of the three stages; the other two run at a small fixed size so that
every workload reports every end-to-end metric:

- sim-strong: 4 qutrit and 8 qubit examples of the strong-noise desk
  presets. The batched noisy-ensemble kernel does most of the work.
- learn-control: the closed-qutrit pipeline at size (128 examples, 20
  training iterations, one restart of 10 optimizer iterations, a 4-pulse
  21-point landscape). Graybox and control dominate, and the kernel runs as
  thousands of single closed trajectories.
- noise-fullscale: `psd-check` of the full-scale strong qutrit preset, a
  3 x 3000 x 13 250 ensemble far beyond the last-level cache.

Passes run until --seconds have elapsed (at least two). They come in pairs:
each pair draws fresh inputs from the seed, and its second pass must
reproduce the first one's outputs byte for byte (the determinism echo).
Quality checks run on the first pass, outside the timed region and the
--seconds budget.

Every stage time is scaled to a reference machine speed by a calibration
mix measured before and after the stage (see calibrate.py), and each
end-to-end metric is the median of the scaled values over the untraced
passes; the values as measured are printed next to them. Set-up time is
scaled the same way. With --trace 1 the second pass of each pair records
spans around every layer's entry points (see tracing.py), and the run
reports per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The run environment, the result and (traced
runs) the spans are also written to .bench_out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["QUGRAY_WORKERS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_ROOT = ROOT / ".bench_work"

MIN_SETUP_PROBES = 5
PROBES_PER_PASS = 3
GATE = "X01"  # one of criterion 8's gates

# Quality thresholds (pass/fail checks, never metrics).
PSD_MID_BAND_MAX_DEV = 0.10      # criterion 3
CLOSED_TEST_MSE_MAX = 1e-3       # criterion 7, closed-system target
REFERENCE_MAX_ABS_DIFF = 1e-9    # dataset vs independent propagator
CLOSED_X0_MAX_DEV = 0.05         # criterion 9: X_0 within 0.05 of I


@dataclass(frozen=True)
class Sizes:
    qutrit_examples: int
    qubit_examples: int
    closed_examples: int
    train_iters: int
    optimize_iters: int
    landscape_pulses: int
    landscape_grid: int
    noise_preset: str
    noise_realizations: int  # 0 keeps the preset's ensemble size


# The other stages run at a small fixed size (2 qutrit and 4 qubit
# examples; closed pipeline of 64 examples, 10 training and 3 optimizer
# iterations, a 2-pulse 21-point landscape; noise on a 3 x 1500 x 1000 desk
# ensemble, enough realizations for the 10% mid-band PSD check) so that each
# workload's own stage takes most of its wall time. Passes are kept short
# (a few seconds) so that every metric is a median of many samples.
WORKLOADS = {
    "sim-strong": Sizes(4, 8, 64, 10, 3, 2, 21, "qutrit_desk_strong", 1500),
    "learn-control": Sizes(2, 4, 128, 20, 10, 4, 21, "qutrit_desk_strong",
                           1500),
    "noise-fullscale": Sizes(2, 4, 64, 10, 3, 2, 21,
                             "qutrit_fullscale_strong", 0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.qutrit_examples_per_s": "examples/s",
    "sim.qubit_examples_per_s": "examples/s",
    "learn.time_to_gate_s": "s",
    "train.iters_per_s": "iter/s",
    "optimize.gate_s": "s",
    "landscape.rows_per_s": "rows/s",
    "noise.realizations_per_s": "realizations/s",
}


def import_qugray():
    if not (SRC / "qugray" / "__init__.py").is_file():
        sys.exit(f"error: no qugray sources under {SRC}; run the benchmark "
                 "from the root of a qugray source tree")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qugray
    if Path(qugray.__file__).resolve().parent != SRC / "qugray":
        sys.exit(f"error: imported qugray from {qugray.__file__}, "
                 f"expected {SRC / 'qugray'}")


class Ledger:
    """Attempted and failed operations; a failure is a stage with a
    non-zero exit code or non-finite output, or a missed check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)


# -- inputs -----------------------------------------------------------------

def write_config(preset, path, seed, realizations=0):
    """Copy a shipped preset, setting its seed (and ensemble size)."""
    import importlib.resources
    text = (importlib.resources.files("qugray") / "presets" /
            f"{preset}.cfg").read_text()
    out = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if key == "seed":
            line = f"seed = {seed}"
        elif key == "realisations" and realizations:
            line = f"realisations = {realizations}"
        out.append(line)
    path.write_text("\n".join(out) + "\n")
    return str(path)


@dataclass
class Inputs:
    configs: dict
    seeds: dict
    landscape_ids: list
    expand_id: int


def make_inputs(sizes, seed, pair, work):
    """Inputs of the `pair`-th pair of passes of a run with `seed`: preset
    copies with derived seeds, the landscape pulses and the expanded pulse.
    Every pair draws fresh inputs so that a run's medians average over
    inputs, not over one draw; the two passes of a pair share them."""
    rng = random.Random(seed * 1_000_003 + pair)
    seeds = {k: rng.randrange(1, 2 ** 31)
             for k in ("sim", "closed", "train", "optimize", "noise")}
    work.mkdir()
    configs = {
        "qutrit": write_config("qutrit_desk_strong", work / "qutrit.cfg",
                               seeds["sim"]),
        "qubit": write_config("qubit_desk_strong", work / "qubit.cfg",
                              seeds["sim"]),
        "closed": write_config("qutrit_desk_closed", work / "closed.cfg",
                               seeds["closed"]),
        "noise": write_config(sizes.noise_preset, work / "noise.cfg",
                              seeds["noise"], sizes.noise_realizations),
    }
    return Inputs(configs=configs, seeds=seeds,
                  landscape_ids=rng.sample(range(sizes.closed_examples),
                                           sizes.landscape_pulses),
                  expand_id=rng.randrange(sizes.closed_examples))


# -- one pass -----------------------------------------------------------------

def stages(sizes, inputs, f):
    """(label, argv) of every stage of a pass, in order."""
    c, s = inputs.configs, inputs.seeds
    ids = ",".join(map(str, inputs.landscape_ids))
    return [
        ("gen-qutrit", ["gen-dataset", "--config", c["qutrit"], "--out",
                        f["qutrit.jsonl"], "--examples",
                        str(sizes.qutrit_examples), "--seed", str(s["sim"]),
                        "--workers", "1"]),
        ("gen-qubit", ["gen-dataset", "--config", c["qubit"], "--out",
                       f["qubit.jsonl"], "--examples",
                       str(sizes.qubit_examples), "--seed", str(s["sim"]),
                       "--workers", "1"]),
        ("gen-closed", ["gen-dataset", "--config", c["closed"], "--out",
                        f["closed.jsonl"], "--examples",
                        str(sizes.closed_examples), "--seed",
                        str(s["closed"]), "--workers", "1"]),
        ("train", ["train", "--dataset", f["closed.jsonl"], "--out",
                   f["closed.qgm"], "--iters", str(sizes.train_iters),
                   "--seed", str(s["train"])]),
        ("optimize", ["optimize", "--model", f["closed.qgm"], "--gate", GATE,
                      "--out", f["gate.json"], "--restarts", "1",
                      "--iters", str(sizes.optimize_iters),
                      "--seed", str(s["optimize"]), "--workers", "1",
                      "--eval-config", c["qutrit"]]),
        ("landscape", ["landscape", "--model", f["closed.qgm"], "--pulses",
                       f"{f['closed.jsonl']}:{ids}", "--gate", GATE,
                       "--grid", f"-1:1:{sizes.landscape_grid}",
                       "--out", f["landscape.csv"]]),
        ("expand", ["expand", "--model", f["closed.qgm"], "--dataset",
                    f["closed.jsonl"], "--pulse-id", str(inputs.expand_id),
                    "--order", "2", "--out", f["expansion.json"]]),
        ("psd-check", ["psd-check", "--config", c["noise"], "--out",
                       f["psd.csv"], "--seed", str(s["noise"])]),
    ]


def run_pass(sizes, inputs, work, ledger, calibrator):
    """All stages once, writing into the fresh directory `work`. Returns
    (raw, cals, files): each stage's seconds as measured, and the
    calibrations taken before the first stage and after each one (see
    calibrate.py). Outputs never overwrite an earlier pass's files: on
    ext4, truncating and rewriting a file forces a synchronous flush at
    close, which would add disk latency to later passes only."""
    from qugray import cli
    work.mkdir()
    f = {name: str(work / name) for name in (
        "qutrit.jsonl", "qubit.jsonl", "closed.jsonl", "closed.qgm",
        "gate.json", "landscape.csv", "expansion.json", "psd.csv")}
    raw, cals = {}, [calibrator.measure()]
    for label, argv in stages(sizes, inputs, f):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed stage; keep measuring
            traceback.print_exc()
            rc = -1
        raw[label] = time.perf_counter() - start
        cals.append(calibrator.measure())
        ledger.record(f"stage {label}", rc == 0, f"exit code {rc}")
    return raw, cals, f


def pass_metrics(sizes, t, noise_channels_x_k):
    rows = sizes.landscape_pulses * sizes.landscape_grid
    return {
        "sim.qutrit_examples_per_s": sizes.qutrit_examples / t["gen-qutrit"],
        "sim.qubit_examples_per_s": sizes.qubit_examples / t["gen-qubit"],
        "learn.time_to_gate_s": t["gen-closed"] + t["train"] + t["optimize"],
        "train.iters_per_s": sizes.train_iters / t["train"],
        "optimize.gate_s": t["optimize"],
        "landscape.rows_per_s": rows / t["landscape"],
        "noise.realizations_per_s": noise_channels_x_k / t["psd-check"],
    }


def digests(files):
    out = {}
    for name, path in sorted(files.items()):
        paths = [path]
        if name.endswith(".jsonl"):
            paths.append(f"{path}.manifest.json")
        elif name.endswith(".qgm"):
            paths.append(f"{path}.curves.csv")
        h = hashlib.sha256()
        for p in paths:
            try:
                h.update(Path(p).read_bytes())
            except OSError:
                h.update(b"<missing>")
        out[name] = h.hexdigest()
    return out


# -- quality checks (first pass, untimed) -------------------------------------

def _all_finite(values):
    return all(math.isfinite(v) for v in values)


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, [[float(x) for x in line.split(",")]
                        for line in fh if line.strip()]


def check_outputs(files, inputs, ledger):
    """Finite outputs plus the criterion checks. Each check is one
    operation; a missing or unreadable output fails its check."""
    import numpy as np
    from qugray import config, noisegen
    import reference

    def guarded(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ledger.record(name, ok, detail)

    def datasets_finite():
        for key in ("qutrit.jsonl", "qubit.jsonl", "closed.jsonl"):
            for ex in _read_jsonl(files[key]):
                if not _all_finite(ex["theta"] + ex["expectations"]):
                    return False, f"{key} has non-finite values"
        return True, ""

    def reference_agreement():
        worst = 0.0
        for key, cfg_key in (("qutrit.jsonl", "qutrit"),
                             ("qubit.jsonl", "qubit"),
                             ("closed.jsonl", "closed")):
            cfg, _ = config.load_config(inputs.configs[cfg_key])
            examples = _read_jsonl(files[key])
            with open(f"{files[key]}.manifest.json") as fh:
                seed = json.load(fh)["seed"]
            ex = examples[seed % len(examples)]
            noise = None if cfg.closed else \
                noisegen.synthesize(cfg.noise, seed=seed).samples
            ref = reference.example_expectations(cfg, ex["theta"], noise)
            worst = max(worst, float(np.abs(
                ref - np.array(ex["expectations"])).max()))
        return worst < REFERENCE_MAX_ABS_DIFF, \
            f"max |E_ref - E| = {worst:.2e} (limit {REFERENCE_MAX_ABS_DIFF})"

    def training():
        _, rows = _read_csv(f"{files['closed.qgm']}.curves.csv")
        if not _all_finite(v for row in rows for v in row):
            return False, "non-finite loss curve"
        test_mse = rows[-1][2]
        return test_mse < CLOSED_TEST_MSE_MAX, \
            f"closed test MSE {test_mse:.3e} (limit {CLOSED_TEST_MSE_MAX})"

    def optimization():
        with open(files["gate.json"]) as fh:
            res = json.load(fh)
        fids = list(res["fidelities"].values())
        trace = res["cost_trace"]
        if not _all_finite(res["theta_star"] + trace + fids):
            return False, "non-finite optimizer output"
        if not all(0.0 <= fv <= 1.0 + 1e-9 for fv in fids):
            return False, f"fidelity outside [0, 1]: {fids}"
        descending = all(b <= a for a, b in zip(trace, trace[1:]))
        return descending and trace[-1] < trace[0], \
            f"cost trace {trace[0]:.3e} -> {trace[-1]:.3e} must descend"

    def landscape():
        header, rows = _read_csv(files["landscape.csv"])
        col = {name: i for i, name in enumerate(header)}
        fid_rows = {}
        for row in rows:
            j, n = row[col["J"]], row[col["N"]]
            if not (math.isfinite(j) and math.isfinite(n) and j >= n >= 0.0):
                return False, f"row violates J >= N >= 0: {row}"
            if math.isfinite(row[col["fidelity"]]):
                fid_rows.setdefault(row[col["pulse_id"]], []).append(
                    row[col["fidelity"]])
        pulses = {row[col["pulse_id"]] for row in rows}
        ok = set(fid_rows) == pulses and all(
            len(v) == 1 and 0.0 <= v[0] <= 1.0 + 1e-9
            for v in fid_rows.values())
        return ok, "need one fidelity in [0, 1] per landscape pulse"

    def expansion():
        with open(files["expansion.json"]) as fh:
            payload = json.load(fh)
        worst = 0.0
        for exp in payload["expansions"]:
            coeffs = np.array(exp["coefficients"], dtype=float)
            if not np.isfinite(coeffs).all() or \
                    not np.isfinite(exp["residuals"]).all():
                return False, "non-finite expansion"
            x0 = coeffs[0, ..., 0] + 1j * coeffs[0, ..., 1]
            worst = max(worst, float(np.abs(x0 - np.eye(len(x0))).max()))
        return worst < CLOSED_X0_MAX_DEV, \
            f"closed-model max |X_0 - I| = {worst:.3f} " \
            f"(limit {CLOSED_X0_MAX_DEV})"

    def psd():
        cfg, _ = config.load_config(inputs.configs["noise"])
        spec = cfg.noise
        _, rows = _read_csv(files["psd.csv"])
        freqs = np.array([r[0] for r in rows])
        empirical = np.array([r[2] for r in rows])
        if not np.isfinite(empirical).all():
            return False, "non-finite PSD"
        cutoff = spec.f_min if spec.f_min is not None \
            else 1.0 / spec.total_time
        f_eff = np.maximum(freqs, cutoff)
        target = spec.alpha1 / f_eff + spec.alpha2 * f_eff
        mid = (freqs > 4 * cutoff) & (freqs < freqs[-1] / 4)
        dev = float((np.abs(empirical[mid] - target[mid]) / target[mid]).max())
        return dev < PSD_MID_BAND_MAX_DEV, \
            f"PSD mid-band max deviation {dev:.3f} " \
            f"(limit {PSD_MID_BAND_MAX_DEV})"

    guarded("datasets finite", datasets_finite)
    guarded("reference agreement", reference_agreement)
    guarded("closed training target", training)
    guarded("optimizer descent", optimization)
    guarded("landscape structure", landscape)
    guarded("closed expansion near identity", expansion)
    guarded("psd mid-band", psd)


# -- environment, set-up, reporting -------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size():
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(caches.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy
    import qugray
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "kernel_backend": qugray.kernel_backend(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "QUGRAY_WORKERS")},
        "workers": 1,
        "git_commit": _git_commit(),
    }


def probe_setup(config_paths):
    """Wall time of a fresh interpreter importing qugray, loading the
    workload's configs and warming up (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *config_paths],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("set-up probe failed")
    return float(proc.stdout.strip().splitlines()[-1])


def print_layer_table(workload, n_traced, layers, stage_wall, unattributed,
                      overhead_pct):
    print(f"per-layer time, {workload}, mean of {n_traced} traced pass(es), "
          f"pass wall {stage_wall:.3f} s (busy: under the layer's outermost "
          "spans; self: busy minus time in other spans):")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]["self"]):
        print(f"  {layer:<12} self {t['self']:8.4f} s "
              f"{100 * t['self'] / stage_wall:5.1f}%   busy "
              f"{t['busy']:8.4f} s {100 * t['busy'] / stage_wall:5.1f}%")
    print(f"  {'unattributed':<12}      {unattributed:8.4f} s "
          f"{100 * unattributed / stage_wall:5.1f}%")
    print(f"  tracing overhead {overhead_pct:+.2f}% "
          "(median over pairs of traced vs untraced scaled pass wall)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_qugray()
    import tracing

    sizes = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        first_inputs = make_inputs(sizes, args.seed, 0, work / "inputs-0")
        config_paths = list(first_inputs.configs.values())
        from setup_probe import warm_up
        warm_up(config_paths)
        from qugray import config
        noise_cfg, _ = config.load_config(first_inputs.configs["noise"])
        channels_x_k = noise_cfg.noise.channels * noise_cfg.noise.realizations
        calibrator = calibrate.Calibrator()

        ledger = Ledger()
        tracer = tracing.Tracer()
        per_pass, raw_per_pass = [], []
        stage_log, setup_log = [], []
        walls = {False: [], True: []}  # scaled pass walls, by traced
        raw_traced_walls, traced_ids = [], []
        setup_times, raw_setup_times = [], []
        pass_seconds = []
        start = time.perf_counter()
        # Passes come in pairs that share inputs: the second pass of a pair
        # must reproduce the first one's outputs byte for byte (the
        # determinism echo) and, with --trace 1, is the traced one. After
        # the first pair a pass starts only if it should end within half a
        # pass of --seconds, so a run may end on a first pass, unechoed.
        while len(pass_seconds) < 2 or time.perf_counter() - start + \
                0.5 * statistics.mean(pass_seconds) <= args.seconds:
            pair, second = divmod(len(pass_seconds), 2)
            pass_start = time.perf_counter()
            if not second:
                inputs = first_inputs if pair == 0 else make_inputs(
                    sizes, args.seed, pair, work / f"inputs-{pair}")
            traced = bool(args.trace and second)
            if traced:
                tracer.run_id = f"{args.workload}-{args.seed}-{pair}"
                traced_ids.append(tracer.run_id)
                tracer.install()
            try:
                pass_dir = work / f"pass-{pair}-{second}"
                raw, cals, files = run_pass(sizes, inputs, pass_dir, ledger,
                                            calibrator)
            finally:
                tracer.uninstall()
            scaled = {label: calibrate.scaled(t, cals[i], cals[i + 1])
                      for i, (label, t) in enumerate(raw.items())}
            stage_log.append({"raw": raw, "calibrations": cals,
                              "traced": traced})
            walls[traced].append(sum(scaled.values()))
            if traced:
                raw_traced_walls.append(sum(raw.values()))
            else:
                per_pass.append(pass_metrics(sizes, scaled, channels_x_k))
                raw_per_pass.append(pass_metrics(sizes, raw, channels_x_k))
            d = digests(files)
            if not second:
                pair_digests = d
                if pair == 0:
                    # quality checks do not count against --seconds
                    check_start = time.perf_counter()
                    check_outputs(files, inputs, ledger)
                    checked = time.perf_counter() - check_start
                    pass_start += checked
                    start += checked
            else:
                diff = sorted(k for k in d if d[k] != pair_digests[k])
                ledger.record("determinism echo", not diff,
                              f"outputs of pair {pair} differ: {diff}")
            shutil.rmtree(pass_dir)
            if not args.trace:
                # set-up probes interleave with the passes so that their
                # median samples the same machine conditions
                before = calibrator.measure()
                probes = [probe_setup(config_paths)
                          for _ in range(PROBES_PER_PASS)]
                after = calibrator.measure()
                setup_log.append({"raw": probes,
                                  "calibrations": [before, after]})
                raw_setup_times += probes
                setup_times += [calibrate.scaled(probe, before, after)
                                for probe in probes]
            pass_seconds.append(time.perf_counter() - pass_start)

        if args.trace:
            stats, layers, covered, evals = tracing.summarize(
                tracer.spans, traced_ids)
            stage_wall = statistics.mean(raw_traced_walls)
            overhead = 100.0 * statistics.median(
                t / u - 1.0 for u, t in zip(walls[False], walls[True]))
            unattributed = stage_wall - covered
            print_layer_table(args.workload, len(traced_ids), layers,
                              stage_wall, unattributed, overhead)
            metrics = tracing.layer_metrics(stats, layers, evals,
                                            unattributed, overhead)
        else:
            metrics = {name: (statistics.median(p[name] for p in per_pass),
                              END_TO_END_UNITS[name])
                       for name in per_pass[0]}
            while len(setup_times) < MIN_SETUP_PROBES:
                before = calibrator.measure()
                probe = probe_setup(config_paths)
                raw_setup_times.append(probe)
                setup_times.append(calibrate.scaled(
                    probe, before, calibrator.measure()))
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
            print(f"{'metric':<28} {'scaled':>14} {'as measured':>14}")
            raw_medians = {name: statistics.median(p[name]
                                                   for p in raw_per_pass)
                           for name in raw_per_pass[0]}
            raw_medians["setup_s"] = statistics.median(raw_setup_times)
            for name, (value, unit) in sorted(metrics.items()):
                raw_value = raw_medians.get(name, value)
                print(f"{name:<28} {value:14.6g} {raw_value:14.6g} {unit}")
        cals = [c for p in stage_log for c in p["calibrations"]]
        print(f"calibration mix: median {1e3 * statistics.median(cals):.2f} "
              f"ms, reference {1e3 * calibrate.REFERENCE_S:.0f} ms")
        print(f"{len(pass_seconds)} passes, {ledger.attempted} "
              f"operations, {len(ledger.failures)} failed")
        result = {
            "correct": not ledger.failures,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())},
        }
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(OUT_DIR / f"{stem}.json", "w") as fh:
            json.dump({"environment": env, "passes": per_pass,
                       "passes_as_measured": raw_per_pass,
                       "stage_log": stage_log, "setup_log": setup_log,
                       "failures": ledger.failures, "result": result},
                      fh, indent=2, sort_keys=True)
        if args.trace:
            tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
