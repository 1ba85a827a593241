"""Command-line entry point.

Subcommands: gen-dataset, train, optimize, landscape, expand, psd-check.
Every command is reproducible from its config/seed inputs alone; outputs
embed the owning config hash. Exit codes: 0 ok, 2 usage/config, 3 I/O,
4 numerical failure. QUGRAY_WORKERS sets the default worker count.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import config as config_mod
from . import control, dynamics, fileio, graybox, interpret, noisegen
from .errors import (ContractViolationError, DatasetIOError, DomainError,
                     InvalidConfigError, InvalidDimensionError,
                     InvertibilityError, OptimizationFailure, QugrayError,
                     TrainingDiverged)

_USAGE_ERRORS = (InvalidConfigError, InvalidDimensionError, DomainError)
_IO_ERRORS = (DatasetIOError, OSError)
_NUMERIC_ERRORS = (OptimizationFailure, TrainingDiverged,
                   ContractViolationError, InvertibilityError)


def _default_workers():
    try:
        return max(1, int(os.environ.get("QUGRAY_WORKERS", "1")))
    except ValueError:
        return 1


def _parse_grid(spec):
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError as exc:
        raise InvalidConfigError(f"bad grid spec {spec!r}, want lo:hi:count") \
            from exc
    if num < 1:
        raise InvalidConfigError(f"grid spec {spec!r} needs a count >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidConfigError(f"grid spec {spec!r} needs finite bounds")
    return np.linspace(lo, hi, num)


def _parse_pulse_spec(spec):
    """'PATH' or 'PATH:0,5,17' -> (path, ids or None)."""
    if ":" in spec:
        path, _, ids = spec.rpartition(":")
        try:
            ids = [int(t) for t in ids.split(",") if t]
        except ValueError as exc:
            raise InvalidConfigError(f"bad pulse ids in {spec!r}") from exc
        if not ids:
            raise InvalidConfigError(f"no pulse ids in {spec!r}; give "
                                     "PATH or PATH:id0,id1,...")
        return path, ids
    return spec, None


def cmd_gen_dataset(args):
    cfg, _ = config_mod.load_config(args.config)
    start = time.perf_counter()
    examples, manifest = dynamics.generate_dataset(
        cfg, args.examples, seed=args.seed, workers=args.workers)
    dynamics.save_dataset(args.out, examples, manifest)
    wall = time.perf_counter() - start
    print(f"wrote {len(examples)} examples to {args.out} "
          f"(K={cfg.noise.realizations}, M={cfg.carrier.steps}, "
          f"split {manifest['n_train']}/{manifest['n_test']}, "
          f"{wall:.1f} s)")
    return 0


def cmd_train(args):
    if args.log_every < 0:
        raise InvalidConfigError(f"--log-every {args.log_every}: needs >= 0 "
                                 "(0 logs nothing)")
    examples, manifest = dynamics.load_dataset(args.dataset)
    cfg = dynamics.SystemConfig.from_dict(manifest["config"])
    model = graybox.GrayboxModel(cfg, hidden=args.hidden, seed=args.seed)
    hyper = graybox.TrainingHyper(step_size=args.step, iterations=args.iters,
                                  batch_size=args.batch, seed=args.seed)
    record = model.train(examples, manifest, hyper,
                         log_every=args.log_every or None)
    model.save(args.out, extra_header={"iterations": record.iterations})
    curves = args.curves or f"{args.out}.curves.csv"
    with fileio.atomic_write(curves) as fh:
        fh.write("iteration,train_mse,test_mse\n")
        for i, te in zip(record.eval_iterations, record.test_mse):
            fh.write(f"{i},{record.train_mse[i - 1]!r},{te!r}\n")
    print(f"trained {record.iterations} iterations in {record.wall_time:.1f} s; "
          f"final train MSE {record.train_mse[-1]:.3e}, "
          f"test MSE {record.test_mse[-1]:.3e}; model -> {args.out}")
    return 0


def _validate_eval_k(eval_k):
    if eval_k is not None and eval_k < 1:
        raise InvalidConfigError(f"--eval-k {eval_k}: the fidelity needs at "
                                 "least 1 noise realization")


def _with_eval_k(cfg, eval_k):
    """cfg with eval_k noise realizations (None keeps its own); each
    realization draws its own counter block, so the first eval_k are the
    same bits."""
    return cfg if eval_k is None else dataclasses.replace(
        cfg, noise=dataclasses.replace(cfg.noise, realizations=eval_k))


def cmd_optimize(args):
    _validate_eval_k(args.eval_k)
    if args.iters < 0:
        raise InvalidConfigError(f"--iters {args.iters}: needs >= 0")
    model = graybox.GrayboxModel.load(args.model)
    gate = control.parse_gate(args.gate, model.d)
    # every eval config is loaded and checked before the optimization runs
    eval_configs = []
    for entry in args.eval_config:
        cfg_i, _ = config_mod.load_config(entry)
        if (cfg_i.dim, cfg_i.n_max) != (model.d, model.n_max):
            raise InvalidConfigError(
                f"eval config {entry} has d={cfg_i.dim}, n_max={cfg_i.n_max}; "
                f"the model has d={model.d}, n_max={model.n_max}")
        eval_configs.append((entry, _with_eval_k(cfg_i, args.eval_k)))
    result = control.optimize_gate(model, gate, restarts=args.restarts,
                                   seed=args.seed, max_iters=args.iters,
                                   workers=args.workers)
    closed_cfg = dynamics.SystemConfig.from_dict(
        dict(model.config.to_dict(), g_rad_s=[0.0] * model.d))
    result.fidelity_closed = control.evaluate_fidelity(
        closed_cfg, [result.theta_star], gate)[0]
    result.fidelities["closed"] = result.fidelity_closed
    for entry, cfg_i in eval_configs:
        result.fidelities[entry] = control.evaluate_fidelity(
            cfg_i, [result.theta_star], gate)[0]
    control.save_result(result, args.out)
    print(f"{gate.name}: cost {result.cost:.3e}, "
          f"closed infidelity {1 - result.fidelity_closed:.3e} "
          f"({result.iterations} iterations, {result.restarts_used} restarts) "
          f"-> {args.out}")
    return 0


def _load_pulses(spec, expected_len):
    path, ids = _parse_pulse_spec(spec)
    examples, manifest = dynamics.load_dataset(path)
    if ids is None:
        ids = list(range(min(20, len(examples))))
    for i in ids:
        if not 0 <= i < len(examples):
            raise InvalidConfigError(f"pulse id {i} outside dataset of "
                                     f"{len(examples)}")
    thetas = [examples[i].theta for i in ids]
    for theta in thetas:
        if theta.size != expected_len:
            raise InvalidConfigError("dataset pulse length does not match model")
    return ids, thetas, manifest


def _load_optimized(path, expected_len):
    """theta_star of an optimize result JSON, checked against the model."""
    try:
        with open(path) as fh:
            theta = np.array(json.load(fh)["theta_star"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetIOError(f"{path}: not an optimize result: {exc!r}") \
            from exc
    if theta.shape != (expected_len,):
        raise InvalidConfigError(f"{path}: theta_star has shape {theta.shape}"
                                 f", the model needs ({expected_len},)")
    if not np.isfinite(theta).all():
        raise DatasetIOError(f"{path}: theta_star is not finite")
    return theta


def cmd_landscape(args):
    _validate_eval_k(args.eval_k)
    grid = _parse_grid(args.grid)
    if args.fid_epsilon is not None and not math.isfinite(args.fid_epsilon):
        raise InvalidConfigError(f"--fid-epsilon {args.fid_epsilon}: needs a "
                                 "finite value")
    if args.fid_epsilon is not None and args.no_fidelity:
        raise InvalidConfigError("--fid-epsilon picks the row whose fidelity "
                                 "is evaluated; --no-fidelity evaluates none")
    model = graybox.GrayboxModel.load(args.model)
    gate = control.parse_gate(args.gate, model.d)
    expected = 2 * (model.d - 1) * model.n_max
    ids, thetas, _ = _load_pulses(args.pulses, expected)
    if args.optimized:
        thetas.append(_load_optimized(args.optimized, expected))
        ids.append(-1)  # optimized pulse sentinel id
    eval_config = None if args.no_fidelity else \
        _with_eval_k(model.config, args.eval_k)
    rows = interpret.landscape(model, thetas, gate, grid=grid, pulse_ids=ids,
                               fid_epsilon=args.fid_epsilon,
                               eval_config=eval_config)
    interpret.rows_to_csv(rows, args.out)
    print(f"wrote {len(rows)} landscape rows for {len(ids)} pulses -> {args.out}")
    return 0


def cmd_expand(args):
    grid = _parse_grid(args.grid) if args.grid else interpret.DEFAULT_GRID
    model = graybox.GrayboxModel.load(args.model)
    expected = 2 * (model.d - 1) * model.n_max
    _, thetas, manifest = _load_pulses(f"{args.dataset}:{args.pulse_id}",
                                       expected)
    theta = thetas[0]
    samples = interpret.scan_epsilon(model, theta, grid=grid)
    expansions = interpret.fit_taylor(samples, grid, order=args.order)
    payload = {
        "pulse_id": args.pulse_id,
        "order": args.order,
        "config_hash": manifest.get("config_hash", ""),
        "expansions": [e.to_dict() for e in expansions],
    }
    with fileio.atomic_write(args.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    worst = max(float(e.residuals.max()) for e in expansions)
    print(f"expanded pulse {args.pulse_id} to order {args.order}; "
          f"worst residual {worst:.3e} -> {args.out}")
    return 0


def cmd_psd_check(args):
    cfg, _ = config_mod.load_config(args.config)
    spec = cfg.noise
    seed = cfg.seed if args.seed is None else args.seed
    freqs, power = noisegen.empirical_psd(spec, seed=seed)
    target = spec.psd(freqs)
    mean_power = power.mean(axis=0)
    with fileio.atomic_write(args.out) as fh:
        fh.write("frequency_hz,target_psd,empirical_psd\n")
        for f, t, p in zip(freqs, target, mean_power):
            fh.write(f"{float(f)!r},{float(t)!r},{float(p)!r}\n")
    mid = (freqs > spec.cutoff * 4) & (freqs < freqs[-1] / 4)
    if not mid.any():
        print(f"synthesized {spec.channels} x {spec.realizations} "
              f"realizations; no mid band to check: no bin lies between "
              f"4 x the {spec.cutoff:.3g} Hz cutoff and Nyquist/4 "
              f"-> {args.out}")
        return 0
    rel = np.abs(mean_power[mid] - target[mid]) / target[mid]
    print(f"synthesized {spec.channels} x {spec.realizations} realizations; "
          f"mid-band max relative deviation {rel.max():.3f} -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qugray",
        description="noisy-qudit graybox simulator, trainer, and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    workers = _default_workers()

    p = sub.add_parser("gen-dataset", help="simulate a pulse/expectation dataset")
    p.add_argument("--config", required=True,
                   help="config file path or preset name")
    p.add_argument("--out", required=True, help="output JSON-lines path")
    p.add_argument("--examples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="default: the config's seed")
    p.add_argument("--workers", type=int, default=workers)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a graybox model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--hidden", type=int, default=graybox.HIDDEN_UNITS)
    p.add_argument("--curves", default=None,
                   help="loss curve CSV path; one row per iteration at "
                        "which the test loss was evaluated")
    p.add_argument("--log-every", type=int, default=0,
                   help="print and evaluate every N iterations; 0 prints "
                        "nothing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("optimize", help="optimize a pulse for a target gate")
    p.add_argument("--model", required=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=workers)
    p.add_argument("--eval-config", action="append", default=[],
                   help="extra config (path or preset) to evaluate fidelity "
                        "under; repeatable")
    p.add_argument("--eval-k", type=int, default=None,
                   help="override realization count for fidelity evaluation")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("landscape", help="sweep the interpretable cost J, N")
    p.add_argument("--model", required=True)
    p.add_argument("--pulses", required=True,
                   help="DATASET[:id0,id1,...]; default first 20 pulses")
    p.add_argument("--gate", required=True)
    p.add_argument("--grid", default="-1:1:41", help="lo:hi:count")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--optimized", default=None,
                   help="optimize result JSON to include as pulse id -1")
    p.add_argument("--fid-epsilon", type=float, default=None)
    p.add_argument("--eval-k", type=int, default=200)
    p.add_argument("--no-fidelity", action="store_true")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("expand", help="fit a local Taylor surrogate of V_O")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pulse-id", type=int, required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--grid", default=None, help="lo:hi:count")
    p.add_argument("--out", required=True, help="JSON path")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("psd-check", help="verify synthesized noise spectra")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--seed", type=int, default=None,
                   help="default: the config's seed")
    p.set_defaults(func=cmd_psd_check)
    return parser


def _join_dash_values(argv):
    """Let `--grid -1:1:41` parse: join option values that start with a dash
    but are clearly grid specs, not options."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--grid", "--fid-epsilon") and i + 1 < len(argv) and \
                argv[i + 1].startswith("-") and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dash_values(list(argv)))
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise InvalidConfigError(f"--seed {seed}: seeds must be >= 0")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IO_ERRORS as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except QugrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
