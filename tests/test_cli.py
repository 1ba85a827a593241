"""End-to-end CLI paths on a tiny d=2 system, exercising every subcommand,
the exit-code contract, and output determinism."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qugray import cli, fileio, interpret
from qugray.errors import DatasetIOError

TINY_CFG = """
dimension = 2
evolution_time_s = 1.0
time_steps = 64
realisations = 6
n_max = 4
omega_1_rad_s = 44.0
drive_frequency_1_rad_s = 44.4
carrier_amplitude_1 = 2
g_1 = 8.0
alpha_1 = 3.8e-3
alpha_2 = 7.8e-6
seed = 0
"""


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    rc = cli.main(["gen-dataset", "--config", tiny_config, "--out", str(out),
                   "--examples", "12", "--seed", "7"])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory, tiny_dataset):
    out = tmp_path_factory.mktemp("model") / "tiny.qgm"
    rc = cli.main(["train", "--dataset", tiny_dataset, "--out", str(out),
                   "--iters", "12", "--seed", "3", "--batch", "8"])
    assert rc == 0
    return str(out)


class TestGenDataset:
    def test_reproducible_bytes(self, tmp_path, tiny_config):
        outs = []
        for run, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{run}.jsonl"
            rc = cli.main(["gen-dataset", "--config", tiny_config,
                           "--out", str(out), "--examples", "6",
                           "--seed", "5", "--workers", workers])
            assert rc == 0
            outs.append((out.read_bytes(),
                         (out.parent / f"{run}.jsonl.manifest.json")
                         .read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_preset_accepted(self, tmp_path):
        out = tmp_path / "p.jsonl"
        rc = cli.main(["gen-dataset", "--config", "qubit_desk_closed",
                       "--out", str(out), "--examples", "2", "--seed", "1"])
        assert rc == 0

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dimension = 2\nbogus_key = 1\n")
        rc = cli.main(["gen-dataset", "--config", str(bad),
                       "--out", str(tmp_path / "x.jsonl"), "--examples", "1"])
        assert rc == 2

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["gen-dataset", "--config", "/does/not/exist.cfg",
                       "--out", str(tmp_path / "x.jsonl"), "--examples", "1"])
        assert rc == 2


class TestTrain:
    def test_reproducible_model_bytes(self, tmp_path, tiny_dataset):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.qgm"
            rc = cli.main(["train", "--dataset", tiny_dataset, "--out",
                           str(out), "--iters", "6", "--seed", "9",
                           "--batch", "4"])
            assert rc == 0
            blobs.append((out.read_bytes(),
                          (tmp_path / f"{run}.qgm.curves.csv").read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        # curve CSVs differ only in the embedded filename-free content
        assert blobs[0][1] == blobs[1][1]

    def test_curves_hold_the_evaluated_iterations(self, tmp_path,
                                                  tiny_dataset):
        # 25 iterations evaluate the test loss at 10, 20 and 25; --log-every
        # 1 evaluates at all of them, with the same model bytes and rows
        outs = {}
        for run, extra in (("cadenced", []), ("every", ["--log-every", "1"])):
            out = tmp_path / f"{run}.qgm"
            rc = cli.main(["train", "--dataset", tiny_dataset, "--out",
                           str(out), "--iters", "25", "--seed", "9",
                           "--batch", "4"] + extra)
            assert rc == 0
            lines = (tmp_path / f"{run}.qgm.curves.csv").read_text() \
                .splitlines()
            assert lines[0] == "iteration,train_mse,test_mse"
            outs[run] = out.read_bytes(), lines[1:]
        assert outs["cadenced"][0] == outs["every"][0]
        rows, all_rows = outs["cadenced"][1], outs["every"][1]
        assert [row.split(",")[0] for row in rows] == ["10", "20", "25"]
        assert [row.split(",")[0] for row in all_rows] == \
            [str(i) for i in range(1, 26)]
        assert rows == [all_rows[i - 1] for i in (10, 20, 25)]

    def test_dataset_without_test_split_exits_2_before_writing(
            self, tmp_path, tiny_config, capsys):
        # 2 examples split 2/0: there is no test loss to record
        dataset = tmp_path / "two.jsonl"
        assert cli.main(["gen-dataset", "--config", tiny_config, "--out",
                         str(dataset), "--examples", "2"]) == 0
        out = tmp_path / "out"
        out.mkdir()
        rc = cli.main(["train", "--dataset", str(dataset), "--out",
                       str(out / "m.qgm"), "--iters", "12"])
        assert rc == 2
        assert "no test split" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_missing_dataset_exits_3(self, tmp_path):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "m.qgm"), "--iters", "1"])
        assert rc == 3

    @pytest.mark.parametrize("flag, value", [("--iters", "0"),
                                             ("--iters", "-3"),
                                             ("--batch", "0"),
                                             ("--step", "nan"),
                                             ("--step", "inf"),
                                             ("--step", "0"),
                                             ("--step", "-1"),
                                             ("--hidden", "0"),
                                             ("--hidden", "-1"),
                                             ("--log-every", "-3")])
    def test_count_below_one_exits_2_before_writing(self, tmp_path,
                                                    tiny_dataset, flag,
                                                    value):
        rc = cli.main(["train", "--dataset", tiny_dataset, "--out",
                       str(tmp_path / "m.qgm"), flag, value])
        assert rc == 2
        assert os.listdir(tmp_path) == []


class TestOptimize:
    def test_optimize_and_artifacts(self, tmp_path, tiny_model):
        out = tmp_path / "res.json"
        rc = cli.main(["optimize", "--model", tiny_model, "--gate", "X",
                       "--out", str(out), "--restarts", "1", "--iters", "8",
                       "--seed", "2"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["gate"] == "X"
        assert "closed" in data["fidelities"]
        assert len(data["theta_star"]) == 8

    def test_unknown_gate_exits_2_and_lists(self, tmp_path, tiny_model,
                                            capsys):
        rc = cli.main(["optimize", "--model", tiny_model, "--gate", "WAT",
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma_1_0" in err and "WAT" in err

    def test_truncated_model_exits_3(self, tmp_path, tiny_model):
        trunc = tmp_path / "trunc.qgm"
        with open(tiny_model, "rb") as fh:
            trunc.write_bytes(fh.read()[:12])
        rc = cli.main(["optimize", "--model", str(trunc), "--gate", "X",
                       "--out", str(tmp_path / "r.json"), "--restarts", "1",
                       "--iters", "1"])
        assert rc == 3

    def test_zero_restarts_exits_2(self, tmp_path, tiny_model):
        rc = cli.main(["optimize", "--model", tiny_model, "--gate", "X",
                       "--out", str(tmp_path / "r.json"), "--restarts", "0"])
        assert rc == 2

    def test_dim_mismatched_eval_config_exits_2(self, tmp_path, tiny_model):
        rc = cli.main(["optimize", "--model", tiny_model, "--gate", "X",
                       "--out", str(tmp_path / "r.json"), "--restarts", "1",
                       "--iters", "2", "--eval-config", "qutrit_desk_weak"])
        assert rc == 2


    @pytest.mark.parametrize("extra", [
        ["--eval-config", "no_such_preset"],
        ["--eval-config", "qutrit_desk_weak"],       # d = 3 for a d = 2 model
        ["--eval-config", "n_max=2"],                # another pulse length
        ["--eval-k", "0"],
        ["--eval-k", "-1"],
        ["--iters", "-3"],                           # 0 stays valid
    ], ids=["unknown", "dimension", "n-max", "k-zero", "k-negative",
            "iters-negative"])
    def test_bad_eval_options_exit_2_before_optimizing(
            self, tmp_path, tiny_model, monkeypatch, extra):
        if extra[1] == "n_max=2":
            cfg = tmp_path / "other.cfg"
            cfg.write_text(TINY_CFG.replace("n_max = 4", "n_max = 2"))
            extra = ["--eval-config", str(cfg)]

        def must_not_run(*args, **kwargs):
            raise AssertionError("optimize_gate ran")

        monkeypatch.setattr(cli.control, "optimize_gate", must_not_run)
        out = tmp_path / "r.json"
        rc = cli.main(["optimize", "--model", tiny_model, "--gate", "X",
                       "--out", str(out), "--restarts", "1", "--iters", "2"]
                      + extra)
        assert rc == 2
        assert not out.exists()


class TestLandscapeExpand:
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_eval_k_below_one_exits_2_before_the_sweep(
            self, tmp_path, tiny_model, tiny_dataset, monkeypatch, k):
        def must_not_run(*args, **kwargs):
            raise AssertionError("cost_grid ran")

        monkeypatch.setattr(interpret, "cost_grid", must_not_run)
        out = tmp_path / "land.csv"
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       f"{tiny_dataset}:0", "--gate", "X", "--grid", "-1:1:3",
                       "--out", str(out), "--eval-k", k])
        assert rc == 2
        assert not out.exists()

    def test_fid_epsilon_with_no_fidelity_exits_2_before_loading(
            self, tmp_path, tiny_model, tiny_dataset, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(cli.graybox.GrayboxModel, "load", must_not_run)
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       f"{tiny_dataset}:0", "--gate", "X", "--grid", "-1:1:3",
                       "--out", str(tmp_path / "land.csv"), "--no-fidelity",
                       "--fid-epsilon", "0.5"])
        assert rc == 2
        assert os.listdir(tmp_path) == []
        assert "--no-fidelity" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--no-fidelity"]],
                             ids=["fidelity", "no-fidelity"])
    @pytest.mark.parametrize("ids", ["", ","], ids=["empty", "comma"])
    def test_empty_pulse_ids_exit_2_before_writing(
            self, tmp_path, tiny_model, tiny_dataset, extra, ids):
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       f"{tiny_dataset}:{ids}", "--gate", "X", "--grid",
                       "-1:1:3", "--out", str(tmp_path / "land.csv"),
                       "--eval-k", "2"] + extra)
        assert rc == 2
        assert os.listdir(tmp_path) == []

    def test_landscape_csv(self, tmp_path, tiny_model, tiny_dataset):
        out = tmp_path / "land.csv"
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       f"{tiny_dataset}:0,2", "--gate", "X", "--grid",
                       "-1:1:5", "--out", str(out), "--eval-k", "4"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pulse_id,epsilon,J,N,fidelity"
        assert len(lines) == 1 + 2 * 5

    @pytest.mark.parametrize("text, code", [
        ('{"gate": "X"}', 3),                       # no theta_star
        ('{"theta_star": [0.0, 1.0]}', 2),          # wrong length
        ('{"theta_star": [0, 0, 0, NaN, 0, 0, 0, 0]}', 3),
        ('{"theta_star": ["a", 0, 0, 0, 0, 0, 0, 0]}', 3),
        ('[1, 2]', 3),
        ('not json', 3),
    ], ids=["no-key", "length", "nan", "text", "list", "garbage"])
    def test_bad_optimized_result(self, tmp_path, tiny_model, tiny_dataset,
                                  text, code):
        opt = tmp_path / "opt.json"
        opt.write_text(text)
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       f"{tiny_dataset}:0", "--gate", "X", "--grid", "-1:1:3",
                       "--out", str(tmp_path / "land.csv"), "--optimized",
                       str(opt), "--no-fidelity"])
        assert rc == code

    def test_expand_json(self, tmp_path, tiny_model, tiny_dataset):
        out = tmp_path / "exp.json"
        rc = cli.main(["expand", "--model", tiny_model, "--dataset",
                       tiny_dataset, "--pulse-id", "1", "--order", "2",
                       "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["order"] == 2
        assert len(data["expansions"]) == 3  # d^2 - 1 observables for d = 2
        X0 = data["expansions"][0]["coefficients"][0]
        assert np.array(X0).shape == (2, 2, 2)  # re/im pairs

    def test_non_finite_model_exits_3(self, tmp_path, tiny_model,
                                      tiny_dataset):
        # a NaN weight would otherwise reach the JSON as bare NaN tokens
        with open(tiny_model, "rb") as fh:
            data = bytearray(fh.read())
        (hlen,) = struct.unpack_from("<Q", data, 8)
        offset = 16 + hlen
        for spec in json.loads(data[16:16 + hlen])["blocks"]:
            if spec["name"] == "head.b":
                break
            offset += 8 * int(np.prod(spec["shape"]))
        data[offset:offset + 8] = struct.pack("<d", np.nan)
        bad = tmp_path / "nan.qgm"
        bad.write_bytes(bytes(data))
        out = tmp_path / "exp.json"
        rc = cli.main(["expand", "--model", str(bad), "--dataset",
                       tiny_dataset, "--pulse-id", "1", "--order", "2",
                       "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_bad_pulse_id_exits_2(self, tmp_path, tiny_model, tiny_dataset):
        rc = cli.main(["expand", "--model", tiny_model, "--dataset",
                       tiny_dataset, "--pulse-id", "999", "--order", "2",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestPsdCheck:
    def test_writes_csv(self, tmp_path, tiny_config):
        out = tmp_path / "psd.csv"
        rc = cli.main(["psd-check", "--config", tiny_config, "--out",
                       str(out), "--seed", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frequency_hz,target_psd,empirical_psd"
        assert len(lines) == 1 + 32  # M/2 bins

    def test_empty_mid_band_reported(self, tmp_path, capsys):
        # a cutoff above Nyquist/16 leaves no bin between 4 x cutoff and
        # Nyquist/4: the spectrum is written and there is nothing to check
        cfg = tmp_path / "high_cutoff.cfg"
        cfg.write_text(TINY_CFG + "noise_f_min_hz = 1e6\n")
        out = tmp_path / "psd.csv"
        rc = cli.main(["psd-check", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "no mid band" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1 + 32

    def test_memory_is_one_chunk(self, tmp_path):
        # the 3 x 3000 x 1024 ensemble is 74 MB of float64; psd-check must
        # never hold it, nor any quarter of it
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TINY_CFG.replace("dimension = 2", "dimension = 3")
                       .replace("time_steps = 64", "time_steps = 1024")
                       .replace("realisations = 6", "realisations = 3000")
                       + "omega_2_rad_s = 87.0\n"
                         "drive_frequency_2_rad_s = 43.1\n"
                         "carrier_amplitude_2 = 2\n")
        ensemble_bytes = 3 * 3000 * 1024 * 8
        tracemalloc.start()
        try:
            rc = cli.main(["psd-check", "--config", str(cfg), "--out",
                           str(tmp_path / "psd.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < ensemble_bytes / 4, f"traced peak {peak / 1e6:.1f} MB"

    def test_python_dash_m(self, tmp_path, tiny_config):
        out = tmp_path / "psd.csv"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-m", "qugray", "psd-check",
                               "--config", tiny_config, "--out", str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 32


class TestNonFiniteConfig:
    @pytest.mark.parametrize("key, value", [
        ("alpha_1", "nan"), ("alpha_2", "inf"), ("evolution_time_s", "inf"),
        ("noise_f_min_hz", "nan"), ("evolution_time_s", "nan"),
        ("omega_1_rad_s", "nan"), ("omega_1_rad_s", "inf"), ("g_1", "nan"),
        ("g_1", "inf"), ("carrier_amplitude_1", "nan"),
        ("carrier_amplitude_1", "inf"), ("drive_frequency_1_rad_s", "nan"),
        ("drive_frequency_1_rad_s", "inf")])
    @pytest.mark.parametrize("command", ["gen-dataset", "psd-check"])
    def test_exits_2_before_writing(self, tmp_path, key, value, command):
        lines = [line for line in TINY_CFG.splitlines()
                 if not line.startswith(key + " ")]
        cfg = tmp_path / "cfg" / "bad.cfg"
        cfg.parent.mkdir()
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        outdir = tmp_path / "out"
        outdir.mkdir()
        argv = [command, "--config", str(cfg), "--out", str(outdir / "x")]
        if command == "gen-dataset":
            argv += ["--examples", "2", "--workers", "1"]
        assert cli.main(argv) == 2
        assert os.listdir(outdir) == []

    def test_non_finite_example_exits_4_before_writing(
            self, tmp_path, tiny_config, monkeypatch):
        # a simulation that overflows must not leave a NaN dataset behind
        generate = cli.dynamics.generate_dataset

        def overflowing(*args, **kwargs):
            examples, manifest = generate(*args, **kwargs)
            examples[1].expectations[0] = np.nan
            return examples, manifest

        monkeypatch.setattr(cli.dynamics, "generate_dataset", overflowing)
        rc = cli.main(["gen-dataset", "--config", tiny_config, "--out",
                       str(tmp_path / "d.jsonl"), "--examples", "2",
                       "--workers", "1"])
        assert rc == 4
        assert os.listdir(tmp_path) == []


def _seed_argv(command, ctx, out):
    """A run of `command` writing into the directory `out`, before --seed;
    `ctx` holds the inputs it reads."""
    return {
        "gen-dataset": ["gen-dataset", "--config", ctx.get("config"), "--out",
                        str(out / "d.jsonl"), "--examples", "2",
                        "--workers", "1"],
        "train": ["train", "--dataset", ctx.get("dataset"), "--out",
                  str(out / "m.qgm"), "--iters", "1", "--batch", "4"],
        "optimize": ["optimize", "--model", ctx.get("model"), "--gate", "X",
                     "--out", str(out / "r.json"), "--restarts", "1",
                     "--iters", "1", "--workers", "1"],
        "psd-check": ["psd-check", "--config", ctx.get("config"), "--out",
                      str(out / "psd.csv")],
    }[command]


def _config_with_seed(tmp_path, seed):
    cfg = tmp_path / "cfg" / f"seed{seed}.cfg"
    cfg.parent.mkdir(exist_ok=True)
    cfg.write_text(TINY_CFG.replace("seed = 0", f"seed = {seed}"))
    return str(cfg)


class TestSeeds:
    @pytest.mark.parametrize("command", ["gen-dataset", "train", "optimize",
                                         "psd-check"])
    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys,
                                                  command, tiny_config,
                                                  tiny_dataset, tiny_model):
        ctx = {"config": tiny_config, "dataset": tiny_dataset,
               "model": tiny_model}
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(_seed_argv(command, ctx, out) + ["--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["gen-dataset", "psd-check",
                                         "optimize"])
    def test_negative_config_seed_exits_2_before_writing(
            self, tmp_path, capsys, command, tiny_model):
        cfg = _config_with_seed(tmp_path, -4)
        out = tmp_path / "out"
        out.mkdir()
        argv = _seed_argv(command, {"config": cfg, "model": tiny_model}, out)
        if command == "optimize":
            argv += ["--eval-config", cfg]
        assert cli.main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command, files", [
        ("gen-dataset", ["d.jsonl", "d.jsonl.manifest.json"]),
        ("psd-check", ["psd.csv"])])
    def test_config_seed_is_the_default(self, tmp_path, command, files):
        cfg = _config_with_seed(tmp_path, 7)
        outputs = {}
        for run, extra in (("config", []), ("flag", ["--seed", "7"]),
                           ("zero", ["--seed", "0"])):
            out = tmp_path / run
            out.mkdir()
            assert cli.main(_seed_argv(command, {"config": cfg}, out)
                            + extra) == 0
            outputs[run] = [(out / f).read_bytes() for f in files]
        assert outputs["config"] == outputs["flag"]
        assert outputs["config"][0] != outputs["zero"][0]


class TestGridParsing:
    def test_bad_grid_spec_exits_2(self, tmp_path, tiny_model, tiny_dataset):
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       tiny_dataset, "--gate", "X", "--grid", "oops",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_zero_grid_count_exits_2(self, tmp_path, tiny_model,
                                     tiny_dataset):
        rc = cli.main(["landscape", "--model", tiny_model, "--pulses",
                       tiny_dataset, "--gate", "X", "--grid", "0:1:0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, extra", [
        ("landscape", ["--grid", "0:nan:5"]),
        ("landscape", ["--grid", "-inf:1:5"]),
        ("landscape", ["--fid-epsilon", "nan"]),
        ("expand", ["--grid", "0:inf:5"]),
    ], ids=["landscape-nan", "landscape-inf", "fid-epsilon-nan",
            "expand-inf"])
    def test_non_finite_value_exits_2_before_any_work(
            self, tmp_path, tiny_model, tiny_dataset, monkeypatch, capsys,
            command, extra):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(cli.graybox.GrayboxModel, "load", must_not_run)
        args = ["--pulses", tiny_dataset, "--gate", "X"] \
            if command == "landscape" else ["--dataset", tiny_dataset,
                                            "--pulse-id", "0"]
        rc = cli.main([command, "--model", tiny_model, "--out",
                       str(tmp_path / "x.out")] + args + extra)
        assert rc == 2
        assert os.listdir(tmp_path) == []
        assert "repeated grid points" not in capsys.readouterr().err


def _exit_code(write):
    """Run a library writer as the CLI would: DatasetIOError is exit 3."""
    try:
        write()
    except DatasetIOError:
        return 3
    return 0


# writer name -> (file name, write(ctx, path, variant) -> exit code); each
# variant writes different content to the same path
WRITERS = {
    "train-curves": ("curves.csv", lambda ctx, path, v: cli.main([
        "train", "--dataset", ctx["dataset"], "--out",
        str(path.parent / "m.qgm"), "--curves", str(path), "--iters",
        str(2 + v), "--seed", "1", "--batch", "4"])),
    "expand-json": ("exp.json", lambda ctx, path, v: cli.main([
        "expand", "--model", ctx["model"], "--dataset", ctx["dataset"],
        "--pulse-id", str(v), "--out", str(path)])),
    "psd-check-csv": ("psd.csv", lambda ctx, path, v: cli.main([
        "psd-check", "--config", ctx["config"], "--out", str(path),
        "--seed", str(v)])),
    "landscape-rows": ("land.csv", lambda ctx, path, v: _exit_code(
        lambda: interpret.rows_to_csv([{"pulse_id": v, "epsilon": 0.0,
                                        "J": 1.0, "N": 0.5,
                                        "fidelity": 0.9}], path))),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(writer, tmp_path, monkeypatch,
                                          tiny_config, tiny_dataset,
                                          tiny_model):
    name, write = WRITERS[writer]
    ctx = {"config": tiny_config, "dataset": tiny_dataset,
           "model": tiny_model}
    path = tmp_path / name
    assert write(ctx, path, 0) == 0
    before = path.read_bytes()
    real_replace = os.replace

    def replace(src, dst):
        # only the write under test fails, as if the disk filled up
        if os.fspath(dst) == str(path):
            raise OSError("no space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", replace)
    assert write(ctx, path, 1) == 3
    assert path.read_bytes() == before
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
