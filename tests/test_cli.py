import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (entry_scatter_oracle, keep_log_rows, mean_layer_norm_oracle,
                     scaling_limit_distance_oracle, two_variation_oracle)
from resnetlab import analysis, bounds, cli
from resnetlab.bounds import load_reports_jsonl
from resnetlab.cli import (EXIT_BOUND_FAILURE, EXIT_INPUT_ERROR, EXIT_OK,
                           EXIT_OVERFLOW, ExperimentConfig, load_config, main)
from resnetlab.data import load_dataset
from resnetlab.errors import InvalidInputError
from resnetlab.network import load_weights
from resnetlab.training import RUNLOG_COLUMNS, load_runlog


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "d": 6, "N": 4, "seed": 3, "depths": [4, 8],
        "alpha0": 0.5, "beta0": 1.0, "eta0": 0.1, "T": 5,
        "c0": 0.25, "certify_draws": 5, "gradcheck_instances": 4,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports the package whether or not it is installed."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.depths == [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        assert cfg.d == 20 and cfg.N == 10 and cfg.T == 200

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dd": 3}')
        with pytest.raises(InvalidInputError):
            load_config(str(path), {})

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, seed=1)
        cfg = load_config(path, {"seed": 42})
        assert cfg.seed == 42 and cfg.threads == 1

    def test_descending_depths_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(depths=[8, 4])

    def test_duplicate_depths_exit_2(self, tmp_path, capsys):
        # [8, 8] would train depth 8 twice and overwrite runlog_L8.csv
        with pytest.raises(InvalidInputError):
            ExperimentConfig(depths=[4, 8, 8])
        cfg = write_config(tmp_path, depths=[8, 8])
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == EXIT_INPUT_ERROR
        assert "depths" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override", [
        {"T": "5"}, {"d": 2.5}, {"N": True}, {"depths": [4, 8.0]},
        {"depths": "48"}, {"eta0": "0.1"}, {"eta0": False},
        {"log_layers": 1}, {"activation": None}, {"scatter_entry": [0, "1"]},
    ])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["dataset", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "error: config key" in err and "Traceback" not in err

    def test_overflowing_init_scale_exits_2(self, tmp_path, capsys):
        # L**(-beta0) = 8**400 overflows a float
        cfg = write_config(tmp_path, depths=[8], beta0=-400.0)
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "beta0" in err and "Traceback" not in err

    def test_int_accepted_for_float(self):
        assert ExperimentConfig(eta0=1, alpha0=0).eta0 == 1

    @pytest.mark.parametrize("instances", [0, -3])
    def test_gradcheck_without_instances_exits_2(self, tmp_path, capsys, instances):
        # a gradient certificate over zero instances would pass having checked nothing
        cfg = write_config(tmp_path, gradcheck_instances=instances)
        assert main(["gradcheck", "--config", cfg]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "gradcheck_instances" in captured.err
        assert "worst relative error" not in captured.out

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, threads=threads)
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == EXIT_INPUT_ERROR
        assert "threads must be 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_threads_above_one_exit_2(self, tmp_path, capsys):
        # training runs sequentially; the key stays for configs that set it to 1
        cfg = write_config(tmp_path, threads=2)
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == EXIT_INPUT_ERROR
        assert "threads must be 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_threads_flag_is_gone(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg, "--out", str(tmp_path / "run"),
                  "--threads", "2"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert not (tmp_path / "run").exists()

    def test_negative_certify_draws_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, certify_draws=-2)
        assert main(["certify", "--config", cfg,
                     "--out", str(tmp_path / "cert")]) == EXIT_INPUT_ERROR
        assert "certify_draws" in capsys.readouterr().err
        assert not (tmp_path / "cert").exists()


# the config of the reproducers below; each bad value exits 2 before any file is written
SMALL = {"d": 4, "N": 2, "depths": [4, 8], "T": 3, "certify_draws": 1}


def write_raw_config(tmp_path, key, token):
    """SMALL with ``key`` set to the bare JSON token ``token`` (NaN, Infinity, ...)."""
    text = json.dumps(dict(SMALL, **{key: "@"})).replace('"@"', token)
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


def run_into_empty_dir(tmp_path, argv):
    """Exit code of ``main(argv + --out)`` and the files it left in --out."""
    out = tmp_path / "out"
    out.mkdir()
    code = main(argv + ["--out", str(out)])
    return code, sorted(os.listdir(out))


class TestConfigDomain:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                       pytest.param("1" + "0" * 400, id="10**400")])
    @pytest.mark.parametrize("key", ["alpha0", "beta0", "eta0", "c0", "epsilon_init",
                                     "init_scale"])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, key, token):
        cfg = write_raw_config(tmp_path, key, token)
        assert run_into_empty_dir(tmp_path, ["train", "--config", cfg]) == (EXIT_INPUT_ERROR, [])
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "Traceback" not in err

    # e^{8.4 c0} overflows a float above log(max float) / 8.4 = 84.4979...
    @pytest.mark.parametrize("c0, code, files", [
        (84.0, EXIT_OK, ["bounds.jsonl"]), (84.5, EXIT_INPUT_ERROR, []),
        (90.0, EXIT_INPUT_ERROR, []),
    ])
    def test_c0_upper_limit(self, tmp_path, capsys, c0, code, files):
        cfg = write_config(tmp_path, **dict(SMALL, c0=c0))
        assert run_into_empty_dir(tmp_path, ["certify", "--config", cfg]) == (code, files)
        err = capsys.readouterr().err
        assert ("c0 must lie in" in err) == (code == EXIT_INPUT_ERROR)
        assert "Traceback" not in err

    @pytest.mark.parametrize("override, message", [
        # the key of the every-few-steps logging that train no longer offers
        pytest.param({"log_stride": 1}, "unknown config keys: ['log_stride']",
                     id="log_stride"),
        pytest.param({"activation": "relu"}, "unknown activation 'relu'", id="activation"),
        pytest.param({"schedule": "cosine"}, "unknown schedule kind 'cosine'", id="schedule"),
        pytest.param({"eta0": -0.1}, "eta0 must be finite and >= 0", id="eta0"),
        pytest.param({"c0": 0.0}, "c0 must lie in", id="c0"),
        pytest.param({"N": 0}, "N, d, L must be >= 1", id="N"),
        pytest.param({"depths": [0, 4]}, "N, d, L must be >= 1", id="depths"),
        pytest.param({"seed": -1}, "seed must be >= 0", id="seed"),
        # 8 L d^2 = 3.2e19 bytes, above sys.maxsize: numpy's "array is too big"
        pytest.param({"d": 20, "depths": [10 ** 16]}, "float64 weight stack exceeds",
                     id="depth-too-big"),
    ])
    def test_train_config_error_writes_nothing(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, **dict(SMALL, **override))
        assert run_into_empty_dir(tmp_path, ["train", "--config", cfg]) == (EXIT_INPUT_ERROR, [])
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        pytest.param({"beta0": -400.0}, "beta0=-400.0 overflows", id="beta0"),
        # 8**330 / 4 is a finite std, but its square is not
        pytest.param({"depths": [8], "beta0": -330.0}, "beta0=-330.0 overflows",
                     id="beta0-square"),
        pytest.param({"alpha0": 1.5}, "delta_exponent must lie in [0, 1]", id="alpha0"),
        pytest.param({"alpha0": -0.5}, "delta_exponent must lie in [0, 1]", id="alpha0-neg"),
        pytest.param({"init_mode": "certified", "init_scale": 1.5},
                     "init_scale must lie in [0, 1]", id="init_scale"),
        pytest.param({"init_mode": "certified", "init_scale": -0.1},
                     "init_scale must lie in [0, 1]", id="init_scale-neg"),
        pytest.param({"target_mode": "near_init", "epsilon_init": -0.1},
                     "epsilon_init must be >= 0", id="epsilon_init"),
    ])
    def test_init_domain_error_writes_nothing(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, **dict(SMALL, **override))
        for command in ("train", "certify"):
            (tmp_path / command).mkdir()
            assert run_into_empty_dir(tmp_path / command, [command, "--config", cfg]) == (
                EXIT_INPUT_ERROR, [])
            assert message in capsys.readouterr().err

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # a stack within sys.maxsize bytes may still not fit in memory
        def unallocatable(*args):
            raise MemoryError("Unable to allocate 2.84 PiB")
        monkeypatch.setattr(cli, "init_gaussian", unallocatable)
        cfg = write_config(tmp_path, **SMALL)
        # the first depth's stack is drawn before any file is written
        assert run_into_empty_dir(tmp_path, ["train", "--config", cfg]) == (
            EXIT_INPUT_ERROR, [])
        assert capsys.readouterr().err == "error: Unable to allocate 2.84 PiB\n"

    def test_memory_error_at_a_later_depth_keeps_earlier_depths(self, tmp_path, capsys,
                                                                monkeypatch):
        draw = cli.init_gaussian

        def unallocatable_at_8(net, *args):
            if net.depth == 8:
                raise MemoryError("Unable to allocate 2.84 PiB")
            return draw(net, *args)
        monkeypatch.setattr(cli, "init_gaussian", unallocatable_at_8)
        cfg = write_config(tmp_path, **SMALL)
        assert run_into_empty_dir(tmp_path, ["train", "--config", cfg]) == (
            EXIT_INPUT_ERROR, ["config.json", "dataset.csv", "dataset.json",
                               "runlog_L4.csv", "weights_L4.bin"])
        assert capsys.readouterr().err == "error: Unable to allocate 2.84 PiB\n"

    def test_infeasible_separation_writes_nothing(self, tmp_path, capsys):
        # two unit points on a line are never nearly orthogonal
        cfg = write_config(tmp_path, **dict(SMALL, d=1, enforce_separation=True))
        for command in ("dataset", "train", "certify"):
            (tmp_path / command).mkdir()
            assert run_into_empty_dir(tmp_path / command, [command, "--config", cfg]) == (
                EXIT_INPUT_ERROR, [])
            assert "no draw of 2 points in dimension 1" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"init_mode": "certified", "beta0": -400.0, "init_scale": 0.5},
        {"init_mode": "gaussian", "init_scale": 7.0},
        {"target_mode": "sphere", "epsilon_init": -1.0},
    ])
    def test_keys_of_unused_modes_are_not_checked(self, override):
        ExperimentConfig(**dict(SMALL, **override))

    def test_domain_check_draws_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the config check drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        ExperimentConfig(**SMALL)
        ExperimentConfig(**dict(SMALL, init_mode="certified", target_mode="near_init"))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(**dict(SMALL, beta0=-400.0))

    def test_analyze_scatter_entry_out_of_range_writes_nothing(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, **SMALL),
                     "--out", str(run_dir)]) == EXIT_OK
        cfg = write_config(tmp_path, name="analyze.json", **dict(SMALL, scatter_entry=[0, 9]))
        code, files = run_into_empty_dir(
            tmp_path, ["analyze", "--config", cfg, "--run-dir", str(run_dir)])
        assert (code, files) == (EXIT_INPUT_ERROR, [])
        assert "entry (0, 9) out of range for width 4" in capsys.readouterr().err


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# each float key in its domain, or (for up to two keys) an edge value: NaN,
# +-inf, 0, negatives, huge values or an integer beyond any float
IN_DOMAIN = {
    "alpha0": st.floats(0.0, 1.0), "beta0": st.floats(-2.0, 2.0),
    "eta0": st.floats(0.0, 2.0), "c0": st.floats(0.01, 2.0),
    "epsilon_init": st.floats(0.0, 2.0), "init_scale": st.floats(0.0, 1.0),
}
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -400.0,
                               1e200, -1e200, 1e308, 10 ** 400])


@st.composite
def train_configs(draw):
    config = draw(st.fixed_dictionaries({
        "d": st.integers(1, 4), "N": st.integers(1, 2), "T": st.integers(0, 3),
        "depths": st.sets(st.integers(1, 8), min_size=1, max_size=3).map(sorted),
        "seed": st.integers(-3, 3),
        "activation": st.sampled_from(["tanh", "identity"]),
        "schedule": st.sampled_from(["constant", "inverse_decay"]),
        "init_mode": st.sampled_from(["gaussian", "certified"]),
        "target_mode": st.sampled_from(["sphere", "near_init"]),
        "enforce_separation": st.booleans(), "delta_trainable": st.booleans(),
        "log_layers": st.booleans(),
    }))
    edge_keys = draw(st.sets(st.sampled_from(sorted(IN_DOMAIN)), max_size=2))
    for key, values in IN_DOMAIN.items():
        config[key] = draw(EDGE_FLOATS if key in edge_keys else values)
    return config


def documented_exit(command, config):
    """Runs ``command`` in-process on ``config`` into an empty --out and
    returns its exit code, after checking that an exit 2 left --out empty and
    that every JSON file written is strict JSON. An exception escaping
    ``main`` fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        code = main([command, "--config", path, "--out", out])
        if code == EXIT_INPUT_ERROR:
            assert os.listdir(out) == []
        assert_strict_json_files(out)
        return code


class TestTrainProperty:
    @settings(max_examples=150, deadline=None)
    @given(train_configs())
    def test_every_config_ends_in_a_documented_exit(self, config):
        assert documented_exit("train", config) in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_OVERFLOW)


@st.composite
def command_configs(draw):
    """A train config plus tiny values of the keys only certify and gradcheck
    read (their lower limits have tests of their own)."""
    config = draw(train_configs())
    config["certify_draws"] = draw(st.integers(0, 1))
    config["gradcheck_instances"] = draw(st.integers(1, 2))
    return config


class TestCommandProperty:
    @pytest.mark.parametrize("command", ["certify", "dataset", "gradcheck"])
    @settings(max_examples=100, deadline=None)
    @given(config=command_configs())
    def test_every_config_ends_in_a_documented_exit(self, command, config):
        assert documented_exit(command, config) in (
            EXIT_OK, EXIT_BOUND_FAILURE, EXIT_INPUT_ERROR, EXIT_OVERFLOW)

    # eta0 = 1e308 overflows the loss envelope at T = 1 and T = 2. With
    # targets equal to the zero network's outputs J0 = 0, S_t itself
    # overflows at T = 2 and the envelope is 0 * inf = nan. RuntimeWarnings
    # are errors in the tests, so an unguarded overflow escapes main. A
    # subnormal eta0 overflows the rate-sum horizon log(L) / (d eta0).
    @pytest.mark.parametrize("overrides", [
        {"T": 1}, {"T": 2},
        {"T": 2, "init_mode": "certified", "target_mode": "near_init"},
        {"T": 0, "depths": [2], "eta0": 5e-324},
    ], ids=["T1", "T2", "T2-zero-J0", "subnormal-eta0"])
    def test_extreme_rates_end_in_a_documented_exit(self, overrides):
        config = {"d": 1, "N": 1, "depths": [1], "alpha0": 0, "beta0": 0,
                  "eta0": 1e308, "c0": 1, "init_scale": 0, "certify_draws": 0, **overrides}
        assert documented_exit("certify", config) == EXIT_OK

    def test_nan_bound_has_nan_tol(self, tmp_path):
        # S_2 overflows and the envelope is 0 * inf = nan: a NaN bound gives a
        # NaN tol, as a NaN observed value does
        cfg = write_config(tmp_path, d=1, N=1, depths=[1], T=2, alpha0=0, beta0=0,
                           eta0=1e308, c0=1, init_scale=0, certify_draws=0,
                           init_mode="certified", target_mode="near_init")
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row, = [r for r in load_reports_jsonl(out / "bounds.jsonl")
                if r["name"] == "envelope_loss"]
        assert math.isnan(row["bound"]) and math.isnan(row["tol"])


def assert_strict_json_files(directory):
    for name in os.listdir(directory):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                json.load(fh, parse_constant=reject_constant)


class TestAnalyzeProperty:
    @settings(max_examples=150, deadline=None)
    @given(train_configs())
    @example({"d": 4, "N": 2, "depths": [4, 8, 16], "T": 3, "init_mode": "certified",
              "init_scale": 0.0})
    def test_every_trained_run_ends_in_a_documented_exit(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            run_dir, out = os.path.join(tmp, "run"), os.path.join(tmp, "analysis")
            trained = main(["train", "--config", path, "--out", run_dir])
            if trained not in (EXIT_OK, EXIT_OVERFLOW):
                return
            os.mkdir(out)
            code = main(["analyze", "--config", path, "--run-dir", run_dir, "--out", out])
            assert code in (EXIT_OK, EXIT_INPUT_ERROR)
            if code == EXIT_INPUT_ERROR:
                assert os.listdir(out) == []
            assert_strict_json_files(out)


class TestDatasetCommand:
    def test_writes_and_round_trips(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["dataset", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data, meta = load_dataset(out / "dataset.csv")
        assert data.n == 4 and data.dim == 6
        assert meta["c0"] == 0.25

    def test_infeasible_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, N=6, d=2, enforce_separation=True)
        assert main(["dataset", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR


class TestTrainCommand:
    def test_zero_steps_single_row_logs(self, tmp_path):
        cfg = write_config(tmp_path, T=0)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for depth in (4, 8):
            log = load_runlog(out / f"runlog_L{depth}.csv")
            assert list(log.t) == [0]
            weights = load_weights(out / f"weights_L{depth}.bin")
            assert weights.depth == depth

    def test_interpolating_targets_zero_loss(self, tmp_path):
        # zero certified init with near-init targets leaves nothing to learn
        # (renormalization costs an ulp, hence <= 1e-24 rather than == 0)
        cfg = write_config(tmp_path, init_mode="certified", init_scale=0.0,
                           target_mode="near_init", epsilon_init=0.0)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for depth in (4, 8):
            log = load_runlog(out / f"runlog_L{depth}.csv")
            assert np.all(log.loss <= 1e-24)

    def test_overflow_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, activation="identity", eta0=1e12,
                           beta0=0.0, T=8)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OVERFLOW

    def test_layer_logging_emits_gap_file(self, tmp_path):
        cfg = write_config(tmp_path, log_layers=True)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "gaps_L8.csv").exists()


class TestDeterminism:
    def test_rerun_bitwise_identical(self, tmp_path):
        cfg = write_config(tmp_path, log_layers=True)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_certify_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path, depths=[4], T=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["certify", "--config", cfg, "--out", str(out)])
        assert tree_bytes(out1) == tree_bytes(out2)


class TestCertifyCommand:
    def test_certified_config_passes(self, tmp_path):
        cfg = write_config(tmp_path, d=16, N=2, depths=[32], T=20,
                           init_mode="certified", target_mode="near_init",
                           epsilon_init=0.0, enforce_separation=True,
                           eta0=5e-6, certify_draws=5, seed=11)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = load_reports_jsonl(out / "bounds.jsonl")
        names = {r["name"] for r in rows}
        assert {"assumption_iv_row_norms", "lr_per_step", "envelope_loss",
                "forward_hidden_upper", "gradient_upper",
                "hessian_spectral"} <= names
        applicable = [r for r in rows if r["applicable"] and not r["hypothesis"]]
        assert applicable and all(r["pass"] for r in applicable)

    def test_violated_hypotheses_exit_zero(self, tmp_path):
        # oversized weights: precondition rows fail, bounds are inapplicable
        cfg = write_config(tmp_path, beta0=0.0, depths=[4], T=3, certify_draws=3)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = load_reports_jsonl(out / "bounds.jsonl")
        assert any(r["hypothesis"] and not r["pass"] for r in rows)
        envelope = [r for r in rows if r["name"] == "envelope_loss"]
        assert envelope and not envelope[0]["applicable"]

    def test_draws_use_theorem_delta_whatever_alpha0(self, tmp_path, capsys):
        # at alpha0 = 0 the trained networks have delta = 1, but the draw
        # certificates assume delta_L = L^-1/2; drawn at delta = 1, a
        # gradient_upper row failed on a premise no row checks
        config = {"d": 3, "N": 2, "depths": [4, 8, 16], "T": 3, "alpha0": 0.0,
                  "certify_draws": 1}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = load_reports_jsonl(out / "bounds.jsonl")
        assert not [r["name"] for r in rows if r["applicable"] and not r["vacuous"]
                    and not r["hypothesis"] and not r["pass"]]
        assert "FAIL" not in capsys.readouterr().err

    @pytest.mark.parametrize("alpha0", [0.0, 0.5])
    def test_draws_meet_weight_scale_premise(self, tmp_path, monkeypatch, alpha0):
        # every draw is scaled to at most c0 L^-1/2, so the weight-scale
        # premise holds by construction, whatever alpha0 the runs use
        swept = []
        real = bounds.certify_draws

        def spy(*args):
            swept.extend(real(*args))
            return swept
        monkeypatch.setattr(bounds, "certify_draws", spy)
        cfg = write_config(tmp_path, d=3, N=2, depths=[4, 8], T=3, alpha0=alpha0,
                           certify_draws=10)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(swept) == 18 * 10 + 3
        scale = [r for r in swept if r.name == "hyp_weight_scale"]
        assert len(scale) == 4 * 10 + 1
        assert all(r.passed and r.observed <= r.bound for r in scale)
        # the Hessian's stack has every layer at half the cap
        assert scale[-1].observed == pytest.approx(0.5 * scale[-1].bound, rel=1e-12)

    def test_run_dir_mode(self, tmp_path):
        cfg = write_config(tmp_path, depths=[4], T=4)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        assert (out / "bounds.jsonl").exists()

    # a certified init with near-init targets and a small rate, at depth 128
    ADMISSIBLE = dict(d=4, N=2, depths=[128], c0=0.25, init_mode="certified",
                      target_mode="near_init", epsilon_init=1e-6,
                      enforce_separation=True, eta0=1e-5, certify_draws=2, seed=3)

    def test_run_past_the_config_horizon_exits_2(self, tmp_path, capsys):
        # a run of T=50 certified under T=5 would pass learning-rate premises
        # that checked only 5 of its 50 steps
        trained = write_config(tmp_path, name="trained.json", T=50, **self.ADMISSIBLE)
        short = write_config(tmp_path, name="short.json", T=5, **self.ADMISSIBLE)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", trained, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "cert"
        assert main(["certify", "--config", short, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(run_dir / "runlog_L128.csv") in err and "T=5" in err
        assert not out.exists()
        assert main(["certify", "--config", trained, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK

    def test_completed_run_short_of_the_config_horizon_exits_2(self, tmp_path, capsys):
        # a completed run of T=5 certified under T=50 would pass the envelope
        # on 5 of the 50 steps that the learning-rate premises check
        trained = write_config(tmp_path, name="trained.json", T=5, **self.ADMISSIBLE)
        long = write_config(tmp_path, name="long.json", T=50, **self.ADMISSIBLE)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", trained, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "cert"
        assert main(["certify", "--config", long, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(run_dir / "runlog_L128.csv") in err and "T=50" in err
        assert not out.exists()

    # a plain run, a decaying rate with trainable delta, per-layer logging and
    # near-init targets, and a short run
    @pytest.mark.parametrize("overrides", [
        {},
        {"schedule": "inverse_decay", "delta_trainable": True, "log_layers": True,
         "target_mode": "near_init"},
        {"T": 3},
    ], ids=["stride", "mixed", "short"])
    def test_fresh_certify_equals_certify_of_the_trained_run(self, tmp_path, capsys,
                                                             overrides):
        cfg = write_config(tmp_path, **{"T": 12, "certify_draws": 1, **overrides})
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        results = []
        for name, extra in (("fresh", []), ("run-dir", ["--run-dir", str(run_dir)])):
            out = tmp_path / name
            code = main(["certify", "--config", cfg, "--out", str(out), *extra])
            results.append((code, tree_bytes(out), capsys.readouterr()))
        assert results[0] == results[1]

    def test_run_no_longer_than_its_stride_certifies_as_logged_every_step(
            self, tmp_path, capsys):
        # a run of T = 2 certifies from its log of t = 0, 1, 2; the log of
        # t = 0, 2 that a run logged every fifth step wrote exits 2
        cfg = write_config(tmp_path, depths=[4], T=2, eta0=0.07)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK

        def certify(out):
            return main(["certify", "--config", cfg, "--out", str(tmp_path / out),
                         "--run-dir", str(run_dir)])
        assert certify("cert") == EXIT_OK
        path = run_dir / "runlog_L4.csv"
        keep_log_rows(path, [0, 2])
        capsys.readouterr()
        assert certify("gapped") == EXIT_INPUT_ERROR
        assert f"run log steps must be 0, 1, 2, ... in {path}" in capsys.readouterr().err
        assert not (tmp_path / "gapped").exists()

    def test_doctored_run_fails_with_exit_1(self, tmp_path):
        # corrupt a recorded loss beyond the envelope: certify must say so
        cfg = write_config(tmp_path, d=16, N=2, depths=[32], T=10,
                           init_mode="certified", target_mode="near_init",
                           epsilon_init=0.0, enforce_separation=True,
                           eta0=5e-6, certify_draws=2, seed=11)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        log_path = run_dir / "runlog_L32.csv"
        lines = log_path.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[2] = repr(float(parts[2]) * 1e6)
        lines[-1] = ",".join(parts)
        log_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_BOUND_FAILURE
        rows = load_reports_jsonl(out / "bounds.jsonl")
        failed = [r for r in rows if not r["pass"] and r["applicable"]
                  and not r["hypothesis"]]
        assert any(r["name"] in ("envelope_loss", "induction_loss_doubling")
                   for r in failed)


    @pytest.mark.parametrize("with_run_dir", [False, True])
    def test_each_depth_initialized_once(self, tmp_path, monkeypatch, with_run_dir):
        cfg = write_config(tmp_path, depths=[2, 4, 8], T=2, certify_draws=1)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        calls = []
        init_weights = cli._init_weights

        def counted(cfg, depth):
            calls.append(depth)
            return init_weights(cfg, depth)
        monkeypatch.setattr(cli, "_init_weights", counted)
        argv = ["certify", "--config", cfg, "--out", str(tmp_path / "cert")]
        if with_run_dir:
            argv += ["--run-dir", str(run_dir)]
        assert main(argv) == EXIT_OK
        assert calls == [2, 4, 8]


class TestFailedRuns:
    # identity activation with eta0=50 overflows at every depth within T=40
    OVERFLOW = {"d": 6, "N": 4, "depths": [8, 16, 32], "T": 40, "eta0": 50,
                "activation": "identity"}
    # beta0=-100 makes w0 itself overflow: the forward pass at t=0 fails
    W0_OVERFLOW = {"d": 4, "N": 2, "depths": [8, 16], "T": 5, "beta0": -100.0,
                   "activation": "identity", "certify_draws": 2}

    def test_overflowed_run_does_not_certify_as_completed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.OVERFLOW)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OVERFLOW
        for depth in (8, 16, 32):
            log = load_runlog(run_dir / f"runlog_L{depth}.csv")
            assert log.failed and log.fail_reason
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        rows = load_reports_jsonl(out / "bounds.jsonl")
        completed = [r for r in rows if r["name"] == "hyp_run_completed"]
        assert [r["context"]["L"] for r in completed] == [8, 16, 32]
        assert not any(r["pass"] for r in completed)
        envelope = [r for r in rows if r["name"].startswith(("envelope_", "induction_"))]
        assert envelope and not any(r["applicable"] for r in envelope)
        capsys.readouterr()
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "analysis")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert all(f"depth {depth}: skipped" in err for depth in (8, 16, 32))

    def test_overflowing_weight_norms_fail_the_run(self, tmp_path, capsys):
        # eta0=1e200 gives finite weights whose squares overflow a float
        cfg = write_config(tmp_path, d=4, N=2, depths=[4, 8], T=3, eta0=1e200)
        run_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OVERFLOW
        err = capsys.readouterr().err
        assert all(f"depth {depth}: overflow" in err for depth in (4, 8))
        for depth in (4, 8):
            log = load_runlog(run_dir / f"runlog_L{depth}.csv")
            assert log.failed and "non-finite weight norms" in log.fail_reason
            assert not np.isfinite(log.fbar[-1])
            assert np.all(np.isfinite(log.fbar[:-1]))
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        completed = [r for r in load_reports_jsonl(out / "bounds.jsonl")
                     if r["name"] == "hyp_run_completed"]
        assert [r["context"]["L"] for r in completed] == [4, 8]
        assert not any(r["pass"] for r in completed)

    def test_analyze_skips_failed_depths(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        good = write_config(tmp_path, "good.json", depths=[4, 8, 16], T=10)
        bad = write_config(tmp_path, "bad.json", **{**self.OVERFLOW, "depths": [32]})
        assert main(["train", "--config", good, "--out", str(run_dir)]) == EXIT_OK
        assert main(["train", "--config", bad, "--out", str(run_dir)]) == EXIT_OVERFLOW
        capsys.readouterr()
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", good, "--run-dir", str(run_dir),
                     "--out", str(out)]) == EXIT_OK
        assert "depth 32: skipped" in capsys.readouterr().err
        lines = (out / "two_variation.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "16"]

    def test_overflow_before_first_step_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.W0_OVERFLOW)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OVERFLOW
        err = capsys.readouterr().err
        assert all(f"depth {depth}: overflow after step 0" in err for depth in (8, 16))
        for depth in (8, 16):
            # the saved log carries the failure in one t=0 row with w0's norms
            log = load_runlog(run_dir / f"runlog_L{depth}.csv")
            assert log.failed and log.fail_reason
            assert list(log.t) == [0] and np.isnan(log.loss[0])
            assert np.isfinite(log.fbar[0]) and log.fbar[0] > 0
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "analysis")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert all(f"depth {depth}: skipped, run failed after step 0" in err
                   for depth in (8, 16))
        assert err.index("depth 8: skipped") < err.index("depth 16: skipped")
        assert "no completed runs" in err

    def test_certify_reports_overflow_at_w0(self, tmp_path):
        cfg = write_config(tmp_path, **self.W0_OVERFLOW)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OVERFLOW
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        rows = load_reports_jsonl(out / "bounds.jsonl")
        for name in ("assumption_v_initial_loss", "hyp_run_completed"):
            failed = [r for r in rows if r["name"] == name]
            assert [r["context"]["L"] for r in failed] == [8, 16]
            assert not any(r["pass"] for r in failed)
        assert all(r["observed"] == math.inf for r in rows
                   if r["name"] == "assumption_v_initial_loss")

    def test_bounds_jsonl_is_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, **self.W0_OVERFLOW)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OVERFLOW
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        lines = (out / "bounds.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=reject_constant) for line in lines]
        assert any(r["observed"] == "inf" for r in rows)
        assert any(r["observed"] == "nan" for r in rows)


class TestAnalyzeCommand:
    def run_training(self, tmp_path, **overrides):
        cfg = write_config(tmp_path, **overrides)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        return cfg, run_dir

    def test_full_outputs(self, tmp_path):
        cfg, run_dir = self.run_training(tmp_path, depths=[4, 8, 16], T=20)
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(out)]) == EXIT_OK
        fits = json.loads((out / "scaling_fits.json").read_text())
        assert {"fbar0", "delta_final", "weight_norm", "total_scaling"} <= set(fits)
        # alpha0 plus the weight-norm exponent
        assert fits["total_scaling"] == 0.5 + fits["weight_norm"]["exponent"]
        assert (out / "steps_to_eps.csv").exists()
        assert (out / "two_variation.csv").exists()
        assert (out / "limit_distances.csv").exists()
        assert (out / "scatter_m0_n1.csv").exists()

    def test_does_not_import_numpy_ma(self, tmp_path):
        # np.union1d imports numpy.ma on its first call: +1.7 MB of RSS
        cfg, run_dir = self.run_training(tmp_path, depths=[4, 8, 16], T=2)
        script = ("import sys; from resnetlab.cli import main; code = main(sys.argv[1:]); "
                  "print('numpy.ma' in sys.modules); sys.exit(code)")
        result = subprocess.run(
            [sys.executable, "-c", script, "analyze", "--config", cfg,
             "--run-dir", str(run_dir), "--out", str(tmp_path / "analysis")],
            capture_output=True, text=True, env=src_env())
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "analysis" / "limit_distances.csv").exists()
        assert result.stdout.splitlines()[-1] == "False"

    def test_single_depth_skips_fits(self, tmp_path):
        cfg, run_dir = self.run_training(tmp_path, depths=[8], T=10)
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(out)]) == EXIT_OK
        fits = json.loads((out / "scaling_fits.json").read_text())
        assert fits == {}
        assert (out / "steps_to_eps.csv").exists()
        assert not (out / "limit_distances.csv").exists()

    def test_missing_run_dir_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--run-dir",
                     str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o")]) == EXIT_INPUT_ERROR

    def test_run_dir_with_glob_characters(self, tmp_path):
        # train writes into "run[1]" and analyze reads it back, as certify does
        cfg = write_config(tmp_path, **SMALL)
        run_dir = str(tmp_path / "run[1]")
        assert main(["train", "--config", cfg, "--out", run_dir]) == EXIT_OK
        for command in ("analyze", "certify"):
            assert main([command, "--config", cfg, "--run-dir", run_dir,
                         "--out", str(tmp_path / command)]) == EXIT_OK
        fit_inputs = (tmp_path / "analyze" / "fit_inputs.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in fit_inputs[1:]] == ["4", "8"]

    def test_one_depth_named_twice_exits_2_writing_nothing(self, tmp_path, capsys):
        # runlog_L08.csv parses to depth 8, as runlog_L8.csv does
        cfg, run_dir = self.run_training(tmp_path, **SMALL)
        (run_dir / "runlog_L08.csv").write_bytes((run_dir / "runlog_L8.csv").read_bytes())
        code, files = run_into_empty_dir(
            tmp_path, ["analyze", "--config", cfg, "--run-dir", str(run_dir)])
        assert (code, files) == (EXIT_INPUT_ERROR, [])
        err = capsys.readouterr().err
        assert (f"run logs {run_dir / 'runlog_L08.csv'} and {run_dir / 'runlog_L8.csv'} "
                "both hold depth 8") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, line, sep, token", [
        ("weights_L8.bin", 0, " ", "6.5"),   # a non-integer width in the header
        ("runlog_L4.csv", 2, ",", "zz"),     # the t cell of the t=1 row
    ])
    def test_unparseable_number_exits_2(self, tmp_path, capsys, name, line, sep, token):
        cfg, run_dir = self.run_training(tmp_path)
        path = run_dir / name
        lines = path.read_bytes().split(b"\n")
        sep = sep.encode()
        lines[line] = sep.join([token.encode()] + lines[line].split(sep)[1:])
        path.write_bytes(b"\n".join(lines))
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "analysis")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:-8],                # the last entry missing
        lambda raw: raw + b"\0" * 8,         # one entry too many
        # the first entry of the first layer set to NaN
        lambda raw: (raw[:raw.index(b"\n") + 1] + np.float64(np.nan).tobytes()
                     + raw[raw.index(b"\n") + 9:]),
    ], ids=["truncated", "over-long", "nan-entry"])
    def test_corrupt_weights_payload_exits_2(self, tmp_path, capsys, corrupt):
        cfg, run_dir = self.run_training(tmp_path)
        path = run_dir / "weights_L8.bin"
        path.write_bytes(corrupt(path.read_bytes()))
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "analysis")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_text_weights_run_dir_exits_2(self, tmp_path, capsys):
        # a run directory written before weights became binary
        cfg, run_dir = self.run_training(tmp_path, depths=[8])
        os.rename(run_dir / "weights_L8.bin", run_dir / "weights_L8.txt")
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "analysis")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"missing final weights {run_dir / 'weights_L8.bin'}" in err
        assert "Traceback" not in err

    # every fbar0 is 0 from zero weights; with T = 0 so is every final
    # weight norm, and the fits over them are left out
    @pytest.mark.parametrize("T, omitted", [
        (3, {"fbar0"}),
        (0, {"fbar0", "weight_norm", "total_scaling"}),
    ])
    def test_zero_init_omits_fits_over_zeros(self, tmp_path, capsys, T, omitted):
        cfg, run_dir = self.run_training(tmp_path, **dict(
            SMALL, depths=[4, 8, 16], T=T, init_mode="certified", init_scale=0.0))
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(out)]) == EXIT_OK
        fits = json.loads((out / "scaling_fits.json").read_text())
        assert set(fits) == {"fbar0", "delta_final", "weight_norm", "total_scaling"} - omitted
        assert "Traceback" not in capsys.readouterr().err

    def test_weights_of_another_depth_exit_2_writing_nothing(self, tmp_path, capsys):
        cfg, run_dir = self.run_training(tmp_path, **dict(SMALL, depths=[4, 8, 16]))
        path = run_dir / "weights_L8.bin"
        path.write_bytes((run_dir / "weights_L16.bin").read_bytes())
        code, files = run_into_empty_dir(
            tmp_path, ["analyze", "--config", cfg, "--run-dir", str(run_dir)])
        assert (code, files) == (EXIT_INPUT_ERROR, [])
        assert f"{path} holds depth 16, not 8" in capsys.readouterr().err

    def test_mixed_widths_exit_2_writing_nothing(self, tmp_path, capsys):
        cfg, run_dir = self.run_training(tmp_path, **SMALL)
        (tmp_path / "wide").mkdir()
        _, wide_dir = self.run_training(tmp_path / "wide", **dict(SMALL, d=6, depths=[16]))
        for name in ("runlog_L16.csv", "weights_L16.bin"):
            (run_dir / name).write_bytes((wide_dir / name).read_bytes())
        code, files = run_into_empty_dir(
            tmp_path, ["analyze", "--config", cfg, "--run-dir", str(run_dir)])
        assert (code, files) == (EXIT_INPUT_ERROR, [])
        assert ("all runs must share the width d: depth 16 has d=6, depth 4 has d=4"
                in capsys.readouterr().err)

    def test_mixed_step_grids_exit_2_writing_nothing(self, tmp_path, capsys):
        # depth 16 replaced by a T = 9 run: its loss curve has other steps
        cfg, run_dir = self.run_training(tmp_path, d=4, N=2, depths=[4, 8, 16], T=5,
                                         seed=1)
        (tmp_path / "long").mkdir()
        _, long_dir = self.run_training(tmp_path / "long", d=4, N=2, depths=[16], T=9,
                                        seed=1)
        for name in ("runlog_L16.csv", "weights_L16.bin"):
            (run_dir / name).write_bytes((long_dir / name).read_bytes())
        code, files = run_into_empty_dir(
            tmp_path, ["analyze", "--config", cfg, "--run-dir", str(run_dir)])
        assert (code, files) == (EXIT_INPUT_ERROR, [])
        assert ("all runs must log the same steps t: depth 16 logs other steps than "
                "depth 4" in capsys.readouterr().err)

    # the t = 10 loss of an admissible run set to nan (certify observed it
    # and failed; analyze passed it), and the t = 0 loss of a default-style
    # run set to inf (analyze wrote inf rows into steps_to_eps.csv)
    @pytest.mark.parametrize("overrides, depth, line, token", [
        ({"d": 4, "N": 2, "depths": [128, 256], "T": 50, "c0": 0.25,
          "init_mode": "certified", "target_mode": "near_init", "epsilon_init": 1e-6,
          "enforce_separation": True, "eta0": 1e-5, "certify_draws": 20, "seed": 3},
         128, 11, "nan"),
        ({"d": 4, "N": 2, "depths": [4, 8, 16], "T": 5, "seed": 1}, 8, 1, "inf"),
    ], ids=["admissible-nan", "default-inf"])
    def test_non_finite_completed_run_log_exits_2(self, tmp_path, capsys, overrides,
                                                  depth, line, token):
        cfg, run_dir = self.run_training(tmp_path, **overrides)
        path = run_dir / f"runlog_L{depth}.csv"
        lines = path.read_text().split("\n")
        parts = lines[line].split(",")
        parts[2] = token
        lines[line] = ",".join(parts)
        path.write_text("\n".join(lines))
        for command in ("certify", "analyze"):
            (tmp_path / command).mkdir()
            code, files = run_into_empty_dir(
                tmp_path / command, [command, "--config", cfg, "--run-dir", str(run_dir)])
            assert (code, files) == (EXIT_INPUT_ERROR, [])
            err = capsys.readouterr().err
            assert f"non-finite number in run log {path} outside the last row" in err
            assert "Traceback" not in err

    # the t cell of the second row (t=1) edited to -7, of the first row (t=0)
    # edited to 5, and the rows of a run logged every second step (t = 0, 2, 4)
    @pytest.mark.parametrize("line, token", [(2, "-7"), (1, "5"),
                                             pytest.param(None, None, id="gapped")])
    def test_step_column_out_of_order_exits_2(self, tmp_path, capsys, line, token):
        cfg, run_dir = self.run_training(tmp_path, **dict(SMALL, T=4))
        path = run_dir / "runlog_L8.csv"
        if line is None:
            keep_log_rows(path, [0, 2, 4])
        else:
            lines = path.read_text().split("\n")
            lines[line] = ",".join([token] + lines[line].split(",")[1:])
            path.write_text("\n".join(lines))
        for command in ("certify", "analyze"):
            (tmp_path / command).mkdir()
            code, files = run_into_empty_dir(
                tmp_path / command, [command, "--config", cfg, "--run-dir", str(run_dir)])
            assert (code, files) == (EXIT_INPUT_ERROR, [])
            err = capsys.readouterr().err
            assert f"run log steps must be 0, 1, 2, ... in {path}" in err

    # a Latin-1 byte in the header, an empty file, and a cell beyond the csv
    # module's field size limit (131072 characters)
    @pytest.mark.parametrize("content, message", [
        (",".join(RUNLOG_COLUMNS).replace("delta", "delta\u00e9").encode("latin-1"),
         "run log {} is not UTF-8"),
        (b"", "unexpected run log header [] in {}"),
        (",".join(RUNLOG_COLUMNS).encode() + b'\r\n"' + b"x" * 200_000 + b'"\r\n',
         "malformed run log {}: field larger than field limit"),
    ], ids=["not-utf8", "empty", "over-long-cell"])
    def test_unreadable_run_log_exits_2(self, tmp_path, capsys, content, message):
        cfg, run_dir = self.run_training(tmp_path, **SMALL)
        path = run_dir / "runlog_L8.csv"
        path.write_bytes(content)
        for command in ("certify", "analyze"):
            (tmp_path / command).mkdir()
            code, files = run_into_empty_dir(
                tmp_path / command, [command, "--config", cfg, "--run-dir", str(run_dir)])
            assert (code, files) == (EXIT_INPUT_ERROR, [])
            err = capsys.readouterr().err
            assert message.format(path) in err and "Traceback" not in err

    def test_memory_holds_two_stacks(self, tmp_path):
        # ten depths against the deepest two: the peaks differ by less than
        # one deepest stack, so no more than two stacks are held at once
        peaks = []
        for name, depths in (("ten", list(range(200, 300, 10))), ("two", [280, 290])):
            (tmp_path / name).mkdir()
            cfg, run_dir = self.run_training(tmp_path / name, d=20, N=4, T=0, depths=depths)
            config = load_config(cfg, {})
            tracemalloc.start()
            try:
                assert cli.cmd_analyze(config, str(run_dir),
                                       str(tmp_path / name / "analysis")) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        stack = 290 * 20 * 20 * 8
        assert peaks[0] - peaks[1] < stack, (peaks, stack)

    def test_fits_run_without_a_stack(self, tmp_path, monkeypatch):
        # by the first power-law fit the depth loop has released its stacks:
        # the traced memory is less than one deepest stack above its level
        # when the loop began
        cfg, run_dir = self.run_training(tmp_path, d=20, N=4, T=0, depths=[280, 290])
        config = load_config(cfg, {})
        levels = {}
        real_runs, real_fit = cli._completed_runs, analysis.fit_power_law

        def runs(run_dir):
            levels.setdefault("loop", tracemalloc.get_traced_memory()[0])
            return real_runs(run_dir)

        def fit(points):
            levels.setdefault("fit", tracemalloc.get_traced_memory()[0])
            return real_fit(points)

        monkeypatch.setattr(cli, "_completed_runs", runs)
        monkeypatch.setattr(analysis, "fit_power_law", fit)
        tracemalloc.start()
        try:
            assert cli.cmd_analyze(config, str(run_dir), str(tmp_path / "analysis")) == EXIT_OK
        finally:
            tracemalloc.stop()
        stack = 290 * 20 * 20 * 8
        assert levels["fit"] - levels["loop"] < stack, (levels, stack)

    @pytest.mark.parametrize("layout", ["non-nested", "failed-middle"])
    def test_files_equal_per_layer_oracles(self, tmp_path, layout):
        if layout == "non-nested":
            completed, scatter_entry = [3, 5, 12, 20], [2, 4]
            cfg, run_dir = self.run_training(tmp_path, d=6, N=3, T=10, depths=completed,
                                             scatter_entry=scatter_entry)
        else:
            completed, scatter_entry = [4, 8, 16], [0, 1]
            cfg, run_dir = self.run_training(tmp_path, depths=completed, T=10)
            bad = write_config(tmp_path, "bad.json", **{**TestFailedRuns.OVERFLOW,
                                                        "depths": [12]})
            assert main(["train", "--config", bad, "--out", str(run_dir)]) == EXIT_OVERFLOW
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
                     "--out", str(out)]) == EXIT_OK
        runs = [(L, load_weights(run_dir / f"weights_L{L}.bin")) for L in completed]
        m, n = scatter_entry

        def rows(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))[1:]

        assert [(int(L), float(v)) for L, v in rows("two_variation.csv")] == [
            (L, two_variation_oracle(np.sqrt(L) * w.layers)) for L, w in runs]
        distances = [((int(a), int(b)), float(v)) for a, b, v in rows("limit_distances.csv")]
        assert distances == scaling_limit_distance_oracle(runs)
        # a failed middle depth drops out of the pairs: (4, 8) and (8, 16)
        assert [pair for pair, _ in distances] == list(zip(completed, completed[1:]))
        assert [(int(L), float(v)) for L, _, v, _ in rows("fit_inputs.csv")] == [
            (L, mean_layer_norm_oracle(w)) for L, w in runs]
        assert [(int(L), float(s), float(v))
                for L, s, v in rows(f"scatter_m{m}_n{n}.csv")] == entry_scatter_oracle(runs, m, n)

    def test_steps_csv_round_trips(self, tmp_path):
        cfg, run_dir = self.run_training(tmp_path, depths=[4, 8], T=30)
        out = tmp_path / "analysis"
        main(["analyze", "--config", cfg, "--run-dir", str(run_dir),
              "--out", str(out)])
        lines = (out / "steps_to_eps.csv").read_text().splitlines()
        assert lines[0] == "eps,t_first"
        for line in lines[1:]:
            eps, t_first = line.split(",")
            assert float(eps) > 0
            assert t_first == "" or int(t_first) >= 0


class TestGradcheckCommand:
    def test_passes(self, tmp_path):
        cfg = write_config(tmp_path, gradcheck_instances=4)
        assert main(["gradcheck", "--config", cfg]) == EXIT_OK


class TestEntryPoints:
    def test_bad_config_path_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("case", ["config-is-dir", "config-not-utf8", "out-is-file",
                                      "out-under-file"])
    def test_path_errors_exit_2(self, tmp_path, capsys, case):
        cfg, out = write_config(tmp_path, **SMALL), tmp_path / "out"
        afile = tmp_path / "afile"
        afile.write_text("")
        if case == "config-is-dir":
            cfg = str(tmp_path)
        elif case == "config-not-utf8":
            cfg = tmp_path / "latin1.json"
            cfg.write_bytes('{"activation": "tanh\u00e9"}'.encode("latin-1"))
        elif case == "out-is-file":
            out = afile
        else:
            out = afile / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if case == "config-not-utf8":
            assert err == f"error: config {cfg} is not UTF-8\n"

    def test_commands_import_only_their_modules(self, tmp_path):
        # train and gradcheck run no certificate and no analysis, and analyze
        # runs no certificate; one process runs the three in turn
        cfg, run = write_config(tmp_path, T=2, gradcheck_instances=1), str(tmp_path / "run")
        commands = [["train", "--config", cfg, "--out", run],
                    ["gradcheck", "--config", cfg],
                    ["analyze", "--config", cfg, "--run-dir", run,
                     "--out", str(tmp_path / "analysis")]]
        script = ("import json, sys; from resnetlab.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    code = main(argv)\n"
                  "    print('loaded', code, *sorted(m for m in sys.modules if m in\n"
                  "          ('resnetlab.analysis', 'resnetlab.bounds')))\n")
        result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                                capture_output=True, text=True, env=src_env())
        assert result.returncode == 0, result.stderr
        assert [line for line in result.stdout.splitlines() if line.startswith("loaded")] == [
            "loaded 0", "loaded 0", "loaded 0 resnetlab.analysis"]

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "resnetlab.cli", "dataset", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env())
        assert result.returncode == EXIT_OK
        assert "dataset:" in result.stdout
