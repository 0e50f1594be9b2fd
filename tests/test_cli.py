import collections
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from resnetlab import autograd, bounds, cli, network
from resnetlab.bounds import load_reports_jsonl
from resnetlab.cli import (EXIT_BOUND_FAILURE, EXIT_INPUT_ERROR, EXIT_OK,
                           EXIT_OVERFLOW, ExperimentConfig, load_config, main)
from resnetlab.data import load_dataset
from resnetlab.errors import InvalidInputError
from resnetlab.network import load_weights
from resnetlab.training import load_runlog


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
        cfg = load_config(path, {"seed": 42, "threads": None})
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

    @pytest.mark.parametrize("threads, flag", [(0, []), (-2, []), (None, ["--threads", "0"])])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads, flag):
        cfg = write_config(tmp_path) if threads is None else write_config(tmp_path, threads=threads)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]
                    + flag) == EXIT_INPUT_ERROR
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_certify_draws_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, certify_draws=-2)
        assert main(["certify", "--config", cfg,
                     "--out", str(tmp_path / "cert")]) == EXIT_INPUT_ERROR
        assert "certify_draws" in capsys.readouterr().err
        assert not (tmp_path / "cert").exists()


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

    def test_threads_match_sequential(self, tmp_path):
        cfg = write_config(tmp_path)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["train", "--config", cfg, "--out", str(seq)]) == EXIT_OK
        assert main(["train", "--config", cfg, "--out", str(par),
                     "--threads", "2"]) == EXIT_OK
        seq_files = tree_bytes(seq)
        par_files = tree_bytes(par)
        del seq_files["config.json"], par_files["config.json"]  # threads differ
        assert seq_files == par_files


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

    def test_run_dir_mode(self, tmp_path):
        cfg = write_config(tmp_path, depths=[4], T=4)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out),
                     "--run-dir", str(run_dir)]) == EXIT_OK
        assert (out / "bounds.jsonl").exists()

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


class TestDrawPasses:
    def test_one_gradient_pass_per_draw(self, monkeypatch):
        # every binding of the three pass functions in the modules on the path
        cfg = ExperimentConfig(d=4, N=3, depths=[8], certify_draws=3)
        data = cli._base_dataset(cfg)
        calls = collections.Counter()
        in_hessian = False

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                if not in_hessian:
                    key = name
                    if name == "forward_batch":
                        key = f"forward_batch_N{np.shape(args[0])[0]}"
                    calls[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, bounds, autograd, network):
            for name in ("grad_objective_with_stats", "objective", "forward_batch"):
                if hasattr(module, name):
                    count(module, name)
        real_hessian = bounds.certify_hessian

        def hessian(*args, **kwargs):
            # its power iteration is counted by the autograd tests
            nonlocal in_hessian
            in_hessian = True
            try:
                return real_hessian(*args, **kwargs)
            finally:
                in_hessian = False
        monkeypatch.setattr(bounds, "certify_hessian", hessian)

        reports = cli._random_draw_reports(cfg, data, 8)
        assert {r.context.get("draw") for r in reports} >= {0, 1, 2}
        assert calls["grad_objective_with_stats"] == 3
        assert calls["objective"] == 0
        assert calls["forward_batch_N1"] == 3
        assert calls[f"forward_batch_N{cfg.N}"] == 3


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

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        lines = (out / "bounds.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=reject) for line in lines]
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
        assert (out / "steps_to_eps.csv").exists()
        assert (out / "two_variation.csv").exists()
        assert (out / "limit_distances.csv").exists()
        assert (out / "scatter_m0_n1.csv").exists()

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

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "resnetlab.cli", "dataset", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == EXIT_OK
        assert "dataset:" in result.stdout
