import dataclasses
import math
import re

import numpy as np
import pytest

from helpers import zero_weights
from resnetlab.autograd import grad_objective_with_stats, objective
from resnetlab.bounds import certify_gradient_lower, check_assumptions
from resnetlab.data import (AssumptionParams, Dataset, gaussian_init_std,
                            init_certified, init_gaussian, initial_loss_cap,
                            initial_row_norm_cap, load_dataset,
                            near_init_targets, sample_sphere_dataset,
                            save_dataset, separation_of, separation_threshold)
from resnetlab.errors import InvalidInputError, NumericalOverflowError
from resnetlab.network import NetworkConfig, Weights, forward_batch, layer_squares
from resnetlab.training import weight_norms


def params_for(c0=0.1, N=2, d=2, L=4):
    return AssumptionParams(c0, N, d, L)


class TestSeparation:
    def test_threshold_value(self):
        assert separation_threshold(2, 0.1) == pytest.approx(
            math.exp(-0.4) / 16.0, rel=1e-12)
        assert separation_threshold(2, 0.1) == pytest.approx(0.041896, abs=5e-6)

    def test_orthogonal_pair_sampled(self):
        data = sample_sphere_dataset(2, 2, seed=1, params=params_for())
        assert data.separation <= separation_threshold(2, 0.1)
        assert np.allclose(np.linalg.norm(data.xs, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(data.ys, axis=1), 1.0, atol=1e-12)

    def test_four_points_in_plane_infeasible(self):
        # best spread of 4 unit vectors in the plane has |<x_i,x_j>| >= cos(45)
        with pytest.raises(InvalidInputError) as err:
            sample_sphere_dataset(4, 2, seed=0, params=params_for(N=4))
        best = re.search(r"\(best (\S+)\)$", str(err.value))
        assert float(best.group(1)) > separation_threshold(4, 0.1)

    def test_enforcement_can_be_disabled(self):
        data = sample_sphere_dataset(8, 4, seed=0, params=params_for(N=8),
                                     enforce_separation=False)
        assert data.separation > separation_threshold(8, 0.1)
        assert data.separation == separation_of(data.xs)

    def test_single_point_separation_zero(self):
        assert separation_of(np.array([[1.0, 0.0]])) == 0.0

    def test_recorded_equals_recomputed(self):
        data = sample_sphere_dataset(2, 8, seed=5, params=params_for(d=8))
        assert data.separation == separation_of(data.xs)

    def test_parallel_inputs_fail_both_separation_premises(self):
        # the separation is computed from the inputs; no caller can set it
        fields = dataclasses.fields(Dataset)
        assert [f.name for f in fields] == ["xs", "ys", "separation"]
        assert not fields[2].init
        xs = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(TypeError):
            Dataset(xs, xs, 0.0)
        data = Dataset(xs, np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert data.separation == 1.0
        params, w = params_for(), zero_weights(2, 4)
        rows = {r.name: r for r in check_assumptions(data, w, params)}
        assert not rows["assumption_iii_separation"].passed
        grads, _, value = grad_objective_with_stats(data, w)
        rows = {r.name: r for r in certify_gradient_lower(
            data, w, value, layer_squares(grads), weight_norms(w), params)}
        assert not rows["hyp_separation"].passed

    def test_determinism(self):
        a = sample_sphere_dataset(2, 6, seed=9, params=params_for(d=6))
        b = sample_sphere_dataset(2, 6, seed=9, params=params_for(d=6))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        assert a.separation == b.separation


class TestDataset:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_rejected(self, shape):
        # an empty set would reach the objective's division by N
        with pytest.raises(InvalidInputError, match="N, d >= 1"):
            Dataset(np.empty(shape), np.empty(shape))


class TestNearInitTargets:
    def test_zero_eps_zero_weights_keeps_inputs(self):
        data = sample_sphere_dataset(2, 4, seed=3, params=params_for(d=4))
        w0 = zero_weights(4, 6)
        ys = near_init_targets(data.xs, w0, 0.0, seed=4)
        assert np.allclose(ys, data.xs, atol=1e-15)
        assert objective(Dataset(data.xs, ys), w0) <= 1e-24

    def test_zero_eps_normalizes_outputs(self):
        rng = np.random.default_rng(6)
        data = sample_sphere_dataset(2, 4, seed=6, params=params_for(d=4))
        layers = 0.05 * rng.standard_normal((5, 4, 4))
        w0 = Weights(layers, 5 ** -0.5)
        ys = near_init_targets(data.xs, w0, 0.0, seed=7)
        outputs = forward_batch(data.xs, w0).output
        norms = np.linalg.norm(outputs, axis=1)
        expected = float(np.sum((norms - 1.0) ** 2)) / (2 * data.n)
        assert objective(Dataset(data.xs, ys), w0) == pytest.approx(
            expected, rel=1e-12)

    def test_negative_eps_rejected(self):
        data = sample_sphere_dataset(2, 4, seed=3, params=params_for(d=4))
        with pytest.raises(InvalidInputError):
            near_init_targets(data.xs, zero_weights(4, 2), -0.1, seed=0)

    def test_overflowing_target_norm_raises(self):
        # 1e300 * noise is finite, its squared norm is not
        data = sample_sphere_dataset(2, 4, seed=3, params=params_for(d=4))
        with pytest.raises(NumericalOverflowError):
            near_init_targets(data.xs, zero_weights(4, 2), 1e300, seed=0)


class TestInitializers:
    def test_gaussian_std(self):
        cfg = NetworkConfig(8, 64)
        w = init_gaussian(cfg, beta0=1.0, seed=0)
        assert w.delta == pytest.approx(0.125)
        observed = float(np.std(w.layers))
        assert observed == pytest.approx(1.0 / (8 * 64), rel=0.05)

    @pytest.mark.parametrize("beta0, L", [(-400.0, 8), (-330.0, 8), (-1e300, 2)])
    def test_gaussian_std_overflow_rejected(self, beta0, L):
        # at beta0=-330 the std 8**330/4 is finite but its square is not
        with pytest.raises(InvalidInputError, match="beta0"):
            gaussian_init_std(4, L, beta0)
        with pytest.raises(InvalidInputError, match="beta0"):
            init_gaussian(NetworkConfig(4, L), beta0=beta0, seed=0)

    def test_gaussian_std_value(self):
        assert gaussian_init_std(8, 64, 1.0) == 1.0 / (8 * 64)
        assert gaussian_init_std(4, 1, -1e300) == 0.25
        assert gaussian_init_std(4, 8, 1e300) == 0.0

    def test_certified_rows_exactly_at_cap(self):
        params = AssumptionParams(0.25, 2, 6, 32)
        w = init_certified(NetworkConfig(6, 32), params, seed=1)
        rows = np.linalg.norm(w.layers, axis=2)
        assert np.allclose(rows, initial_row_norm_cap(params), rtol=1e-12)

    def test_certified_scale(self):
        params = AssumptionParams(0.25, 2, 6, 32)
        w = init_certified(NetworkConfig(6, 32), params, seed=1, scale=0.5)
        rows = np.linalg.norm(w.layers, axis=2)
        assert np.allclose(rows, 0.5 * initial_row_norm_cap(params), rtol=1e-12)


class TestAssumptionChecks:
    def test_thresholds_concrete_values(self):
        params = AssumptionParams(0.25, 2, 16, 256)
        expected_rows = 2 ** -4.5 / math.sqrt(2) / 4.0 * math.exp(-1.05) / 256
        assert initial_row_norm_cap(params) == pytest.approx(expected_rows, rel=1e-12)
        expected_loss = 2 ** -15 / 9 / 4 / 16 * 0.0625 * math.exp(-2.05)
        assert initial_loss_cap(params) == pytest.approx(expected_loss, rel=1e-12)

    def test_zero_init_passes_row_clause(self):
        params = AssumptionParams(0.1, 2, 4, 8)
        data = sample_sphere_dataset(2, 4, seed=3, params=params)
        ys = near_init_targets(data.xs, zero_weights(4, 8), 0.0, seed=4)
        rows = {r.name: r for r in check_assumptions(Dataset(data.xs, ys),
                                                     zero_weights(4, 8), params)}
        row = rows["assumption_iv_row_norms"]
        assert row.passed and row.observed == 0.0
        assert all(r.passed for r in rows.values())

    def test_gaussian_init_reports_both_numbers(self):
        params = AssumptionParams(0.25, 2, 8, 16)
        data = sample_sphere_dataset(2, 8, seed=5, params=params)
        w0 = init_gaussian(NetworkConfig(8, 16), beta0=1.0, seed=6)
        rows = {r.name: r for r in check_assumptions(data, w0, params)}
        clause = rows["assumption_iv_row_norms"]
        assert clause.observed == pytest.approx(
            float(np.max(np.linalg.norm(w0.layers, axis=2))), rel=1e-15)
        assert clause.bound == pytest.approx(initial_row_norm_cap(params), rel=1e-15)
        assert clause.passed == (clause.observed <= clause.bound * (1 + 1e-9))

    def test_separation_clause_on_orthogonal_pair(self):
        params = params_for(d=8)
        data = sample_sphere_dataset(2, 8, seed=5, params=params)
        rows = {r.name: r for r in check_assumptions(data, zero_weights(8, 4), params)}
        assert rows["assumption_iii_separation"].passed

    def test_delta_clause_fails_for_other_exponent(self):
        params = AssumptionParams(0.1, 2, 4, 16)
        data = sample_sphere_dataset(2, 4, seed=3, params=params)
        w = zero_weights(4, 16, delta_exponent=0.25)
        rows = {r.name: r for r in check_assumptions(data, w, params)}
        assert not rows["assumption_ii_delta_scaling"].passed

    def test_certified_near_init_setup_passes_everything(self):
        params = AssumptionParams(0.25, 2, 16, 64)
        data0 = sample_sphere_dataset(2, 16, seed=11, params=params)
        w0 = init_certified(NetworkConfig(16, 64), params, seed=12)
        ys = near_init_targets(data0.xs, w0, 0.0, seed=13)
        rows = {r.name: r for r in check_assumptions(Dataset(data0.xs, ys),
                                                     w0, params)}
        assert all(r.passed for r in rows.values())
        loss_clause = rows["assumption_v_initial_loss"]
        assert loss_clause.observed <= initial_loss_cap(params)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        data = sample_sphere_dataset(3, 5, seed=8, params=params_for(N=3, d=5),
                                     enforce_separation=False)
        path = tmp_path / "dataset.csv"
        save_dataset(data, path, 8, 0.1)
        loaded, meta = load_dataset(path)
        assert np.array_equal(loaded.xs, data.xs)
        assert np.array_equal(loaded.ys, data.ys)
        assert loaded.separation == data.separation
        assert meta == {"N": 3, "d": 5, "seed": 8,
                        "separation": data.separation, "c0": 0.1}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        (tmp_path / "x.json").write_text('{"N":1,"d":1,"seed":0,"separation":0.0,"c0":0.1}')
        with pytest.raises(InvalidInputError):
            load_dataset(path)

    @staticmethod
    def saved(tmp_path):
        """An N=3, d=4 dataset saved under tmp_path: (csv path, its lines)."""
        data = sample_sphere_dataset(3, 4, seed=5, params=params_for(N=3, d=4),
                                     enforce_separation=False)
        path = tmp_path / "dataset.csv"
        save_dataset(data, path, 5, 0.1)
        return path, path.read_text().splitlines(keepends=True)

    def test_truncated_file_rejected(self, tmp_path):
        # the last 4 rows are y components of sample 2
        path, lines = self.saved(tmp_path)
        path.write_text("".join(lines[:-4]))
        with pytest.raises(InvalidInputError, match="has 20 rows, expected") as exc:
            load_dataset(path)
        assert str(path) in str(exc.value)

    def test_unknown_kind_rejected(self, tmp_path):
        path, lines = self.saved(tmp_path)
        path.write_text("".join(line.replace(",y,", ",z,") for line in lines))
        with pytest.raises(InvalidInputError, match="malformed dataset row") as exc:
            load_dataset(path)
        assert str(path) in str(exc.value)

    # the CSV row that replaces line 5, the cell (0, y, 0), and the message
    @pytest.mark.parametrize("row, message", [
        ("3,x,0,0.5", "out of range"),
        ("0,y,4,0.5", "out of range"),
        ("-1,x,0,0.5", "out of range"),
        ("1.0,x,0,0.5", "malformed"),
        ("0,x,0,0.5,7", "malformed"),
        ("0,x,0,zero", "malformed"),
        ("0,x,0,0.5", "repeats a cell"),
        ("0,y,0,nan", "non-finite"),
    ], ids=["i", "component", "negative", "float-index", "five-cells", "value",
            "duplicate", "nan"])
    def test_bad_row_rejected(self, tmp_path, row, message):
        path, lines = self.saved(tmp_path)
        assert lines[5].startswith("0,y,0,")
        lines[5] = row + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match=message) as exc:
            load_dataset(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("sidecar", [
        '{"N": 0, "d": 4}', '{"N": 3, "d": 4.0}', '{"N": "3", "d": 4}',
        '{"N": true, "d": 4}', '{"d": 4}', '[3, 4]', '{"N": 3,',
    ], ids=["zero", "float", "string", "bool", "missing", "list", "not-json"])
    def test_bad_sidecar_rejected(self, tmp_path, sidecar):
        path, _ = self.saved(tmp_path)
        (tmp_path / "dataset.json").write_text(sidecar)
        with pytest.raises(InvalidInputError) as exc:
            load_dataset(path)
        assert "dataset.json" in str(exc.value) or str(path) in str(exc.value)
