import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (exhaustive_oracle, mean_layer_norm_oracle,
                     scaling_limit_distance_oracle, two_variation_oracle)
from resnetlab.analysis import (_path_rows, entry_scatter,
                                fit_power_law, mean_layer_norm,
                                scaling_limit_distance, steps_to_epsilon,
                                total_scaling, two_variation)
from resnetlab.data import Dataset
from resnetlab.errors import InvalidInputError
from resnetlab.network import CHUNK_BYTES, Weights
from resnetlab.training import Schedule, train


def path_weights(values):
    """Weights whose rescaled path sqrt(L) * A_k is ``values`` (L, d, d), up to
    rounding."""
    values = np.asarray(values, dtype=np.float64)
    return Weights(values / math.sqrt(len(values)), 1.0)


def scalar_path(values):
    return path_weights(np.reshape(values, (-1, 1, 1)))


class TestFitPowerLaw:
    def test_exact_half_exponent(self):
        pts = [(L, L ** -0.5) for L in (8, 16, 32)]
        fit = fit_power_law(pts)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self):
        fit = fit_power_law([(8, 2.0), (16, 2.0), (32, 2.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        pts = [(L, 3.0 / L * (1 + rng.uniform(-1e-3, 1e-3)))
               for L in (8, 16, 32, 64, 128)]
        fit = fit_power_law(pts)
        assert fit.exponent == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            fit_power_law([(8, 1.0)])
        with pytest.raises(InvalidInputError):
            fit_power_law([(8, 1.0), (16, -1.0)])
        with pytest.raises(InvalidInputError):
            fit_power_law([(8, 1.0), (8, 2.0)])


class TestStepsToEpsilon:
    def test_interpolating_run(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        w = Weights(np.zeros((2, 2, 2)), 2 ** -0.5)
        _, log = train(w, data, Schedule("constant", 0.1), 4)
        hits = steps_to_epsilon(log.t, log.loss, [1.0, 1e-3, 1e-9])
        assert all(t_first == 0 for _, t_first in hits)

    def test_exponential_closed_form(self):
        losses = np.exp(-np.arange(30, dtype=float))
        for eps in (0.3, 0.01, 1e-4):
            (_, t_first), = steps_to_epsilon(np.arange(30), losses, [eps])
            assert t_first == math.ceil(math.log(1.0 / eps)) or (
                math.log(1.0 / eps).is_integer() and t_first == int(math.log(1.0 / eps)) + 1)

    def test_never_reached_is_none(self):
        (_, t_first), = steps_to_epsilon(np.arange(5), np.ones(5), [0.5])
        assert t_first is None

    def test_positive_grid_required(self):
        with pytest.raises(InvalidInputError):
            steps_to_epsilon(np.arange(3), np.ones(3), [0.0])


class TestTwoVariation:
    def test_constant_path(self):
        assert two_variation(scalar_path([2.0, 2.0, 2.0])) == 0.0
        assert exhaustive_oracle([2.0, 2.0, 2.0]) == 0.0

    def test_linear_path_single_interval(self):
        # increments of c*s: coarsest partition dominates, value c^2
        c = 3.0
        values = c * np.linspace(0.0, 1.0, 9)
        assert two_variation(scalar_path(values)) == pytest.approx(c * c, rel=1e-12)
        assert exhaustive_oracle(values) == pytest.approx(c * c, rel=1e-12)

    def test_alternating_path(self):
        values = [0.0, 1.0, 0.0, 1.0]
        assert exhaustive_oracle(values) == pytest.approx(3.0)
        assert two_variation(scalar_path(values)) == pytest.approx(3.0)

    def test_dyadic_never_exceeds_exhaustive(self):
        # matrix-valued paths (the lab's own kind): increments are nearly
        # orthogonal, so the dyadic family stays within 10% of the supremum
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(40):
            n_points = int(rng.integers(2, 13))
            values = rng.standard_normal((n_points, 4, 4))
            dy = two_variation(path_weights(values))
            ex = exhaustive_oracle(values)
            assert dy <= ex * (1 + 1e-12)
            if ex > 0:
                ratios.append(dy / ex)
        assert min(ratios) >= 0.9

    def test_monotone_paths_dyadic_equals_exhaustive(self):
        rng = np.random.default_rng(3)
        for n_points in range(2, 13):
            values = np.cumsum(rng.uniform(0.0, 1.0, n_points))
            assert two_variation(scalar_path(values)) == pytest.approx(
                exhaustive_oracle(values), rel=1e-12)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((9, 2, 2))
        fwd = path_weights(values)
        rev = path_weights(values[::-1])
        assert two_variation(fwd) == pytest.approx(two_variation(rev), rel=1e-12)
        assert exhaustive_oracle(values) == pytest.approx(
            exhaustive_oracle(values[::-1]), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.floats(0.1, 10.0), st.integers(0, 10 ** 6))
    def test_quadratic_scaling(self, n_points, c, seed):
        values = np.random.default_rng(seed).standard_normal(n_points)
        assert two_variation(scalar_path(c * values)) == pytest.approx(
            c * c * two_variation(scalar_path(values)), rel=1e-12)
        assert exhaustive_oracle(c * values) == pytest.approx(
            c * c * exhaustive_oracle(values), rel=1e-12)

    def test_memory_linear_in_points(self):
        # a pairwise P x P x d^2 difference tensor would take 512 MB here
        values = np.random.default_rng(5).standard_normal((1024, 8, 8))
        path = Weights(values, 1.0)
        tracemalloc.start()
        try:
            two_variation(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    def test_single_point(self):
        assert two_variation(Weights(np.zeros((1, 2, 2)), 1.0)) == 0.0


class TestScalingLimitDistance:
    def test_identical_rescaled_weights(self):
        core = np.array([[0.3, -0.1], [0.2, 0.5]])
        w8, w16 = (Weights(np.tile(core / math.sqrt(L), (L, 1, 1)), L ** -0.5)
                   for L in (8, 16))
        assert scaling_limit_distance(w8, w16) == pytest.approx(0.0, abs=1e-12)

    def test_smooth_profile_distance_shrinks(self):
        # A_k = f(k/L)/sqrt(L) for smooth f: consecutive distances ~ 1/L
        def build(L):
            layers = np.empty((L, 2, 2))
            for k in range(1, L + 1):
                s = k / L
                layers[k - 1] = np.array([[math.sin(2 * s), s], [0.1, s * s]])
            return Weights(layers / math.sqrt(L), L ** -0.5)

        runs = [build(L) for L in (16, 32, 64, 128)]
        dists = [scaling_limit_distance(low, high) for low, high in zip(runs, runs[1:])]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.2


class TestTotalScaling:
    def test_synthetic_exact(self):
        core = np.array([[0.4, 0.1], [-0.2, 0.3]])
        alpha0 = 0.25
        points = [(L, mean_layer_norm(Weights(np.tile(core * L ** -alpha0, (L, 1, 1)),
                                              L ** -alpha0)))
                  for L in (8, 16, 32, 64)]
        fit = total_scaling(points)
        assert fit.exponent == pytest.approx(alpha0, abs=1e-12)
        assert alpha0 + fit.exponent == pytest.approx(2 * alpha0, abs=1e-12)

    def test_requires_three_depths(self):
        with pytest.raises(InvalidInputError):
            total_scaling([(8, 1.0), (16, 0.5)])


def size(label, d):
    """A path length from a label: a number, or "chunk" (the rows of d x d
    float64 matrices that fill one CHUNK_BYTES buffer) plus or minus one."""
    chunk = CHUNK_BYTES // (d * d * 8)
    return {"chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}.get(label) or int(label)


def reader_rows(d):
    """The rows in one chunk of the path reader at width d, read off the
    reader itself."""
    indices = np.zeros(CHUNK_BYTES // 8 + 1, dtype=np.intp)  # more than any chunk
    _, rows = next(_path_rows(Weights(np.zeros((1, d, d)), 1.0), indices, 1.0))
    return len(rows)


def reader_size(label, d):
    """A path length from a label in the reader's rows per chunk. Chunks
    overlap by one row, so "rows" fills one chunk, "2rows-1" fills two, and
    "rows+1" and "2rows" start a two-row chunk on the previous one's last row."""
    rows = reader_rows(d)
    return {"rows": rows, "rows+1": rows + 1, "2rows-1": 2 * rows - 1, "2rows": 2 * rows}[label]


def random_weights(rng, depth, width, scale=1.0):
    return Weights(rng.standard_normal((depth, width, width)) * scale / math.sqrt(depth),
                   depth ** -0.5)


class TestChunkedKernels:
    """The kernels work in CHUNK_BYTES buffers; their results equal, bit for
    bit, the unchunked oracles in helpers.py."""

    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("points", ["1", "2", "3", "chunk-1", "chunk", "chunk+1", "1000"])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_two_variation_bitwise(self, d, points, scale):
        P = size(points, d)
        rng = np.random.default_rng(P * 7 + d)
        w = Weights(scale * rng.standard_normal((P, d, d)), 1.0)
        assert two_variation(w) == two_variation_oracle(np.sqrt(P) * w.layers)

    @pytest.mark.parametrize("d", [6, 20])
    @pytest.mark.parametrize("depths", [(8, 16, 32), (3, 5, 12, 20, 33), (7, 100, 300)],
                             ids=["nested", "non-nested", "multi-chunk"])
    def test_scaling_limit_distance_bitwise(self, d, depths):
        rng = np.random.default_rng(sum(depths) + d)
        runs = [(L, random_weights(rng, L, d)) for L in depths]
        pairs = [((l1, l2), scaling_limit_distance(w1, w2))
                 for (l1, w1), (l2, w2) in zip(runs, runs[1:])]
        assert pairs == scaling_limit_distance_oracle(runs)

    @pytest.mark.parametrize("d", [1, 6, 20])
    @pytest.mark.parametrize("depth", ["1", "chunk-1", "chunk", "chunk+1", "1000"])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_mean_layer_norm_bitwise(self, d, depth, transposed):
        L = size(depth, d)
        w = random_weights(np.random.default_rng(L + d), L, d, scale=3.0)
        if transposed:  # np.linalg.norm sums each layer in memory order
            w = Weights(w.layers.transpose(0, 2, 1), w.delta)
        assert mean_layer_norm(w) == mean_layer_norm_oracle(w)

    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("points", ["rows", "rows+1", "2rows-1", "2rows"])
    def test_reader_chunk_boundaries(self, d, points):
        P = reader_size(points, d)
        w = random_weights(np.random.default_rng(P + d), P, d)
        assert two_variation(w) == two_variation_oracle(np.sqrt(P) * w.layers)
        assert mean_layer_norm(w) == mean_layer_norm_oracle(w)

    @pytest.mark.parametrize("d", [6, 20])
    def test_scaling_limit_distance_union_grid(self, d):
        # the union grid of depths rows-1 and rows+1 is longer than either
        # stack and spans several chunks; depth 1 is read at every grid point
        rows = reader_rows(d)
        rng = np.random.default_rng(rows + d)
        for depths in [(1, 1), (1, 5), (3, 5), (rows - 1, rows + 1)]:
            runs = [(L, random_weights(rng, L, d)) for L in depths]
            (l1, w1), (l2, w2) = runs
            assert [((l1, l2), scaling_limit_distance(w1, w2))] == (
                scaling_limit_distance_oracle(runs)), depths

    @pytest.mark.parametrize("kernel", ["two_variation", "scaling_limit_distance",
                                        "mean_layer_norm"])
    def test_memory_beyond_inputs_under_1mb(self, kernel):
        # at P = 4096, d = 20 the path alone is 12.5 MB
        rng = np.random.default_rng(6)
        deep = random_weights(rng, 4096, 20)
        shallow = random_weights(rng, 2048, 20)
        call = {
            "two_variation": lambda: two_variation(deep),
            "scaling_limit_distance": lambda: scaling_limit_distance(shallow, deep),
            "mean_layer_norm": lambda: mean_layer_norm(deep),
        }[kernel]
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


class TestPathHelpers:
    def test_entry_scatter_rows(self):
        w = Weights(np.arange(8.0).reshape(2, 2, 2), 2 ** -0.5)
        s, values = entry_scatter(w, 0, 1)
        assert s.tolist() == [0.5, 1.0]
        assert values.tolist() == [math.sqrt(2) * 1.0, math.sqrt(2) * 5.0]
        with pytest.raises(InvalidInputError):
            entry_scatter(w, 0, 5)

    def test_mean_layer_norm(self):
        w = Weights(np.stack([np.eye(2), 2 * np.eye(2)]), 0.7)
        assert mean_layer_norm(w) == pytest.approx(
            (math.sqrt(2) + 2 * math.sqrt(2)) / 2, rel=1e-12)
