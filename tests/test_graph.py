"""Graph Laplacian construction, its algebraic invariants and the Lipschitz bound."""

import math

import numpy as np
import pytest

import graphlap as gl

DEMO = gl.ImageGrid([[0.2, 0.3], [0.5, 0.1]])
DEMO_CFG = gl.GraphConfig(radius=1.0, sigma=0.01, metric="manhattan")

# all (metric, radius, sigma) combinations exercised by the randomized suites
CONFIGS = [
    gl.GraphConfig(radius=r, sigma=s, metric=m)
    for m in ("manhattan", "chebyshev")
    for r in (1.0, 2.0, 6.0)
    for s in (0.005, 0.05)
]


def brute_force_laplacian(image: gl.ImageGrid, cfg: gl.GraphConfig) -> np.ndarray:
    """Dense Delta = D - W computed by direct pair enumeration."""
    h, w = image.shape
    n = h * w
    flat = image.values.ravel()
    r = math.floor(cfg.radius)
    mat = np.zeros((n, n))
    for i in range(h):
        for j in range(w):
            for ii in range(h):
                for jj in range(w):
                    if (i, j) == (ii, jj):
                        continue
                    di, dj = abs(i - ii), abs(j - jj)
                    dist = di + dj if cfg.metric == "manhattan" else max(di, dj)
                    if dist <= r:
                        a, b = i * w + j, ii * w + jj
                        wgt = math.exp(-((flat[a] - flat[b]) ** 2) / cfg.sigma)
                        mat[a, b] = -wgt
                        mat[a, a] += wgt
    return mat


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(radius=0.0), dict(radius=-1.0),
                                        dict(sigma=0.0), dict(sigma=-0.1),
                                        dict(metric="euclidean"),
                                        dict(radius=math.inf), dict(radius=math.nan),
                                        dict(sigma=math.inf), dict(sigma=math.nan)])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(gl.ConfigurationError):
            gl.GraphConfig(**kwargs)

    def test_neighbor_bound_closed_forms(self):
        assert gl.neighbor_bound(gl.GraphConfig(radius=1, metric="manhattan")) == 4
        assert gl.neighbor_bound(gl.GraphConfig(radius=1, metric="chebyshev")) == 8
        assert gl.neighbor_bound(gl.GraphConfig(radius=6, metric="chebyshev")) == 168
        assert gl.neighbor_bound(gl.GraphConfig(radius=2.9, metric="manhattan")) == 12

    def test_fractional_radius_uses_floor(self):
        a = gl.build_laplacian(DEMO, gl.GraphConfig(radius=1.0, sigma=0.01, metric="manhattan"))
        b = gl.build_laplacian(DEMO, gl.GraphConfig(radius=1.9, sigma=0.01, metric="manhattan"))
        assert np.array_equal(a.weights.indices, b.weights.indices)
        assert np.array_equal(a.weights.data, b.weights.data)

    @pytest.mark.parametrize("metric,diameter", [("chebyshev", 15), ("manhattan", 30)])
    def test_radius_beyond_the_grid_equals_the_grid_diameter(self, metric, diameter):
        # every pair of a 16x16 image is within the grid's diameter, so a
        # radius of 1e9 meets the same pairs; the offset loops stop at the
        # grid's edge, so it also finishes as quickly
        image = gl.ImageGrid(np.random.Generator(np.random.Philox(41)).random((16, 16)))
        near = gl.build_laplacian(image, gl.GraphConfig(radius=diameter, metric=metric)).weights
        far = gl.build_laplacian(image, gl.GraphConfig(radius=1e9, metric=metric)).weights
        for part in ("indptr", "indices", "data"):
            assert getattr(far, part).tobytes() == getattr(near, part).tobytes(), part


class TestBuild:
    def test_demo_weights_and_degrees_exact(self):
        # squared differences over the four manhattan-adjacent pairs:
        # (0.2,0.3)->0.01, (0.2,0.5)->0.09, (0.3,0.1)->0.04, (0.5,0.1)->0.16,
        # each divided by sigma = 0.01
        lap = gl.build_laplacian(DEMO, DEMO_CFG)
        w = lap.weights.toarray()
        expected = {
            (0, 1): math.exp(-1.0),
            (0, 2): math.exp(-9.0),
            (1, 3): math.exp(-4.0),
            (2, 3): math.exp(-16.0),
        }
        for (a, b), val in expected.items():
            assert w[a, b] == pytest.approx(val, rel=1e-14)
            assert w[b, a] == pytest.approx(val, rel=1e-14)
        assert np.count_nonzero(w) == 8
        degrees = [math.exp(-1) + math.exp(-9), math.exp(-1) + math.exp(-4),
                   math.exp(-9) + math.exp(-16), math.exp(-4) + math.exp(-16)]
        assert lap.degrees == pytest.approx(degrees, rel=1e-14)

    def test_constant_image_gives_unit_weights_and_neighbor_count_degrees(self):
        img = gl.ImageGrid(np.full((5, 4), 0.7))
        for cfg in CONFIGS:
            lap = gl.build_laplacian(img, cfg)
            assert np.all(lap.weights.data == 1.0)
            dense = brute_force_laplacian(img, cfg)
            assert lap.degrees == pytest.approx(np.diag(dense), abs=0)

    def test_single_pixel_image(self):
        lap = gl.build_laplacian(gl.ImageGrid([[0.4]]), DEMO_CFG)
        assert lap.weights.nnz == 0
        assert np.array_equal(lap.degrees, [0.0])
        out = lap.apply(gl.ImageGrid([[0.4]]))
        assert np.array_equal(out.values, [[0.0]])

    def test_matches_brute_force_on_random_images(self):
        rng = np.random.Generator(np.random.Philox(11))
        for cfg in CONFIGS:
            img = gl.ImageGrid(rng.random((5, 6)))
            lap = gl.build_laplacian(img, cfg)
            dense = brute_force_laplacian(img, cfg)
            mine = np.diag(lap.degrees) - lap.weights.toarray()
            assert np.allclose(mine, dense, rtol=0, atol=1e-14)

    def test_rebuild_is_bit_deterministic(self):
        rng = np.random.Generator(np.random.Philox(12))
        img = gl.ImageGrid(rng.random((9, 9)))
        a = gl.build_laplacian(img, gl.GraphConfig())
        b = gl.build_laplacian(img, gl.GraphConfig())
        assert np.array_equal(a.weights.indptr, b.weights.indptr)
        assert np.array_equal(a.weights.indices, b.weights.indices)
        assert np.array_equal(a.weights.data, b.weights.data)
        assert np.array_equal(a.degrees, b.degrees)

    @pytest.mark.parametrize("shape", [(5, 6), (3, 20), (1, 9), (9, 1)])
    def test_apply_matches_brute_force_on_narrow_grids(self, shape):
        # grids narrower than 2R, where two offsets can share one flat shift
        # (e.g. (0, 3) and (1, -3) at width 6); x is another image (stored
        # bands) or the build image itself (the one-pass evaluation)
        rng = np.random.Generator(np.random.Philox(14))
        for cfg in CONFIGS:
            img = gl.ImageGrid(rng.random(shape))
            dense = brute_force_laplacian(img, cfg)
            for x in (gl.ImageGrid(rng.random(shape)), img):
                got = gl.build_laplacian(img, cfg).apply(x).values.ravel()
                assert np.allclose(got, dense @ x.values.ravel(), rtol=0, atol=1e-13)
            fused = gl.build_laplacian(img, cfg).apply(img)
            stored = gl.build_laplacian(img, cfg).apply(gl.ImageGrid(img.values))
            assert np.array_equal(fused.values, stored.values)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev"])
    def test_one_pass_equals_stored_bands_on_noisy_phantom(self, metric):
        # the solver's rebuild-step value, bit for bit: one pass over the build
        # image, with and without keeping the bands, against an apply of the
        # stored bands to an equal but distinct image
        truth = gl.shepp_logan(128)
        rng = np.random.Generator(np.random.Philox(15))
        img = gl.ImageGrid(truth.values + 0.05 * rng.standard_normal(truth.shape))
        cfg = gl.GraphConfig(metric=metric)
        stored = gl.build_laplacian(img, cfg).apply(gl.ImageGrid(img.values)).values
        assert np.array_equal(gl.build_laplacian(img, cfg).apply(img).values, stored)
        kept = gl.build_laplacian(img, cfg, reuse=True)
        assert np.array_equal(kept.apply(img).values, stored)
        assert np.array_equal(kept.apply(img).values, stored)

    def test_triplets_sorted_row_major(self):
        rng = np.random.Generator(np.random.Philox(13))
        lap = gl.build_laplacian(gl.ImageGrid(rng.random((4, 4))), gl.GraphConfig(radius=2))
        rows, cols, _ = lap.triplets()
        keys = rows * lap.n + cols
        assert np.all(np.diff(keys) > 0)


@pytest.fixture(scope="module")
def samples():
    rng = np.random.Generator(np.random.Philox(21))
    out = []
    for i in range(100):
        cfg = CONFIGS[i % len(CONFIGS)]
        img = gl.ImageGrid(rng.random((16, 16)))
        out.append((img, cfg, gl.build_laplacian(img, cfg)))
    return out


class TestInvariants:
    """Randomized structural checks over 100 images covering every config."""

    def test_annihilates_constants(self, samples):
        ones = gl.ImageGrid(np.ones((16, 16)))
        for _, _, lap in samples:
            assert np.max(np.abs(lap.apply(ones).values)) <= 1e-12

    def test_operator_symmetry(self, samples):
        rng = np.random.Generator(np.random.Philox(22))
        for _, _, lap in samples:
            x = gl.ImageGrid(rng.random((16, 16)))
            y = gl.ImageGrid(rng.random((16, 16)))
            left = gl.dot(x, lap.apply(y))
            right = gl.dot(lap.apply(x), y)
            scale = max(abs(left), abs(right), 1e-30)
            assert abs(left - right) <= 1e-10 * scale

    def test_quadratic_form_identity_and_psd(self, samples):
        rng = np.random.Generator(np.random.Philox(23))
        for _, _, lap in samples:
            x = gl.ImageGrid(rng.random((16, 16)))
            quad = gl.dot(x, lap.apply(x))
            rows, cols, wgts = lap.triplets()
            flat = x.values.ravel()
            direct = 0.5 * float(np.sum(wgts * (flat[rows] - flat[cols]) ** 2))
            assert quad >= 0.0
            assert quad == pytest.approx(direct, rel=1e-10)

    def test_weights_in_unit_interval_and_symmetric_structure(self, samples):
        for _, _, lap in samples:
            assert np.all(lap.weights.data > 0.0)
            assert np.all(lap.weights.data <= 1.0)
            diff = (lap.weights - lap.weights.T).tocoo()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_no_self_loops_and_degree_consistency(self, samples):
        for _, _, lap in samples:
            rows, cols, _ = lap.triplets()
            assert np.all(rows != cols)
            row_sums = np.asarray(lap.weights.sum(axis=1)).ravel()
            assert lap.degrees == pytest.approx(row_sums, rel=1e-12)

    def test_neighbor_count_bound(self, samples):
        for _, cfg, lap in samples:
            per_row = np.diff(lap.weights.indptr)
            assert per_row.max() <= gl.neighbor_bound(cfg)

    def test_apply_shape_mismatch_rejected(self, samples):
        _, _, lap = samples[0]
        with pytest.raises(gl.ShapeMismatch):
            lap.apply(gl.ImageGrid(np.zeros((4, 4))))


class TestLipschitz:
    def test_closed_form_value(self):
        # N = 4 neighbors at radius 1 manhattan: H = 6 sqrt(200) e^{-1/2}
        cfg = gl.GraphConfig(radius=1, sigma=0.01, metric="manhattan")
        expected = 6.0 * math.sqrt(200.0) * math.exp(-0.5)
        assert gl.lipschitz_constant(cfg, 16, 16) == pytest.approx(expected, rel=1e-12)

    def test_flat_kernel_limit(self):
        cfg = gl.GraphConfig(radius=1, sigma=1e12, metric="manhattan")
        assert gl.lipschitz_constant(cfg, 16, 16) < 1e-4

    def test_small_grid_caps_neighbor_count(self):
        cfg = gl.GraphConfig(radius=6, sigma=0.05, metric="chebyshev")
        # a 2x2 grid has at most 3 neighbors, far below the radius-6 bound of 168
        slope = math.sqrt(2.0 / 0.05) * math.exp(-0.5)
        assert gl.lipschitz_constant(cfg, 2, 2) == pytest.approx(2 * slope * (math.sqrt(3) + 1), rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(gl.ConfigurationError):
            gl.lipschitz_constant(gl.GraphConfig(), 0, 4)

    def test_perturbation_bound_sampled(self):
        # ||D_{u'} u - D_u u|| <= H ||u|| ||u' - u|| over random pairs;
        # the full 1000-pair version runs in the acceptance suite
        rng = np.random.Generator(np.random.Philox(29))
        for i in range(100):
            cfg = CONFIGS[i % len(CONFIGS)]
            h_const = gl.lipschitz_constant(cfg, 16, 16)
            u = gl.ImageGrid(rng.random((16, 16)))
            v = gl.ImageGrid(rng.random((16, 16)))
            lhs = gl.norm(gl.sub(gl.build_laplacian(v, cfg).apply(u),
                                 gl.build_laplacian(u, cfg).apply(u)))
            assert lhs <= h_const * gl.norm(u) * gl.norm(gl.sub(v, u)) * (1 + 1e-12)


class TestDumps:
    def test_weight_and_degree_csv_round_trip(self, tmp_path):
        from graphlap.graph import write_degrees_csv, write_weights_csv

        lap = gl.build_laplacian(DEMO, DEMO_CFG)
        wpath = tmp_path / "weights.csv"
        dpath = tmp_path / "degrees.csv"
        write_weights_csv(lap, wpath)
        write_degrees_csv(lap, dpath)
        wlines = wpath.read_text().strip().splitlines()
        assert wlines[0] == "i,j,w"
        assert len(wlines) == 1 + lap.weights.nnz
        i, j, w = wlines[1].split(",")
        assert (int(i), int(j)) == (0, 1)
        assert float(w) == lap.weights.toarray()[0, 1]
        dlines = dpath.read_text().strip().splitlines()
        assert dlines[0] == "i,degree"
        assert [float(l.split(",")[1]) for l in dlines[1:]] == list(lap.degrees)
