"""Graph Laplacian construction, its algebraic invariants and the Lipschitz bound."""

import math

import numpy as np
import pytest

import graphlap as gl
from graphlap import graph
from graphlap.graph import SparseLaplacian, _shifts

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
                                        dict(sigma=math.inf), dict(sigma=math.nan)],
                             ids=["zero-radius", "negative-radius", "zero-sigma", "negative-sigma", "unknown-metric",
                                  "infinite-radius", "nan-radius", "infinite-sigma", "nan-sigma"])
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
        keys = rows * lap.image.values.size + cols
        assert np.all(np.diff(keys) > 0)


class PlainExpLaplacian(SparseLaplacian):
    """The Laplacian with every weight band evaluated by plain np.exp: the
    reference the clamped evaluation must match bit for bit."""

    def _pass(self, x, bands=None, keep=False):
        height, width = x.shape
        n = height * width
        flat = x.values.ravel()
        out = np.zeros(n)
        kept = []
        for i, (dj, s) in enumerate(_shifts(self.config, height, width)):
            m = n - s
            d = flat[:m] - flat[s:]
            if bands is None:
                padded = np.zeros(n)
                padded[:m] = np.exp(d * d / -self.config.sigma)
                rows = padded.reshape(height, width)
                if dj > 0:
                    rows[:, width - dj:] = 0.0
                elif dj < 0:
                    rows[:, :-dj] = 0.0
                w = padded[:m]
                kept.append(w)
            else:
                w = bands[i]
            d *= w
            out[:m] += d
            out[s:] -= d
        if keep:
            self._bands = tuple(kept)
        return out


# weight arguments -d^2/sigma around np.exp's edges: the clamp floor, where
# exp leaves its fast path, the smallest normal result, a subnormal one, the
# last argument whose exp is not 0 and the first whose exp is, then far below
EDGE_ARGUMENTS = (-700.0, -707.8, -708.3964185322641, -720.0, -745.1332191019411,
                  -745.1332191019412, -746.0, -1e6)


def landing_difference(target):
    """(sigma, d) among sigma 0.05 and 1 with d * d / -sigma == target exactly."""
    for sigma in (0.05, 1.0):
        d = math.sqrt(-target * sigma)
        for candidate in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
            if candidate * candidate / -sigma == target:
                return sigma, candidate
    raise AssertionError(f"no pixel difference lands on {target!r}")


def unchecked_image(values):
    """An ImageGrid that may hold NaN and inf, past the constructor's check."""
    image = object.__new__(gl.ImageGrid)
    object.__setattr__(image, "values", np.asarray(values, dtype=np.float64))
    return image


def edge_images():
    """(image, config) pairs whose weight arguments cover the whole range of np.exp."""
    rng = np.random.Generator(np.random.Philox(17))
    noise = rng.random((20, 20))
    ramp = np.add.outer(np.arange(20.0), np.arange(20.0)) / 38.0
    # the band of offset (0, 1) is all low, the next one, (0, 2), all 0
    stripes = np.indices((20, 20))[1] % 2.0
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6):
        for base in (noise, ramp, stripes):
            yield gl.ImageGrid(scale * base), gl.GraphConfig()
    landings = [landing_difference(t) for t in EDGE_ARGUMENTS]
    for sigma in sorted({sigma for sigma, _ in landings}):
        # every pixel pair within manhattan radius 1 differs by 0 or by one d
        row = np.zeros(2 * len(landings) + 1)
        row[1::2] = [d if landed == sigma else 0.0 for landed, d in landings]
        yield gl.ImageGrid(np.array([np.zeros_like(row), row, np.zeros_like(row)])), \
            gl.GraphConfig(radius=1, sigma=sigma, metric="manhattan")
    wild = 1e3 * noise
    wild[rng.random(wild.shape) < 0.1] = np.inf
    wild[rng.random(wild.shape) < 0.1] = -np.inf
    wild[rng.random(wild.shape) < 0.05] = np.nan
    yield unchecked_image(wild), gl.GraphConfig(radius=2)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWeightUnderflow:
    """Weights evaluated outside np.exp's fast range have np.exp's bits."""

    def test_bit_identical_to_plain_exp(self, monkeypatch):
        clamped = []
        clamped_exp = graph._clamped_exp

        def counted(t, low):
            clamped.append(t.size)
            clamped_exp(t, low)

        monkeypatch.setattr(graph, "_clamped_exp", counted)
        # inf - inf and inf * 0 on the image with NaN and inf pixels
        with np.errstate(invalid="ignore"):
            for image, cfg in edge_images():
                want = PlainExpLaplacian(image, cfg)
                for got_bands, want_bands in zip(gl.build_laplacian(image, cfg).bands, want.bands, strict=True):
                    assert_same_bits(got_bands, want_bands)
                for reuse in (False, True):
                    got = gl.build_laplacian(image, cfg, reuse=reuse)
                    ref = PlainExpLaplacian(image, cfg, reuse=reuse)
                    # what the first apply to the build image computes
                    assert_same_bits(got._pass(image, keep=reuse), ref._pass(image, keep=reuse))
                    if np.isfinite(image.values).all():
                        assert_same_bits(gl.build_laplacian(image, cfg, reuse=reuse).apply(image).values,
                                         PlainExpLaplacian(image, cfg, reuse=reuse).apply(image).values)
                weights = gl.build_laplacian(image, cfg).weights
                assert_same_bits(weights.data, want.weights.data)
                assert np.array_equal(weights.indices, want.weights.indices)
                assert np.array_equal(weights.indptr, want.weights.indptr)
        assert clamped, "no band took the clamped evaluation"


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
