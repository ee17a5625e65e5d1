"""Phantom rasterization and the exact-magnitude noise model."""

import math

import numpy as np
import pytest

import graphlap as gl
from graphlap.phantoms import SHEPP_LOGAN_ELLIPSES, rasterize_ellipses, standard_normal_field


def full_grid_ellipses(size, ellipses):
    """Reference rasterizer: every ellipse tested on every pixel center."""
    xs = (2.0 * np.arange(size) + 1.0) / size - 1.0
    x, y = np.meshgrid(xs, -xs, indexing="xy")
    out = np.zeros((size, size), dtype=np.float64)
    for value, axis_x, axis_y, cx, cy, phi_deg in ellipses:
        phi = np.deg2rad(phi_deg)
        dx, dy = x - cx, y - cy
        major = dx * np.cos(phi) + dy * np.sin(phi)
        minor = -dx * np.sin(phi) + dy * np.cos(phi)
        inside = (major / axis_x) ** 2 + (minor / axis_y) ** 2 <= 1.0
        out[inside] += value
    return np.clip(out, 0.0, 1.0)


class TestPhantom:
    def test_values_in_unit_interval(self):
        vals = gl.shepp_logan(64).values
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0

    def test_corners_outside_head_are_zero(self):
        vals = gl.shepp_logan(64).values
        for i, j in [(0, 0), (0, -1), (-1, 0), (-1, -1)]:
            assert vals[i, j] == 0.0

    def test_deterministic(self):
        assert np.array_equal(gl.shepp_logan(32).values, gl.shepp_logan(32).values)

    def test_outer_shell_bright_brain_dim(self):
        vals = gl.shepp_logan(128).values
        assert vals[64, 20] == 1.0     # inside the outer shell, left edge
        assert vals[64, 64] == pytest.approx(0.2, abs=1e-12)  # central tissue

    def test_outer_ellipses_column_profile_symmetric(self):
        # the two concentric ellipses are centered in x, so their column sums
        # form a palindrome (pixel centers are symmetric about zero)
        img = rasterize_ellipses(128, SHEPP_LOGAN_ELLIPSES[:2])
        sums = img.values.sum(axis=0)
        assert np.max(np.abs(sums - sums[::-1])) <= 0.01 * sums.max()

    def test_downsampled_fine_phantom_tracks_coarse(self):
        # box-averaging 256 -> 128 anti-aliases edges that the direct 128
        # rasterization keeps binary; the correlation of the two versions is
        # pinned from a reference run (0.9695) as a size-consistency guard
        fine = gl.shepp_logan(256).values
        coarse = gl.shepp_logan(128).values
        down = fine.reshape(128, 2, 128, 2).mean(axis=(1, 3))
        corr = np.corrcoef(down.ravel(), coarse.ravel())[0, 1]
        assert corr > 0.96

    def test_invalid_size_rejected(self):
        with pytest.raises(gl.ConfigurationError):
            rasterize_ellipses(0, SHEPP_LOGAN_ELLIPSES)

    @pytest.mark.parametrize("size", [7.5, np.float64(8.0), "8"], ids=["float", "numpy-float", "string"])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(gl.ConfigurationError, match="size must be >= 1 and an integer"):
            gl.shepp_logan(size)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 33, 64, 128, 255])
    def test_bounding_box_matches_full_grid_on_shepp_logan(self, size):
        assert np.array_equal(gl.shepp_logan(size).values,
                              full_grid_ellipses(size, SHEPP_LOGAN_ELLIPSES))

    def test_bounding_box_matches_full_grid_on_random_ellipses(self):
        # centers may lie off the square and axes may be tiny or huge, so
        # boxes are empty, clipped, sub-pixel or larger than the grid
        rng = np.random.Generator(np.random.Philox(42))
        for trial in range(200):
            count = int(rng.integers(1, 6))
            ellipses = tuple(
                (float(rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-2.5, 0.5)),
                 float(10.0 ** rng.uniform(-2.5, 0.5)), float(rng.uniform(-1.5, 1.5)),
                 float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-180.0, 180.0)))
                for _ in range(count))
            size = int(rng.integers(1, 48))
            assert np.array_equal(rasterize_ellipses(size, ellipses).values,
                                  full_grid_ellipses(size, ellipses)), (size, ellipses)

    def test_overlapping_intensities_accumulate(self):
        two = ((0.4, 0.5, 0.5, 0.0, 0.0, 0.0), (0.3, 0.2, 0.2, 0.0, 0.0, 0.0))
        img = rasterize_ellipses(32, two).values
        assert img[16, 16] == pytest.approx(0.7, abs=1e-12)


class TestNoise:
    def test_negative_level_rejected(self):
        with pytest.raises(gl.ConfigurationError):
            gl.NoiseSpec(delta_rel=-0.01)

    @pytest.mark.parametrize("kwargs", [dict(delta_rel=math.nan), dict(delta_rel=math.inf),
                                        dict(delta_rel=0.05, seed=-1), dict(delta_rel=0.05, seed=1.5)],
                             ids=["nan-level", "inf-level", "negative-seed", "fractional-seed"])
    def test_non_finite_level_and_bad_seed_rejected(self, kwargs):
        with pytest.raises(gl.ConfigurationError):
            gl.NoiseSpec(**kwargs)

    def test_zero_level_returns_data_unchanged(self):
        clean = gl.Sinogram([[1.0, 2.0], [3.0, 4.0]])
        noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.0, seed=9))
        assert delta == 0.0
        assert np.array_equal(noisy.values, clean.values)

    @pytest.mark.parametrize("delta_rel", [0.2, 0.05, 0.001])
    def test_noise_magnitude_is_exact(self, delta_rel):
        rng = np.random.Generator(np.random.Philox(41))
        clean = gl.Sinogram(rng.random((12, 17)) + 0.5)
        noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=3))
        assert delta == pytest.approx(delta_rel * gl.norm(clean), rel=1e-15)
        achieved = gl.norm(gl.sub(noisy, clean))
        assert achieved == pytest.approx(delta, rel=1e-12)

    def test_type_preserved(self):
        clean = gl.ImageGrid(np.ones((4, 4)))
        noisy, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1))
        assert isinstance(noisy, gl.ImageGrid)

    def test_same_seed_bit_identical(self):
        clean = gl.Sinogram(np.ones((6, 6)))
        a, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1, seed=5))
        b, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1, seed=5))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        clean = gl.Sinogram(np.ones((6, 6)))
        a, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1, seed=5))
        b, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1, seed=6))
        assert not np.array_equal(a.values, b.values)

    def test_direction_fixed_across_levels(self):
        # one seed pins one direction; the level only scales the magnitude
        clean = gl.Sinogram(np.ones((8, 8)) * 2.0)
        big, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.2, seed=7))
        small, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.1, seed=7))
        assert np.allclose(big.values - clean.values, 2.0 * (small.values - clean.values),
                           rtol=1e-12, atol=0)

    def test_zero_data_rejected_for_positive_level(self):
        with pytest.raises(gl.ConfigurationError):
            gl.add_noise(gl.Sinogram(np.zeros((3, 3))), gl.NoiseSpec(delta_rel=0.1))

    def test_normal_field_deterministic_and_reasonable(self):
        a = standard_normal_field((50, 40), seed=2)
        b = standard_normal_field((50, 40), seed=2)
        assert np.array_equal(a, b)
        assert a.shape == (50, 40)
        assert abs(a.mean()) < 0.1
        assert abs(a.std() - 1.0) < 0.1
