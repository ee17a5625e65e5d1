"""Synthetic test images and the additive Gaussian noise model.

The head phantom is the standard ten-ellipse table with the contrast-adjusted
intensities that keep every pixel inside [0, 1] (outer shell 1.0, brain tissue
0.2, features 0.0 / 0.3).  Ellipses are rasterized by center-of-pixel
membership on the square [-1, 1]^2 and their intensities add where they
overlap.

Noise is scaled to an exact level: a standard normal direction is drawn once
from a counter-based generator and rescaled so that ||noisy - clean|| equals
delta_rel * ||clean|| by construction.  The direction depends only on the seed
and the data shape, so sweeping delta_rel with a fixed seed perturbs the data
along one fixed direction with shrinking magnitude.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import ImageGrid, norm

# (intensity, semi-axis x, semi-axis y, center x, center y, rotation degrees)
SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def rasterize_ellipses(size: int, ellipses) -> ImageGrid:
    """Accumulate ellipse intensities over pixel centers, clamped to [0, 1].

    Each ellipse is tested only on the pixels of its axis-aligned bounding
    box, padded by one pixel; every pixel outside that box is outside the
    ellipse, so the result equals a test over the whole grid.
    """
    if size < 1:
        raise ConfigurationError(f"size must be >= 1, got {size}")
    # pixel centers on [-1, 1]^2, y axis pointing up
    xs = (2.0 * np.arange(size) + 1.0) / size - 1.0
    out = np.zeros((size, size), dtype=np.float64)
    for value, axis_x, axis_y, cx, cy, phi_deg in ellipses:
        phi = np.deg2rad(phi_deg)
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        half_x = np.hypot(axis_x * cos_phi, axis_y * sin_phi)
        half_y = np.hypot(axis_x * sin_phi, axis_y * cos_phi)
        j0 = max(int(np.searchsorted(xs, cx - half_x)) - 1, 0)
        j1 = min(int(np.searchsorted(xs, cx + half_x, side="right")) + 1, size)
        # row i holds y = -xs[i]
        i0 = max(int(np.searchsorted(xs, -cy - half_y)) - 1, 0)
        i1 = min(int(np.searchsorted(xs, -cy + half_y, side="right")) + 1, size)
        if i0 >= i1 or j0 >= j1:
            continue
        dx = xs[None, j0:j1] - cx
        dy = -xs[i0:i1, None] - cy
        major = dx * cos_phi + dy * sin_phi
        minor = -dx * sin_phi + dy * cos_phi
        inside = (major / axis_x) ** 2 + (minor / axis_y) ** 2 <= 1.0
        out[i0:i1, j0:j1][inside] += value
    return ImageGrid(np.clip(out, 0.0, 1.0))


def shepp_logan(size: int) -> ImageGrid:
    """The standard head phantom at the requested resolution."""
    return rasterize_ellipses(size, SHEPP_LOGAN_ELLIPSES)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and the seed of the noise direction."""

    delta_rel: float
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.delta_rel < math.inf):
            raise ConfigurationError(f"delta_rel must be >= 0 and finite, got {self.delta_rel}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigurationError(f"seed must be >= 0 and an integer, got {self.seed!r}")


def standard_normal_field(shape, seed: int) -> np.ndarray:
    """Standard normals via Box-Muller on Philox (counter-based) uniforms."""
    rng = np.random.Generator(np.random.Philox(seed))
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def add_noise(clean, spec: NoiseSpec):
    """Return (noisy, delta) with ||noisy - clean|| == delta_rel ||clean||.

    With delta_rel == 0 the data is returned unperturbed and delta is 0.
    """
    if spec.delta_rel == 0.0:
        return type(clean)(clean.values), 0.0
    clean_norm = norm(clean)
    if clean_norm == 0.0:
        raise ConfigurationError("cannot scale noise relative to all-zero data")
    xi = standard_normal_field(clean.values.shape, spec.seed)
    xi_norm = float(np.sqrt(np.sum(xi * xi)))
    if xi_norm == 0.0:
        raise ConfigurationError("degenerate noise draw")
    delta = spec.delta_rel * clean_norm
    noisy = type(clean)(clean.values + (delta / xi_norm) * xi)
    return noisy, delta
