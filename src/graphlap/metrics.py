"""Reconstruction quality numbers: relative error, PSNR, SSIM.

Two PSNR conventions are reported side by side.  ``psnr_standard`` uses the
root-mean-square error of a peak-1 image, 20 log10(sqrt(n) / ||diff||); some
published tables instead use the plain norm, 20 log10(1 / ||diff||), which is
kept as ``psnr_paper``.  The two differ by 10 log10(n).

SSIM uses a 7x7 uniform window over fully-interior positions only, constants
C1 = 0.01^2 and C2 = 0.03^2 for a unit dynamic range, sample (n-1) moment
normalization, and both inputs clamped to [0, 1] first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError
from .grid import norm, sub

SSIM_WINDOW = 7
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class QualityReport:
    re: float
    psnr_standard: float
    psnr_paper: float
    ssim: float


def relative_error(u, truth) -> float:
    """||u - truth|| / ||truth||."""
    truth_norm = norm(truth)
    if truth_norm == 0.0:
        raise ConfigurationError("relative error needs a nonzero reference")
    return norm(sub(u, truth)) / truth_norm


def psnr(u, truth) -> tuple[float, float]:
    """Return (psnr_standard, psnr_paper); both +inf on an exact match."""
    diff = norm(sub(u, truth))
    if diff == 0.0:
        return math.inf, math.inf
    n = u.values.size
    return 20.0 * math.log10(math.sqrt(n) / diff), 20.0 * math.log10(1.0 / diff)


def _window_means(values: np.ndarray) -> np.ndarray:
    filtered = ndimage.uniform_filter(values, size=SSIM_WINDOW, mode="constant")
    r = SSIM_WINDOW // 2
    return filtered[r:-r, r:-r]


def ssim(u, truth) -> float:
    """Mean local SSIM over interior 7x7 windows of the clamped images."""
    if u.values.shape != truth.values.shape:
        raise ConfigurationError("ssim needs images of identical shape")
    h, w = u.values.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigurationError(f"ssim needs at least a {SSIM_WINDOW}x{SSIM_WINDOW} image")
    x = np.clip(u.values, 0.0, 1.0)
    y = np.clip(truth.values, 0.0, 1.0)
    np_window = SSIM_WINDOW * SSIM_WINDOW
    cov_norm = np_window / (np_window - 1)
    mx = _window_means(x)
    my = _window_means(y)
    vx = cov_norm * (_window_means(x * x) - mx * mx)
    vy = cov_norm * (_window_means(y * y) - my * my)
    cxy = cov_norm * (_window_means(x * y) - mx * my)
    numerator = (2.0 * mx * my + _SSIM_C1) * (2.0 * cxy + _SSIM_C2)
    denominator = (mx * mx + my * my + _SSIM_C1) * (vx + vy + _SSIM_C2)
    return float(np.mean(numerator / denominator))


def evaluate(u, truth) -> QualityReport:
    std, paper = psnr(u, truth)
    return QualityReport(re=relative_error(u, truth), psnr_standard=std, psnr_paper=paper, ssim=ssim(u, truth))
