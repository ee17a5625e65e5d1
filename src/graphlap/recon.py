"""Initial reconstructions used to start the outer iteration.

Four choices: the plain adjoint A* v, filtered back-projection, Tikhonov via
preconditioned conjugate gradients on the normal equations (the preconditioner
is a circulant fitted to A* A), and a total-variation denoising of the FBP
image computed with Chambolle's dual projection algorithm.  The first three
are linear in the data; the TV step runs exactly 200 Chambolle steps, a
continuous map of the data that approximates the proximal mapping of TV.
Criterion 13 checks on FBP data that it shrinks distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .grid import ImageGrid, Sinogram, axpy, dot, norm
from .operators import LinearOperator, RadonTransform

PSI_KINDS = ("adjoint", "fbp", "tikhonov", "tv")
# the initializers that filter and back-project projection data
PROJECTION_PSI = ("fbp", "tv")

# the conjugate-gradient stop of the Tikhonov start and the TV weight of the TV start
CG_TOL = 1e-8
CG_MAX_ITER = 500
TV_WEIGHT = 0.1


@dataclass(frozen=True)
class ReconstructorSpec:
    """Which initial reconstruction to use, and the Tikhonov weight lambda."""

    kind: str = "adjoint"
    tikhonov_weight: float = 50.0

    def __post_init__(self):
        if self.kind not in PSI_KINDS:
            raise ConfigurationError(f"kind must be one of {PSI_KINDS}, got {self.kind!r}")
        if not (0 < self.tikhonov_weight < math.inf):
            raise ConfigurationError(f"tikhonov_weight must be positive and finite, got {self.tikhonov_weight!r}")


def _ramp_hann_filter(nfft: int) -> np.ndarray:
    freqs = np.fft.rfftfreq(nfft)
    f_max = 0.5  # Nyquist for unit detector spacing
    return np.abs(freqs) * 0.5 * (1.0 + np.cos(np.pi * freqs / f_max))


def filter_sinogram(s: Sinogram) -> Sinogram:
    """Apply the ramp x Hann filter to each detector row in frequency space."""
    d = s.num_detectors
    nfft = 1 << max(1, (2 * d - 1)).bit_length()
    spectrum = np.fft.rfft(s.values, n=nfft, axis=1)
    filtered = np.fft.irfft(spectrum * _ramp_hann_filter(nfft)[None, :], n=nfft, axis=1)
    return Sinogram(filtered[:, :d])


def psi_fbp(A: RadonTransform, v: Sinogram) -> ImageGrid:
    """Filtered back-projection: filter rows, back-project, scale by pi / m.

    The angles sample the half turn [0, pi) uniformly, so pi / m is the
    angle step d(theta) of the inversion formula's integral over [0, pi),
    with the frequency axis in cycles per detector spacing.
    """
    if v.shape != A.range_shape:
        raise ConfigurationError(f"sinogram shape {v.shape} does not match geometry {A.range_shape}")
    back = A.adjoint(filter_sinogram(v))
    return ImageGrid((math.pi / A.geometry.num_angles) * back.values)


def _normal_preconditioner(A: LinearOperator, lam: float):
    """P^-1 for A* A + lam I: the inverse of a circulant fitted to A* A.

    One probe applies A* A to the unit image at the centre pixel; rolled so
    the centre sits at the origin, the real part of its FFT on the image's own
    (periodic) grid, clipped at 0, is the symbol.  The symbol is real and even,
    so P^-1 r = irfft2(rfft2(r) / (symbol + lam)) is symmetric positive
    definite for every lam > 0 and preconditioned CG is valid for any
    operator; only the speed depends on how shift-invariant A* A is.

    The grid is the image's own, not a 2N zero-padded one: at CT 128^2 x 180
    the padded grid saves 2-3 of about 22 iterations, but its FFTs cost four
    times as much and it doubled the time of the deblur 256^2 start.
    """
    shape = A.domain_shape
    centre = (shape[0] // 2, shape[1] // 2)
    probe = np.zeros(shape)
    probe[centre] = 1.0
    response = A.adjoint(A.apply(ImageGrid(probe))).values
    symbol = np.fft.rfft2(np.roll(response, (-centre[0], -centre[1]), axis=(0, 1))).real
    inverse = 1.0 / (np.maximum(symbol, 0.0) + lam)

    def solve(r: ImageGrid) -> ImageGrid:
        return ImageGrid(np.fft.irfft2(np.fft.rfft2(r.values) * inverse, s=shape))

    return solve


def psi_tikhonov(A: LinearOperator, v, spec: ReconstructorSpec) -> ImageGrid:
    """Solve (A* A + lambda I) u = A* v by preconditioned conjugate gradients
    from zero, with the circulant preconditioner of _normal_preconditioner.

    Stops when the residual of the normal equations has dropped below
    ``CG_TOL`` relative to the right-hand side.
    """
    lam = spec.tikhonov_weight
    b = A.adjoint(v)
    b_norm = norm(b)
    x = ImageGrid(np.zeros(A.domain_shape))
    if b_norm == 0.0:
        return x
    precondition = _normal_preconditioner(A, lam)
    r = b  # residual of the normal equations at x = 0
    z = precondition(r)
    p = z
    rz = dot(r, z)
    for _ in range(CG_MAX_ITER):
        ap = axpy(lam, p, A.adjoint(A.apply(p)))
        step = rz / dot(p, ap)
        x = axpy(step, p, x)
        r = axpy(-step, ap, r)
        if norm(r) <= CG_TOL * b_norm:
            return x
        z = precondition(r)
        rz_next = dot(r, z)
        p = axpy(rz_next / rz, p, z)
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not reach tol {CG_TOL} in {CG_MAX_ITER} iterations",
        residual=norm(r) / b_norm,
    )


def _forward_gradient(a: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> None:
    """Forward differences of ``a`` into ``gx`` and ``gy``, zero past the last
    column and row; the last row of ``gy`` is never written, so it must come
    in zero."""
    # both as contiguous runs of the flattened arrays; the column run also
    # takes each row's last entry to the next row's first, zeroed after
    flat, width = a.ravel(), a.shape[1]
    np.subtract(flat[1:], flat[:-1], out=gx.ravel()[:-1])
    gx[:, -1] = 0.0
    np.subtract(flat[width:], flat[:-width], out=gy.ravel()[:-width])


def _divergence(px: np.ndarray, py: np.ndarray, div: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Negative adjoint of _forward_gradient, into ``div``; size-1 axes carry
    no differences.  Each entry is summed on zero, as in a fresh array, and
    x - y is x + (-y) in IEEE arithmetic."""
    height, width = px.shape
    if width > 1:
        # the column differences as one contiguous run of the flattened px;
        # each row's first entry, which spans two rows, is written after
        flat = px.ravel()
        np.subtract(flat[1:], flat[:-1], out=scratch.ravel()[1:])
        np.add(0.0, scratch, out=div)
        np.add(0.0, px[:, 0], out=div[:, 0])
        np.subtract(0.0, px[:, -2], out=div[:, -1])
    else:
        div.fill(0.0)
    if height > 1:
        rows, inner = py.ravel(), scratch.ravel()[width:-width]
        div[0, :] += py[0, :]
        np.subtract(rows[width:-width], rows[:-2 * width], out=inner)
        div.ravel()[width:-width] += inner
        div[-1, :] -= py[-2, :]
    return div


def tv_prox(b: ImageGrid, weight: float) -> ImageGrid:
    """Chambolle's dual projection for the ROF problem.

    Runs exactly 200 steps p <- (p + step * grad(div p - b / weight)) / (1 +
    step * |...|) with step 1/4 from p = 0, and returns b - weight * div p, an
    approximation of the proximal mapping of weight * TV at b.  Every step
    runs in the same seven image-sized buffers.
    """
    if not (0 < weight < math.inf):
        raise ConfigurationError(f"weight must be positive and finite, got {weight!r}")
    step = 0.25
    bf = b.values
    target = bf / weight
    px, py, g, gx, gy, denom, scratch = (np.zeros_like(bf) for _ in range(7))
    for _ in range(200):
        _divergence(px, py, g, scratch)
        g -= target
        _forward_gradient(g, gx, gy)
        # denom = 1 + step * sqrt(gx * gx + gy * gy)
        np.multiply(gx, gx, out=denom)
        np.multiply(gy, gy, out=scratch)
        denom += scratch
        np.sqrt(denom, out=denom)
        denom *= step
        denom += 1.0
        for p, gp in ((px, gx), (py, gy)):
            # p = (p + step * gp) / denom
            np.multiply(step, gp, out=scratch)
            p += scratch
            p /= denom
    return ImageGrid(bf - weight * _divergence(px, py, g, scratch))


def psi_tv(A: RadonTransform, v: Sinogram) -> ImageGrid:
    """TV denoising of the FBP image."""
    return tv_prox(psi_fbp(A, v), TV_WEIGHT)


def initial_reconstruction(A: LinearOperator, v, spec: ReconstructorSpec) -> ImageGrid:
    """Dispatch on ``spec.kind``; adjoint is A* v, and the ``PROJECTION_PSI``
    kinds need a Radon operator."""
    if spec.kind in PROJECTION_PSI and not isinstance(A, RadonTransform):
        raise ConfigurationError(f"psi kind {spec.kind!r} needs a Radon operator, got {type(A).__name__}")
    if spec.kind == "adjoint":
        return A.adjoint(v)
    if spec.kind == "tikhonov":
        return psi_tikhonov(A, v, spec)
    if spec.kind == "fbp":
        return psi_fbp(A, v)
    return psi_tv(A, v)
