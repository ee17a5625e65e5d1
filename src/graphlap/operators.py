"""Forward operators: parallel-beam Radon transform, Gaussian blur, identity.

Every operator is linear with an adjoint that is the exact transpose of the
forward map, so the dot-product identity <A u, s> == <u, A* s> holds to
rounding error.  The Radon transform is a sparse matrix held as two row
blocks, one per half of the angles: its A gives the bytes of the product
with the one matrix of a global assembly, and its A* the sum of the two
blocks' transposed products.  The blur is a separable zero-padded
convolution with symmetric taps (hence self-adjoint), built once per
operator.
"""

from __future__ import annotations

import functools
import math
import mmap
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse

from .errors import ConfigurationError, ShapeMismatch
from .forkjoin import fork_join, second_core
from .grid import ImageGrid, Sinogram, axpy, dot, norm


class LinearOperator:
    """Matrix-free linear map with fixed domain and range shapes.

    A solve reaches the forward model only through ``apply``, ``adjoint`` and
    ``norm_estimate``.  An operator may hand half of its own work to the
    solve's worker through ``forkjoin.fork_join``, as the Radon transform
    does; ``graphlap.forkjoin`` says which thread runs what.
    """

    domain_shape: tuple[int, int]
    range_shape: tuple[int, int]

    def apply(self, u):
        raise NotImplementedError

    def adjoint(self, s):
        raise NotImplementedError

    @functools.cached_property
    def norm_estimate(self) -> NormEstimate:
        """||A||, estimated once per operator by Lanczos steps on A* A until
        the top Ritz pair's eigen-residual is at most 1e-8 of its value
        (``estimate_operator_norm``); the fixed seed makes identical runs
        estimate identical norms."""
        return estimate_operator_norm(self)

    def _check_domain(self, u):
        if not isinstance(u, ImageGrid) or u.shape != self.domain_shape:
            raise ShapeMismatch(f"expected an ImageGrid of shape {self.domain_shape}")


@dataclass(frozen=True)
class RadonGeometry:
    """Parallel-beam sampling: angles uniform on [0, pi), unit detector spacing.

    The detector array has ceil(sqrt(2) E) bins, centered on the projection of
    the grid center, wide enough to cover the image diagonal.  A line at angle
    theta and signed offset s runs through center + s (cos t, sin t) with
    direction (-sin t, cos t) and is sampled at unit steps.  The half turn
    already covers every line direction; a full turn would only duplicate
    rays and halve the effective number of view directions.
    """

    image_size: int
    num_angles: int

    def __post_init__(self):
        for name, low in (("image_size", 2), ("num_angles", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ConfigurationError(f"{name} must be >= {low} and an integer, got {value!r}")

    @property
    def num_detectors(self) -> int:
        return math.ceil(math.sqrt(2.0) * self.image_size)

    @property
    def angles(self) -> np.ndarray:
        m = self.num_angles
        return np.pi * np.arange(m) / m

    @property
    def detector_offsets(self) -> np.ndarray:
        d = self.num_detectors
        return np.arange(d) - (d - 1) / 2.0

    @property
    def center(self) -> float:
        """Both coordinates of the grid center."""
        return (self.image_size - 1) / 2.0

    @property
    def half_span(self) -> int:
        """Steps each way from a ray's center: the samples run from
        -half_span to half_span, half the image diagonal or more."""
        return math.ceil(math.sqrt(2.0) * self.image_size / 2.0)


class _AngleWork:
    """Scratch for ``_angle_block`` at one geometry, reused angle after angle
    by one thread: the sample points' fractions and floor corners, and a
    weight, pixel and mask slot per (ray, corner, step), laid out ray by ray
    (``_angle_block`` says why)."""

    def __init__(self, geometry: RadonGeometry):
        d = geometry.num_detectors
        half_span = geometry.half_span
        self.steps = np.arange(-half_span, half_span + 1, dtype=np.float64)
        shape = (d, self.steps.size)
        self.fx, self.fy, self.gx, self.gy = (np.empty(shape) for _ in range(4))
        self.x0, self.y0, self.pixel = (np.empty(shape, dtype=np.int32) for _ in range(3))
        # x0 + 0, x0 + 1, y0 + 0 and y0 + 1 on the grid
        self.inside = [np.empty(shape, dtype=bool) for _ in range(4)]
        self.scratch = np.empty(shape, dtype=bool)
        slots = (d, 4, self.steps.size)
        # int32 pixels, as the CSR matrix stores them: half the bytes to
        # gather and sort during assembly
        self.w, self.col, self.ok = np.empty(slots), np.empty(slots, dtype=np.int32), np.empty(slots, dtype=bool)


def _angle_block(geometry: RadonGeometry, t: int, work: _AngleWork):
    """The rays of angle ``t`` as one ``(d, E^2)`` CSR matrix.

    Every array the angle's entries pass through is in ``work``, each
    computed by the same operations in the same order as the plain
    expressions, so the bits do not depend on it.  Each corner writes its
    own slot of each ray, so the masked entries come out ray by ray, then
    corner by corner, then step by step.  ``sum_duplicates`` adds a pixel's
    entries in the order its sort leaves them, so this order pins the bytes:
    it is the one in which a global COO-to-CSR conversion hands each row to
    the same sort and sum.  Beside the masked entries and the per-ray
    counts, the call allocates only what the sort does, and the block it
    returns shares no memory with ``work``.
    """
    size = geometry.image_size
    d = geometry.num_detectors
    center = geometry.center
    offsets = geometry.detector_offsets
    steps = work.steps
    fx, fy, x0, y0 = work.fx, work.fy, work.x0, work.y0

    theta = geometry.angles[t]
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # sample points px, py of all (detector, step) pairs for this angle, their
    # floors x0, y0 and fractions fx = px - x0, fy = py - y0, in place
    np.subtract(center + offsets[:, None] * cos_t, steps[None, :] * sin_t, out=fx)
    np.add(center + offsets[:, None] * sin_t, steps[None, :] * cos_t, out=fy)
    np.floor(fx, out=x0, casting="unsafe")
    np.floor(fy, out=y0, casting="unsafe")
    np.subtract(fx, x0, out=fx)
    np.subtract(fy, y0, out=fy)
    np.subtract(1.0, fx, out=work.gx)
    np.subtract(1.0, fy, out=work.gy)
    # corner x0 + dx is on the grid where 0 <= x0 + dx < size; likewise y
    for inside, corner, shift in zip(work.inside, (x0, x0, y0, y0), (0, 1, 0, 1)):
        np.greater_equal(corner, -shift, out=inside)
        np.less(corner, size - shift, out=work.scratch)
        inside &= work.scratch
    np.multiply(y0, size, out=work.pixel)
    work.pixel += x0
    corners = [(dx, wx, dy, wy) for dx, wx in ((0, work.gx), (1, fx)) for dy, wy in ((0, work.gy), (1, fy))]
    for c, (dx, wx, dy, wy) in enumerate(corners):
        w, ok = work.w[:, c], work.ok[:, c]
        np.multiply(wx, wy, out=w)
        np.greater(w, 0, out=ok)
        ok &= work.inside[dx]
        ok &= work.inside[2 + dy]
        np.add(work.pixel, dy * size + dx, out=work.col[:, c])
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(work.ok, axis=(1, 2)))))
    block = sparse.csr_matrix((work.w[work.ok], work.col[work.ok], indptr), shape=(d, size * size))
    block.sum_duplicates()
    return block


def _private_map(count: int, dtype) -> np.ndarray:
    """``count`` zeros of ``dtype`` on a private anonymous map of their own.

    A page of it takes memory only once touched, and none of it sits on the
    allocator's heap.  ``MAP_PRIVATE`` because Python maps ``fileno=-1`` as
    ``MAP_SHARED``, which is shared memory rather than the process's own.
    """
    dtype = np.dtype(dtype)
    pages = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype, count)


def _angle_rows(geometry: RadonGeometry, lo: int, hi: int):
    """The rays of angles ``[lo, hi)`` as one CSR matrix, built in one
    ``_AngleWork`` on the calling thread.

    Each angle's entries (``_angle_block``) go into the final ``data`` and
    ``indices`` arrays as soon as they are built, so at most one angle's
    entries are alive at a time.  Each angle gets the workspace's slots,
    ``work.w.size`` entries: its entries are masked from them, and merging
    duplicates only lowers their count.  The arrays live on private anonymous
    maps (``_private_map``), so only the pages the entries touch are
    resident, though under strict overcommit the whole reservation counts
    against the commit limit.  The matrix holds exact-length views on the
    maps, which are unmapped with it.
    """
    d = geometry.num_detectors
    work = _AngleWork(geometry)
    slots = (hi - lo) * work.w.size
    data, indices = _private_map(slots, np.float64), _private_map(slots, np.int32)
    indptr = np.zeros((hi - lo) * d + 1, dtype=np.int64)
    for t in range(lo, hi):
        block = _angle_block(geometry, t, work)
        row = (t - lo) * d
        start = indptr[row]
        end = start + block.nnz
        data[start:end] = block.data
        indices[start:end] = block.indices
        indptr[row + 1:row + d + 1] = start + block.indptr[1:]
        del block
    # views of exactly the entries, which scipy keeps rather than copying a
    # short slice of a longer array; scipy casts indptr to int32, the dtype
    # of a global conversion
    nnz = int(indptr[-1])
    parts = [np.frombuffer(part.base, part.dtype, nnz) for part in (data, indices)]
    return sparse.csr_matrix((*parts, indptr), shape=((hi - lo) * d, geometry.image_size ** 2))


def _radon_matrix(geometry: RadonGeometry):
    """Forward projection matrix as two row blocks, one per half of the
    angles.

    The first block holds the rays of angles ``[0, h)``, h = ceil(m / 2), and
    is built on the calling thread; the second holds those of ``[h, m)`` and
    is built, through ``fork_join``, on the worker (``_angle_rows``).  Each
    ray is one row, and each angle's entries reach the sort ray by ray, in
    the order one global conversion gives it, so the two blocks are that
    conversion's rows, byte for byte, whichever thread built them.  Each
    block reserves its workspace's slots for every angle, at 128^2 about 3.7
    times the entries it keeps; only the touched pages are resident, but
    under strict overcommit all of it counts against the commit limit.
    """
    half = (geometry.num_angles + 1) // 2
    return fork_join(lambda: _angle_rows(geometry, 0, half),
                     lambda: _angle_rows(geometry, half, geometry.num_angles))


class RadonTransform(LinearOperator):
    """Discrete Radon transform via bilinear interpolation along rays.

    The matrix M is held as two row blocks M1 and M2, one per half of the
    angles (``_radon_matrix``).  A x = [M1 x; M2 x], so each ray sums the
    same terms in the same order as ``M @ x`` and A gives its bytes.  A* s =
    M1^T s1 + M2^T s2: each pixel sums its terms of each half in ray order,
    then adds the two sums, so A* is ``M.T @ s`` up to rounding, and the
    same bytes serial or forked.  ``fork_join`` hands the second half of
    each to the solve's worker when one is free.
    """

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.domain_shape = (geometry.image_size, geometry.image_size)
        self.range_shape = (geometry.num_angles, geometry.num_detectors)
        with second_core():
            self._m1, self._m2 = _radon_matrix(geometry)

    def apply(self, u: ImageGrid) -> Sinogram:
        self._check_domain(u)
        x = u.values.ravel()
        halves = fork_join(lambda: self._m1 @ x, lambda: self._m2 @ x)
        return Sinogram(np.concatenate(halves).reshape(self.range_shape))

    def adjoint(self, s: Sinogram) -> ImageGrid:
        if not isinstance(s, Sinogram) or s.shape != self.range_shape:
            raise ShapeMismatch(f"expected a Sinogram of shape {self.range_shape}")
        y = s.values.ravel()
        rows = self._m1.shape[0]
        # the blocks' CSC views: each pixel sums over increasing ray index
        first, second = fork_join(lambda: self._m1.T @ y[:rows], lambda: self._m2.T @ y[rows:])
        first += second
        return ImageGrid(first.reshape(self.domain_shape))


@dataclass(frozen=True)
class BlurKernel:
    """Truncated, renormalized Gaussian point spread function.

    Taps cover [-ceil(4 rho), ceil(4 rho)] and are scaled to sum to one, so
    the blur preserves constants away from the boundary.  The 2-d kernel is
    the outer product of the 1-d taps (a Gaussian is separable).
    """

    rho: float

    def __post_init__(self):
        if not (0 < self.rho < math.inf):
            raise ConfigurationError(f"rho must be positive and finite, got {self.rho}")

    @property
    def radius(self) -> int:
        return math.ceil(4.0 * self.rho)

    @property
    def taps(self) -> np.ndarray:
        k = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        t = np.exp(-(k * k) / (2.0 * self.rho * self.rho))
        return t / t.sum()


class GaussianBlur(LinearOperator):
    """Zero-padded separable Gaussian blur on a square image.

    The taps are built once, with the operator, and are symmetric, so the
    operator matrix is symmetric and the adjoint is the identical computation.
    """

    def __init__(self, kernel: BlurKernel, size: int):
        if not (isinstance(size, numbers.Integral) and size >= 1):
            raise ConfigurationError(f"size must be >= 1 and an integer, got {size!r}")
        # the taps grow with rho, not with the image: rejected rather than
        # clipped, which would change the renormalized taps
        if kernel.rho > size:
            raise ConfigurationError(f"rho must not exceed the image side {size}, got {kernel.rho}")
        self.kernel = kernel
        self._taps = kernel.taps
        self.domain_shape = (size, size)
        self.range_shape = (size, size)

    def _correlate(self, values: np.ndarray) -> np.ndarray:
        out = ndimage.correlate1d(values, self._taps, axis=0, mode="constant", cval=0.0)
        return ndimage.correlate1d(out, self._taps, axis=1, mode="constant", cval=0.0)

    def apply(self, u: ImageGrid) -> ImageGrid:
        self._check_domain(u)
        return ImageGrid(self._correlate(u.values))

    adjoint = apply

    @functools.cached_property
    def norm_estimate(self) -> NormEstimate:
        """Exact ||A||: the blur matrix is K (x) K, with K the n x n Toeplitz
        matrix of the taps, so ||A|| = ||K||^2."""
        n = self.domain_shape[0]
        r = self.kernel.radius
        lag = np.arange(n)[None, :] - np.arange(n)[:, None]
        K = np.where(np.abs(lag) <= r, self._taps[np.clip(lag + r, 0, 2 * r)], 0.0)
        top = float(np.linalg.norm(K, 2))
        return NormEstimate(value=top * top, converged=True, iterations=0)


class ScaledIdentity(LinearOperator):
    """c times the identity; handy for tests and degenerate configurations."""

    def __init__(self, scale: float, size: int):
        if not (isinstance(size, numbers.Integral) and size >= 1):
            raise ConfigurationError(f"size must be >= 1 and an integer, got {size!r}")
        if not math.isfinite(scale):
            raise ConfigurationError(f"scale must be finite, got {scale!r}")
        self.scale = float(scale)
        self.domain_shape = (size, size)
        self.range_shape = (size, size)

    def apply(self, u: ImageGrid) -> ImageGrid:
        self._check_domain(u)
        return ImageGrid(self.scale * u.values)

    adjoint = apply


@dataclass(frozen=True)
class NormEstimate:
    """An operator norm: a Lanczos estimate, which approaches from below, or
    an exact value (``iterations=0``).  ``iterations`` counts A* A products."""

    value: float
    converged: bool
    iterations: int


def estimate_operator_norm(A: LinearOperator) -> NormEstimate:
    """Estimate ||A|| by at most 100 Lanczos steps on A* A from a random
    start drawn with seed 0.

    Step k takes one product A* A q_k and extends the tridiagonal T_k by
    alpha_k = <q_k, A* A q_k> and beta_k, the norm of what the three-term
    recurrence leaves.  The top Ritz pair (theta, s) of T_k has the
    eigen-residual |beta_k s_k|: the run stops once that is at most 1e-8
    theta, or once beta_k = 0, and returns sqrt(theta).  The change of the
    estimate is no such test: near-degenerate top singular values barely
    move it while the Ritz vector is still far from the top singular vector.
    There is no reorthogonalization: lost orthogonality only adds copies of
    Ritz values that have converged, so the run holds three image-sized
    vectors however long it takes.  theta approaches the top eigenvalue from
    below, so callers that need an upper bound should multiply by a small
    safety factor.  If the residual test never passes the last estimate is
    returned with ``converged=False``.
    """
    rng = np.random.Generator(np.random.Philox(0))
    q = ImageGrid(rng.random(A.domain_shape) + 0.5)
    q = ImageGrid(q.values / norm(q))
    q_prev, alphas, betas = None, [], []
    for it in range(1, 101):
        w = A.adjoint(A.apply(q))
        alphas.append(dot(q, w))
        w = axpy(-alphas[-1], q, w)
        if q_prev is not None:
            w = axpy(-betas[-1], q_prev, w)
        betas.append(norm(w))
        ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1))
        theta = max(float(ritz[-1]), 0.0)
        if betas[-1] == 0.0 or abs(betas[-1] * vectors[-1, -1]) <= 1e-8 * theta:
            return NormEstimate(value=math.sqrt(theta), converged=True, iterations=it)
        q_prev, q = q, ImageGrid(w.values / betas[-1])
    return NormEstimate(value=math.sqrt(theta), converged=False, iterations=it)
