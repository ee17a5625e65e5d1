"""Forward operators: parallel-beam Radon transform, Gaussian blur, identity.

Every operator is linear with an adjoint that is the exact transpose of the
forward map, so the dot-product identity <A u, s> == <u, A* s> holds to
rounding error.  The Radon transform is a sparse matrix, and its A and A*
give the bytes of the products with the one matrix of a global assembly.
The blur is a separable zero-padded convolution with symmetric taps (hence
self-adjoint), built once per operator.
"""

from __future__ import annotations

import functools
import math
import mmap
import numbers
import threading
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import _sparsetools

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

    @property
    def cut(self) -> int:
        """Pixels of the left column block, the rest are the right one's."""
        return self.image_size ** 2 // 2


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
    """The rays of angle ``t`` as CSR blocks of the pixels below
    ``geometry.cut`` and of the rest.

    Every array the angle's entries pass through is in ``work``, each
    computed by the same operations in the same order as the plain
    expressions, so the bits do not depend on it.  Each corner writes its
    own slot of each ray, so the masked entries come out ray by ray, then
    corner by corner, then step by step.  ``sum_duplicates`` adds a pixel's
    entries in the order its sort leaves them, so this order pins the bytes:
    it is the one in which a global COO-to-CSR conversion hands each row to
    the same sort and sum.  Beside the masked entries and the per-ray
    counts, the call allocates only what the sort and the two column slices
    do, and the blocks it returns share no memory with ``work``.
    """
    size = geometry.image_size
    d = geometry.num_detectors
    cut = geometry.cut
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
    return block[:, :cut], block[:, cut:]


def _block_capacities(geometry: RadonGeometry) -> np.ndarray:
    """Per angle, at most how many entries its rays put into the left and
    into the right pixel-column block, shape ``(num_angles, 2)``.

    A sample point (px, py) reaches the pixels (x0 + {0, 1}, y0 + {0, 1}) of
    its floor (x0, y0): at most 4 entries, and merging duplicates only lowers
    that.  With E the image side, it can reach a left-block pixel only inside
    the rectangle [-1, E) x [-1, (cut - 1) // E + 1), and a right-block one
    only inside [-1, E) x [cut // E - 1, E); call it w by h.  A ray's
    unit-spaced samples put at most chord + 1 of their points in it, and one
    more at each end for rounding, so the d rays add 3 d to their chords.
    The chord of a convex set is concave in the ray offset, and the rays are
    parallel and unit-spaced, so at every angle their chords sum to at most
    area + diagonal: each angle gets 4 ceil(w h + hypot(w, h) + 3 d).
    """
    size, cut, d = geometry.image_size, geometry.cut, geometry.num_detectors
    w, heights = size + 1, ((cut - 1) // size + 2, size - cut // size + 1)
    bounds = [4 * math.ceil(w * h + math.hypot(w, h) + 3 * d) for h in heights]
    return np.full((geometry.num_angles, 2), bounds, dtype=np.int64)


# entries of the worker's run that ``_close_gap`` moves at a time
_MOVE_CHUNK = 1 << 18


def _private_map(count: int, dtype) -> np.ndarray:
    """``count`` zeros of ``dtype`` on a private anonymous map of their own.

    A page of it takes memory only once touched, and none of it sits on the
    allocator's heap.  ``MAP_PRIVATE`` because Python maps ``fileno=-1`` as
    ``MAP_SHARED``, which is shared memory: there ``MADV_DONTNEED`` drops
    pages from the resident set without freeing them, and the process's peak
    RSS would not show them.
    """
    dtype = np.dtype(dtype)
    pages = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype, count)


def _radon_matrix(geometry: RadonGeometry):
    """Forward projection matrix as two CSR pixel-column blocks.

    The calling thread claims angles (``_angle_block``) from the first one up
    and, through ``fork_join``, the worker from the last one down, until the
    two meet; a worker that is slow or taken leaves the caller more of them.
    Each thread builds its angles in one ``_AngleWork`` of its own, allocated
    when it starts and dropped at the join.  Each angle's entries go into the
    final ``data`` and ``indices`` arrays of each block as soon as they are
    built, so at most two angles' entries are alive at a time, one per
    thread.  The arrays are allocated at a bound on the entries that the
    geometry alone gives, one closed form per block and angle
    (``_block_capacities``), on private anonymous maps (``_private_map``), so
    capacity no thread reaches is never resident; the caller fills them from
    the front and the worker from the back.  After the join ``_close_gap``
    moves the worker's run down to follow the caller's and releases the pages
    past the entries, and the blocks hold length-nnz views on the maps, which
    are unmapped with the matrix.  Each angle's entries reach the sort ray by
    ray, in the order one global conversion gives it, so the blocks hold
    that conversion's bytes, plus one ``indptr``, whichever thread assembled
    each angle.
    """
    m, d, cut = geometry.num_angles, geometry.num_detectors, geometry.cut
    n = geometry.image_size ** 2
    capacity = [int(c) for c in _block_capacities(geometry).sum(axis=0)]
    data = [_private_map(c, np.float64) for c in capacity]
    indices = [_private_map(c, np.int32) for c in capacity]
    counts = np.empty((2, m * d), dtype=np.int64)  # entries per ray and block
    lock = threading.Lock()
    bounds = [0, geometry.num_angles]  # the angles no thread has claimed yet
    front, back = [0, 0], list(capacity)  # per block, the slots no thread has taken

    def place(t: int, up: bool, blocks):
        for h, block in enumerate(blocks):
            size = block.nnz
            with lock:
                if front[h] + size > back[h]:
                    raise RuntimeError(f"Radon block {h} outgrew its capacity {capacity[h]} at angle {t}")
                if up:
                    at = front[h]
                    front[h] += size
                else:
                    back[h] -= size
                    at = back[h]
            data[h][at:at + size] = block.data
            indices[h][at:at + size] = block.indices
            counts[h, t * d:(t + 1) * d] = np.diff(block.indptr)

    def assemble(up: bool):
        work = _AngleWork(geometry)
        while True:
            with lock:
                if bounds[0] == bounds[1]:
                    return
                if up:
                    t = bounds[0]
                    bounds[0] += 1
                else:
                    bounds[1] -= 1
                    t = bounds[1]
            place(t, up, _angle_block(geometry, t, work))

    fork_join(lambda: assemble(True), lambda: assemble(False))
    blocks = []
    for h, width in enumerate((cut, n - cut)):
        # the worker stored its angles last to first from the end, so its
        # run already follows angle order
        parts = [_close_gap(part, front[h], back[h]) for part in (data[h], indices[h])]
        indptr = np.concatenate(([0], np.cumsum(counts[h])))
        # int32 indptr and indices, as a global conversion stores them
        blocks.append(sparse.csr_matrix((*parts, indptr), shape=(m * d, width)))
    return tuple(blocks)


def _close_gap(part: np.ndarray, front: int, back: int) -> np.ndarray:
    """Move the run ``part[back:]`` of a ``_private_map`` array down to
    follow ``part[:front]`` and return the entries up to its end, a view on
    the map.

    The run moves in chunks of ``_MOVE_CHUNK`` entries, low to high, so no
    chunk overwrites a source still to move; each chunk's whole source pages
    past the entries are released (``MADV_DONTNEED``) before the next chunk
    touches its destination, and so is every page past the entries at the
    end.  The view holds exactly the entries, so scipy keeps it instead of
    copying a short slice of a longer array.
    """
    pages, step, page = part.base.obj, part.itemsize, mmap.PAGESIZE
    run = part.size - back
    kept = -(-(front + run) * step // page) * page  # the pages from here on hold no entry
    for start in range(0, run, _MOVE_CHUNK):
        stop = min(start + _MOVE_CHUNK, run)
        part[front + start:front + stop] = part[back + start:back + stop]
        lo = max(kept, (back + start) * step // page * page)
        hi = (back + stop) * step // page * page
        if lo < hi:
            pages.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
    if kept < len(pages):
        pages.madvise(mmap.MADV_DONTNEED, kept)
    return np.frombuffer(pages, part.dtype, front + run)


class RadonTransform(LinearOperator):
    """Discrete Radon transform via bilinear interpolation along rays.

    The matrix M is held as two pixel-column blocks (``_radon_matrix``).  A
    runs two halves of the rays and A* the two blocks' transposes, one per
    half of the pixels; ``fork_join`` hands the second half to the solve's
    worker when one is free.  Every ray and every pixel sums the same terms
    in the same order as ``M @ x`` or ``M.T @ s``, so the results are the
    same bytes.
    """

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        self.domain_shape = (geometry.image_size, geometry.image_size)
        self.range_shape = (geometry.num_angles, geometry.num_detectors)
        with second_core():
            self._left, self._right = _radon_matrix(geometry)

    def apply(self, u: ImageGrid) -> Sinogram:
        self._check_domain(u)
        x = u.values.ravel()
        cut = self._left.shape[1]
        out = np.zeros(self._left.shape[0])

        def rays(lo, hi):
            # each ray adds its left-block terms, then its right-block ones:
            # scipy's private kernel, as no public product adds into an output
            for block, part in ((self._left, x[:cut]), (self._right, x[cut:])):
                _sparsetools.csr_matvec(hi - lo, block.shape[1], block.indptr[lo:hi + 1], block.indices,
                                        block.data, part, out[lo:hi])

        mid = out.size // 2
        fork_join(lambda: rays(0, mid), lambda: rays(mid, out.size))
        return Sinogram(out.reshape(self.range_shape))

    def adjoint(self, s: Sinogram) -> ImageGrid:
        if not isinstance(s, Sinogram) or s.shape != self.range_shape:
            raise ShapeMismatch(f"expected a Sinogram of shape {self.range_shape}")
        y = s.values.ravel()
        # the blocks' CSC views: each pixel sums over increasing ray index
        halves = fork_join(lambda: self._left.T @ y, lambda: self._right.T @ y)
        return ImageGrid(np.concatenate(halves).reshape(self.domain_shape))


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
