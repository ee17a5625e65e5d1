"""Graph Laplacians built from the image being reconstructed.

Pixels are graph nodes.  Two pixels are connected when their lattice distance
(manhattan or chebyshev) is positive and at most ``radius``; the edge weight is
a Gaussian similarity of the two pixel values,

    w(a, b) = exp(-(u(a) - u(b))^2 / sigma).

The Laplacian is Delta = D - W with D the diagonal degree matrix, so
(Delta x)(a) = sum_b w(a, b) (x(a) - x(b)).  Because the weights depend on the
image, the operator is rebuilt whenever the iterate changes.  It is a stencil,
the nonlocal-graph form of Gilboa & Osher (2008): one weight band per lattice
offset (di, dj) of the half-set (84 offsets for chebyshev R = 6).  Since
w(a, b) = w(b, a), each weight is evaluated once, on the contiguous flat slices
u[:n - s] and u[s:] with s = di * width + dj, and scattered to both pixels of
the pair.

A build only holds the image.  The first apply to that image is one pass that
takes each band's difference u[:n - s] - u[s:], turns it into the band's
weights and applies them, so Delta_u u needs two scratch buffers and no stored
bands.  The bands are stored only when the Laplacian is reused for other
images (a solver that rebuilds every few steps), or when the explicit sparse
W, the degrees and the (i, j, w) triplets are asked for (the graph dumps and
the tests).  Nothing is cached between builds.  Weights are kept however small
they are, so the exported structure holds every within-radius pair.

From SPLIT_PIXELS = 2^16 pixels (256^2) up, a pass runs as two pixel
ranges, the rows below the middle one and the rest, through one fork
(``graphlap.forkjoin``); in a solve's loop the calling thread takes the
upper range once A and A* are done.  Each range reads or evaluates every
band only on the pairs with a pixel in it, writes only its own pixels of
the result and of any kept band, and evaluates the weights of the pairs
reaching below it again in its own scratch.  Each pixel sums its band terms
in the order of one pass, so every byte is the same.  The gate is by size
because two threads lose on small images, where ufunc calls of about 8K
elements hand the GIL back and forth: an evaluating pass takes 5.2-7.3 ms
serial against 9.3-14.8 ms as two forked ranges at 128^2, and 22.2-24.0
against 16.2-20.1 ms at 256^2; a stored-band pass 13.2-13.8 against
8.1-11.1 ms at 256^2 (medians of 30 in five runs, 2-vCPU Xeon,
``BENCH_offered_halves.json``).

Weights that underflow cost what the others cost.  numpy's vectorized float64
``exp`` leaves its fast path for arguments below about -707.8: over 16,384
equal arguments it takes 15-22 us at -1 and -700, 300-330 us at -707.8,
2,000-2,300 us where the result is subnormal (-720) and 115-360 us where it
is 0 (numpy 2.4.6 on an AVX-512 Xeon, ``BENCH_exp_underflow.json``).  An
image far from the [0, 1] scale sigma expects (the CT adjoint start has
||u0|| ~ 1e5) sends most of its arguments t = -d^2 / sigma there.  So each
evaluating pass counts the arguments below FAST_EXP_FLOOR band by band, and
while they are at least 1/CLAMP_SHARE of the band, evaluates it clamped: exp
of max(t, FAST_EXP_FLOOR) over the whole band, 0 where t was below the floor,
and plain ``exp`` again on the gathered few in (EXP_UNDERFLOW,
FAST_EXP_FLOOR).  ``exp`` works elementwise and is exactly 0 from
EXP_UNDERFLOW down, so every weight keeps the bits ``np.exp(t)`` gives it,
and the constants decide only what runs fast.  The counting stops at the
first band with fewer: an image within sigma's range (deblur, the CT starts,
late CT iterates) pays for band 0's count, and one with a handful of low
arguments also for np.exp's slow lanes on the handful, which cost less than
masking or gathering them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, ShapeMismatch
from .forkjoin import fork_join
from .grid import ImageGrid, write_table

METRICS = ("manhattan", "chebyshev")

# np.exp stays on its vectorized fast path for arguments above about -707.8
FAST_EXP_FLOOR = -700.0
# exp(t) rounds to 0 for every t at or below -745.1332191019412
EXP_UNDERFLOW = -746.0
# a band is clamped while at least 1/CLAMP_SHARE of its arguments lie below the
# floor; on fewer the mask passes cost more than np.exp's slow lanes
CLAMP_SHARE = 64
# images of at least this many pixels evaluate the graph term in two forked
# pixel ranges; below it, two threads lose to one (module docstring)
SPLIT_PIXELS = 1 << 16


@dataclass(frozen=True)
class GraphConfig:
    """Neighborhood radius, similarity scale and lattice metric."""

    radius: float = 6.0
    sigma: float = 0.05
    metric: str = "chebyshev"

    def __post_init__(self):
        if not (0 < self.radius < math.inf):
            raise ConfigurationError(f"radius must be positive and finite, got {self.radius}")
        if not (0 < self.sigma < math.inf):
            raise ConfigurationError(f"sigma must be positive and finite, got {self.sigma}")
        if self.metric not in METRICS:
            raise ConfigurationError(f"metric must be one of {METRICS}, got {self.metric!r}")


def neighbor_bound(config: GraphConfig) -> int:
    """Largest possible number of neighbors of any pixel.

    chebyshev: (2 floor(R) + 1)^2 - 1, manhattan: 2 floor(R) (floor(R) + 1).
    """
    r = math.floor(config.radius)
    if config.metric == "chebyshev":
        return (2 * r + 1) ** 2 - 1
    return 2 * r * (r + 1)


def _shifts(config: GraphConfig, height: int, width: int):
    """(dj, s) for every offset (di, dj) of the half-set that fits a pair here.

    The half-set holds the offsets within distance floor(R) with di > 0, or
    di == 0 and dj > 0, so it meets each unordered pixel pair once.  Offsets
    that fit no pair on this grid (di >= height or |dj| >= width) lie outside
    the loops, so a radius far beyond the grid costs nothing, and the flat
    shift s = di * width + dj is at least 1.  On grids narrower than 2R two
    offsets can share one shift, which is why every band keeps its own dj.
    """
    r = math.floor(config.radius)
    for di in range(min(r, height - 1) + 1):
        for dj in range(-min(r, width - 1), min(r, width - 1) + 1):
            if di == 0 and dj <= 0:
                continue
            dist = di + abs(dj) if config.metric == "manhattan" else max(di, abs(dj))
            if dist <= r:
                yield dj, di * width + dj


def _clamped_exp(t: np.ndarray, low: np.ndarray) -> None:
    """t <- np.exp(t) bit for bit, where ``low`` is t < FAST_EXP_FLOOR.

    exp runs over the whole band on max(t, FAST_EXP_FLOOR), which keeps it on
    its fast path; entries below the floor are then zeroed, and those in
    (EXP_UNDERFLOW, FAST_EXP_FLOOR), the only ones below the floor whose exp
    is not 0, are evaluated again from their gathered arguments.  NaN stays
    NaN.  ``low`` is overwritten.
    """
    near = np.flatnonzero(low & (t > EXP_UNDERFLOW))
    args = t[near]
    np.maximum(t, FAST_EXP_FLOOR, out=t)
    np.exp(t, out=t)
    np.multiply(t, np.logical_not(low, out=low), out=t)
    t[near] = np.exp(args)


def _weigh(d: np.ndarray, w: np.ndarray, rows: np.ndarray, dj: int, sigma: float, clamp: bool) -> bool:
    """d <- d * w for the weights w of the differences d; returns whether the
    next band is counted.

    ``w`` lies in ``rows``, a (k, width) view with the image's columns, so
    the pairs that wrap across a row edge fill whole columns of it, where
    w = 0.  Elsewhere w = exp(d * d / -sigma) (dividing by -sigma rounds
    exactly like negating and then dividing by sigma), through
    ``_clamped_exp`` while ``clamp`` (module docstring).
    """
    np.multiply(d, d, out=w)
    np.divide(w, -sigma, out=w)
    if clamp:
        low = w < FAST_EXP_FLOOR
        clamp = np.count_nonzero(low) * CLAMP_SHARE >= w.size
    if clamp:
        _clamped_exp(w, low)
    else:
        np.exp(w, out=w)
    width = rows.shape[1]
    if dj > 0:
        rows[:, width - dj:] = 0.0
    elif dj < 0:
        rows[:, :-dj] = 0.0
    d *= w
    return clamp


def _valid(height: int, width: int, dj: int, s: int) -> np.ndarray:
    """Flat indices p whose pair (p, p + s) does not wrap across a row edge."""
    p = np.arange(height * width - s)
    col = p % width
    return p[(col + dj >= 0) & (col + dj < width)]


class SparseLaplacian:
    """Delta = D - W for one image, evaluated from that image when first needed.

    Construction only holds the image and the config.  The first ``apply`` to
    the build image itself evaluates Delta_u u in one pass over the half-set,
    each weight band computed and applied in turn; the bands are kept only
    when ``reuse`` says the Laplacian will be applied to later iterates too.
    ``apply`` to any other image and the explicit matrix (``weights``,
    ``degrees``, ``triplets``, for the graph dumps) use the stored bands,
    evaluated from the held image on first use.
    """

    def __init__(self, image: ImageGrid, config: GraphConfig, reuse: bool = False):
        self.image = image
        self.config = config
        self.reuse = reuse
        self._bands = None

    def apply(self, x: ImageGrid) -> ImageGrid:
        """Apply Delta to an image of the matching shape.

        (Delta x)(a) = sum_b w(a, b) (x(a) - x(b)); each band adds its term to
        the first pixel of every pair and subtracts it from the second.
        """
        if x.shape != self.image.shape:
            raise ShapeMismatch(f"image shape {x.shape} does not match grid {self.image.shape}")
        if x is self.image and self._bands is None:
            out = self._halves(x, keep=self.reuse)
        else:
            out = self._halves(x, self.bands)
        return ImageGrid(out.reshape(self.image.shape))

    @property
    def bands(self) -> tuple:
        """One weight array per shift s of ``_shifts``: ``w[p]`` is the weight of
        pixels p and p + s, 0 where that pair wraps across a row edge."""
        if self._bands is None:
            self._halves(self.image, keep=True)
        return self._bands

    def _halves(self, x: ImageGrid, bands=None, keep=False) -> np.ndarray:
        """Delta x as a flat array, from one ``_pass`` over every pixel or,
        from SPLIT_PIXELS up, two forked ones split at the middle row;
        ``keep`` stores the bands they evaluate."""
        height, width = x.shape
        n = height * width
        shifts = [s for _, s in _shifts(self.config, height, width)]
        padded = [np.empty(n, dtype=np.float64) for _ in shifts] if keep else None
        if n < SPLIT_PIXELS:
            out = self._pass(x, 0, n, bands, padded)
        else:
            mid = height // 2 * width
            out = np.concatenate(fork_join(lambda: self._pass(x, 0, mid, bands, padded),
                                           lambda: self._pass(x, mid, n, bands, padded)))
        if keep:
            self._bands = tuple(w[:n - s] for w, s in zip(padded, shifts))
        return out

    def _pass(self, x: ImageGrid, p0: int, p1: int, bands=None, keep=None) -> np.ndarray:
        """Delta x on the pixels [p0, p1) as a flat array, one offset of the
        half-set at a time.

        Each band is read or evaluated on the pairs q in [max(p0 - s, 0),
        min(p1, n - s)), the pairs with a pixel in the range: its term is
        added to the first pixel and subtracted from the second where that
        pixel is in the range, band after band, so every pixel sums its terms
        in the order of a pass over the whole image.  With ``bands`` the
        stored weights are applied.  Without, x is the build image and each
        band's weights are evaluated from the difference already in hand
        (``_weigh``).  ``keep``, one n-entry array per band, takes the weights
        of the pairs whose first pixel is in the range; those of the pairs
        below p0 are evaluated again in scratch, never written there.
        """
        height, width = x.shape
        n = height * width
        sigma = self.config.sigma
        flat = x.values.ravel()
        out = np.zeros(p1 - p0, dtype=np.float64)
        diff = np.empty(n, dtype=np.float64)
        if bands is None:
            # row r of scratch holds the pairs of image row r + lo // width
            spare = np.empty(n, dtype=np.float64)
            scratch = spare.reshape(height, width)
        clamp = bands is None
        for i, (dj, s) in enumerate(_shifts(self.config, height, width)):
            lo = p0 - s if p0 > s else 0
            hi = p1 if p1 < n - s else n - s
            d = diff[:hi - lo]
            np.subtract(flat[lo:hi], flat[lo + s:hi + s], out=d)
            if bands is not None:
                d *= bands[i][lo:hi]
            elif keep is None:
                clamp = _weigh(d, spare[lo % width:lo % width + d.size], scratch, dj, sigma, clamp)
            else:
                cut = min(p0, hi) - lo
                if cut:
                    clamp = _weigh(d[:cut], spare[lo % width:lo % width + cut], scratch, dj, sigma, clamp)
                if cut < d.size:
                    own = keep[i].reshape(height, width)[p0 // width:p1 // width]
                    clamp = _weigh(d[cut:], keep[i][p0:hi], own, dj, sigma, clamp)
            if hi > p0:  # the pairs whose first pixel is in the range
                out[:hi - p0] += d[p0 - lo:]
            if p1 - s > lo:  # and those whose second pixel is
                out[lo + s - p0:] -= d[:p1 - s - lo]
        return out

    @cached_property
    def weights(self) -> sparse.csr_matrix:
        """W as a CSR matrix: every within-radius pair in both directions,
        zero weights included, columns sorted within each row."""
        n = self.image.values.size
        rows, cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for (dj, s), w in zip(_shifts(self.config, *self.image.shape), self.bands):
            p = _valid(*self.image.shape, dj, s)
            rows += [p, p + s]
            cols += [p + s, p]
            vals += [w[p], w[p]]
        return sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                 shape=(n, n)).tocsr()

    @cached_property
    def degrees(self) -> np.ndarray:
        """Row sums of W, accumulated left to right within each row."""
        degrees = self.weights @ np.ones(self.image.values.size)
        degrees.setflags(write=False)
        return degrees

    def triplets(self):
        """Stored edges as (rows, cols, weights) arrays in row-major order."""
        rows = np.repeat(np.arange(self.image.values.size, dtype=np.int64), np.diff(self.weights.indptr))
        return rows, self.weights.indices.astype(np.int64), self.weights.data


def build_laplacian(image: ImageGrid, config: GraphConfig, reuse: bool = False) -> SparseLaplacian:
    """The graph Laplacian of ``image`` under ``config``; nothing is evaluated yet.

    The first ``apply`` to ``image`` gives Delta_u u in one pass that evaluates
    every weight once, on contiguous shifted slices of the flattened image; no
    index arrays are gathered and nothing is cached between builds.  Pass
    ``reuse=True`` when the Laplacian will also be applied to other images:
    that pass then keeps the weight bands instead of one scratch buffer.
    """
    return SparseLaplacian(image, config, reuse)


def lipschitz_constant(config: GraphConfig, height: int, width: int) -> float:
    """Bound H with ||Delta_{u'} x - Delta_u x|| <= H ||x|| ||u' - u||.

    The weight profile t -> exp(-t^2 / sigma) has maximal absolute slope
    L = sqrt(2 / sigma) e^{-1/2} (attained at t = sqrt(sigma / 2)), every
    weight lies in (0, 1], and every node has at most N neighbors, which gives
    H = 2 L (sqrt(N) + 1).  Valid for any pair of images on this grid.
    """
    if height < 1 or width < 1:
        raise ConfigurationError("grid must be non-empty")
    slope = math.sqrt(2.0 / config.sigma) * math.exp(-0.5)
    n_bound = min(neighbor_bound(config), height * width - 1)
    return 2.0 * slope * (math.sqrt(n_bound) + 1.0)


def write_weights_csv(laplacian: SparseLaplacian, path):
    """Dump the weight matrix as ``i,j,w`` triplets sorted by (i, j)."""
    write_table(path, zip(*laplacian.triplets()), ("i", "j", "w"))


def write_degrees_csv(laplacian: SparseLaplacian, path):
    """Dump the node degrees, one ``i,degree`` line per node."""
    write_table(path, enumerate(laplacian.degrees), ("i", "degree"))
