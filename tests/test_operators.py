"""Forward operators: Radon transform, Gaussian blur, norm estimation."""

import contextlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

import graphlap as gl
from graphlap import operators
from graphlap.forkjoin import fork_join, second_core
from graphlap.operators import _radon_matrix


def global_coo_radon(geometry):
    """Reference assembly: every angle's (ray, pixel, weight) entries gathered
    into one COO matrix and converted to CSR at once."""
    size = geometry.image_size
    d = geometry.num_detectors
    center = (size - 1) / 2.0
    offsets = geometry.detector_offsets
    half_span = math.ceil(math.sqrt(2.0) * size / 2.0)
    steps = np.arange(-half_span, half_span + 1, dtype=np.float64)
    rows_parts, cols_parts, vals_parts = [], [], []
    for t, theta in enumerate(geometry.angles):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        px = center + offsets[:, None] * cos_t - steps[None, :] * sin_t
        py = center + offsets[:, None] * sin_t + steps[None, :] * cos_t
        x0 = np.floor(px).astype(np.int32)
        y0 = np.floor(py).astype(np.int32)
        fx = px - x0
        fy = py - y0
        ray = t * d + np.broadcast_to(np.arange(d, dtype=np.int32)[:, None], px.shape)
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            for dy, wy in ((0, 1.0 - fy), (1, fy)):
                xc = x0 + dx
                yc = y0 + dy
                w = wx * wy
                ok = (xc >= 0) & (xc < size) & (yc >= 0) & (yc < size) & (w > 0)
                rows_parts.append(ray[ok])
                cols_parts.append(yc[ok] * size + xc[ok])
                vals_parts.append(w[ok])
    return sparse.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(geometry.num_angles * d, size * size),
    ).tocsr()


def first_half(geometry):
    """Angles in the first row block, which the calling thread assembles:
    ceil(m / 2)."""
    return (geometry.num_angles + 1) // 2


def global_row_halves(geometry):
    """The global-COO matrix's rows of angles [0, h) and [h, m), each as CSR
    arrays re-based to its first row."""
    want = global_coo_radon(geometry)
    cut = first_half(geometry) * geometry.num_detectors
    halves = []
    for lo, hi in ((0, cut), (cut, want.shape[0])):
        start, stop = want.indptr[lo], want.indptr[hi]
        halves.append({"shape": (hi - lo, want.shape[1]), "indptr": want.indptr[lo:hi + 1] - start,
                       "indices": want.indices[start:stop], "data": want.data[start:stop]})
    return halves


def equals_row_half(block, half):
    """The block's shape and CSR arrays equal the row half's, dtypes included."""
    return block.shape == half["shape"] and all(
        getattr(block, part).dtype == half[part].dtype and getattr(block, part).tobytes() == half[part].tobytes()
        for part in ("indptr", "indices", "data"))


def assert_blocks_equal_global_assembly(m1, m2, geometry):
    """The two row blocks are the global-COO matrix's rows of the first and
    of the last angles, byte for byte, dtypes included."""
    for h, (block, half) in enumerate(zip((m1, m2), global_row_halves(geometry))):
        assert equals_row_half(block, half), h


def assembly_threads(monkeypatch):
    """Angles by the id of the thread that assembled them, from every
    per-angle call of the Radon assembly."""
    threads = {}
    angle_block = operators._angle_block

    def recorded(geometry, t, *rest):
        threads.setdefault(threading.get_ident(), []).append(t)
        return angle_block(geometry, t, *rest)

    monkeypatch.setattr(operators, "_angle_block", recorded)
    return threads


def matrix_bytes(blocks):
    return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in blocks)


# from a 2x2 image seen at one angle up, whose second row block is empty;
# the odd angle counts give the calling thread's block one angle more
BIT_GEOMETRIES = [(2, 1), (3, 2), (9, 5), (16, 7), (33, 10), (37, 13), (64, 30)]
# plus the benchmark image size, and many angles on small images
CAPACITY_GEOMETRIES = BIT_GEOMETRIES + [(128, 60), (8, 64), (17, 64)]
# outside a solve the halves run one after the other on the calling thread;
# inside a solve's worker block the second half runs on the worker
SERIAL_AND_SPLIT = (contextlib.nullcontext, second_core)


def dense_forward(A, n_pixels):
    """Assemble A column by column from unit pixel images."""
    side = int(math.isqrt(n_pixels))
    cols = []
    for j in range(n_pixels):
        e = np.zeros(n_pixels)
        e[j] = 1.0
        cols.append(A.apply(gl.ImageGrid(e.reshape(side, side))).values.ravel())
    return np.stack(cols, axis=1)


def dense_adjoint(A, n_data):
    """Assemble A* column by column from unit sinograms."""
    rows, cols = A.range_shape
    out = []
    for j in range(n_data):
        e = np.zeros(n_data)
        e[j] = 1.0
        out.append(A.adjoint(gl.Sinogram(e.reshape(rows, cols))).values.ravel())
    return np.stack(out, axis=1)


class TestRadonGeometry:
    @pytest.mark.parametrize("size,expected", [(8, 12), (16, 23), (64, 91), (128, 182)])
    def test_detector_count_covers_diagonal(self, size, expected):
        geom = gl.RadonGeometry(size, 10)
        assert geom.num_detectors == expected
        assert geom.num_detectors >= math.sqrt(2.0) * size

    def test_angles_uniform_half_turn(self):
        geom = gl.RadonGeometry(16, 6)
        assert np.allclose(geom.angles, np.pi * np.arange(6) / 6, atol=0)
        assert geom.angles[0] == 0.0
        assert geom.angles[-1] < np.pi

    def test_detector_offsets_centered(self):
        offs = gl.RadonGeometry(8, 4).detector_offsets
        assert offs.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(offs) == 1.0)

    @pytest.mark.parametrize("kwargs", [dict(image_size=1, num_angles=4),
                                        dict(image_size=8, num_angles=0),
                                        dict(image_size=8, num_angles=2.5),
                                        dict(image_size=8.5, num_angles=3)],
                             ids=["image-side-1", "zero-angles", "fractional-angles", "fractional-side"])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(gl.ConfigurationError):
            gl.RadonGeometry(**kwargs)


class TestRadonTransform:
    def test_zero_image_maps_to_zero(self):
        A = gl.RadonTransform(gl.RadonGeometry(8, 6))
        out = A.apply(gl.ImageGrid(np.zeros((8, 8))))
        assert np.array_equal(out.values, np.zeros(A.range_shape))

    def test_linearity(self):
        rng = np.random.Generator(np.random.Philox(31))
        A = gl.RadonTransform(gl.RadonGeometry(16, 9))
        u = gl.ImageGrid(rng.random((16, 16)))
        v = gl.ImageGrid(rng.random((16, 16)))
        lhs = A.apply(gl.ImageGrid(2.0 * u.values + v.values))
        rhs = gl.axpy(2.0, A.apply(u), A.apply(v))
        assert gl.norm(gl.sub(lhs, rhs)) <= 1e-10 * gl.norm(rhs)

    @pytest.mark.parametrize("size", [8, 16])
    def test_adjoint_dot_identity(self, size):
        rng = np.random.Generator(np.random.Philox(32))
        A = gl.RadonTransform(gl.RadonGeometry(size, 10))
        for _ in range(20):
            u = gl.ImageGrid(rng.standard_normal((size, size)))
            s = gl.Sinogram(rng.standard_normal(A.range_shape))
            lhs = gl.dot(A.apply(u), s)
            rhs = gl.dot(u, A.adjoint(s))
            assert abs(lhs - rhs) <= 1e-10 * max(gl.norm(A.apply(u)) * gl.norm(s), 1e-30)

    def test_adjoint_is_exact_transpose_dense(self):
        A = gl.RadonTransform(gl.RadonGeometry(8, 6))
        fwd = dense_forward(A, 64)
        adj = dense_adjoint(A, A.range_shape[0] * A.range_shape[1])
        assert np.max(np.abs(adj - fwd.T)) <= 1e-12

    def test_single_pixel_mass_preserved_per_angle(self):
        # unit-step bilinear sampling deposits ~unit mass per view
        vals = np.zeros((16, 16))
        vals[8, 8] = 1.0
        s = gl.RadonTransform(gl.RadonGeometry(16, 12)).apply(gl.ImageGrid(vals))
        sums = s.values.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 0.05)

    def test_radially_symmetric_image_projects_uniformly(self):
        size = 64
        xs = (2.0 * np.arange(size) + 1.0) / size - 1.0
        X, Y = np.meshgrid(xs, xs)
        blob = np.exp(-(X**2 + Y**2) / 0.08)
        s = gl.RadonTransform(gl.RadonGeometry(size, 18)).apply(gl.ImageGrid(blob)).values
        mean_row = s.mean(axis=0)
        worst = max(np.linalg.norm(row - mean_row) for row in s)
        assert worst <= 0.02 * np.linalg.norm(mean_row)

    @pytest.mark.parametrize("size,angles", BIT_GEOMETRIES)
    def test_angle_blocks_equal_global_assembly_bytes(self, size, angles):
        geom = gl.RadonGeometry(size, angles)
        assert_blocks_equal_global_assembly(*_radon_matrix(geom), geom)

    @pytest.mark.parametrize("size,angles", BIT_GEOMETRIES)
    def test_split_assembly_equals_global_assembly_bytes(self, size, angles):
        # the later angles on the worker
        geom = gl.RadonGeometry(size, angles)
        with second_core():
            m1, m2 = _radon_matrix(geom)
        assert_blocks_equal_global_assembly(m1, m2, geom)

    def test_worker_assembles_the_later_angles(self, monkeypatch):
        # the calling thread builds the first half of the angles in order, the
        # worker the rest in order
        here = threading.get_ident()
        threads = assembly_threads(monkeypatch)
        geom = gl.RadonGeometry(33, 9)
        A = gl.RadonTransform(geom)
        assert threads.pop(here) == list(range(5))
        assert list(threads.values()) == [list(range(5, 9))], "the later angles not assembled on one other thread"
        assert_blocks_equal_global_assembly(A._m1, A._m2, geom)

    def test_assembly_in_a_fork_branch_stays_on_its_thread(self, monkeypatch):
        # the branches' worker is taken, so each operator built in a branch
        # assembles both halves, every angle in order, on that branch's thread
        threads = assembly_threads(monkeypatch)
        geom = gl.RadonGeometry(16, 7)
        with second_core():
            built = fork_join(lambda: gl.RadonTransform(geom), lambda: gl.RadonTransform(geom))
        assert threading.get_ident() in threads
        assert list(threads.values()) == [list(range(7))] * 2
        for A in built:
            assert_blocks_equal_global_assembly(A._m1, A._m2, geom)

    @pytest.mark.parametrize("size,angles", BIT_GEOMETRIES)
    def test_adjoint_bits_equal_explicit_transpose(self, size, angles):
        # each pixel sums its terms of each row half in ray order, then adds
        # the two sums: M1^T s1 + M2^T s2 of the global matrix's row halves
        geom = gl.RadonGeometry(size, angles)
        A = gl.RadonTransform(geom)
        want = global_coo_radon(geom)
        cut = first_half(geom) * geom.num_detectors
        back = [want[:cut].T.tocsr(), want[cut:].T.tocsr()]
        rng = np.random.Generator(np.random.Philox(38))
        for where in SERIAL_AND_SPLIT:
            with where():
                for _ in range(3):
                    s = rng.standard_normal(A.range_shape).ravel()
                    got = A.adjoint(gl.Sinogram(s.reshape(A.range_shape))).values.ravel()
                    assert got.tobytes() == (back[0] @ s[:cut] + back[1] @ s[cut:]).tobytes(), where.__name__

    @pytest.mark.parametrize("size,angles", BIT_GEOMETRIES)
    def test_apply_bits_equal_global_matrix(self, size, angles):
        geom = gl.RadonGeometry(size, angles)
        A = gl.RadonTransform(geom)
        forward = global_coo_radon(geom)
        rng = np.random.Generator(np.random.Philox(37))
        for where in SERIAL_AND_SPLIT:
            with where():
                for _ in range(3):
                    x = rng.standard_normal(A.domain_shape)
                    got = A.apply(gl.ImageGrid(x)).values.ravel()
                    assert got.tobytes() == (forward @ x.ravel()).tobytes(), where.__name__

    def test_concurrent_callers_each_keep_their_own_worker(self):
        # four callers, each in its own worker block, on one shared operator:
        # eight threads on two cores, switching as often as the interpreter can
        A = gl.RadonTransform(gl.RadonGeometry(33, 10))
        rng = np.random.Generator(np.random.Philox(36))
        u = gl.ImageGrid(rng.standard_normal(A.domain_shape))
        s = gl.Sinogram(rng.standard_normal(A.range_shape))
        want = (A.apply(u).values.tobytes(), A.adjoint(s).values.tobytes())
        same = []

        def caller():
            with second_core():
                for _ in range(50):
                    same.append((A.apply(u).values.tobytes(), A.adjoint(s).values.tobytes()) == want)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in callers)
        assert same == [True] * 200

    def test_concurrent_assemblies_claim_every_angle_once(self):
        # four builders, each with its own worker, on two cores, switching as
        # often as the interpreter can: every angle is assembled exactly once,
        # into its own builder's matrix
        geom = gl.RadonGeometry(8, 64)
        want = global_row_halves(geom)
        same = []

        def builder():
            for _ in range(6):
                A = gl.RadonTransform(geom)
                same.append(equals_row_half(A._m1, want[0]) and equals_row_half(A._m2, want[1]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            builders = [threading.Thread(target=builder) for _ in range(4)]
            for t in builders:
                t.start()
            for t in builders:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in builders)
        assert same == [True] * 24

    def test_holds_one_sparse_matrix(self):
        # the matrix's entries, once, split between its two row blocks of 4
        # and 3 angles; no transpose or other copy is kept beside them
        geom = gl.RadonGeometry(16, 7)
        A = gl.RadonTransform(geom)
        held = [m for m in vars(A).values() if sparse.issparse(m)]
        assert len(held) == 2
        assert [m.format for m in held] == ["csr", "csr"]
        d = geom.num_detectors
        assert [m.shape for m in held] == [(4 * d, 256), (3 * d, 256)]
        assert sum(m.nnz for m in held) == global_coo_radon(geom).nnz

    def test_assembly_memory_stays_near_the_matrix(self):
        # one angle's entries alive at a time: the peak stays a few times the
        # matrix, and nothing but the matrix's two blocks is kept
        geom = gl.RadonGeometry(64, 30)
        tracemalloc.start()
        try:
            blocks = _radon_matrix(geom)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = matrix_bytes(blocks)
        assert peak <= 4.0 * size, f"peak {peak / size:.2f}x the matrix bytes"
        assert retained <= 1.1 * size, f"retained {retained / size:.2f}x the matrix bytes"

    def test_split_assembly_memory_stays_near_the_matrix(self):
        # two angles' entries alive at a time, one per thread; the worker is
        # opened and joined inside the measurement
        geom = gl.RadonGeometry(64, 30)
        tracemalloc.start()
        try:
            with second_core():
                blocks = _radon_matrix(geom)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = matrix_bytes(blocks)
        assert peak <= 4.0 * size, f"peak {peak / size:.2f}x the matrix bytes"
        assert retained <= 1.1 * size, f"retained {retained / size:.2f}x the matrix bytes"

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm for the RSS baseline")
    def test_consecutive_assemblies_peak_rss_stays_near_the_matrix(self):
        # tracemalloc sees no memory map, so the peak resident set of a fresh
        # process is the oracle here: nine operators built one after another,
        # each dropped before the next, over the RSS right after the import.
        # The peak is VmHWM, that of the process's own address space: Linux
        # carries the peak of the address space it replaced at exec into
        # ru_maxrss, which here would be this test process's.
        script = """
import os
import graphlap as gl
with open("/proc/self/statm") as f:
    baseline = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
for _ in range(9):
    A = gl.RadonTransform(gl.RadonGeometry(128, 60))
    size = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (A._m1, A._m2))
    del A
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) * 1024
print((peak - baseline) / size)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ratio = float(proc.stdout)
        assert ratio <= 1.7, f"peak RSS over the import's {ratio:.2f}x the matrix bytes"

    def test_reused_workspace_keeps_the_bytes(self):
        # every angle through one workspace equals a fresh workspace per call
        # and the global conversion's rows of that angle; no returned array
        # shares memory with the workspace
        for size, angles in ((33, 20), (64, 30), (128, 60)):
            geom = gl.RadonGeometry(size, angles)
            d = geom.num_detectors
            want = global_coo_radon(geom)
            work = operators._AngleWork(geom)
            scratch = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
            scratch += work.inside
            for t in range(angles):
                got = operators._angle_block(geom, t, work)
                other = operators._angle_block(geom, t, operators._AngleWork(geom))
                ref = want[t * d:(t + 1) * d]
                for part in ("data", "indices", "indptr"):
                    mine = getattr(got, part)
                    assert mine.dtype == getattr(other, part).dtype == getattr(ref, part).dtype, part
                    assert mine.tobytes() == getattr(other, part).tobytes() == getattr(ref, part).tobytes(), \
                        (size, t, part)
                    assert not any(np.shares_memory(mine, a) for a in scratch), (size, t, part)

    @pytest.mark.parametrize("where", SERIAL_AND_SPLIT, ids=["serial", "split"])
    def test_assembly_keeps_no_earlier_angle_alive(self, monkeypatch, where):
        # each angle's block goes into the final arrays before its thread
        # starts another: whenever an angle starts, no block its thread built
        # before is alive, so at most two are, one per thread
        angle_block = operators._angle_block
        returned, alive = {}, []

        def watched(geometry, t, *rest):
            mine = returned.setdefault(threading.get_ident(), [])
            alive.append(sum(ref() is not None for ref in mine))
            block = angle_block(geometry, t, *rest)
            mine.append(weakref.ref(block))
            return block

        monkeypatch.setattr(operators, "_angle_block", watched)
        geom = gl.RadonGeometry(33, 20)
        with where():
            m1, m2 = _radon_matrix(geom)
        assert len(alive) == 20 and max(alive) == 0, alive
        assert_blocks_equal_global_assembly(m1, m2, geom)

    @pytest.mark.parametrize("size,angles", CAPACITY_GEOMETRIES)
    def test_capacities_bound_the_raw_entries_of_every_angle(self, monkeypatch, size, angles):
        # the entries each angle gathers before duplicates merge, counted on
        # their way into the angle's (d, E^2) CSR matrix
        geom = gl.RadonGeometry(size, angles)
        raw = []
        csr_matrix = sparse.csr_matrix

        def counted(arg, shape):
            if shape == (geom.num_detectors, size * size):
                raw.append(arg[1].size)
            return csr_matrix(arg, shape=shape)

        monkeypatch.setattr(operators.sparse, "csr_matrix", counted)
        work = operators._AngleWork(geom)
        for t in range(angles):
            operators._angle_block(geom, t, work)
        capacities = operators._block_capacities(geom)
        assert capacities.shape == (angles,) and len(raw) == angles
        assert np.all(np.array(raw) <= capacities), np.argwhere(np.array(raw) > capacities)

    @pytest.mark.parametrize("where", SERIAL_AND_SPLIT, ids=["serial", "split"])
    def test_capacity_one_entry_short_raises(self, monkeypatch, where):
        # an exact capacity fills both row blocks to the last slot; one entry
        # less and the last angle of that block overflows
        geom = gl.RadonGeometry(16, 7)
        m1, m2 = _radon_matrix(geom)
        exact = np.zeros(7, dtype=np.int64)
        exact[0], exact[4] = m1.nnz, m2.nnz  # angles [0, 4) and [4, 7)
        monkeypatch.setattr(operators, "_block_capacities", lambda g: exact)
        with where():
            m1, m2 = _radon_matrix(geom)
        assert m1.data.size + m2.data.size == exact.sum()
        assert_blocks_equal_global_assembly(m1, m2, geom)
        for first, (lo, hi) in ((0, (0, 4)), (4, (4, 7))):
            short = exact.copy()
            short[first] -= 1
            monkeypatch.setattr(operators, "_block_capacities", lambda g: short)
            with where(), pytest.raises(RuntimeError, match=rf"angles \[{lo}, {hi}\) outgrew their capacity .* at angle {hi - 1}"):
                _radon_matrix(geom)

    def test_shape_validation(self):
        A = gl.RadonTransform(gl.RadonGeometry(8, 5))
        with pytest.raises(gl.ShapeMismatch):
            A.apply(gl.ImageGrid(np.zeros((9, 9))))
        with pytest.raises(gl.ShapeMismatch):
            A.adjoint(gl.Sinogram(np.zeros((5, 99))))


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraphTermMemory:
    """Peak memory of the graph term Delta_u u, in units of one graph's weight
    bands (84 bands of n floats for chebyshev R = 6), at 64^2.

    One pass over the build image needs a few images of scratch; a solve that
    rebuilds the graph every step stores no bands, and one that reuses it
    holds a single graph's bands, never the old and the new graph together.
    """

    SIZE = 64
    BANDS = 84 * SIZE * SIZE * 8
    IMAGE = SIZE * SIZE * 8

    def test_one_pass_needs_no_bands(self):
        rng = np.random.Generator(np.random.Philox(39))
        u = gl.ImageGrid(rng.random((self.SIZE, self.SIZE)))
        peak = traced_peak(lambda: gl.build_laplacian(u, gl.GraphConfig()).apply(u))
        assert peak <= 8 * self.IMAGE, f"peak {peak / self.IMAGE:.1f} images"

    @pytest.mark.parametrize("period, limit", [(1, 0.25), (3, 1.3)])
    def test_solve_holds_at_most_one_graph(self, period, limit):
        A = gl.GaussianBlur(gl.BlurKernel(rho=1.5), self.SIZE)
        v = A.apply(gl.shepp_logan(self.SIZE))
        A.norm_estimate  # computed once per operator; kept out of the measured peak
        params = gl.SolverParams(max_iter=7, graph_update_period=period)
        peak = traced_peak(lambda: gl.solve(A, v, 0.0, gl.ReconstructorSpec(kind="adjoint"), params))
        assert peak <= limit * self.BANDS, f"peak {peak / self.BANDS:.2f}x one graph's bands"


class TestBlur:
    def test_kernel_taps_normalized_and_symmetric(self):
        k = gl.BlurKernel(rho=1.5)
        assert k.radius == 6
        assert k.taps.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(k.taps, k.taps[::-1])

    def test_taps_built_once_per_operator(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(40))
        u = gl.ImageGrid(rng.random((16, 16)))
        want = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 16).apply(u).values
        built = []
        taps = gl.BlurKernel.taps

        def counted(kernel):
            built.append(kernel)
            return taps.fget(kernel)

        monkeypatch.setattr(gl.BlurKernel, "taps", property(counted))
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 16)
        outs = [B.apply(u).values for _ in range(3)] + [B.adjoint(u).values for _ in range(3)]
        B.norm_estimate
        assert len(built) == 1
        assert all(out.tobytes() == want.tobytes() for out in outs)

    def test_invalid_rho_rejected(self):
        for rho in (0.0, math.inf, math.nan):
            with pytest.raises(gl.ConfigurationError):
                gl.BlurKernel(rho=rho)

    def test_constant_image_preserved_in_interior(self):
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 32)
        out = B.apply(gl.ImageGrid(np.ones((32, 32)))).values
        r = B.kernel.radius
        assert np.max(np.abs(out[r:-r, r:-r] - 1.0)) <= 1e-12

    def test_tiny_rho_acts_as_identity(self):
        # taps beyond the center underflow to zero for rho = 0.01
        rng = np.random.Generator(np.random.Philox(34))
        u = gl.ImageGrid(rng.random((10, 10)))
        out = gl.GaussianBlur(gl.BlurKernel(rho=0.01), 10).apply(u)
        assert np.array_equal(out.values, u.values)

    def test_self_adjoint_dot_identity(self):
        rng = np.random.Generator(np.random.Philox(35))
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 32)
        for _ in range(20):
            u = gl.ImageGrid(rng.standard_normal((32, 32)))
            s = gl.ImageGrid(rng.standard_normal((32, 32)))
            lhs = gl.dot(B.apply(u), s)
            rhs = gl.dot(u, B.adjoint(s))
            assert abs(lhs - rhs) <= 1e-10 * max(gl.norm(B.apply(u)) * gl.norm(s), 1e-30)

    def test_commutes_with_flips(self):
        rng = np.random.Generator(np.random.Philox(36))
        B = gl.GaussianBlur(gl.BlurKernel(rho=2.0), 16)
        u = rng.random((16, 16))
        for axis in (0, 1):
            flipped = B.apply(gl.ImageGrid(np.flip(u, axis=axis))).values
            direct = np.flip(B.apply(gl.ImageGrid(u)).values, axis=axis)
            assert np.max(np.abs(flipped - direct)) <= 1e-12

    def test_linearity(self):
        rng = np.random.Generator(np.random.Philox(37))
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 16)
        u = gl.ImageGrid(rng.random((16, 16)))
        v = gl.ImageGrid(rng.random((16, 16)))
        lhs = B.apply(gl.ImageGrid(3.0 * u.values - v.values))
        rhs = gl.axpy(3.0, B.apply(u), gl.scale(-1.0, B.apply(v)))
        assert gl.norm(gl.sub(lhs, rhs)) <= 1e-10 * max(gl.norm(rhs), 1e-30)

    def test_invalid_size_rejected(self):
        for size in (0, 8.5):
            with pytest.raises(gl.ConfigurationError):
                gl.GaussianBlur(gl.BlurKernel(rho=1.0), size)

    @pytest.mark.parametrize("rho,size", [(1.5, 1), (4.0, 1), (1e6, 16)])
    def test_rho_wider_than_the_image_rejected(self, rho, size):
        # checked before any tap is built: rho = 1e6 would take 64 MB of taps
        kernel = gl.BlurKernel(rho=rho)
        tracemalloc.start()
        try:
            with pytest.raises(gl.ConfigurationError, match="rho must not exceed the image side"):
                gl.GaussianBlur(kernel, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("rho,size", [(rho, size) for rho in (0.5, 1.5, 4.0) for size in (1, 8, 16, 24)
                                          if rho <= size])
    def test_norm_is_exact(self, size, rho):
        # rho = 4 reaches past the image edge at every size here
        B = gl.GaussianBlur(gl.BlurKernel(rho=rho), size)
        top = np.linalg.svd(dense_forward(B, size * size), compute_uv=False)[0]
        est = B.norm_estimate
        assert est.value == pytest.approx(top, rel=1e-12)
        assert est.converged
        assert est.iterations == 0


class TestScaledIdentity:
    def test_apply_and_adjoint_scale(self):
        op = gl.ScaledIdentity(2.5, 4)
        u = gl.ImageGrid(np.eye(4))
        assert np.array_equal(op.apply(u).values, 2.5 * np.eye(4))
        assert np.array_equal(op.adjoint(u).values, 2.5 * np.eye(4))

    @pytest.mark.parametrize("scale,size,message", [
        (1.0, 0, "size must be >= 1 and an integer"),
        (1.0, -3, "size must be >= 1 and an integer"),
        (1.0, 2.5, "size must be >= 1 and an integer"),
        (math.nan, 4, "scale must be finite"),
        (math.inf, 3, "scale must be finite"),
        (-math.inf, 3, "scale must be finite"),
    ], ids=["zero-size", "negative-size", "fractional-size", "nan-scale", "inf-scale", "minus-inf-scale"])
    def test_rejects_bad_input_at_construction(self, scale, size, message):
        with pytest.raises(gl.ConfigurationError, match=message):
            gl.ScaledIdentity(scale, size)


class TestNormEstimate:
    def test_identity_norm(self):
        est = gl.estimate_operator_norm(gl.ScaledIdentity(1.0, 8))
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert est.converged

    def test_scaled_identity_norm(self):
        # the start is the top eigenvector: the first Ritz pair is exact
        est = gl.estimate_operator_norm(gl.ScaledIdentity(3.0, 8))
        assert est.value == pytest.approx(3.0, abs=1e-6)
        assert est.converged
        assert est.iterations == 1

    def test_zero_operator(self):
        est = gl.estimate_operator_norm(gl.ScaledIdentity(0.0, 8))
        assert est.value == 0.0
        assert est.converged
        assert est.iterations == 1

    def test_matches_dense_svd_for_radon(self):
        for size, angles in ((16, 10), (12, 7), (24, 12)):
            A = gl.RadonTransform(gl.RadonGeometry(size, angles))
            top = np.linalg.svd(dense_forward(A, size * size), compute_uv=False)[0]
            est = gl.estimate_operator_norm(A)
            assert est.converged
            assert est.value == pytest.approx(top, rel=1e-12), (size, angles)
            # the top Ritz value approaches from below; rounding may put it an ulp above
            assert est.value <= top * (1 + 1e-12), (size, angles)

    @pytest.mark.parametrize("size,angles", [(64, 30), (128, 60)])
    def test_few_products_on_ct(self, size, angles):
        A = gl.RadonTransform(gl.RadonGeometry(size, angles))
        products = []
        apply = A.apply

        def counting(u):
            products.append(1)
            return apply(u)

        A.apply = counting
        est = gl.estimate_operator_norm(A)
        assert est.converged
        assert est.iterations == len(products) <= 10
