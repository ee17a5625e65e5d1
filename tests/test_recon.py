"""Initial reconstructors: adjoint, FBP, Tikhonov CG, TV denoising."""

import math

import numpy as np
import pytest

import graphlap as gl
from graphlap import recon
from graphlap.recon import _normal_preconditioner, filter_sinogram, initial_reconstruction, tv_prox

GEOM8 = gl.RadonGeometry(8, 6)
RADON8 = gl.RadonTransform(GEOM8)
ADJOINT = gl.ReconstructorSpec(kind="adjoint")


@pytest.fixture(scope="module")
def dense8():
    """Dense matrix of the E=8 Radon operator plus derived oracle maps."""
    A = gl.RadonTransform(GEOM8)
    n = 64
    m = A.range_shape[0] * A.range_shape[1]
    fwd = np.zeros((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        fwd[:, j] = A.apply(gl.ImageGrid(e.reshape(8, 8))).values.ravel()
    fbp = np.zeros((n, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        fbp[:, j] = gl.psi_fbp(A, gl.Sinogram(e.reshape(A.range_shape))).values.ravel()
    return A, fwd, fbp


def random_sinogram(rng, geom=GEOM8):
    return gl.Sinogram(rng.standard_normal((geom.num_angles, geom.num_detectors)))


def count_applies(monkeypatch, A):
    """Record every ``A.apply`` call on this instance; ``adjoint`` is left alone."""
    calls = []
    apply = A.apply

    def counting(u):
        calls.append(u)
        return apply(u)

    monkeypatch.setattr(A, "apply", counting)
    return calls


class TestAdjointInit:
    def test_zero_data(self):
        A = gl.RadonTransform(GEOM8)
        out = initial_reconstruction(A, gl.Sinogram(np.zeros(A.range_shape)), ADJOINT)
        assert np.array_equal(out.values, np.zeros((8, 8)))

    def test_identity_operator_returns_data(self):
        rng = np.random.Generator(np.random.Philox(61))
        v = gl.ImageGrid(rng.random((8, 8)))
        assert np.array_equal(initial_reconstruction(gl.ScaledIdentity(1.0, 8), v, ADJOINT).values, v.values)

    def test_matches_dense_transpose(self, dense8):
        A, fwd, _ = dense8
        rng = np.random.Generator(np.random.Philox(62))
        v = random_sinogram(rng)
        mine = initial_reconstruction(A, v, ADJOINT).values.ravel()
        assert np.max(np.abs(mine - fwd.T @ v.values.ravel())) <= 1e-12


class TestFilteredBackProjection:
    def test_zero_sinogram(self):
        out = gl.psi_fbp(RADON8, gl.Sinogram(np.zeros((6, GEOM8.num_detectors))))
        assert np.array_equal(out.values, np.zeros((8, 8)))

    def test_filter_preserves_shape_and_linearity(self):
        rng = np.random.Generator(np.random.Philox(63))
        a = random_sinogram(rng)
        b = random_sinogram(rng)
        fa = filter_sinogram(a)
        assert fa.shape == a.shape
        combo = filter_sinogram(gl.axpy(2.0, a, b))
        direct = gl.axpy(2.0, fa, filter_sinogram(b))
        assert gl.norm(gl.sub(combo, direct)) <= 1e-10 * max(gl.norm(direct), 1e-30)

    def test_linearity_in_data(self):
        rng = np.random.Generator(np.random.Philox(64))
        s = random_sinogram(rng)
        lhs = gl.psi_fbp(RADON8, gl.scale(3.0, s))
        rhs = gl.scale(3.0, gl.psi_fbp(RADON8, s))
        assert gl.norm(gl.sub(lhs, rhs)) <= 1e-10 * gl.norm(rhs)

    def test_reconstruction_quality_pinned(self):
        # noise-free head phantom at desk scale; the bound pins an observed
        # relative error of 0.4986 with 20% slack as a regression guard
        truth = gl.shepp_logan(64)
        A = gl.RadonTransform(gl.RadonGeometry(64, 30))
        recon = gl.psi_fbp(A, A.apply(truth))
        assert gl.relative_error(recon, truth) <= 0.598

    def test_shape_mismatch_rejected(self):
        with pytest.raises(gl.ConfigurationError):
            gl.psi_fbp(RADON8, gl.Sinogram(np.zeros((6, 5))))


class TestTikhonov:
    def test_identity_resolvent(self):
        rng = np.random.Generator(np.random.Philox(65))
        v = gl.ImageGrid(rng.random((8, 8)))
        spec = gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=1.0)
        out = gl.psi_tikhonov(gl.ScaledIdentity(1.0, 8), v, spec)
        assert np.allclose(out.values, v.values / 2.0, rtol=1e-12, atol=0)

    def test_huge_weight_shrinks_to_zero(self):
        rng = np.random.Generator(np.random.Philox(66))
        A = gl.RadonTransform(GEOM8)
        v = random_sinogram(rng)
        spec = gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=1e8)
        out = gl.psi_tikhonov(A, v, spec)
        assert gl.norm(out) <= 1e-6 * gl.norm(A.adjoint(v))

    def test_matches_dense_normal_equations(self, dense8):
        A, fwd, _ = dense8
        rng = np.random.Generator(np.random.Philox(67))
        v = random_sinogram(rng)
        lam = 50.0
        exact = np.linalg.solve(fwd.T @ fwd + lam * np.eye(64), fwd.T @ v.values.ravel())
        mine = gl.psi_tikhonov(A, v, gl.ReconstructorSpec(kind="tikhonov")).values.ravel()
        assert np.linalg.norm(mine - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_zero_data_short_circuits(self):
        A = gl.RadonTransform(GEOM8)
        out = gl.psi_tikhonov(A, gl.Sinogram(np.zeros(A.range_shape)),
                              gl.ReconstructorSpec(kind="tikhonov"))
        assert np.array_equal(out.values, np.zeros((8, 8)))

    def test_scaled_identity_is_solved_by_one_iteration(self, monkeypatch):
        # the symbol of (c I)* (c I) is exactly c^2, so P^-1 is the inverse of
        # the normal operator: one probe apply plus one PCG iteration
        c, lam = 3.0, 2.0
        A = gl.ScaledIdentity(c, 8)
        v = gl.ImageGrid(np.random.Generator(np.random.Philox(78)).random((8, 8)))
        calls = count_applies(monkeypatch, A)
        out = gl.psi_tikhonov(A, v, gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=lam))
        assert len(calls) == 2
        exact = c * v.values / (c * c + lam)
        assert np.linalg.norm(out.values - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_operator_applications_at_most_half_of_plain_cg(self, monkeypatch):
        # CT 96^2 x 90, lambda = 50, white-noise data: plain CG from zero took
        # 60 applies of A to reach CG_TOL; preconditioned CG takes 23 (one
        # probe plus 22 iterations).  A count, so it does not depend on timing.
        A = gl.RadonTransform(gl.RadonGeometry(96, 90))
        v = random_sinogram(np.random.Generator(np.random.Philox(79)), A.geometry)
        calls = count_applies(monkeypatch, A)
        gl.psi_tikhonov(A, v, gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=50.0))
        assert len(calls) <= 60 // 2

    def test_non_convergence_raises(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(68))
        A = gl.RadonTransform(GEOM8)
        monkeypatch.setattr(recon, "CG_TOL", 1e-14)
        monkeypatch.setattr(recon, "CG_MAX_ITER", 1)
        spec = gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=1e-3)
        with pytest.raises(gl.ConvergenceError) as err:
            gl.psi_tikhonov(A, random_sinogram(rng), spec)
        assert err.value.residual > 0


class TestNormalPreconditioner:
    """P^-1 from the circulant symbol of A* A is symmetric positive definite."""

    @pytest.mark.parametrize("make", [
        lambda: gl.RadonTransform(gl.RadonGeometry(16, 12)),
        lambda: gl.GaussianBlur(gl.BlurKernel(rho=1.5), 16),
        lambda: gl.ScaledIdentity(2.5, 16),
    ], ids=["radon16", "blur16", "identity16"])
    @pytest.mark.parametrize("lam", [1e-3, 50.0])
    def test_symmetric_positive_definite(self, make, lam):
        precondition = _normal_preconditioner(make(), lam)
        rng = np.random.Generator(np.random.Philox(80))
        for _ in range(10):
            x = gl.ImageGrid(rng.standard_normal((16, 16)))
            y = gl.ImageGrid(rng.standard_normal((16, 16)))
            px, py = precondition(x), precondition(y)
            assert abs(gl.dot(px, y) - gl.dot(x, py)) <= 1e-12 * gl.norm(px) * gl.norm(y)
            assert gl.dot(px, x) > 0
        # random images rarely load the weakest mode, so check every eigenvalue
        dense = np.stack([precondition(gl.ImageGrid(e.reshape(16, 16))).values.ravel()
                          for e in np.eye(256)], axis=1)
        assert np.linalg.eigvalsh(dense).min() > 0


def reference_tv_prox(b: np.ndarray, weight: float) -> np.ndarray:
    """Chambolle's 200 steps with a fresh array for every intermediate, the
    operations in the order ``recon.tv_prox`` must keep."""

    def gradient(a):
        gx = np.zeros_like(a)
        gy = np.zeros_like(a)
        gx[:, :-1] = a[:, 1:] - a[:, :-1]
        gy[:-1, :] = a[1:, :] - a[:-1, :]
        return gx, gy

    def divergence(px, py):
        div = np.zeros_like(px)
        if px.shape[1] > 1:
            div[:, 0] += px[:, 0]
            div[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
            div[:, -1] += -px[:, -2]
        if py.shape[0] > 1:
            div[0, :] += py[0, :]
            div[1:-1, :] += py[1:-1, :] - py[:-2, :]
            div[-1, :] += -py[-2, :]
        return div

    step = 0.25
    target = b / weight
    px = np.zeros_like(b)
    py = np.zeros_like(b)
    for _ in range(200):
        gx, gy = gradient(divergence(px, py) - target)
        denom = 1.0 + step * np.sqrt(gx * gx + gy * gy)
        px = (px + step * gx) / denom
        py = (py + step * gy) / denom
    return b - weight * divergence(px, py)


def tv_energy(u: gl.ImageGrid) -> float:
    """Isotropic total variation with the forward differences of ``tv_prox``
    (0 past the last column and row): the objective its prox lowers."""
    b = u.values
    gx = np.diff(b, axis=1, append=b[:, -1:])
    gy = np.diff(b, axis=0, append=b[-1:, :])
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


class TestTvProx:
    def test_constant_image_unchanged(self):
        b = gl.ImageGrid(np.full((12, 12), 0.6))
        out = tv_prox(b, 0.1)
        assert np.max(np.abs(out.values - b.values)) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.Generator(np.random.Philox(69))
        worst = 0.0
        for _ in range(50):
            b1 = gl.ImageGrid(rng.random((16, 16)))
            b2 = gl.ImageGrid(rng.random((16, 16)))
            ratio = gl.norm(gl.sub(tv_prox(b1, 0.1), tv_prox(b2, 0.1))) / gl.norm(gl.sub(b1, b2))
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-8

    def test_objective_beats_input(self):
        # prox output must improve the quadratic-plus-TV objective over u = b
        rng = np.random.Generator(np.random.Philox(70))
        b = gl.ImageGrid(rng.random((16, 16)))
        lam = 0.1
        out = tv_prox(b, lam)
        assert 0.5 * gl.norm(gl.sub(out, b)) ** 2 + lam * tv_energy(out) <= lam * tv_energy(b)

    def test_smooths_noise(self):
        rng = np.random.Generator(np.random.Philox(71))
        noisy = gl.ImageGrid(0.5 + 0.2 * rng.standard_normal((24, 24)))
        out = tv_prox(noisy, 0.2)
        assert tv_energy(out) < tv_energy(noisy)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (33, 17), (128, 128)])
    def test_bytes_equal_fresh_array_loop(self, shape):
        rng = np.random.Generator(np.random.Philox(72))
        b = rng.random(shape)
        for weight in (recon.TV_WEIGHT, 0.03):
            assert tv_prox(gl.ImageGrid(b), weight).values.tobytes() == reference_tv_prox(b, weight).tobytes()

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 2)], ids=["1x7", "7x1", "2x2"])
    @pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "zero"])
    def test_runs_exactly_200_steps(self, monkeypatch, shape, seeded):
        # small images settle early; the step count must not depend on that
        calls = []
        forward_gradient = recon._forward_gradient

        def counting(*args):
            calls.append(None)
            forward_gradient(*args)

        monkeypatch.setattr(recon, "_forward_gradient", counting)
        b = np.random.Generator(np.random.Philox(72)).random(shape) if seeded else np.zeros(shape)
        tv_prox(gl.ImageGrid(b), recon.TV_WEIGHT)
        assert len(calls) == 200

    @pytest.mark.parametrize("weight", [0.0, -0.1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_rejects_weight_outside_positive_finite(self, weight):
        with pytest.raises(gl.ConfigurationError, match="weight must be positive and finite"):
            tv_prox(gl.ImageGrid(np.ones((4, 4))), weight)

    def test_bytes_equal_fresh_array_loop_on_fbp_image(self):
        truth = gl.shepp_logan(64)
        A = gl.RadonTransform(gl.RadonGeometry(64, 30))
        noisy, _ = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.05, seed=1))
        b = gl.psi_fbp(A, noisy)
        out = tv_prox(b, recon.TV_WEIGHT).values
        assert out.tobytes() == reference_tv_prox(b.values, recon.TV_WEIGHT).tobytes()


class TestTvInit:
    def test_zero_sinogram_gives_zero_image(self):
        v = gl.Sinogram(np.zeros((6, GEOM8.num_detectors)))
        out = gl.psi_tv(RADON8, v)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_composes_fbp_and_prox(self):
        rng = np.random.Generator(np.random.Philox(72))
        v = random_sinogram(rng)
        direct = tv_prox(gl.psi_fbp(RADON8, v), recon.TV_WEIGHT)
        assert np.array_equal(gl.psi_tv(RADON8, v).values, direct.values)


class TestDispatchAndSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="nett"), dict(kind="adjoint", tikhonov_weight=0.0),
        dict(kind="tikhonov", tikhonov_weight=math.inf), dict(kind="tikhonov", tikhonov_weight=math.nan),
    ], ids=["unknown-kind", "zero-weight", "infinite-weight", "nan-weight"])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(gl.ConfigurationError):
            gl.ReconstructorSpec(**kwargs)

    @pytest.mark.parametrize("kind", ["adjoint", "fbp", "tikhonov", "tv"])
    def test_all_kinds_work_with_projection_data(self, kind):
        rng = np.random.Generator(np.random.Philox(73))
        A = gl.RadonTransform(GEOM8)
        out = initial_reconstruction(A, random_sinogram(rng), gl.ReconstructorSpec(kind=kind))
        assert out.shape == (8, 8)

    @pytest.mark.parametrize("kind", ["adjoint", "tikhonov"])
    def test_blur_supports_data_space_kinds(self, kind):
        rng = np.random.Generator(np.random.Philox(74))
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.0), 8)
        v = gl.ImageGrid(rng.random((8, 8)))
        out = initial_reconstruction(B, v, gl.ReconstructorSpec(kind=kind))
        assert out.shape == (8, 8)

    @pytest.mark.parametrize("kind", ["fbp", "tv"])
    def test_blur_rejects_projection_only_kinds(self, kind):
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.0), 8)
        v = gl.ImageGrid(np.ones((8, 8)))
        with pytest.raises(gl.ConfigurationError):
            initial_reconstruction(B, v, gl.ReconstructorSpec(kind=kind))


class TestLipschitzOfInitializers:
    """Every initial reconstructor is Lipschitz as a map of the data."""

    def test_linear_kinds_bounded_by_dense_operator_norm(self, dense8):
        A, fwd, fbp = dense8
        lam = 50.0
        tik = np.linalg.solve(fwd.T @ fwd + lam * np.eye(64), fwd.T)
        bounds = {
            "adjoint": (np.linalg.svd(fwd.T, compute_uv=False)[0], 1e-10),
            "fbp": (np.linalg.svd(fbp, compute_uv=False)[0], 1e-10),
            "tikhonov": (np.linalg.svd(tik, compute_uv=False)[0], 1e-6),
        }
        rng = np.random.Generator(np.random.Philox(75))
        for kind, (k_bound, slack) in bounds.items():
            spec = gl.ReconstructorSpec(kind=kind)
            for _ in range(20):
                v1 = random_sinogram(rng)
                v2 = random_sinogram(rng)
                dist = gl.norm(gl.sub(initial_reconstruction(A, v1, spec),
                                      initial_reconstruction(A, v2, spec)))
                assert dist <= k_bound * gl.norm(gl.sub(v1, v2)) * (1 + slack)

    def test_tv_nonexpansive_after_fbp(self, dense8):
        A, _, fbp = dense8
        k_bound = np.linalg.svd(fbp, compute_uv=False)[0] * (1 + 1e-8)
        rng = np.random.Generator(np.random.Philox(76))
        for _ in range(20):
            v1 = random_sinogram(rng)
            v2 = random_sinogram(rng)
            dist = gl.norm(gl.sub(gl.psi_tv(A, v1), gl.psi_tv(A, v2)))
            assert dist <= k_bound * gl.norm(gl.sub(v1, v2)) * (1 + 1e-12)

    @pytest.mark.parametrize("kind,slack", [("adjoint", 1e-10), ("fbp", 1e-10), ("tikhonov", 1e-6)])
    def test_superposition(self, kind, slack):
        rng = np.random.Generator(np.random.Philox(77))
        A = gl.RadonTransform(GEOM8)
        spec = gl.ReconstructorSpec(kind=kind)
        v1 = random_sinogram(rng)
        v2 = random_sinogram(rng)
        combo = gl.Sinogram(1.5 * v1.values - 0.5 * v2.values)
        lhs = initial_reconstruction(A, combo, spec)
        rhs = gl.axpy(1.5, initial_reconstruction(A, v1, spec),
                      gl.scale(-0.5, initial_reconstruction(A, v2, spec)))
        scale = max(gl.norm(lhs), gl.norm(rhs), 1e-30)
        assert gl.norm(gl.sub(lhs, rhs)) <= slack * scale
