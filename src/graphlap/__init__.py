"""Iteratively regularized reconstruction with data-adaptive graph Laplacians.

The package solves linear ill-posed problems A u = v (tomography, deblurring)
by a gradient iteration whose penalty term is the Laplacian of a pixel
similarity graph rebuilt from the current iterate, stopped early by the
discrepancy principle.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    NonFiniteError,
    ShapeMismatch,
)
from .graph import (
    GraphConfig,
    SparseLaplacian,
    build_laplacian,
    lipschitz_constant,
    neighbor_bound,
)
from .grid import ImageGrid, Sinogram, add, axpy, dot, norm, scale, sub
from .metrics import QualityReport, evaluate, psnr, relative_error, ssim
from .operators import (
    BlurKernel,
    GaussianBlur,
    LinearOperator,
    NormEstimate,
    RadonGeometry,
    RadonTransform,
    ScaledIdentity,
    estimate_operator_norm,
)
from .phantoms import NoiseSpec, add_noise, shepp_logan
from .recon import (
    ReconstructorSpec,
    initial_reconstruction,
    psi_fbp,
    psi_tikhonov,
    psi_tv,
    tv_prox,
)
from .solver import (
    DISCREPANCY_MET,
    MAX_ITER_REACHED,
    IterateRecord,
    SolveResult,
    SolverParams,
    constant_c,
    eta_floor,
    solve,
    step_alpha,
    step_beta,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
