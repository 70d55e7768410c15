"""ddmcert: overlapping Schwarz solves with guaranteed error majorants."""

from .mesh import (
    TriMesh,
    DomainDecomposition,
    CoarseMesh,
    MeshError,
    build_lshape_mesh,
    build_rect_mesh,
    build_coarse_mesh,
)
from .problem import (
    EllipticProblem,
    ScalarFieldP1,
    manufactured_lshape_problem,
    assemble_stiffness,
    assemble_load,
    solve_dirichlet,
)
from .linalg import SolverError, SaddleFactorization, SymmetricFactorization
from .schwarz import run_schwarz
from .flux import (
    BrokenFluxField,
    CorrectorSpace,
    CorrectorSolver,
    average_gradient,
    build_corrector_space,
    constraint_residuals,
    corrected_flux,
    rhs_table,
)
from .majorant import (
    MajorantConstants,
    MajorantReport,
    poincare_edge_constant,
    beta_pair,
    alpha_weights,
    energy_error,
    evaluate_majorant,
    optimize_eps,
)
from .pipeline import ConfigError, RunConfig, run_case
from .vtkio import write_vtk

__version__ = "0.1.0"
