"""FFT-based fast direct solver for the Helmholtz equation on rectangular
grids with first-order absorbing boundary conditions in x_1.

Typical use::

    import numpy as np
    from helmfft import Grid, plan2d, solve2d

    grid = Grid((257, 257))
    plan = plan2d(grid, 2 * np.pi)          # absorbing x_1 ends, omega = 2 pi
    u = solve2d(plan, f)                    # f: complex vector, lexicographic

The solvers run in O(N log N) time and never form a volumetric matrix; the
`oracle` module provides an independent dense reference for verification.
"""

from .assembly import Pencil1D, assemble_pencil, build_operator_A
from .core import (BoundaryKind, Grid, KroneckerOperator, SingularBlock,
                   TriCornerMatrix, kron_apply, tune_allocator)
from .oracle import (DenseProblem, EigensolverFailure, NormalizationFailure,
                     SizeLimit, dense_eigensolve_pencil, dense_partial_solution,
                     dense_problem, dense_solve, solve_pencil_eigen)
from .pipeline import SolverPlan
from .solver2d import (plan2d, solve2d, solve_aux_partial, solve_correction,
                       solve_final)
from .solver3d import plan3d, solve3d, solve_block_system
from .spectral import (boundary_green, circulant_eigenbasis, clear_eigen_cache,
                       dct1_eigen)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "Grid", "KroneckerOperator", "TriCornerMatrix",
    "kron_apply", "tune_allocator",
    "Pencil1D", "assemble_pencil", "build_operator_A",
    "circulant_eigenbasis", "dct1_eigen", "boundary_green",
    "clear_eigen_cache",
    "SolverPlan", "SingularBlock", "plan2d", "solve2d",
    "solve_aux_partial", "solve_correction", "solve_final",
    "plan3d", "solve3d", "solve_block_system",
    "DenseProblem", "SizeLimit", "dense_problem", "dense_solve",
    "dense_partial_solution", "dense_eigensolve_pencil",
    "solve_pencil_eigen", "EigensolverFailure", "NormalizationFailure",
    "__version__",
]
