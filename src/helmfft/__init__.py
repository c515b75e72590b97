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
`_tridiag` holds the names that only the benchmark in `perfbench/` binds.
"""

from .assembly import Pencil1D, assemble_pencil, build_operator_A
from .core import (BoundaryKind, Grid, KroneckerOperator, SingularBlock, kron_apply,
                   tune_allocator)
from .oracle import (DenseProblem, SizeLimit, dense_eigensolve_pencil, dense_partial_solution,
                     dense_problem, dense_solve)
from . import pipeline
from .pipeline import (SolverPlan, solve_aux_partial, solve_block_system, solve_correction,
                       solve_final)
from .spectral import boundary_green, circulant_eigenbasis, dct1_eigen
from ._tridiag import clear_eigen_cache  # noqa: F401  (perfbench calls it)

plan2d = plan3d = pipeline.make_plan
solve2d = solve3d = pipeline.solve

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "Grid", "KroneckerOperator", "kron_apply", "tune_allocator",
    "Pencil1D", "assemble_pencil", "build_operator_A",
    "circulant_eigenbasis", "dct1_eigen", "boundary_green",
    "SolverPlan", "SingularBlock", "plan2d", "solve2d",
    "solve_aux_partial", "solve_correction", "solve_final",
    "plan3d", "solve3d", "solve_block_system",
    "DenseProblem", "SizeLimit", "dense_problem", "dense_solve",
    "dense_partial_solution", "dense_eigensolve_pencil", "__version__",
]
