"""Three-step fast solver for the 3D separable Helmholtz system.

Solves ``((K_1 - omega^2 M_1) ox M_2 ox M_3 + M_1 ox (K_2 ox M_3 + M_2 ox
K_3)) u = f`` with absorbing x_1 ends and Neumann x_2 and x_3 ends.
``plan3d`` checks its arguments and builds the ``pipeline.SolverPlan`` that
2D shares: no arrays, with C_bb held as four numbers that give one
persymmetric 2 x 2 pair per cross mode.  Each solve forms the O(n1 + n2 n3)
spectra once and runs the shared pipeline (``pipeline``): an x_1 FFT, DCT-I
over x_2 and x_3, and a diagonal divide per block.
"""

from __future__ import annotations

import numpy as np

from . import pipeline
from .core import BoundaryKind, Grid, checked_field, slabs
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .pipeline import SolverPlan


def plan3d(grid: Grid, omega: float) -> SolverPlan:
    """Closed forms only; O(n1 + n2 + n3) memory.

    Raises ValueError for a non-real or non-finite omega, and SingularBlock
    if a block of the chosen auxiliary wrap is resonant, or if omega = 0,
    where the original problem is singular.  With omega != 0 the original
    blocks are regular, but nearly singular at a tiny omega, which only the
    solve finds (``spectral.boundary_green``): on (5, 4, 3), omega = 1e-16
    plans and its solve raises SingularBlock.
    """
    if grid.dims != 3:
        raise ValueError("plan3d needs a 3D grid")
    return pipeline.make_plan(grid, omega, BoundaryKind.ABSORBING)


def solve_block_system(plan: SolverPlan, which: str, rhs: np.ndarray,
                       workers: int | None = None) -> np.ndarray:
    """Solve the transformed auxiliary block system H_B for a spectral vector.

    rhs is in x_1 spectral space, lexicographic order.  Block l is the cross
    directions' separable problem with shift p_{B,l}, diagonal in their DCT-I
    basis (2D plans too).  ``which`` ("B" or "H_B") stays for perfbench.
    """
    if which.upper().removeprefix("H_") != "B":
        raise ValueError(f"which must be 'B', got {which!r}")
    X = pipeline.field(plan, checked_field(rhs, plan.grid.shape, "rhs"))
    X = pipeline.dct_cross(X, workers, scale_ends=True)
    shifts = pipeline.x1_spectra(plan)[0]
    rho, lam = pipeline.cross_planes(plan)
    for s in slabs(X.shape):
        X[s] *= pipeline.inverse_divisor(shifts[s], rho, lam, 2.0 ** (1 - X.ndim))
    return pipeline.dct_cross(X, workers, scale_ends=False).reshape(-1)


def solve3d(plan: SolverPlan, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 3D system; refine counts safeguarded defect-correction passes.

    Holds about one field-sized scratch array at once, two while a
    refinement pass runs: the stop test takes only the residual's norm.
    """
    return pipeline.solve(plan, f, refine, workers)
