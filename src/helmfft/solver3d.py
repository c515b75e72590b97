"""The 3D plan and the transformed block system of the three-step solver.

``plan3d`` builds the ``pipeline.SolverPlan`` that 2D shares, with absorbing
x_1 ends and Neumann x_2 and x_3 ends; ``solve3d`` is ``pipeline.solve``, the
same function as ``solve2d``, and ``solver2d``'s step functions take 3D plans
too.  The pipeline (``pipeline``) runs an x_1 FFT, DCT-I over x_2 and x_3,
and a diagonal divide per block.
"""

from __future__ import annotations

import numpy as np

from . import pipeline
from .core import BoundaryKind, Grid, checked_field, slabs
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .pipeline import SolverPlan

solve3d = pipeline.solve


def plan3d(grid: Grid, omega: float) -> SolverPlan:
    """Closed forms only; O(n1 + n2 + n3) memory.

    Raises ValueError for a non-real or non-finite omega, and SingularBlock
    if a block of the chosen auxiliary wrap is resonant, or an original
    block (``spectral.choose_wrap``): at omega = 0, where the problem is
    singular, or nearly so at a tiny omega: on (5, 4, 3), omega = 1e-14
    raises and 1e-13 solves.
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

