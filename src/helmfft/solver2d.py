"""The 2D plan and the public step functions of the three-step solver.

``plan2d`` builds the ``pipeline.SolverPlan`` that 3D shares, with absorbing
(sigma = omega^2) or Neumann x_1 ends (sigma an arbitrary complex shift);
``solve2d`` is ``pipeline.solve``, the same function as ``solve3d``.  The
step functions run the pipeline's three steps (``pipeline``) one at a time,
on 2D and 3D plans alike.
"""

from __future__ import annotations

import numpy as np

from . import pipeline
from .core import BoundaryKind, Grid, checked_field
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .pipeline import SolverPlan

solve2d = pipeline.solve


def plan2d(grid: Grid, omega_or_shift,
           bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> SolverPlan:
    """Choose the auxiliary wrap; closed forms only, O(n1 + n2) memory.

    With absorbing x_1 ends the second argument is the real wave number and
    the shift is omega^2; with Neumann ends it is the complex shift sigma.
    Raises ValueError for a non-real wave number, a non-finite omega or
    sigma, or another x_1 boundary kind (``pipeline.make_plan``), and
    SingularBlock for a resonant shift: of the chosen auxiliary blocks, or
    of the original ones (``spectral.choose_wrap``), which with absorbing
    ends are nearly singular only at a tiny omega: on (5, 4), omega = 1e-14
    raises and 1e-13 solves.
    """
    if grid.dims != 2:
        raise ValueError("plan2d needs a 2D grid")
    return pipeline.make_plan(grid, omega_or_shift, bc_x1)


def _boundary(plan, v, name):
    """Checked boundary data, flat or (2, n_2, ...), as a (2, n_2, ...) view."""
    shape = (2,) + plan.grid.shape[1:]
    return checked_field(v, shape, name).reshape(shape)


# -- public operations -------------------------------------------------------
#
# The step functions take and return physical boundary pairs, flat (2 n_2 ..
# n_d,); only f_hat is in the pipeline's transformed layout.

def solve_aux_partial(plan: SolverPlan, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (v_b, f_hat): v_b holds the boundary-plane values on x_1 in
    {1, n_1}; f_hat is the cross directions' DCT-I (end planes doubled) of
    f's twiddled x_1 FFT, unscaled and flat, reused verbatim by solve_final.
    """
    F = pipeline.field(plan, checked_field(f, plan.grid.shape))
    x1, cross = pipeline.x1_spectra(plan), pipeline.cross_planes(plan)
    fhat, vb = pipeline.step1(plan, F, x1, cross, workers)
    return pipeline.boundary_values(vb, workers).reshape(-1), fhat.reshape(-1)


def solve_correction(plan: SolverPlan, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    vb = pipeline.boundary_modes(_boundary(plan, v_b, "v_b"), workers)
    lam = pipeline.cross_planes(plan)[1]
    wb = pipeline.step2(plan, vb, pipeline.green(plan, lam), lam)
    return pipeline.boundary_values(wb, workers).reshape(-1)


def solve_final(plan: SolverPlan, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transforms."""
    F = pipeline.field(plan, checked_field(f_hat, plan.grid.shape, "f_hat"))
    vbw = _boundary(plan, v_b, "v_b") + _boundary(plan, w_b, "w_b")
    x1, cross = pipeline.x1_spectra(plan), pipeline.cross_planes(plan)
    U = pipeline.step3(plan, F, pipeline.boundary_modes(vbw, workers), x1, cross, workers)
    return U.reshape(-1)
