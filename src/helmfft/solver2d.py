"""Three-step fast solver for the 2D separable Helmholtz system.

Solves ``((K_1 - sigma M_1) ox M_2 + M_1 ox K_2) u = f`` where the x_1 pencil
carries absorbing (sigma = omega^2) or Neumann boundary rows (sigma an
arbitrary complex shift).

Step 1 solves the auxiliary problem, whose x_1 pencil is wrapped periodically
or anti-periodically, for the boundary-plane values v_b only; step 2 solves
the original operator for the boundary correction w_b driven by C_bb v_b, and
step 3 solves the auxiliary problem once more with a right-hand side
corrected so the auxiliary solution agrees with the original one.
``plan2d`` checks its arguments and builds the ``pipeline.SolverPlan`` that
3D shares (no arrays; C_bb as its four numbers), and each solve forms the
O(n1 + n2) spectra once and runs the shared ``pipeline``: an x_1 FFT and a
DCT-I over x_2 make steps 1 and 3 diagonal divides, O(N log N), and step 2
applies, per DCT-I mode of x_2, C_bb and the corner block G of the inverse
x_1 matrix (``boundary_green``, O(N) once per solve) as persymmetric 2 x 2
pairs.

``solve2d`` additionally applies safeguarded defect-correction passes
(default one).  The three-step composition amplifies roundoff by how close
the auxiliary problem is to resonance; a pass is skipped once the residual
is at roundoff level, and a pass that fails to reduce the residual is rolled
back.
"""

from __future__ import annotations

import numpy as np

from . import pipeline
from .core import BoundaryKind, Grid, checked_field
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .pipeline import SolverPlan


def plan2d(grid: Grid, omega_or_shift,
           bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> SolverPlan:
    """Choose the auxiliary wrap; closed forms only, O(n1 + n2) memory.

    With absorbing x_1 ends the second argument is the real wave number and
    the shift is omega^2; with Neumann ends it is the complex shift sigma.
    Raises ValueError for a non-real wave number, a non-finite omega or
    sigma, or another x_1 boundary kind (``pipeline.make_plan``), and
    SingularBlock for a resonant shift: of the chosen auxiliary blocks, or in
    closed form of the original blocks with Neumann ends or omega = 0.  With
    absorbing ends and omega != 0 they are regular, but nearly singular at a
    tiny omega, which only the solve finds (``boundary_green``): on (5, 4),
    omega = 1e-14 plans and its solve raises SingularBlock; 1e-12 solves.
    """
    if grid.dims != 2:
        raise ValueError("plan2d needs a 2D grid")
    return pipeline.make_plan(grid, omega_or_shift, bc_x1)


def _plan2d(plan) -> SolverPlan:
    if plan.grid.dims != 2:
        raise ValueError(f"a 2D step needs a 2D plan, got a {plan.grid.dims}D one")
    return plan


def _boundary(plan, v, name):
    """Checked boundary data, (2 * n2,) or (2, n2), as a (2, n2) view."""
    return checked_field(v, (2, plan.grid.n[1]), name).reshape(2, -1)


# -- public operations -------------------------------------------------------
#
# The step functions take and return physical boundary pairs; only f_hat is
# in the pipeline's transformed layout.

def solve_aux_partial(plan: SolverPlan, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (v_b, f_hat): v_b holds the boundary-plane values on x_1 in
    {1, n_1}, flat (2 * n2,); f_hat is the x_2 DCT-I (end columns doubled) of
    f's twiddled x_1 FFT, unscaled and flat, reused verbatim by solve_final.
    """
    F = pipeline.field(_plan2d(plan), checked_field(f, plan.grid.shape))
    x1, cross = pipeline.x1_spectra(plan), pipeline.cross_planes(plan)
    fhat, vb = pipeline.step1(plan, F, x1, cross, workers)
    return pipeline.boundary_values(vb, workers).reshape(-1), fhat.reshape(-1)


def solve_correction(plan: SolverPlan, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    vb = pipeline.boundary_modes(_boundary(_plan2d(plan), v_b, "v_b"), workers)
    lam = pipeline.cross_planes(plan)[1]
    wb = pipeline.step2(plan, vb, pipeline.green(plan, lam), lam)
    return pipeline.boundary_values(wb, workers).reshape(-1)


def solve_final(plan: SolverPlan, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transforms."""
    F = pipeline.field(_plan2d(plan), checked_field(f_hat, plan.grid.shape, "f_hat"))
    vbw = _boundary(plan, v_b, "v_b") + _boundary(plan, w_b, "w_b")
    x1, cross = pipeline.x1_spectra(plan), pipeline.cross_planes(plan)
    U = pipeline.step3(plan, F, pipeline.boundary_modes(vbw, workers), x1, cross, workers)
    return U.reshape(-1)


def solve2d(plan: SolverPlan, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 2D system for one right-hand side.

    refine is the number of safeguarded defect-correction passes (each one
    extra three-step solve plus a matrix-free residual).
    """
    return pipeline.solve(plan, f, refine, workers)
