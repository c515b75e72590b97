"""Three-step fast solver for the 2D separable Helmholtz system.

Solves ``((K_1 - sigma M_1) ox M_2 + M_1 ox K_2) u = f`` where the x_1 pencil
carries absorbing (sigma = omega^2) or Neumann boundary rows (sigma an
arbitrary complex shift).

Step 1 solves the auxiliary problem, whose x_1 pencil is wrapped periodically
or anti-periodically, for the boundary-plane values v_b only; step 2 solves
the original operator for the boundary correction w_b driven by C_bb v_b, and
step 3 solves the auxiliary problem once more with a right-hand side
corrected so the auxiliary solution agrees with the original one.  The plan
keeps the wrap whose blocks are further from resonance
(``spectral.choose_wrap``) and holds 1D arrays only, O(n1 + n2).  The solve
runs the pipeline that the 3D solver shares (``pipeline``): an x_1 FFT and a
DCT-I over x_2 diagonalize every auxiliary block, so steps 1 and 3 are
diagonal divides, O(N log N); step 2 applies, per DCT-I mode of x_2, the
2 x 2 corner block G of the inverse x_1 matrix (``boundary_green``, computed
in O(N) once per solve).

``solve2d`` additionally applies safeguarded defect-correction passes
(default one).  The three-step composition amplifies roundoff by how close
the auxiliary problem is to resonance; a pass is skipped once the residual
is at roundoff level, and a pass that fails to reduce the residual is rolled
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from .assembly import (CorrectionMatrix, Pencil1D, assemble_pencil,
                       build_correction, pencil_difference, _separable_terms)
from .core import BoundaryKind, Grid, KroneckerOperator, checked_field, freeze_arrays
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .spectral import EigenBasis, choose_wrap, dct1_eigen


@dataclass
class PartialSolution:
    """Boundary-plane values on x_1 in {1, n_1}; flat layout (2 * block,)."""

    v_b: np.ndarray


@dataclass(frozen=True)
class SolverPlan2D:
    """Immutable precomputed state for the 2D solver; build with plan2d."""

    grid: Grid
    omega: float
    sigma: complex
    bc_x1: BoundaryKind
    pencil_x1: Pencil1D
    pencil_x1_periodic: Pencil1D        # the auxiliary wrap the plan chose
    pencil_x2: Pencil1D
    basis_circulant_x1: EigenBasis
    lambdas_x2: np.ndarray              # closed-form DCT-I eigenvalues
    correction: CorrectionMatrix
    shifts_B: np.ndarray                # p_B,l = sigma - Lambda^B_{1,l}
    operator: KroneckerOperator         # (K_1 - sigma M_1) ox M_2 + M_1 ox K_2
    wrap_gaps: tuple[float, float]      # relative gaps, periodic and anti-periodic
    _w: tuple = field(repr=False, default=None)
    _RW1: np.ndarray = field(repr=False, default=None)
    _RW1c: np.ndarray = field(repr=False, default=None)
    _s1: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        freeze_arrays(vars(self).values())

    @property
    def twist(self) -> float:
        """Phase of the auxiliary x_1 wrap: 0 periodic, pi anti-periodic."""
        return self.pencil_x1_periodic.twist

    @property
    def cross_lambdas(self) -> tuple[np.ndarray]:
        return (self.lambdas_x2,)

    @property
    def n1(self) -> int:
        return self.grid.n[0]

    @property
    def n2(self) -> int:
        return self.grid.n[1]


def plan2d(grid: Grid, omega_or_shift,
           bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> SolverPlan2D:
    """Choose the auxiliary wrap; closed forms only, O(n1 + n2) memory.

    With absorbing x_1 ends the second argument is the (real) wave number and
    the operator shift is omega^2; with Neumann ends it is taken directly as
    the complex shift sigma.  Raises SingularBlock for a resonant shift: of
    the chosen auxiliary blocks, or in closed form of the original blocks
    with Neumann ends or omega = 0.  With absorbing ends and omega != 0 the
    original blocks cannot be resonant (see boundary_green).
    """
    if grid.dims != 2:
        raise ValueError("plan2d needs a 2D grid")
    if bc_x1 == BoundaryKind.ABSORBING:
        omega = float(np.real(omega_or_shift))
        sigma = complex(omega ** 2)
    elif bc_x1 == BoundaryKind.NEUMANN:
        omega = 0.0
        sigma = complex(omega_or_shift)
    else:
        raise ValueError(f"unsupported x_1 boundary kind: {bc_x1}")

    n1, n2 = grid.n
    h1, h2 = grid.h
    p1 = assemble_pencil(n1, h1, omega, bc_x1)
    p2 = assemble_pencil(n2, h2)
    lam2, D2 = dct1_eigen(p2)
    wrap = choose_wrap(p1, sigma, [lam2])
    p1B, w1 = wrap.pencil, wrap.basis

    RW1 = w1.boundary_rows()
    return SolverPlan2D(
        grid=grid, omega=omega, sigma=sigma, bc_x1=bc_x1,
        pencil_x1=p1, pencil_x1_periodic=p1B, pencil_x2=p2,
        basis_circulant_x1=w1, lambdas_x2=lam2,
        correction=build_correction(pencil_difference(p1, p1B), [p2], sigma),
        shifts_B=(sigma if sigma.imag else sigma.real) - w1.lambdas,
        operator=KroneckerOperator(grid, _separable_terms(p1, [p2], sigma)),
        wrap_gaps=wrap.gaps,
        _w=(pipeline.mass_weights(D2),),
        _RW1=RW1, _RW1c=np.conj(RW1), _s1=w1.scales,
    )


def _boundary(plan, v, name):
    """Checked boundary data (2 * n2,) or a PartialSolution, as a (2, n2) view."""
    v = v.v_b if isinstance(v, PartialSolution) else v
    return checked_field(v, 2 * plan.n2, name).reshape(2, plan.n2)


# -- public operations -------------------------------------------------------
#
# The step functions take and return physical boundary pairs; only f_hat is
# in the pipeline's transformed layout.

def solve_aux_partial(plan: SolverPlan2D, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (PartialSolution, f_hat) where f_hat is the scaled x_1 FFT and
    x_2 DCT-I of f, flat and opaque, reused verbatim by solve_final.
    """
    F = pipeline.field(plan, checked_field(f, plan.grid.npoints))
    fhat, vb = pipeline.step1(plan, F, workers)
    v_b = pipeline.boundary_values(vb, workers)
    return PartialSolution(v_b=v_b.reshape(-1)), fhat.reshape(-1)


def solve_correction(plan: SolverPlan2D, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    vb = pipeline.boundary_modes(_boundary(plan, v_b, "v_b"), workers)
    wb = pipeline.step2(plan, vb, pipeline.green(plan))
    return pipeline.boundary_values(wb, workers).reshape(-1)


def solve_final(plan: SolverPlan2D, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transforms."""
    F = pipeline.field(plan, checked_field(f_hat, plan.grid.npoints, "f_hat"))
    vbw = _boundary(plan, v_b, "v_b") + _boundary(plan, w_b, "w_b")
    U = pipeline.step3(plan, F, pipeline.boundary_modes(vbw, workers), workers)
    return U.reshape(-1)


def solve2d(plan: SolverPlan2D, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 2D system for one right-hand side.

    refine is the number of safeguarded defect-correction passes (each one
    extra three-step solve plus a matrix-free residual).
    """
    return pipeline.solve(plan, f, refine, workers)
