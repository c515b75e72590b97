"""Three-step fast solver for the 3D separable Helmholtz system.

Solves ``((K_1 - omega^2 M_1) ox M_2 ox M_3 + M_1 ox (K_2 ox M_3 + M_2 ox
K_3)) u = f`` with absorbing x_1 ends and Neumann x_2 and x_3 ends.  The plan
holds 1D arrays only, O(n1 + n2 + n3); the solve runs the pipeline that the
2D solver shares (``pipeline``): an x_1 FFT, DCT-I over x_2 and x_3, and a
diagonal divide per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from .assembly import (CorrectionMatrix, Pencil1D, assemble_pencil,
                       build_correction, pencil_difference, _separable_terms)
from .core import (BoundaryKind, Grid, KroneckerOperator, checked_field,
                   freeze_arrays)
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .spectral import EigenBasis, choose_wrap, dct1_eigen


@dataclass(frozen=True)
class SolverPlan3D:
    """Immutable precomputed state for the 3D solver; build with plan3d."""

    grid: Grid
    omega: float
    pencil_x1: Pencil1D
    pencil_x1_periodic: Pencil1D        # the auxiliary wrap the plan chose
    pencil_x2: Pencil1D
    pencil_x3: Pencil1D
    basis_circulant_x1: EigenBasis
    lambdas_x2: np.ndarray              # closed-form DCT-I eigenvalues
    lambdas_x3: np.ndarray
    correction: CorrectionMatrix        # C_bb of auxiliary - absorbing x1
    shifts_B: np.ndarray                # p_B,l = omega^2 - Lambda^B_{1,l}
    operator: KroneckerOperator
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
    def cross_lambdas(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lambdas_x2, self.lambdas_x3

    @property
    def n1(self):
        return self.grid.n[0]

    @property
    def n2(self):
        return self.grid.n[1]

    @property
    def n3(self):
        return self.grid.n[2]


def plan3d(grid: Grid, omega: float) -> SolverPlan3D:
    """Closed forms only; O(n1 + n2 + n3) memory.

    Raises SingularBlock if a block of the chosen auxiliary wrap is resonant,
    or if omega = 0, where the original problem is singular; with omega != 0
    the original blocks cannot be (see ``spectral.boundary_green``).
    """
    if grid.dims != 3:
        raise ValueError("plan3d needs a 3D grid")
    omega = float(omega)
    sigma = complex(omega ** 2)
    (n1, n2, n3), (h1, h2, h3) = grid.n, grid.h

    p1 = assemble_pencil(n1, h1, omega, BoundaryKind.ABSORBING)
    p2 = assemble_pencil(n2, h2)
    p3 = assemble_pencil(n3, h3)
    lam2, D2 = dct1_eigen(p2)
    lam3, D3 = dct1_eigen(p3)
    wrap = choose_wrap(p1, sigma, [lam2, lam3])
    p1B, w1 = wrap.pencil, wrap.basis

    RW1 = w1.boundary_rows()
    return SolverPlan3D(
        grid=grid, omega=omega,
        pencil_x1=p1, pencil_x1_periodic=p1B, pencil_x2=p2, pencil_x3=p3,
        basis_circulant_x1=w1,
        lambdas_x2=lam2, lambdas_x3=lam3,
        correction=build_correction(pencil_difference(p1, p1B), [p2, p3], sigma),
        shifts_B=omega ** 2 - w1.lambdas,
        operator=KroneckerOperator(grid, _separable_terms(p1, [p2, p3], sigma)),
        wrap_gaps=wrap.gaps,
        _w=(pipeline.mass_weights(D2), pipeline.mass_weights(D3)),
        _RW1=RW1, _RW1c=np.conj(RW1), _s1=w1.scales,
    )


def solve_block_system(plan: SolverPlan3D, which: str, rhs: np.ndarray,
                       workers: int | None = None) -> np.ndarray:
    """Solve the transformed auxiliary block system H_B for a spectral vector.

    rhs is in x_1 spectral space, lexicographic order.  Block l is the
    n_2 x n_3 separable problem with shift p_{B,l}; it is diagonal in the
    DCT-I basis of x_2 and x_3.  ``which`` ("B" or "H_B") stays for perfbench.
    """
    if which.upper().removeprefix("H_") != "B":
        raise ValueError(f"which must be 'B', got {which!r}")
    X = pipeline.field(plan, checked_field(rhs, plan.grid.npoints, "rhs"))
    X = pipeline.dct_cross(X, workers, scale_ends=True)
    rho, lam = pipeline.cross_planes(plan)
    for s in pipeline.slabs(plan):
        X[s] *= pipeline.inverse_divisor(plan.shifts_B[s], rho, lam, 0.25)
    return pipeline.dct_cross(X, workers, scale_ends=False).reshape(-1)


def solve3d(plan: SolverPlan3D, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 3D system; refine counts safeguarded defect-correction passes.

    Never holds more than about five field-sized scratch arrays at once.
    """
    return pipeline.solve(plan, f, refine, workers)
