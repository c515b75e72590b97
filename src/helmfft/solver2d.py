"""Three-step fast solver for the 2D separable Helmholtz system.

Solves ``((K_1 - sigma M_1) ox M_2 + M_1 ox K_2) u = f`` where the x_1 pencil
carries absorbing (sigma = omega^2) or Neumann boundary rows (sigma an
arbitrary complex shift).

Step 1 solves the periodic auxiliary problem for the boundary-plane values
v_b only, step 2 solves the original operator for the boundary correction w_b
driven by C_bb v_b, and step 3 solves the auxiliary problem once more with a
right-hand side corrected so the periodic solution agrees with the original
one.  Steps 1 and 3 cost O(N log N), step 2 costs O(N).

``solve2d`` additionally applies safeguarded defect-correction passes
(default one): the three-step composition amplifies roundoff near resonances
of the auxiliary problem, and one extra O(N log N) pass restores the residual
to direct-solver levels whenever the configuration is not too close to a
resonance.  A pass that fails to reduce the residual is rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import _tridiag
from ._tridiag import SingularBlock
from .assembly import (CorrectionMatrix, Pencil1D, assemble_pencil,
                       assemble_periodic_pencil, build_correction,
                       pencil_difference, _shifted)
from .core import BoundaryKind, Grid
from .spectral import EigenBasis, circulant_eigenbasis, solve_pencil_eigen

REFINE_STOP_RTOL = 1e-13


@dataclass
class PartialSolution:
    """Boundary-plane values on x_1 in {1, n_1}; flat layout (2 * block,)."""

    v_b: np.ndarray
    w_b: np.ndarray | None = None


@dataclass
class SolverPlan2D:
    """Immutable precomputed state for the 2D solver; build with plan2d."""

    grid: Grid
    omega: float
    sigma: complex
    bc_x1: BoundaryKind
    pencil_x1: Pencil1D
    pencil_x1_periodic: Pencil1D
    pencil_x2: Pencil1D
    basis_numeric: EigenBasis
    basis_circulant: EigenBasis
    correction: CorrectionMatrix
    _factors_B: tuple = field(repr=False, default=None)
    _factors_A: tuple = field(repr=False, default=None)
    _RW: np.ndarray = field(repr=False, default=None)
    _RWc: np.ndarray = field(repr=False, default=None)
    _RV: np.ndarray = field(repr=False, default=None)
    _scales: np.ndarray = field(repr=False, default=None)
    _K1s: object = field(repr=False, default=None)   # K_1 - sigma M_1

    @property
    def n1(self) -> int:
        return self.grid.n[0]

    @property
    def n2(self) -> int:
        return self.grid.n[1]


def plan2d(grid: Grid, omega_or_shift, bc_x1: BoundaryKind = BoundaryKind.ABSORBING,
           pivot_tol: float = _tridiag.PIVOT_RTOL) -> SolverPlan2D:
    """Precompute eigenbases, the boundary correction and all block LU factors.

    With absorbing x_1 ends the second argument is the (real) wave number and
    the operator shift is omega^2; with Neumann ends it is taken directly as
    the complex shift sigma.  Raises SingularBlock for a resonant shift.
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
    p1B = assemble_periodic_pencil(n1, h1)
    p2 = assemble_pencil(n2, h2)
    basis_v = solve_pencil_eigen(p1)
    basis_w = circulant_eigenbasis(p1B)
    corr = build_correction(pencil_difference(p1, p1B), [p2], sigma)

    fB = _tridiag.factor_blocks(basis_w.lambdas - sigma, p2.K, p2.M, tol=pivot_tol)
    fA = _tridiag.factor_blocks(basis_v.lambdas - sigma, p2.K, p2.M, tol=pivot_tol)

    RW = basis_w.boundary_rows()
    plan = SolverPlan2D(
        grid=grid, omega=omega, sigma=sigma, bc_x1=bc_x1,
        pencil_x1=p1, pencil_x1_periodic=p1B, pencil_x2=p2,
        basis_numeric=basis_v, basis_circulant=basis_w, correction=corr,
        _factors_B=fB, _factors_A=fA,
        _RW=RW, _RWc=np.conj(RW), _RV=basis_v.boundary_rows(),
        _scales=basis_w.scales,
        _K1s=_shifted(p1.K, p1.M, -sigma),
    )
    return plan


# -- internal machinery ------------------------------------------------------
#
# Work arrays live in transposed layout (n2, n1): the length-n1 transforms run
# along contiguous rows (axis 1) and the tridiagonal sweeps run over axis 0,
# touching contiguous slabs.  Public entry points convert at the boundary.

def _to_internal(plan, f):
    return np.ascontiguousarray(
        np.asarray(f, dtype=np.complex128).reshape(plan.n1, plan.n2).T)


def _from_internal(Fi):
    return np.ascontiguousarray(Fi.T).reshape(-1)


def _corr_internal(plan, vb):
    """C_bb on boundary data in internal layout (n2, 2)."""
    c = plan.correction
    p2 = plan.pencil_x2
    Mv = p2.M.apply(vb, axis=0)
    Kv = p2.K.apply(vb, axis=0)
    return Mv @ (c.dk - c.sigma * c.dm) + Kv @ c.dm


def _step1_internal(plan, Fi, workers=None):
    fhat = scipy.fft.fft(Fi, axis=1, workers=workers)
    fhat *= plan._scales[None, :]
    p2 = plan.pencil_x2
    z = _tridiag.solve_blocks(plan._factors_B, p2.K, p2.M, fhat.copy())
    vb = z @ plan._RW.T
    return fhat, vb


def _step2_internal(plan, vb):
    g = _corr_internal(plan, vb) @ plan._RV
    p2 = plan.pencil_x2
    _tridiag.solve_blocks(plan._factors_A, p2.K, p2.M, g)
    return g @ plan._RV.T


def _step3_internal(plan, fhat, vb, wb, workers=None):
    """Consumes fhat."""
    fhat += _corr_internal(plan, vb + wb) @ plan._RWc
    p2 = plan.pencil_x2
    _tridiag.solve_blocks(plan._factors_B, p2.K, p2.M, fhat)
    fhat *= plan._scales[None, :]
    u = scipy.fft.ifft(fhat, axis=1, workers=workers)
    u *= plan.n1
    return u


def _pipeline(plan, Fi, workers=None):
    fhat, vb = _step1_internal(plan, Fi, workers)
    wb = _step2_internal(plan, vb)
    return _step3_internal(plan, fhat, vb, wb, workers)


def _apply_op_internal(plan, Ui):
    """(K_1 - sigma M_1) ox M_2 + M_1 ox K_2 in internal layout."""
    p1, p2 = plan.pencil_x1, plan.pencil_x2
    y = plan._K1s.apply(p2.M.apply(Ui, axis=0), axis=1)
    y += p1.M.apply(p2.K.apply(Ui, axis=0), axis=1)
    return y


def _refine_internal(plan, Fi, Ui, refine, workers):
    """Safeguarded defect correction; keeps the best iterate."""
    if refine <= 0:
        return Ui
    fnorm = np.linalg.norm(Fi)
    R = Fi - _apply_op_internal(plan, Ui)
    best = np.linalg.norm(R)
    for _ in range(refine):
        if best <= REFINE_STOP_RTOL * fnorm:
            break
        U2 = Ui + _pipeline(plan, R, workers)
        R2 = Fi - _apply_op_internal(plan, U2)
        n2 = np.linalg.norm(R2)
        if not n2 < best:
            break
        Ui, R, best = U2, R2, n2
    return Ui


# -- public operations -------------------------------------------------------

def solve_aux_partial(plan: SolverPlan2D, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (PartialSolution, f_hat) where f_hat is the scaled forward line
    transform of f in lexicographic order, reused verbatim by solve_final.
    """
    Fi = _to_internal(plan, f)
    fhat, vb = _step1_internal(plan, Fi, workers)
    return PartialSolution(v_b=np.ascontiguousarray(vb.T).reshape(-1)), _from_internal(fhat)


def solve_correction(plan: SolverPlan2D, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    vb = v_b.v_b if isinstance(v_b, PartialSolution) else np.asarray(v_b)
    vb_i = np.ascontiguousarray(vb.reshape(2, plan.n2).T)
    wb_i = _step2_internal(plan, vb_i)
    return np.ascontiguousarray(wb_i.T).reshape(-1)


def solve_final(plan: SolverPlan2D, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transform."""
    vb = v_b.v_b if isinstance(v_b, PartialSolution) else np.asarray(v_b)
    fhat_i = _to_internal(plan, f_hat)
    vb_i = np.ascontiguousarray(vb.reshape(2, plan.n2).T)
    wb_i = np.ascontiguousarray(np.asarray(w_b).reshape(2, plan.n2).T)
    Ui = _step3_internal(plan, fhat_i, vb_i, wb_i, workers)
    return _from_internal(Ui)


def solve2d(plan: SolverPlan2D, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 2D system for one right-hand side.

    refine is the number of safeguarded defect-correction passes (each one
    extra three-step solve plus a matrix-free residual).
    """
    Fi = _to_internal(plan, f)
    Ui = _pipeline(plan, Fi, workers)
    Ui = _refine_internal(plan, Fi, Ui, refine, workers)
    return _from_internal(Ui)
