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
(``spectral.choose_wrap``).  Steps 1 and 3 cost O(N log N); the anti-periodic
wrap adds a twiddle along x_1 before the forward and after the inverse line
FFT.  Step 2 applies, per DCT-I mode of x_2, the 2 x 2 corner block G of the
inverse x_1 matrix (``boundary_green``, computed in O(N) once per solve).

``solve2d`` additionally applies safeguarded defect-correction passes
(default one).  The three-step composition amplifies roundoff by how close
the auxiliary problem is to resonance; a pass is skipped once the residual
is at roundoff level, and a pass that fails to reduce the residual is rolled
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import _tridiag
from .assembly import (CorrectionMatrix, Pencil1D, assemble_pencil,
                       build_correction, pencil_difference, _separable_terms)
from .core import (BoundaryKind, Grid, KroneckerOperator, checked_field,
                   defect_correction, freeze_arrays)
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .spectral import EigenBasis, boundary_green, choose_wrap, dct1_eigen


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
    basis_circulant: EigenBasis
    lambdas_x2: np.ndarray              # closed-form DCT-I eigenvalues
    correction: CorrectionMatrix
    operator: KroneckerOperator         # (K_1 - sigma M_1) ox M_2 + M_1 ox K_2
    wrap_gaps: tuple[float, float]      # relative gaps, periodic and anti-periodic
    _factors_B: tuple = field(repr=False, default=None)
    _RW: np.ndarray = field(repr=False, default=None)
    _RWc: np.ndarray = field(repr=False, default=None)
    _scales: np.ndarray = field(repr=False, default=None)
    _D2: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        freeze_arrays(vars(self).values())

    @property
    def twist(self) -> float:
        """Phase of the auxiliary x_1 wrap: 0 periodic, pi anti-periodic."""
        return self.pencil_x1_periodic.twist

    @property
    def n1(self) -> int:
        return self.grid.n[0]

    @property
    def n2(self) -> int:
        return self.grid.n[1]


def plan2d(grid: Grid, omega_or_shift,
           bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> SolverPlan2D:
    """Choose the auxiliary wrap; precompute its basis, C_bb and block LU.

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
    p1B, basis_w = wrap.pencil, wrap.basis
    corr = build_correction(pencil_difference(p1, p1B), [p2], sigma)
    fB = _tridiag.factor_blocks(basis_w.lambdas - sigma, p2.K, p2.M)

    RW = basis_w.boundary_rows()
    return SolverPlan2D(
        grid=grid, omega=omega, sigma=sigma, bc_x1=bc_x1,
        pencil_x1=p1, pencil_x1_periodic=p1B, pencil_x2=p2,
        basis_circulant=basis_w, lambdas_x2=lam2, correction=corr,
        operator=KroneckerOperator(grid, _separable_terms(p1, [p2], sigma)),
        wrap_gaps=wrap.gaps, _factors_B=fB, _RW=RW, _RWc=np.conj(RW),
        _scales=basis_w.scales, _D2=D2,
    )


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


def _boundary(plan, v, name):
    """Checked boundary data (2 * n2,) or a PartialSolution, as an (n2, 2) view."""
    v = v.v_b if isinstance(v, PartialSolution) else v
    return checked_field(v, 2 * plan.n2, name).reshape(2, plan.n2).T


def _step1_internal(plan, Fi, workers=None):
    pre = plan.basis_circulant.twiddle(-1)
    if pre is None:
        fhat = scipy.fft.fft(Fi, axis=1, workers=workers)
    else:                               # the product becomes fhat, in place
        fhat = scipy.fft.fft(Fi * pre, axis=1, overwrite_x=True, workers=workers)
    fhat *= plan._scales[None, :]
    p2 = plan.pencil_x2
    z = _tridiag.solve_blocks(plan._factors_B, p2.K, p2.M, fhat.copy())
    vb = z @ plan._RW.T
    return fhat, vb


def _step2_internal(plan, vb, G):
    """V (G_k / D_k)_k V^T C_bb v_b, V the DCT-I basis of x_2 (``dct1_eigen``).

    V^T x and V y are the DCT-I of x and y with their interior entries halved.
    """
    c = plan.correction.apply(vb.T)
    c[:, 1:-1] *= 0.5
    c = scipy.fft.dct(c, type=1, axis=1, overwrite_x=True)
    c /= plan._D2
    g, g_far = G
    w = g * c + g_far * c[::-1]
    w[:, 1:-1] *= 0.5
    return scipy.fft.dct(w, type=1, axis=1, overwrite_x=True).T


def _step3_internal(plan, fhat, vb, wb, workers=None):
    """Consumes fhat."""
    fhat += plan.correction.apply((vb + wb).T).T @ plan._RWc
    p2 = plan.pencil_x2
    _tridiag.solve_blocks(plan._factors_B, p2.K, p2.M, fhat)
    fhat *= plan._scales[None, :]
    u = scipy.fft.ifft(fhat, axis=1, workers=workers)
    post = plan.basis_circulant.twiddle(1)
    u *= plan.n1 if post is None else plan.n1 * post
    return u


def _pipeline(plan, Fi, G, workers=None):
    fhat, vb = _step1_internal(plan, Fi, workers)
    wb = _step2_internal(plan, vb, G)
    return _step3_internal(plan, fhat, vb, wb, workers)


# -- public operations -------------------------------------------------------

def solve_aux_partial(plan: SolverPlan2D, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (PartialSolution, f_hat) where f_hat is the scaled forward line
    transform of f in lexicographic order, reused verbatim by solve_final.
    """
    Fi = _to_internal(plan, checked_field(f, plan.grid.npoints))
    fhat, vb = _step1_internal(plan, Fi, workers)
    return PartialSolution(v_b=np.ascontiguousarray(vb.T).reshape(-1)), _from_internal(fhat)


def solve_correction(plan: SolverPlan2D, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    G = boundary_green(plan.pencil_x1, plan.sigma, plan.lambdas_x2)
    wb_i = _step2_internal(plan, _boundary(plan, v_b, "v_b"), G)
    return np.ascontiguousarray(wb_i.T).reshape(-1)


def solve_final(plan: SolverPlan2D, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transform."""
    fhat_i = _to_internal(plan, checked_field(f_hat, plan.grid.npoints, "f_hat"))
    Ui = _step3_internal(plan, fhat_i, _boundary(plan, v_b, "v_b"),
                         _boundary(plan, w_b, "w_b"), workers)
    return _from_internal(Ui)


def solve2d(plan: SolverPlan2D, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 2D system for one right-hand side.

    refine is the number of safeguarded defect-correction passes (each one
    extra three-step solve plus a matrix-free residual).  The passes run on
    (n1, n2) views of the internal arrays.
    """
    Fi = _to_internal(plan, checked_field(f, plan.grid.npoints))
    G = boundary_green(plan.pencil_x1, plan.sigma, plan.lambdas_x2)
    U = defect_correction(plan.operator, Fi.T, _pipeline(plan, Fi, G, workers).T,
                          lambda r: _pipeline(plan, r.T, G, workers).T, refine)
    return np.ascontiguousarray(U).reshape(-1)
