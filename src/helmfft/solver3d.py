"""Three-step fast solver for the 3D separable Helmholtz system.

The x_1 direction runs the paper's three steps as in 2D: the auxiliary
problem, wrapped periodically or anti-periodically in x_1 (whichever the plan
finds further from resonance, ``spectral.choose_wrap``), is diagonalized by
the FFT (after a twiddle for the anti-periodic wrap), the absorbing one
enters through ``spectral.boundary_green``, and the boundary-plane correction
joins them.  The cross directions x_2 and x_3 carry uniform Neumann pencils,
which DCT-I diagonalizes in closed form (``spectral.dct1_eigen``), so every
transformed x_1 block is a diagonal system.  This departs from the paper, which solves
the blocks by the same three-step method recursively; the closed form needs
no inner factorization and adds no error of its own.

All work runs in the caller's (n1, n2, n3) layout.  With E the diagonal that
doubles both end entries of a direction, V^T x = dct1(E x) / 2 and
V y = dct1(E y) / 2.  So over x_2 and x_3 the pipeline keeps right-hand
sides as dct1(E x) = 4 V^T x and solutions as E V^-1 y, whose back transform
is a bare dct1 / 4.  Block l with coefficient c = Lambda_{1,l} - omega^2 is
then a divide by rho (c + lam_2 + lam_3), with rho_jk = w_2j w_3k and
w = 2 D / E = h (n-1) (2 + cos theta) / 3.  The divisors are formed a few
x_1 slabs at a time from the 1D arrays; none of volumetric size is stored.
Step 2 is, per cross mode, the 2 x 2 corner block of the inverse of
K_1 - omega^2 M_1 + (lam_2 + lam_3) M_1, over rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .assembly import (Pencil1D, PencilDifference, assemble_pencil,
                       pencil_difference, _separable_terms)
from .core import (BoundaryKind, Grid, KroneckerOperator, checked_field,
                   defect_correction, freeze_arrays)
from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
from .spectral import EigenBasis, boundary_green, choose_wrap, dct1_eigen

# complex scalars of divisor scratch per slab chunk (at least one x_1 slab)
_SLAB_SCRATCH = 1 << 16


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
    diff_x1: PencilDifference           # corner blocks of auxiliary - absorbing x1
    shifts_B: np.ndarray                # p_B,l = omega^2 - Lambda^B_{1,l}
    operator: KroneckerOperator
    wrap_gaps: tuple[float, float]      # relative gaps, periodic and anti-periodic
    _w2: np.ndarray = field(repr=False, default=None)
    _w3: np.ndarray = field(repr=False, default=None)
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
    def n1(self):
        return self.grid.n[0]

    @property
    def n2(self):
        return self.grid.n[1]

    @property
    def n3(self):
        return self.grid.n[2]


def _mass_weights(D):
    w = D.copy()
    w[1:-1] *= 2.0
    return w


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
        diff_x1=pencil_difference(p1, p1B),
        shifts_B=sigma - w1.lambdas,
        operator=KroneckerOperator(grid, _separable_terms(p1, [p2, p3], sigma)),
        wrap_gaps=wrap.gaps,
        _w2=_mass_weights(D2), _w3=_mass_weights(D3),
        _RW1=RW1, _RW1c=np.conj(RW1), _s1=w1.scales,
    )


# -- cross-direction transforms and diagonal solves --------------------------

def _to_internal(plan, f):
    return np.array(f, dtype=np.complex128).reshape(plan.grid.shape)


def _dct23(X, workers, scale_ends):
    """DCT-I over x_2 and x_3 in place, after doubling the end planes (E)."""
    if scale_ends:
        X[:, 0] *= 2.0
        X[:, -1] *= 2.0
        X[:, :, 0] *= 2.0
        X[:, :, -1] *= 2.0
    scipy.fft.dctn(X, type=1, axes=(1, 2), overwrite_x=True, workers=workers)


def _cross_planes(plan):
    """rho = w2 w3 and lam2 + lam3 over the x_2 x x_3 plane."""
    return (np.multiply.outer(plan._w2, plan._w3),
            np.add.outer(plan.lambdas_x2, plan.lambdas_x3))


def _slabs(plan):
    step = max(1, _SLAB_SCRATCH // (plan.n2 * plan.n3))
    return [slice(a, min(a + step, plan.n1)) for a in range(0, plan.n1, step)]


def _divisor(shifts, rho, lam):
    """rho (lam - p_l) for the slabs of shifts; shape (len(shifts), n2, n3)."""
    d = lam - shifts[:, None, None]
    d *= rho
    return d


def _boundary_corr(plan, vb, lam):
    """Outer C_bb(omega^2) per cross mode, over rho: (dk - omega^2 dm) + dm lam."""
    dk, dm = plan.diff_x1.dk, plan.diff_x1.dm
    sigma = plan.omega ** 2
    c = np.tensordot(dk - sigma * dm, vb, axes=1)
    c += lam * np.tensordot(dm, vb, axes=1)
    return c


def _pipeline3d(plan, F, G, workers=None):
    """Bare three-step solve of A u = F; F (n1, n2, n3) is overwritten.

    G is boundary_green over the cross modes.  Returns the solution, in F.
    """
    pre = plan.basis_circulant_x1.twiddle(-1)
    if pre is not None:
        F *= pre[:, None, None]
    F = scipy.fft.fft(F, axis=0, overwrite_x=True, workers=workers)
    _dct23(F, workers, scale_ends=True)
    rho, lam = _cross_planes(plan)
    slabs = _slabs(plan)
    # step 1: boundary values of the auxiliary solution
    vb = np.zeros((2, plan.n2, plan.n3), dtype=np.complex128)
    for s in slabs:
        Fs = F[s]
        Fs *= plan._s1[s, None, None]
        vb += np.tensordot(plan._RW1[:, s], Fs / _divisor(plan.shifts_B[s], rho, lam),
                           axes=1)
    # step 2: boundary correction through the absorbing blocks; rho cancels
    c = _boundary_corr(plan, vb, lam)
    g, g_far = G
    vb += g * c
    vb += g_far * c[::-1]
    # step 3: corrected auxiliary solve, folded with the x_1 synthesis scales
    c = _boundary_corr(plan, vb, lam)
    c *= rho
    scale = plan._s1 * (plan.n1 / 4.0)
    for s in slabs:
        Fs = F[s]
        Fs += np.tensordot(plan._RW1c[:, s].T, c, axes=1)
        Fs *= scale[s, None, None] / _divisor(plan.shifts_B[s], rho, lam)
    _dct23(F, workers, scale_ends=False)
    U = scipy.fft.ifft(F, axis=0, overwrite_x=True, workers=workers)
    post = plan.basis_circulant_x1.twiddle(1)
    if post is not None:
        U *= post[:, None, None]
    return U


def solve_block_system(plan: SolverPlan3D, which: str, rhs: np.ndarray,
                       workers: int | None = None) -> np.ndarray:
    """Solve the transformed auxiliary block system H_B for a spectral vector.

    rhs is in x_1 spectral space, lexicographic order.  Block l is the
    n_2 x n_3 separable problem with shift p_{B,l}; it is diagonal in the
    DCT-I basis of x_2 and x_3.  ``which`` ("B" or "H_B") stays for perfbench.
    """
    if which.upper().removeprefix("H_") != "B":
        raise ValueError(f"which must be 'B', got {which!r}")
    X = _to_internal(plan, checked_field(rhs, plan.grid.npoints, "rhs"))
    _dct23(X, workers, scale_ends=True)
    rho, lam = _cross_planes(plan)
    for s in _slabs(plan):
        X[s] /= 4.0 * _divisor(plan.shifts_B[s], rho, lam)
    _dct23(X, workers, scale_ends=False)
    return X.reshape(-1)


def solve3d(plan: SolverPlan3D, f: np.ndarray, refine: int = 1,
            workers: int | None = None) -> np.ndarray:
    """Solve the 3D system; refine counts safeguarded defect-correction passes.

    Never holds more than about five field-sized scratch arrays at once: the
    residuals read the caller's f, so no internal copy of it is kept.
    """
    f = checked_field(f, plan.grid.npoints)
    G = boundary_green(plan.pencil_x1, plan.omega ** 2, _cross_planes(plan)[1])
    U = _pipeline3d(plan, _to_internal(plan, f), G, workers)
    U = defect_correction(plan.operator, f.reshape(plan.grid.shape), U,
                          lambda r: _pipeline3d(plan, r, G, workers), refine)
    return U.reshape(-1)
