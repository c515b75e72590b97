"""The plan and the three-step pipeline that the 2D and the 3D solver share.

The x_1 direction runs the paper's three steps: the auxiliary problem, whose
x_1 pencil is the original one wrapped with twist 0 (periodic) or pi
(anti-periodic), whichever the plan finds further from resonance
(``spectral.choose_wrap``), is diagonalized by the FFT (after a twiddle for
the anti-periodic wrap), the original one enters through
``spectral.boundary_green``, and the boundary-plane correction C_bb joins
them.  The cross directions x_2 .. x_d carry uniform Neumann pencils, which
DCT-I diagonalizes in closed form (``spectral.dct1_eigen``), so every
transformed x_1 block is a diagonal system.  This departs from the paper,
which solves the blocks by factorization (2D) or by the same three-step
method recursively (3D); the closed form needs no factors and adds no error
of its own.

All work runs in the caller's (n_1, ..., n_d) layout.  In x_1 it keeps the
plain transform fft(t x) = V_1^H x, t the wrap's twiddle.  With E the
diagonal that doubles both end entries of a direction, V^T x = dct1(E x) / 2
and V y = dct1(E y) / 2.  So over the d - 1 cross directions the pipeline
keeps right-hand sides as dct1(E x) = 2^(d-1) V^T x, and solutions and
boundary pairs as E V^-1 y, whose back transform is a bare dct1 / 2^(d-1).
Block l with coefficient c = Lambda_{1,l} - sigma is then a divide by D_l rho
(c + lam): D_l the x_1 columns' M-norm, rho the product of the cross weights
w = 2 D / E = h (n-1) (2 + cos theta) / 3 and lam the sum of the cross
eigenvalues.  No pass scales the field, and the divisors are formed a few
x_1 slabs at a time from the 1D arrays; none of field size is stored.
C_bb = B_bb - A_bb is (dk - sigma dm) ox M_cross + dm ox K_cross, dk and dm
the 2 x 2 corner blocks of the x_1 pencil difference.  The wrap carries the
interior row of T = K_1, M_1 to the ends and adds corners +-T_12, so each
block is a pair [[T_22 - T_11, +-T_12], [+-T_12, T_22 - T_11]], as is step
2's corner block G of the inverse of K_1 - sigma M_1 + lam M_1.  Per cross
mode, over rho, C_bb is the pair (dk - sigma dm) + lam dm; ``_pair`` applies
a pair to x as p x + q x[::-1].

One ``SolverPlan``, built by ``make_plan`` for any number of cross axes,
holds only the plan's decisions, each once and no array: ``grid``,
``operator`` (A as its d pencils and sigma), the wrap's ``twist`` and
``wrap_gaps``, and ``correction`` (dk and dm as pairs of numbers), so equal
plans compare and hash alike.  Each solve forms the O(n) spectra once from
closed forms: ``x1_spectra`` the shifts sigma - Lambda_{1,l}, 1/D_l and the
x_1 boundary rows (the DFT columns' end entries; step 3 takes their
conjugate per slab), and ``cross_planes`` rho and lam.  The refinement
loop's residual applies ``operator`` in the chunk loop of
``core.kron_apply``: 2(d - 1) one-dimensional passes of the pencils' integer
stencils over chunks of x_1 slabs, the x_1 pass first, with scratch of d + 1
chunks.  It sums its norm chunk by chunk and forms r = f - A u as a field
only when a pass will use it.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import numbers

import numpy as np
import scipy.fft

from .assembly import build_operator_A, wrap_sign
from .core import (BoundaryKind, Grid, KroneckerOperator, checked_field,
                   defect_correction, slabs)
from .spectral import (boundary_green, boundary_rows, choose_wrap, circulant_eigenbasis,
                       dct1_eigen, twiddle)


@dataclasses.dataclass(frozen=True)
class SolverPlan:
    """Immutable, hashable decisions of a 2D or 3D solve; build with make_plan."""

    grid: Grid
    operator: KroneckerOperator         # A as its d pencils and sigma, x_1 first
    twist: float                        # the auxiliary x_1 wrap: 0 periodic, pi anti-periodic
    wrap_gaps: tuple[float, float]      # relative gaps, periodic and anti-periodic
    correction: tuple                   # C_bb: ((dk_end, dk_corner), (dm_end, dm_corner))


def make_plan(grid: Grid, omega_or_shift, bc_x1: BoundaryKind) -> SolverPlan:
    """Choose the auxiliary wrap; closed forms only, O(n_1 + ... + n_d) work.

    With absorbing x_1 ends the second argument is the real wave number
    omega, which enters the x_1 corners, and the shift is sigma = omega^2;
    with Neumann ends it is the complex shift sigma.  Raises ValueError for a
    non-real or non-finite omega, one whose square over- or underflows, a
    non-finite sigma or a ``bc_x1`` that is no ``BoundaryKind``, and
    SingularBlock if resonant (choose_wrap).
    """
    if bc_x1 == BoundaryKind.ABSORBING:
        omega = float(np.real(omega_or_shift))
        try:
            sigma = complex(omega ** 2)
        except OverflowError:
            sigma = 0j                      # out of range, as on underflow
        if np.imag(omega_or_shift) != 0 or not np.isfinite(omega) or sigma == 0 != omega:
            raise ValueError("absorbing ends need a real, finite wave number whose square "
                             f"is in range, got {omega_or_shift!r}")
    else:
        omega, sigma = 0.0, complex(omega_or_shift)
        if not cmath.isfinite(sigma):
            raise ValueError(f"the shift must be finite, got {omega_or_shift!r}")
    A = dataclasses.replace(build_operator_A(grid, omega, bc_x1), sigma=sigma)
    p1, *cross = A.pencils
    twist, gaps = choose_wrap(p1, sigma, [dct1_eigen(p)[0] for p in cross])
    return SolverPlan(grid=grid, operator=A, twist=twist, wrap_gaps=gaps,
                      correction=tuple((complex(d - end), complex(wrap_sign(twist) * o))
                                       for end, d, o in p1.entries))


def x1_spectra(plan):
    """The x_1 shifts sigma - Lambda_l, the inverse M-norms 1/D_l and the boundary rows."""
    p1, sigma = plan.operator.pencils[0], plan.operator.sigma
    lam1, D = circulant_eigenbasis(p1, plan.twist)
    return (sigma if sigma.imag else sigma.real) - lam1, 1.0 / D, boundary_rows(p1.n, plan.twist)


def cross_planes(plan):
    """rho (product of the cross weights w = 2 D / E) and lam (sum of the cross eigenvalues)."""
    lams, weights = zip(*(dct1_eigen(p) for p in plan.operator.pencils[1:]))
    for w in weights:
        w[1:-1] *= 2.0
    return functools.reduce(np.multiply.outer, weights), functools.reduce(np.add.outer, lams)


def green(plan, lam):
    """``boundary_green`` of the original x_1 pencil over the cross modes ``lam``."""
    return boundary_green(plan.operator.pencils[0], plan.operator.sigma, lam)


def field(plan, f):
    """A complex copy of ``f`` in the grid's shape."""
    return np.array(f, dtype=np.complex128).reshape(plan.grid.shape)


def dct_cross(X, workers, scale_ends):
    """DCT-I over axes 1..d-1 of X in place, after doubling the end planes (E)."""
    for axis in range(1, X.ndim):
        if scale_ends:
            for end in (0, -1):
                X[(slice(None),) * axis + (end,)] *= 2.0
        X = scipy.fft.dct(X, type=1, axis=axis, overwrite_x=True, workers=workers)
    return X


def boundary_modes(b, workers=None):
    """Physical boundary pair (2, n_2, ...) to the pipeline's E V^-1 b, in a copy."""
    X = dct_cross(np.array(b, dtype=np.complex128), workers, scale_ends=False)
    X /= np.prod([n - 1 for n in X.shape[1:]])
    return X


def boundary_values(vb, workers=None):
    """The pipeline's boundary pair back to physical values; consumes vb."""
    X = dct_cross(vb, workers, scale_ends=False)
    X /= 2.0 ** (X.ndim - 1)
    return X


def inverse_divisor(shifts, rho, lam, scale=1.0):
    """scale / (rho (lam - p_l)) over a slab's shifts; shape (k,) + lam.shape.

    Real where the shifts are (a real sigma): then no complex division runs,
    and the caller's complex data takes a cheaper complex-by-real product.
    """
    d = lam - shifts.reshape((-1,) + (1,) * lam.ndim)
    d *= rho
    return np.divide(scale, d, out=d)


def _along_x1(a, ndim):
    return a.reshape((-1,) + (1,) * (ndim - 1))


def _pair(p, q, x):
    """The persymmetric 2 x 2 block [[p, q], [q, p]] per cross mode on the pair x."""
    return p * x + q * x[::-1]


def _boundary_corr(plan, vb, lam):
    """C_bb per cross mode, over rho: the pair (dk - sigma dm) + lam dm on vb."""
    p, q = ((dk - plan.operator.sigma * dm) + lam * dm for dk, dm in zip(*plan.correction))
    return _pair(p, q, vb)


def step1(plan, F, x1, cross, workers=None):
    """Forward transforms of F in place; the auxiliary solution's boundary pair.

    x1 is ``x1_spectra(plan)`` and cross ``cross_planes(plan)``.  Returns
    (f_hat, v_b): f_hat is F transformed, which step 3 consumes; v_b is in
    the pipeline's cross basis.
    """
    (shifts, inv_D, rows), (rho, lam) = x1, cross
    pre = twiddle(plan.grid.n[0], plan.twist, -1)
    if pre is not None:
        F *= _along_x1(pre, F.ndim)
    F = scipy.fft.fft(F, axis=0, overwrite_x=True, workers=workers)
    F = dct_cross(F, workers, scale_ends=True)
    vb = np.zeros((2,) + F.shape[1:], dtype=np.complex128)
    for s in slabs(F.shape):
        scale = _along_x1(inv_D[s], F.ndim)
        vb += np.tensordot(rows[:, s], F[s] * inverse_divisor(shifts[s], rho, lam, scale), axes=1)
    return F, vb


def step2(plan, vb, G, lam):
    """Boundary pair of the original-operator correction A^-1 C_bb v_b.

    Both pairs are in the pipeline's cross basis, where rho cancels; G is
    ``green(plan, lam)``, lam the cross eigenvalue sums of ``cross_planes``.
    """
    return _pair(*G, _boundary_corr(plan, vb, lam))


def step3(plan, F, vbw, x1, cross, workers=None):
    """Corrected auxiliary solve and inverse transforms; consumes f_hat F.

    vbw is v_b + w_b in the pipeline's cross basis; x1 and cross are as in
    ``step1``.  Returns the solution.
    """
    (shifts, inv_D, rows), (rho, lam) = x1, cross
    c = _boundary_corr(plan, vbw, lam)
    c *= rho
    # the x_1 M-norms, ifft's n_1 and the back transforms' 1 / 2^(d-1), folded
    scale = inv_D * (plan.grid.n[0] / 2.0 ** (F.ndim - 1))
    for s in slabs(F.shape):
        Fs = F[s]
        Fs += np.tensordot(np.conj(rows[:, s]).T, c, axes=1)
        Fs *= inverse_divisor(shifts[s], rho, lam, _along_x1(scale[s], F.ndim))
    F = dct_cross(F, workers, scale_ends=False)
    U = scipy.fft.ifft(F, axis=0, overwrite_x=True, workers=workers)
    post = twiddle(plan.grid.n[0], plan.twist, 1)
    if post is not None:
        U *= _along_x1(post, U.ndim)
    return U


def solve(plan, f, refine, workers):
    """The pipeline plus ``refine`` safeguarded defect-correction passes.

    The spectra and G are formed once, for every pass; the residuals read
    the caller's f, so no second copy of it is kept.  Raises ValueError
    unless ``refine`` is an integer >= 0.
    """
    if not isinstance(refine, numbers.Integral) or refine < 0:
        raise ValueError(f"refine must be an integer >= 0, got {refine!r}")
    f = checked_field(f, plan.grid.shape)
    x1, cross = x1_spectra(plan), cross_planes(plan)
    G = green(plan, cross[1])

    def run(F):
        """Bare three-step solve of A u = F; F (the grid's shape) is overwritten."""
        F, vb = step1(plan, F, x1, cross, workers)
        vb += step2(plan, vb, G, cross[1])
        return step3(plan, F, vb, x1, cross, workers)

    U = defect_correction(plan.operator, f.reshape(plan.grid.shape),
                          run(field(plan, f)), run, refine)
    return U.reshape(-1)
