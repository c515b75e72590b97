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

All work runs in the caller's (n_1, ..., n_d) layout.  With E the diagonal
that doubles both end entries of a direction, V^T x = dct1(E x) / 2 and
V y = dct1(E y) / 2.  So over the d - 1 cross directions the pipeline keeps
right-hand sides as dct1(E x) = 2^(d-1) V^T x, and solutions and boundary
pairs as E V^-1 y, whose back transform is a bare dct1 / 2^(d-1).  Block l
with coefficient c = Lambda_{1,l} - sigma is then a divide by rho (c + lam),
with rho the product of the cross weights w = 2 D / E = h (n-1) (2 + cos
theta) / 3 and lam the sum of the cross eigenvalues.  The divisors are formed
a few x_1 slabs at a time from the 1D arrays; none of field size is stored.
C_bb = B_bb - A_bb is (dk - sigma dm) ox M_cross + dm ox K_cross, dk and dm
the 2 x 2 corner blocks of the x_1 pencil difference.  The wrap carries the
interior row of T = K_1, M_1 to the ends and adds corners +-T_12, so each
block is a pair [[T_22 - T_11, +-T_12], [+-T_12, T_22 - T_11]], as is step
2's corner block G of the inverse of K_1 - sigma M_1 + lam M_1.  Per cross
mode, over rho, C_bb is the pair (dk - sigma dm) + lam dm; ``_pair`` applies
a pair to x as p x + q x[::-1].

One ``SolverPlan``, built by ``make_plan`` for any number of cross axes,
holds each fact once: ``grid``, ``operator`` (A as its d pencils and sigma;
step 2 reads the x_1 pencil there), the wrap's ``twist`` and ``wrap_gaps``,
``shifts_B`` (sigma - Lambda_{1,l}), ``correction`` (dk and dm as pairs),
``cross_lambdas`` and the private ``_w`` (cross weights) and ``_RW1`` (x_1
boundary rows, row 0 the real synthesis scales s_l; step 3 takes their
conjugate per slab).  Those are the only arrays a plan holds.  The
refinement loop's residual applies ``operator`` in the chunk loop of
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

from .assembly import assemble_pencil, wrap_sign
from .core import (BoundaryKind, Grid, KroneckerOperator, checked_field,
                   defect_correction, freeze_arrays, slabs)
from .spectral import (boundary_green, boundary_rows, choose_wrap, circulant_eigenbasis,
                       dct1_eigen, twiddle)


@dataclasses.dataclass(frozen=True)
class SolverPlan:
    """Immutable precomputed state of a 2D or 3D solve; build with make_plan."""

    grid: Grid
    operator: KroneckerOperator         # A as its d pencils and sigma, x_1 first
    twist: float                        # the auxiliary x_1 wrap: 0 periodic, pi anti-periodic
    wrap_gaps: tuple[float, float]      # relative gaps, periodic and anti-periodic
    shifts_B: np.ndarray                # p_B,l = sigma - Lambda^B_{1,l}
    cross_lambdas: tuple                # the cross pencils' closed-form DCT-I eigenvalues
    correction: np.ndarray              # C_bb: [[dk_end, dk_corner], [dm_end, dm_corner]]
    _w: tuple = dataclasses.field(repr=False)
    _RW1: np.ndarray = dataclasses.field(repr=False)   # row 0: the x_1 synthesis scales

    def __post_init__(self):
        freeze_arrays(vars(self).values())


def make_plan(grid: Grid, omega_or_shift, bc_x1: BoundaryKind) -> SolverPlan:
    """Choose the auxiliary wrap; closed forms only, O(n_1 + ... + n_d) memory.

    With absorbing x_1 ends the second argument is the real wave number
    omega, which enters the x_1 corners, and the shift is sigma = omega^2;
    with Neumann ends it is the complex shift sigma.  Raises ValueError for a
    non-real or non-finite omega, a non-finite sigma or a ``bc_x1`` that is
    no ``BoundaryKind``, and SingularBlock if resonant (choose_wrap).
    """
    if bc_x1 == BoundaryKind.ABSORBING:
        if np.imag(omega_or_shift) != 0 or not np.isfinite(omega_or_shift):
            raise ValueError("absorbing ends need a real, finite wave number, "
                             f"got {omega_or_shift!r}")
        omega = float(np.real(omega_or_shift))
        sigma = complex(omega ** 2)
    else:
        omega, sigma = 0.0, complex(omega_or_shift)
        if not cmath.isfinite(sigma):
            raise ValueError(f"the shift must be finite, got {omega_or_shift!r}")
    (n1, *ns), (h1, *hs) = grid.n, grid.h
    p1 = assemble_pencil(n1, h1, omega, bc_x1)
    cross = tuple(assemble_pencil(n, h) for n, h in zip(ns, hs))
    lams, weights = zip(*map(dct1_eigen, cross))
    for w in weights:
        w[1:-1] *= 2.0                  # w = 2 D / E
    twist, gaps = choose_wrap(p1, sigma, lams)
    lam1, scales = circulant_eigenbasis(p1, twist)
    return SolverPlan(
        grid=grid, operator=KroneckerOperator(grid, (p1, *cross), sigma),
        twist=twist, wrap_gaps=gaps,
        shifts_B=(sigma if sigma.imag else sigma.real) - lam1,
        cross_lambdas=lams,
        # the sign times the real o: the corners' zero imaginary parts stay +0
        correction=np.array([[T.diag[1] - T.diag[0], wrap_sign(twist) * T.off[0].real]
                             for T in (p1.K, p1.M)]),
        _w=weights, _RW1=boundary_rows(scales, twist),
    )


def cross_planes(plan):
    """rho (product of the cross weights) and lam (sum of the cross eigenvalues)."""
    return (functools.reduce(np.multiply.outer, plan._w),
            functools.reduce(np.add.outer, plan.cross_lambdas))


def green(plan):
    """``boundary_green`` of the original x_1 pencil over the cross modes."""
    return boundary_green(plan.operator.pencils[0], plan.operator.sigma, cross_planes(plan)[1])


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
    p, q = ((dk - plan.operator.sigma * dm) + lam * dm for dk, dm in plan.correction.T)
    return _pair(p, q, vb)


def step1(plan, F, workers=None):
    """Forward transforms of F in place; the auxiliary solution's boundary pair.

    Returns (f_hat, v_b): f_hat is F transformed and scaled, which step 3
    consumes; v_b is in the pipeline's cross basis.
    """
    pre = twiddle(plan.grid.n[0], plan.twist, -1)
    if pre is not None:
        F *= _along_x1(pre, F.ndim)
    F = scipy.fft.fft(F, axis=0, overwrite_x=True, workers=workers)
    F = dct_cross(F, workers, scale_ends=True)
    rho, lam = cross_planes(plan)
    vb = np.zeros((2,) + F.shape[1:], dtype=np.complex128)
    for s in slabs(F.shape):
        Fs = F[s]
        Fs *= _along_x1(plan._RW1[0, s].real, F.ndim)
        vb += np.tensordot(plan._RW1[:, s],
                           Fs * inverse_divisor(plan.shifts_B[s], rho, lam), axes=1)
    return F, vb


def step2(plan, vb, G):
    """Boundary pair of the original-operator correction A^-1 C_bb v_b.

    Both pairs are in the pipeline's cross basis, where rho cancels; G is
    ``green(plan)``.
    """
    return _pair(*G, _boundary_corr(plan, vb, cross_planes(plan)[1]))


def step3(plan, F, vbw, workers=None):
    """Corrected auxiliary solve and inverse transforms; consumes f_hat F.

    vbw is v_b + w_b in the pipeline's cross basis.  Returns the solution.
    """
    rho, lam = cross_planes(plan)
    c = _boundary_corr(plan, vbw, lam)
    c *= rho
    # the x_1 synthesis scales and the back transforms' 1 / 2^(d-1), folded
    scale = plan._RW1[0].real * (plan.grid.n[0] / 2.0 ** (F.ndim - 1))
    for s in slabs(F.shape):
        Fs = F[s]
        Fs += np.tensordot(np.conj(plan._RW1[:, s]).T, c, axes=1)
        Fs *= inverse_divisor(plan.shifts_B[s], rho, lam, _along_x1(scale[s], F.ndim))
    F = dct_cross(F, workers, scale_ends=False)
    U = scipy.fft.ifft(F, axis=0, overwrite_x=True, workers=workers)
    post = twiddle(plan.grid.n[0], plan.twist, 1)
    if post is not None:
        U *= _along_x1(post, U.ndim)
    return U


def run(plan, F, G, workers=None):
    """Bare three-step solve of A u = F; F (the grid's shape) is overwritten."""
    F, vb = step1(plan, F, workers)
    vb += step2(plan, vb, G)
    return step3(plan, F, vb, workers)


def solve(plan, f, refine, workers):
    """The pipeline plus ``refine`` safeguarded defect-correction passes.

    The residuals read the caller's f, so no second copy of it is kept.
    Raises ValueError unless ``refine`` is an integer >= 0.
    """
    if not isinstance(refine, numbers.Integral) or refine < 0:
        raise ValueError(f"refine must be an integer >= 0, got {refine!r}")
    f = checked_field(f, plan.grid.shape)
    G = green(plan)
    U = run(plan, field(plan, f), G, workers)
    U = defect_correction(plan.operator, f.reshape(plan.grid.shape), U,
                          lambda r: run(plan, r, G, workers), refine)
    return U.reshape(-1)
