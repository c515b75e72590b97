"""The plan, the three-step pipeline and its step API, shared by 2D and 3D.

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
The chunk loops of steps 1 and 3 hold their divisor and product chunks
within ``core.SLAB_SCRATCH`` (256 KiB), as the residual's does, and make no
BLAS call and no hidden temporary (``core.unbuffered``).
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
stencils over chunks of x_1 slabs, the x_1 pass first, with scratch of three
chunks.  It sums its norm chunk by chunk and forms r = f - A u as a field
only when a pass will use it.

The step API runs the steps one at a time on 2D and 3D plans alike:
``solve_aux_partial``, ``solve_correction`` and ``solve_final`` take and
return flat physical boundary pairs (2 n_2 .. n_d values), and f_hat in the
pipeline's layout; ``solve_block_system`` runs the block divides alone.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import numbers

import numpy as np
import scipy.fft

from .assembly import build_operator_A, wrap_sign
from .core import (BoundaryKind, Grid, KroneckerOperator, _norm, checked_field,
                   defect_correction, ldexp, scale_exponent, shaped, slabs, unbuffered)
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


def make_plan(grid: Grid, omega_or_shift,
              bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> SolverPlan:
    """Choose the auxiliary wrap; closed forms only, O(n_1 + ... + n_d) work.

    This is ``plan2d`` and ``plan3d``, for 2D and 3D grids with absorbing
    (default) or Neumann x_1 ends.  With absorbing ends the second argument
    is the real wave number omega, which enters the x_1 corners, and sigma =
    omega^2; with Neumann ends it is the complex shift sigma.  Raises
    ValueError for a non-real or non-finite omega, one whose square over- or
    underflows, a non-finite sigma or a ``bc_x1`` that is no
    ``BoundaryKind``, and SingularBlock for a resonant auxiliary or original
    block (``spectral.choose_wrap``): with absorbing ends at omega = 0, or
    near it: on (5, 4) and (5, 4, 3), omega = 1e-14 raises and 1e-13 solves.
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


def inverse_divisor(shifts, rho, lam, scale, out):
    """``out`` = scale / (rho (lam - p_l)) over a chunk's shifts p_l; shape (k,) + lam.shape.

    ``shifts`` and ``scale`` are columns along x_1, and a ``rho`` of None
    stands for 1.  Real where the shifts are (a real sigma): then no complex
    division runs, and ``_times`` applies it to complex data as a real
    product.
    """
    np.subtract(lam, shifts, out=out)
    if rho is not None:
        out *= rho
    return np.divide(scale, out, out=out)


def _times(x, q, out):
    """``out`` = x q for C-contiguous complex x and out and a real or complex q of their shape.

    A real q multiplies the real and then the imaginary parts as flat
    strided arrays, so numpy neither casts q nor buffers.
    """
    if q.dtype.kind == "c":
        return np.multiply(x, q, out=out)
    x, q, y = x.reshape(-1), q.reshape(-1), out.reshape(-1)
    np.multiply(x.real, q, out=y.real)
    np.multiply(x.imag, q, out=y.imag)
    return out


def _slab_chunks(X, *dtypes):
    """Chunks of X's x_1 slabs, and a chunk buffer of each dtype, together within SLAB_SCRATCH."""
    chunks = slabs(X.shape, sum(np.dtype(t).itemsize for t in dtypes))
    shape = (chunks[0].stop,) + X.shape[1:]
    return (chunks, *(np.empty(shape, dtype=t) for t in dtypes))


def _in_dtype(dtype, *arrays):
    """``arrays`` in the divisor's ``dtype``: a slab loop's operands share one (``unbuffered``)."""
    return [np.asarray(a, dtype=dtype) for a in arrays]


def _along_x1(a, ndim):
    return a.reshape((-1,) + (1,) * (ndim - 1))


def _pair(p, q, x):
    """The persymmetric 2 x 2 block [[p, q], [q, p]] per cross mode on the pair x, in place.

    Two cross planes of scratch; no product broadcasts over the pair.
    """
    t, u = np.multiply(q, x[1]), np.multiply(q, x[0])
    np.multiply(p, x[0], out=x[0])
    x[0] += t
    np.multiply(p, x[1], out=x[1])
    x[1] += u
    return x


def _boundary_corr(plan, vb, lam):
    """C_bb per cross mode, over rho: the pair (dk - sigma dm) + lam dm on vb, in a new pair.

    Each coefficient plane is formed where its product goes, lam times dm on
    float views, so one cross plane is the only other scratch.
    """
    (pa, pb), (qa, qb) = ((dk - plan.operator.sigma * dm, dm) for dk, dm in zip(*plan.correction))

    def plane(a, b, out):
        """out = a + lam b, for complex numbers a and b."""
        lam_, flat = lam.reshape(-1), out.reshape(-1)
        np.multiply(lam_, b.real, out=flat.real)
        np.multiply(lam_, b.imag, out=flat.imag)
        out += a
        return out

    out, t = np.empty(vb.shape, dtype=np.complex128), np.empty(vb.shape[1:], dtype=np.complex128)
    np.multiply(plane(qa, qb, out[0]), vb[1], out=out[0])
    np.multiply(plane(qa, qb, out[1]), vb[0], out=out[1])
    out[0] += np.multiply(plane(pa, pb, t), vb[0], out=t)
    out[1] += np.multiply(plane(pa, pb, t), vb[1], out=t)
    return out


def _slab_sum(P, out):
    """The sum over x_1 of the chunk P: P[0] itself for a single slab, else in ``out``."""
    return P[0] if len(P) == 1 else np.add.reduce(P, axis=0, out=out)


def step1(plan, F, x1, cross, workers=None):
    """Forward transforms of F in place; the auxiliary solution's boundary pair.

    x1 is ``x1_spectra(plan)`` and cross ``cross_planes(plan)``.  Returns
    (f_hat, v_b): f_hat is F transformed, which step 3 consumes; v_b is in
    the pipeline's cross basis.  v_b sums the boundary rows times P_l = F_l /
    divisor_l over x_1, and 1/rho, the same for every l, comes once at the
    end.  Per chunk of slabs, P goes to a reused buffer, whose sum over the
    chunk is row 0's part (all ones); P times row 1 in place, summed again,
    is row 1's.  No product is a GEMM, so no BLAS call runs.
    """
    (shifts, inv_D, rows), (rho, lam) = x1, cross
    pre = twiddle(plan.grid.n[0], plan.twist, -1)
    if pre is not None:
        F *= _along_x1(pre, F.ndim)
    F = scipy.fft.fft(F, axis=0, overwrite_x=True, workers=workers)
    F = dct_cross(F, workers, scale_ends=True)
    vb = np.zeros((2,) + F.shape[1:], dtype=np.complex128)
    chunks, q, buf = _slab_chunks(F, shifts.dtype, np.complex128)
    total = np.empty(F.shape[1:], dtype=np.complex128) if len(chunks) < F.shape[0] else None
    lam, inv_D = _in_dtype(q.dtype, lam, inv_D)
    shifts, inv_D, row1 = (_along_x1(a, F.ndim) for a in (shifts, inv_D, rows[1]))
    with unbuffered():
        for s in chunks:
            k = s.stop - s.start
            P = _times(F[s], inverse_divisor(shifts[s], None, lam, inv_D[s], q[:k]), buf[:k])
            vb[0] += _slab_sum(P, total)
            P *= row1[s]
            vb[1] += _slab_sum(P, total)
    for part in (vb[0].real, vb[0].imag, vb[1].real, vb[1].imag):
        np.divide(part, rho, out=part)
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
    ``step1``.  Returns the solution.  Per chunk of slabs, F_l takes the
    rank-2 update conj(boundary rows_l) c: conj(row 1) times c_1 from a
    reused buffer, then c_0 as a broadcast add (row 0 is all ones); the
    divisor then multiplies F in place.  No BLAS call runs.
    """
    (shifts, inv_D, rows), (rho, lam) = x1, cross
    c0, c1 = _boundary_corr(plan, vbw, lam)
    for part in (c0.real, c0.imag, c1.real, c1.imag):
        np.multiply(part, rho, out=part)
    # the x_1 M-norms, ifft's n_1 and the back transforms' 1 / 2^(d-1), folded
    scale = _along_x1(inv_D * (plan.grid.n[0] / 2.0 ** (F.ndim - 1)), F.ndim)
    chunks, buf = _slab_chunks(F, np.complex128)
    # the divisor chunk takes the buffer's memory once the update has used it
    q = buf.reshape(-1).view(shifts.dtype)[:buf.size].reshape(buf.shape)
    lam, rho, scale = _in_dtype(q.dtype, lam, rho, scale)
    shifts, row1 = _along_x1(shifts, F.ndim), _along_x1(np.conj(rows[1]), F.ndim)
    with unbuffered():
        for s in chunks:
            k, Fs = s.stop - s.start, F[s]
            Fs += np.multiply(row1[s], c1, out=buf[:k])
            Fs += c0
            _times(Fs, inverse_divisor(shifts[s], rho, lam, scale[s], q[:k]), Fs)
    del c0, c1, q, buf                  # not held through the back transforms
    F = dct_cross(F, workers, scale_ends=False)
    U = scipy.fft.ifft(F, axis=0, overwrite_x=True, workers=workers)
    post = twiddle(plan.grid.n[0], plan.twist, 1)
    if post is not None:
        U *= _along_x1(post, U.ndim)
    return U


def solve(plan: SolverPlan, f: np.ndarray, refine: int = 1,
          workers: int | None = None) -> np.ndarray:
    """Solve the 2D or 3D system A u = f for one right-hand side.

    This is ``solve2d`` and ``solve3d``.  ``refine`` counts safeguarded
    defect-correction passes (``core.defect_correction``), each one extra
    three-step solve plus a matrix-free residual; ValueError unless it is an
    integer >= 0.  The spectra and G are formed once, for every pass, and
    the residuals read the caller's f.  Besides the solution field it holds
    the O(n) spectra and boundary pairs and one slab loop's chunk scratch
    (``core.SLAB_SCRATCH``), and one more field while a pass runs: the stop
    test takes only the residual's norm.

    f is read once for ||f||'s sum of squares, a chunk at a time: a finite
    sum vouches for every entry, and only a sum that is not finite runs the
    slab-wise finiteness test, which raises ValueError on a non-finite entry.
    Where ||f|| is out of the stop test's range, an overflowed sum of finite
    entries included, it solves 2^-e f (``core.scale_exponent``), at every
    ``refine``: solve(2^k f) is 2^k solve(f) bit for bit.  A solution with
    an entry beyond double precision raises OverflowError.
    """
    if not isinstance(refine, numbers.Integral) or refine < 0:
        raise ValueError(f"refine must be an integer >= 0, got {refine!r}")
    f = shaped(f, plan.grid.shape)
    f_norm = _norm(f)
    if not math.isfinite(f_norm):
        checked_field(f, plan.grid.shape)
    if e := scale_exponent(f, f_norm):
        return ldexp(solve(plan, ldexp(f, -e), refine, workers), e)
    x1, cross = x1_spectra(plan), cross_planes(plan)
    G = green(plan, cross[1])

    def run(F):
        """Bare three-step solve of A u = F; F (the grid's shape) is overwritten."""
        F, vb = step1(plan, F, x1, cross, workers)
        vb += step2(plan, vb, G, cross[1])
        return step3(plan, F, vb, x1, cross, workers)

    U = defect_correction(plan.operator, f, run(field(plan, f)), run, refine, f_norm)
    return U.reshape(-1)


def _boundary(plan, v, name):
    """Checked boundary data, flat or (2, n_2, ...), as a (2, n_2, ...) view."""
    shape = (2,) + plan.grid.shape[1:]
    return checked_field(v, shape, name).reshape(shape)


def solve_aux_partial(plan: SolverPlan, f: np.ndarray,
                      workers: int | None = None):
    """Step 1: boundary values of the auxiliary solve plus the saved transform.

    Returns (v_b, f_hat): v_b holds the boundary-plane values on x_1 in
    {1, n_1}; f_hat is the cross directions' DCT-I (end planes doubled) of
    f's twiddled x_1 FFT, unscaled and flat, reused verbatim by solve_final.
    """
    F = field(plan, checked_field(f, plan.grid.shape))
    fhat, vb = step1(plan, F, x1_spectra(plan), cross_planes(plan), workers)
    return boundary_values(vb, workers).reshape(-1), fhat.reshape(-1)


def solve_correction(plan: SolverPlan, v_b, workers: int | None = None) -> np.ndarray:
    """Step 2: boundary values of the original-operator correction."""
    vb = boundary_modes(_boundary(plan, v_b, "v_b"), workers)
    lam = cross_planes(plan)[1]
    return boundary_values(step2(plan, vb, green(plan, lam), lam), workers).reshape(-1)


def solve_final(plan: SolverPlan, f_hat: np.ndarray, v_b, w_b,
                workers: int | None = None) -> np.ndarray:
    """Step 3: corrected auxiliary solve and inverse transforms."""
    F = field(plan, checked_field(f_hat, plan.grid.shape, "f_hat"))
    vbw = _boundary(plan, v_b, "v_b") + _boundary(plan, w_b, "w_b")
    U = step3(plan, F, boundary_modes(vbw, workers), x1_spectra(plan), cross_planes(plan),
              workers)
    return U.reshape(-1)


def solve_block_system(plan: SolverPlan, which: str, rhs: np.ndarray,
                       workers: int | None = None) -> np.ndarray:
    """Solve the transformed auxiliary block system H_B for a spectral vector.

    rhs is in x_1 spectral space, lexicographic order.  Block l is the cross
    directions' separable problem with shift p_{B,l}, diagonal in their DCT-I
    basis (2D plans too).  ``which`` ("B" or "H_B") stays for perfbench.
    """
    if which.upper().removeprefix("H_") != "B":
        raise ValueError(f"which must be 'B', got {which!r}")
    X = dct_cross(field(plan, checked_field(rhs, plan.grid.shape, "rhs")), workers,
                  scale_ends=True)
    shifts = x1_spectra(plan)[0]
    rho, lam = cross_planes(plan)
    chunks, q = _slab_chunks(X, shifts.dtype)
    shifts, (rho, lam) = _along_x1(shifts, X.ndim), _in_dtype(q.dtype, rho, lam)
    with unbuffered():
        for s in chunks:
            k = s.stop - s.start
            _times(X[s], inverse_divisor(shifts[s], rho, lam, 2.0 ** (1 - X.ndim), q[:k]), X[s])
    return dct_cross(X, workers, scale_ends=False).reshape(-1)
