"""Closed forms for the 1D pencils, read from their entries (``Pencil1D.entries``):
circulant and DCT-I eigendata, each the interior rows' symbol (``_symbols``)
at its own angles, the choice of the auxiliary x_1 wrap, and the boundary
Green's function of the original x_1 pencil by a pivot recurrence.

The auxiliary x_1 pencil is the original one with its interior row carried
to the ends and wrapped with twist phi (0: periodic, pi: anti-periodic), so
its closed forms need only the original pencil's interior rows and phi.  It
has eigenvectors e^{i theta_l j} with theta_l = (2 pi l + phi)/n, so it is
diagonalized by the unnormalized DFT after the pre-twiddle e^{-i phi j/n}
(G. Strang, Stud. Appl. Math. 74 (1986); R. Chan & M. Ng, SIAM Review 38
(1996) 427-482).  As DCT-I in the cross directions, the plain transform runs
and the columns' M-norms join the divisor: V_jl = e^{i theta_l j} has V^H M
V = diag(D), D_l = n mu_l, mu_l the mass symbol (``circulant_eigenbasis``),
V^H x = ``fft(t * x)`` and V y = ``conj(t) * n * ifft(y)``, with the twiddle
``t_j = e^{-i phi j/n}`` (``twiddle``).  So K + c M wrapped has the inverse
``V diag(1 / (D_l (Lambda_l + c))) V^H``.  Boundary products on this basis
pair the columns' end entries (``boundary_rows``) with their complex
conjugates (the DFT columns are not orthogonal under the plain transpose;
conjugation is what the FFT realization implements).
"""

from __future__ import annotations

import functools

import numpy as np

from .assembly import Pencil1D, wrap_sign
from .core import PIVOT_RTOL, BoundaryKind, SingularBlock


def _symbols(pencil: Pencil1D, theta):
    """Stiffness and mass symbols d + 2 o cos theta of the interior rows.

    Every wrap shares them, and DCT-I reads them at k pi/(n-1).  1 - cos
    theta is taken as 2 sin^2(theta / 2): no cancellation for small theta.
    """
    s = 2.0 * np.sin(theta / 2.0) ** 2
    return tuple(d + 2.0 * o - 2.0 * o * s for _, d, o in pencil.entries)


def _angles(n: int, twist: float) -> np.ndarray:
    return (2.0 * np.pi * np.arange(n) + twist) / n


def circulant_eigenbasis(pencil: Pencil1D, twist: float) -> tuple[np.ndarray, np.ndarray]:
    """``(lambdas, D)`` of ``pencil`` wrapped with ``twist``, 0 or pi (else ValueError).

    Mode l has angle theta_l = (2 pi l + twist)/n, l < n, and DFT column V_jl
    = e^{i theta_l j}; ``lambdas`` is the ratio of the stiffness and mass
    symbols mu there, and D = n mu = diag(V^H M V), as in ``dct1_eigen``.
    Only the interior rows enter, which the wrap shares; mu = h (2 + cos
    theta)/3 is >= h/3.  No matrix is formed.
    """
    wrap_sign(twist)
    num, mu = _symbols(pencil, _angles(pencil.n, twist))
    return num / mu, pencil.n * mu


def boundary_rows(n: int, twist: float) -> np.ndarray:
    """Rows 1 and n of the wrap's DFT columns, 1 and e^{i (n-1) theta_l}; shape (2, n)."""
    return np.vstack([np.ones(n, dtype=np.complex128), np.exp(1j * (n - 1) * _angles(n, twist))])


def twiddle(n: int, twist: float, sign: int):
    """e^{sign i twist j/n}, j < n: sign -1 before the forward FFT, +1 after the inverse one.

    None for the periodic wrap.
    """
    if twist == 0.0:
        return None
    return np.exp((sign * 1j * twist / n) * np.arange(n))


def dct1_eigen(pencil: Pencil1D) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendata (lambda, D) of a uniform pencil with Neumann ends.

    DCT-I diagonalizes it exactly (G. Strang, "The discrete cosine
    transform", SIAM Review 41 (1999) 135-147): with theta_k = k pi/(n-1) and
    V_jk = cos(j theta_k), K V = M V diag(lambda) and V^T M V = diag(D), where

        lambda_k = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),
        D_k = h (n-1) (2 + cos theta_k) / 3, halved for 0 < k < n-1.

    So lambda is the ratio of the wraps' symbols at theta_k and D is n-1 times
    the mass symbol.  V^T x is ``scipy.fft.dct(x, type=1)`` of x with its
    interior entries halved, and V is symmetric.  ValueError unless the ends
    are Neumann (a Neumann pencil, or an absorbing one at omega = 0).
    """
    if pencil.bc != BoundaryKind.NEUMANN and pencil.omega != 0:
        raise ValueError("the DCT-I closed form needs Neumann ends (Neumann, or omega = 0)")
    n = pencil.n
    num, mu = _symbols(pencil, np.pi * np.arange(n) / (n - 1))
    D = (n - 1) * mu
    D[1:-1] /= 2.0
    return num / mu, D


# In evanescent modes the running product of boundary_green and the imaginary
# part of its pivot shrink geometrically.  Parts below 1e-250 are zeroed every
# 32 steps, before they turn subnormal (ten times slower to operate on); that
# moves no result, nor any pivot the guard accepts, by 1e-230 of itself.
_FLUSH_STEPS = 32
_FLUSH_BELOW = 1e-250


def boundary_green(pencil: Pencil1D, sigma: complex, lam) -> tuple[np.ndarray, np.ndarray]:
    """Corner entries of T(lam)^-1, T(lam) = K - sigma M + lam M, per cross mode.

    Returns ``(g, g_far)`` shaped like ``lam``, g = (T^-1)_11 = (T^-1)_nn and
    g_far = (T^-1)_1n, so the 2 x 2 corner block of T^-1 maps a pair x to
    ``g * x + g_far * x[::-1]``.  The pencil, Neumann or absorbing, is
    persymmetric with uniform interior rows.  With pivots p_1 = d_1,
    p_k = d_k - o^2 / p_{k-1}: (T^-1)_nn = 1/p_n and (T^-1)_1n = prod_{k<n}
    (-o/p_k) / p_n (G. Meurant, SIAM J. Matrix Anal. Appl. 13 (1992)
    707-728); n steps over all modes at once, with -o, the interior d and the
    end row d_n = d_1 formed once.
    The recurrence does not pivot, so a pivot below PIVOT_RTOL times the
    block's scale raises SingularBlock.  With absorbing ends, omega != 0 and
    real lam - sigma no pivot is 0: Im(x^H T_k x) = -omega |x_1|^2 for each
    leading block T_k, so T_k x = 0 forces x_1 = 0, and then its rows force
    x = 0 (where o = 0, T_k is diagonal); a tiny omega gives a tiny pivot.
    """
    K, M = pencil.entries                       # each (end, interior diagonal, off-diagonal)
    c = np.asarray(lam, dtype=np.complex128) - sigma
    p = K[0] + c * M[0]
    end = p.copy()                              # persymmetric: d_n = d_1
    neg_off = c * -M[2]                         # -o, the same at every step
    neg_off -= K[2]
    inner = c * M[1] + K[1]
    amin = np.abs(p)
    prod = np.ones_like(p)
    sq, r, a = np.empty_like(p), np.empty_like(p), np.empty_like(amin)
    for k in range(1, pencil.n):
        np.divide(neg_off, p, out=r)
        prod *= r
        # o^2 / p_{k-1}; with the operands swapped the product can round differently
        np.multiply(neg_off, r, out=sq)
        np.subtract(inner if k < pencil.n - 1 else end, sq, out=p)
        np.abs(p, out=a)
        np.fmin(amin, a, out=amin)              # skips a nan pivot after a zero one
        if k % _FLUSH_STEPS == 0:
            for part in (p.imag, prod.real, prod.imag):
                part[np.abs(part) < _FLUSH_BELOW] = 0.0
    bad = amin < PIVOT_RTOL * (np.abs(c) * max(map(abs, M)) + max(map(abs, K)))
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        mode = idx[0] if len(idx) == 1 else idx
        raise SingularBlock(
            f"near-singular x_1 block at cross mode {mode} (resonant shift); "
            f"min pivot {amin[idx]:.3e}", block=mode)
    g = 1.0 / p
    return g, prod * g


def _cross_sums(cross_lams, top):
    """Sorted sums of one eigenvalue per cross direction, and the largest sum.

    The eigenvalues are >= 0, so a shift p with Re p <= top has its nearest
    sums among those up to ``top`` and the smallest one above it; the sums
    kept take each direction's eigenvalues up to ``top`` and one more, which
    holds both.  At the paper's wave number that is a handful of sums, not
    n_2 n_3.
    """
    lams = [np.sort(lam) for lam in cross_lams]
    kept = [lam[:np.searchsorted(lam, top, "right") + 1] for lam in lams]
    sums = np.sort(functools.reduce(np.add.outer, kept), axis=None)
    return sums, sum(lam[-1] for lam in lams)


def _block_gaps(sums, largest, shifts):
    """Smallest and largest |s - p| over the cross sums s, per shift p."""
    i = np.searchsorted(sums, shifts.real)
    below = sums[np.maximum(i - 1, 0)]
    above = sums[np.minimum(i, sums.size - 1)]
    gap = np.minimum(np.abs(below - shifts), np.abs(above - shifts))
    scale = np.maximum(np.abs(sums[0] - shifts), np.abs(largest - shifts))
    return gap, scale


def _check_gaps(gap, scale, which: str) -> None:
    """Raise SingularBlock if some block's smallest |eigenvalue| is tiny.

    The test is relative to the block's largest eigenvalue, as the pivot
    guards.
    """
    bad = gap < PIVOT_RTOL * scale
    if bad.any():
        l = int(np.argmax(bad))
        raise SingularBlock(
            f"near-singular {which} block {l} (resonant shift); "
            f"min |eigenvalue| {gap[l]:.3e}", block=l)


def choose_wrap(pencil: Pencil1D, sigma: complex, cross_lams) -> tuple[float, tuple]:
    """``(twist, gaps)``: the x_1 wrap whose auxiliary blocks are furthest from resonance.

    Block l of the auxiliary problem has the eigenvalues Lambda_l + c - sigma
    over the sums c of the cross directions' real eigenvalues
    ``cross_lams``.  The modes of both wraps are the angles m pi / n, m < 2n:
    even m periodic, odd m anti-periodic.  The sums near the shifts are
    sorted once and the shifts of all 2n modes located by bisection; the
    wrap with the larger smallest |eigenvalue| is kept, the periodic one on
    a tie: twist 0 (periodic) or pi (anti-periodic).  ``gaps`` holds both
    wraps' smallest |eigenvalue|, relative to |sigma|.  Raises SingularBlock
    if a kept block is resonant, and, where the original x_1 pencil is real
    (Neumann ends, or omega = 0), if an original block is, over its DCT-I
    eigenvalues.
    """
    # every shift below is sigma minus an eigenvalue >= 0
    sums, largest = _cross_sums(cross_lams, np.real(sigma))
    if pencil.bc == BoundaryKind.NEUMANN or pencil.omega == 0:
        _check_gaps(*_block_gaps(sums, largest, sigma - dct1_eigen(pencil)[0]), "A")
    num, den = _symbols(pencil, np.pi * np.arange(2 * pencil.n) / pencil.n)
    gap, scale = _block_gaps(sums, largest, sigma - num / den)
    smallest = (float(gap[0::2].min()), float(gap[1::2].min()))
    k = int(smallest[1] > smallest[0])
    _check_gaps(gap[k::2], scale[k::2], "B")
    return k * np.pi, tuple(g / abs(sigma) for g in smallest)


def clear_eigen_cache() -> None:
    """No-op: no plan keeps an eigen cache.  Kept because perfbench calls it."""
