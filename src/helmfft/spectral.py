"""Closed forms for the 1D pencils: circulant and DCT-I eigendata, and the
boundary Green's function of the original x_1 pencil by a pivot recurrence.

Periodic (circulant) pencils are diagonalized by the unnormalized DFT.  The
analysis side is ``s * fft(.)`` along the lines and the synthesis side is
``n * ifft(s * .)``, with per-mode scales ``s_l = 1/sqrt(n mu_l)`` where
``mu_l`` is the circulant mass eigenvalue.  Under this pairing the transformed
block system is exactly ``(Lambda_l - sigma) M + K`` per mode.  Boundary
products on this basis pair a row restriction with its complex conjugate (the
DFT columns are not orthogonal under the plain transpose; conjugation is what
the FFT realization implements).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .assembly import Pencil1D
from .core import PIVOT_RTOL, BoundaryKind, SingularBlock


def _circulant_pair(pencil: Pencil1D):
    if pencil.bc != BoundaryKind.PERIODIC:
        raise ValueError("circulant eigenvalues require a periodic pencil")
    n = pencil.n
    K, M = pencil.K, pencil.M
    theta = 2.0 * np.pi * np.arange(n) / n
    e1 = np.exp(-1j * theta)             # e^{-i theta_l}
    en = np.exp(-1j * theta * (n - 1))   # e^{-i theta_l (n-1)}
    num = K.diag[0] + K.corner * e1 + K.off[0] * en
    den = M.diag[0] + M.corner * e1 + M.off[0] * en
    if np.abs(den).min() < 1e-14:
        raise ValueError("degenerate circulant mass eigenvalue")
    return num / den, den


@dataclass(frozen=True)
class EigenBasis:
    """Closed-form eigenbasis of a periodic pencil; no matrix is stored.

    Mode l has angle theta_l = 2 pi (l-1)/n; ``lambdas`` is the ratio of the
    stiffness and mass circulant symbols there, and ``scales`` carry the mass
    normalization.
    """

    n: int
    lambdas: np.ndarray
    scales: np.ndarray

    def boundary_rows(self) -> np.ndarray:
        """Rows 1 and n of the scaled eigenvector matrix, shape (2, n)."""
        n = self.n
        k = np.arange(n)
        top = self.scales.astype(np.complex128)
        bot = np.exp(2j * np.pi * (n - 1) * k / n) * top
        return np.vstack([top, bot])


def circulant_eigenbasis(pencil: Pencil1D) -> EigenBasis:
    lam, mu = _circulant_pair(pencil)
    scales = 1.0 / np.sqrt(pencil.n * mu)
    return EigenBasis(n=pencil.n, lambdas=lam, scales=scales)


def dct1_eigen(pencil: Pencil1D) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendata (lambda, D) of a uniform Neumann pencil.

    DCT-I diagonalizes it exactly (G. Strang, "The discrete cosine
    transform", SIAM Review 41 (1999) 135-147): with theta_k = k pi/(n-1) and
    V_jk = cos(j theta_k), K V = M V diag(lambda) and V^T M V = diag(D), where

        lambda_k = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),
        D_k = h (n-1) (2 + cos theta_k) / 3, halved for 0 < k < n-1.

    V^T x is ``scipy.fft.dct(x, type=1)`` of x with its interior entries
    halved, and V is symmetric.
    """
    if pencil.bc != BoundaryKind.NEUMANN:
        raise ValueError("the DCT-I closed form needs a Neumann pencil")
    n, h = pencil.n, pencil.h
    theta = np.pi * np.arange(n) / (n - 1)
    c = np.cos(theta)
    # 1 - cos theta as 2 sin^2(theta / 2): no cancellation for small theta
    lam = 12.0 * np.sin(theta / 2.0) ** 2 / (h * h * (2.0 + c))
    D = h * (n - 1) * (2.0 + c) / 3.0
    D[1:-1] /= 2.0
    return lam, D


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
    ``g * x + g_far * x[::-1]``; the pencil must be persymmetric, as Neumann
    and absorbing ones are.  With pivots p_1 = d_1, p_k = d_k - o_{k-1}^2 /
    p_{k-1}: (T^-1)_nn = 1/p_n and (T^-1)_1n = prod_{k<n} (-o_k/p_k) / p_n
    (G. Meurant, SIAM J. Matrix Anal. Appl. 13 (1992) 707-728); n steps over
    all modes at once.  The recurrence does not pivot, so a pivot below
    PIVOT_RTOL times the block's scale raises SingularBlock, as ``_tridiag``
    does.  With absorbing ends, omega != 0 and real lam - sigma it cannot
    break down: Im(x^H T_k x) = -omega |x_1|^2 for each leading block T_k, so
    T_k x = 0 forces x_1 = 0, and then its rows force x = 0 (where o = 0, T_k
    is diagonal with nonzero entries).
    """
    K, M = pencil.K, pencil.M
    c = np.asarray(lam, dtype=np.complex128) - sigma
    p = K.diag[0] + c * M.diag[0]
    amin = np.abs(p)
    prod = np.ones_like(p)
    o, r, a = np.empty_like(p), np.empty_like(p), np.empty_like(amin)
    for k in range(1, pencil.n):
        np.multiply(c, -M.off[k - 1], out=o)    # -o_{k-1}
        o -= K.off[k - 1]
        np.divide(o, p, out=r)
        prod *= r
        o *= r                                  # o_{k-1}^2 / p_{k-1}
        np.multiply(c, M.diag[k], out=p)
        p += K.diag[k]
        p -= o
        np.abs(p, out=a)
        np.fmin(amin, a, out=amin)              # skips a nan pivot after a zero one
        if k % _FLUSH_STEPS == 0:
            for part in (p.imag, prod.real, prod.imag):
                part[np.abs(part) < _FLUSH_BELOW] = 0.0
    bad = amin < PIVOT_RTOL * (np.abs(c) * M.max_abs + K.max_abs)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        mode = idx[0] if len(idx) == 1 else idx
        raise SingularBlock(
            f"near-singular x_1 block at cross mode {mode} (resonant shift); "
            f"min pivot {amin[idx]:.3e}", block=mode)
    g = 1.0 / p
    return g, prod * g


def check_resonance(shifts, cross_lams, which: str) -> None:
    """Raise SingularBlock if some block eigenvalue sum_j lam_j - p_l is tiny.

    ``cross_lams`` holds the real eigenvalues of each cross direction.  The
    test is relative to the block's largest eigenvalue, as the pivot guards;
    the sums are sorted once and each shift is located by bisection.
    """
    sums = np.sort(functools.reduce(np.add.outer, cross_lams), axis=None)
    i = np.clip(np.searchsorted(sums, shifts.real), 1, sums.size - 1)
    gap = np.minimum(np.abs(sums[i - 1] - shifts), np.abs(sums[i] - shifts))
    scale = np.maximum(np.abs(sums[0] - shifts), np.abs(sums[-1] - shifts))
    bad = gap < PIVOT_RTOL * scale
    if bad.any():
        l = int(np.argmax(bad))
        raise SingularBlock(
            f"near-singular {which} block {l} (resonant shift); "
            f"min |eigenvalue| {gap[l]:.3e}", block=l)


def clear_eigen_cache() -> None:
    """No-op: no plan keeps an eigen cache.  Kept because perfbench calls it."""
