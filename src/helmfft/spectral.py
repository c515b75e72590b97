"""Eigen-infrastructure: circulant and DCT-I closed forms, the complex-symmetric
pencil eigensolver and its normalization.

Conventions (validated end-to-end against the dense oracle):

* Periodic (circulant) pencils are diagonalized by the unnormalized DFT.  The
  analysis side is ``s * fft(.)`` along the lines and the synthesis side is
  ``n * ifft(s * .)``, with per-mode scales ``s_l = 1/sqrt(n mu_l)`` where
  ``mu_l`` is the circulant mass eigenvalue.  Under this pairing the
  transformed block system is exactly ``(Lambda_l - sigma) M + K`` per mode.
  Boundary-restricted products on this basis pair a row restriction with its
  complex conjugate (the DFT columns are not orthogonal under the plain
  transpose; conjugation is what the FFT realization implements).
* Numeric pencils (Neumann / absorbing) are diagonalized by a dense solve and
  T-normalized so that V^T M V = I; their restricted products pair a row
  restriction with its plain transpose.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import Pencil1D
from .core import BoundaryKind

NORMALIZATION_TOL = 1e-12


class EigensolverFailure(RuntimeError):
    """Dense eigensolver did not converge."""


class NormalizationFailure(RuntimeError):
    """An eigenvector has a quasi-null T-norm and cannot be M-normalized."""


def circulant_eigenvalues(pencil: Pencil1D) -> np.ndarray:
    """Generalized eigenvalues of a periodic (circulant) pencil, mode-ordered.

    Mode l has angle theta_l = 2 pi (l-1)/n; the value is the ratio of the
    stiffness and mass circulant symbols at that angle.
    """
    lam, _mu = _circulant_pair(pencil)
    return lam


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
    """Eigenvalues and normalized eigenvectors of a 1D pencil.

    ``kind`` is "numeric" (dense V stored, T-normalized so V^T M V = I) or
    "circulant" (closed form, no stored matrix; scales carry the mass
    normalization).
    """

    n: int
    kind: str
    lambdas: np.ndarray
    scales: np.ndarray
    vectors: np.ndarray | None = None

    def boundary_rows(self) -> np.ndarray:
        """Rows 1 and n of the (scaled) eigenvector matrix, shape (2, n)."""
        if self.kind == "numeric":
            return self.vectors[[0, -1], :]
        n = self.n
        k = np.arange(n)
        top = self.scales.astype(np.complex128)
        bot = np.exp(2j * np.pi * (n - 1) * k / n) * top
        return np.vstack([top, bot])


def circulant_eigenbasis(pencil: Pencil1D) -> EigenBasis:
    lam, mu = _circulant_pair(pencil)
    scales = 1.0 / np.sqrt(pencil.n * mu)
    return EigenBasis(n=pencil.n, kind="circulant", lambdas=lam, scales=scales)


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


# Bytes of eigenvectors the eigen cache keeps; a 2049-point basis holds 67 MB.
EIGEN_CACHE_BYTES = 128 << 20
_EIGEN_CACHE: OrderedDict = OrderedDict()       # least recently used first
_EIGEN_LOCK = threading.Lock()


def clear_eigen_cache() -> None:
    with _EIGEN_LOCK:
        _EIGEN_CACHE.clear()


def solve_pencil_eigen(pencil: Pencil1D, cache: bool = True) -> EigenBasis:
    """Full eigendecomposition K V = M V Lambda of a Neumann or absorbing pencil.

    The generalized problem is reduced to a standard one through a Cholesky
    factor of the real SPD mass matrix, solved densely, and the eigenvectors
    are rescaled so that V^T M V = I (plain transpose; the pencil is complex
    symmetric, not Hermitian).  The dense O(n^3) cost is paid once per
    direction at plan time; results are memoized on (n, h, bc, omega), and the
    least recently used are dropped beyond ``EIGEN_CACHE_BYTES`` of vectors.
    """
    if pencil.bc == BoundaryKind.PERIODIC:
        raise ValueError("periodic pencils use the circulant closed form")
    key = (pencil.n, pencil.h, pencil.bc, pencil.omega)
    if cache:
        with _EIGEN_LOCK:
            if key in _EIGEN_CACHE:
                _EIGEN_CACHE.move_to_end(key)
                return _EIGEN_CACHE[key]

    Md = pencil.M.dense().real
    Kd = pencil.K.dense()
    try:
        L = np.linalg.cholesky(Md)
        A1 = scipy.linalg.solve_triangular(L, Kd, lower=True)
        S = scipy.linalg.solve_triangular(L, A1.T, lower=True).T
        theta, Y = np.linalg.eig(S)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc

    order = np.lexsort((theta.imag, theta.real))
    theta = theta[order]
    Y = Y[:, order]
    tnorm = np.einsum("il,il->l", Y, Y)
    bad = np.abs(tnorm) < NORMALIZATION_TOL
    if bad.any():
        l = int(np.argmax(bad))
        raise NormalizationFailure(
            f"eigenvector {l} has T-norm {abs(tnorm[l]):.2e} below {NORMALIZATION_TOL}")
    scales = 1.0 / np.sqrt(tnorm.astype(np.complex128))
    V = scipy.linalg.solve_triangular(L.T, Y, lower=False) * scales[None, :]

    lambdas = theta.astype(np.complex128)
    for arr in (lambdas, scales, V):
        arr.flags.writeable = False     # cached bases are shared between plans
    basis = EigenBasis(n=pencil.n, kind="numeric", lambdas=lambdas,
                       scales=scales, vectors=V)
    if cache:
        with _EIGEN_LOCK:
            _EIGEN_CACHE[key] = basis
            while sum(b.vectors.nbytes for b in _EIGEN_CACHE.values()) > EIGEN_CACHE_BYTES:
                _EIGEN_CACHE.popitem(last=False)
    return basis
