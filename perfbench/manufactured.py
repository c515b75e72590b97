"""Manufactured solutions, built apart from helmfft.

The discrete Helmholtz operator is assembled here from the closed-form 1D
element matrices of linear elements; their tensor products are the bilinear
(2D) and trilinear (3D) element matrices.  The absorbing condition adds
``-i omega`` to the two corner entries of the x_1 stiffness matrix.  The
operator is applied one axis at a time with ``scipy.sparse``; nothing here
imports ``helmfft.assembly`` or ``helmfft.core``.

A benchmark solve is checked against the solution it was manufactured from:
it fails if it returns a non-finite value or if its relative forward error
exceeds ``TOLERANCE`` (the README gives the reasoning for that value).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TOLERANCE = 1e-3


def pencil_1d(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Stiffness and mass matrices of n points on [0, 1], Neumann ends.

    Sums the element matrices [[1, -1], [-1, 1]] / h and
    [[2, 1], [1, 2]] h / 6 over the n - 1 elements.
    """
    h = 1.0 / (n - 1)
    e = np.arange(n - 1)
    rows = np.concatenate([e, e, e + 1, e + 1])
    cols = np.concatenate([e, e + 1, e, e + 1])
    ones = np.ones(n - 1)
    k = np.concatenate([ones, -ones, -ones, ones]) / h
    m = np.concatenate([2 * ones, ones, ones, 2 * ones]) * h / 6
    K = sp.coo_matrix((k, (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m, (rows, cols)), shape=(n, n)).tocsr()
    return K.astype(np.complex128), M.astype(np.complex128)


class HelmholtzOperator:
    """``-Delta - omega^2`` on the unit box, x_1 slowest in the flat layout.

    A = (K_1 - omega^2 M_1) (x) M_2 [(x) M_3] + M_1 (x) K_2 [(x) M_3]
        [+ M_1 (x) M_2 (x) K_3], with absorbing (default) or Neumann x_1 ends
    and Neumann ends in the cross directions.
    """

    def __init__(self, shape, omega: float, absorbing: bool = True):
        self.shape = tuple(int(n) for n in shape)
        pencils = [pencil_1d(n) for n in self.shape]
        K1, M1 = pencils[0]
        K1 = K1.tolil()
        if absorbing:
            K1[0, 0] += -1j * omega
            K1[-1, -1] += -1j * omega
        first = [(K1.tocsr() - omega ** 2 * M1).tocsr(), M1]
        # term j carries the stiffness factor on axis j, mass factors elsewhere
        self.terms = []
        for j in range(len(self.shape)):
            factors = [first[0] if j == 0 else first[1]]
            factors += [K if i == j else M
                        for i, (K, M) in enumerate(pencils[1:], start=1)]
            self.terms.append(factors)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def apply(self, u: np.ndarray) -> np.ndarray:
        U = np.asarray(u, dtype=np.complex128).reshape(self.shape)
        out = np.zeros(self.shape, dtype=np.complex128)
        for factors in self.terms:
            T = U
            for axis, F in enumerate(factors):
                T = _apply_axis(F, T, axis)
            out += T
        return out.reshape(-1)

    def matrix(self) -> sp.csc_matrix:
        """The assembled sparse matrix; for small grids."""
        A = None
        for factors in self.terms:
            T = factors[0]
            for F in factors[1:]:
                T = sp.kron(T, F, format="csr")
            A = T if A is None else A + T
        return A.tocsc()


def _apply_axis(F: sp.csr_matrix, X: np.ndarray, axis: int) -> np.ndarray:
    Xm = np.moveaxis(X, axis, 0)
    Y = F @ Xm.reshape(Xm.shape[0], -1)
    return np.moveaxis(Y.reshape(Xm.shape), 0, axis)


def manufacture(op: HelmholtzOperator, rng: np.random.Generator):
    """A random complex solution u* and its right-hand side f = A u*."""
    u = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    return op.apply(u), u


def forward_error(u: np.ndarray, u_star: np.ndarray) -> float:
    """Relative 2-norm forward error; inf if u holds a non-finite value."""
    u = np.asarray(u)
    if u.shape != u_star.shape or not np.isfinite(u).all():
        return float("inf")
    return float(np.linalg.norm(u - u_star) / np.linalg.norm(u_star))


def passes(error: float) -> bool:
    return error <= TOLERANCE
