"""Brute-force dense reference: explicit Kronecker assembly plus LAPACK solves.

Everything here is deliberately independent of the fast path (transforms,
closed-form spectra, the boundary recurrence): each pencil's dense K and M,
built from the entries the solver reads (``Pencil1D.K``, ``.M``), are
expanded into Kronecker products and solved with dense partially-pivoted
LU, and pencils are diagonalized by a generic dense eigensolve
(``dense_eigensolve_pencil``).  Only here is the auxiliary B built: A's x_1
factors, wrapped (``wrapped_dense``), in A's dense Kronecker sum.  Used to
generate and check expected values throughout the test suite.  Hard size
caps keep accidental O(N^3) blowups out of CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .assembly import Pencil1D, build_operator_A, wrap_sign
from .core import BoundaryKind, Grid, dense_kron_sum

DENSE_SIZE_CAP = 20_000
EIG_SIZE_CAP = 512


class SizeLimit(RuntimeError):
    """Problem too large for the dense reference path."""


@dataclass(frozen=True)
class DenseProblem:
    grid: Grid
    omega: float
    bc_x1: BoundaryKind
    A: np.ndarray
    twist: float = 0.0

    @cached_property
    def B(self) -> np.ndarray:
        """The dense auxiliary operator, A's with x_1 wrapped by ``twist``; built on first use."""
        A = build_operator_A(self.grid, self.omega, self.bc_x1)
        p1, *cross = A.pencils
        return dense_kron_sum([wrapped_dense(p1, self.twist),
                               *((p.K, p.M) for p in cross)], A.sigma)


def wrapped_dense(pencil: Pencil1D, twist: float):
    """Dense (K, M) of ``pencil`` wrapped with ``twist``, 0 or pi (else ValueError).

    Each one's interior row (o, d, o) is carried to the end rows, and the
    corners get o for twist 0 (circulant) or -o for pi (skew-circulant).
    """
    sign = wrap_sign(twist)
    KM = pencil.K, pencil.M
    for W in KM:
        W[0, 0] = W[-1, -1] = W[1, 1]
        W[[0, -1], [-1, 0]] += sign * W[0, 1]
    return KM


class DenseSolveResult(NamedTuple):
    u: np.ndarray
    residual: float


def dense_problem(grid: Grid, omega: float,
                  bc_x1: BoundaryKind = BoundaryKind.ABSORBING,
                  twist: float = 0.0) -> DenseProblem:
    """Assemble dense A by explicit Kronecker expansion (N <= 20000); B follows on first use.

    B wraps A's x_1 factors with phase ``twist`` (``wrapped_dense``); pass a
    plan's ``twist`` to check against the wrap it chose.
    """
    if grid.npoints > DENSE_SIZE_CAP:
        raise SizeLimit(f"N = {grid.npoints} exceeds dense cap {DENSE_SIZE_CAP}")
    A = build_operator_A(grid, omega, bc_x1).dense()
    return DenseProblem(grid=grid, omega=float(omega), bc_x1=bc_x1, A=A, twist=float(twist))


def dense_solve(problem: DenseProblem, which: str, f: np.ndarray) -> DenseSolveResult:
    """LU solve with partial pivoting against A or B; reports the residual."""
    if which.upper() not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    M = getattr(problem, which.upper())       # B is assembled only when asked for
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    if f.shape[0] != M.shape[0]:
        raise ValueError(f"rhs length {f.shape[0]} does not match N = {M.shape[0]}")
    lu, piv = scipy.linalg.lu_factor(M)
    if np.abs(np.diag(lu)).min() < 1e-14 * np.abs(M).max():
        raise np.linalg.LinAlgError("matrix is numerically singular")
    u = scipy.linalg.lu_solve((lu, piv), f)
    fnorm = np.linalg.norm(f)
    res = np.linalg.norm(M @ u - f) / fnorm if fnorm > 0 else 0.0
    return DenseSolveResult(u=u, residual=float(res))


def dense_partial_solution(problem: DenseProblem, which: str, f: np.ndarray) -> np.ndarray:
    """Full dense solve restricted to the two x_1 boundary planes (length 2 N/n_1)."""
    u = dense_solve(problem, which, f).u
    n1 = problem.grid.n[0]
    block = problem.grid.npoints // n1
    U = u.reshape(n1, block)
    return np.concatenate([U[0], U[-1]])


def dense_eigensolve_pencil(K: np.ndarray, M: np.ndarray):
    """Generalized eigenpairs of (K, M) by the generic dense method (n <= 512).

    Reference for the closed forms (``spectral``); no normalization
    convention is imposed here.
    """
    K = np.asarray(K, dtype=np.complex128)
    M = np.asarray(M, dtype=np.complex128)
    n = K.shape[0]
    if n > EIG_SIZE_CAP:
        raise SizeLimit(f"n = {n} exceeds eigensolve cap {EIG_SIZE_CAP}")
    lam, V = scipy.linalg.eig(K, M)
    if not np.all(np.isfinite(lam)):
        raise np.linalg.LinAlgError("generalized eigensolve did not converge")
    order = np.lexsort((lam.imag, lam.real))
    return lam[order], V[:, order]
