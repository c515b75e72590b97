"""Brute-force dense reference: explicit Kronecker assembly plus LAPACK solves.

Everything here is deliberately independent of the fast path (transforms,
block factorizations, the boundary recurrence): matrices are expanded
entrywise from the separable definitions and solved with dense
partially-pivoted LU, and pencils are diagonalized densely.  Only here is
the auxiliary B built: A's x_1 factors, wrapped (``wrapped_dense``), in A's
dense Kronecker sum.  Used to generate and check expected values throughout
the test suite.  Hard size caps keep accidental O(N^3) blowups out of CI.
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
NORMALIZATION_TOL = 1e-12


class SizeLimit(RuntimeError):
    """Problem too large for the dense reference path."""


class EigensolverFailure(RuntimeError):
    """Dense eigensolver did not converge."""


class NormalizationFailure(RuntimeError):
    """An eigenvector has a quasi-null T-norm and cannot be M-normalized."""


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
                               *((p.K.dense(), p.M.dense()) for p in cross)], A.sigma)


def wrapped_dense(pencil: Pencil1D, twist: float):
    """Dense (K, M) of ``pencil`` wrapped with ``twist``, 0 or pi (else ValueError).

    Each one's interior row (o, d, o) is carried to the end rows, and the
    corners get o for twist 0 (circulant) or -o for pi (skew-circulant).
    """
    sign = wrap_sign(twist)
    KM = pencil.K.dense(), pencil.M.dense()
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

    Reference for the closed forms and the normalized pencil solver; no
    normalization convention is imposed here.
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


class PencilEigen(NamedTuple):
    lambdas: np.ndarray     # ascending by real, then imaginary part
    vectors: np.ndarray     # columns, normalized so that V^T M V = I


def solve_pencil_eigen(pencil: Pencil1D) -> PencilEigen:
    """Full eigendecomposition K V = M V Lambda of a Neumann or absorbing pencil.

    The generalized problem is reduced to a standard one through a Cholesky
    factor of the real SPD mass matrix, solved densely, and the
    eigenvectors are rescaled so that V^T M V = I (plain transpose; the pencil
    is complex symmetric, not Hermitian).
    """
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
    return PencilEigen(lambdas=theta.astype(np.complex128), vectors=V)
