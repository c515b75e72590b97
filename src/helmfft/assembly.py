"""Assembly of the 1D stiffness/mass pencils and the separable operators.

The 1D element matrices on a uniform mesh are closed-form: interior stiffness
rows are (-1, 2, -1)/h and interior mass rows are (1, 4, 1) h/6.  Boundary
rows encode the boundary condition; the absorbing condition only changes the
two corner entries of K to (1 - i omega h)/h, while M is identical for Neumann
and absorbing ends.  The auxiliary pencils have the same interior rows and
wrap-around corners: equal to the interior off-diagonal for the periodic wrap
(circulant), of opposite sign for the anti-periodic one (skew-circulant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryKind, Grid, KroneckerOperator, TriCornerMatrix


@dataclass(frozen=True)
class Pencil1D:
    """A (stiffness, mass) pair for one direction with its boundary condition."""

    K: TriCornerMatrix
    M: TriCornerMatrix
    bc: BoundaryKind
    n: int
    h: float
    omega: float = 0.0
    twist: float = 0.0      # wrap phase of an auxiliary pencil: 0 or pi


def assemble_pencil(n: int, h: float, omega: float = 0.0,
                    bc: BoundaryKind = BoundaryKind.NEUMANN) -> Pencil1D:
    """Build the 1D pencil for a Neumann or absorbing direction.

    omega only enters through the absorbing corner entries of K.
    """
    if n < 3:
        raise ValueError(f"pencil needs n >= 3, got {n}")
    if h <= 0:
        raise ValueError(f"mesh size must be positive, got {h}")
    if bc == BoundaryKind.PERIODIC:
        raise ValueError("use assemble_periodic_pencil for periodic pencils")

    kdiag = np.full(n, 2.0 / h, dtype=np.complex128)
    koff = np.full(n - 1, -1.0 / h, dtype=np.complex128)
    if bc == BoundaryKind.ABSORBING:
        kdiag[0] = kdiag[-1] = (1.0 - 1j * omega * h) / h
    else:
        kdiag[0] = kdiag[-1] = 1.0 / h

    mdiag = np.full(n, 4.0 * h / 6.0, dtype=np.complex128)
    mdiag[0] = mdiag[-1] = 2.0 * h / 6.0
    moff = np.full(n - 1, h / 6.0, dtype=np.complex128)

    return Pencil1D(K=TriCornerMatrix(kdiag, koff),
                    M=TriCornerMatrix(mdiag, moff),
                    bc=bc, n=n, h=h, omega=float(omega))


def assemble_periodic_pencil(n: int, h: float, twist: float = 0.0) -> Pencil1D:
    """Stiffness/mass pencil of the auxiliary problem wrapped with phase twist.

    twist = 0 gives the periodic (circulant) wrap; twist = pi the anti-periodic
    (skew-circulant) one, whose corners are the negated off-diagonal.  Both
    stay real symmetric, so one corner value describes them.
    """
    if n < 3:
        raise ValueError(f"pencil needs n >= 3, got {n}")
    if twist not in (0.0, np.pi):
        raise ValueError(f"the wrap twist must be 0 or pi, got {twist}")
    sign = 1.0 if twist == 0.0 else -1.0
    kdiag = np.full(n, 2.0 / h, dtype=np.complex128)
    koff = np.full(n - 1, -1.0 / h, dtype=np.complex128)
    mdiag = np.full(n, 4.0 * h / 6.0, dtype=np.complex128)
    moff = np.full(n - 1, h / 6.0, dtype=np.complex128)
    return Pencil1D(K=TriCornerMatrix(kdiag, koff, corner=-sign / h),
                    M=TriCornerMatrix(mdiag, moff, corner=sign * h / 6.0),
                    bc=BoundaryKind.PERIODIC, n=n, h=h, twist=float(twist))


@dataclass(frozen=True)
class PencilDifference:
    """Corner blocks of (periodic - original) for one direction.

    The difference is nonzero only on the 2 x 2 index set {1, n}; dk and dm
    are those corner blocks, ordered (low end, high end).
    """

    dk: np.ndarray  # (2, 2) complex
    dm: np.ndarray  # (2, 2) complex


def pencil_difference(original: Pencil1D, periodic: Pencil1D) -> PencilDifference:
    if original.n != periodic.n:
        raise ValueError("pencil sizes differ")
    blocks = []
    for aux, orig in ((periodic.K, original.K), (periodic.M, original.M)):
        c = np.zeros((2, 2), dtype=np.complex128)
        c[0, 0], c[1, 1] = aux.diag[0] - orig.diag[0], aux.diag[-1] - orig.diag[-1]
        c[0, 1] = c[1, 0] = aux.corner
        c.flags.writeable = False
        blocks.append(c)
    return PencilDifference(*blocks)


def _shifted(K: TriCornerMatrix, M: TriCornerMatrix, c: complex) -> TriCornerMatrix:
    """K + c*M as a TriCornerMatrix."""
    return TriCornerMatrix(K.diag + c * M.diag, K.off + c * M.off,
                           corner=K.corner + c * M.corner)


def separable_operator(grid: Grid, p1: Pencil1D, cross, sigma: complex) -> KroneckerOperator:
    """(K_1 - sigma M_1) ox M_2 ox ... + M_1 ox K_2 ox ... + ..., as d (K, M) pairs."""
    return KroneckerOperator(grid, ((_shifted(p1.K, p1.M, -sigma), p1.M),)
                             + tuple((p.K, p.M) for p in cross))


def build_operator_A(grid: Grid, omega: float,
                     bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> KroneckerOperator:
    """The discrete Helmholtz operator with bc_x1 on the x_1 ends."""
    p1 = assemble_pencil(grid.n[0], grid.h[0], omega, bc_x1)
    cross = [assemble_pencil(grid.n[j], grid.h[j]) for j in range(1, grid.dims)]
    return separable_operator(grid, p1, cross, omega ** 2)


def build_operator_B(grid: Grid, omega: float, twist: float = 0.0) -> KroneckerOperator:
    """Auxiliary operator: x_1 pencil replaced by its wrap with phase twist."""
    p1 = assemble_periodic_pencil(grid.n[0], grid.h[0], twist)
    cross = [assemble_pencil(grid.n[j], grid.h[j]) for j in range(1, grid.dims)]
    return separable_operator(grid, p1, cross, omega ** 2)
