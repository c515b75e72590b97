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
    n: int


def pencil_difference(original: Pencil1D, periodic: Pencil1D) -> PencilDifference:
    if original.n != periodic.n:
        raise ValueError("pencil sizes differ")
    ends = [0, original.n - 1]
    dk = np.zeros((2, 2), dtype=np.complex128)
    dm = np.zeros((2, 2), dtype=np.complex128)
    for a, i in enumerate(ends):
        dk[a, a] = periodic.K.diag[i] - original.K.diag[i]
        dm[a, a] = periodic.M.diag[i] - original.M.diag[i]
    dk[0, 1] = dk[1, 0] = periodic.K.corner - 0.0
    dm[0, 1] = dm[1, 0] = periodic.M.corner - 0.0
    dk.flags.writeable = False
    dm.flags.writeable = False
    return PencilDifference(dk=dk, dm=dm, n=original.n)


def _shifted(K: TriCornerMatrix, M: TriCornerMatrix, c: complex) -> TriCornerMatrix:
    """K + c*M as a TriCornerMatrix."""
    return TriCornerMatrix(K.diag + c * M.diag, K.off + c * M.off,
                           corner=K.corner + c * M.corner)


def _separable_terms(p1: Pencil1D, cross: list[Pencil1D], sigma: complex):
    """Terms of (K_1 - sigma M_1) ox M_rest + M_1 ox (sum K_j ox M_rest)."""
    d = 1 + len(cross)
    K1s = _shifted(p1.K, p1.M, -sigma)
    terms = [(1.0 + 0j, tuple([K1s] + [p.M for p in cross]))]
    for j, pj in enumerate(cross):
        factors = [p1.M]
        for i, p in enumerate(cross):
            factors.append(pj.K if i == j else p.M)
        terms.append((1.0 + 0j, tuple(factors)))
    assert all(len(f) == d for _, f in terms)
    return tuple(terms)


def build_operator_A(grid: Grid, omega: float,
                     bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> KroneckerOperator:
    """The discrete Helmholtz operator with bc_x1 on the x_1 ends."""
    p1 = assemble_pencil(grid.n[0], grid.h[0], omega, bc_x1)
    cross = [assemble_pencil(grid.n[j], grid.h[j]) for j in range(1, grid.dims)]
    return KroneckerOperator(grid, _separable_terms(p1, cross, omega ** 2))


def build_operator_B(grid: Grid, omega: float, twist: float = 0.0) -> KroneckerOperator:
    """Auxiliary operator: x_1 pencil replaced by its wrap with phase twist."""
    p1 = assemble_periodic_pencil(grid.n[0], grid.h[0], twist)
    cross = [assemble_pencil(grid.n[j], grid.h[j]) for j in range(1, grid.dims)]
    return KroneckerOperator(grid, _separable_terms(p1, cross, omega ** 2))


class CorrectionMatrix:
    """Boundary-block difference C_bb = B_bb - A_bb in factored form.

    Stored as (dk - sigma dm) ox M_cross + dm ox K_cross, where dk/dm are the
    2 x 2 corner blocks of the swept direction's pencil difference and
    M_cross/K_cross are the mass/stiffness Kronecker combinations over the
    remaining directions.  Application is matrix-free, O(block) per call.
    """

    def __init__(self, diff: PencilDifference, cross: list[Pencil1D], sigma: complex):
        self.sigma = complex(sigma)
        self.dk = diff.dk
        self.dm = diff.dm
        self.cross_shape = tuple(p.n for p in cross)
        self.block = int(np.prod(self.cross_shape))
        self._cross = list(cross)

    def _cross_mass(self, x: np.ndarray) -> np.ndarray:
        # axis 0 of x is the boundary-plane pair; cross directions follow
        for axis, p in enumerate(self._cross):
            x = p.M.apply(x, axis=axis + 1)
        return x

    def _cross_stiff(self, x: np.ndarray) -> np.ndarray:
        acc = None
        for j in range(len(self._cross)):
            t = x
            for axis, p in enumerate(self._cross):
                t = (p.K if axis == j else p.M).apply(t, axis=axis + 1)
            acc = t if acc is None else acc + t
        return acc

    def apply(self, v_b: np.ndarray) -> np.ndarray:
        """Apply to boundary data of shape (2, block) (or flat (2*block,))."""
        flat = v_b.ndim == 1
        v = v_b.reshape((2,) + self.cross_shape)
        Mv = self._cross_mass(v).reshape(2, self.block)
        Kv = self._cross_stiff(v).reshape(2, self.block)
        out = (self.dk - self.sigma * self.dm) @ Mv + self.dm @ Kv
        return out.reshape(-1) if flat else out.reshape(v_b.shape)


def build_correction(diff_1: PencilDifference, cross_pencils: list[Pencil1D],
                     sigma: complex) -> CorrectionMatrix:
    """C_bb for the given shift; sigma = omega^2 for the outer problem."""
    if not cross_pencils:
        raise ValueError("need at least one cross direction")
    return CorrectionMatrix(diff_1, cross_pencils, sigma)
