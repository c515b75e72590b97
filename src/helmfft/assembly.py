"""The 1D stiffness/mass pencils and the separable operator built from them.

The 1D element matrices on a uniform mesh are closed-form: interior stiffness
rows are (-1, 2, -1)/h and interior mass rows are (1, 4, 1) h/6.  Boundary
rows encode the boundary condition; the absorbing condition only changes the
two corner entries of K to (1 - i omega h)/h, while M is identical for Neumann
and absorbing ends.  So with the integer stencil T = tridiag(1, 4, 1), 2 at
the ends, M = (h/6) T and K = (D - T)/h for a diagonal D: 6 inside, 3 at the
ends and 3 - i omega h at absorbing ones (``Pencil1D.D``).  So ``Pencil1D``
holds only n, h, the boundary kind and omega, and the operator A holds one
pencil per direction and sigma.  Each of K and M is three numbers, its end
entry, interior diagonal and off-diagonal (``Pencil1D.entries``, formed
from the stencil): these are what the solver reads, and the matrices ``K``
and ``M`` serve only the dense reference.  The auxiliary problem's x_1
pencil is A's with its interior row carried to the end rows and wrap-around
corners o times ``wrap_sign(twist)``: o for the periodic wrap (circulant),
-o for the anti-periodic one (skew-circulant).  The twist alone fixes it,
so no pencil or operator holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryKind, Grid, KroneckerOperator, TriCornerMatrix


def wrap_sign(twist: float) -> float:
    """The sign of the auxiliary wrap's corners: 1 for twist 0, -1 for pi; else ValueError."""
    if twist not in (0.0, np.pi):
        raise ValueError(f"the wrap twist must be 0 or pi, got {twist}")
    return 1.0 if twist == 0.0 else -1.0


@dataclass(frozen=True)
class Pencil1D:
    """The (stiffness, mass) pencil of one direction, held as the scalars that fix it.

    The solver reads K's and M's entries as numbers (``entries``); ``K`` and
    ``M`` build the matrices on each access, in O(n), for the dense
    reference.  ``omega`` only enters D's absorbing ends.
    """

    n: int
    h: float
    bc: BoundaryKind
    omega: float = 0.0

    def __post_init__(self):
        if not isinstance(self.bc, BoundaryKind):
            raise ValueError(f"bc must be a BoundaryKind, got {self.bc!r}")
        if self.n < 3:
            raise ValueError(f"pencil needs n >= 3, got {self.n}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"mesh size must be positive and finite, got {self.h}")
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")

    @property
    def entries(self) -> tuple[tuple, tuple]:
        """(end, interior diagonal, off-diagonal) of K and of M; K's end is (D_end - 2)/h."""
        h = self.h
        return (((complex(self.D_end) - 2.0) / h, 2.0 / h, -1.0 / h),
                (2.0 * h / 6.0, 4.0 * h / 6.0, h / 6.0))

    def _matrix(self, which: int) -> TriCornerMatrix:
        end, d, o = self.entries[which]
        diag = np.full(self.n, d, dtype=np.complex128)
        diag[0] = diag[-1] = end
        return TriCornerMatrix(diag, np.full(self.n - 1, o, dtype=np.complex128))

    K = property(lambda self: self._matrix(0))
    M = property(lambda self: self._matrix(1))

    @property
    def D_end(self) -> complex:
        """The end entry of D: 3, or 3 - i omega h at absorbing ends."""
        return 3.0 - 1j * self.omega * self.h if self.bc == BoundaryKind.ABSORBING else 3.0

    @property
    def D(self) -> np.ndarray:
        """The diagonal D of K = (D - T)/h, M = (h/6) T."""
        return np.pad(np.full(self.n - 2, 6.0 + 0j), 1, constant_values=self.D_end)


def assemble_pencil(n: int, h: float, omega: float = 0.0,
                    bc: BoundaryKind = BoundaryKind.NEUMANN) -> Pencil1D:
    """The 1D pencil for a Neumann or absorbing direction."""
    return Pencil1D(n, h, bc, float(omega))


def build_operator_A(grid: Grid, omega: float,
                     bc_x1: BoundaryKind = BoundaryKind.ABSORBING) -> KroneckerOperator:
    """The discrete Helmholtz operator with bc_x1 on the x_1 ends."""
    p1 = assemble_pencil(grid.n[0], grid.h[0], omega, bc_x1)
    cross = [assemble_pencil(grid.n[j], grid.h[j]) for j in range(1, grid.dims)]
    return KroneckerOperator(grid, (p1, *cross), omega ** 2)
