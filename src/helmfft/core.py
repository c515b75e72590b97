"""Grids, boundary kinds, and the structured 1D matrices shared by all solvers.

Field vectors are plain 1-D complex ndarrays of length N = prod(n_j), stored in
lexicographic order with x_1 slowest and x_d fastest.  With that ordering a
Kronecker factor acting on direction j applies along axis j of the reshaped
``(n_1, ..., n_d)`` array, and "(F_1 otimes I)" products act on contiguous
slabs.  All scalars are complex double precision throughout, even for purely
real matrices, so there is a single code path.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Relative size below which a pivot or eigenvalue of a diagonal block counts
# as singular.
PIVOT_RTOL = 1e-14


class SingularBlock(RuntimeError):
    """A diagonal block of the transformed system is numerically singular."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class BoundaryKind(Enum):
    ABSORBING = "absorbing"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the unit d-rectangle, n_j points per direction."""

    n: tuple[int, ...]

    def __post_init__(self):
        n = tuple(int(k) for k in self.n)
        object.__setattr__(self, "n", n)
        if len(n) not in (2, 3):
            raise ValueError(f"grid must be 2- or 3-dimensional, got {len(n)} directions")
        if any(k < 3 for k in n):
            raise ValueError(f"need at least 3 points per direction, got {n}")

    @property
    def dims(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(1.0 / (k - 1) for k in self.n)

    @property
    def npoints(self) -> int:
        N = 1
        for k in self.n:
            N *= k
        return N

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n


class TriCornerMatrix:
    """Symmetric tridiagonal matrix with (optionally) equal wrap-around corners.

    Covers every 1D matrix used here: stiffness/mass pencils with Neumann or
    absorbing boundary rows (corner = 0) and their periodic circulant
    counterparts (corner != 0).  Symmetry is structural: only one off-diagonal
    and one corner value are stored.
    """

    __slots__ = ("n", "diag", "off", "corner")

    def __init__(self, diag, off, corner=0.0):
        self.diag = np.asarray(diag, dtype=np.complex128)
        self.off = np.asarray(off, dtype=np.complex128)
        self.n = self.diag.shape[0]
        if self.off.shape != (self.n - 1,):
            raise ValueError(f"off-diagonal must have length {self.n - 1}, got {self.off.shape}")
        self.corner = complex(corner)
        self.diag.flags.writeable = False
        self.off.flags.writeable = False

    @property
    def max_abs(self) -> float:
        m = max(np.abs(self.diag).max(), np.abs(self.off).max())
        return float(max(m, abs(self.corner)))

    def apply(self, x: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        """Apply the matrix along ``axis`` of ``x``, into ``out`` when given.

        ``out`` must not alias ``x``.  The off-diagonal products take one
        temporary the size of ``x``; ``kron_apply`` keeps it small by applying
        a chunk of x_1 slabs at a time.
        """
        x = np.asarray(x)
        if x.shape[axis] != self.n:
            raise ValueError(f"axis {axis} has length {x.shape[axis]}, matrix is {self.n}")
        if out is None:
            out = np.empty_like(x, dtype=np.complex128)
        xm, ym = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
        shp = (self.n,) + (1,) * (xm.ndim - 1)
        o = self.off.reshape((self.n - 1,) + shp[1:])
        np.multiply(self.diag.reshape(shp), xm, out=ym)
        ym[1:] += o * xm[:-1]
        ym[:-1] += o * xm[1:]
        if self.corner != 0.0:
            ym[0] += self.corner * xm[-1]
            ym[-1] += self.corner * xm[0]
        return np.moveaxis(ym, 0, axis)

    def dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.complex128)
        np.fill_diagonal(A, self.diag)
        idx = np.arange(self.n - 1)
        A[idx, idx + 1] = self.off
        A[idx + 1, idx] = self.off
        A[0, -1] += self.corner
        A[-1, 0] += self.corner
        return A

    def __repr__(self):
        return f"TriCornerMatrix(n={self.n}, corner={self.corner})"


@dataclass(frozen=True)
class KroneckerOperator:
    """The separable operator sum_k M_1 ox ... ox M_{k-1} ox K_k ox M_{k+1} ox ... ox M_d.

    ``pairs`` holds one ``(K, M)`` pair of TriCornerMatrix per direction; for
    the Helmholtz operator A the first is (K_1 - sigma M_1, M_1).  The
    operator is applied matrix-free by ``kron_apply``; ``dense`` is for
    small verification problems only.
    """

    grid: Grid
    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) != self.grid.dims:
            raise ValueError("the operator needs exactly one (K, M) pair per direction")
        for (K, M), n in zip(self.pairs, self.grid.n):
            if K.n != n or M.n != n:
                raise ValueError(f"pair sizes {K.n}, {M.n} do not match grid {self.grid.n}")

    def dense(self) -> np.ndarray:
        """Explicit N x N matrix, summed term by term from the Kronecker products."""
        N = self.grid.npoints
        A = np.zeros((N, N), dtype=np.complex128)
        for k in range(self.grid.dims):
            term = np.array([[1.0 + 0j]])
            for j, (K, M) in enumerate(self.pairs):
                term = np.kron(term, (K if j == k else M).dense())
            A += term
        return A


# Scalars of scratch per chunk of x_1 slabs (at least one slab each): the
# pipeline's divisor, or kron_apply's two slab buffers together, which then
# stay in L2.  Step 1 sums the boundary pair chunk by chunk, so a new value
# changes the last bits of every solve.
SLAB_SCRATCH = 1 << 16


def slabs(shape, buffers: int = 1) -> list[slice]:
    """Chunks of the x_1 slabs of ``shape`` for ``buffers`` slab buffers in SLAB_SCRATCH."""
    step = max(1, SLAB_SCRATCH // (buffers * int(np.prod(shape[1:]))))
    return [slice(a, min(a + step, shape[0])) for a in range(0, shape[0], step)]


def _mass_split(K: TriCornerMatrix, M: TriCornerMatrix):
    """(delta, beta) with K = diag(delta) - beta M; ValueError if K has no such form."""
    k, m = np.append(K.off, K.corner), np.append(M.off, M.corner)
    i = np.argmax(np.abs(m))
    beta = -k[i] / m[i] if m[i] else 0.0
    if np.abs(k + beta * m).max() > 1e-14 * np.abs(k).max():
        raise ValueError("a K factor is not diag(delta) - beta M of its pair")
    return K.diag + beta * M.diag, beta


def kron_apply(op: KroneckerOperator, x: np.ndarray, out=None) -> np.ndarray:
    """Evaluate ``op x`` in 2(d - 1) one-dimensional passes of mass factors only.

    Each K_k is diag(delta_k) - beta_k M_k (``_mass_split``), so op is
    sum_k delta_k ox (ox_{j!=k} M_j) - (sum_k beta_k) ox_j M_j.  Per chunk of
    x_1 slabs (``slabs``), the cross axes run P = M_d x, T = delta_d x - beta P,
    then, in 3D, T <- M_2 T + delta_2 P and P <- M_2 P; T goes to the one
    field-sized scratch array and delta_1 P straight into the result.  A last
    chunked x_1 pass adds M_1 T, corners included.  In 3D, P and T first live
    in two slab buffers.  ``x`` is a field vector of length N or the d-dim
    array, in any memory layout (a transposed view included).  The result has
    the shape of ``x`` and goes to ``out`` when given, which must not alias
    ``x``.  Raises ValueError for a pair without that form.
    """
    x = np.asarray(x, dtype=np.complex128)
    shape, d = op.grid.shape, op.grid.dims
    if x.shape not in ((op.grid.npoints,), shape):
        raise ValueError(f"field has shape {x.shape}, grid is {shape}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise ValueError(f"out has shape {out.shape}, field has {x.shape}")
    (delta1, *deltas), betas = zip(*(_mass_split(K, M) for K, M in op.pairs))
    beta = sum(betas)
    M1, *Ms = (M for _, M in op.pairs)
    along = lambda v, axis: v.reshape((-1,) + (1,) * (d - 1 - axis))  # noqa: E731
    # a 1-D array, or one already in the grid's shape, reshapes without a copy
    X, Y = x.reshape(shape), out.reshape(shape)
    S, chunks = np.empty_like(X), slabs(shape, 2)
    if d == 3:
        bufs = np.empty((2, chunks[0].stop) + shape[1:], dtype=np.complex128)
    for s in chunks:
        P, T = (Y[s], S[s]) if d == 2 else bufs[:, :s.stop - s.start]
        Ms[-1].apply(X[s], d - 1, out=P)
        np.multiply(along(deltas[-1], d - 1), X[s], out=T)
        T -= beta * P
        if d == 3:                          # the one further cross axis, x_2
            Ms[0].apply(T, 1, out=S[s])
            S[s] += along(deltas[0], 1) * P
            Ms[0].apply(P, 1, out=Y[s])
        Y[s] *= along(delta1[s], 0)
    m, o = along(M1.diag, 0), along(M1.off, 0)
    for s in chunks:
        t = slice(s.start, min(s.stop, M1.n - 1))     # off-diagonal entries
        Y[s] += m[s] * S[s]
        Y[t.start + 1:t.stop + 1] += o[t] * S[t]
        Y[t] += o[t] * S[t.start + 1:t.stop + 1]
    if M1.corner != 0.0:
        Y[0] += M1.corner * S[-1]
        Y[-1] += M1.corner * S[0]
    return out


# Relative residual at which defect correction stops; roundoff floor of a pass.
REFINE_STOP_RTOL = 1e-13


def residual(op: KroneckerOperator, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``f - op u`` in a new array laid out like ``u``."""
    r = kron_apply(op, u, out=np.empty_like(u))
    np.subtract(f, r, out=r)
    return r


def defect_correction(op: KroneckerOperator, f, u, solve, passes: int):
    """Safeguarded defect correction of ``u`` towards ``op u = f``.

    ``solve(r)`` returns an approximate solution of ``op d = r`` and may
    overwrite ``r``.  Each pass costs one solve and one residual; a pass that
    does not reduce the residual norm is dropped and ends the loop, so the
    best iterate is returned.  Besides ``f`` and ``u``, at most the trial
    iterate, its residual and the residual's one scratch array are live.
    """
    if passes <= 0:
        return u
    fnorm = np.linalg.norm(f)
    r = residual(op, f, u)
    best = np.linalg.norm(r)
    for _ in range(passes):
        if best <= REFINE_STOP_RTOL * fnorm:
            break
        trial = solve(r)
        del r
        trial += u
        r = residual(op, f, trial)
        nrm = np.linalg.norm(r)
        if not nrm < best:
            break
        u, best = trial, nrm
        del trial
    return u


def checked_field(x, size: int, name: str = "f") -> np.ndarray:
    """``x`` as an array, after checking that it has ``size`` entries, all finite."""
    x = np.asarray(x)
    if x.size != size:
        raise ValueError(f"{name} has {x.size} entries, expected {size}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def freeze_arrays(values) -> None:
    """Make the arrays among ``values``, and inside tuples among them, read-only."""
    for val in values:
        if isinstance(val, np.ndarray):
            val.flags.writeable = False
        elif isinstance(val, tuple):
            freeze_arrays(val)


def tune_allocator(threshold: int = 1 << 30) -> bool:
    """Keep large freed blocks reusable instead of returning them to the OS.

    glibc mmaps/munmaps every allocation above ~128 KiB by default, which makes
    each fresh multi-MB scratch array pay a page-fault storm.  Raising the mmap
    and trim thresholds lets repeated solves reuse the heap.  No-op (returns
    False) on non-glibc platforms.
    """
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok1 = libc.mallopt(-1, threshold)  # M_TRIM_THRESHOLD
        ok2 = libc.mallopt(-3, threshold)  # M_MMAP_THRESHOLD
        return bool(ok1 and ok2)
    except (OSError, AttributeError):
        return False
