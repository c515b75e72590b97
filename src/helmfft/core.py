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
import math
import operator
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
        try:                    # operator.index: integers only, numpy's included
            n = tuple(operator.index(k) for k in self.n)
        except TypeError:
            raise ValueError(f"grid sizes must be integers, got {self.n!r}") from None
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

        ``out`` must not share memory with ``x`` (ValueError).  The
        off-diagonal products take one temporary the size of ``x``;
        ``kron_apply`` keeps it small by applying a chunk of x_1 slabs at a
        time.
        """
        x = np.asarray(x)
        if x.shape[axis] != self.n:
            raise ValueError(f"axis {axis} has length {x.shape[axis]}, matrix is {self.n}")
        if out is None:
            out = np.empty_like(x, dtype=np.complex128)
        elif np.may_share_memory(x, out):
            raise ValueError("out shares memory with x")
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
    """(K_1 - sigma M_1) ox M_2 ox ... + sum_{k>1} M_1 ox ... ox K_k ox ... ox M_d.

    Held as one ``assembly.Pencil1D`` per direction and the shift sigma.  A is
    applied matrix-free by ``kron_apply``; ``dense``, for small verification
    problems only, is the one way to apply the auxiliary B.
    """

    grid: Grid
    pencils: tuple
    sigma: complex

    def __post_init__(self):
        if tuple(p.n for p in self.pencils) != self.grid.n:
            raise ValueError(f"pencil sizes {[p.n for p in self.pencils]} "
                             f"do not match grid {self.grid.n}")

    def _factors(self):
        """Each direction's (K, M) in turn, so kron_apply keeps no K; K_1 - sigma M_1 entrywise."""
        for j, p in enumerate(self.pencils):
            K, M = p.K, p.M
            if j == 0:
                c = -self.sigma
                K = TriCornerMatrix(K.diag + c * M.diag, K.off + c * M.off,
                                    corner=K.corner + c * M.corner)
            yield K, M

    def dense(self) -> np.ndarray:
        """Explicit N x N matrix, summed term by term from the Kronecker products."""
        N = self.grid.npoints
        A = np.zeros((N, N), dtype=np.complex128)
        factors = list(self._factors())
        for k in range(self.grid.dims):
            term = np.array([[1.0 + 0j]])
            for j, (K, M) in enumerate(factors):
                term = np.kron(term, (K if j == k else M).dense())
            A += term
        return A


# Scalars of scratch per chunk of x_1 slabs (at least one slab each): the
# pipeline's divisor, or the two ring buffers of T together in the chunk loop
# of kron_apply and the residual (``_chunks``), which then stay in L2 beside
# its two of result rows (a T buffer also holds a halo slab; 3D adds a chunk
# buffer of P).  Step 1 sums the boundary pair chunk by chunk, so a new value
# changes the last bits of every solve.
SLAB_SCRATCH = 1 << 16


def slabs(shape, buffers: int = 1) -> list[slice]:
    """Chunks of the x_1 slabs of ``shape`` for ``buffers`` slab buffers in SLAB_SCRATCH."""
    step = max(1, SLAB_SCRATCH // (buffers * int(np.prod(shape[1:]))))
    return [slice(a, min(a + step, shape[0])) for a in range(0, shape[0], step)]


def _mass_form(K: TriCornerMatrix, M: TriCornerMatrix):
    """(M, delta, beta) with K = diag(delta) - beta M, beta from the first off-diagonals."""
    beta = -K.off[0] / M.off[0]
    return M, K.diag + beta * M.diag, beta


def _chunks(op: KroneckerOperator, X: np.ndarray):
    """Yield ``(s, R)``: rows ``s`` of ``op X``, finished, a chunk of x_1 slabs each.

    ``X`` is a complex field in the grid's shape, in any memory layout.  Each
    K_k is diag(delta_k) - beta_k M_k, with beta_k = -K_k[1, 2] / M_k[1, 2]
    taken from the entries (``_mass_form``; K_1 - sigma M_1 for k = 1), so op
    is sum_k delta_k ox (ox_{j!=k} M_j) - (sum_k beta_k) ox_j M_j.  Per chunk
    (``slabs``), the cross axes run P = M_d x, T = delta_d x - beta P, then, in
    3D, T <- M_2 T + delta_2 P and P <- M_2 P; delta_1 P goes into one of two
    ring buffers of result rows and T into one of two ring buffers that each
    hold a chunk and a halo slab.  The x_1 pass, which adds M_1 T, runs one
    chunk behind: right after the cross passes of the next chunk, which set
    the result's row that the pass also reaches and give the halo its slab of
    T.  So each entry takes its terms in the same order as from a cross pass
    over the whole field and then an x_1 pass, and chunks come out in x_1
    order.  In 3D, P lives in a chunk buffer and the first T in the result
    rows.  ``R`` is a ring buffer, which the caller may overwrite; the chunk
    after next reuses it.  A wrapped x_1 pencil (the auxiliary B, which
    applies only through ``.dense()``) raises ValueError.

    Why this shape: with the x_1 pass first, a chunk would need only its own
    slabs of X, but the default solve's forward error after its pass grew
    5-7 times at omega = 1; chunks along x_2 kept the errors but were 8-18 %
    slower (ROADMAP, "Measured, and not proposed").
    """
    if op.pencils[0].bc == BoundaryKind.PERIODIC:
        raise ValueError("a wrapped x_1 pencil (the auxiliary B) applies only through .dense()")
    shape, d = op.grid.shape, op.grid.dims
    (M1, *Ms), (delta1, *deltas), betas = zip(*(_mass_form(K, M) for K, M in op._factors()))
    beta = sum(betas)
    along = lambda v, axis: v.reshape((-1,) + (1,) * (d - 1 - axis))  # noqa: E731
    chunks = slabs(shape, 2)
    size = (chunks[0].stop,) + shape[1:]
    ring = np.empty((2, size[0] + 1) + shape[1:], dtype=np.complex128)
    rows = np.empty((2,) + size, dtype=np.complex128)
    if d == 3:
        buf = np.empty(size, dtype=np.complex128)
    m, o = along(M1.diag, 0), along(M1.off, 0)
    for k in range(len(chunks) + 1):
        last = k == len(chunks)
        if not last:                        # the cross passes of chunk k
            s = chunks[k]
            n = s.stop - s.start
            T, Y = ring[k % 2, :n], rows[k % 2, :n]
            P, U = (Y, T) if d == 2 else (buf[:n], Y)
            Ms[-1].apply(X[s], d - 1, out=P)
            np.multiply(along(deltas[-1], d - 1), X[s], out=U)
            U -= beta * P
            if d == 3:                      # the one further cross axis, x_2
                Ms[0].apply(U, 1, out=T)
                T += along(deltas[0], 1) * P
                Ms[0].apply(P, 1, out=Y)
            Y *= along(delta1[s], 0)
        if k > 0:                           # then the x_1 pass of chunk k - 1
            s, T = chunks[k - 1], ring[(k - 1) % 2]
            n = s.stop - s.start
            Y = rows[(k - 1) % 2, :n]
            if not last:                    # the halo: chunk k's first slab
                T[n] = ring[k % 2, 0]
            e = n - last                    # off-diagonal entries from this chunk's rows
            Y += m[s] * T[:n]
            Y[1:] += o[s.start:s.stop - 1] * T[:n - 1]
            if not last:
                rows[k % 2, 0] += o[s.stop - 1] * T[n - 1]
            Y[:e] += o[s.start:s.start + e] * T[1:e + 1]
            yield s, Y


def kron_apply(op: KroneckerOperator, x: np.ndarray, out=None) -> np.ndarray:
    """Evaluate ``op x`` in 2(d - 1) one-dimensional passes of mass factors only.

    The passes run over chunks of x_1 slabs in ``_chunks``, whose finished
    chunks are copied out, so the scratch is a few chunks, none of field
    size.  ``x`` is a field vector of length N or the d-dim array, in any
    memory layout (a transposed view included).  The result has the shape of
    ``x`` and goes to ``out`` when given, which must not share memory with
    ``x``.  ``op`` must be A: a wrapped x_1 pencil (B) raises ValueError.
    """
    x = np.asarray(x, dtype=np.complex128)
    shape = op.grid.shape
    if x.shape not in ((op.grid.npoints,), shape):
        raise ValueError(f"field has shape {x.shape}, grid is {shape}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise ValueError(f"out has shape {out.shape}, field has {x.shape}")
    elif np.may_share_memory(x, out):
        raise ValueError("out shares memory with the field")
    # a 1-D array, or one already in the grid's shape, reshapes without a copy
    Y = out.reshape(shape)
    for s, R in _chunks(op, x.reshape(shape)):
        Y[s] = R
    return out


# Relative residual at which defect correction stops; roundoff floor of a pass.
REFINE_STOP_RTOL = 1e-13


def _sumsq(x) -> float:
    """Sum of squares of a contiguous complex128 or float64 ``x``, by einsum.

    Not BLAS, whose idle threads take milliseconds to wake.
    """
    v = x.reshape(-1).view(np.float64)
    return float(np.einsum("i,i", v, v))


def _norm(x) -> float:
    """The 2-norm of ``x``, a chunk of ``slabs`` along its first axis at a time.

    Only a chunk of a strided or non-double ``x`` is copied, never the field.
    """
    x = np.asarray(x)
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    return math.sqrt(sum(_sumsq(np.ascontiguousarray(x[s], dtype=dtype))
                         for s in slabs(x.shape)))


def residual(op: KroneckerOperator, f, u, bound: float = math.inf):
    """``(||r||, r)`` for r = f - op u, with r formed only when ||r|| > ``bound``.

    ``op u`` streams from the chunk loop of ``kron_apply``, and each chunk of
    r adds its sum of squares to the norm.  Once that running sum exceeds
    ``bound``, r is formed as an array in the grid's shape: the rest of it
    goes straight there, and the chunks already passed are recomputed by
    running the loop again up to that point.  Otherwise r is None and no
    field is allocated.
    """
    shape = op.grid.shape
    F, X = np.asarray(f).reshape(shape), np.asarray(u, dtype=np.complex128).reshape(shape)
    total, r, formed = 0.0, None, 0
    for i, (s, R) in enumerate(_chunks(op, X)):
        if r is None:
            np.subtract(F[s], R, out=R)
            total += _sumsq(R)
            if total > bound * bound:
                r, formed = np.empty(shape, dtype=np.complex128), i
                r[s] = R
        else:
            np.subtract(F[s], R, out=r[s])
            total += _sumsq(r[s])
    if formed:
        for _, (s, R) in zip(range(formed), _chunks(op, X)):
            np.subtract(F[s], R, out=r[s])
    return math.sqrt(total), r


def defect_correction(op: KroneckerOperator, f, u, solve, passes: int):
    """Safeguarded defect correction of ``u`` towards ``op u = f``.

    ``solve(r)`` returns an approximate solution of ``op d = r`` and may
    overwrite ``r``.  Each pass costs one solve and one residual; a pass that
    does not reduce the residual norm is dropped and ends the loop, so the
    best iterate is returned.  A residual is formed as a field only when a
    further pass will use it (``residual``); the stop test and the last pass
    take only its norm.  So besides ``f`` and ``u``, one field is live while
    a pass runs (its residual, then the trial iterate) and none otherwise;
    the chunk loop adds only slab-sized buffers.
    """
    if passes <= 0:
        return u
    stop = REFINE_STOP_RTOL * _norm(f)
    best, r = residual(op, f, u, stop)
    for p in range(passes):
        if r is None:                       # at roundoff level, or nothing left to use it
            break
        trial = solve(r)
        del r
        trial += u
        nrm, r = residual(op, f, trial, stop if p + 1 < passes else math.inf)
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


ALLOCATOR_THRESHOLD = 1 << 30      # glibc's mmap and trim thresholds after tune_allocator


def tune_allocator() -> bool:
    """Keep large freed blocks reusable instead of returning them to the OS.

    glibc mmaps/munmaps every allocation above ~128 KiB by default, which makes
    each fresh multi-MB scratch array pay a page-fault storm.  Raising the mmap
    and trim thresholds to ALLOCATOR_THRESHOLD lets repeated solves reuse the
    heap.  No-op (returns False) on non-glibc platforms.
    """
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok1 = libc.mallopt(-1, ALLOCATOR_THRESHOLD)  # M_TRIM_THRESHOLD
        ok2 = libc.mallopt(-3, ALLOCATOR_THRESHOLD)  # M_MMAP_THRESHOLD
        return bool(ok1 and ok2)
    except (OSError, AttributeError):
        return False
