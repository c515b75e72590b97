"""Grids, boundary kinds, and the operator A, applied matrix-free, with its residual.

Field vectors are plain 1-D complex ndarrays of length N = prod(n_j), stored in
lexicographic order with x_1 slowest and x_d fastest.  With that ordering a
Kronecker factor acting on direction j applies along axis j of the reshaped
``(n_1, ..., n_d)`` array, and "(F_1 otimes I)" products act on contiguous
slabs.  All scalars are complex double precision throughout, even for purely
real matrices, so there is a single code path.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._tridiag import TriCornerMatrix  # noqa: F401  (perfbench traces its apply)

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
        return math.prod(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n


@dataclass(frozen=True)
class KroneckerOperator:
    """(K_1 - sigma M_1) ox M_2 ox ... + sum_{k>1} M_1 ox ... ox K_k ox ... ox M_d.

    Held as one ``assembly.Pencil1D`` per direction and the shift sigma: this
    is A, which ``kron_apply`` applies matrix-free from the pencils' integer
    stencils.  The auxiliary B is no operator here: its x_1 pencil is A's,
    twisted, and only the dense oracle forms it (``oracle.DenseProblem.B``).
    """

    grid: Grid
    pencils: tuple
    sigma: complex

    def __post_init__(self):
        if tuple(p.n for p in self.pencils) != self.grid.n:
            raise ValueError(f"pencil sizes {[p.n for p in self.pencils]} "
                             f"do not match grid {self.grid.n}")

    def dense(self) -> np.ndarray:
        """Explicit N x N matrix, for small verification problems only."""
        return dense_kron_sum([(p.K, p.M) for p in self.pencils], self.sigma)


def dense_kron_sum(factors, sigma) -> np.ndarray:
    """The Kronecker sum of ``KroneckerOperator`` as a dense N x N matrix.

    ``factors`` holds a dense (K_k, M_k) per direction, x_1 first: A's, or
    the wrapped x_1 pair of the oracle's B.
    """
    (K1, M1), *cross = factors
    factors = [(K1 - sigma * M1, M1), *cross]
    one = np.ones((1, 1), dtype=np.complex128)
    return sum(functools.reduce(np.kron, [K if j == k else M for j, (K, M) in enumerate(factors)],
                                one) for k in range(len(factors)))


# Bytes of chunk scratch that one slab loop of a solve may hold: the three
# chunk buffers of ``_chunks`` (the residual and kron_apply), the divisor and
# product chunks of the pipeline's step 1, or the one chunk of its step 3,
# which holds the boundary update and then the divisor.  A loop takes whole
# x_1 slabs, at least one per chunk, so where a slab alone is over budget its
# chunks are single slabs.  Step 1 and the residual norm sum chunk by chunk,
# so a new value changes the last bits of every solve.
SLAB_SCRATCH = 1 << 18


def slabs(shape, point_bytes: int = 16) -> list[slice]:
    """Chunks of the x_1 slabs of ``shape``, at ``point_bytes`` per point in SLAB_SCRATCH."""
    step = max(1, SLAB_SCRATCH // (point_bytes * math.prod(shape[1:])))
    return [slice(a, min(a + step, shape[0])) for a in range(0, shape[0], step)]


@contextlib.contextmanager
def unbuffered():
    """Run numpy's ufuncs with their smallest buffer, 16 elements, in a slab loop that never casts.

    An operand that broadcasts over a chunk's slabs (a column along x_1 or a
    cross plane) needs no buffer, but numpy copies it into one of up to 8192
    elements to run the rows of several slabs as one inner loop: up to 0.25
    MB of scratch per call, and at 1025^2 up to three times slower than
    running each row in place.  A cast would run 16 elements at a time, so
    the loop's operands share one dtype.
    """
    size = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(size)


class _Buffer(NamedTuple):
    """A contiguous complex chunk buffer with its flat complex and flat float64 views."""

    z: np.ndarray
    flat: np.ndarray
    real: np.ndarray

    @classmethod
    def of(cls, z):
        flat = z.reshape(-1)
        return cls(z, flat, flat.view(np.float64))


def _tri(x, axis: int, out, rows: slice = slice(None)) -> None:
    """``out`` = rows ``rows`` of T x along ``axis``, T = tridiag(1, 4, 1) with 2 at the ends.

    Each row adds its left neighbour, then its right one.  Along x_1 (axis
    0) ``x`` is a field in any layout and ``out`` a chunk of ``rows``.  Along
    a cross axis both are ``_Buffer``s: the neighbours are the flat arrays
    shifted by the axis's stride, which numpy adds without buffering, and
    the two end rows, where the shift runs across a line, are formed again.
    """
    if axis == 0:
        n = x.shape[0]
        a, b, _ = rows.indices(n)
        np.multiply(x[a:b], 4.0, out=out)
        if a == 0:
            np.multiply(x[0], 2.0, out=out[0])
        if b == n:
            np.multiply(x[n - 1], 2.0, out=out[-1])
        lo, hi = max(a, 1), min(b, n - 1)
        out[lo - a:] += x[lo - 1:b - 1]
        out[:hi - a] += x[a + 1:hi + 1]
        return
    n = x.z.shape[axis]
    step = x.flat.size // math.prod(x.z.shape[:axis + 1])
    np.multiply(x.real, 4.0, out=out.real)
    out.flat[step:] += x.flat[:-step]
    out.flat[:-step] += x.flat[step:]
    at = (slice(None),) * axis
    ends = at + (slice(None, None, n - 1),)
    np.multiply(x.z[ends], 2.0, out=out.z[ends])
    out.z[at + (0,)] += x.z[at + (1,)]
    out.z[at + (n - 1,)] += x.z[at + (n - 2,)]


def _chunks(op: KroneckerOperator, X: np.ndarray):
    """Yield ``(s, R)``: rows ``s`` of ``op X``, a chunk of x_1 slabs each, in x_1 order.

    ``X`` is a complex field in the grid's shape, in any memory layout.  Each
    pencil is K_k = (D_k - T)/h_k and M_k = (h_k/6) T (``assembly``), so with
    w_k = 6/h_k^2, op / prod_k (h_k/6) is w_1 (D_1 - T) ox T ox .. - sigma
    T ox .. ox T plus, for each k > 1, w_k T ox .. (D_k - T) .. ox T.  Per
    chunk (``slabs``), the x_1 pass forms Q = T X from the chunk's rows of X
    and one neighbour row on each side, and V = w_1 (D_1 X - Q) - sum_{k>1}
    w_k Q - sigma Q; cross pass k takes V <- T V + w_k D_k Q and, but for the
    last, Q <- T Q; the scale prod_k h_k/6 comes once, at the end.  Each w_k
    multiplies only its own D_k and T parts and sigma stays a term of its
    own: rounding the entries of K_1 - sigma M_1 first shifts sigma by about
    eps 12/h_1^2, which left 3e-12 to 9e-11 of forward error after a
    refinement pass at 257^2 and 1025^2.

    The scratch is three chunk buffers, in 2D and 3D alike, and no pass
    takes a temporary: T V goes to the free buffer, then T Q to V's.  D_k
    is 6 inside, so it and the real scalars multiply the buffers' float
    views, and its two end rows take D_k's end entry over 6 (1/2 at Neumann
    ends, exactly).  Each buffer's views are made once per chunk length, so
    a chunk costs its ufunc calls and little else.  ``R`` is a chunk buffer,
    which the caller may overwrite and the next chunk reuses.
    """
    shape, d = op.grid.shape, op.grid.dims
    w = [6.0 / (p.h * p.h) for p in op.pencils]
    scale = math.prod(p.h / 6.0 for p in op.pencils)
    d_end = [p.D_end for p in op.pencils]
    ends = [(slice(None),) * k + (slice(None, None, n - 1),) for k, n in enumerate(shape)]
    sigma = op.sigma.real if op.sigma.imag == 0 else op.sigma
    chunks = slabs(shape, 3 * 16)
    buffers = np.empty((3, chunks[0].stop) + shape[1:], dtype=np.complex128)
    views = {}
    for s in chunks:
        if (size := s.stop - s.start) not in views:     # full chunks, and a shorter last one
            views[size] = [_Buffer.of(z) for z in buffers[:, :size]]
        Q, V, B = views[size]
        _tri(X, 0, Q.z, s)
        np.multiply(X[s], 6.0, out=V.z)
        if s.start == 0:
            np.multiply(d_end[0], X[0], out=V.z[0])
        if s.stop == shape[0]:
            np.multiply(d_end[0], X[-1], out=V.z[-1])
        np.subtract(V.real, Q.real, out=V.real)
        np.multiply(V.real, w[0], out=V.real)
        for c in (*w[1:], sigma):
            if isinstance(c, complex):
                np.multiply(c, Q.z, out=B.z)
            else:
                np.multiply(Q.real, c, out=B.real)
            np.subtract(V.real, B.real, out=V.real)
        for k in range(1, d):
            _tri(V, k, B)
            if k < d - 1:
                _tri(Q, k, V)
            np.multiply(Q.real, 6.0, out=Q.real)
            Q.z[ends[k]] *= d_end[k] / 6.0
            np.multiply(Q.real, w[k], out=Q.real)
            np.add(B.real, Q.real, out=B.real)
            V, Q, B = B, V, Q                       # after the last pass, Q is stale
        np.multiply(V.real, scale, out=V.real)
        yield s, V.z


def kron_apply(op: KroneckerOperator, x: np.ndarray, out=None) -> np.ndarray:
    """Evaluate ``op x`` in 2(d - 1) one-dimensional passes of integer stencils.

    The passes run over chunks of x_1 slabs in ``_chunks``, whose finished
    chunks are copied out, so the scratch is its three chunk buffers, within
    SLAB_SCRATCH but for one-slab chunks of larger slabs.  ``x`` is a finite
    field (``checked_field``), in any memory layout (a transposed view
    included).  The result has the shape of ``x`` and goes to ``out`` when
    given: complex128, sharing no memory with ``x``.
    """
    shape = op.grid.shape
    x = checked_field(np.asarray(x, dtype=np.complex128), shape, "x")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != np.complex128:
        raise ValueError(f"out is {out.dtype} of shape {out.shape}, need complex128 of {x.shape}")
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


def scale_exponent(x, nrm: float) -> int:
    """0 if ``nrm`` = ||x|| is in [2^-450, 2^450], else the exponent e of max|x| (2^-e x is)."""
    if 2.0 ** -450 <= nrm <= 2.0 ** 450:
        return 0
    return math.frexp(float(np.abs(x).max()))[1]


def ldexp(x, e: int) -> np.ndarray:
    """2^e x as a complex copy: exact while it stays normal, and 2^e is never formed.

    OverflowError where an entry of 2^e x is beyond double precision.
    """
    x = np.array(x, dtype=np.complex128)
    try:
        with np.errstate(over="raise"):
            np.ldexp(x.view(np.float64), e, out=x.view(np.float64))
    except FloatingPointError:
        raise OverflowError(f"2^{e} times the field overflows double precision") from None
    return x


def residual(op: KroneckerOperator, f, u, bound: float = math.inf):
    """``(||r||, r)`` for r = f - op u, with r formed only when ||r|| > ``bound``.

    ``op u`` streams from the chunk loop of ``kron_apply``, and each chunk of
    r, formed in that loop's buffer, adds its sum of squares to the norm: no
    scratch beyond the loop's.  Once that running sum exceeds
    ``bound``, r is formed as an array in the grid's shape: the rest of it
    goes straight there, and the chunks already passed, each independent of
    the others, are recomputed.  Otherwise r is None and no
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


def defect_correction(op: KroneckerOperator, f, u, solve, passes: int, f_norm: float):
    """Safeguarded defect correction of ``u`` towards ``op u = f``, ||f|| = ``f_norm``.

    ``solve(r)`` returns an approximate solution of ``op d = r`` and may
    overwrite ``r``.  Each pass costs one solve and one residual; a pass that
    does not reduce the residual norm is dropped and ends the loop, so the
    best iterate is returned.  A residual is formed as a field only when a
    further pass will use it (``residual``); the stop test and the last pass
    take only its norm.  So besides ``f`` and ``u``, one field is live while
    a pass runs (its residual, then the trial iterate) and none otherwise;
    the chunk loop adds only its three chunk buffers.

    Raises OverflowError when the iterate returned has a non-finite entry.
    A finite residual norm vouches for its iterate, so u itself is read,
    a chunk at a time, only where none is finite: at ``passes`` = 0, or when
    the stop test's norm is not finite.
    """
    if passes <= 0:
        return _checked_result(u)
    stop = REFINE_STOP_RTOL * f_norm
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
    return u if math.isfinite(best) else _checked_result(u)


def _checked_result(u):
    if not _all_finite(u):
        raise OverflowError("the solution has non-finite entries: it overflows double precision")
    return u


def shaped(x, shape, name: str = "f") -> np.ndarray:
    """``x`` as an array in ``shape``, after checking that it is flat or in ``shape``."""
    x = np.asarray(x)
    if x.shape not in ((math.prod(shape),), tuple(shape)):
        raise ValueError(f"{name} has shape {x.shape}, expected ({math.prod(shape)},) or {shape}")
    return x.reshape(shape)


def _all_finite(X) -> bool:
    """Whether every entry of ``X`` is finite, tested a chunk of ``slabs`` at a time."""
    return all(np.isfinite(X[s]).all() for s in slabs(X.shape))


def checked_field(x, shape, name: str = "f") -> np.ndarray:
    """``x`` as an array, after checking that it is finite and flat or in ``shape``."""
    if not _all_finite(shaped(x, shape, name)):
        raise ValueError(f"{name} has non-finite entries")
    return np.asarray(x)


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
