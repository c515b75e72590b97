"""Batched LU kernels for the shifted tridiagonal diagonal blocks.

Every diagonal block has the form ``coeff * M + K`` where (K, M) is one 1D
pencil shared by all blocks and ``coeff`` varies per block (an eigenvalue
minus a shift).  Factorization is LU without pivoting, storing reciprocal
pivots only; off-diagonal entries are two flops and are recomputed inside the
sweeps, which keeps factor storage at one array of block-system size.  A pivot
whose magnitude falls below ``tol * max|block|`` raises :class:`SingularBlock`
instead of being repaired silently.

Arrays are laid out with the tridiagonal index first: ``X[i]`` holds the i-th
unknown of every block at once, so the sweeps stream contiguous slabs.  The
inner loops are JIT-compiled when numba is importable; a pure-numpy fallback
keeps the package functional (just slower for skinny blocks) without it.

No solver calls these kernels any more: both run their blocks as DCT-I
divides (``pipeline``).  The module stays because the benchmark's tracer in
``perfbench/tracing.py`` imports it and wraps both kernels by name.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import PIVOT_RTOL, SingularBlock

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the forced fallback test
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


class BlockFactors(NamedTuple):
    coeff: np.ndarray   # per-block shift coefficients, batch shape
    rd: np.ndarray      # reciprocal pivots, (m,) + batch shape


@njit(cache=True)
def _factor_kernel(coeff, Kd, Ko, Md, Mo, rd, amin):
    m = Kd.shape[0]
    B = coeff.shape[0]
    for b in range(B):
        d = coeff[b] * Md[0] + Kd[0]
        rd[0, b] = 1.0 / d
        amin[b] = abs(d)
    for i in range(1, m):
        for b in range(B):
            o = coeff[b] * Mo[i - 1] + Ko[i - 1]
            d = coeff[b] * Md[i] + Kd[i] - o * o * rd[i - 1, b]
            a = abs(d)
            if a < amin[b]:
                amin[b] = a
            rd[i, b] = 1.0 / d


@njit(cache=True)
def _solve_kernel(coeff, Ko, Mo, rd, X):
    m, B = X.shape
    for i in range(1, m):
        for b in range(B):
            o = coeff[b] * Mo[i - 1] + Ko[i - 1]
            X[i, b] -= o * rd[i - 1, b] * X[i - 1, b]
    for b in range(B):
        X[m - 1, b] *= rd[m - 1, b]
    for i in range(m - 2, -1, -1):
        for b in range(B):
            o = coeff[b] * Mo[i] + Ko[i]
            X[i, b] = (X[i, b] - o * X[i + 1, b]) * rd[i, b]


# The numpy sweeps loop over rows in Python, so for skinny batches their cost
# is call overhead.  The shifted rows ``coeff * D[i] + E[i]`` they need do not
# depend on the previous row and are formed a chunk of rows at a time, in
# scratch of at most _SWEEP_SCRATCH complex scalars (or one batch row, for
# batches wider than that).  8192 scalars (128 KiB) was the smallest of 512,
# 2048, 8192 and 32768 past which the skinny-batch solves stopped getting
# faster on a 2-core Xeon with 2 MiB of L2 per core.
_SWEEP_SCRATCH = 8192


def _row_scratch(m, batch):
    return np.empty((min(m, max(1, _SWEEP_SCRATCH // batch)), batch),
                    dtype=np.complex128)


def _shifted_rows(coeff, D, E, stop, buf, scale=None, reverse=False):
    """Yield ``(coeff * D[i] + E[i]) * scale[i]`` for i in [0, stop), built in ``buf``.

    Rows come in ascending order, or descending with ``reverse``.  Each
    yielded row is scratch that the caller may overwrite.
    """
    step = buf.shape[0]
    starts = range(0, stop, step)
    for i0 in (reversed(starts) if reverse else starts):
        i1 = min(i0 + step, stop)
        rows = buf[:i1 - i0]
        np.multiply(coeff, D[i0:i1, None], out=rows)
        rows += E[i0:i1, None]
        if scale is not None:
            rows *= scale[i0:i1]
        yield from (reversed(rows) if reverse else rows)


def _factor_numpy(coeff, Kd, Ko, Md, Mo, rd, amin):
    m, B = rd.shape
    a = np.empty(B, dtype=np.float64)
    diag = _shifted_rows(coeff, Md, Kd, m, _row_scratch(m, B))
    off = _shifted_rows(coeff, Mo, Ko, m - 1, _row_scratch(m, B))
    d = next(diag)
    np.abs(d, out=amin)
    np.reciprocal(d, out=rd[0])
    for i, (d, o) in enumerate(zip(diag, off), start=1):
        # Same recurrence as _factor_kernel: rd[i - 1] already holds 1/d[i-1].
        o *= o
        o *= rd[i - 1]
        d -= o
        np.abs(d, out=a)
        np.fmin(amin, a, out=amin)  # skips a nan pivot, as the kernel does
        np.reciprocal(d, out=rd[i])


def _solve_numpy(coeff, Ko, Mo, rd, X):
    m, B = X.shape
    buf = _row_scratch(m, B)
    # Forward: X[i] -= (o[i-1] / d[i-1]) X[i-1].
    mults = _shifted_rows(coeff, Mo, Ko, m - 1, buf, scale=rd)
    for li, xprev, xi in zip(mults, X[:-1], X[1:]):
        li *= xprev
        xi -= li
    X[m - 1] *= rd[m - 1]
    # Backward: X[i] = (X[i] - o[i] X[i+1]) / d[i].
    offs = _shifted_rows(coeff, Mo, Ko, m - 1, buf, reverse=True)
    for o, xnext, xi, ri in zip(offs, X[:0:-1], X[-2::-1], rd[-2::-1]):
        o *= xnext
        xi -= o
        xi *= ri


def factor_blocks(coeff, K, M, tol=PIVOT_RTOL, out=None) -> BlockFactors:
    """LU of ``coeff*M + K`` for every block; raises SingularBlock on a tiny pivot."""
    coeff = np.ascontiguousarray(coeff, dtype=np.complex128)
    batch = coeff.shape
    m = K.diag.shape[0]
    rd = out if out is not None else np.empty((m,) + batch, dtype=np.complex128)
    amin = np.empty(batch, dtype=np.float64)
    cflat = coeff.reshape(-1)
    if HAVE_NUMBA:
        _factor_kernel(cflat, K.diag, K.off, M.diag, M.off,
                       rd.reshape(m, -1), amin.reshape(-1))
    else:
        # A zero pivot makes the later ones inf or nan; the guard below reports it.
        with np.errstate(divide="ignore", invalid="ignore"):
            _factor_numpy(cflat, K.diag, K.off, M.diag, M.off,
                          rd.reshape(m, -1), amin.reshape(-1))
    bmax = np.abs(coeff) * M.max_abs + K.max_abs
    bad = amin < tol * bmax
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), batch)
        block = idx[0] if len(idx) == 1 else idx
        raise SingularBlock(
            f"near-singular diagonal block {block} (resonant shift); "
            f"min pivot {amin[idx]:.3e}", block=block)
    return BlockFactors(coeff=coeff, rd=rd)


def solve_blocks(factors: BlockFactors, K, M, X):
    """Solve all blocks in place; X has shape (m,) + batch."""
    m = X.shape[0]
    X2 = X.reshape(m, -1)
    if HAVE_NUMBA:
        _solve_kernel(factors.coeff.reshape(-1), K.off, M.off,
                      factors.rd.reshape(m, -1), X2)
    else:
        _solve_numpy(factors.coeff.reshape(-1), K.off, M.off,
                     factors.rd.reshape(m, -1), X2)
    return X
