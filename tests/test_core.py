import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import helmfft.core as core
from helmfft import (BoundaryKind, Grid, KroneckerOperator, assemble_pencil,
                     build_operator_A, dense_problem, dense_solve, kron_apply, plan2d)
from conftest import rand_field


def test_grid_spacing():
    g = Grid((5, 9))
    assert g.h == (0.25, 0.125)
    for h, n in zip(g.h, g.n):
        assert abs(h * (n - 1) - 1.0) < 1e-15
    assert g.npoints == 45


def test_grid_validation():
    for bad in ((2, 5), (5,), (3.9, 5.2), (5.0, 5), ("7", 5), (5, None), 5):
        with pytest.raises(ValueError):
            Grid(bad)
    assert Grid((np.int64(5), np.int32(4))).n == (5, 4)


@pytest.mark.parametrize("name", [
    "helmfft._tridiag:factor_blocks", "helmfft._tridiag:solve_blocks",
    "helmfft.solver2d:solve_pencil_eigen", "helmfft.solver3d:solve_pencil_eigen",
    "helmfft.core:TriCornerMatrix.apply", "helmfft:clear_eigen_cache"])
def test_tricorner_apply_is_a_stub(name):
    # every name that perfbench binds, where it binds it, is a stub of
    # _tridiag: the ones no solver calls raise, and the cache clear does
    # nothing.  core._tri alone applies a tridiagonal factor to a field.
    fn = pkgutil.resolve_name(name)
    assert fn.__module__ == "helmfft._tridiag"
    if name.endswith("clear_eigen_cache"):
        assert fn() is None
    else:
        with pytest.raises(NotImplementedError):
            fn(np.ones(4, dtype=complex))


def test_kron_apply_mass_on_ones():
    # Neumann stiffness rows sum to zero, so at sigma = -1 the operator maps
    # the all-ones field to M_1 ox M_2 of it: products of row sums.
    g = Grid((3, 3))
    p1 = assemble_pencil(3, 0.5)
    p2 = assemble_pencil(3, 0.5)
    op = KroneckerOperator(g, (p1, p2), -1.0)
    y = kron_apply(op, np.ones(9, dtype=complex))
    rs1 = p1.M.sum(axis=1)
    rs2 = p2.M.sum(axis=1)
    assert np.allclose(y.reshape(3, 3), np.outer(rs1, rs2), atol=1e-15)
    assert np.allclose(y, op.dense() @ np.ones(9), atol=1e-15)


@pytest.mark.parametrize("shape", [(3, 4), (5, 7), (9, 9), (3, 4, 5), (5, 5, 5)])
def test_kron_apply_matches_dense(shape, rng):
    g = Grid(shape)
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 42)
    dense = op.dense()
    y = kron_apply(op, x)
    assert np.linalg.norm(y - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)


def _weighted_operator(g):
    # A's pencils with the mass term weighted by a complex shift.
    return KroneckerOperator(g, build_operator_A(g, 2 * np.pi).pencils, 7.5 - 3.2j)


@pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5)])
@pytest.mark.parametrize("weighted", [False, True])
def test_kron_apply_out_matches_dense(shape, weighted, rng):
    g = Grid(shape)
    op = _weighted_operator(g) if weighted else build_operator_A(g, 1.0)
    x = rand_field(g, 4)
    expected = op.dense() @ x
    tol = 1e-12 * np.linalg.norm(expected)
    out = np.full_like(x, np.nan)
    assert kron_apply(op, x, out=out) is out
    assert np.linalg.norm(out - expected) <= tol
    assert np.linalg.norm(kron_apply(op, x) - expected) <= tol
    shaped = np.empty(shape, dtype=complex)
    kron_apply(op, x.reshape(shape), out=shaped)
    assert np.linalg.norm(shaped.reshape(-1) - expected) <= tol


def test_kron_apply_out_on_transposed_views(rng):
    # the 2D solver keeps its fields as (n2, n1) arrays and applies the
    # operator to their (n1, n2) transposes
    g = Grid((6, 9))
    op = build_operator_A(g, 2 * np.pi)
    X = np.ascontiguousarray(rand_field(g, 5).reshape(6, 9).T)      # (n2, n1)
    R = np.empty_like(X)
    kron_apply(op, X.T, out=R.T)
    expected = (op.dense() @ X.T.reshape(-1)).reshape(6, 9)
    assert np.linalg.norm(R.T - expected) <= 1e-12 * np.linalg.norm(expected)


def test_kron_apply_out_rejects_bad_out():
    g = Grid((4, 5))
    op = build_operator_A(g, 1.0)
    x = np.ones(20, dtype=complex)
    with pytest.raises(ValueError):
        kron_apply(op, x, out=np.empty(21, dtype=complex))
    with pytest.raises(ValueError):
        kron_apply(op, x, out=np.empty((4, 5), dtype=complex))
    # a real or single-precision out would drop or round the complex result
    for dtype in (float, np.complex64):
        with pytest.raises(ValueError, match="complex128"):
            kron_apply(op, x, out=np.empty(20, dtype=dtype))


def test_kron_apply_rejects_bad_field():
    # the solvers' field check: flat or the grid's shape, and finite
    g = Grid((4, 5))
    op = build_operator_A(g, 1.0)
    x = np.ones(g.shape, dtype=complex)
    bad = x.copy()
    bad[1, 2] = np.nan
    for field in (x.T.copy(), x[:, :4], bad, bad.reshape(-1)):
        with pytest.raises(ValueError):
            kron_apply(op, field)


def _slab_planes(monkeypatch, grid, planes):
    # SLAB_SCRATCH (bytes) for chunks of ``planes`` x_1 slabs: ``_chunks``
    # holds three complex chunk buffers, 48 bytes per grid point
    monkeypatch.setattr(core, "SLAB_SCRATCH", 48 * planes * (grid.npoints // grid.n[0]))


def _kron_apply_scratch(shape, monkeypatch):
    # One-plane slabs, so that what is left beyond any field-sized scratch is
    # slab-sized buffers and temporaries and numpy's ufunc buffers (8192
    # scalars, 128 KiB).
    g = Grid(shape)
    _slab_planes(monkeypatch, g, 1)
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 6).reshape(shape)
    out = np.empty_like(x)
    kron_apply(op, x, out=out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kron_apply(op, x, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, x


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_kron_apply_out_scratch_is_one_field(shape, monkeypatch):
    scratch, x = _kron_apply_scratch(shape, monkeypatch)
    assert scratch <= x.nbytes + 256 * 1024


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_kron_apply_out_needs_no_field_scratch(shape, monkeypatch):
    # the chunk loop's three chunk buffers, one slab each, in 2D and 3D; no
    # pass takes a temporary
    scratch, x = _kron_apply_scratch(shape, monkeypatch)
    assert scratch <= 6 * x[0].nbytes + 256 * 1024


def test_kron_apply_rejects_out_sharing_x():
    g = Grid((6, 5))
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 5)
    for out in (x, x[...]):
        with pytest.raises(ValueError, match="shares memory"):
            kron_apply(op, x, out=out)
    # a float field is copied to complex first, so the real view of out is fine
    out = np.full(g.npoints, np.nan, dtype=complex)
    out.real[:] = x.real
    expected = op.dense() @ x.real
    kron_apply(op, out.real, out=out)
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


SLAB_OPERATORS = {
    # a complex sigma, the x_1 pass's own term
    "neumann-2d": lambda: plan2d(Grid((5, 4)), 7.5 - 3.2j,
                                 bc_x1=BoundaryKind.NEUMANN).operator,
    "A-3d": lambda: build_operator_A(Grid((5, 4, 3)), 2 * np.pi),
}


@pytest.mark.parametrize("planes", [None, 1, 3], ids=["default", "one-plane", "ragged"])
@pytest.mark.parametrize("name", SLAB_OPERATORS)
def test_kron_apply_slabs_match_dense(name, planes, monkeypatch):
    # n_1 is 5 or 7, so chunks of 3 planes leave a ragged last chunk
    op = SLAB_OPERATORS[name]()
    if planes:
        _slab_planes(monkeypatch, op.grid, planes)
    x = rand_field(op.grid, 8)
    expected = op.dense() @ x
    assert np.linalg.norm(kron_apply(op, x) - expected) <= 1e-12 * np.linalg.norm(expected)


def _two_pass_reference(op, x):
    # kron_apply's passes over the whole field at once: the x_1 pass, then
    # each cross pass; every row adds its left neighbour, then its right
    shape, d = op.grid.shape, op.grid.dims
    w = [6.0 / (p.h * p.h) for p in op.pencils]
    D = [p.D.reshape((-1,) + (1,) * (d - 1 - k)) for k, p in enumerate(op.pencils)]

    def tri(y, axis):
        y = np.moveaxis(y, axis, 0)
        t = 4.0 * y
        t[0], t[-1] = 2.0 * y[0], 2.0 * y[-1]
        t[1:] += y[:-1]
        t[:-1] += y[1:]
        return np.moveaxis(t, 0, axis)

    X = x.reshape(shape)
    Q = tri(X, 0)
    V = (D[0] * X - Q) * w[0]
    for c in (*w[1:], op.sigma):
        V -= c * Q
    for k in range(1, d):
        V, Q = tri(V, k) + (D[k] * Q) * w[k], tri(Q, k)
    return (V * math.prod(p.h / 6.0 for p in op.pencils)).reshape(x.shape)


BITWISE_OPERATORS = {
    **SLAB_OPERATORS,
    # by default two chunks (42 and 3 planes) and, in 3D, three (3 planes each)
    "A-2d-two-chunks": lambda: build_operator_A(Grid((45, 129)), 2 * np.pi),
    "A-3d-three-chunks": lambda: build_operator_A(Grid((9, 33, 55)), 2 * np.pi),
}


@pytest.mark.parametrize("planes", [None, 1, 3], ids=["default", "one-plane", "ragged"])
@pytest.mark.parametrize("name", BITWISE_OPERATORS)
def test_kron_apply_bitwise_matches_two_pass_reference(name, planes, monkeypatch):
    # each entry takes its terms in the same order, chunk-boundary rows included
    op = BITWISE_OPERATORS[name]()
    if planes:
        _slab_planes(monkeypatch, op.grid, planes)
    x = rand_field(op.grid, 10)
    assert np.array_equal(kron_apply(op, x), _two_pass_reference(op, x))


@pytest.mark.parametrize("cross", ["first", "middle", "never"])
@pytest.mark.parametrize("planes", [None, 1, 3], ids=["default", "one-plane", "ragged"])
@pytest.mark.parametrize("name", BITWISE_OPERATORS)
def test_residual_matches_kron_apply_bitwise(name, planes, cross, monkeypatch):
    # r is formed once the running norm passes the bound: from the first
    # chunk, from a middle one (the chunks before it are recomputed), or never
    op = BITWISE_OPERATORS[name]()
    if planes:
        _slab_planes(monkeypatch, op.grid, planes)
    f, u = rand_field(op.grid, 11), rand_field(op.grid, 12)
    expected = (f - kron_apply(op, u)).reshape(op.grid.shape)
    norm = np.linalg.norm(expected)
    plane_sums = np.cumsum(np.sum(np.abs(expected) ** 2, axis=tuple(range(1, op.grid.dims))))
    bound = {"first": 0.0, "middle": np.sqrt(plane_sums[op.grid.n[0] // 2]),
             "never": math.inf}[cross]
    nrm, r = core.residual(op, f, u, bound)
    assert nrm == pytest.approx(norm, rel=1e-13)
    if cross == "never":
        assert r is None
    else:
        assert r.shape == op.grid.shape and np.array_equal(r, expected)


@pytest.mark.parametrize("shape", [(6, 9), (5, 4, 3)])
def test_kron_apply_into_transposed_out(shape, monkeypatch):
    g = Grid(shape)
    _slab_planes(monkeypatch, g, 2)
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 9).reshape(shape)
    expected = (op.dense() @ x.reshape(-1)).reshape(shape)
    tol = 1e-12 * np.linalg.norm(expected)
    for X in (x, np.ascontiguousarray(x.T).T):
        R = np.full(shape[::-1], np.nan, dtype=complex)
        kron_apply(op, X, out=R.T)
        assert np.linalg.norm(R.T - expected) <= tol


def test_kron_apply_linearity(rng):
    g = Grid((5, 6))
    op = build_operator_A(g, 1.0)
    x, y = rand_field(g, 1), rand_field(g, 2)
    a, b = 0.3 - 2.0j, 1.7 + 0.4j
    lhs = kron_apply(op, a * x + b * y)
    rhs = a * kron_apply(op, x) + b * kron_apply(op, y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_kron_apply_reproduces_rhs_from_oracle_solution():
    g = Grid((4, 5))
    omega = 2 * np.pi
    f = rand_field(g, 3)
    u = dense_solve(dense_problem(g, omega), "A", f).u
    op = build_operator_A(g, omega)
    assert np.linalg.norm(kron_apply(op, u) - f) <= 1e-10 * np.linalg.norm(f)


def test_kron_apply_dimension_mismatch():
    g = Grid((4, 5))
    op = build_operator_A(g, 1.0)
    with pytest.raises(ValueError):
        kron_apply(op, np.ones(7, dtype=complex))


def test_kron_operator_rejects_bad_factors():
    g = Grid((4, 5))
    p4, p5 = assemble_pencil(4, 1 / 3), assemble_pencil(5, 1 / 4)
    for pencils in ((p4,), (p5, p4), (p4, p4), (p4, p5, p5)):
        with pytest.raises(ValueError):
            KroneckerOperator(g, pencils, 1.0)


@pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5)])
def test_kron_apply_makes_2d_minus_2_passes(shape, monkeypatch):
    # With one chunk over the grid: the x_1 pass, then T V and, but for the
    # last cross axis, T Q along each cross axis.
    axes = []
    tri = core._tri

    def counted(x, axis, *args, **kwargs):
        axes.append(axis)
        return tri(x, axis, *args, **kwargs)

    monkeypatch.setattr(core, "_tri", counted)
    g = Grid(shape)
    monkeypatch.setattr(core, "SLAB_SCRATCH", 48 * g.npoints)
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 7)
    y = kron_apply(op, x)
    assert len(axes) == 2 * g.dims - 2
    assert axes == ([0, 1] if g.dims == 2 else [0, 1, 1, 2])
    assert np.linalg.norm(y - op.dense() @ x) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("shape", [(257, 257), (100, 37), (33, 17, 65)])
def test_kron_apply_annihilates_constants(shape):
    # Neumann x_1 ends and sigma = 0: every row of A sums to zero, and the
    # integer stencils cancel exactly on a constant field
    g = Grid(shape)
    op = build_operator_A(g, 0.0, BoundaryKind.NEUMANN)
    assert not np.any(kron_apply(op, np.ones(g.npoints, dtype=complex)))


def test_norm_matches_for_every_accepted_f(rng):
    # the stop test's norm over float64, complex64 and a strided view of f
    z = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
    x = z.real.copy()
    cases = [(z, z), (x, x), (z.astype(np.complex64), z.astype(np.complex64).astype(complex)),
             (z[::3], z[::3].copy()), (z.real, x), (z.reshape(3, 667).T, z),
             (np.arange(7), np.arange(7.0))]
    for f, ref in cases:
        assert core._norm(f) == pytest.approx(np.linalg.norm(ref), rel=1e-14)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_norm_copies_no_contiguous_field(dtype):
    f = np.ones((257, 129), dtype=dtype)
    tracemalloc.start()
    try:
        core._norm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
