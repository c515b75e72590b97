import tracemalloc

import numpy as np
import pytest

import helmfft.core as core
from helmfft import (BoundaryKind, Grid, KroneckerOperator, TriCornerMatrix,
                     build_operator_A, build_operator_B, dense_problem, dense_solve,
                     kron_apply, plan2d)
from conftest import rand_field


def identity_factor(n, value=1.0):
    return TriCornerMatrix(np.full(n, value), np.zeros(n - 1))


def test_grid_spacing():
    g = Grid((5, 9))
    assert g.h == (0.25, 0.125)
    for h, n in zip(g.h, g.n):
        assert abs(h * (n - 1) - 1.0) < 1e-15
    assert g.npoints == 45


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((2, 5))
    with pytest.raises(ValueError):
        Grid((5,))


def test_tricorner_apply_matches_dense(rng):
    for n, corner in [(4, 0.0), (6, -2.0 + 1j)]:
        T = TriCornerMatrix(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            rng.standard_normal(n - 1), corner)
        x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        assert np.allclose(T.apply(x, axis=0), T.dense() @ x, atol=1e-14)
        assert np.allclose(T.apply(x.T, axis=1), (T.dense() @ x).T, atol=1e-14)
        out = np.empty_like(x)
        T.apply(x, axis=0, out=out)
        assert np.allclose(out, T.dense() @ x, atol=1e-14)


def test_kron_apply_identity(rng):
    # pairs (I, I), (0, I), ...: every term but the first is zero
    for shape in ((4, 5), (4, 5, 3)):
        g = Grid(shape)
        pairs = tuple((identity_factor(n, float(k == 0)), identity_factor(n))
                      for k, n in enumerate(shape))
        x = rand_field(g, 0)
        assert np.array_equal(kron_apply(KroneckerOperator(g, pairs), x), x)


def test_kron_apply_mass_on_ones():
    # M_1 ox M_2 applied to the all-ones field gives products of row sums.
    g = Grid((3, 3))
    from helmfft import assemble_pencil
    p1 = assemble_pencil(3, 0.5)
    p2 = assemble_pencil(3, 0.5)
    op = KroneckerOperator(g, ((p1.M, p1.M), (identity_factor(3, 0.0), p2.M)))
    y = kron_apply(op, np.ones(9, dtype=complex))
    rs1 = p1.M.dense().sum(axis=1)
    rs2 = p2.M.dense().sum(axis=1)
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
    # The terms of A with non-unit complex weights, folded into the K factors,
    # so that the pairs are not those of A.
    A = build_operator_A(g, 2 * np.pi)
    coeffs = (2.0 - 1.0j, 1.0, -0.5)
    return KroneckerOperator(g, tuple(
        (TriCornerMatrix(c * K.diag, c * K.off, c * K.corner), M)
        for c, (K, M) in zip(coeffs, A.pairs)))


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


def _slab_planes(monkeypatch, grid, planes):
    # SLAB_SCRATCH for chunks of ``planes`` x_1 slabs in kron_apply's two buffers
    monkeypatch.setattr(core, "SLAB_SCRATCH", 2 * planes * (grid.npoints // grid.n[0]))


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_kron_apply_out_scratch_is_one_field(shape, monkeypatch):
    # One-plane slabs, so that what is left beyond the scratch field is the
    # two slab buffers (3D), slab-sized temporaries and numpy's ufunc buffers
    # (8192 scalars, 128 KiB).
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
    assert peak - base <= x.nbytes + 256 * 1024


SLAB_OPERATORS = {
    # K_1 - sigma M_1 with a complex sigma: a complex beta in the x_1 pair
    "neumann-2d": lambda: plan2d(Grid((5, 4)), 7.5 - 3.2j,
                                 bc_x1=BoundaryKind.NEUMANN).operator,
    # the x_1 corners of the periodic and the anti-periodic wrap
    "B-2d-periodic": lambda: build_operator_B(Grid((7, 5)), 2 * np.pi, 0.0),
    "B-2d-antiperiodic": lambda: build_operator_B(Grid((7, 5)), 2 * np.pi, np.pi),
    "B-3d-periodic": lambda: build_operator_B(Grid((5, 4, 3)), 2 * np.pi, 0.0),
    "B-3d-antiperiodic": lambda: build_operator_B(Grid((5, 4, 3)), 2 * np.pi, np.pi),
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


@pytest.mark.parametrize("shape", [(6, 9), (5, 4, 3)])
def test_kron_apply_into_transposed_out(shape, monkeypatch):
    g = Grid(shape)
    _slab_planes(monkeypatch, g, 2)
    op = build_operator_B(g, 2 * np.pi, np.pi)
    x = rand_field(g, 9).reshape(shape)
    expected = (op.dense() @ x.reshape(-1)).reshape(shape)
    tol = 1e-12 * np.linalg.norm(expected)
    for X in (x, np.ascontiguousarray(x.T).T):
        R = np.full(shape[::-1], np.nan, dtype=complex)
        kron_apply(op, X, out=R.T)
        assert np.linalg.norm(R.T - expected) <= tol


def test_kron_apply_rejects_pair_without_mass_form():
    # K_k must be diag(delta) - beta M_k: off-diagonals and corner in proportion
    g = Grid((4, 5))
    (K, M), *rest = build_operator_A(g, 1.0).pairs
    off = K.off.copy()
    off[1] *= 1.5
    for bad in (TriCornerMatrix(K.diag, off), TriCornerMatrix(K.diag, K.off, 0.5)):
        with pytest.raises(ValueError):
            kron_apply(KroneckerOperator(g, ((bad, M), *rest)), np.ones(20, dtype=complex))


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
    I4, I5 = identity_factor(4), identity_factor(5)
    for pairs in (((I4, I4),), ((I5, I5), (I4, I4)), ((I4, I4), (I5, I4))):
        with pytest.raises(ValueError):
            KroneckerOperator(g, pairs)


@pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5)])
def test_kron_apply_makes_2d_minus_2_passes(shape, monkeypatch):
    # With one slab over the grid the cross axes take 2d - 3 calls of
    # TriCornerMatrix.apply, on mass factors only; kron_apply's own chunked
    # loop makes the last pass, in x_1.
    calls = []
    apply = TriCornerMatrix.apply

    def counted(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(TriCornerMatrix, "apply", counted)
    g = Grid(shape)
    monkeypatch.setattr(core, "SLAB_SCRATCH", 2 * g.npoints)
    op = build_operator_A(g, 2 * np.pi)
    x = rand_field(g, 7)
    y = kron_apply(op, x)
    assert len(calls) == 2 * g.dims - 3
    assert all(any(c is M for _, M in op.pairs[1:]) for c in calls)
    assert not any(c is K for K, _ in op.pairs for c in calls)
    assert np.linalg.norm(y - op.dense() @ x) <= 1e-12 * np.linalg.norm(y)
