import numpy as np
import pytest

from helmfft import (BoundaryKind, Grid, assemble_pencil,
                     assemble_periodic_pencil, build_operator_A,
                     build_operator_B, kron_apply, plan2d, plan3d)
from helmfft.assembly import Pencil1D
from helmfft import pipeline


def test_neumann_pencil_n3():
    p = assemble_pencil(3, 0.5)
    assert np.allclose(p.K.dense(), [[2, -2, 0], [-2, 4, -2], [0, -2, 2]])
    assert np.allclose(p.M.dense(),
                       [[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]])


def test_absorbing_corner_entries():
    omega = 2 * np.pi
    p = assemble_pencil(3, 0.5, omega, BoundaryKind.ABSORBING)
    expected = (1 - 1j * omega * 0.5) / 0.5      # = 2 - 2 pi i
    assert p.K.diag[0] == pytest.approx(expected)
    assert p.K.diag[-1] == pytest.approx(2 - 2j * np.pi)
    # everything else as Neumann
    ref = assemble_pencil(3, 0.5)
    assert np.allclose(p.K.off, ref.K.off)
    assert p.K.diag[1] == ref.K.diag[1]
    assert np.allclose(p.M.dense(), ref.M.dense())


@pytest.mark.parametrize("n", [4, 7, 12])
def test_neumann_stiffness_rows_sum_to_zero(n):
    p = assemble_pencil(n, 0.31)
    assert np.allclose(p.K.dense().sum(axis=1), 0.0, atol=1e-13)


def test_periodic_pencil_values():
    p = assemble_periodic_pencil(4, 1 / 3)
    K, M = p.K.dense(), p.M.dense()
    assert np.allclose(np.diag(K), 6.0)
    assert K[0, 1] == K[0, -1] == pytest.approx(-3.0)
    assert np.allclose(np.diag(M), 2 / 9)
    assert M[0, 1] == M[0, -1] == pytest.approx(1 / 18)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_periodic_row_sums_and_mass_total(n):
    h = 1 / (n - 1)
    p = assemble_periodic_pencil(n, h)
    assert np.allclose(p.K.dense().sum(axis=1), 0.0, atol=1e-13)
    assert p.M.dense().sum() == pytest.approx(n * h)


@pytest.mark.parametrize("pencil", [assemble_pencil(6, 0.2),
                                    assemble_pencil(5, 0.25, 2 * np.pi, BoundaryKind.ABSORBING),
                                    assemble_periodic_pencil(5, 0.25),
                                    assemble_periodic_pencil(5, 0.25, np.pi)],
                         ids=["neumann", "absorbing", "periodic", "antiperiodic"])
def test_pencil_from_integer_stencils(pencil):
    # K = (D - T)/h and M = (h/6) T, with T = tridiag(1, 4, 1) (2 at the
    # ends, or the wrap's corners) taken from M
    T = pencil.M.dense() * 6 / pencil.h
    assert np.allclose(T, np.round(T.real), atol=1e-13)
    assert np.allclose(pencil.K.dense(), (np.diag(pencil.D) - T) / pencil.h, atol=1e-12)


def test_pencil_validation():
    with pytest.raises(ValueError):
        assemble_pencil(2, 0.5)
    with pytest.raises(ValueError):
        assemble_pencil(5, 0.25, bc=BoundaryKind.PERIODIC)
    with pytest.raises(ValueError):
        assemble_periodic_pencil(2, 0.5)
    for kw in ({"h": 0.0}, {"h": -0.25}, {"h": float("nan")}, {"twist": np.pi / 2}):
        with pytest.raises(ValueError):
            Pencil1D(**{"n": 5, "h": 0.25, "bc": BoundaryKind.PERIODIC, **kw})


def test_pencil_fields_are_scalars():
    # the pencil is its defining scalars; K and M are rebuilt from them
    p = assemble_pencil(6, 0.2, 2 * np.pi, BoundaryKind.ABSORBING)
    assert p == Pencil1D(6, 0.2, BoundaryKind.ABSORBING, 2 * np.pi)
    assert not any(isinstance(v, np.ndarray) for v in vars(p).values())


def test_assembled_matrices_symmetric():
    for p in (assemble_pencil(6, 0.2, 2 * np.pi, BoundaryKind.ABSORBING),
              assemble_periodic_pencil(6, 0.2)):
        for T in (p.K, p.M):
            D = T.dense()
            assert np.array_equal(D, D.T)


def test_operator_a_dense_matches_explicit_kron():
    # Independent assembly with literal element matrices, n = (3, 3).
    omega, h = 2 * np.pi, 0.5
    kc = (1 - 1j * omega * h) / h
    K1 = np.array([[kc, -2, 0], [-2, 4, -2], [0, -2, kc]])
    K2 = np.array([[2, -2, 0], [-2, 4, -2], [0, -2, 2]], dtype=complex)
    M = np.array([[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]],
                 dtype=complex)
    expected = np.kron(K1 - omega ** 2 * M, M) + np.kron(M, K2)
    got = build_operator_A(Grid((3, 3)), omega).dense()
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_operator_b_dense_matches_explicit_kron():
    grid = Grid((4, 3))
    omega = 1.0
    h1, h2 = grid.h
    p1B = assemble_periodic_pencil(4, h1)
    p2 = assemble_pencil(3, h2)
    expected = (np.kron(p1B.K.dense() - omega ** 2 * p1B.M.dense(), p2.M.dense())
                + np.kron(p1B.M.dense(), p2.K.dense()))
    assert np.allclose(build_operator_B(grid, omega).dense(), expected, atol=1e-14)


def test_operator_a_neumann_kernel():
    g = Grid((4, 5))
    A = build_operator_A(g, 0.0, BoundaryKind.NEUMANN)
    y = kron_apply(A, np.ones(g.npoints, dtype=complex))
    assert np.abs(y).max() <= 1e-13


def test_operator_a_3d_complex_symmetric():
    A = build_operator_A(Grid((3, 3, 3)), 2 * np.pi).dense()
    assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
    assert np.abs(A - A.conj().T).max() > 1e-3 * np.abs(A).max()


def test_operator_b_x1_factors_real():
    for twist in (0.0, np.pi):
        B = build_operator_B(Grid((4, 3)), 2 * np.pi, twist)
        assert B.sigma == (2 * np.pi) ** 2
        for F in (B.pencils[0].K, B.pencils[0].M):
            assert np.abs(F.diag.imag).max() == 0.0
            assert F.corner.imag == 0.0 and F.corner != 0.0


@pytest.mark.parametrize("shape,omega", [((3, 3), 2 * np.pi), ((4, 3), 1.0),
                                         ((5, 4), 2 * np.pi), ((3, 3, 4), 1.0)])
def test_b_minus_a_supported_on_boundary_planes(shape, omega):
    g = Grid(shape)
    D = build_operator_B(g, omega).dense() - build_operator_A(g, omega).dense()
    n1 = shape[0]
    block = g.npoints // n1
    interior = np.arange(block, g.npoints - block)
    assert np.abs(D[interior]).max() == 0.0
    assert np.abs(D[:, interior]).max() == 0.0
    assert np.abs(D).max() > 0.0


def test_correction_entry_formula():
    # Corner entries of the auxiliary minus the absorbing x_1 pencil, held as
    # pairs [[dk_end, dk_corner], [dm_end, dm_corner]]: C_bb's coupling of node
    # (1,1) with itself is (dk_end - omega^2 dm_end) M_2[0, 0] + dm_end K_2[0, 0]
    # for the 2D outer problem.  The corners change sign with the wrap.
    omega = 2 * np.pi
    plan = plan2d(Grid((3, 3)), omega)
    h1 = plan.grid.h[0]
    sign = 1.0 if plan.twist == 0.0 else -1.0
    assert plan.correction.shape == (2, 2)
    (dk_end, dk_corner), (dm_end, dm_corner) = plan.correction
    assert dk_end == pytest.approx((1 + 1j * omega * h1) / h1, rel=1e-13)
    assert dm_end == pytest.approx(h1 / 3, rel=1e-13)
    assert dk_corner == pytest.approx(-sign / h1, rel=1e-13)
    assert dm_corner == pytest.approx(sign * h1 / 6, rel=1e-13)


def test_correction_sigma_enters_through_dm_only():
    import dataclasses
    plan = plan2d(Grid((5, 4)), 2 * np.pi)
    dk_only = np.array([[2.0, -1], [0, 0]], dtype=complex)
    v = np.arange(8, dtype=complex).reshape(2, 4) + 1j
    lam = pipeline.cross_planes(plan)[1]
    out1, out2 = (pipeline._boundary_corr(dataclasses.replace(plan, correction=dk_only,
                                                              sigma=sigma), v, lam)
                  for sigma in (0j, 123.4 - 5j))
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("shape,omega", [((4, 3), 2 * np.pi), ((3, 4, 5), 1.0),
                                         ((4, 3), 2.0), ((3, 4, 5), 5.0)])
def test_correction_matches_dense_b_minus_a(shape, omega):
    # For either wrap (the plan picks the anti-periodic one at omega = 2 pi
    # and 1, the periodic one at 2 and 5): the pairs are the corner blocks
    # [[end, corner], [corner, end]] of the dense pencil difference, which is
    # zero elsewhere, and (dk - omega^2 dm) ox M_cross + dm ox K_cross is the
    # boundary block of the dense B - A.
    g = Grid(shape)
    plan = plan2d(g, omega) if g.dims == 2 else plan3d(g, omega)
    twist = plan.twist
    assert twist == (0.0 if omega in (2.0, 5.0) else np.pi)
    n1 = shape[0]
    block = g.npoints // n1
    ends = np.r_[:block, g.npoints - block:g.npoints]
    p1 = assemble_pencil(n1, g.h[0], omega, BoundaryKind.ABSORBING)
    p1B = assemble_periodic_pencil(n1, g.h[0], twist)
    cross = [assemble_pencil(g.n[j], g.h[j]) for j in range(1, g.dims)]

    def kron(*factors):
        out = np.ones((1, 1))
        for f in factors:
            out = np.kron(out, f)
        return out

    M = kron(*(p.M.dense() for p in cross))
    K = sum(kron(*(q.K.dense() if q is p else q.M.dense() for q in cross)) for p in cross)
    dk, dm = (np.array([[end, corner], [corner, end]]) for end, corner in plan.correction)
    for got, B, A in ((dk, p1B.K, p1.K), (dm, p1B.M, p1.M)):
        full = B.dense() - A.dense()
        assert np.array_equal(full[np.ix_([0, -1], [0, -1])], got)
        full[np.ix_([0, -1], [0, -1])] = 0.0
        assert np.abs(full).max() == 0.0
    D = build_operator_B(g, omega, twist).dense() - build_operator_A(g, omega).dense()
    cbb = np.kron(dk - omega ** 2 * dm, M) + np.kron(dm, K)
    expected = D[np.ix_(ends, ends)]
    assert np.linalg.norm(cbb - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pure_neumann_null_space():
    g = Grid((4, 5))
    A = build_operator_A(g, 0.0, BoundaryKind.NEUMANN).dense()
    s = np.linalg.svd(A, compute_uv=False)
    assert s[-1] <= 1e-10 * s[0]
    assert s[-2] > 1e-6 * s[0]
