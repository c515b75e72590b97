import numpy as np
import pytest

from helmfft import (BoundaryKind, Grid, assemble_pencil, build_operator_A,
                     dense_problem, kron_apply, plan2d, plan3d, solve2d, solve3d)
from helmfft.assembly import Pencil1D
from helmfft.oracle import wrapped_dense
from helmfft import pipeline


def test_neumann_pencil_n3():
    p = assemble_pencil(3, 0.5)
    assert np.allclose(p.K, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]])
    assert np.allclose(p.M,
                       [[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]])


def test_absorbing_corner_entries():
    omega = 2 * np.pi
    p = assemble_pencil(3, 0.5, omega, BoundaryKind.ABSORBING)
    expected = (1 - 1j * omega * 0.5) / 0.5      # = 2 - 2 pi i
    K = p.K
    assert K[0, 0] == pytest.approx(expected)
    assert K[-1, -1] == pytest.approx(2 - 2j * np.pi)
    # everything else as Neumann
    ref = assemble_pencil(3, 0.5)
    assert np.allclose(np.diag(K, 1), np.diag(ref.K, 1))
    assert K[1, 1] == ref.K[1, 1]
    assert np.allclose(p.M, ref.M)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_neumann_stiffness_rows_sum_to_zero(n):
    p = assemble_pencil(n, 0.31)
    assert np.allclose(p.K.sum(axis=1), 0.0, atol=1e-13)


def test_periodic_pencil_values():
    # the oracle's periodic wrap of an absorbing pencil: no trace of its ends
    K, M = wrapped_dense(assemble_pencil(4, 1 / 3, 2 * np.pi, BoundaryKind.ABSORBING), 0.0)
    assert np.allclose(np.diag(K), 6.0)
    assert K[0, 1] == K[0, -1] == pytest.approx(-3.0)
    assert np.allclose(np.diag(M), 2 / 9)
    assert M[0, 1] == M[0, -1] == pytest.approx(1 / 18)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_periodic_row_sums_and_mass_total(n):
    h = 1 / (n - 1)
    K, M = wrapped_dense(assemble_pencil(n, h), 0.0)
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-13)
    assert M.sum() == pytest.approx(n * h)


_ABSORBING = assemble_pencil(5, 0.25, 2 * np.pi, BoundaryKind.ABSORBING)


@pytest.mark.parametrize("pencil,twist", [(assemble_pencil(6, 0.2), None), (_ABSORBING, None),
                                          (_ABSORBING, 0.0), (_ABSORBING, np.pi)],
                         ids=["neumann", "absorbing", "periodic", "antiperiodic"])
def test_pencil_from_integer_stencils(pencil, twist):
    # K = (D - T)/h and M = (h/6) T, with T = tridiag(1, 4, 1) (2 at the
    # ends, or the corners of the oracle's wrap, where D is 6 throughout)
    # taken from M
    if twist is None:
        K, M, D = pencil.K, pencil.M, pencil.D
    else:
        (K, M), D = wrapped_dense(pencil, twist), np.full(pencil.n, 6.0)
    T = M * 6 / pencil.h
    assert np.allclose(T, np.round(T.real), atol=1e-13)
    assert np.allclose(K, (np.diag(D) - T) / pencil.h, atol=1e-12)


@pytest.mark.parametrize("omega", [2 * np.pi, -3.0])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("n", [3, 4, 9, 64])
def test_pencil_entries_are_the_matrices_entries(n, bc, omega):
    # the numbers the solver reads are the end, interior and off entries of
    # K and M, exactly; K's end is (1 - i omega h)/h only at absorbing ends
    h = 1 / (n - 1)
    p = assemble_pencil(n, h, omega, bc)
    for (end, d, o), T in zip(p.entries, (p.K, p.M)):
        diag = np.diag(T)
        assert diag[0] == diag[-1] == end
        assert np.all(diag[1:-1] == d) and np.all(np.diag(T, 1) == o)
        assert np.array_equal(T, T.T) and np.count_nonzero(np.triu(T, 2)) == 0
    k_end = (1 - 1j * omega * h) / h if bc == BoundaryKind.ABSORBING else 1 / h
    assert p.entries[0][0] == k_end
    assert (p.entries[0][0] * h + 2.0) == pytest.approx(p.D[0], rel=1e-15)


def test_plans_and_solves_build_no_tri_matrix(monkeypatch, rng):
    # the solver reads each pencil's entries as numbers; K and M serve only
    # the dense reference
    built, matrix = [], Pencil1D._matrix

    def counting_matrix(self, which):
        built.append(which)
        return matrix(self, which)

    monkeypatch.setattr(Pencil1D, "_matrix", counting_matrix)
    g2, g3 = Grid((17, 9)), Grid((9, 7, 5))
    plans = [plan2d(g2, 2 * np.pi), plan2d(g2, 3.5 - 1j, bc_x1=BoundaryKind.NEUMANN),
             plan3d(g3, 2 * np.pi)]
    for plan in plans:
        f = rng.standard_normal(plan.grid.npoints) + 1j * rng.standard_normal(plan.grid.npoints)
        (solve2d if plan.grid.dims == 2 else solve3d)(plan, f, refine=2)
    assert not built
    assemble_pencil(5, 0.25).K
    assert built


def test_pencil_validation():
    with pytest.raises(ValueError):
        assemble_pencil(2, 0.5)
    for kw in ({"h": 0.0}, {"h": -0.25}, {"h": float("nan")}, {"h": float("inf")},
               {"omega": float("nan")}, {"omega": float("inf")}):
        with pytest.raises(ValueError):
            Pencil1D(**{"n": 5, "h": 0.25, "bc": BoundaryKind.NEUMANN, **kw})
    with pytest.raises(ValueError):
        build_operator_A(Grid((5, 4)), float("nan"))
    # a string is no boundary kind: K would silently take Neumann ends
    for make in (lambda: assemble_pencil(5, 0.25, 2 * np.pi, "absorbing"),
                 lambda: plan2d(Grid((5, 4)), 2 * np.pi, bc_x1="absorbing")):
        with pytest.raises(ValueError, match="BoundaryKind"):
            make()


def test_pencil_fields_are_scalars():
    # the pencil is its defining scalars; K and M are rebuilt from them
    p = assemble_pencil(6, 0.2, 2 * np.pi, BoundaryKind.ABSORBING)
    assert p == Pencil1D(6, 0.2, BoundaryKind.ABSORBING, 2 * np.pi)
    assert not any(isinstance(v, np.ndarray) for v in vars(p).values())


def test_assembled_matrices_symmetric():
    p = assemble_pencil(6, 0.2, 2 * np.pi, BoundaryKind.ABSORBING)
    for D in (p.K, p.M, *wrapped_dense(p, 0.0), *wrapped_dense(p, np.pi)):
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
    # Independent assembly with literal circulant element matrices, h_1 = 1/3
    grid = Grid((4, 3))
    omega = 1.0
    K1B = np.array([[6, -3, 0, -3], [-3, 6, -3, 0], [0, -3, 6, -3], [-3, 0, -3, 6]])
    M1B = np.array([[4, 1, 0, 1], [1, 4, 1, 0], [0, 1, 4, 1], [1, 0, 1, 4]]) / 18
    K2 = np.array([[2, -2, 0], [-2, 4, -2], [0, -2, 2]], dtype=complex)
    M2 = np.array([[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]])
    expected = np.kron(K1B - omega ** 2 * M1B, M2) + np.kron(M1B, K2)
    assert np.allclose(dense_problem(grid, omega).B, expected, atol=1e-14)


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
    # the wrap drops the absorbing ends: real factors with nonzero corners, real B
    p = assemble_pencil(4, 1 / 3, 2 * np.pi, BoundaryKind.ABSORBING)
    for twist in (0.0, np.pi):
        for F in wrapped_dense(p, twist):
            assert np.abs(F.imag).max() == 0.0
            assert F[0, -1] == F[-1, 0] != 0.0
        assert np.abs(dense_problem(Grid((4, 3)), 2 * np.pi, twist=twist).B.imag).max() == 0.0


@pytest.mark.parametrize("shape,omega", [((3, 3), 2 * np.pi), ((4, 3), 1.0),
                                         ((5, 4), 2 * np.pi), ((3, 3, 4), 1.0)])
def test_b_minus_a_supported_on_boundary_planes(shape, omega):
    g = Grid(shape)
    prob = dense_problem(g, omega)
    D = prob.B - prob.A
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
    assert np.shape(plan.correction) == (2, 2)
    (dk_end, dk_corner), (dm_end, dm_corner) = plan.correction
    assert dk_end == pytest.approx((1 + 1j * omega * h1) / h1, rel=1e-13)
    assert dm_end == pytest.approx(h1 / 3, rel=1e-13)
    assert dk_corner == pytest.approx(-sign / h1, rel=1e-13)
    assert dm_corner == pytest.approx(sign * h1 / 6, rel=1e-13)


def test_correction_sigma_enters_through_dm_only():
    import dataclasses
    plan = plan2d(Grid((5, 4)), 2 * np.pi)
    dk_only = ((2.0 + 0j, -1.0 + 0j), (0j, 0j))
    v = np.arange(8, dtype=complex).reshape(2, 4) + 1j
    lam = pipeline.cross_planes(plan)[1]
    out1, out2 = (pipeline._boundary_corr(dataclasses.replace(
        plan, correction=dk_only, operator=dataclasses.replace(plan.operator, sigma=sigma)),
        v, lam) for sigma in (0j, 123.4 - 5j))
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
    cross = [assemble_pencil(g.n[j], g.h[j]) for j in range(1, g.dims)]

    def kron(*factors):
        out = np.ones((1, 1))
        for f in factors:
            out = np.kron(out, f)
        return out

    M = kron(*(p.M for p in cross))
    K = sum(kron(*(q.K if q is p else q.M for q in cross)) for p in cross)
    dk, dm = (np.array([[end, corner], [corner, end]]) for end, corner in plan.correction)
    for got, B, A in zip((dk, dm), wrapped_dense(p1, twist), (p1.K, p1.M)):
        full = B - A
        assert np.array_equal(full[np.ix_([0, -1], [0, -1])], got)
        full[np.ix_([0, -1], [0, -1])] = 0.0
        assert np.abs(full).max() == 0.0
    prob = dense_problem(g, omega, twist=twist)
    D = prob.B - prob.A
    cbb = np.kron(dk - omega ** 2 * dm, M) + np.kron(dm, K)
    expected = D[np.ix_(ends, ends)]
    assert np.linalg.norm(cbb - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pure_neumann_null_space():
    g = Grid((4, 5))
    A = build_operator_A(g, 0.0, BoundaryKind.NEUMANN).dense()
    s = np.linalg.svd(A, compute_uv=False)
    assert s[-1] <= 1e-10 * s[0]
    assert s[-2] > 1e-6 * s[0]
