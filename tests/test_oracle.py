import numpy as np
import pytest

from helmfft import (BoundaryKind, Grid, SizeLimit, assemble_pencil,
                     build_operator_A, circulant_eigenbasis,
                     dense_eigensolve_pencil, dense_partial_solution,
                     dense_problem, dense_solve, kron_apply)
from helmfft.oracle import wrapped_dense
from conftest import rand_field


def test_zero_rhs():
    prob = dense_problem(Grid((3, 3)), 1.0)
    res = dense_solve(prob, "A", np.zeros(9, dtype=complex))
    assert np.abs(res.u).max() == 0.0
    assert res.residual == 0.0


def test_solution_consistent_with_kron_apply():
    g = Grid((3, 3))
    omega = 2 * np.pi
    prob = dense_problem(g, omega)
    f = rand_field(g, 1)
    res = dense_solve(prob, "A", f)
    op = build_operator_A(g, omega)
    assert np.linalg.norm(kron_apply(op, res.u) - f) <= 1e-12 * np.linalg.norm(f)
    assert res.residual <= 1e-12


def test_pure_neumann_zero_omega_singular():
    prob = dense_problem(Grid((4, 4)), 0.0, BoundaryKind.NEUMANN)
    with pytest.raises(np.linalg.LinAlgError):
        dense_solve(prob, "A", np.ones(16, dtype=complex))


def test_size_caps():
    with pytest.raises(SizeLimit):
        dense_problem(Grid((200, 200)), 1.0)
    with pytest.raises(SizeLimit):
        dense_eigensolve_pencil(np.eye(600), np.eye(600))


def test_partial_solution_matches_full_restriction():
    g = Grid((5, 4))
    f = rand_field(g, 2)
    for twist in (0.0, np.pi):
        prob = dense_problem(g, 2 * np.pi, twist=twist)
        full = dense_solve(prob, "B", f).u
        vb = dense_partial_solution(prob, "B", f)
        assert np.array_equal(vb, np.concatenate([full[:4], full[-4:]]))


def test_partial_solution_reflection_symmetry():
    # Absorbing ends on both sides: an x_1-symmetric rhs gives symmetric
    # boundary values.
    g = Grid((5, 4))
    prob = dense_problem(g, 2 * np.pi)
    rng = np.random.default_rng(3)
    F = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    F = 0.5 * (F + F[::-1])
    vb = dense_partial_solution(prob, "A", F.reshape(-1))
    assert np.linalg.norm(vb[:4] - vb[4:]) <= 1e-10 * np.linalg.norm(vb)


def test_partial_solution_full_coupling():
    # rhs supported on one interior plane still excites the boundary.
    g = Grid((5, 4))
    prob = dense_problem(g, 2 * np.pi)
    f = np.zeros(20, dtype=complex)
    f[8:12] = 1.0
    vb = dense_partial_solution(prob, "A", f)
    assert np.abs(vb).min() > 0.0


def test_eigensolve_circulant_multiset():
    for twist in (0.0, np.pi):
        p = assemble_pencil(8, 1 / 7)
        lam, _ = dense_eigensolve_pencil(*wrapped_dense(p, twist))
        ref = np.sort_complex(circulant_eigenbasis(p, twist)[0])
        assert np.allclose(np.sort_complex(lam), ref, atol=1e-10 * np.abs(ref).max())


def test_b_follows_the_twist():
    # B differs from A only on the boundary planes; the anti-periodic wrap
    # flips the sign of its x_1 corner couplings
    g = Grid((5, 4))
    B0 = dense_problem(g, 2 * np.pi).B
    Bpi = dense_problem(g, 2 * np.pi, twist=np.pi).B
    D = Bpi - B0
    block = 4
    corner = np.ix_(range(block), range(g.npoints - block, g.npoints))
    assert np.abs(D[corner] + 2 * B0[corner]).max() <= 1e-14 * np.abs(B0).max()
    D[corner] = 0.0
    D[corner[::-1]] = 0.0
    assert np.abs(D).max() == 0.0


def test_eigensolve_neumann_contains_zero():
    p = assemble_pencil(6, 0.2)
    lam, _ = dense_eigensolve_pencil(p.K, p.M)
    assert np.abs(lam).min() <= 1e-10


def test_eigensolve_abc_diagonalizes():
    p = assemble_pencil(8, 1 / 7, 2 * np.pi, BoundaryKind.ABSORBING)
    K, M = p.K, p.M
    lam, V = dense_eigensolve_pencil(K, M)
    rec = M @ V @ np.diag(lam) @ np.linalg.inv(V)
    assert np.linalg.norm(rec - K) <= 1e-9 * np.linalg.norm(K)


def test_rhs_length_checked():
    prob = dense_problem(Grid((3, 3)), 1.0)
    with pytest.raises(ValueError):
        dense_solve(prob, "A", np.ones(7, dtype=complex))
