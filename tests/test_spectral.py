import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from helmfft import (BoundaryKind, Grid, NormalizationFailure, SingularBlock,
                     TriCornerMatrix, assemble_pencil, boundary_green,
                     circulant_eigenbasis, dct1_eigen, dense_eigensolve_pencil,
                     dense_problem, solve_pencil_eigen)
from helmfft.oracle import wrapped_dense
from helmfft.spectral import (_FLUSH_BELOW, _FLUSH_STEPS, boundary_rows, choose_wrap,
                              twiddle)


def test_circulant_eigenvalues_closed_form():
    h = 0.2
    p = assemble_pencil(4, h)
    lam, D = circulant_eigenbasis(p, 0.0)
    mu = D / 4                                  # D_l = n mu_l
    assert lam[0] == pytest.approx(0.0, abs=1e-13)
    # theta = pi mode: stiffness symbol 4/h, mass symbol h/3
    assert lam[2] == pytest.approx(12 / h ** 2, rel=1e-13)
    assert mu[2] == pytest.approx(h / 3, rel=1e-13)
    assert mu[0] == pytest.approx(h, rel=1e-13)
    assert np.abs(lam.imag).max() <= 1e-12 * max(1.0, np.abs(lam).max())


@pytest.mark.parametrize("n", [4, 5, 9])
def test_circulant_pair_symmetry(n):
    lam = circulant_eigenbasis(assemble_pencil(n, 1 / (n - 1)), 0.0)[0]
    for l in range(1, n):  # modes l and n+2-l coincide (1-based), l = 2..n
        assert lam[l] == pytest.approx(lam[(n - l) % n], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16])
def test_circulant_matches_dense_eigensolve(n):
    p = assemble_pencil(n, 1 / (n - 1))
    lam = np.sort_complex(circulant_eigenbasis(p, 0.0)[0])
    ref, _ = dense_eigensolve_pencil(*wrapped_dense(p, 0.0))
    assert np.allclose(np.sort_complex(ref), lam, atol=1e-10 * np.abs(lam).max())


@pytest.mark.parametrize("twist", [0.0, np.pi])
@pytest.mark.parametrize("n", range(3, 66))
def test_wrap_closed_form_matches_dense(n, twist):
    # Both wraps of an absorbing pencil: lambda against the dense eigensolve
    # of the oracle's wrap; V_jl = e^{i theta_l j}, theta_l = (2 pi l +
    # twist)/n, M-orthogonal with norms D and K-diagonalizing; its rows 1 and
    # n are the boundary rows, and the twiddled FFT applies V^H and V.
    p = assemble_pencil(n, 1.0 / (n - 1), 2 * np.pi, BoundaryKind.ABSORBING)
    lam, D = circulant_eigenbasis(p, twist)
    K, M = wrapped_dense(p, twist)
    scale = np.abs(lam).max()
    ref, _ = dense_eigensolve_pencil(K, M)
    assert np.abs(np.sort(ref.real) - np.sort(lam)).max() <= 1e-10 * scale
    assert np.abs(ref.imag).max() <= 1e-10 * scale
    theta = (2 * np.pi * np.arange(n) + twist) / n
    V = np.exp(1j * np.outer(np.arange(n), theta))
    Vh = V.conj().T
    norms = np.sqrt(np.outer(D, D))             # the same checks on V / sqrt(D)
    assert np.abs((Vh @ M @ V - np.diag(D)) / norms).max() <= 1e-12
    assert np.abs((Vh @ K @ V - np.diag(D * lam)) / norms).max() <= 1e-10 * scale
    rows = boundary_rows(n, twist)
    assert np.abs(rows - V[[0, -1]]).max() <= 1e-14 * np.abs(V).max()
    t = twiddle(n, twist, -1)
    assert (t is None) == (twist == 0.0)
    t = np.ones(n) if t is None else t
    x = np.random.default_rng(n).standard_normal((n, 2)) @ [1.0, 1j]
    assert np.allclose(scipy.fft.fft(t * x), Vh @ x,
                       rtol=0, atol=1e-12 * np.abs(Vh @ x).max())
    assert np.allclose(np.conj(t) * n * scipy.fft.ifft(x), V @ x,
                       rtol=0, atol=1e-12 * np.abs(V @ x).max())


@pytest.mark.parametrize("twist", [0.0, np.pi])
@pytest.mark.parametrize("n", range(3, 17))
def test_circulant_norms_are_dft_columns_M_norms(n, twist):
    # D is diag(V^H M V) for the plain DFT columns V_jl = e^{i theta_l j} of
    # the wrapped pencil: the divisor the pipeline puts in place of a scale
    p = assemble_pencil(n, 1.0 / (n - 1), 1.0, BoundaryKind.ABSORBING)
    D = circulant_eigenbasis(p, twist)[1]
    V = np.exp(1j * np.outer(np.arange(n), (2 * np.pi * np.arange(n) + twist) / n))
    ref = np.diag(V.conj().T @ wrapped_dense(p, twist)[1] @ V)
    assert np.isrealobj(D) and D.shape == (n,)
    assert np.allclose(D, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("sigma", [-3.0, 0.5, (2 * np.pi) ** 2, 400.0, 7.5 - 3.2j, 1e7])
@pytest.mark.parametrize("cross", [(9,), (5, 7), (17, 4)])
def test_choose_wrap_gaps_match_all_blocks(cross, sigma):
    # the gaps and the choice against every auxiliary block eigenvalue
    p = assemble_pencil(11, 0.1, 0.0, BoundaryKind.NEUMANN)
    lams = [_cross_modes(n) for n in cross]
    twist, wrap_gaps = choose_wrap(p, sigma, lams)
    sums = np.add.outer(*lams) if len(lams) == 2 else lams[0]
    gaps = []
    for phi in (0.0, np.pi):
        lam1 = circulant_eigenbasis(p, phi)[0]
        gaps.append(np.abs(np.add.outer(lam1, sums) - sigma).min() / abs(sigma))
    assert np.allclose(wrap_gaps, gaps, rtol=1e-12, atol=0)
    assert twist == (np.pi if gaps[1] > gaps[0] else 0.0)


def test_periodic_pencil_rejects_other_twists():
    # a twist other than 0 or pi is refused by the basis and by the oracle's B
    with pytest.raises(ValueError):
        circulant_eigenbasis(assemble_pencil(5, 0.25), np.pi / 2)
    with pytest.raises(ValueError):
        dense_problem(Grid((5, 4)), 2 * np.pi, twist=np.pi / 2).B


@pytest.mark.parametrize("bc", [BoundaryKind.ABSORBING, BoundaryKind.NEUMANN])
@pytest.mark.parametrize("omega", [0.0, 1.0, 2 * np.pi])
@pytest.mark.parametrize("n", [4, 9, 33, 64])
def test_pencil_eigen_normalization(bc, omega, n):
    p = assemble_pencil(n, 1 / (n - 1), omega, bc)
    basis = solve_pencil_eigen(p)
    V = basis.vectors
    G = V.T @ p.M.dense() @ V
    H = V.T @ p.K.dense() @ V
    lam_max = np.abs(basis.lambdas).max()
    assert np.abs(G - np.eye(n)).max() <= 1e-10
    assert np.abs(H - np.diag(basis.lambdas)).max() <= 1e-10 * lam_max


def test_neumann_pencil_has_constant_kernel():
    basis = solve_pencil_eigen(assemble_pencil(7, 1 / 6))
    k = int(np.argmin(np.abs(basis.lambdas)))
    assert abs(basis.lambdas[k]) <= 1e-12
    v = basis.vectors[:, k]
    assert np.abs(v - v.mean()).max() <= 1e-8 * np.abs(v).max()


def test_pencil_eigen_two_point_hand_case():
    # K = [[1-iw, -1], [-1, 1-iw]], M = (1/6)[[2, 1], [1, 2]] on h = 1:
    # eigenvectors are [1, 1] and [1, -1]; the symmetric mode has
    # eigenvalue -2 i omega (= -4 pi i at omega = 2 pi).
    omega = 2 * np.pi
    K = TriCornerMatrix([1 - 1j * omega, 1 - 1j * omega], [-1.0])
    M = TriCornerMatrix([2 / 6, 2 / 6], [1 / 6])
    p = SimpleNamespace(K=K, M=M, bc=BoundaryKind.ABSORBING)
    basis = solve_pencil_eigen(p)
    k = int(np.argmin(np.abs(basis.lambdas - (-2j * omega))))
    assert basis.lambdas[k] == pytest.approx(-4j * np.pi, rel=1e-12)
    v = basis.vectors[:, k]
    assert v[0] == pytest.approx(v[1], rel=1e-12)


def test_pencil_eigen_reconstruction():
    p = assemble_pencil(5, 0.25, 2 * np.pi, BoundaryKind.ABSORBING)
    basis = solve_pencil_eigen(p)
    V = basis.vectors
    K_rec = p.M.dense() @ V @ np.diag(basis.lambdas) @ np.linalg.inv(V)
    assert np.linalg.norm(K_rec - p.K.dense()) <= 1e-9 * np.linalg.norm(p.K.dense())


def test_normalization_failure_on_defective_pencil():
    # [[1, i], [i, -1]] is nilpotent: double eigenvalue 0 with T-null eigenvector.
    K = TriCornerMatrix([1.0, -1.0, 5.0], [1j, 0.0])
    M = TriCornerMatrix([1.0, 1.0, 1.0], [0.0, 0.0])
    p = SimpleNamespace(K=K, M=M, bc=BoundaryKind.NEUMANN)
    with pytest.raises(NormalizationFailure):
        solve_pencil_eigen(p)


# -- boundary-restricted products --------------------------------------------

def test_boundary_product_mode_one_is_constant():
    z = np.zeros((6, 3), dtype=complex)
    z[0] = [1.0, 2.0, 3.0]                   # mode 1 only, three lines
    vb = boundary_rows(6, 0.0) @ z
    assert np.allclose(vb[0], vb[1])


def test_adjoint_then_forward_matches_dense(rng):
    # The solvers take boundary data to the spectral space with the
    # conjugated boundary rows, divide by the M-norms D, and come back with
    # the boundary rows.  The composition must match the dense analysis and
    # synthesis transforms restricted to the boundary, fft and n * ifft.
    n, block = 5, 2
    D = circulant_eigenbasis(assemble_pencil(n, 0.25), 0.0)[1][:, None]
    analysis = scipy.fft.fft(np.eye(n), axis=0)
    synthesis = n * scipy.fft.ifft(np.eye(n), axis=0)
    R = boundary_rows(n, 0.0)
    adjoint = np.conj(R)
    y = rng.standard_normal((2, block)) + 1j * rng.standard_normal((2, block))
    expected = synthesis[[0, -1]] @ (analysis[:, [0, -1]] @ y / D)
    got = R @ (adjoint.T @ y / D)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


# -- boundary Green's function ------------------------------------------------

def _banded_corners(pencil, sigma, lam):
    """Corner blocks of T(lam)^-1 by a pivoted banded solve per mode."""
    out = []
    for c in np.asarray(lam) - sigma:
        ab = np.zeros((3, pencil.n), dtype=complex)
        ab[0, 1:] = ab[2, :-1] = pencil.K.off + c * pencil.M.off
        ab[1] = pencil.K.diag + c * pencil.M.diag
        e = np.zeros((pencil.n, 2), dtype=complex)
        e[0, 0] = e[-1, 1] = 1.0
        out.append(scipy.linalg.solve_banded((1, 1), ab, e)[[0, -1]])
    return np.array(out)


def _green_error(pencil, sigma, lam):
    """Worst error of boundary_green per mode, relative to the mode's block."""
    g, g_far = boundary_green(pencil, sigma, lam)
    got = np.stack([np.stack([g, g_far], -1), np.stack([g_far, g], -1)], 1)
    ref = _banded_corners(pencil, sigma, lam)
    return (np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))).max()


def _cross_modes(n2):
    return dct1_eigen(assemble_pencil(n2, 1 / (n2 - 1)))[0]


@pytest.mark.parametrize("omega", [1.0, 2 * np.pi, 20.0, 40.0])
@pytest.mark.parametrize("n1,n2", [(9, 13), (257, 129), (257, 513), (2049, 257)])
def test_boundary_green_absorbing_matches_banded_solve(n1, n2, omega):
    p = assemble_pencil(n1, 1 / (n1 - 1), omega, BoundaryKind.ABSORBING)
    assert _green_error(p, omega ** 2, _cross_modes(n2)) <= 1e-10


@pytest.mark.parametrize("rel", [1e-3, 1e-6, -1e-6])
@pytest.mark.parametrize("k,j", [(1, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("n1,n2", [(9, 13), (257, 129), (257, 513)])
def test_boundary_green_neumann_near_resonance(n1, n2, k, j, rel):
    # real shift a relative distance rel from the resonance x_1 mode k plus
    # x_2 mode j; both solves lose digits in proportion to n1 / |rel|
    p = assemble_pencil(n1, 1 / (n1 - 1))
    lam = _cross_modes(n2)
    sigma = (dct1_eigen(p)[0][k] + lam[j]) * (1 + rel)
    assert _green_error(p, sigma, lam) <= 1e-14 * n1 / abs(rel)


def test_boundary_green_raises_at_resonance():
    p = assemble_pencil(9, 1 / 8)
    lam = _cross_modes(13)
    with pytest.raises(SingularBlock) as info:
        boundary_green(p, dct1_eigen(p)[0][1] + lam[0], lam)
    assert info.value.block == 0


def test_boundary_green_shape_follows_modes():
    p = assemble_pencil(9, 1 / 8, 2 * np.pi, BoundaryKind.ABSORBING)
    lam = np.add.outer(_cross_modes(5), _cross_modes(7))
    g, g_far = boundary_green(p, (2 * np.pi) ** 2, lam)
    assert g.shape == g_far.shape == (5, 7)
    g1, g_far1 = boundary_green(p, (2 * np.pi) ** 2, lam.ravel())
    assert np.array_equal(g.ravel(), g1) and np.array_equal(g_far.ravel(), g_far1)


def _green_by_rows(pencil, sigma, lam):
    """boundary_green's recurrence, reading every row from the pencil."""
    K, M = pencil.K, pencil.M
    c = np.asarray(lam, dtype=np.complex128) - sigma
    p = K.diag[0] + c * M.diag[0]
    prod = np.ones_like(p)
    for k in range(1, pencil.n):
        neg_off = c * -M.off[k - 1] - K.off[k - 1]
        r = neg_off / p
        prod *= r
        p = (c * M.diag[k] + K.diag[k]) - neg_off * r
        if k % _FLUSH_STEPS == 0:
            for part in (p.imag, prod.real, prod.imag):
                part[np.abs(part) < _FLUSH_BELOW] = 0.0
    g = 1.0 / p
    return g, prod * g


@pytest.mark.parametrize("n1,shift,bc,modes", [
    (3, 2 * np.pi, BoundaryKind.ABSORBING, (5, 7)),
    (65, 1.0, BoundaryKind.ABSORBING, (33,)),
    (257, 40.0, BoundaryKind.ABSORBING, (129,)),
    (257, 7.5 - 3.2j, BoundaryKind.NEUMANN, (129,)),
    (129, 2 * np.pi, BoundaryKind.ABSORBING, (17, 9)),
])
def test_boundary_green_bitwise_matches_row_recurrence(n1, shift, bc, modes):
    # the hoisted loop does the same operations as one reading each row
    if bc == BoundaryKind.ABSORBING:
        p, sigma = assemble_pencil(n1, 1 / (n1 - 1), shift, bc), shift ** 2
    else:
        p, sigma = assemble_pencil(n1, 1 / (n1 - 1)), shift
    lam = functools.reduce(np.add.outer, map(_cross_modes, modes))
    for got, ref in zip(boundary_green(p, sigma, lam), _green_by_rows(p, sigma, lam)):
        assert np.array_equal(got, ref)
