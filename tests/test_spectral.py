import numpy as np
import pytest
import scipy.fft

from helmfft import (BoundaryKind, Grid, NormalizationFailure, TriCornerMatrix,
                     assemble_pencil, assemble_periodic_pencil,
                     circulant_eigenbasis, circulant_eigenvalues,
                     clear_eigen_cache, dense_eigensolve_pencil, plan2d,
                     solve_pencil_eigen, spectral)
from helmfft.assembly import Pencil1D


def test_circulant_eigenvalues_closed_form():
    h = 0.2
    p = assemble_periodic_pencil(4, h)
    lam = circulant_eigenvalues(p)
    mu = 1.0 / (4 * circulant_eigenbasis(p).scales ** 2)   # s_l = 1/sqrt(n mu_l)
    assert lam[0] == pytest.approx(0.0, abs=1e-13)
    # theta = pi mode: stiffness symbol 4/h, mass symbol h/3
    assert lam[2] == pytest.approx(12 / h ** 2, rel=1e-13)
    assert mu[2] == pytest.approx(h / 3, rel=1e-13)
    assert mu[0] == pytest.approx(h, rel=1e-13)
    assert np.abs(lam.imag).max() <= 1e-12 * max(1.0, np.abs(lam).max())


@pytest.mark.parametrize("n", [4, 5, 9])
def test_circulant_pair_symmetry(n):
    lam = circulant_eigenvalues(assemble_periodic_pencil(n, 1 / (n - 1)))
    for l in range(1, n):  # modes l and n+2-l coincide (1-based), l = 2..n
        assert lam[l] == pytest.approx(lam[(n - l) % n], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16])
def test_circulant_matches_dense_eigensolve(n):
    p = assemble_periodic_pencil(n, 1 / (n - 1))
    lam = np.sort_complex(circulant_eigenvalues(p))
    ref, _ = dense_eigensolve_pencil(p.K.dense(), p.M.dense())
    assert np.allclose(np.sort_complex(ref), lam, atol=1e-10 * np.abs(lam).max())


def test_circulant_requires_periodic():
    with pytest.raises(ValueError):
        circulant_eigenvalues(assemble_pencil(5, 0.25))


@pytest.mark.parametrize("bc", [BoundaryKind.ABSORBING, BoundaryKind.NEUMANN])
@pytest.mark.parametrize("omega", [0.0, 1.0, 2 * np.pi])
@pytest.mark.parametrize("n", [4, 9, 33, 64])
def test_pencil_eigen_normalization(bc, omega, n):
    p = assemble_pencil(n, 1 / (n - 1), omega, bc)
    basis = solve_pencil_eigen(p, cache=False)
    V = basis.vectors
    G = V.T @ p.M.dense() @ V
    H = V.T @ p.K.dense() @ V
    lam_max = np.abs(basis.lambdas).max()
    assert np.abs(G - np.eye(n)).max() <= 1e-10
    assert np.abs(H - np.diag(basis.lambdas)).max() <= 1e-10 * lam_max


def test_neumann_pencil_has_constant_kernel():
    basis = solve_pencil_eigen(assemble_pencil(7, 1 / 6), cache=False)
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
    p = Pencil1D(K=K, M=M, bc=BoundaryKind.ABSORBING, n=2, h=1.0, omega=omega)
    basis = solve_pencil_eigen(p, cache=False)
    k = int(np.argmin(np.abs(basis.lambdas - (-2j * omega))))
    assert basis.lambdas[k] == pytest.approx(-4j * np.pi, rel=1e-12)
    v = basis.vectors[:, k]
    assert v[0] == pytest.approx(v[1], rel=1e-12)


def test_pencil_eigen_reconstruction():
    p = assemble_pencil(5, 0.25, 2 * np.pi, BoundaryKind.ABSORBING)
    basis = solve_pencil_eigen(p, cache=False)
    V = basis.vectors
    K_rec = p.M.dense() @ V @ np.diag(basis.lambdas) @ np.linalg.inv(V)
    assert np.linalg.norm(K_rec - p.K.dense()) <= 1e-9 * np.linalg.norm(p.K.dense())


def test_normalization_failure_on_defective_pencil():
    # [[1, i], [i, -1]] is nilpotent: double eigenvalue 0 with T-null eigenvector.
    K = TriCornerMatrix([1.0, -1.0, 5.0], [1j, 0.0])
    M = TriCornerMatrix([1.0, 1.0, 1.0], [0.0, 0.0])
    p = Pencil1D(K=K, M=M, bc=BoundaryKind.NEUMANN, n=3, h=1.0)
    with pytest.raises(NormalizationFailure):
        solve_pencil_eigen(p, cache=False)


# -- boundary-restricted products --------------------------------------------

def test_boundary_product_mode_one_is_constant():
    p = assemble_periodic_pencil(6, 0.2)
    basis = circulant_eigenbasis(p)
    z = np.zeros((6, 3), dtype=complex)
    z[0] = [1.0, 2.0, 3.0]                   # mode 1 only, three lines
    vb = basis.boundary_rows() @ z
    assert np.allclose(vb[0], vb[1])


@pytest.mark.parametrize("kind", ["circulant", "numeric"])
def test_adjoint_then_forward_matches_dense(kind, rng):
    # The solvers take boundary data to the spectral space with the adjoint
    # rows (the conjugated boundary rows for a circulant basis, the rows
    # themselves for a numeric one) and back with the boundary rows.  The
    # composition must match the dense analysis and synthesis transforms
    # restricted to the boundary: s * fft and n * ifft(s * .) for circulant
    # bases, V^T and V for numeric ones.
    n, block = 5, 2
    if kind == "circulant":
        basis = circulant_eigenbasis(assemble_periodic_pencil(n, 0.25))
        s = basis.scales[:, None]
        analysis = s * scipy.fft.fft(np.eye(n), axis=0)
        synthesis = n * scipy.fft.ifft(s * np.eye(n), axis=0)
    else:
        basis = solve_pencil_eigen(
            assemble_pencil(n, 0.25, 2 * np.pi, BoundaryKind.ABSORBING), cache=False)
        analysis, synthesis = basis.vectors.T, basis.vectors
    R = basis.boundary_rows()
    adjoint = np.conj(R) if kind == "circulant" else R
    y = rng.standard_normal((2, block)) + 1j * rng.standard_normal((2, block))
    expected = synthesis[[0, -1]] @ (analysis[:, [0, -1]] @ y)
    got = R @ (adjoint.T @ y)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_eigen_cache_reuse():
    clear_eigen_cache()
    p = assemble_pencil(9, 0.125, 1.0, BoundaryKind.ABSORBING)
    b1 = solve_pencil_eigen(p)
    b2 = solve_pencil_eigen(assemble_pencil(9, 0.125, 1.0, BoundaryKind.ABSORBING))
    assert b1 is b2
    clear_eigen_cache()


def test_eigen_cache_is_bounded(monkeypatch):
    # planning more distinct wave numbers than the cache has room for
    basis_bytes = 16 * 9 * 9
    monkeypatch.setattr(spectral, "EIGEN_CACHE_BYTES", 3 * basis_bytes)
    clear_eigen_cache()
    omegas = 1.0 + np.arange(7)
    bases = [plan2d(Grid((9, 5)), w).basis_numeric for w in omegas]
    assert len(spectral._EIGEN_CACHE) == 3
    assert sum(b.vectors.nbytes for b in spectral._EIGEN_CACHE.values()) == 3 * basis_bytes
    # the newest keys are kept, the oldest evicted
    p_last = assemble_pencil(9, 0.125, omegas[-1], BoundaryKind.ABSORBING)
    assert solve_pencil_eigen(p_last) is bases[-1]
    p_first = assemble_pencil(9, 0.125, omegas[0], BoundaryKind.ABSORBING)
    assert solve_pencil_eigen(p_first) is not bases[0]
    assert len(spectral._EIGEN_CACHE) == 3
    clear_eigen_cache()
    assert not spectral._EIGEN_CACHE
