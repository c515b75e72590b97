import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.fft

from helmfft import (BoundaryKind, Grid, SingularBlock, assemble_pencil, boundary_green,
                     build_operator_A, circulant_eigenbasis, dct1_eigen,
                     dense_eigensolve_pencil, dense_problem, dense_solve,
                     kron_apply, plan2d, plan3d, solve3d, solve_block_system)
from helmfft import pipeline
from helmfft.core import dense_kron_sum
from helmfft.cli import main as cli_main
from helmfft.oracle import wrapped_dense
from conftest import rand_field, reachable_arrays, relerr


def test_plan_circulant_eigenvalues_match_dense():
    g = Grid((3, 4, 5))
    plan = plan3d(g, 2 * np.pi)
    p1, *cross = plan.operator.pencils
    pairs = ((wrapped_dense(p1, plan.twist), circulant_eigenbasis(p1, plan.twist)[0]),
             *(((p.K.dense(), p.M.dense()), dct1_eigen(p)[0]) for p in cross))
    for (K, M), lam in pairs:
        ref, _ = dense_eigensolve_pencil(K, M)
        got = np.sort_complex(lam)
        assert np.allclose(np.sort_complex(ref), got,
                           atol=1e-10 * max(1.0, np.abs(got).max()))


@pytest.mark.parametrize("n", range(3, 66))
def test_dct1_closed_form_matches_dense(n):
    p = assemble_pencil(n, 1.0 / (n - 1))
    lam, D = dct1_eigen(p)
    ref, _ = dense_eigensolve_pencil(p.K.dense(), p.M.dense())
    scale = max(1.0, lam.max())
    assert np.abs(np.sort(ref.real) - np.sort(lam)).max() <= 1e-10 * scale
    assert np.abs(ref.imag).max() <= 1e-10 * scale
    V = np.cos(np.outer(np.arange(n), np.pi * np.arange(n) / (n - 1)))
    M, K = p.M.dense().real, p.K.dense().real
    assert np.abs(V.T @ M @ V - np.diag(D)).max() <= 1e-12 * D.max()
    assert np.abs(V.T @ K @ V - np.diag(D * lam)).max() <= 1e-10 * scale
    # V^T x is the DCT-I of x with its interior entries halved
    x = np.random.default_rng(n).standard_normal(n)
    xh = x.copy()
    xh[1:-1] /= 2
    assert np.allclose(scipy.fft.dct(xh, type=1), V.T @ x, rtol=0, atol=1e-12 * n)


@pytest.mark.parametrize("n", [3, 8, 65])
def test_dct1_reads_any_pencil_with_neumann_ends(n):
    # the closed form is the wraps' symbol at k pi/(n-1): an absorbing pencil
    # at omega = 0 has Neumann ends and gets the Neumann data exactly
    h = 1.0 / (n - 1)
    ref = dct1_eigen(assemble_pencil(n, h))
    for omega in (0.0, -0.0):
        got = dct1_eigen(assemble_pencil(n, h, omega, BoundaryKind.ABSORBING))
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    assert all(np.array_equal(a, b)
               for a, b in zip(dct1_eigen(assemble_pencil(n, h, 2.0)), ref))
    for omega in (2 * np.pi, -1.0, 1e-300):
        with pytest.raises(ValueError, match="Neumann ends"):
            dct1_eigen(assemble_pencil(n, h, omega, BoundaryKind.ABSORBING))


def test_dct1_eigenvalues_accurate_at_small_angles():
    # The low modes sit next to the wave number, where the shifted divisors
    # are smallest; lambda_k must not lose digits to 1 - cos(theta_k).
    n = 4097
    h = 1.0 / (n - 1)
    lam, _ = dct1_eigen(assemble_pencil(n, h))
    theta = np.pi * np.arange(1, 9) / (n - 1)
    one_minus_cos = theta**2 / 2 - theta**4 / 24 + theta**6 / 720
    ref = 6.0 * one_minus_cos / (h * h * (2.0 + np.cos(theta)))
    assert np.abs(lam[1:9] / ref - 1.0).max() <= 1e-14


def test_plan_memory_is_subvolumetric():
    g = Grid((9, 9, 65))          # N = 5265, n_j^2 well below
    plan = plan3d(g, 2 * np.pi)
    # walked as perfbench's plan_bytes walks it, tuples included: no array
    assert reachable_arrays(plan) == []


def test_block_system_zero_rhs():
    plan = plan3d(Grid((3, 4, 5)), 1.0)
    out = solve_block_system(plan, "B", np.zeros(60, dtype=complex))
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("which", ["B", "H_B"])
def test_block_system_matches_dense_blocks(which, rng):
    # block l is (Lambda_l - omega^2) M_cross + K_cross, over the cross
    # directions of a 3D plan and of a 2D one
    omega = 2 * np.pi
    for plan in (plan3d(Grid((3, 4, 5)), omega), plan2d(Grid((5, 4)), omega)):
        g = plan.grid
        p1, *cross = plan.operator.pencils
        lam1 = circulant_eigenbasis(p1, plan.twist)[0]
        K = dense_kron_sum([(p.K.dense(), p.M.dense()) for p in cross], 0.0)
        M = functools.reduce(np.kron, [p.M.dense() for p in cross])
        rhs = rand_field(g, 9)
        got = solve_block_system(plan, which, rhs).reshape(g.n[0], -1)
        R = rhs.reshape(g.n[0], -1)
        for l in range(g.n[0]):
            expected = np.linalg.solve((lam1[l] - omega ** 2) * M + K, R[l])
            assert np.linalg.norm(got[l] - expected) <= 1e-9 * np.linalg.norm(expected)


def test_block_system_is_blockwise():
    g = Grid((4, 3, 5))
    plan = plan3d(g, 1.0)
    n1 = 4
    block = g.npoints // n1
    rhs = np.zeros(g.npoints, dtype=complex)
    rhs[2 * block: 3 * block] = rand_field(g, 2)[:block]
    out = solve_block_system(plan, "B", rhs).reshape(n1, block)
    assert np.abs(out[[0, 1, 3]]).max() == 0.0
    assert np.abs(out[2]).max() > 0.0


def test_block_system_rejects_unknown_label():
    plan = plan3d(Grid((3, 3, 3)), 1.0)
    with pytest.raises(ValueError):
        solve_block_system(plan, "C", np.zeros(27, dtype=complex))


def test_solve3d_zero_rhs():
    plan = plan3d(Grid((3, 3, 3)), 2 * np.pi)
    assert np.abs(solve3d(plan, np.zeros(27, dtype=complex))).max() == 0.0


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 5), (5, 4, 3), (9, 5, 7)])
@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
def test_solve3d_oracle_equivalence(shape, omega):
    g = Grid(shape)
    plan = plan3d(g, omega)
    prob = dense_problem(g, omega)
    f = rand_field(g, 13)
    u = solve3d(plan, f)
    assert relerr(u, dense_solve(prob, "A", f).u) <= 1e-9


def test_solve3d_paper_rhs_residual():
    g = Grid((9, 9, 9))
    omega = 2 * np.pi
    plan = plan3d(g, omega)
    f = np.ones(g.npoints, dtype=complex)
    f[:9] = 0.01
    u = solve3d(plan, f)
    op = build_operator_A(g, omega)
    assert np.linalg.norm(kron_apply(op, u) - f) <= 1e-9 * np.linalg.norm(f)
    assert relerr(u, dense_solve(dense_problem(g, omega), "A", f).u) <= 1e-9


def test_solve3d_shared_plan_across_threads():
    g = Grid((5, 4, 3))
    plan = plan3d(g, 2 * np.pi)
    fs = [rand_field(g, 17 + k) for k in range(4)]
    serial = [solve3d(plan, f) for f in fs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve3d, plan, f) for f in fs * 4]
            shared = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for u, ref in zip(shared, serial * 4):
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)
    assert reachable_arrays(plan) == []
    assert plan == plan3d(g, 2 * np.pi)
    with pytest.raises(FrozenInstanceError):
        plan.twist = 0.0


@pytest.mark.parametrize("shape", [(9, 5, 7), (5, 9, 3), (3, 3, 3)])
@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
def test_solve3d_bare_pipeline_is_direct(shape, omega):
    # without refinement the closed-form cross solves leave only roundoff
    g = Grid(shape)
    f = rand_field(g, 23)
    u = solve3d(plan3d(g, omega), f, refine=0)
    assert relerr(u, dense_solve(dense_problem(g, omega), "A", f).u) <= 1e-9


def _resonant_omega(shape):
    # periodic x_1 mode 0 (eigenvalue 0) plus cross mode (1, 0)
    lam2, _ = dct1_eigen(assemble_pencil(shape[1], 1.0 / (shape[1] - 1)))
    return float(np.sqrt(lam2[1]))


def test_plan3d_raises_at_resonance():
    # omega = 0: absorbing ends turn Neumann and the constant is in the
    # kernel of A, though the anti-periodic auxiliary wrap is regular there
    with pytest.raises(SingularBlock) as info:
        plan3d(Grid((4, 5, 6)), 0.0)
    assert info.value.block == 0
    plan3d(Grid((4, 5, 6)), 1e-3)


def test_plan3d_leaves_a_resonant_periodic_wrap():
    # only the periodic wrap is singular here, not the absorbing problem
    shape = (4, 5, 6)
    g = Grid(shape)
    omega = _resonant_omega(shape)
    plan = plan3d(g, omega)
    assert plan.twist == np.pi
    assert plan.wrap_gaps[0] <= 1e-14 < 0.1 < plan.wrap_gaps[1]
    f = rand_field(g, 3)
    u = solve3d(plan, f)
    assert relerr(u, dense_solve(dense_problem(g, omega), "A", f).u) <= 1e-9


def test_cli_3d_resonance_exit_code():
    rc = cli_main(["solve", "--d", "3", "--n1", "4", "--n2", "5", "--n3", "6",
                   "--omega", "0", "--repeats", "1"])
    assert rc == 3


def test_solve3d_shift_sets():
    g = Grid((4, 3, 3))
    plan = plan3d(g, 2 * np.pi)
    # the absorbing x_1 blocks are genuinely complex, the periodic shifts real
    lam = pipeline.cross_planes(plan)[1]
    green = boundary_green(plan.operator.pencils[0], (2 * np.pi) ** 2, lam)
    assert min(np.abs(part.imag).max() for part in green) > 1e-6
    shifts = pipeline.x1_spectra(plan)[0]
    assert np.abs(shifts.imag).max() <= 1e-12
    lamB = circulant_eigenbasis(plan.operator.pencils[0], plan.twist)[0]
    assert np.allclose(shifts, (2 * np.pi) ** 2 - lamB)


@pytest.mark.parametrize("which", ["short", "nan", "inf", "transposed"])
def test_bad_input_raises(which):
    g = Grid((3, 4, 5))
    plan = plan3d(g, 2 * np.pi)
    f = np.ones(g.npoints - 1 if which == "short" else g.npoints, dtype=complex)
    if which == "transposed":           # the right number of entries, (5, 4, 3)
        f = f.reshape(g.shape).T.copy()
    elif which != "short":
        f[7] = np.nan if which == "nan" else complex(np.inf, 0.0)
    for call in (lambda: solve3d(plan, f), lambda: solve3d(plan, f, refine=0),
                 lambda: solve_block_system(plan, "B", f)):
        with pytest.raises(ValueError):
            call()
