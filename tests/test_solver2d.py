import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.fft

from helmfft import (BoundaryKind, Grid, SingularBlock,
                     assemble_pencil, boundary_green,
                     build_operator_A, circulant_eigenbasis, dct1_eigen,
                     dense_eigensolve_pencil,
                     dense_partial_solution, dense_problem, dense_solve,
                     kron_apply, plan2d, plan3d, solve2d, solve3d, solve_aux_partial,
                     solve_correction, solve_final)
from helmfft import pipeline
from helmfft.spectral import boundary_rows, twiddle
from conftest import rand_field, reachable_arrays, relerr

# wave numbers at which plan2d on the (5, 4) grid picks each auxiliary wrap
WRAP_OMEGAS = {np.pi: 2 * np.pi, 0.0: 20.0}


def test_plan_blocks_match_dense_assembly():
    # Each H_B block (Lambda^B_l - sigma) M_2 + K_2 is diagonal in the DCT-I
    # basis of x_2: a dense solve of T x = M_2 v_k gives v_k / (Lambda^B_l -
    # sigma + lambda_k), the divide the pipeline runs.
    for shape, omega_or_shift, bc in [((3, 3), 2 * np.pi, BoundaryKind.ABSORBING),
                                      ((4, 7), 20.0, BoundaryKind.ABSORBING),
                                      ((5, 4), 7.5 - 3.2j, BoundaryKind.NEUMANN)]:
        plan = plan2d(Grid(shape), omega_or_shift, bc_x1=bc)
        n2 = shape[1]
        p2 = plan.operator.pencils[1]
        V = np.cos(np.outer(np.arange(n2), np.pi * np.arange(n2) / (n2 - 1)))
        sigma = plan.operator.sigma
        lamB, D = circulant_eigenbasis(plan.operator.pencils[0], plan.twist)
        shifts, inv_D, rows = pipeline.x1_spectra(plan)
        assert np.array_equal(shifts, sigma - lamB)
        assert np.array_equal(inv_D, 1.0 / D)
        assert np.array_equal(rows, boundary_rows(shape[0], plan.twist))
        lam2 = pipeline.cross_planes(plan)[1]
        assert np.array_equal(lam2, dct1_eigen(p2)[0])
        for l in range(shape[0]):
            T = (lamB[l] - sigma) * p2.M.dense() + p2.K.dense()
            got = np.linalg.solve(T, p2.M.dense() @ V)
            expected = V / (lamB[l] - sigma + lam2)
            assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)


def test_plan_neumann_negative_shift_is_coercive():
    plan = plan2d(Grid((6, 5)), -1.0, bc_x1=BoundaryKind.NEUMANN)
    # every auxiliary block eigenvalue Lambda_l - sigma + lambda_k is >= 1
    p1, sigma = plan.operator.pencils[0], plan.operator.sigma
    lam1 = circulant_eigenbasis(p1, plan.twist)[0]
    lam2 = pipeline.cross_planes(plan)[1]
    eig = np.add.outer(lam1 - sigma, lam2)
    gap = plan.wrap_gaps[int(plan.twist != 0.0)] * abs(sigma)
    assert np.isclose(gap, np.abs(eig).min(), rtol=1e-12)
    assert gap >= 1.0 - 1e-12
    # each original x_1 block K_1 + (lam_c + 1) M_1 is SPD; its boundary
    # Green's function is the corner block of the dense inverse
    g, g_far = boundary_green(p1, sigma, lam2)
    for k, lam in enumerate(lam2):
        T_inv = np.linalg.inv(p1.K.dense() + (lam + 1.0) * p1.M.dense())
        corner = np.array([[g[k], g_far[k]], [g_far[k], g[k]]])
        assert np.allclose(T_inv[np.ix_([0, -1], [0, -1])], corner, rtol=1e-12, atol=0)


def test_plan_resonant_shift_raises():
    n1, n2 = 5, 5
    g = Grid((n1, n2))
    p1 = assemble_pencil(n1, g.h[0])
    p2 = assemble_pencil(n2, g.h[1])
    lam1, _ = dense_eigensolve_pencil(p1.K.dense(), p1.M.dense())
    lam2, _ = dense_eigensolve_pencil(p2.K.dense(), p2.M.dense())
    sigma = (lam1[1] + lam2[0]).real
    with pytest.raises(SingularBlock):
        plan2d(g, sigma, bc_x1=BoundaryKind.NEUMANN)


def test_plan_resonant_original_block_raises():
    # Neumann x_1 mode 1 plus x_2 mode 0: an original block is singular while
    # no auxiliary (periodic x_1) block is, so the A guard alone must raise.
    g = Grid((5, 7))
    p1 = assemble_pencil(5, g.h[0])
    p2 = assemble_pencil(7, g.h[1])
    sigma = dct1_eigen(p1)[0][1] + dct1_eigen(p2)[0][0]
    lamB = circulant_eigenbasis(p1, 0.0)[0]
    lam2 = dct1_eigen(p2)[0]
    gap = np.abs(np.add.outer(lamB - sigma, lam2)).min()
    assert gap > 1e-2 * sigma                 # no auxiliary block is near resonance
    with pytest.raises(SingularBlock) as info:
        plan2d(g, sigma, bc_x1=BoundaryKind.NEUMANN)
    assert info.value.block == 1
    plan2d(g, 1.01 * sigma, bc_x1=BoundaryKind.NEUMANN)


@pytest.mark.parametrize("plan", [plan2d(Grid((33, 65)), 2 * np.pi),
                                  plan2d(Grid((33, 65)), 7.5 - 3.2j, bc_x1=BoundaryKind.NEUMANN),
                                  plan3d(Grid((33, 17, 65)), 2 * np.pi)],
                         ids=["2d", "2d-neumann", "3d"])
def test_plan_holds_no_field_sized_array(plan):
    # the plan holds no array; a solve forms x_1 mode data of size n1 and the
    # cross planes rho and lam of size n2 ... nd, no block factors
    n1, *ns = plan.grid.n
    shifts, inv_D, rows = pipeline.x1_spectra(plan)
    assert shifts.shape == inv_D.shape == (n1,) and rows.shape == (2, n1)
    assert all(a.shape == tuple(ns) for a in pipeline.cross_planes(plan))


def test_one_plan_class_for_both_solvers():
    assert type(plan2d(Grid((5, 4)), 2 * np.pi)) is type(plan3d(Grid((5, 4, 3)), 2 * np.pi))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_plan_rejects_non_finite_omega(value):
    for make in (lambda: plan2d(Grid((5, 4)), value), lambda: plan3d(Grid((4, 5, 3)), value)):
        with pytest.raises(ValueError):
            make()
    for shift in (complex(value, 0.0), complex(1.0, value)):
        with pytest.raises(ValueError):
            plan2d(Grid((5, 4)), shift, bc_x1=BoundaryKind.NEUMANN)
    # a finite omega whose square overflows (or underflows to 0) a double
    for omega in (1e155, 1e200, -1e200, 1e-170):
        for make in (lambda: plan2d(Grid((5, 4)), omega), lambda: plan3d(Grid((4, 5, 3)), omega)):
            with pytest.raises(ValueError, match="in range"):
                make()


def test_plan_rejects_complex_omega_with_absorbing_ends():
    for make in (lambda w: plan2d(Grid((5, 4)), w), lambda w: plan3d(Grid((4, 5, 3)), w)):
        with pytest.raises(ValueError, match="real, finite wave number"):
            make(2 + 1j)
        assert make(2 + 0j).operator.pencils[0].omega == 2.0
    plan2d(Grid((5, 4)), 2 + 1j, bc_x1=BoundaryKind.NEUMANN)    # a complex shift


def test_plan_raises_at_zero_omega():
    # absorbing ends with omega = 0 are Neumann ends without a shift: the
    # constant is in the kernel, though the anti-periodic wrap is regular
    with pytest.raises(SingularBlock) as info:
        plan2d(Grid((5, 4)), 0.0)
    assert info.value.block == 0


def test_aux_partial_zero_rhs():
    plan = plan2d(Grid((5, 4)), 2 * np.pi)
    v_b, f_hat = solve_aux_partial(plan, np.zeros(20, dtype=complex))
    assert np.abs(v_b).max() == 0.0
    assert np.abs(f_hat).max() == 0.0


@pytest.mark.parametrize("plan", [plan2d(Grid((9, 6)), 2 * np.pi),
                                  plan2d(Grid((9, 6)), 7.5 - 3.2j, bc_x1=BoundaryKind.NEUMANN)],
                         ids=["absorbing", "neumann"])
def test_aux_partial_f_hat_is_plain_transform(plan):
    # f_hat is the x_2 DCT-I of E fft(t f), E doubling the x_2 end columns
    # and t the wrap's twiddle: no x_1 scale enters it
    f = rand_field(plan.grid, 3).reshape(plan.grid.shape)
    t = twiddle(9, plan.twist, -1)
    X = scipy.fft.fft(f * (1.0 if t is None else t[:, None]), axis=0)
    X[:, [0, -1]] *= 2.0
    expected = scipy.fft.dct(X, type=1, axis=1)
    f_hat = solve_aux_partial(plan, f.reshape(-1))[1].reshape(plan.grid.shape)
    assert np.allclose(f_hat, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


def test_wrap_omegas_pick_each_wrap():
    for twist, omega in WRAP_OMEGAS.items():
        assert plan2d(Grid((5, 4)), omega).twist == twist


def test_aux_partial_matches_dense_boundary():
    g = Grid((5, 4))
    f = rand_field(g, 11)
    for twist, omega in WRAP_OMEGAS.items():
        v_b, _ = solve_aux_partial(plan2d(g, omega), f)
        expected = dense_partial_solution(dense_problem(g, omega, twist=twist), "B", f)
        assert np.linalg.norm(v_b - expected) <= 1e-11 * np.linalg.norm(expected)


def test_aux_partial_real_for_real_shift():
    # Periodic auxiliary operator and shift are real; a real rhs gives real v_b.
    g = Grid((6, 5))
    plan = plan2d(g, 3.0, bc_x1=BoundaryKind.NEUMANN)
    f = np.random.default_rng(0).standard_normal(g.npoints).astype(np.complex128)
    v_b, _ = solve_aux_partial(plan, f)
    assert np.abs(v_b.imag).max() <= 1e-12 * np.abs(v_b.real).max()


def test_correction_zero_boundary():
    plan = plan2d(Grid((5, 4)), 2 * np.pi)
    assert np.abs(solve_correction(plan, np.zeros(8, dtype=complex))).max() == 0.0


def test_correction_matches_dense_chain():
    g = Grid((5, 4))
    f = rand_field(g, 21)
    n2 = 4
    for twist, omega in WRAP_OMEGAS.items():
        prob = dense_problem(g, omega, twist=twist)
        v = dense_solve(prob, "B", f).u
        w = np.linalg.solve(prob.A, (prob.B - prob.A) @ v)
        expected = np.concatenate([w[:n2], w[-n2:]])

        plan = plan2d(g, omega)
        vb = np.concatenate([v[:n2], v[-n2:]])
        got = solve_correction(plan, vb)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_correction_zeroed_cbb_gives_zero():
    import dataclasses
    g = Grid((5, 4))
    plan = plan2d(g, 2 * np.pi)
    plan0 = dataclasses.replace(plan, correction=np.zeros((2, 2), dtype=complex))
    vb = rand_field(g, 3)[:8]
    assert np.abs(solve_correction(plan0, vb)).max() == 0.0


@pytest.mark.parametrize("plan", [plan2d(Grid((5, 7)), 2 * np.pi),
                                  plan2d(Grid((6, 4)), 7.5 - 3.2j, bc_x1=BoundaryKind.NEUMANN),
                                  plan3d(Grid((4, 5, 6)), 20.0)],
                         ids=["2d", "2d-neumann", "3d"])
def test_pipeline_cbb_matches_correction_apply(plan):
    # The pipeline applies C_bb per DCT-I cross mode, over rho; taken back to
    # right-hand-side form (dct1 of E x over the cross axes) it must equal the
    # boundary block of the dense B - A, assembled entrywise by the oracle.
    g = plan.grid
    block = g.npoints // g.n[0]
    p1 = plan.operator.pencils[0]
    if p1.bc == BoundaryKind.NEUMANN:
        # B - A is affine in sigma, and the oracle's shift is a real omega^2
        D0, D1 = (dense_problem(g, omega, p1.bc, plan.twist) for omega in (0.0, 1.0))
        D = (D0.B - D0.A) + plan.operator.sigma * ((D1.B - D1.A) - (D0.B - D0.A))
    else:
        prob = dense_problem(g, p1.omega, p1.bc, plan.twist)
        D = prob.B - prob.A
    ends = np.r_[:block, g.npoints - block:g.npoints]
    v = np.random.default_rng(5).standard_normal((2,) + g.n[1:]) + 1j
    rho, lam = pipeline.cross_planes(plan)
    got = rho * pipeline._boundary_corr(plan, pipeline.boundary_modes(v), lam)
    cbb_v = (D[np.ix_(ends, ends)] @ v.reshape(-1)).reshape(v.shape)
    expected = pipeline.dct_cross(cbb_v, None, scale_ends=True)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("omega,res_tol", [(1.0, 1e-10), (2 * np.pi, 1e-9),
                                           (WRAP_OMEGAS[0.0], 1e-10)])
def test_three_step_composition(omega, res_tol):
    # The bare three-step composition through the public step functions, no
    # defect correction; on the (5, 4) grid the anti-periodic wrap (omega = 1
    # and 2 pi) and the periodic one, and on a grid with n_2 > n_1.
    for shape in ((5, 4), (4, 7)):
        g = Grid(shape)
        f = rand_field(g, 33)
        plan = plan2d(g, omega)
        v_b, f_hat = solve_aux_partial(plan, f)
        w_b = solve_correction(plan, v_b)
        u = solve_final(plan, f_hat, v_b, w_b)

        op = build_operator_A(g, omega)
        assert np.linalg.norm(kron_apply(op, u) - f) <= res_tol * np.linalg.norm(f)
        ref = dense_solve(dense_problem(g, omega), "A", f).u
        assert relerr(u, ref) <= 1e-9
        assert v_b.shape == (2 * shape[1],)


def _dense_2d(g, sigma, bc):
    p1 = assemble_pencil(g.n[0], g.h[0], np.sqrt(sigma).real, bc)
    p2 = assemble_pencil(g.n[1], g.h[1])
    return (np.kron(p1.K.dense() - sigma * p1.M.dense(), p2.M.dense())
            + np.kron(p1.M.dense(), p2.K.dense()))


@pytest.mark.parametrize("shape", [(5, 4), (4, 7), (9, 5)])
@pytest.mark.parametrize("omega_or_shift,bc", [
    (1.0, BoundaryKind.ABSORBING), (2 * np.pi, BoundaryKind.ABSORBING),
    (20.0, BoundaryKind.ABSORBING), (7.5 - 3.2j, BoundaryKind.NEUMANN)])
def test_bare_pipeline_matches_dense_lu(shape, omega_or_shift, bc):
    # refine=0: the pipeline alone, with no pass to hide a slightly wrong one
    g = Grid(shape)
    plan = plan2d(g, omega_or_shift, bc_x1=bc)
    A = _dense_2d(g, plan.operator.sigma, bc)
    for seed in (0, 1):
        f = rand_field(g, 40 + seed)
        assert relerr(solve2d(plan, f, refine=0), np.linalg.solve(A, f)) <= 1e-10


def test_workers_reach_every_transform(monkeypatch):
    import scipy.fft
    seen = []
    for name in ("dct", "fft", "ifft"):
        orig = getattr(scipy.fft, name)

        def traced(*args, _orig=orig, _name=name, **kwargs):
            seen.append((_name, kwargs.get("workers")))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, traced)
    g = Grid((5, 4))
    plan = plan2d(g, 2 * np.pi)
    f = rand_field(g, 9)
    v_b, f_hat = solve_aux_partial(plan, f, workers=2)
    n_step1 = len(seen)
    w_b = solve_correction(plan, v_b, workers=2)
    assert [name for name, _ in seen[n_step1:]] == ["dct", "dct"]
    solve_final(plan, f_hat, v_b, w_b, workers=2)
    solve2d(plan, f, workers=2)
    assert {name for name, _ in seen} == {"dct", "fft", "ifft"}
    assert all(workers == 2 for _, workers in seen), seen


def test_default_solve_residual_at_resonant_omega():
    # With the default defect-correction pass the solver meets the strict
    # residual bound even at the near-resonant wave number.
    g = Grid((5, 4))
    omega = 2 * np.pi
    f = rand_field(g, 33)
    u = solve2d(plan2d(g, omega), f)
    op = build_operator_A(g, omega)
    assert np.linalg.norm(kron_apply(op, u) - f) <= 1e-10 * np.linalg.norm(f)


def test_zero_rhs_gives_zero():
    plan = plan2d(Grid((5, 4)), 2 * np.pi)
    u = solve2d(plan, np.zeros(20, dtype=complex))
    assert np.abs(u).max() == 0.0


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (9, 5), (5, 9)])
@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
def test_solve2d_oracle_equivalence(shape, omega):
    g = Grid(shape)
    plan = plan2d(g, omega)
    prob = dense_problem(g, omega)
    for seed in (0, 1):
        f = rand_field(g, seed)
        u = solve2d(plan, f)
        assert relerr(u, dense_solve(prob, "A", f).u) <= 1e-9


def test_solve2d_neumann_complex_shift_oracle():
    # Inner-block configuration: Neumann pencil, complex shift.
    g = Grid((5, 4))
    sigma = 7.5 - 3.2j
    plan = plan2d(g, sigma, bc_x1=BoundaryKind.NEUMANN)
    f = rand_field(g, 4)
    u = solve2d(plan, f)
    p1 = assemble_pencil(5, g.h[0])
    p2 = assemble_pencil(4, g.h[1])
    A = (np.kron(p1.K.dense() - sigma * p1.M.dense(), p2.M.dense())
         + np.kron(p1.M.dense(), p2.K.dense()))
    assert relerr(u, np.linalg.solve(A, f)) <= 1e-10


def test_solve2d_linearity():
    g = Grid((9, 7))
    plan = plan2d(g, 2 * np.pi)
    f1, f2 = rand_field(g, 5), rand_field(g, 6)
    lhs = solve2d(plan, f1 + f2, refine=0)
    rhs = solve2d(plan, f1, refine=0) + solve2d(plan, f2, refine=0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_refinement_never_degrades_residual():
    g = Grid((9, 9))
    omega = 2 * np.pi
    plan = plan2d(g, omega)
    op = build_operator_A(g, omega)
    f = rand_field(g, 7)
    res = []
    for refine in (0, 1, 3):
        u = solve2d(plan, f, refine=refine)
        res.append(np.linalg.norm(kron_apply(op, u) - f) / np.linalg.norm(f))
    assert res[1] <= res[0] and res[2] <= res[1]


def test_plan_is_reusable_and_inputs_untouched():
    g = Grid((5, 5))
    plan = plan2d(g, 2 * np.pi)
    f = rand_field(g, 8)
    f0 = f.copy()
    u1 = solve2d(plan, f)
    u2 = solve2d(plan, f)
    assert np.array_equal(f, f0)
    assert np.array_equal(u1, u2)


def test_plan_reaches_no_array():
    # a plan holds only its decisions: walked as perfbench's plan_bytes walks
    # it, it reaches no array that a write could change under a later solve
    for plan in (plan2d(Grid((6, 5)), 2 * np.pi), plan3d(Grid((5, 4, 3)), 2 * np.pi),
                 plan2d(Grid((6, 5)), 7.5 - 3.2j, bc_x1=BoundaryKind.NEUMANN)):
        assert reachable_arrays(plan) == []
        assert np.shape(plan.correction) == (2, 2)


def test_equal_plans_compare_and_hash_alike():
    # a plan is a frozen dataclass of numbers, tuples and pencils: plans built
    # from the same arguments are equal and hash alike, in 2D and 3D, and a
    # plan at another wave number differs
    for build, grid in ((plan2d, Grid((9, 7))), (plan3d, Grid((5, 4, 3)))):
        a, b = build(grid, 2 * np.pi), build(grid, 2 * np.pi)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != build(grid, 1.0)


@pytest.mark.parametrize("refine", [-1, -2, 1.5, 1.0, "1", None])
def test_bad_refine_raises(refine):
    # refine counts passes: anything but an integer >= 0 raises, in 2D and 3D
    g2, g3 = Grid((5, 4)), Grid((4, 3, 3))
    for plan, solve, g in ((plan2d(g2, 2 * np.pi), solve2d, g2),
                           (plan3d(g3, 2 * np.pi), solve3d, g3)):
        with pytest.raises(ValueError, match="refine"):
            solve(plan, rand_field(g, 1), refine=refine)


def test_solve2d_shared_plan_across_threads():
    g = Grid((6, 5))
    plan = plan2d(g, 2 * np.pi)
    fs = [rand_field(g, 17 + k) for k in range(4)]
    serial = [solve2d(plan, f) for f in fs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve2d, plan, f) for f in fs * 4]
            shared = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for u, ref in zip(shared, serial * 4):
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)
    # the solves share a plan that holds no array and leave it as built
    assert reachable_arrays(plan) == []
    assert plan == plan2d(g, 2 * np.pi)
    with pytest.raises(FrozenInstanceError):
        plan.twist = 0.0


@pytest.mark.parametrize("which", ["short", "nan", "inf", "transposed"])
def test_bad_input_raises(which):
    # "transposed": the right number of entries in the wrong shape
    g = Grid((5, 4))
    plan = plan2d(g, 2 * np.pi)

    def bad(shape):
        if which == "transposed":
            return np.ones(shape[::-1], dtype=complex)
        n = int(np.prod(shape))
        x = np.ones(n - 1 if which == "short" else n, dtype=complex)
        if which != "short":
            x[n // 2] = np.nan if which == "nan" else complex(0.0, np.inf)
        return x

    f, b = bad(g.shape), bad((2, g.n[1]))
    ps, f_hat = solve_aux_partial(plan, rand_field(g, 2))
    w_b = solve_correction(plan, ps)
    for call in (lambda: solve2d(plan, f), lambda: solve2d(plan, f, refine=0),
                 lambda: solve_aux_partial(plan, f),
                 lambda: solve_correction(plan, b),
                 lambda: solve_final(plan, f, ps, w_b),
                 lambda: solve_final(plan, f_hat, b, w_b),
                 lambda: solve_final(plan, f_hat, ps, b)):
        with pytest.raises(ValueError):
            call()


def test_step_functions_reject_a_3d_plan():
    # the steps take 2D boundary pairs (2 n_2 values); on a 3D plan step 1
    # would return 2 n_2 n_3 of them, which step 2 then refuses
    g = Grid((9, 7, 5))
    plan = plan3d(g, 2 * np.pi)
    f, b = rand_field(g, 4), np.ones(2 * g.n[1], dtype=complex)
    for call in (lambda: solve_aux_partial(plan, f),
                 lambda: solve_correction(plan, b),
                 lambda: solve_final(plan, f, b, b)):
        with pytest.raises(ValueError, match="needs a 2D plan"):
            call()
