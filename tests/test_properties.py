"""At-scale properties: residuals without any dense matrix, accuracy at the
paper's wave number against a sparse direct solve, the auxiliary wrap each
plan keeps, complexity slopes, the bench/slope tooling on the full size
sweep, and the scratch memory of a default solve.

At omega = 2 pi on the unit box the periodic auxiliary problem is
asymptotically resonant (its spectral gap closes like O(h^2)), so the plans
keep the anti-periodic wrap there, whose gap stays near 0.25; the residual
properties run at omega = 1, the accuracy and wrap checks at 2 pi.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import helmfft.core as core
from helmfft import (BoundaryKind, Grid, build_operator_A, dense_problem, kron_apply, pipeline,
                     plan2d, plan3d, solve2d, solve3d, tune_allocator)
from helmfft.cli import RunConfig, emit, fit_slope, read_records, run
from conftest import longdouble_reference, rand_field, relerr

tune_allocator()


def _residual(grid, omega, u, f):
    op = build_operator_A(grid, omega)
    return float(np.linalg.norm(kron_apply(op, u) - f) / np.linalg.norm(f))


def test_residual_at_scale_2d():
    for n in (513, 1025):
        grid = Grid((n, n))
        f = rand_field(grid, n)
        u = solve2d(plan2d(grid, 1.0), f, workers=2)
        assert _residual(grid, 1.0, u, f) <= 1e-9


def test_residual_at_scale_3d():
    grid = Grid((129, 129, 129))
    f = rand_field(grid, 129)
    u = solve3d(plan3d(grid, 1.0), f, workers=2)
    assert _residual(grid, 1.0, u, f) <= 1e-9


def _sparse_operator_2d(n, omega):
    """A on the unit square, n x n points, absorbing x_1 ends, assembled
    from the bilinear element matrices without helmfft."""
    h = 1.0 / (n - 1)

    def pencil(k_end):
        kd = np.full(n, 2.0 / h, dtype=complex)
        kd[[0, -1]] = k_end
        md = np.full(n, 2.0 * h / 3.0)
        md[[0, -1]] = h / 3.0
        K = sp.diags([np.full(n - 1, -1.0 / h), kd, np.full(n - 1, -1.0 / h)], [-1, 0, 1])
        M = sp.diags([np.full(n - 1, h / 6.0), md, np.full(n - 1, h / 6.0)], [-1, 0, 1])
        return K, M

    K1, M1 = pencil((1.0 - 1j * omega * h) / h)
    K2, M2 = pencil(1.0 / h)
    return (sp.kron(K1 - omega ** 2 * M1, M2) + sp.kron(M1, K2)).tocsc()


def test_default_solve_accuracy_at_paper_omega_2d():
    n, omega = 257, 2 * np.pi
    grid = Grid((n, n))
    f = rand_field(grid, 257)
    u = solve2d(plan2d(grid, omega), f)
    ref = scipy.sparse.linalg.splu(_sparse_operator_2d(n, omega)).solve(f)
    err = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
    assert err <= 1e-11, f"forward error {err:.3e}"


@pytest.mark.parametrize("rhs", ["random", "paper"])
def test_default_solve_accuracy_where_the_pass_runs_2d(rhs):
    # At omega = 1 the default refinement pass runs, so this pins the
    # residual applying exactly the operator whose entries the pipeline
    # inverts; the reference is a sparse LU solve plus one refinement step.
    n, omega = 129, 1.0
    grid = Grid((n, n))
    if rhs == "random":
        f = rand_field(grid, n)
    else:
        f = np.ones(grid.npoints, dtype=complex)
        f[:n] = 0.01
    u = solve2d(plan2d(grid, omega), f)
    A = _sparse_operator_2d(n, omega)
    lu = scipy.sparse.linalg.splu(A)
    ref = lu.solve(f)
    ref += lu.solve(f - A @ ref)
    err = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
    assert err <= 2e-12, f"forward error {err:.3e}"


@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
@pytest.mark.parametrize("shape", [(9, 7), (17, 9), (5, 4, 3), (9, 7, 5)])
def test_longdouble_reference_matches_dense_lu(shape, omega):
    # The reference itself, against a dense LU solve of A: within 10 kappa(A) eps
    grid = Grid(shape)
    plan = plan2d(grid, omega)
    A = dense_problem(grid, omega).A
    f = rand_field(grid, 3)
    ref = longdouble_reference(grid, omega, f, lambda b: solve2d(plan, b, refine=0))
    bound = 10 * np.linalg.cond(A) * np.finfo(float).eps
    assert relerr(ref.astype(np.complex128), np.linalg.solve(A, f)) <= bound


@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
def test_default_solve_forward_error_2d(omega):
    # Random f, where the default pass runs; against A^-1 f refined on a
    # long-double residual
    grid = Grid((257, 257))
    plan = plan2d(grid, omega)
    f = rand_field(grid, 4)
    ref = longdouble_reference(grid, omega, f, lambda b: solve2d(plan, b, refine=0))
    err = relerr(solve2d(plan, f).astype(np.clongdouble), ref)
    assert err <= 3e-13, f"forward error {err:.3e}"


@pytest.mark.parametrize("omega", [1.0, 2 * np.pi])
def test_one_correction_forward_error_3d(omega):
    # The bare solve plus one correction on core.residual's r; the default
    # solve's stop test skips that pass on this f
    grid = Grid((65, 65, 65))
    plan = plan3d(grid, omega)
    f = rand_field(grid, 8)
    u = solve3d(plan, f, refine=0)
    _, r = core.residual(plan.operator, f, u, 0.0)
    u += solve3d(plan, r, refine=0)
    ref = longdouble_reference(grid, omega, f, lambda b: solve3d(plan, b, refine=0))
    err = relerr(u.astype(np.clongdouble), ref)
    assert err <= 2e-14, f"forward error {err:.3e}"


def test_plan_keeps_the_wider_wrap_2d():
    grid = Grid((513, 513))
    plan = plan2d(grid, 2 * np.pi)
    assert plan.twist == np.pi
    assert plan.wrap_gaps[0] < 1e-3 and plan.wrap_gaps[1] > 0.1
    plan = plan2d(grid, 20.0)
    assert plan.twist == 0.0
    assert plan.wrap_gaps[0] >= plan.wrap_gaps[1]


def test_direction_combination_residuals_3d():
    for shape in sorted(set(itertools.permutations((9, 9, 513)))):
        grid = Grid(shape)
        f = np.ones(grid.npoints, dtype=complex)
        f[: shape[0]] = 0.01
        u = solve3d(plan3d(grid, 1.0), f)
        assert _residual(grid, 1.0, u, f) <= 1e-9


def test_complexity_slope_2d_moderate_sizes():
    times = {}
    for n in (129, 257, 513, 1025):
        grid = Grid((n, n))
        plan = plan2d(grid, 2 * np.pi)
        f = np.ones(grid.npoints, dtype=complex)
        f[:n] = 0.01
        solve2d(plan, f, workers=2)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            solve2d(plan, f, workers=2)
            best = min(best, time.perf_counter() - t0)
        times[n * n] = best
    xs = [math.log(N) for N in times]
    ys = [math.log(t) for t in times.values()]
    slope = float(np.polyfit(xs, ys, 1)[0])
    best_ms = ", ".join(f"N={N}: {t * 1e3:.1f}" for N, t in times.items())
    assert 0.9 <= slope <= 1.3, f"slope {slope}, best ms {best_ms}"


def test_cli_bench_sweep_and_slope_subcommand(tmp_path):
    cfg = RunConfig(mode="bench", d=2, rhs="paper", repeats=3,
                    sizes="257,513,1025,2049", threads=2)
    records = run(cfg)
    assert len(records) == 4
    solve_times = [r.solve_seconds for r in records]
    assert solve_times == sorted(solve_times)          # monotone in size
    path = str(tmp_path / "bench.csv")
    emit(records, "csv", path)
    slope = fit_slope(read_records(path))
    assert 0.9 <= slope <= 1.3, f"slope {slope}"


def test_solve_mode_allocates_no_dense_matrix():
    # Allocation spot check: solve-mode peak memory stays a small multiple of
    # the field size, nowhere near the N^2 of a dense matrix.
    grid = Grid((257, 257))
    plan = plan2d(grid, 2 * np.pi)
    f = rand_field(grid, 7)
    solve2d(plan, f, workers=2)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    solve2d(plan, f, workers=2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (peak - base) <= 32 * 16 * grid.npoints


def _solve_scratch(plan, f):
    # the peak a second solve allocates, beyond the live set, with one thread
    solve = solve2d if plan.grid.dims == 2 else solve3d
    solve(plan, f, workers=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve(plan, f, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _default_solve_scratch(shape, monkeypatch, layout=None):
    # On the benchmark's kind of data, f = A u*, the stop test skips the pass.
    # With one-plane slabs, what the peak holds beyond whole fields is
    # slab-sized arrays and numpy's ufunc buffers (8192 scalars, 128 KiB).
    # ``layout`` maps f to the array the solve is given.
    monkeypatch.setattr(core, "SLAB_SCRATCH", 256)
    grid = Grid(shape)
    plan = (plan2d if grid.dims == 2 else plan3d)(grid, 2 * np.pi)
    f = kron_apply(plan.operator, rand_field(grid, 6))
    return _solve_scratch(plan, layout(f) if layout else f), f.nbytes


def _strided(f):
    g = np.empty(2 * f.size, dtype=f.dtype)
    g[::2] = f
    return g[::2]


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_default_solve_scratch_is_three_fields(shape, monkeypatch):
    scratch, field = _default_solve_scratch(shape, monkeypatch)
    assert scratch <= 3 * field + 256 * 1024


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_default_solve_scratch_is_two_fields(shape, monkeypatch):
    # Beyond f: the solution and its residual; kron_apply keeps its passes
    # in chunk buffers, not in a third field.
    scratch, field = _default_solve_scratch(shape, monkeypatch)
    assert scratch <= 2 * field + 256 * 1024


@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_default_solve_scratch_is_one_field(shape, monkeypatch):
    # The stop test takes only the residual's norm, chunk by chunk, so the
    # solve peaks at the bare pipeline's one field.
    scratch, field = _default_solve_scratch(shape, monkeypatch)
    assert scratch <= field + 256 * 1024


@pytest.mark.parametrize("layout", [_strided, lambda f: f.real.astype(np.float32)],
                         ids=["strided", "float32"])
@pytest.mark.parametrize("shape", [(257, 129), (33, 17, 65)])
def test_default_solve_scratch_is_one_field_for_any_f(shape, layout, monkeypatch):
    # ||f|| and the residual read f a chunk at a time: a strided or float32 f
    # is never copied whole
    scratch, field = _default_solve_scratch(shape, monkeypatch, layout)
    assert scratch <= field + 256 * 1024


def test_default_solve_scratch_where_the_pass_runs_is_two_fields(monkeypatch):
    # the pass needs the residual as a field, and it becomes the trial iterate
    monkeypatch.setattr(core, "SLAB_SCRATCH", 256)
    n = 129
    grid = Grid((n, n))
    plan = plan2d(grid, 1.0)
    f = np.ones(grid.npoints, dtype=complex)
    f[:n] = 0.01
    assert not np.array_equal(solve2d(plan, f), solve2d(plan, f, refine=0))
    assert _solve_scratch(plan, f) <= 2 * f.nbytes + 256 * 1024


def test_default_solve_scratch_at_the_default_budget_2d():
    # SLAB_SCRATCH as shipped: the chunk loops of steps 1 and 3 and of the
    # residual hold at most 0.75 MB beyond the solution field at 513^2
    grid = Grid((513, 513))
    plan = plan2d(grid, 2 * np.pi)
    f = kron_apply(plan.operator, rand_field(grid, 6))
    assert _solve_scratch(plan, f) <= f.nbytes + 0.75e6


def test_default_solve_scratch_at_the_default_budget_3d():
    # At 65^3, beyond the solution field: the spectra and G, live through
    # the solve; in step 3, v_b + w_b and the correction pair, 4 slabs; and
    # one chunk loop's SLAB_SCRATCH
    grid = Grid((65, 65, 65))
    plan = plan3d(grid, 2 * np.pi)
    f = kron_apply(plan.operator, rand_field(grid, 6))
    x1, cross = pipeline.x1_spectra(plan), pipeline.cross_planes(plan)
    live = sum(a.nbytes for a in (*x1, *cross, *pipeline.green(plan, cross[1])))
    slab = f.nbytes // grid.n[0]
    assert _solve_scratch(plan, f) <= f.nbytes + live + 4 * slab + core.SLAB_SCRATCH


CHUNK_PLANS = {
    "257^2": lambda: plan2d(Grid((257, 257)), 2 * np.pi),
    "33x17x65": lambda: plan3d(Grid((33, 17, 65)), 2 * np.pi),
    "neumann-3d": lambda: plan3d(Grid((17, 9, 13)), 7.5 - 3.2j, bc_x1=BoundaryKind.NEUMANN),
}


@pytest.mark.parametrize("name", CHUNK_PLANS)
def test_solves_agree_across_chunk_budgets(name, monkeypatch):
    # One-slab chunks, and chunks of 5 slabs in the residual, 10 in step 1
    # (7 with a complex sigma) and 15 in step 3, which split n_1 unevenly:
    # the chunking moves only the rounding of step 1's sums and of ||r||
    plan = CHUNK_PLANS[name]()
    grid = plan.grid
    f = rand_field(grid, 9)
    solve = solve2d if grid.dims == 2 else solve3d
    default = [solve(plan, f, refine=refine) for refine in (0, 1)]
    for budget in (1, 5 * 48 * (grid.npoints // grid.n[0])):
        monkeypatch.setattr(core, "SLAB_SCRATCH", budget)
        for refine, u in zip((0, 1), default):
            assert relerr(solve(plan, f, refine=refine), u) <= 1e-13
        if name == "257^2":
            # the default solve's forward error pin holds for one-slab chunks too
            ref = longdouble_reference(grid, 2 * np.pi, f, lambda b: solve2d(plan, b, refine=0))
            assert relerr(solve2d(plan, f).astype(np.clongdouble), ref) <= 3e-13


def test_default_solve_where_the_pass_runs_applies_a_twice(monkeypatch):
    # One residual for the stop test, one for the pass, plus the chunks ahead
    # of the one where the stop test's running norm first passes its bound,
    # which are recomputed to form r; each chunk runs two passes in 2D.
    n = 129
    grid = Grid((n, n))
    monkeypatch.setattr(core, "SLAB_SCRATCH", 48 * 8 * n)      # chunks of 8 planes
    plan = plan2d(grid, 1.0)
    f = np.ones(grid.npoints, dtype=complex)
    f[:n] = 0.01
    u0 = solve2d(plan, f, refine=0)
    r0 = (f - kron_apply(plan.operator, u0)).reshape(grid.shape)
    chunks = core.slabs(grid.shape, 48)
    running = np.cumsum([np.sum(np.abs(r0[s]) ** 2) for s in chunks])
    stop = core.REFINE_STOP_RTOL * np.linalg.norm(f)
    first = int(np.argmax(running > stop ** 2))
    calls = []
    tri = core._tri

    def counted(*args, **kwargs):
        calls.append(args[1])
        return tri(*args, **kwargs)

    monkeypatch.setattr(core, "_tri", counted)
    u = solve2d(plan, f)
    assert not np.array_equal(u, u0)                # the pass ran
    assert len(calls) == 2 * (2 * len(chunks) + first)
