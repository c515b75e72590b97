"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Timing-sensitive
criteria warm every configuration before taking the minimum over repeats.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from helmfft import (BoundaryKind, Grid, SingularBlock, assemble_pencil,
                     build_operator_A, circulant_eigenbasis,
                     dense_eigensolve_pencil, dense_problem, dense_solve,
                     kron_apply, plan2d, plan3d, solve2d, solve3d,
                     solve_pencil_eigen, tune_allocator)
from helmfft.cli import main as cli_main
from helmfft.oracle import wrapped_dense
from helmfft.solver2d import solve_correction
from conftest import rand_field, relerr

tune_allocator()
WORKERS = 2


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num}: {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _best_time(fn, repeats=3):
    fn()                                   # warm caches, JIT, heap
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ms(times):
    """The best time of each size N, in ms, for a gate's detail message."""
    return "best ms " + ", ".join(f"N={N}: {t * 1e3:.1f}" for N, t in times.items())


def _paper_rhs(grid):
    f = np.ones(grid.npoints, dtype=np.complex128)
    f[: grid.n[0]] = 0.01
    return f


def _loglog_slope(sizes_to_times):
    xs = [math.log(n) for n in sizes_to_times]
    ys = [math.log(t) for t in sizes_to_times.values()]
    return float(np.polyfit(xs, ys, 1)[0])


def test_criterion_1_oracle_equivalence_2d():
    worst = 0.0
    t0 = time.perf_counter()
    for n1, n2 in itertools.product((3, 5, 9, 17), repeat=2):
        grid = Grid((n1, n2))
        for omega in (1.0, 2 * np.pi):
            plan = plan2d(grid, omega)
            prob = dense_problem(grid, omega)
            for seed in range(5):
                f = rand_field(grid, 1000 * n1 + 100 * n2 + seed)
                err = relerr(solve2d(plan, f), dense_solve(prob, "A", f).u)
                worst = max(worst, err)
    _report(1, "2D oracle equivalence", worst <= 1e-9,
            f"worst rel err {worst:.3e} <= 1e-9, {time.perf_counter()-t0:.0f}s")


def test_criterion_2_oracle_equivalence_3d():
    worst = 0.0
    t0 = time.perf_counter()
    omega = 2 * np.pi
    shapes = list(itertools.product((3, 5, 9), repeat=3)) + [(17, 9, 5)]
    for shape in shapes:
        grid = Grid(shape)
        plan = plan3d(grid, omega)
        prob = dense_problem(grid, omega)
        for seed in range(3):
            f = rand_field(grid, hash(shape) % 10_000 + seed)
            err = relerr(solve3d(plan, f), dense_solve(prob, "A", f).u)
            worst = max(worst, err)
    _report(2, "3D oracle equivalence", worst <= 1e-9,
            f"worst rel err {worst:.3e} <= 1e-9, {time.perf_counter()-t0:.0f}s")


def test_criterion_3_paper_configuration():
    t0 = time.perf_counter()
    grid = Grid((65, 65))
    omega = 2 * np.pi
    f = _paper_rhs(grid)
    u = solve2d(plan2d(grid, omega), f)
    residual = float(np.linalg.norm(kron_apply(build_operator_A(grid, omega), u) - f)
                     / np.linalg.norm(f))
    err = relerr(u, dense_solve(dense_problem(grid, omega), "A", f).u)
    ok = residual <= 1e-10 and err <= 1e-9
    _report(3, "65^2 paper configuration", ok,
            f"residual {residual:.3e} <= 1e-10, oracle err {err:.3e} <= 1e-9, "
            f"{time.perf_counter()-t0:.0f}s")


def test_criterion_4_scaling_2d():
    t0 = time.perf_counter()
    times = {}
    for n in (257, 513, 1025, 2049):
        grid = Grid((n, n))
        plan = plan2d(grid, 2 * np.pi)
        f = _paper_rhs(grid)
        times[n * n] = _best_time(lambda: solve2d(plan, f, workers=WORKERS))
    slope = _loglog_slope(times)
    ratio = times[2049 ** 2] / times[1025 ** 2]
    ok = 0.9 <= slope <= 1.3 and 3.2 <= ratio <= 6.0
    _report(4, "2D solve-time scaling", ok,
            f"slope {slope:.3f} in [0.9, 1.3], ratio 2049/1025 {ratio:.2f} in "
            f"[3.2, 6.0], {_ms(times)}, {time.perf_counter()-t0:.0f}s")


def test_criterion_5_scaling_3d_and_memory():
    t0 = time.perf_counter()
    times = {}
    plan257 = None
    for n in (33, 65, 129, 257):
        grid = Grid((n, n, n))
        plan = plan3d(grid, 2 * np.pi)
        f = _paper_rhs(grid)
        times[grid.npoints] = _best_time(lambda: solve3d(plan, f, workers=WORKERS))
        if n == 257:
            plan257, f257, grid257 = plan, f, grid
    slope = _loglog_slope(times)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    solve3d(plan257, f257, workers=WORKERS)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    extra_scalars = (peak - base) / 16.0
    budget = 6 * grid257.npoints
    ok = 0.9 <= slope <= 1.35 and extra_scalars <= budget
    _report(5, "3D scaling and memory", ok,
            f"slope {slope:.3f} in [0.9, 1.35], 257^3 peak extra "
            f"{extra_scalars / grid257.npoints:.2f} N <= 6 N, "
            f"{_ms(times)}, {time.perf_counter()-t0:.0f}s")


def test_criterion_6_direction_balance():
    t0 = time.perf_counter()
    omega = 2 * np.pi
    t2d = {}
    for shape in [(65, 2049), (2049, 65)]:
        grid = Grid(shape)
        plan = plan2d(grid, omega)
        f = _paper_rhs(grid)
        t2d[shape] = _best_time(lambda: solve2d(plan, f, workers=WORKERS))
    ratio2 = max(t2d.values()) / min(t2d.values())

    t3d = {}
    for shape in sorted(set(itertools.permutations((9, 9, 513)))):
        grid = Grid(shape)
        plan = plan3d(grid, omega)
        f = _paper_rhs(grid)
        t3d[shape] = _best_time(lambda: solve3d(plan, f, workers=WORKERS))
    ratio3 = max(t3d.values()) / min(t3d.values())

    ok = ratio2 <= 3.0 and ratio3 <= 5.0
    _report(6, "direction balance", ok,
            f"2D (65,2049)/(2049,65) ratio {ratio2:.2f} <= 3, "
            f"3D (9,9,513) permutation ratio {ratio3:.2f} <= 5, "
            f"{time.perf_counter()-t0:.0f}s")


def test_criterion_7_spectral_invariants():
    t0 = time.perf_counter()
    worst_m = worst_k = 0.0
    for n in range(3, 65):
        h = 1.0 / (n - 1)
        for bc in (BoundaryKind.ABSORBING, BoundaryKind.NEUMANN):
            for omega in (0.0, 1.0, 2 * np.pi):
                p = assemble_pencil(n, h, omega, bc)
                basis = solve_pencil_eigen(p)
                V = basis.vectors
                worst_m = max(worst_m, np.abs(V.T @ p.M.dense() @ V - np.eye(n)).max())
                lam_max = max(1.0, np.abs(basis.lambdas).max())
                worst_k = max(worst_k, np.abs(
                    V.T @ p.K.dense() @ V - np.diag(basis.lambdas)).max() / lam_max)

    worst_c = 0.0
    for n in range(3, 17):
        p = assemble_pencil(n, 1.0 / (n - 1))
        lam = np.sort_complex(circulant_eigenbasis(p, 0.0)[0])
        ref, _ = dense_eigensolve_pencil(*wrapped_dense(p, 0.0))
        scale = max(1.0, np.abs(lam).max())
        worst_c = max(worst_c, np.abs(np.sort_complex(ref) - lam).max() / scale)

    ok = worst_m <= 1e-10 and worst_k <= 1e-10 and worst_c <= 1e-10
    _report(7, "spectral invariants", ok,
            f"max |V^T M V - I| {worst_m:.2e}, |V^T K V - L| {worst_k:.2e}, "
            f"circulant vs dense {worst_c:.2e}, all <= 1e-10, "
            f"{time.perf_counter()-t0:.0f}s")


def test_criterion_8_step2_linear_cost():
    t0 = time.perf_counter()
    n2 = 257
    rng = np.random.default_rng(0)
    vb = rng.standard_normal(2 * n2) + 1j * rng.standard_normal(2 * n2)
    plans = {n1 * n2: plan2d(Grid((n1, n2)), 2 * np.pi) for n1 in (257, 513, 1025)}
    for plan in plans.values():
        solve_correction(plan, vb)             # warm caches and heap
    # round-robin over the sizes, so that a slow phase of the host falls on
    # all of them; each size keeps its best time
    times = dict.fromkeys(plans, math.inf)
    for _ in range(15):
        for N, plan in plans.items():
            start = time.perf_counter()
            solve_correction(plan, vb)
            times[N] = min(times[N], time.perf_counter() - start)
    slope = _loglog_slope(times)
    ok = 0.7 <= slope <= 1.2
    _report(8, "step-2 linear cost", ok,
            f"slope {slope:.3f} in [0.7, 1.2], {_ms(times)}, "
            f"{time.perf_counter()-t0:.0f}s")


def test_criterion_9_degenerate_handling():
    t0 = time.perf_counter()
    n = 5
    grid = Grid((n, n))
    p1 = assemble_pencil(n, grid.h[0])
    p2 = assemble_pencil(n, grid.h[1])
    lam1, _ = dense_eigensolve_pencil(p1.K.dense(), p1.M.dense())
    lam2, _ = dense_eigensolve_pencil(p2.K.dense(), p2.M.dense())
    sigma = float((lam1[1] + lam2[0]).real)

    raised = False
    try:
        plan2d(grid, sigma, bc_x1=BoundaryKind.NEUMANN)
    except SingularBlock:
        raised = True

    rc = cli_main(["solve", "--d", "2", "--n1", str(n), "--n2", str(n),
                   "--bc", "neumann", "--omega", repr(math.sqrt(sigma)),
                   "--repeats", "1"])
    ok = raised and rc == 3
    _report(9, "degenerate shift handling", ok,
            f"SingularBlock raised: {raised}, CLI exit code {rc} == 3, "
            f"{time.perf_counter()-t0:.0f}s")
