"""The benchmark in ``perfbench/`` still finds every helmfft name it uses.

The benchmark's files change only in changes to the benchmark itself, so a
rename here that they still rely on would first show as a failed benchmark
run; this test shows it in the test suite instead.
"""

import dataclasses
from pathlib import Path

import numpy as np
import scipy.fft

from helmfft import (Grid, _tridiag, core, plan2d, plan3d, solve2d,
                     solve_aux_partial, solve_block_system, solve_correction,
                     solve_final)
from conftest import reachable_arrays

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    before = (_tridiag.factor_blocks, _tridiag.solve_blocks, scipy.fft.fft,
              core.TriCornerMatrix.apply)
    tracer = tracing.Tracer()
    f = np.random.default_rng(0).standard_normal(5 * 4 * 3) + 0j
    with tracer.installed():
        for shape in ((5, 4), (5, 4, 3)):
            with tracer.span(f"solver{len(shape)}d.plan"):
                plan = workloads._plan(Grid(shape), 2 * np.pi)   # clear_eigen_cache()
            with tracer.span(f"solver{len(shape)}d.solve"):
                workloads._solve(plan, f[:plan.grid.npoints])
        out = solve_block_system(plan, "B", f, workers=workloads.WORKERS)
    assert np.isfinite(out).all()
    assert tracer.layer_metrics()["spectral.eigensolve_calls"] == 0
    assert workloads.plan_bytes(plan) == 0
    assert (_tridiag.factor_blocks, _tridiag.solve_blocks, scipy.fft.fft,
            core.TriCornerMatrix.apply) == before


def test_perfbench_step_sequence_2d(monkeypatch):
    # the public step calls of the traced 2D workload, on the objects each
    # step returns, end to end
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    grid = Grid((9, 6))
    plan = workloads._plan(grid, 2 * np.pi)
    f = np.random.default_rng(1).standard_normal(grid.npoints) + 0j
    part, f_hat = solve_aux_partial(plan, f, workers=workloads.WORKERS)
    w_b = solve_correction(plan, part, workers=workloads.WORKERS)
    u = solve_final(plan, f_hat, part, w_b, workers=workloads.WORKERS)
    ref = solve2d(plan, f, refine=0)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_plan_bytes_sees_the_plan(monkeypatch):
    # plan_bytes follows only objects of helmfft's own modules; a plan it
    # cannot walk into would read as a bogus plan_mb gain
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    # a plan holds no array, so it reads 0; one array put into its C_bb
    # field is found there, so the 0 is not a walk that stopped short
    for plan in (plan2d(Grid((17, 33)), 2 * np.pi), plan3d(Grid((9, 7, 5)), 2 * np.pi)):
        assert reachable_arrays(plan) == []
        assert workloads.plan_bytes(plan) == 0
        held = np.array(plan.correction)
        assert workloads.plan_bytes(dataclasses.replace(plan, correction=held)) == held.nbytes
