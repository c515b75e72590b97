"""The tracer counts the calls into each layer and leaves no wrapper behind."""

import math

import numpy as np
import scipy.fft

from helmfft import (Grid, _tridiag, clear_eigen_cache, core, plan2d, plan3d,
                     solve2d, solve3d)
from tracing import Tracer
from workloads import plan_bytes

OMEGA = 2 * math.pi


def _trace(plan_fn, solve_fn, shape):
    tracer = Tracer()
    grid = Grid(shape)
    mod = f"solver{len(shape)}d"
    f = np.random.default_rng(0).standard_normal(grid.npoints) + 0j
    clear_eigen_cache()
    with tracer.installed():
        with tracer.span(f"{mod}.plan"):
            plan = plan_fn(grid, OMEGA)
        with tracer.span(f"{mod}.solve"):
            solve_fn(plan, f)
    return tracer.layer_metrics(), plan


def test_3d_counts():
    m, plan = _trace(plan3d, solve3d, (9, 9, 9))
    assert m["spectral.eigensolve_calls"] == 2
    assert m["tridiag.factor_calls"] == 18          # 9 per pipeline, 2 pipelines
    assert m["tridiag.sweep_calls"] == 18
    assert m["tridiag.sweep_rows"] == 18 * 9
    assert m["tridiag.factor_mb"] > 0
    assert m["solver3d.fft_calls"] == 16
    assert m["solver2d.fft_calls"] == 0
    assert m["solver3d.self_s"] > 0
    assert plan_bytes(plan) > 0


def test_2d_counts():
    m, plan = _trace(plan2d, solve2d, (17, 33))
    assert m["spectral.eigensolve_calls"] == 1
    assert m["tridiag.plan_factor_s"] > 0
    assert m["tridiag.factor_calls"] == 0
    assert m["tridiag.sweep_calls"] == 6            # 3 per pipeline
    assert m["tridiag.sweep_rows"] == 6 * 33
    assert m["solver2d.fft_calls"] == 4
    # the plan's two factor arrays and its eigenvectors
    assert plan_bytes(plan) >= 16 * (2 * 17 * 33 + 17 * 17)


def test_originals_restored():
    before = (_tridiag.factor_blocks, _tridiag.solve_blocks, scipy.fft.fft,
              scipy.fft.ifft, core.TriCornerMatrix.apply)
    tracer = Tracer()
    with tracer.installed():
        assert _tridiag.factor_blocks is not before[0]
    after = (_tridiag.factor_blocks, _tridiag.solve_blocks, scipy.fft.fft,
             scipy.fft.ifft, core.TriCornerMatrix.apply)
    assert after == before
