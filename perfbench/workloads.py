"""The benchmark's workloads: cold plans, then default solves checked against
manufactured solutions.  ``run`` returns the result object that ``run.py``
prints.

All three run on the unit box with absorbing x_1 ends and one thread:
``workers=1`` here, and the BLAS pool pinned by ``run.py`` before numpy loads.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from helmfft import (Grid, clear_eigen_cache, plan2d, plan3d, solve2d, solve3d,
                     solve_aux_partial, solve_block_system, solve_correction,
                     solve_final, tune_allocator)

from manufactured import HelmholtzOperator, forward_error, manufacture, passes
from tracing import CLOCK, Tracer

WORKERS = 1
PAPER_OMEGA = 2 * math.pi
# at 513^2 the default refinement pass runs at 2 pi, 15, 20, 30 and 40 and
# stops at once at 1, 3 and 10
SWEEP_OMEGAS = (1.0, 3.0, PAPER_OMEGA, 10.0, 15.0, 20.0, 30.0, 40.0)
SPAN_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """Rounds of one default solve per wave number in ``omegas``.

    A stream (``setup_plans`` > 0) builds that many cold plans first and solves
    every round with the last one; set-up and solve times are medians.  A
    sweep builds a cold plan for each wave number of every round; its times
    are means per wave number.
    """

    shape: tuple[int, ...]
    omegas: tuple[float, ...]
    setup_plans: int = 0

    @property
    def stream(self) -> bool:
        return self.setup_plans > 0

    @property
    def average(self):
        return statistics.median if self.stream else statistics.fmean


WORKLOADS = {
    "stream-2d": Workload((1025, 1025), (PAPER_OMEGA,), setup_plans=3),
    "stream-3d": Workload((129, 129, 129), (PAPER_OMEGA,), setup_plans=40),
    "sweep-2d": Workload((513, 513), SWEEP_OMEGAS),
}


def _plan(grid: Grid, omega: float):
    clear_eigen_cache()
    return (plan2d if grid.dims == 2 else plan3d)(grid, omega)


def _solve(plan, f, refine=1):
    solve = solve2d if plan.grid.dims == 2 else solve3d
    return solve(plan, f, refine=refine, workers=WORKERS)


def _timed(fn, *args):
    t0 = CLOCK()
    out = fn(*args)
    return out, CLOCK() - t0


def _peak_alloc_mb(fn, *args):
    """Result of fn(*args) and the peak MB it allocated above the live set."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


def plan_bytes(plan) -> int:
    """Bytes held by the arrays a plan references, each buffer counted once."""
    seen, total, todo = set(), 0, [plan]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, Enum):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, np.ndarray):
                todo.append(obj.base)
            else:
                total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("helmfft."):
            todo.extend(vars(obj).values() if hasattr(obj, "__dict__") else
                        (getattr(obj, s) for s in type(obj).__slots__))
    return total


@dataclass
class Checker:
    """Checks default solves against their manufactured solutions."""

    attempted: int = 0
    failed: int = 0
    worst: float = 0.0      # largest forward error among the solves that passed

    def __call__(self, u, u_star):
        self.attempted += 1
        err = forward_error(u, u_star)
        if passes(err):
            self.worst = max(self.worst, err)
        else:
            self.failed += 1

    def result(self, metrics: dict) -> dict:
        def unit(name):
            if name.endswith("_s"):
                return "s"
            if name.endswith("_mb"):
                return "MB"
            return "digits" if name == "accuracy_digits" else "count"
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tune_allocator()
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if not trace:
        return _run(w, rng, seconds)
    tracer = Tracer()
    result = _run_traced(w, rng, seconds, tracer)
    tracer.dump(SPAN_DIR / f"spans-{name}-seed{seed}.json")
    return result


def _rounds(seconds):
    """Yield until ``seconds`` of wall time have passed, at least once."""
    deadline = time.perf_counter() + seconds
    yield
    while time.perf_counter() < deadline:
        yield


def _run(w: Workload, rng, seconds) -> dict:
    """Untraced: the end-to-end metrics."""
    grid = Grid(w.shape)
    ops = {omega: HelmholtzOperator(w.shape, omega) for omega in w.omegas}
    check, setup, times = Checker(), [], []
    for _ in range(w.setup_plans):
        plan, dt = _timed(_plan, grid, PAPER_OMEGA)
        setup.append(dt)
    if not w.stream:
        plan = _plan(grid, PAPER_OMEGA)
    plan_mb = plan_bytes(plan) / 1e6
    # the extra solve that gives the peak is also the warm-up solve
    f, u_star = manufacture(ops[PAPER_OMEGA], rng)
    u, peak_mb = _peak_alloc_mb(_solve, plan, f)
    check(u, u_star)
    for _ in _rounds(seconds):
        for omega in w.omegas:
            if not w.stream:
                plan, dt = _timed(_plan, grid, omega)
                setup.append(dt)
            f, u_star = manufacture(ops[omega], rng)
            u, dt = _timed(_solve, plan, f)
            check(u, u_star)
            times.append(dt)
    return check.result({
        "setup_s": w.average(setup),
        "solve_s": w.average(times),
        "accuracy_digits": -math.log10(check.worst) if check.worst else 0.0,
        "solve_peak_mb": peak_mb,
        "plan_mb": plan_mb,
    })


def _run_traced(w: Workload, rng, seconds, tracer: Tracer) -> dict:
    """Traced: the per-layer metrics.

    Each round makes, per wave number, an untraced default solve and then,
    with the tracer in, a default solve, a ``refine=0`` solve and the public
    step calls.  One traced cold plan on a stream, one per solve on a sweep.
    """
    grid = Grid(w.shape)
    ops = {omega: HelmholtzOperator(w.shape, omega) for omega in w.omegas}
    mod = f"solver{grid.dims}d"
    check, untraced = Checker(), []

    def traced_plan(omega):
        with tracer.installed(), tracer.span(f"{mod}.plan"):
            return _plan(grid, omega)

    plan = traced_plan(PAPER_OMEGA) if w.stream else _plan(grid, PAPER_OMEGA)
    f, u_star = manufacture(ops[PAPER_OMEGA], rng)
    check(_solve(plan, f), u_star)                  # warm-up
    for _ in _rounds(seconds):
        for omega in w.omegas:
            if not w.stream:
                plan = traced_plan(omega)
            f, u_star = manufacture(ops[omega], rng)
            u, dt = _timed(_solve, plan, f)
            check(u, u_star)
            untraced.append(dt)
            f, u_star = manufacture(ops[omega], rng)
            with tracer.installed():
                with tracer.span(f"{mod}.solve"):
                    u = _solve(plan, f)
                check(u, u_star)
                with tracer.span(f"{mod}.pipeline"):
                    _solve(plan, f, refine=0)
                if mod == "solver2d":
                    with tracer.span("solver2d.step1"):
                        part, f_hat = solve_aux_partial(plan, f, workers=WORKERS)
                    with tracer.span("solver2d.step2"):
                        w_b = solve_correction(plan, part, workers=WORKERS)
                    with tracer.span("solver2d.step3"):
                        solve_final(plan, f_hat, part, w_b, workers=WORKERS)
                else:
                    with tracer.span("solver3d.block_system"):
                        solve_block_system(plan, "B", f, workers=WORKERS)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (w.average(tracer.root_durations(f"{mod}.solve"))
                                   - w.average(untraced))
    return check.result(metrics)
