"""Spans around the calls into each helmfft layer, recorded from outside it.

``Tracer.installed()`` swaps the module attributes through which the solvers
reach each layer for wrappers that record a span per call, and puts the
originals back on exit:

* ``helmfft._tridiag.factor_blocks`` and ``solve_blocks``;
* ``solve_pencil_eigen`` as bound in ``helmfft.solver2d`` and ``solver3d``;
* ``scipy.fft.fft`` and ``ifft``;
* ``helmfft.core.TriCornerMatrix.apply``.

A span holds its name, start and end (``CLOCK`` seconds), the
index of the span open around it, and the counts of its call (rows swept,
pivot bytes allocated).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import fmean

import scipy.fft

from helmfft import _tridiag, core, solver2d, solver3d

SOLVERS = ("solver2d", "solver3d")
# CPU seconds of the process.  With one thread this is the wall time of the
# work, less the time a shared host takes the CPU away (see the README).
CLOCK = time.process_time


def _factor_counts(args, kwargs, out):
    # pivots the call allocated itself; a caller-supplied buffer costs nothing
    return {"bytes": 0 if kwargs.get("out") is not None else out.rd.nbytes}


def _sweep_counts(args, kwargs, out):
    return {"rows": out.shape[0]}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": CLOCK(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = CLOCK()
            self._open.pop()

    def _wrap(self, fn, name, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counts is not None:
                    rec.update(counts(args, kwargs, out))
            return out
        return traced

    @contextmanager
    def installed(self):
        targets = [
            (_tridiag, "factor_blocks", "tridiag.factor", _factor_counts),
            (_tridiag, "solve_blocks", "tridiag.sweep", _sweep_counts),
            (solver2d, "solve_pencil_eigen", "spectral.eigensolve", None),
            (solver3d, "solve_pencil_eigen", "spectral.eigensolve", None),
            (scipy.fft, "fft", "fft", None),
            (scipy.fft, "ifft", "fft", None),
            (core.TriCornerMatrix, "apply", "core.apply", None),
        ]
        saved = []
        try:
            for owner, attr, name, counts in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counts))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))

    def root_durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["parent"] is None and s["name"] == name]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: plan phase per plan, solve phase per default solve.

        Root spans are named ``<solver>.<what>``: ``plan`` (one cold plan),
        ``solve`` (one default solve), ``pipeline`` (one ``refine=0`` solve),
        and ``step1``..``step3`` or ``block_system`` (one public step call).
        A figure of a layer or solver the workload does not reach is 0.
        """
        dur = lambda s: s["end"] - s["start"]  # noqa: E731
        roots = defaultdict(list)
        child_total = defaultdict(float)   # span index -> time of its children
        under = defaultdict(list)          # root index -> spans below it
        root_of = {}
        for i, s in enumerate(self.spans):
            p = s["parent"]
            if p is None:
                roots[s["name"]].append(i)
                root_of[i] = i
                continue
            child_total[p] += dur(s)
            root_of[i] = root_of[p]
            under[root_of[i]].append(s)

        def mean_dur(name):
            idx = roots.get(name, [])
            return fmean(dur(self.spans[i]) for i in idx) if idx else 0.0

        m = {}
        plans = [i for mod in SOLVERS for i in roots.get(f"{mod}.plan", [])]
        per_plan = defaultdict(float)
        for i in plans:
            for s in under[i]:
                key = "tridiag.plan_factor" if s["name"] == "tridiag.factor" else s["name"]
                per_plan[key + "_s"] += dur(s) / len(plans)
                per_plan[key + "_calls"] += 1 / len(plans)
        m["spectral.eigensolve_s"] = per_plan["spectral.eigensolve_s"]
        m["spectral.eigensolve_calls"] = per_plan["spectral.eigensolve_calls"]
        m["tridiag.plan_factor_s"] = per_plan["tridiag.plan_factor_s"]

        solves = [(mod, i) for mod in SOLVERS for i in roots.get(f"{mod}.solve", [])]
        per_solve = defaultdict(float)
        for mod, i in solves:
            for s in under[i]:
                key = f"{mod}.fft" if s["name"] == "fft" else s["name"]
                per_solve[key + "_s"] += dur(s) / len(solves)
                per_solve[key + "_calls"] += 1 / len(solves)
                per_solve[key + "_rows"] += s.get("rows", 0) / len(solves)
                per_solve[key + "_mb"] += s.get("bytes", 0) / 1e6 / len(solves)
            per_solve[f"{mod}.self_s"] += ((dur(self.spans[i]) - child_total[i])
                                           / len(solves))
        for key in ("tridiag.factor_s", "tridiag.factor_calls", "tridiag.factor_mb",
                    "tridiag.sweep_s", "tridiag.sweep_calls", "tridiag.sweep_rows",
                    "core.apply_s", "core.apply_calls"):
            m[key] = per_solve[key]
        for mod in SOLVERS:
            m[f"{mod}.fft_s"] = per_solve[f"{mod}.fft_s"]
            m[f"{mod}.fft_calls"] = per_solve[f"{mod}.fft_calls"]
        for step in ("step1", "step2", "step3"):
            m[f"solver2d.{step}_s"] = mean_dur(f"solver2d.{step}")
        m["solver3d.block_system_s"] = mean_dur("solver3d.block_system")
        for mod in SOLVERS:
            bare = mean_dur(f"{mod}.pipeline")
            full = mean_dur(f"{mod}.solve")
            m[f"{mod}.pipeline_s"] = bare
            m[f"{mod}.refine_s"] = full - bare if full else 0.0
            m[f"{mod}.self_s"] = per_solve[f"{mod}.self_s"]
        return m
