"""Command-line front end: solve / verify / bench modes and a slope fitter.

Configuration comes from flags, optionally seeded by a flat ``key=value``
config file (UTF-8, ``#`` comments); flags override file entries.  Records are
emitted as CSV or JSON with floats at 17 significant digits.

JSON records also carry the plan's auxiliary x_1 wrap: its twist (0
periodic, pi anti-periodic) and the relative spectral gaps of both wraps.

Exit codes: 0 success, 2 configuration error, 3 solver error (singular
block), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import BoundaryKind, Grid, SingularBlock, residual, tune_allocator
from .oracle import SizeLimit, dense_problem, dense_solve
from .solver2d import plan2d, solve2d
from .solver3d import plan3d, solve3d

RHS_MAGIC = b"HHFFTRHS"
VERIFY_TOL = 1e-9
CSV_HEADER = "mode,d,n1,n2,n3,omega,init_seconds,solve_seconds,residual,oracle_error"
JSON_KEYS = tuple(CSV_HEADER.split(",")) + ("twist", "gap_periodic", "gap_antiperiodic")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "solve"
    d: int = 2
    n1: int = 65
    n2: int = 65
    n3: int = 65
    omega: float = 2.0 * math.pi
    bc: str = "abc"                 # x_1 boundary: abc | neumann
    rhs: str = "paper"              # paper | random:<seed> | file:<path>
    out: str | None = None
    format: str = "csv"
    repeats: int = 3
    threads: int = 0                # 0 = auto
    refine: int = 1
    sizes: str | None = None        # bench sweep, comma-separated n values

    def grid(self, n: int | None = None) -> Grid:
        if n is not None:
            return Grid((n, n) if self.d == 2 else (n, n, n))
        shape = (self.n1, self.n2) if self.d == 2 else (self.n1, self.n2, self.n3)
        return Grid(shape)

    def bc_kind(self) -> BoundaryKind:
        try:
            return {"abc": BoundaryKind.ABSORBING,
                    "neumann": BoundaryKind.NEUMANN}[self.bc]
        except KeyError:
            raise ConfigError(f"unknown bc {self.bc!r}") from None


@dataclass
class RunRecord:
    mode: str
    d: int
    n1: int
    n2: int
    n3: int | None
    omega: float
    init_seconds: float
    solve_seconds: float
    residual: float
    oracle_error: float | None = None
    twist: float | None = None              # the plan's wrap; JSON only
    gap_periodic: float | None = None
    gap_antiperiodic: float | None = None


# -- right-hand sides ----------------------------------------------------------

def make_rhs(config: RunConfig, grid: Grid) -> np.ndarray:
    spec = config.rhs
    N = grid.npoints
    if spec == "paper":
        f = np.ones(N, dtype=np.complex128)
        f[: grid.n[0]] = 0.01
        return f
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad random seed in {spec!r}") from None
        rng = np.random.default_rng(seed)
        return rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if spec.startswith("file:"):
        return read_rhs_file(spec.split(":", 1)[1], config.d, N)
    raise ConfigError(f"unknown rhs spec {spec!r}")


def read_rhs_file(path: str, d: int, N: int) -> np.ndarray:
    """Binary RHS: 16-byte header (magic, u32 d, u32 reserved), N (re, im) doubles."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:8] != RHS_MAGIC:
            raise ConfigError(f"{path}: not a RHS file (bad magic)")
        file_d, _reserved = struct.unpack("<II", header[8:16])
        if file_d != d:
            raise ConfigError(f"{path}: file is {file_d}-dimensional, config says {d}")
        payload = fh.read()
    if len(payload) != 16 * N:
        raise ConfigError(f"{path}: expected {16 * N} payload bytes, found {len(payload)}")
    pairs = np.frombuffer(payload, dtype="<f8").reshape(N, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).astype(np.complex128)


def write_rhs_file(path: str, d: int, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.complex128).reshape(-1)
    with open(path, "wb") as fh:
        fh.write(RHS_MAGIC)
        fh.write(struct.pack("<II", d, 0))
        pairs = np.empty((data.size, 2), dtype="<f8")
        pairs[:, 0] = data.real
        pairs[:, 1] = data.imag
        fh.write(pairs.tobytes())


# -- execution -----------------------------------------------------------------

def _run_one(config: RunConfig, grid: Grid, workers: int) -> RunRecord:
    bc = config.bc_kind()
    if config.d == 3 and bc != BoundaryKind.ABSORBING:
        raise ConfigError("3D solves support only absorbing x_1 ends")
    t0 = time.perf_counter()
    try:
        plan = (plan3d(grid, config.omega) if config.d == 3 else
                plan2d(grid, config.omega if bc == BoundaryKind.ABSORBING
                       else complex(config.omega) ** 2, bc_x1=bc))
    except (ValueError, OverflowError) as exc:      # omega or omega^2 not finite
        raise ConfigError(f"bad omega {config.omega!r}: {exc}") from exc
    init_seconds = time.perf_counter() - t0

    f = make_rhs(config, grid)
    if not f.any():
        raise ConfigError("the right-hand side is all zero; its relative residual is undefined")
    solve = solve2d if config.d == 2 else solve3d
    best = math.inf
    u = None
    for _ in range(max(1, config.repeats)):
        t0 = time.perf_counter()
        u = solve(plan, f, refine=config.refine, workers=workers)
        best = min(best, time.perf_counter() - t0)

    res = float(np.linalg.norm(residual(plan.operator, f, u)) / np.linalg.norm(f))

    oracle_error = None
    if config.mode == "verify":
        ref = dense_solve(dense_problem(grid, config.omega, bc), "A", f).u
        oracle_error = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))

    return RunRecord(
        mode=config.mode, d=config.d,
        n1=grid.n[0], n2=grid.n[1], n3=grid.n[2] if config.d == 3 else None,
        omega=config.omega, init_seconds=init_seconds, solve_seconds=best,
        residual=res, oracle_error=oracle_error, twist=plan.twist,
        gap_periodic=plan.wrap_gaps[0], gap_antiperiodic=plan.wrap_gaps[1],
    )


def run(config: RunConfig) -> list[RunRecord]:
    if config.mode not in ("solve", "verify", "bench"):
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.d not in (2, 3):
        raise ConfigError(f"d must be 2 or 3, got {config.d}")
    tune_allocator()
    workers = config.threads if config.threads > 0 else (os.cpu_count() or 1)

    grids = []
    if config.mode == "bench" and config.sizes:
        for tok in config.sizes.split(","):
            try:
                grids.append(config.grid(int(tok)))
            except ValueError:
                raise ConfigError(f"bad size {tok!r} in sizes list") from None
    else:
        grids.append(config.grid())

    records = []
    for grid in grids:
        if config.mode == "bench":
            print(f"bench: d={config.d} n={grid.n} ...", file=sys.stderr, flush=True)
        try:
            records.append(_run_one(config, grid, workers))
        except SizeLimit as exc:
            raise ConfigError(f"verify mode: {exc}") from exc
    return records


# -- serialization ------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit(records: list[RunRecord], fmt: str = "csv", path: str | None = None) -> str:
    """Serialize records; writes to path when given, always returns the text."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(",".join(_fmt(v) for v in (
                r.mode, r.d, r.n1, r.n2, r.n3, r.omega,
                r.init_seconds, r.solve_seconds, r.residual, r.oracle_error)))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        objs = []
        for r in records:
            items = []
            for key in JSON_KEYS:
                v = getattr(r, key)
                if v is None:
                    items.append(f'"{key}": null')
                elif isinstance(v, str):
                    items.append(f'"{key}": {json.dumps(v)}')
                elif isinstance(v, float):
                    items.append(f'"{key}": {v:.17g}')
                else:
                    items.append(f'"{key}": {v}')
            objs.append("{" + ", ".join(items) + "}")
        text = "[\n" + ",\n".join(objs) + "\n]\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_records(path: str, fmt: str | None = None) -> list[RunRecord]:
    """Parse a file produced by emit back into records."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    out = []
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected CSV header")
        for ln in lines[1:]:
            vals = ln.split(",")
            out.append(_record_from(dict(zip(CSV_HEADER.split(","), vals))))
    else:
        for obj in json.loads(text):
            out.append(_record_from(obj))
    return out


def _record_from(d: dict) -> RunRecord:
    def fl(v):
        if v is None or v == "":
            return None
        return float(v)

    def it(v):
        if v is None or v == "":
            return None
        return int(v)

    return RunRecord(mode=str(d["mode"]), d=int(d["d"]), n1=int(d["n1"]),
                     n2=int(d["n2"]), n3=it(d["n3"]), omega=fl(d["omega"]),
                     init_seconds=fl(d["init_seconds"]),
                     solve_seconds=fl(d["solve_seconds"]),
                     residual=fl(d["residual"]), oracle_error=fl(d["oracle_error"]),
                     twist=fl(d.get("twist")), gap_periodic=fl(d.get("gap_periodic")),
                     gap_antiperiodic=fl(d.get("gap_antiperiodic")))


# -- slope post-processing ----------------------------------------------------

def fit_slope(records: list[RunRecord]) -> float:
    """Log-log slope of solve time versus total unknowns N."""
    if len(records) < 2:
        raise ConfigError("need at least two records to fit a slope")
    xs, ys = [], []
    for r in records:
        N = r.n1 * r.n2 * (r.n3 or 1)
        xs.append(math.log(N))
        ys.append(math.log(r.solve_seconds))
    return float(np.polyfit(xs, ys, 1)[0])


# -- argument handling ----------------------------------------------------------

def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values

_INT_KEYS = {"d", "n1", "n2", "n3", "repeats", "threads", "refine"}
_FLOAT_KEYS = {"omega"}


def _config_from(file_values: dict, args: argparse.Namespace) -> RunConfig:
    config = RunConfig(mode=args.mode)
    names = {f.name for f in fields(RunConfig)}
    for key, val in file_values.items():
        if key not in names or key == "mode":
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key in _INT_KEYS:
                val = int(val)
            elif key in _FLOAT_KEYS:
                val = float(val)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from None
        config = replace(config, **{key: val})
    for key in names - {"mode"}:
        val = getattr(args, key, None)
        if val is not None:
            config = replace(config, **{key: val})
    return config


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="helmfft",
                                  description="FFT-based fast direct Helmholtz solver")
    sub = top.add_subparsers(dest="mode", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--d", type=int, choices=(2, 3))
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--n3", type=int)
        p.add_argument("--omega", type=float)
        p.add_argument("--bc", choices=("abc", "neumann"))
        p.add_argument("--rhs", help="paper | random:<seed> | file:<path>")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--repeats", type=int)
        p.add_argument("--threads", type=int, help="0 = auto")
        p.add_argument("--refine", type=int,
                       help="defect-correction passes per solve (default 1)")

    for mode, doc in (("solve", "run the fast solver and report the residual"),
                      ("verify", "solve and compare against the dense oracle"),
                      ("bench", "sweep grid sizes and emit one record per size")):
        p = sub.add_parser(mode, help=doc)
        add_run_flags(p)
        if mode == "bench":
            p.add_argument("--sizes", help="comma-separated n list, e.g. 257,513,1025")

    p = sub.add_parser("slope", help="fit the log-log solve-time slope of a bench file")
    p.add_argument("results", help="CSV or JSON file produced by bench")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.mode == "slope":
            records = read_records(args.results)
            slope = fit_slope(records)
            print(f"points={len(records)} slope={slope:.4f}")
            for a, b in zip(records, records[1:]):
                print(f"ratio n1={b.n1}/{a.n1}: {b.solve_seconds / a.solve_seconds:.3f}")
            return 0
        config = _config_from(
            _load_config_file(args.config) if getattr(args, "config", None) else {},
            args)
        records = run(config)
        text = emit(records, config.format, config.out)
        if not config.out:
            sys.stdout.write(text)
        if config.mode == "verify":
            worst = max(r.oracle_error for r in records)
            if worst > VERIFY_TOL:
                print(f"verification FAILED: oracle error {worst:.3e} > {VERIFY_TOL}",
                      file=sys.stderr)
                return 4
        return 0
    except ConfigError as exc:
        print(f"helmfft: config error: {exc}", file=sys.stderr)
        return 2
    except SingularBlock as exc:
        print(f"helmfft: solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
