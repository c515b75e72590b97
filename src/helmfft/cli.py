"""Command-line front end: solve / verify / bench modes and a slope fitter.

``RunConfig`` is the one table of options: each field holds its default, and
its metadata the choices and help of its flag; each mode's flags are made from
it (``sizes`` for ``bench`` only).  A flat ``key=value`` config file (UTF-8,
``#`` comments) is parsed as ``--key=value`` by the mode's own parser, so its
values get the flags' type and choice checks; flags override file entries.
Records are CSV or JSON, from one key table and one value formatter (floats
at 17 significant digits).

JSON records also carry the plan's auxiliary x_1 wrap: its twist (0
periodic, pi anti-periodic) and the relative spectral gaps of both wraps.

Exit codes: 0 success, 2 configuration error (among them a bad config-file
value, a non-finite right-hand side and an unreadable results file), 3 solver
error (singular block), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import BoundaryKind, Grid, SingularBlock, _norm, residual, tune_allocator
from .oracle import SizeLimit, dense_problem, dense_solve
from .solver2d import plan2d, solve2d
from .solver3d import plan3d, solve3d

RHS_MAGIC = b"HHFFTRHS"
VERIFY_TOL = 1e-9
CSV_KEYS = ("mode", "d", "n1", "n2", "n3", "omega", "init_seconds", "solve_seconds",
            "residual", "oracle_error")
CSV_HEADER = ",".join(CSV_KEYS)
JSON_KEYS = CSV_KEYS + ("twist", "gap_periodic", "gap_antiperiodic")


class ConfigError(ValueError):
    pass


def _option(default, help=None, choices=None):
    """A RunConfig field: its default, and the help and choices of its flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class RunConfig:
    """Every option of a run; each field but ``mode`` is also a flag and a config key."""
    mode: str = "solve"
    d: int = _option(2, choices=(2, 3))
    n1: int = 65
    n2: int = 65
    n3: int = 65
    omega: float = 2.0 * math.pi
    bc: str = _option("abc", choices=("abc", "neumann"))        # x_1 boundary
    rhs: str = _option("paper", "paper | random:<seed> | file:<path>")
    out: str | None = _option(None, "output path (default: stdout)")
    format: str = _option("csv", choices=("csv", "json"))
    repeats: int = 3
    threads: int = _option(0, "0 = auto")
    refine: int = _option(1, "defect-correction passes per solve (default 1)")
    sizes: str | None = _option(None, "comma-separated n list, e.g. 257,513,1025")  # bench only

    def grid(self, n: int | None = None) -> Grid:
        shape = (self.n1, self.n2, self.n3) if n is None else (n, n, n)
        return Grid(shape[:self.d])

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
        try:                                # a negative seed: default_rng raises
            rng = np.random.default_rng(int(spec.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad random seed in {spec!r}") from None
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
    if not np.isfinite(f).all():
        raise ConfigError("the right-hand side has non-finite entries")
    solve = solve2d if config.d == 2 else solve3d
    best = math.inf
    u = None
    for _ in range(max(1, config.repeats)):
        t0 = time.perf_counter()
        u = solve(plan, f, refine=config.refine, workers=workers)
        best = min(best, time.perf_counter() - t0)

    res = residual(plan.operator, f, u)[0] / _norm(f)

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
    if config.refine < 0:
        raise ConfigError(f"refine must be >= 0, got {config.refine}")
    tune_allocator()
    workers = config.threads if config.threads > 0 else (os.cpu_count() or 1)

    sizes = config.sizes.split(",") if config.mode == "bench" and config.sizes else [None]
    try:
        grids = [config.grid(None if tok is None else int(tok)) for tok in sizes]
    except ValueError as exc:
        raise ConfigError(f"bad grid size: {exc}") from None

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

_INT_FIELDS = {"d", "n1", "n2", "n3"}


def _fmt(x, as_json: bool = False) -> str:
    """One CSV or JSON value: None is empty or null, a float has 17 significant digits."""
    if x is None:
        return "null" if as_json else ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return json.dumps(x) if as_json and isinstance(x, str) else str(x)


def emit(records: list[RunRecord], fmt: str = "csv", path: str | None = None) -> str:
    """Serialize records (JSON refuses nan and inf); writes to path when given, returns the text."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_fmt(getattr(r, k)) for k in CSV_KEYS)
                                for r in records]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        for r in records:
            for k in JSON_KEYS:
                v = getattr(r, k)
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{k} = {v} has no JSON form")
        objs = ("{" + ", ".join(f'"{k}": {_fmt(getattr(r, k), True)}' for k in JSON_KEYS) + "}"
                for r in records)
        text = "[\n" + ",\n".join(objs) + "\n]\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_records(path: str, fmt: str | None = None) -> list[RunRecord]:
    """Parse a file produced by emit back into records; any fault is a ConfigError."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if fmt == "csv":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if lines[:1] != [CSV_HEADER]:
                raise ValueError("unexpected CSV header")
            rows = [dict(zip(CSV_KEYS, ln.split(","))) for ln in lines[1:]]
        else:
            rows = json.loads(text)
        return [_record_from(row) for row in rows]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{path}: not a results file ({type(exc).__name__}: {exc})") from None


def _record_from(row: dict) -> RunRecord:
    """A record from a CSV row or JSON object: fields without a default are required."""
    def value(f):
        v = row[f.name] if f.default is MISSING else row.get(f.name)
        if v is None or v == "":
            return None
        return str(v) if f.name == "mode" else int(v) if f.name in _INT_FIELDS else float(v)

    return RunRecord(**{f.name: value(f) for f in fields(RunRecord)})


# -- slope post-processing ----------------------------------------------------

def fit_slope(records: list[RunRecord]) -> float:
    """Log-log slope of solve time versus total unknowns N."""
    for r in records:
        sizes = (r.n1, r.n2) + (() if r.n3 is None else (r.n3,))
        if not (0 < (r.solve_seconds or 0) < math.inf and all((n or 0) > 0 for n in sizes)):
            raise ConfigError("every record needs a positive, finite solve time and positive sizes")
    xs = [math.log(r.n1 * r.n2 * (r.n3 or 1)) for r in records]
    if len(set(xs)) < 2:
        raise ConfigError("need records of at least two sizes N to fit a slope")
    ys = [math.log(r.solve_seconds) for r in records]
    return float(np.polyfit(xs, ys, 1)[0])


# -- argument handling ----------------------------------------------------------

def _config_tokens(path: str) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` flags."""
    names = {f.name for f in fields(RunConfig)}
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in names:        # exact names: the parser expands prefixes
                    raise ConfigError(f"unknown config key {key!r}")
                tokens.append(f"--{key}={val}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return tokens


def _config_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """The mode's flags over its config file's entries over RunConfig's defaults."""
    flags = vars(args)
    path = flags.pop("config", None)
    values = argparse.Namespace()
    if path:
        parser.exit_on_error = False    # a bad value raises instead of exiting with usage
        try:
            values, unknown = parser.parse_known_args(_config_tokens(path))
        except argparse.ArgumentError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if unknown:                     # mode, or a key this mode has no flag for
            raise ConfigError(f"unknown config key {unknown[0][2:].split('=')[0]!r}")
    return RunConfig(**{**vars(values), **flags})


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each mode's subparser."""
    top = argparse.ArgumentParser(prog="helmfft",
                                  description="FFT-based fast direct Helmholtz solver")
    sub = top.add_subparsers(dest="mode", required=True)
    for mode, doc in (("solve", "run the fast solver and report the residual"),
                      ("verify", "solve and compare against the dense oracle"),
                      ("bench", "sweep grid sizes and emit one record per size")):
        p = sub.add_parser(mode, help=doc, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value config file; flags override it")
        for f in fields(RunConfig):
            if f.name != "mode" and (f.name != "sizes" or mode == "bench"):
                p.add_argument(f"--{f.name}", **f.metadata,
                               type=str if f.default is None else type(f.default))

    p = sub.add_parser("slope", help="fit the log-log solve-time slope of a bench file")
    p.add_argument("results", help="CSV or JSON file produced by bench")
    return top, sub.choices


def main(argv=None) -> int:
    top, modes = _build_parser()
    args = top.parse_args(argv)
    try:
        if args.mode == "slope":
            records = read_records(args.results)
            slope = fit_slope(records)
            print(f"points={len(records)} slope={slope:.4f}")
            for a, b in zip(records, records[1:]):
                print(f"ratio n1={b.n1}/{a.n1}: {b.solve_seconds / a.solve_seconds:.3f}")
            return 0
        config = _config_from(args, modes[args.mode])
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
    except (ConfigError, OSError) as exc:           # OSError: an RHS or --out path
        print(f"helmfft: config error: {exc}", file=sys.stderr)
        return 2
    except SingularBlock as exc:
        print(f"helmfft: solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
