from enum import Enum

import numpy as np
import pytest

from helmfft import Grid, tune_allocator

tune_allocator()


def rand_field(grid: Grid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.npoints) + 1j * rng.standard_normal(grid.npoints)


def relerr(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def reachable_arrays(plan) -> list:
    """Every ndarray a plan reaches, walked as perfbench's ``plan_bytes`` walks it.

    Tuples, lists, dicts and the objects of helmfft's own modules are entered
    through their fields, never through a property.
    """
    seen, todo, arrays = set(), [plan], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, Enum):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if isinstance(obj.base, np.ndarray):
                todo.append(obj.base)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("helmfft."):
            todo.extend(vars(obj).values() if hasattr(obj, "__dict__") else
                        (getattr(obj, s) for s in type(obj).__slots__))
    return arrays


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _tri_ld(diag, off, x, axis):
    # tridiag(off, diag, off) along ``axis`` of x, in long double
    x = np.moveaxis(x, axis, 0)
    y = diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
    y[1:] += off * x[:-1]
    y[:-1] += off * x[1:]
    return np.moveaxis(y, 0, axis)


def longdouble_reference(grid: Grid, omega: float, f, solve, tol: float = 2e-17):
    """A^-1 f by refinement on a residual summed in long double, as a clongdouble array.

    A has absorbing x_1 ends and Neumann cross ends.  Its K, M and sigma =
    omega^2 are formed here in long double from n, h = 1 / (n - 1) and omega,
    sharing no code with ``Pencil1D`` or its dense K and M.  ``solve(r)``,
    any solver of A d = r in double, only drives the refinement: its fixed
    point is A^-1 f whatever ``solve`` is.  The steps must fall below ``tol``
    relative to the iterate within six steps (AssertionError otherwise).
    """
    ld = np.longdouble
    sigma = ld(omega) ** 2
    factors = []
    for j, n in enumerate(grid.n):
        h = ld(1) / (n - 1)
        Kd = np.full(n, 2 / h, dtype=np.clongdouble)
        Md = np.full(n, 4 * h / 6, dtype=np.clongdouble)
        Kd[0] = Kd[-1] = 1 / h - (1j * omega if j == 0 else 0)
        Md[0] = Md[-1] = 2 * h / 6
        factors.append(((Kd, -1 / h), (Md, h / 6)))
    (Kd, Ko), (Md, Mo) = factors[0]
    factors[0] = ((Kd - sigma * Md, Ko - sigma * Mo), (Md, Mo))

    def apply(u):
        y = np.zeros_like(u)
        for k in range(grid.dims):
            t = u
            for j, (K, M) in enumerate(factors):
                t = _tri_ld(*(K if j == k else M), t, j)
            y += t
        return y

    F = np.asarray(f).reshape(grid.shape).astype(np.clongdouble)
    u = np.zeros_like(F)
    for _ in range(6):
        step = np.asarray(solve((F - apply(u)).astype(np.complex128).reshape(-1)))
        u += step.reshape(grid.shape)
        if np.linalg.norm(step) <= tol * float(np.linalg.norm(u.astype(np.complex128))):
            return u.reshape(-1)
    raise AssertionError("the long-double refinement did not converge")
