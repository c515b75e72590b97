"""The checker accepts an independent solve of the right problem and rejects
helmfft solves of other problems."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmfft import (BoundaryKind, Grid, build_operator_A, plan2d, plan3d,
                     solve2d, solve3d)
from manufactured import (TOLERANCE, HelmholtzOperator, forward_error,
                          manufacture, passes)

OMEGA = 2 * math.pi
SMALL = [(33, 33), (9, 9, 9)]


def _helmfft_solve(shape, omega, f, **plan_kw):
    grid = Grid(shape)
    if len(shape) == 2:
        return solve2d(plan2d(grid, omega, **plan_kw), f)
    return solve3d(plan3d(grid, omega), f)


@pytest.mark.parametrize("shape", [(5, 7), (4, 5, 6)])
@pytest.mark.parametrize("kind", [BoundaryKind.ABSORBING, BoundaryKind.NEUMANN])
def test_operator_matches_helmfft_assembly(shape, kind):
    ours = HelmholtzOperator(shape, OMEGA, absorbing=kind == BoundaryKind.ABSORBING)
    theirs = build_operator_A(Grid(shape), OMEGA, kind).dense()
    np.testing.assert_array_equal(ours.matrix().toarray(), theirs)
    x = np.random.default_rng(0).standard_normal(ours.size) + 0j
    np.testing.assert_allclose(ours.apply(x), theirs @ x, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shape", SMALL)
def test_accepts_sparse_lu_solve(shape):
    op = HelmholtzOperator(shape, OMEGA)
    f, u_star = manufacture(op, np.random.default_rng(1))
    u = spla.splu(op.matrix()).solve(f)
    err = forward_error(u, u_star)
    assert err < 1e-10
    assert passes(err)


@pytest.mark.parametrize("shape", SMALL)
def test_accepts_helmfft_solve(shape):
    op = HelmholtzOperator(shape, OMEGA)
    f, u_star = manufacture(op, np.random.default_rng(2))
    assert passes(forward_error(_helmfft_solve(shape, OMEGA, f), u_star))


@pytest.mark.parametrize("shape", SMALL)
@pytest.mark.parametrize("other", [OMEGA + 0.2, 3.0])
def test_rejects_plan_for_another_omega(shape, other):
    op = HelmholtzOperator(shape, OMEGA)
    f, u_star = manufacture(op, np.random.default_rng(3))
    assert not passes(forward_error(_helmfft_solve(shape, other, f), u_star))


def test_rejects_neumann_ends():
    shape = SMALL[0]
    op = HelmholtzOperator(shape, OMEGA)
    f, u_star = manufacture(op, np.random.default_rng(4))
    u = _helmfft_solve(shape, OMEGA ** 2, f, bc_x1=BoundaryKind.NEUMANN)
    assert not passes(forward_error(u, u_star))


def test_rejects_non_finite_and_misshapen():
    u_star = np.ones(8, dtype=complex)
    assert forward_error(u_star, u_star) == 0.0
    bad = u_star.copy()
    bad[3] = np.nan
    assert not passes(forward_error(bad, u_star))
    assert not passes(forward_error(u_star[:4], u_star))
    assert passes(TOLERANCE) and not passes(2 * TOLERANCE)
