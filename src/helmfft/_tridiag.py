"""The names that ``perfbench/`` binds, which no solver calls: the blocks are
DCT-I divides and the eigenvalues closed forms (``pipeline``, ``spectral``).
``core``, ``solver2d``, ``solver3d`` and the package re-export them, one line
each; they go with this module at ROADMAP item 1."""


def _perfbench_only(*args, **kwargs):
    raise NotImplementedError("no solver calls this; the name is kept for perfbench")


factor_blocks = solve_blocks = solve_pencil_eigen = _perfbench_only


class TriCornerMatrix:
    """No solver applies a tridiagonal matrix (``core._tri`` applies T)."""

    apply = _perfbench_only


def clear_eigen_cache() -> None:
    """No-op: no plan keeps an eigen cache."""
