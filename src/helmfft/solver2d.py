"""``perfbench/tracing.py`` wraps ``solve_pencil_eigen`` as bound here (``_tridiag``)."""

from ._tridiag import solve_pencil_eigen  # noqa: F401
