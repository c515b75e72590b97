"""``perfbench/tracing.py`` wraps ``solve_pencil_eigen`` as bound here, though no
solve calls it (the solver is ``pipeline``); kept until ROADMAP item 1."""

from .oracle import solve_pencil_eigen  # noqa: F401  (perfbench traces this name)
