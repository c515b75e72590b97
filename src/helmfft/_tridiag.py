"""Names kept for the benchmark's tracer; no solver runs block factorizations.

Both solvers run their blocks as DCT-I divides (``pipeline``), so nothing here
is called.  ``perfbench/tracing.py`` still imports this module and wraps
``factor_blocks`` and ``solve_blocks`` by name; the two names stay until the
tracer is re-based on the layers the solvers run (ROADMAP item 1).
"""


def factor_blocks(*args, **kwargs):
    raise NotImplementedError("no solver factors blocks; this name is kept for perfbench")


def solve_blocks(*args, **kwargs):
    raise NotImplementedError("no solver sweeps blocks; this name is kept for perfbench")
