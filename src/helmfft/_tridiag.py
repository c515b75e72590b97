"""Names that ``perfbench/tracing.py`` wraps; no solver calls them, as the blocks
are DCT-I divides (``pipeline``).  They stay until ROADMAP item 1."""


def factor_blocks(*args, **kwargs):
    raise NotImplementedError("no solver factors blocks; this name is kept for perfbench")


def solve_blocks(*args, **kwargs):
    raise NotImplementedError("no solver sweeps blocks; this name is kept for perfbench")
