"""Exact-arithmetic screening of quotient-singularity configurations on
rational homology projective planes of index at most three.

Importing the package loads none of its modules: each loads on first use,
whether through ``import qhpp.lattice``, ``from qhpp import lattice`` or the
attribute ``qhpp.lattice``, so a command pays only for the code it runs."""

__all__ = ["catalog", "configuration", "exact", "floer", "lattice", "linking", "report",
           "screening"]


def __getattr__(name):
    if name in __all__:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
