"""Exact-arithmetic screening of quotient-singularity configurations on
rational homology projective planes of index at most three.

Importing the package loads none of its modules: ``import qhpp.lattice`` or
``from qhpp import lattice`` loads one, so a command pays only for the code it
runs."""
