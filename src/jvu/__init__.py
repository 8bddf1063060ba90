"""jvu: an exact-arithmetic workbench for U-operator commutation questions
in special Jordan algebras.

The library side computes inside the free associative algebra F<X> over the
rationals or GF(p): symmetrized words, Jordan closure tables, graded ideal
components with membership certificates, and linear-combination solving.
The 27-dimensional side verifies cubic-form identities and zero-product
operator commutation in a concrete exceptional Jordan algebra over split
octonions.  Everything is exact; there is no floating point anywhere.

The package imports none of its modules, so ``import jvu.expr`` loads only
``fields``, ``freealg`` and ``expr``.  Import each name from the module that
defines it, e.g. ``from jvu.expr import parse_expr``.
"""

__version__ = "0.1.0"
