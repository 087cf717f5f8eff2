"""Exact-arithmetic verification of the two-boundary braid and Hecke algebra
action on M (x) N (x) V^d for the general linear Lie superalgebra gl(n|m).

Every name is imported from its module, for example
``from superbraid.modules import realize_module``; the package itself
carries only ``__version__``."""

__version__ = "1.0.0"
