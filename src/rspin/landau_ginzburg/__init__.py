"""Matrix-factorization engine for the Landau-Ginzburg examples.

The package re-exports nothing: import from its modules (poly, groebner,
mf, orbifold), or the twelve LG names that rspin itself offers, so that a
caller loads only the modules it runs.
"""
