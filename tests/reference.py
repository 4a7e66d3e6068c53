"""Reference operators that the tests check the library against; the library
itself never calls them."""

from rspin.superlinalg import compose, identity


def power(f, k):
    """f^k for an endomorphism f: k composes onto the identity."""
    result = identity(f.source)
    for _ in range(k):
        result = compose(f, result)
    return result
