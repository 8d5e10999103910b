"""Shared pieces of the product-kernel property tests.

The catalog presentations r4, s3 and t2 built once each, and a term-by-term
reference product: every pair of terms is reduced as the normal form of the
concatenated words and added as a whole AlgebraElement.
"""

import functools

from ncgdirac.algebra import AlgebraElement, extend_presentation, normal_form
from ncgdirac.catalog import r4_presentation, sphere_level_function, torus_level_function


@functools.cache
def presentation(name):
    p_r4 = r4_presentation()
    if name == "r4":
        return p_r4
    p_s3 = extend_presentation(p_r4, sphere_level_function(p_r4), name="s3")
    if name == "s3":
        return p_s3
    return extend_presentation(p_s3, torus_level_function(p_r4).convert(p_s3), name="t2")


def letters(mono):
    """The ascending word of generators whose product is the monomial."""
    return [g for g, e in enumerate(mono) for _ in range(e)]


def naive_mul(a, b):
    p = a.presentation
    out = AlgebraElement.zero(p)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + normal_form(letters(m1) + letters(m2), c1 * c2, p)
    return out
