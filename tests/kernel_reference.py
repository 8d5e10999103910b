"""Shared pieces of the kernel property tests.

The catalog presentations r4, s3 and t2 built once each, and a term-by-term
reference product: every pair of terms is reduced as the normal form of the
concatenated words and added as a whole AlgebraElement.

The reference loops of the left-linear clause families: each residual (and
each induced Clifford image) is expanded from its input pair or basis form,
with no map stored on the free words.
"""

import functools

from ncgdirac.algebra import AlgebraElement, extend_presentation, normal_form
from ncgdirac.catalog import r4_presentation, sphere_level_function, torus_level_function
from ncgdirac.reports import Report
from ncgdirac.scalars import Scalar
from ncgdirac.spin import gamma_iterated
from ncgdirac.tensors import SPINOR_RANK, BasisWord, TensorElement, tensor


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


def reference_families(spin, metric, conn):
    """inverse_left, symmetry and clifford_relations, each residual expanded from its input."""
    calc = conn.calculus
    p = calc.presentation
    basis = calc.basis
    g1 = calc.canon(metric.g_element)
    report = Report(subject=p.name)
    report.family(
        "inverse_left",
        (
            (f"dz{i + 1}", calc.canon(metric.g_inv.apply_at(tensor(basis[i], g1), 0)) - basis[i])
            for i in range(p.n)
        ),
    )

    def symmetry_checks():
        for i in range(p.n):
            for j in range(p.n):
                pair = tensor(basis[i], basis[j])
                yield f"dz{i + 1},dz{j + 1}", metric.pair(conn.sigma.apply(pair) - pair)

    report.family("symmetry", symmetry_checks())

    def clifford_checks():
        for i in range(p.n):
            for j in range(p.n):
                pair = tensor(basis[i], basis[j])
                sym = pair + conn.sigma.apply(pair)
                g_val = metric.pair(pair)
                for alpha in range(SPINOR_RANK):
                    e_a = TensorElement.basis(p, (), alpha)
                    lhs = gamma_iterated(spin, tensor(sym, e_a))
                    rhs = e_a.left_mul(g_val).scale(Scalar.rational(-2))
                    yield f"dz{i + 1},dz{j + 1},e{alpha + 1}", lhs - rhs

    report.family("clifford_relations", clifford_checks())
    return report


def reference_induced_gamma(h, qc):
    """gamma_[2](b_i (x) nu (x) e_a) with the ambient gamma, for every basis form b_i of qc."""
    images = {}
    for i in range(qc.presentation.n):
        for alpha in range(SPINOR_RANK):
            e_a = TensorElement.basis(qc.presentation, (), alpha)
            t = tensor(tensor(qc.basis[i], h.nu_q), e_a)
            for _ in range(2):
                t = h.gamma_q.apply_at(t, t.degree - 1)
            images[BasisWord((i,), alpha)] = t
    return images
