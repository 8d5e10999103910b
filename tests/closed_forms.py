"""Closed-form Dirac operators of the catalog spaces, built independently.

These evaluate the pinned coordinate formulas termwise (theta-commutators of
the flat gamma matrices against the representative partials, or the phi-basis
form of the rotated torus operator) so that tests can compare them against the
composite operators computed by the engine.  The partials, the torus
phi-basis and the undeformed negative control live here too: only tests use
them.
"""

from fractions import Fraction

from ncgdirac.algebra import AlgebraElement
from ncgdirac.catalog import SPINOR_RANK, gamma_theta_matrices, h_lower, metric_lower
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spin import SpinStructure, gamma_from_matrices, mat_mul, matrix_act
from ncgdirac.tensors import BasisWord, TensorElement, differential, right_mul


def partial_coeffs(a):
    """Coefficients of d(a) = sum_i (partial_i a) dz_i on the free basis."""
    d = differential(a)
    p = a.presentation
    return [d.terms.get(BasisWord((i,), None), AlgebraElement.zero(p)) for i in range(p.n)]


def phi_basis(t2):
    """Central basis 1-forms of the torus calculus, in z-coordinates.

    dphi_1 = (1/i) ubar du = (2/i) z3 dz1 and dphi_2 = (2/i) z4 dz2; the
    sqrt(2) rescaling of the torus generators cancels and never enters.
    """
    p = t2.presentation
    minus_2i = Scalar.q_power(0, GaussianRational(0, -2))
    dphi1 = TensorElement.basis(p, (0,), None, AlgebraElement.generator(p, 2).scale(minus_2i))
    dphi2 = TensorElement.basis(p, (1,), None, AlgebraElement.generator(p, 3).scale(minus_2i))
    return dphi1, dphi2


def undeformed_spin_structure(bundle):
    """Classical gamma matrices over the deformed calculus (negative control)."""
    calc = bundle.structures.calculus
    gamma = gamma_from_matrices(calc, gamma_theta_matrices(classical=True))
    return SpinStructure(calc, gamma, bundle.structures.spin.spin_connection)


def _lowered_coordinate(p, i, matrix):
    out = AlgebraElement.zero(p)
    for k in range(4):
        v = matrix(i, k)
        if v:
            out = out + AlgebraElement.generator(p, k).scale(Scalar.rational(v))
    return out


def mat_scale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


def theta_commutator(a, b, phase):
    """a b - phase b a: [g_i, g_j]_theta for phase R[j][i], the anticommutator for -R[j][i]."""
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple(tuple(x - phase * y for x, y in zip(ra, rb)) for ra, rb in zip(ab, ba))


def theta_brackets(matrices, R, i, j):
    """(theta-anticommutator, theta-commutator) of the constant gamma_i and gamma_j.

    {g_i, g_j}_theta = g_i g_j + R[j][i] g_j g_i, and the commutator with the
    minus sign.
    """
    gi, gj = matrices[i], matrices[j]
    return theta_commutator(gi, gj, -R[j][i]), theta_commutator(gi, gj, R[j][i])


def _theta_commutator(p, gam, j, i):
    return theta_commutator(gam[j], gam[i], p.R[i][j])


def _spinor(p, alpha, coeff):
    return TensorElement.basis(p, (), alpha, coeff)


def sphere_dirac_closed_form(bundle, s):
    """-1/2 sum [g^j, g^i]_theta partial_i(s) z_j - 3/2 s."""
    p = bundle.presentation
    gam = bundle.base_matrices
    out = s.scale(Scalar.rational(Fraction(-3, 2)))
    for w, coeff in s.terms.items():
        alpha = w.spin
        parts = partial_coeffs(coeff)
        for i in range(4):
            if parts[i].is_zero():
                continue
            for j in range(4):
                z_j = _lowered_coordinate(p, j, metric_lower)
                comm = _theta_commutator(p, gam, j, i)
                factor = parts[i] * z_j
                for beta in range(SPINOR_RANK):
                    entry = comm[beta][alpha]
                    if not entry.is_zero():
                        out = out + _spinor(
                            p, beta, factor.scale(entry * Scalar.rational(Fraction(-1, 2)))
                        )
    return out


def torus_dirac_closed_form(bundle, s):
    """-1/2 sum [g^j, g^i]_theta (partial_i s z~_j
    - sum_k partial_k s z^k z_i z~_j - s z_i z~_j)."""
    p = bundle.presentation
    gam = bundle.base_matrices
    out = TensorElement.zero(p, 0, True)
    for w, coeff in s.terms.items():
        alpha = w.spin
        parts = partial_coeffs(coeff)
        for i in range(4):
            z_i = _lowered_coordinate(p, i, metric_lower)
            for j in range(4):
                zt_j = _lowered_coordinate(p, j, h_lower)
                inner = parts[i] * zt_j
                for k in range(4):
                    if not parts[k].is_zero():
                        inner = inner - parts[k] * AlgebraElement.generator(p, k) * z_i * zt_j
                inner = inner - coeff * z_i * zt_j
                if inner.is_zero():
                    continue
                comm = _theta_commutator(p, gam, j, i)
                for beta in range(SPINOR_RANK):
                    entry = comm[beta][alpha]
                    if not entry.is_zero():
                        out = out + _spinor(
                            p, beta, inner.scale(entry * Scalar.rational(Fraction(-1, 2)))
                        )
    return out


def phi_momentum_derivative(s, which):
    """d/dphi_which on torus spinors via the momentum grading of monomials."""
    p = s.presentation
    lo, hi = (0, 2) if which == 1 else (1, 3)
    terms = {}
    for w, c in s.terms.items():
        new = {
            mono: scal * Scalar.q_power(0, GaussianRational(0, mono[lo] - mono[hi]))
            for mono, scal in c.terms.items()
            if mono[lo] != mono[hi]
        }
        if new:
            terms[w] = AlgebraElement(p, new)
    return TensorElement(p, s.degree, s.has_spin, terms)


def rotated_torus_dirac_closed_form(bundle, s):
    """sum_a gamma~(dphi_a (x) (d/dphi_a + mass_a) s) on the Clifford torus.

    mass_1 = (1/(8i)) [g_1, g_3]_theta and mass_2 = (1/(8i)) [g_2, g_4]_theta
    (the unit radii), and gamma~(dphi_1 (x) s) = (1/i)(g_1 s zbar_1 - g_3 s z_1)
    (the 2/i of the sqrt(2) rescaling cancels), with the (dphi_2, g_2, g_4, z_2)
    analogue.
    """
    p = bundle.presentation
    gam = bundle.base_matrices
    minus_i = Scalar.q_power(0, GaussianRational(0, -1))
    out = TensorElement.zero(p, 0, True)
    for which, (lo, hi) in ((1, (0, 2)), (2, (1, 3))):
        minus_i_over_8 = Scalar.q_power(0, GaussianRational(0, Fraction(-1, 8)))
        mass = mat_scale(_theta_commutator(p, gam, lo, hi), minus_i_over_8)
        inner = phi_momentum_derivative(s, which) + matrix_act(mass, s)
        z, zbar = AlgebraElement.generator(p, lo), AlgebraElement.generator(p, hi)
        rotated = matrix_act(gam[lo], right_mul(inner, zbar))
        rotated = rotated - matrix_act(gam[hi], right_mul(inner, z))
        out = out + rotated.scale(minus_i)
    return out
