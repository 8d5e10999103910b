"""Closed forms of the catalog spaces, built independently of the induction.

golden_s3 and golden_t2 compare every induced structure of the sphere and the
torus with its hard-coded closed form, symbol for symbol; the session
fixtures run them once on the bundles they build.  The Dirac helpers evaluate the pinned coordinate formulas termwise (theta-commutators of
the flat gamma matrices against the representative partials, or the phi-basis
form of the rotated torus operator) so that tests can compare them against the
composite operators computed by the engine.  The partials, the torus
phi-basis, the undeformed negative control and replace, which rebuilds an
engine object with some fields changed, live here too: only tests use them.
"""

import inspect
from fractions import Fraction
from itertools import product

from ncgdirac.algebra import AlgebraElement
from ncgdirac.catalog import (
    N_GEN,
    SPINOR_RANK,
    GoldenMismatch,
    _form_sum,
    gamma_theta_matrices,
    h_lower,
    metric_lower,
    metric_upper,
)
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spin import SpinStructure, dirac, gamma_from_matrices, mat_mul, matrix_act
from ncgdirac.tensors import BasisWord, TensorElement, differential, right_mul, tensor


def replace(obj, **changes):
    """A new object of obj's class, built by its constructor from obj's fields with changes applied.

    Every constructor argument of the engine's record classes is stored
    under its own name, so the copy derives what its constructor derives
    (a spec's certificate, say) from its own data, and a bundle starts with
    no cached operator and an empty sector store.  An unknown field raises
    TypeError.
    """
    fields = inspect.signature(type(obj)).parameters
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no field {', '.join(sorted(unknown))}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in fields})


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
    gamma = gamma_from_matrices(calc.presentation, gamma_theta_matrices(classical=True))
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


# ---------------------------------------------------------------------------
# golden closed forms of the induced structures
# ---------------------------------------------------------------------------
#
# expect(label, got, want) raises catalog.GoldenMismatch on a nonzero
# residual by default; a caller that wants every mismatch passes its own.


def _expect(label: str, got, want):
    residual = got - want
    if not residual.is_zero():
        raise GoldenMismatch(label, residual.to_json())


def check_goldens(bundle, expect=_expect):
    """Run the closed-form comparisons of a catalog bundle (s3 or t2)."""
    golden = {"s3": golden_s3, "t2": golden_t2}[bundle.name]
    golden(bundle.hypersurface, bundle.structures, bundle.base_matrices, expect)


def _golden_families(h, structures, matrices, tag, expect, g_inv_factor, nabla_coeff, nabla_sp_coeff):
    """Compare the five families whose closed forms share one shape in s3 and t2.

    A space enters by its tag (B or C) and its rational coefficient functions.
    Returns the free dz basis, the generators and the gamma_a gamma_b table.
    """
    p = h.quotient_presentation
    qc = structures.calculus
    gam_ab = [[mat_mul(a, b) for b in matrices] for a in matrices]  # gamma_a gamma_b
    free = [TensorElement.basis(p, (i,)) for i in range(N_GEN)]
    zs = [AlgebraElement.generator(p, i) for i in range(N_GEN)]

    # sigma(dz_i (x) dz_j) = R^{ji} dz_j (x) dz_i
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = qc.canon(tensor(free[j], free[i]).scale(p.R[j][i]))
            got = structures.connection.sigma.apply(tensor(free[i], free[j]))
            expect(f"sigma_{tag}[dz{i + 1},dz{j + 1}]", qc.canon(got), want)

    # g = sum g_ij dz_i (x) dz_j
    expect(f"g_{tag}", qc.canon(structures.metric.g_element), qc.canon(_form_sum(p, metric_lower)))

    # g^-1(dz_i (x) dz_j) = g^{ij} - g_inv_factor(i, j) z_i z_j
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j)))
            factor = g_inv_factor(i, j)
            if factor:
                want = want - (zs[i] * zs[j]).scale(Scalar.rational(factor))
            got = structures.metric.pair(tensor(free[i], free[j]))
            expect(f"g_{tag}_inv[dz{i + 1},dz{j + 1}]", got, want)

    # nabla(dz_i) = -z_i sum nabla_coeff(i, k, l) dz_k (x) dz_l
    for i in range(N_GEN):
        want = qc.canon(_form_sum(p, lambda k, l: -nabla_coeff(i, k, l)).left_mul(zs[i]))
        got = structures.connection.values[BasisWord((i,), None)]
        expect(f"nabla_{tag}[dz{i + 1}]", qc.canon(got), want)

    # nabla^sp(e_a) = 1/2 sum nabla_sp_coeff(i, j, k, l) z_k dz_i (x) gamma_j gamma_l e_a
    for alpha in range(SPINOR_RANK):
        want = TensorElement.zero(p, 1, True)
        for i, j, k, l in product(range(N_GEN), repeat=4):
            v = nabla_sp_coeff(i, j, k, l)
            if v:
                coeff = zs[k].scale(Scalar.rational(v * Fraction(1, 2)))
                term = TensorElement.basis(p, (i,), alpha, coeff)
                want = want + matrix_act(gam_ab[j][l], term)
        got = structures.spin.spin_connection.values[BasisWord((), alpha)]
        expect(f"nabla_sp_{tag}[e{alpha + 1}]", got, qc.canon(want))
    return free, zs, gam_ab


def golden_s3(h, structures, matrices, expect=_expect):
    """Compare the induced sphere structures with their closed forms (tag B)."""
    p = h.quotient_presentation
    _, zs, gam_ab = _golden_families(
        h, structures, matrices, "B", expect,
        # g_B^-1(dz_i (x) dz_j) = g^{ij} - z_i z_j
        g_inv_factor=lambda i, j: 1,
        # nabla_B(dz_i) = -z_i sum g_kl dz_k (x) dz_l
        nabla_coeff=lambda i, k, l: metric_lower(k, l),
        # nabla^sp_B(e_a) = 1/2 sum g_ij g_kl z_k dz_i (x) gamma_j gamma_l e_a
        nabla_sp_coeff=lambda i, j, k, l: metric_lower(i, j) * metric_lower(k, l),
    )

    # gamma_B(dz_i (x) e_a) = -(sum g_kl z_k gamma_l gamma_i + z_i) e_a
    for i in range(N_GEN):
        for alpha in range(SPINOR_RANK):
            want = TensorElement.basis(p, (), alpha, zs[i]).scale(Scalar.rational(-1))
            for k, l in product(range(N_GEN), repeat=2):
                v = metric_lower(k, l)
                if v:
                    coeff = zs[k].scale(Scalar.rational(-v))
                    term = TensorElement.basis(p, (), alpha, coeff)
                    want = want + matrix_act(gam_ab[l][i], term)
            got = structures.spin.gamma.images[BasisWord((i,), alpha)]
            expect(f"gamma_B[dz{i + 1},e{alpha + 1}]", got, want)

    # D_B(e_a) = -(3/2) e_a
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        want = e_a.scale(Scalar.rational(Fraction(-3, 2)))
        expect(f"D_B[e{alpha + 1}]", dirac(structures.spin, e_a), want)


def golden_t2(h, structures, matrices, expect=_expect):
    """Compare the induced torus structures with their closed forms (tag C)."""
    p = h.quotient_presentation

    def sign(i: int) -> int:
        # (-1)^i for 1-based generator numbering
        return -1 if (i + 1) % 2 else 1

    free, zs, gam_ab = _golden_families(
        h, structures, matrices, "C", expect,
        # g_C^-1(dz_i (x) dz_j) = g^{ij} - (1 + (-1)^i (-1)^j) z_i z_j
        g_inv_factor=lambda i, j: 1 + sign(i) * sign(j),
        # nabla_C(dz_i) = -z_i sum (g_kl - (-1)^i h_kl) dz_k (x) dz_l
        nabla_coeff=lambda i, k, l: metric_lower(k, l) - sign(i) * h_lower(k, l),
        # nabla^sp_C(e_a) = 1/2 sum (g_kl z_k g_ij + h_kl z_k h_ij) dz_i (x) g_j g_l e_a
        nabla_sp_coeff=lambda i, j, k, l: (
            metric_lower(i, j) * metric_lower(k, l) + h_lower(i, j) * h_lower(k, l)
        ),
    )

    # projector: Pi~(dz_i) = dz_i + (-1)^i z_i nu~
    for i in range(N_GEN):
        want = h.ambient_q.calculus.canon(free[i]) + h.nu_q.left_mul(zs[i].scale(Scalar.rational(sign(i))))
        got = h.pi.images[BasisWord((i,), None)]
        expect(f"pi_T2[dz{i + 1}]", got, want)

    # gamma_C(dz_i (x) e_a) = (z_i sum g_mn z_m h_kl z_k g_l g_n
    #                          - sum h_kl z_k g_l g_i + (-1)^i z_i) e_a
    for i in range(N_GEN):
        for alpha in range(SPINOR_RANK):
            want = TensorElement.basis(p, (), alpha, zs[i].scale(Scalar.rational(sign(i))))
            for k, l in product(range(N_GEN), repeat=2):
                hkl = h_lower(k, l)
                if not hkl:
                    continue
                coeff = zs[k].scale(Scalar.rational(-hkl))
                term = TensorElement.basis(p, (), alpha, coeff)
                want = want + matrix_act(gam_ab[l][i], term)
                for m, n in product(range(N_GEN), repeat=2):
                    gmn = metric_lower(m, n)
                    if not gmn:
                        continue
                    coeff = (zs[i] * zs[m] * zs[k]).scale(Scalar.rational(gmn * hkl))
                    term = TensorElement.basis(p, (), alpha, coeff)
                    want = want + matrix_act(gam_ab[l][n], term)
            got = structures.spin.gamma.images[BasisWord((i,), alpha)]
            expect(f"gamma_C[dz{i + 1},e{alpha + 1}]", got, want)
