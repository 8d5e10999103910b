"""Built-in catalog: the flat embedding space, the 3-sphere, and the 2-torus.

build_r4 assembles the deformed flat space from its defining data; build_s3
and build_t2 run the hypersurface induction and then compare every induced
structure against its hard-coded closed form, aborting on any mismatch.  The
closed forms are pinned once, independently of the machinery that must
reproduce them, and act as the acceptance oracle for the induction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import AlgebraElement, Presentation, normal_form
from .geometry import Calculus, Connection, Metric, verify_metric
from .hypersurface import (
    HypersurfaceSpec,
    build_hypersurface,
    check_assumptions,
    induced_dirac,
    induced_structures,
)
from .reports import Report
from .scalars import HALF, Scalar
from .spin import (
    ScalarMatrix,
    SpinStructure,
    StructureSet,
    gamma_from_matrices,
    mat_mul,
    mat_scale,
    matrix_act,
    theta_commutator,
    verify_spinorial,
)
from .tensors import BasisWord, LeftLinearMap, TensorElement, right_mul, tensor

N_GEN = 4
SPINOR_RANK = 4

# q-exponents of the R-matrix, R[i][j] = q**R_EXP[i][j] with q**4 = exp(i*theta)
R_EXP = (
    (0, -4, 0, 4),
    (4, 0, -4, 0),
    (0, 4, 0, -4),
    (-4, 0, 4, 0),
)

_G_PATTERN = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
_H_PATTERN = ((0, 0, 1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, -1, 0, 0))


def metric_lower(i: int, j: int) -> Fraction:
    return Fraction(_G_PATTERN[i][j], 2)


def metric_upper(i: int, j: int) -> Fraction:
    return Fraction(2 * _G_PATTERN[i][j])


def h_lower(i: int, j: int) -> Fraction:
    return Fraction(_H_PATTERN[i][j], 2)


def gamma_theta_matrices(classical: bool = False) -> tuple[ScalarMatrix, ...]:
    """The four deformed gamma matrices (classical=True sets q = 1)."""

    def q(k: int, c: int) -> Scalar:
        return Scalar.q_power(0 if classical else k, c)

    z = Scalar.zero()
    g1 = (
        (z, z, z, q(1, -2)),
        (z, z, z, z),
        (z, q(-1, 2), z, z),
        (z, z, z, z),
    )
    g2 = (
        (z, z, q(-1, -2), z),
        (z, z, z, z),
        (z, z, z, z),
        (z, q(1, -2), z, z),
    )
    g3 = (
        (z, z, z, z),
        (z, z, q(1, -2), z),
        (z, z, z, z),
        (q(-1, 2), z, z, z),
    )
    g4 = (
        (z, z, z, z),
        (z, z, z, q(-1, 2)),
        (q(1, 2), z, z, z),
        (z, z, z, z),
    )
    return (g1, g2, g3, g4)


def r4_presentation(classical: bool = False, name: str = "r4") -> Presentation:
    R = tuple(
        tuple(Scalar.q_power(0 if classical else R_EXP[i][j]) for j in range(N_GEN))
        for i in range(N_GEN)
    )
    return Presentation(N_GEN, R, (), name=name)


class GoldenMismatch(RuntimeError):
    """An induced structure differs from its pinned closed form."""

    def __init__(self, label: str, residual):
        super().__init__(f"golden comparison failed: {label}")
        self.label = label
        self.residual = residual


@dataclass
class SpaceBundle:
    """One catalog space: presentation, structures, and its hypersurface link.

    The constant Clifford data of the rotated torus operator (flat_gamma,
    mass_matrices) is derived from base_matrices once, on first use.
    """

    name: str
    structures: StructureSet
    hypersurface: HypersurfaceSpec | None = None
    base_matrices: tuple[ScalarMatrix, ...] | None = None

    @property
    def presentation(self) -> Presentation:
        return self.structures.presentation

    @property
    def calculus(self) -> Calculus:
        return self.structures.calculus

    @cached_property
    def flat_gamma(self) -> LeftLinearMap:
        """The constant-matrix Clifford action of the embedding space, over C.

        The rotated torus operator and its square contract against the flat
        gamma matrices acting on representatives, not against the induced
        sphere action.
        """
        calc = Calculus(self.presentation, None)
        return gamma_from_matrices(calc, self.base_matrices, SPINOR_RANK)

    @cached_property
    def mass_matrices(self) -> tuple[ScalarMatrix, ScalarMatrix]:
        """(1/(8i)) [gamma_1, gamma_3]_theta and (1/(8i)) [gamma_2, gamma_4]_theta."""
        gam, R = self.base_matrices, self.presentation.R
        factor = Scalar.gaussian(0, Fraction(-1, 8))
        return tuple(
            mat_scale(theta_commutator(gam[i], gam[j], R[j][i]), factor)
            for i, j in ((0, 2), (1, 3))
        )


def build_r4(classical: bool = False) -> SpaceBundle:
    """The flat quasi-commutative embedding space with its spinorial structure."""
    p = r4_presentation(classical)
    calc = Calculus(p, None)

    g_terms = {}
    for i in range(N_GEN):
        for j in range(N_GEN):
            v = metric_lower(i, j)
            if v:
                g_terms[BasisWord((i, j), None)] = AlgebraElement.from_scalar(
                    p, Scalar.rational(v)
                )
    g_element = TensorElement(p, 2, False, g_terms)
    g_inv_images = {
        BasisWord((i, j), None): TensorElement.basis(
            p, (), None, AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j)))
        )
        for i in range(N_GEN)
        for j in range(N_GEN)
    }
    metric = Metric(g_element, LeftLinearMap(p, (2, False), (0, False), g_inv_images))

    sigma_images = {
        BasisWord((i, j), None): TensorElement.basis(
            p, (j, i), None, AlgebraElement.from_scalar(p, p.R[j][i])
        )
        for i in range(N_GEN)
        for j in range(N_GEN)
    }
    sigma = LeftLinearMap(p, (2, False), (2, False), sigma_images)
    conn_values = {
        BasisWord((i,), None): TensorElement.zero(p, 2, False) for i in range(N_GEN)
    }
    connection = Connection(calc, conn_values, sigma, sigma.inverse_permutation())

    matrices = gamma_theta_matrices(classical)
    gamma = gamma_from_matrices(calc, matrices, SPINOR_RANK)
    spin_values = {
        BasisWord((), alpha): TensorElement.zero(p, 1, True) for alpha in range(SPINOR_RANK)
    }
    spin = SpinStructure(calc, SPINOR_RANK, gamma, Connection(calc, spin_values), matrices)

    structures = StructureSet(calculus=calc, metric=metric, connection=connection, spin=spin)
    return SpaceBundle("r4", structures, None, matrices)


def undeformed_spin_structure(bundle: SpaceBundle) -> SpinStructure:
    """Classical gamma matrices over the deformed calculus (negative control)."""
    calc = bundle.calculus
    matrices = gamma_theta_matrices(classical=True)
    gamma = gamma_from_matrices(calc, matrices, SPINOR_RANK)
    return SpinStructure(
        calc, SPINOR_RANK, gamma, bundle.structures.spin.spin_connection, matrices
    )


def sphere_level_function(p: Presentation) -> AlgebraElement:
    """f = (1/2)(sum_ij g_ij z_i z_j - 1), the unit sphere level function."""
    f = AlgebraElement.from_scalar(p, -HALF)
    for i in range(N_GEN):
        for j in range(N_GEN):
            v = metric_lower(i, j)
            if v:
                f = f + normal_form([i, j], Scalar.rational(v * Fraction(1, 2)), p)
    return f


def torus_level_function(p: Presentation) -> AlgebraElement:
    """f~ = (1/2) sum_ij h_ij z_i z_j, cutting the torus out of the sphere."""
    f = AlgebraElement.zero(p)
    for i in range(N_GEN):
        for j in range(N_GEN):
            v = h_lower(i, j)
            if v:
                f = f + normal_form([i, j], Scalar.rational(v * Fraction(1, 2)), p)
    return f


# ---------------------------------------------------------------------------
# golden closed forms
# ---------------------------------------------------------------------------


def _z(p: Presentation, i: int) -> AlgebraElement:
    return AlgebraElement.generator(p, i)


def _expect(label: str, got, want):
    residual = got - want
    if not residual.is_zero():
        raise GoldenMismatch(label, residual.to_json())


def _golden_s3(h: HypersurfaceSpec, structures: StructureSet, matrices) -> None:
    p = h.quotient_presentation
    qc = h.quotient_calculus
    gam_ab = [[mat_mul(a, b) for b in matrices] for a in matrices]  # gamma_a gamma_b

    free = [TensorElement.basis(p, (i,)) for i in range(N_GEN)]
    zs = [_z(p, i) for i in range(N_GEN)]

    # sigma_B(dz_i (x) dz_j) = R^{ji} dz_j (x) dz_i
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = qc.canon(tensor(free[j], free[i]).scale(p.R[j][i]))
            got = structures.connection.sigma.apply(tensor(free[i], free[j]))
            _expect(f"sigma_B[dz{i + 1},dz{j + 1}]", qc.canon(got), want)

    # g_B = sum g_ij dz_i (x) dz_j
    g_want = TensorElement.zero(p, 2, False)
    for i in range(N_GEN):
        for j in range(N_GEN):
            v = metric_lower(i, j)
            if v:
                g_want = g_want + tensor(free[i], free[j]).scale(Scalar.rational(v))
    _expect("g_B", qc.canon(structures.metric.g_element), qc.canon(g_want))

    # g_B^-1(dz_i (x) dz_j) = g^{ij} - z_i z_j
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j))) - zs[i] * zs[j]
            got = structures.metric.pair(tensor(free[i], free[j]))
            _expect(f"g_B_inv[dz{i + 1},dz{j + 1}]", got, want)

    # nabla_B(dz_i) = -z_i sum g_kl dz_k (x) dz_l
    for i in range(N_GEN):
        want = qc.canon(g_want.left_mul(zs[i]).scale(Scalar.rational(-1)))
        _expect(f"nabla_B[dz{i + 1}]", structures.connection.values[BasisWord((i,), None)], want)

    # gamma_B(dz_i (x) e_a) = -(sum g_kl z_k gamma_l gamma_i + z_i) e_a
    for i in range(N_GEN):
        for alpha in range(SPINOR_RANK):
            want = TensorElement.basis(p, (), alpha, zs[i]).scale(Scalar.rational(-1))
            for k in range(N_GEN):
                for l in range(N_GEN):
                    v = metric_lower(k, l)
                    if v:
                        coeff = zs[k].scale(Scalar.rational(-v))
                        term = TensorElement.basis(p, (), alpha, coeff)
                        want = want + matrix_act(gam_ab[l][i], term)
            got = structures.spin.gamma.images[BasisWord((i,), alpha)]
            _expect(f"gamma_B[dz{i + 1},e{alpha + 1}]", got, want)

    # nabla^sp_B(e_a) = 1/2 sum g_ij g_kl z_k dz_i (x) gamma_j gamma_l e_a
    for alpha in range(SPINOR_RANK):
        want = TensorElement.zero(p, 1, True)
        for i in range(N_GEN):
            for j in range(N_GEN):
                gij = metric_lower(i, j)
                if not gij:
                    continue
                for k in range(N_GEN):
                    for l in range(N_GEN):
                        gkl = metric_lower(k, l)
                        if not gkl:
                            continue
                        coeff = zs[k].scale(Scalar.rational(gij * gkl * Fraction(1, 2)))
                        term = TensorElement.basis(p, (i,), alpha, coeff)
                        want = want + matrix_act(gam_ab[j][l], term)
        got = structures.spin.spin_connection.values[BasisWord((), alpha)]
        _expect(f"nabla_sp_B[e{alpha + 1}]", got, qc.canon(want))

    # D_B(e_a) = -(3/2) e_a
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        want = e_a.scale(Scalar.rational(Fraction(-3, 2)))
        _expect(f"D_B[e{alpha + 1}]", induced_dirac(h, e_a), want)


def _golden_t2(h: HypersurfaceSpec, structures: StructureSet, matrices) -> None:
    p = h.quotient_presentation
    qc = h.quotient_calculus
    gam_ab = [[mat_mul(a, b) for b in matrices] for a in matrices]  # gamma_a gamma_b
    free = [TensorElement.basis(p, (i,)) for i in range(N_GEN)]
    zs = [_z(p, i) for i in range(N_GEN)]

    def sign(i: int) -> int:
        # (-1)^i for 1-based generator numbering
        return -1 if (i + 1) % 2 else 1

    # projector: Pi~(dz_i) = dz_i + (-1)^i z_i nu~
    for i in range(N_GEN):
        want = h.qcalc.canon(free[i]) + h.nu_q.left_mul(zs[i].scale(Scalar.rational(sign(i))))
        got = h.pi.images[BasisWord((i,), None)]
        _expect(f"pi_T2[dz{i + 1}]", got, want)

    # g_C^-1(dz_i (x) dz_j) = g^{ij} - (1 + (-1)^i (-1)^j) z_i z_j
    for i in range(N_GEN):
        for j in range(N_GEN):
            factor = 1 + sign(i) * sign(j)
            want = AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j)))
            if factor:
                want = want - (zs[i] * zs[j]).scale(Scalar.rational(factor))
            got = structures.metric.pair(tensor(free[i], free[j]))
            _expect(f"g_C_inv[dz{i + 1},dz{j + 1}]", got, want)

    # g_C = sum g_ij dz_i (x) dz_j
    g_want = TensorElement.zero(p, 2, False)
    for i in range(N_GEN):
        for j in range(N_GEN):
            v = metric_lower(i, j)
            if v:
                g_want = g_want + tensor(free[i], free[j]).scale(Scalar.rational(v))
    _expect("g_C", qc.canon(structures.metric.g_element), qc.canon(g_want))

    # sigma_C(dz_i (x) dz_j) = R^{ji} dz_j (x) dz_i
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = qc.canon(tensor(free[j], free[i]).scale(p.R[j][i]))
            got = structures.connection.sigma.apply(tensor(free[i], free[j]))
            _expect(f"sigma_C[dz{i + 1},dz{j + 1}]", qc.canon(got), want)

    # nabla_C(dz_i) = -z_i sum (g_kl - (-1)^i h_kl) dz_k (x) dz_l
    for i in range(N_GEN):
        want = TensorElement.zero(p, 2, False)
        for k in range(N_GEN):
            for l in range(N_GEN):
                v = metric_lower(k, l) - sign(i) * h_lower(k, l)
                if v:
                    want = want + tensor(free[k], free[l]).scale(Scalar.rational(-v))
        want = qc.canon(want.left_mul(zs[i]))
        _expect(f"nabla_C[dz{i + 1}]", structures.connection.values[BasisWord((i,), None)], want)

    # gamma_C(dz_i (x) e_a) = (z_i sum g_mn z_m h_kl z_k g_l g_n
    #                          - sum h_kl z_k g_l g_i + (-1)^i z_i) e_a
    for i in range(N_GEN):
        for alpha in range(SPINOR_RANK):
            want = TensorElement.basis(p, (), alpha, zs[i].scale(Scalar.rational(sign(i))))
            for k in range(N_GEN):
                for l in range(N_GEN):
                    hkl = h_lower(k, l)
                    if not hkl:
                        continue
                    coeff = zs[k].scale(Scalar.rational(-hkl))
                    term = TensorElement.basis(p, (), alpha, coeff)
                    want = want + matrix_act(gam_ab[l][i], term)
                    for m in range(N_GEN):
                        for n in range(N_GEN):
                            gmn = metric_lower(m, n)
                            if not gmn:
                                continue
                            coeff = (zs[i] * zs[m] * zs[k]).scale(Scalar.rational(gmn * hkl))
                            term = TensorElement.basis(p, (), alpha, coeff)
                            want = want + matrix_act(gam_ab[l][n], term)
            got = structures.spin.gamma.images[BasisWord((i,), alpha)]
            _expect(f"gamma_C[dz{i + 1},e{alpha + 1}]", got, want)

    # nabla^sp_C(e_a) = 1/2 sum (g_kl z_k g_ij + h_kl z_k h_ij) dz_i (x) g_j g_l e_a
    for alpha in range(SPINOR_RANK):
        want = TensorElement.zero(p, 1, True)
        for i in range(N_GEN):
            for j in range(N_GEN):
                for k in range(N_GEN):
                    for l in range(N_GEN):
                        v = metric_lower(i, j) * metric_lower(k, l) + h_lower(i, j) * h_lower(k, l)
                        if not v:
                            continue
                        coeff = zs[k].scale(Scalar.rational(v * Fraction(1, 2)))
                        term = TensorElement.basis(p, (i,), alpha, coeff)
                        want = want + matrix_act(gam_ab[j][l], term)
        got = structures.spin.spin_connection.values[BasisWord((), alpha)]
        _expect(f"nabla_sp_C[e{alpha + 1}]", got, qc.canon(want))

    # composite and explicit Dirac paths agree on basis spinors
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        _expect(
            f"D_C_paths[e{alpha + 1}]",
            induced_dirac(h, e_a, via="composite"),
            induced_dirac(h, e_a, via="explicit"),
        )


def _induce(ambient: SpaceBundle, f: AlgebraElement, name: str, golden, check) -> SpaceBundle:
    """One induction step: hypersurface, certificate, verify_space (if check), golden forms."""
    h = build_hypersurface(ambient.structures, f, name=name)
    cert = check_assumptions(h)
    if not cert.all_passed:
        raise GoldenMismatch(f"{name} assumption certificate", cert.to_json())
    bundle = SpaceBundle(name, induced_structures(h), h, ambient.base_matrices)
    if check:
        report = verify_space(bundle)
        if not report.all_passed:
            failing = ", ".join(c.name for c in report.failures())
            raise GoldenMismatch(f"{name} verification: {failing}", report.to_json())
    golden(h, bundle.structures, ambient.base_matrices)
    return bundle


def build_s3(check: bool = True) -> SpaceBundle:
    """Induce the sphere structures and compare them with their closed forms."""
    r4 = build_r4()
    return _induce(r4, sphere_level_function(r4.presentation), "s3", _golden_s3, check)


def build_t2(check: bool = True) -> SpaceBundle:
    """Iterate the induction: the torus as a hypersurface of the sphere."""
    s3 = build_s3(check=check)
    return _induce(s3, torus_level_function(s3.presentation), "t2", _golden_t2, check)


def build_space(name: str, check: bool = True) -> SpaceBundle:
    builders = {"r4": lambda: build_r4(), "s3": lambda: build_s3(check), "t2": lambda: build_t2(check)}
    if name not in builders:
        raise KeyError(f"unknown catalog space {name!r} (expected r4, s3 or t2)")
    return builders[name]()


# ---------------------------------------------------------------------------
# torus extras: phi-basis and the rotated Dirac operator
# ---------------------------------------------------------------------------


def phi_basis(t2: SpaceBundle) -> tuple[TensorElement, TensorElement]:
    """Central basis 1-forms of the torus calculus, in z-coordinates.

    dphi_1 = (1/i) ubar du = (2/i) z3 dz1 and dphi_2 = (2/i) z4 dz2; the
    sqrt(2) rescaling of the torus generators cancels and never enters.
    """
    p = t2.presentation
    minus_2i = Scalar.gaussian(0, -2)
    dphi1 = TensorElement.basis(p, (0,), None, _z(p, 2).scale(minus_2i))
    dphi2 = TensorElement.basis(p, (1,), None, _z(p, 3).scale(minus_2i))
    return dphi1, dphi2


def phi_momentum_derivative(s: TensorElement, which: int) -> TensorElement:
    """d/dphi_which on torus spinors via the momentum grading of monomials."""
    p = s.presentation
    lo, hi = (0, 2) if which == 1 else (1, 3)
    terms = {}
    for w, c in s.terms.items():
        new = {
            mono: scal * Scalar.gaussian(0, mono[lo] - mono[hi])
            for mono, scal in c.terms.items()
            if mono[lo] != mono[hi]
        }
        if new:
            terms[w] = AlgebraElement(p, new)
    return TensorElement(p, s.degree, s.has_spin, terms)


def gamma_tilde(t2: SpaceBundle, which: int, s: TensorElement) -> TensorElement:
    """The phi-basis Clifford action on torus spinors.

    gamma~(dphi_1 (x) s) = (1/i)(gamma_1 s zbar_1 - gamma_3 s z_1), and the
    (dphi_2, gamma_2, gamma_4, z_2) analogue.
    """
    p = t2.presentation
    gam = t2.base_matrices
    minus_i = Scalar.gaussian(0, -1)
    if which == 1:
        a, b, z, zbar = gam[0], gam[2], _z(p, 0), _z(p, 2)
    else:
        a, b, z, zbar = gam[1], gam[3], _z(p, 1), _z(p, 3)
    out = matrix_act(a, right_mul(s, zbar)) - matrix_act(b, right_mul(s, z))
    return out.scale(minus_i)


def dtilde_apply(t2: SpaceBundle, s: TensorElement, via: str = "definition") -> TensorElement:
    """The rotated torus Dirac operator D~ = gamma(nu~ (x) D_C(-)).

    The definition path composes the induced Dirac operator with one ambient
    Clifford contraction against nu~; the expanded path is the phi-basis form
    gamma~(dphi_a (x) (d/dphi_a + mass_a)) summed over the two directions.
    """
    if s.degree != 0 or not s.has_spin:
        raise ValueError("operator acts on torus spinors")
    if s.presentation != t2.presentation:
        s = s.convert(t2.presentation)
    h = t2.hypersurface
    if via == "definition":
        ds = induced_dirac(h, s, via="composite")
        t = tensor(h.nu_q, ds)
        return t2.flat_gamma.apply_at(t, 0)
    if via != "expanded":
        raise ValueError("via must be 'definition' or 'expanded'")
    out = TensorElement.zero(t2.presentation, 0, True)
    for which, mass in zip((1, 2), t2.mass_matrices):
        inner = phi_momentum_derivative(s, which) + matrix_act(mass, s)
        out = out + gamma_tilde(t2, which, inner)
    return out


def gamma_nu_tilde(t2: SpaceBundle, s: TensorElement) -> TensorElement:
    """One flat Clifford contraction against the torus normal form."""
    h = t2.hypersurface
    if s.presentation != t2.presentation:
        s = s.convert(t2.presentation)
    return t2.flat_gamma.apply_at(tensor(h.nu_q, s), 0)


def verify_space(bundle: SpaceBundle) -> Report:
    """Aggregate verification report for one catalog space."""
    s = bundle.structures
    report = Report(subject=bundle.name)
    report.clauses.extend(verify_metric(s.metric, s.connection).clauses)
    report.clauses.extend(verify_spinorial(s.spin, s.metric, s.connection).clauses)
    if bundle.hypersurface is not None and bundle.hypersurface.certificate is not None:
        report.clauses.extend(bundle.hypersurface.certificate.clauses)
    return report
