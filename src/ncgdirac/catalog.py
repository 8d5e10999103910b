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
from itertools import product

from .algebra import AlgebraElement, Presentation, normal_form
from .geometry import Calculus, Connection, Metric, contracted_connection, verify_metric
from .hypersurface import (
    HypersurfaceSpec,
    build_hypersurface,
    induced_dirac,
    induced_structures,
)
from .reports import Report
from .scalars import Scalar
from .spin import (
    ScalarMatrix,
    SpinStructure,
    StructureSet,
    dirac,
    gamma_from_matrices,
    mat_mul,
    matrix_act,
    verify_spinorial,
)
from .tensors import SPINOR_RANK, BasisWord, LeftLinearMap, TensorElement, tensor

N_GEN = 4

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


def r4_presentation(classical: bool = False) -> Presentation:
    R = tuple(
        tuple(Scalar.q_power(0 if classical else R_EXP[i][j]) for j in range(N_GEN))
        for i in range(N_GEN)
    )
    return Presentation(N_GEN, R, (), name="r4")


class GoldenMismatch(RuntimeError):
    """An induced structure differs from its pinned closed form."""

    def __init__(self, label: str, residual):
        super().__init__(f"golden comparison failed: {label}")
        self.label = label
        self.residual = residual


@dataclass
class SpaceBundle:
    """One catalog space: presentation, structures, and its hypersurface link.

    The data of the rotated torus operator (flat_gamma, rotated_gamma and
    its contraction with the spin connection, rotated_dirac) is derived
    once, on first use; the exact momentum sectors of the spectrum are kept
    in sector_store.
    """

    name: str
    structures: StructureSet
    hypersurface: HypersurfaceSpec | None = None
    base_matrices: tuple[ScalarMatrix, ...] | None = None

    @property
    def presentation(self) -> Presentation:
        return self.structures.presentation

    @cached_property
    def flat_gamma(self) -> LeftLinearMap:
        """The constant-matrix Clifford action of the embedding space, over C.

        The rotated torus operator and its square contract against the flat
        gamma matrices acting on representatives, not against the induced
        sphere action.
        """
        calc = Calculus(self.presentation, None)
        return gamma_from_matrices(calc, self.base_matrices)

    @cached_property
    def rotated_gamma(self) -> LeftLinearMap:
        """Phi: dz_i (x) e_a -> flat_gamma(nu~ (x) gamma_C(dz_i (x) e_a)).

        nu~ is central, so Phi is left-linear and is stored on its 16 images.
        """
        gamma = self.structures.spin.gamma
        images = {w: gamma_nu_tilde(self, img) for w, img in gamma.images.items()}
        return LeftLinearMap(self.presentation, gamma.domain, gamma.codomain, images)

    @cached_property
    def rotated_dirac(self):
        """D~ = Phi o canon o nabla^sp, as one contraction of the spin connection."""
        return contracted_connection(self.structures.spin.spin_connection, self.rotated_gamma)

    @cached_property
    def sector_store(self) -> dict:
        """Certified sectors (frozen spectrum.SectorMatrix) by momentum (m, n).

        spectrum.sector_matrix fills it and hands out the stored sector
        itself; it holds at most spectrum.SECTOR_STORE_BOUND sectors.
        """
        return {}


def build_r4(classical: bool = False) -> SpaceBundle:
    """The flat quasi-commutative embedding space with its spinorial structure."""
    p = r4_presentation(classical)
    calc = Calculus(p, None)

    g_element = _form_sum(p, metric_lower)
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
    # sigma^-1(dz_j (x) dz_i) = R[i][j] dz_i (x) dz_j, which is sigma(dz_j (x) dz_i):
    # R[i][j] R[j][i] = 1 makes the braiding an involution
    connection = Connection(calc, conn_values, sigma, sigma)

    matrices = gamma_theta_matrices(classical)
    gamma = gamma_from_matrices(calc, matrices)
    spin_values = {
        BasisWord((), alpha): TensorElement.zero(p, 1, True) for alpha in range(SPINOR_RANK)
    }
    spin = SpinStructure(calc, gamma, Connection(calc, spin_values))

    structures = StructureSet(calculus=calc, metric=metric, connection=connection, spin=spin)
    return SpaceBundle("r4", structures, None, matrices)


def _form_sum(p: Presentation, coeff) -> TensorElement:
    """sum_kl coeff(k, l) dz_k (x) dz_l for a rational coefficient function."""
    terms = {}
    for k, l in product(range(N_GEN), repeat=2):
        v = coeff(k, l)
        if v:
            terms[BasisWord((k, l), None)] = AlgebraElement.from_scalar(p, Scalar.rational(v))
    return TensorElement(p, 2, False, terms)


def _half_quadratic(p: Presentation, coeff, constant: int) -> AlgebraElement:
    """(1/2)(sum_ij coeff(i, j) z_i z_j + constant)."""
    f = AlgebraElement.from_scalar(p, Scalar.rational(Fraction(constant, 2)))
    for i, j in product(range(N_GEN), repeat=2):
        v = coeff(i, j)
        if v:
            f = f + normal_form([i, j], Scalar.rational(v * Fraction(1, 2)), p)
    return f


def sphere_level_function(p: Presentation) -> AlgebraElement:
    """f = (1/2)(sum_ij g_ij z_i z_j - 1), the unit sphere level function."""
    return _half_quadratic(p, metric_lower, -1)


def torus_level_function(p: Presentation) -> AlgebraElement:
    """f~ = (1/2) sum_ij h_ij z_i z_j, cutting the torus out of the sphere."""
    return _half_quadratic(p, h_lower, 0)


# ---------------------------------------------------------------------------
# golden closed forms
# ---------------------------------------------------------------------------


def _expect(label: str, got, want):
    residual = got - want
    if not residual.is_zero():
        raise GoldenMismatch(label, residual.to_json())


def _golden_families(h: HypersurfaceSpec, structures: StructureSet, matrices, tag: str,
                     g_inv_factor, nabla_coeff, nabla_sp_coeff):
    """Compare the five families whose closed forms share one shape in s3 and t2.

    A space enters by its tag (B or C) and its rational coefficient functions.
    Returns the free dz basis, the generators and the gamma_a gamma_b table.
    """
    p = h.quotient_presentation
    qc = h.quotient_calculus
    gam_ab = [[mat_mul(a, b) for b in matrices] for a in matrices]  # gamma_a gamma_b
    free = [TensorElement.basis(p, (i,)) for i in range(N_GEN)]
    zs = [AlgebraElement.generator(p, i) for i in range(N_GEN)]

    # sigma(dz_i (x) dz_j) = R^{ji} dz_j (x) dz_i
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = qc.canon(tensor(free[j], free[i]).scale(p.R[j][i]))
            got = structures.connection.sigma.apply(tensor(free[i], free[j]))
            _expect(f"sigma_{tag}[dz{i + 1},dz{j + 1}]", qc.canon(got), want)

    # g = sum g_ij dz_i (x) dz_j
    _expect(f"g_{tag}", qc.canon(structures.metric.g_element), qc.canon(_form_sum(p, metric_lower)))

    # g^-1(dz_i (x) dz_j) = g^{ij} - g_inv_factor(i, j) z_i z_j
    for i in range(N_GEN):
        for j in range(N_GEN):
            want = AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j)))
            factor = g_inv_factor(i, j)
            if factor:
                want = want - (zs[i] * zs[j]).scale(Scalar.rational(factor))
            got = structures.metric.pair(tensor(free[i], free[j]))
            _expect(f"g_{tag}_inv[dz{i + 1},dz{j + 1}]", got, want)

    # nabla(dz_i) = -z_i sum nabla_coeff(i, k, l) dz_k (x) dz_l
    for i in range(N_GEN):
        want = qc.canon(_form_sum(p, lambda k, l: -nabla_coeff(i, k, l)).left_mul(zs[i]))
        _expect(f"nabla_{tag}[dz{i + 1}]", structures.connection.values[BasisWord((i,), None)], want)

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
        _expect(f"nabla_sp_{tag}[e{alpha + 1}]", got, qc.canon(want))
    return free, zs, gam_ab


def _golden_s3(h: HypersurfaceSpec, structures: StructureSet, matrices) -> None:
    p = h.quotient_presentation
    _, zs, gam_ab = _golden_families(
        h, structures, matrices, "B",
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
            _expect(f"gamma_B[dz{i + 1},e{alpha + 1}]", got, want)

    # D_B(e_a) = -(3/2) e_a
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        want = e_a.scale(Scalar.rational(Fraction(-3, 2)))
        _expect(f"D_B[e{alpha + 1}]", dirac(structures.spin, e_a), want)


def _golden_t2(h: HypersurfaceSpec, structures: StructureSet, matrices) -> None:
    p = h.quotient_presentation

    def sign(i: int) -> int:
        # (-1)^i for 1-based generator numbering
        return -1 if (i + 1) % 2 else 1

    free, zs, gam_ab = _golden_families(
        h, structures, matrices, "C",
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
        want = h.qcalc.canon(free[i]) + h.nu_q.left_mul(zs[i].scale(Scalar.rational(sign(i))))
        got = h.pi.images[BasisWord((i,), None)]
        _expect(f"pi_T2[dz{i + 1}]", got, want)

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
            _expect(f"gamma_C[dz{i + 1},e{alpha + 1}]", got, want)

    # composite gamma o nabla^sp and explicit Dirac formula agree on basis spinors
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        _expect(
            f"D_C_paths[e{alpha + 1}]",
            dirac(structures.spin, e_a),
            induced_dirac(h, e_a),
        )


def _induce(ambient: SpaceBundle, f: AlgebraElement, name: str, golden, check) -> SpaceBundle:
    """One induction step: hypersurface, certificate, verify_space (if check), golden forms.

    induced_structures refuses a failing certificate with HypersurfaceError.
    """
    h = build_hypersurface(ambient.structures, f, name=name)
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


def build_t2(check: bool = True, s3: SpaceBundle | None = None) -> SpaceBundle:
    """Iterate the induction: the torus as a hypersurface of the sphere.

    A prebuilt s3 bundle is used as the ambient space as it is; it is not
    verified again.
    """
    if s3 is None:
        s3 = build_s3(check=check)
    return _induce(s3, torus_level_function(s3.presentation), "t2", _golden_t2, check)


def build_space(name: str, check: bool = True) -> SpaceBundle:
    builders = {"r4": lambda: build_r4(), "s3": lambda: build_s3(check), "t2": lambda: build_t2(check)}
    if name not in builders:
        raise KeyError(f"unknown catalog space {name!r} (expected r4, s3 or t2)")
    return builders[name]()


# ---------------------------------------------------------------------------
# torus extras: the rotated Dirac operator
# ---------------------------------------------------------------------------


def dtilde_apply(t2: SpaceBundle, s: TensorElement) -> TensorElement:
    """The rotated torus Dirac operator D~ = gamma(nu~ (x) D_C(-)), by its definition.

    D_C = gamma_C o canon o nabla^sp, so D~(s) = Phi(canon(nabla^sp(s))) with
    Phi = t2.rotated_gamma; t2.rotated_dirac evaluates it as Phi of the
    projected basis values (once per bundle) times s's coefficients, plus
    Phi of the projected Leibniz term of s.

    Any hypersurface bundle is accepted: on s3 the same definition gives
    gamma(nu (x) D_B(s)), the flat Clifford action of the sphere's normal in
    r4 after the sphere's Dirac operator.  A bundle without a hypersurface
    (r4) has no normal, and is refused with ValueError.
    """
    if t2.hypersurface is None:
        raise ValueError(f"{t2.name} is not a hypersurface: the operator needs its normal")
    if s.degree != 0 or not s.has_spin:
        raise ValueError("operator acts on torus spinors")
    return t2.rotated_dirac(s)


def gamma_nu_tilde(t2: SpaceBundle, s: TensorElement) -> TensorElement:
    """One flat Clifford contraction against the torus normal form."""
    h = t2.hypersurface
    return t2.flat_gamma.apply_at(tensor(h.nu_q, s), 0)


def verify_space(bundle: SpaceBundle) -> Report:
    """Aggregate verification report for one catalog space."""
    s = bundle.structures
    report = Report(subject=bundle.name)
    report.clauses.extend(verify_metric(s.metric, s.connection).clauses)
    report.clauses.extend(verify_spinorial(s.spin, s.metric, s.connection).clauses)
    if bundle.hypersurface is not None:
        report.clauses.extend(bundle.hypersurface.certificate.clauses)
    return report
