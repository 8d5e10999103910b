"""Built-in catalog: the flat embedding space, the 3-sphere, and the 2-torus.

build_r4 assembles the deformed flat space from its defining data; build_s3
and build_t2 run the hypersurface induction.  Every build passes the
certificate gate (its calculus family holds the projector premise) and runs
hypersurface.check_induction (the composite Dirac operator against its
explicit induced formula on the basis spinors); a checked build also runs verify_space.
None of these checks uses a closed form: the hard-coded closed forms of the
sphere and torus structures are an acceptance oracle of the test suite
(tests/closed_forms.py), not of the build.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from .algebra import AlgebraElement, Presentation, normal_form
from .geometry import Calculus, Connection, ContractedConnection, Metric, verify_metric
from .hypersurface import HypersurfaceSpec, build_hypersurface, check_induction, induced_structures
from .reports import Report
from .scalars import Scalar
from .spin import ScalarMatrix, SpinStructure, StructureSet, gamma_from_matrices, verify_spinorial
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
    """A build-time check of an induced space failed, or a closed form differs.

    The builds raise it for a failing verify_space or check_induction
    report; the test suite's closed-form comparisons raise it too.
    """

    def __init__(self, label: str, residual):
        super().__init__(f"check failed: {label}")
        self.label = label
        self.residual = residual


class SpaceBundle:
    """One catalog space: presentation, structures, and its hypersurface link.

    The data of the rotated torus operator (flat_gamma, rotated_gamma and
    its contraction with the spin connection, rotated_dirac) is derived
    once, on first use; the exact momentum sectors of the spectrum are kept
    in sector_store.
    """

    def __init__(
        self,
        name: str,
        structures: StructureSet,
        hypersurface: HypersurfaceSpec | None = None,
        base_matrices: tuple[ScalarMatrix, ...] | None = None,
    ):
        self.name = name
        self.structures = structures
        self.hypersurface = hypersurface
        self.base_matrices = base_matrices

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
        return gamma_from_matrices(self.presentation, self.base_matrices)

    @cached_property
    def rotated_gamma(self) -> LeftLinearMap:
        """Phi: dz_i (x) e_a -> flat_gamma(nu~ (x) gamma_C(dz_i (x) e_a)).

        nu~ is central, so Phi is left-linear and is stored on its 16 images.
        A bundle without a hypersurface (r4) has no normal, and is refused
        with ValueError.
        """
        if self.hypersurface is None:
            raise ValueError(f"{self.name} is not a hypersurface: the operator needs its normal")
        gamma = self.structures.spin.gamma
        return LeftLinearMap.on_free_words(
            self.presentation, gamma.domain, lambda w: gamma_nu_tilde(self, gamma.images[w])
        )

    @cached_property
    def rotated_dirac(self) -> ContractedConnection:
        """D~ = Phi o canon o nabla^sp, the engine's one ContractedConnection.

        dtilde_apply builds its image as an element; spectrum.exact_sector
        adds each sector column into a TensorSum (ContractedConnection.add_term)
        and reads the raw sums.
        """
        return ContractedConnection(self.structures.spin.spin_connection, self.rotated_gamma)

    @cached_property
    def sector_store(self) -> dict:
        """Certified sectors (immutable spectrum.SectorMatrix) by momentum (m, n).

        spectrum.sector_matrix fills it and hands out the stored sector
        itself; it holds at most spectrum.SECTOR_STORE_BOUND sectors.
        """
        return {}


def build_r4(classical: bool = False) -> SpaceBundle:
    """The flat quasi-commutative embedding space with its spinorial structure."""
    p = r4_presentation(classical)
    calc = Calculus(p, None)

    g_element = _form_sum(p, metric_lower)
    g_inv = LeftLinearMap.on_free_words(
        p, (2, False), lambda w: TensorElement.basis(p).scale(Scalar.rational(metric_upper(*w.forms)))
    )
    metric = Metric(g_element, g_inv)
    # sigma(dz_i (x) dz_j) = R[j][i] dz_j (x) dz_i
    sigma = LeftLinearMap.on_free_words(
        p, (2, False), lambda w: TensorElement.basis(p, w.forms[::-1]).scale(p.R[w.forms[1]][w.forms[0]])
    )
    conn_values = {
        BasisWord((i,), None): TensorElement.zero(p, 2, False) for i in range(N_GEN)
    }
    # sigma^-1(dz_j (x) dz_i) = R[i][j] dz_i (x) dz_j, which is sigma(dz_j (x) dz_i):
    # R[i][j] R[j][i] = 1 makes the braiding an involution, so it is stored once
    connection = Connection(calc, conn_values, sigma)

    matrices = gamma_theta_matrices(classical)
    gamma = gamma_from_matrices(p, matrices)
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
# build-time checks
# ---------------------------------------------------------------------------


def _refuse_failures(label: str, report: Report):
    if not report.all_passed:
        failing = ", ".join(c.name for c in report.failures())
        raise GoldenMismatch(f"{label}: {failing}", report.to_json())


def _induce(ambient: SpaceBundle, f: AlgebraElement, name: str, check: bool) -> SpaceBundle:
    """One induction step: hypersurface, certificate, verify_space (if check), build checks.

    induced_structures refuses a failing certificate, projector premise
    included, with HypersurfaceError.  Every build then runs check_induction,
    whose one family, D_paths, uses no closed form.  A failing report is refused with
    GoldenMismatch, naming every failing clause.
    """
    h = build_hypersurface(ambient.structures, f, name=name)
    bundle = SpaceBundle(name, induced_structures(h), h, ambient.base_matrices)
    if check:
        _refuse_failures(f"{name} verification", verify_space(bundle))
    _refuse_failures(f"{name} induction", check_induction(h, bundle.structures))
    return bundle


def build_s3(check: bool = True, r4: SpaceBundle | None = None) -> SpaceBundle:
    """Induce the sphere structures from the flat space.

    A prebuilt r4 bundle is used as the ambient space as it is; it is not
    verified again.
    """
    if r4 is None:
        r4 = build_r4()
    return _induce(r4, sphere_level_function(r4.presentation), "s3", check)


def build_t2(check: bool = True, s3: SpaceBundle | None = None) -> SpaceBundle:
    """Iterate the induction: the torus as a hypersurface of the sphere.

    A prebuilt s3 bundle is used as the ambient space as it is; it is not
    verified again.
    """
    if s3 is None:
        s3 = build_s3(check=check)
    return _induce(s3, torus_level_function(s3.presentation), "t2", check)


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
    (r4) has no normal, and is refused with ValueError (by rotated_gamma).
    """
    operator = t2.rotated_dirac
    if s.degree != 0 or not s.has_spin:
        raise ValueError("operator acts on torus spinors")
    return operator(s)


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
