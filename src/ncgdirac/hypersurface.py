"""Level-set noncommutative hypersurfaces and the induced geometric structures.

Given an ambient structure set and a central level function f, this module
builds the quotient presentation, the ambient structures converted to it
once (ambient_q), the normal form nu = df, the tangential projector and its
calculus, the assumption certificate (the one check of the calculus
premise), and the induced metric, connection, braiding, Clifford action, spin
connection and Dirac operator.  Every induced structure is read from those
three inputs: ambient_q, nu and the projector.

Quotient classes are represented inside the free module of the ambient
coordinates, with coefficients in the quotient presentation.  The metric, the
Clifford action and the spin connection are stored as projected
representatives, their images under the composed slot projector; the induced
connection keeps the Gauss formula's own, unprojected representative (see
_induced_connection).  Class equality is syntactic equality of the canon
images, and every reader projects before it compares.  Iterated hypersurfaces
reuse the machinery unchanged, with the previous quotient as the ambient space.
"""

from __future__ import annotations

from .algebra import AlgebraElement, Presentation, extend_presentation, is_central
from .geometry import Calculus, Connection, Metric, algebra_value, stored_residuals
from .reports import Report
from .scalars import HALF, Scalar
from .spin import SpinStructure, StructureSet, dirac
from .tensors import (
    SPINOR_RANK, BasisWord, LeftLinearMap, TensorElement, commutator_residuals, tensor, with_spinor,
)


class HypersurfaceError(ValueError):
    """Raised when the level-set data violates the hypersurface definition."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class AssumptionCertificate(Report):
    """Verified-assumption record gating the induction operations.

    The calculus premise, one clause family per assumption and the lemma corollaries:
    calculus, nu_transparency, pi_transparency, nabla_nu_transparency, corollaries.
    """

    __slots__ = ()

    def to_report(self, subject: str) -> Report:
        return Report(subject, list(self.clauses))


class HypersurfaceSpec:
    """A built level-set hypersurface with its assumption certificate, ready for induction.

    It is made from the paper's three inputs: the ambient structures
    (ambient, and ambient_q, the same structures with coefficients converted
    to the quotient presentation, on one calculus), the normal nu = df and
    the tangential projector pi.  The constructor derives, in this order,
    nu_commutators, the (label, nu z_j - z_j nu) of commutator_residuals(nu),
    nu_q and nabla_nu_q (nu and nabla(nu) converted), nabla_nu_nu,
    nabla(nu) (x) nu as the certificate's corollaries and _induced_spin read
    it, the calculus of pi, the certificate and pi_nabla_nu, (Pi (x) id)
    nabla(nu) as induced_dirac reads it; a spec built from changed fields
    gets those of its own data.  build_hypersurface hands over the
    commutators its nu_not_central refusal has computed (_derive), so a
    built spec computes them once.  The slots refuse any attribute beyond
    the eleven, and specs compare by identity.
    """

    __slots__ = (
        "ambient", "ambient_q", "nu", "pi", "nu_commutators", "nu_q", "nabla_nu_q", "nabla_nu_nu", "calculus",
        "certificate", "pi_nabla_nu",
    )

    def __init__(self, ambient: StructureSet, ambient_q: StructureSet, nu: TensorElement, pi: LeftLinearMap):
        self._derive(ambient, ambient_q, nu, pi, tuple(commutator_residuals(nu)))

    def _derive(self, ambient, ambient_q, nu, pi, nu_commutators: tuple) -> None:
        self.ambient = ambient
        self.ambient_q = ambient_q
        self.nu = nu
        self.pi = pi
        self.nu_commutators = nu_commutators
        quotient = ambient_q.presentation
        self.nu_q = nu.convert(quotient)
        self.nabla_nu_q = ambient.connection.apply(nu).convert(quotient)
        self.nabla_nu_nu = tensor(self.nabla_nu_q, self.nu_q)
        self.calculus = Calculus(quotient, pi)
        self.certificate = check_assumptions(self)
        self.pi_nabla_nu = pi.apply_at(self.nabla_nu_q, 0)

    @property
    def quotient_presentation(self) -> Presentation:
        return self.ambient_q.presentation

    def require_certificate(self):
        """The induction gate: refuse a certificate with failing clauses, naming them."""
        if not self.certificate.all_passed:
            failing = ", ".join(c.name for c in self.certificate.failures())
            raise HypersurfaceError(
                "certificate_failed",
                f"assumption certificate fails {failing}; induction refused",
            )


def build_hypersurface(ambient: StructureSet, f: AlgebraElement, name: str = "") -> HypersurfaceSpec:
    """Construct the quotient data for the level-set hypersurface of f, certified.

    Raises HypersurfaceError with kind "f_not_central", "nu_not_central" or
    "normalization" when the corresponding Definition clause fails.  A failing
    assumption certificate is recorded, not raised: induction refuses it.
    """
    p_amb = ambient.presentation
    if f.presentation != p_amb:
        raise ValueError("level function must live in the ambient presentation")
    if not is_central(f):
        raise HypersurfaceError("f_not_central", "level function is not central")

    quotient = extend_presentation(p_amb, f, name=name)

    nu = ambient.calculus.d(f)
    nu_commutators = tuple(commutator_residuals(nu))
    for label, residual in nu_commutators:
        if not residual.is_zero():
            raise HypersurfaceError("nu_not_central", f"nu*{label} != {label}*nu")

    norm = ambient.metric.pair(tensor(nu, nu)).convert(quotient)
    if not norm.is_one():
        raise HypersurfaceError(
            "normalization",
            f"[g^-1(nu (x) nu)] = {norm!r} != 1 in the quotient",
        )

    ambient_q = ambient.convert(quotient)
    nu_q = nu.convert(quotient)

    # tangential projector Pi(w) = w - g^-1(w (x) nu) nu on class representatives
    def tangential(w: BasisWord) -> TensorElement:
        b = ambient_q.metric.pair(tensor(TensorElement.basis(quotient, w.forms), nu_q))
        return ambient_q.calculus.basis[w.forms[0]] - nu_q.left_mul(b)

    pi = LeftLinearMap.on_free_words(quotient, (1, False), tangential)
    spec = HypersurfaceSpec.__new__(HypersurfaceSpec)
    spec._derive(ambient, ambient_q, nu, pi, nu_commutators)
    return spec


def _gamma2(h: HypersurfaceSpec, e: TensorElement) -> TensorElement:
    """Two ambient Clifford contractions on a degree-2 spinor-valued element."""
    gamma = h.ambient_q.spin.gamma
    out = gamma.apply_at(e, e.degree - 1)
    return gamma.apply_at(out, out.degree - 1)


def check_assumptions(h: HypersurfaceSpec) -> AssumptionCertificate:
    """Verify the calculus premise, the three induction assumptions and the lemma corollaries.

    calculus is the one report of the premise that every induced structure
    and both verifiers rest on: h.calculus.premise_failures, kept with the
    calculus; nu, Pi(nu); and nu,z{j}, nu z_j - z_j nu, so nu is central and
    Pi(a nu) = a Pi(nu) = 0.

    Assumption 1 lives at the ambient level; assumptions 2 and 3 are checked
    on quotient-coefficient representatives, with the class projections the
    statements require.  Residuals are recorded verbatim.  Each residual
    on an input form is a composite R stored once on the free words, and
    is one apply of R to b_i = basis[i] (of the ambient calculus for
    nu_transparency, of h.calculus otherwise) or, for pi_transparency, to
    the pair basis[i] (x) basis[j] of the converted ambient calculus.
    R(sum_k c_k dz_k) = sum_k c_k R(dz_k) is exact where R is left-linear,
    because the normal-form product is associative and distributive; so a
    map whose images on the free words all vanish is zero on every input,
    and geometry.stored_residuals records none of its residuals and builds
    none of its inputs (on s3 and t2, every map but the corollary pairings,
    so pi_transparency reads no pairs):

    - pi_transparency, sigma o (Pi at one slot) - (Pi at the other) o sigma,
      and the pairings g^-1(w (x) nu), are left-linear as they stand: Pi,
      sigma, g^-1 and canon are left-linear maps, and a fixed factor right
      of the input leaves its coefficients on the left.
    - nu_transparency, canon(sigma(w (x) nu) - nu (x) w) and
      canon(sigma(nu (x) w) - w (x) nu), and the pairings g^-1(nu (x) w):
      nu (x) c w = (nu c) (x) w = c nu (x) w needs nu central (the
      calculus family's nu,z{j}; nu_q is its image under the quotient
      homomorphism, so it is central too).
    - nabla_nu_transparency, Pi at slot 0 of canon(sigma_23 sigma_12(w (x)
      nabla(nu)) - nabla(nu) (x) w): nabla(nu) (x) c w = c nabla(nu) (x) w
      needs nabla(nu) central (the corollaries family's nabla_nu,z{j}).

    Both commutator sets are read before any family: nu's are the spec's
    nu_commutators, nabla(nu)'s are computed here (the corollaries clause
    nabla_nu,nu reads the spec's nabla_nu_nu).  A family whose premise fails
    is the one failing clause name[needs premise], with no residual
    (Report.unmet), and no stored map of it is built: nu_transparency and
    corollaries need calculus's nu,z{j}, and nabla_nu_transparency needs
    corollaries' nabla_nu,z{j}, which a corollaries family that was not
    evaluated does not establish.
    """
    amb, amb_q = h.ambient, h.ambient_q
    n = amb.presentation.n
    quotient = amb_q.presentation
    cert = AssumptionCertificate(subject=quotient.name or "assumptions")
    sigma_q = amb_q.connection.sigma
    nabla_nu = h.nabla_nu_q
    pbasis = h.calculus.basis
    nu_commutators = [(f"nu,{label}", r) for label, r in h.nu_commutators]
    nabla_nu_commutators = [(f"nabla_nu,{label}", r) for label, r in commutator_residuals(nabla_nu)]
    nu_central = all(r.is_zero() for _, r in nu_commutators)
    nabla_nu_central = nu_central and all(r.is_zero() for _, r in nabla_nu_commutators)

    def stored(p: Presentation, image) -> LeftLinearMap:
        # the composite image(dz_k) on the free 1-forms dz_k of p
        return LeftLinearMap.on_free_words(p, (1, False), lambda w: image(TensorElement.basis(p, w.forms)))

    def on_basis(basis):
        # the inputs b_i of a family on the 1-forms, keyed by i + 1
        return (((i + 1,), b) for i, b in enumerate(basis))

    def calculus_checks():
        yield from h.calculus.premise_failures
        yield "nu", h.pi.apply(h.nu_q)
        yield from nu_commutators

    def nu_checks():
        # assumption 1: sigma(w (x) nu) = nu (x) w and sigma(nu (x) w) = w (x) nu
        sigma_amb, acanon, nu = amb.connection.sigma, amb.calculus.canon, h.nu
        left = stored(amb.presentation, lambda w: acanon(sigma_amb.apply(tensor(w, nu)) - tensor(nu, w)))
        right = stored(amb.presentation, lambda w: acanon(sigma_amb.apply(tensor(nu, w)) - tensor(w, nu)))
        return stored_residuals(((left, "dz{},nu"), (right, "nu,dz{}")), lambda: on_basis(amb.calculus.basis))

    def pi_checks():
        # assumption 2: sigma interchanges (Pi (x) id) and (id (x) Pi) on q_! (x) q_!;
        # each side's difference sigma o (Pi at slot) - (Pi at the other slot) o sigma
        # is stored on the free pairs
        sides = []
        for slot, side in ((0, "left"), (1, "right")):
            def difference(w: BasisWord) -> TensorElement:
                b = TensorElement.basis(quotient, w.forms)
                return sigma_q.apply(h.pi.apply_at(b, slot)) - h.pi.apply_at(sigma_q.apply(b), 1 - slot)

            sides.append((LeftLinearMap.on_free_words(quotient, (2, False), difference), f"dz{{}},dz{{}},{side}"))

        def pairs():
            rows = amb_q.calculus.pairs
            return (((i + 1, j + 1), rows[i][j]) for i in range(n) for j in range(n))

        return stored_residuals(sides, pairs)

    def nabla_nu_checks():
        # assumption 3: sigma_23 sigma_12 (Pi(w) (x) nabla(nu)) = nabla(nu) (x) Pi(w)
        # as classes: the difference is projected, with Pi on its first slot
        def image(w: TensorElement) -> TensorElement:
            lhs = sigma_q.apply_at(sigma_q.apply_at(tensor(w, nabla_nu), 0), 1)
            return h.pi.apply_at(amb_q.calculus.canon(lhs - tensor(nabla_nu, w)), 0)

        return stored_residuals(((stored(quotient, image), "dz{}"),), lambda: on_basis(pbasis))

    def corollary_checks():
        # lemma corollaries and centrality of nabla(nu)
        g_inv, nu = amb_q.metric.g_inv, h.nu_q
        w_nu = stored(quotient, lambda w: g_inv.apply(tensor(w, nu)))
        nu_w = stored(quotient, lambda w: g_inv.apply(tensor(nu, w)))
        pairings = stored_residuals(((w_nu, "dz{},nu"), (nu_w, "nu,dz{}")), lambda: on_basis(pbasis))

        def checks():
            for label, r in pairings:
                yield label, algebra_value(r)
            # lemma item: [(id (x) g^-1)(nabla(nu) (x) nu)] vanishes as a quotient
            # 1-form class, so the residual is projected before testing
            c3 = g_inv.apply_at(h.nabla_nu_nu, 1)
            yield "nabla_nu,nu", h.pi.apply_at(amb_q.calculus.canon(c3), 0)
            yield from nabla_nu_commutators

        return checks()

    cert.family("calculus", calculus_checks())
    if nu_central:
        cert.family("nu_transparency", nu_checks())
    else:
        cert.unmet("nu_transparency", "calculus")
    cert.family("pi_transparency", pi_checks())
    if nabla_nu_central:
        cert.family("nabla_nu_transparency", nabla_nu_checks())
    else:
        cert.unmet("nabla_nu_transparency", "corollaries")
    if nu_central:
        cert.family("corollaries", corollary_checks())
    else:
        cert.unmet("corollaries", "calculus")
    return cert


def check_induction(h: HypersurfaceSpec, structures: StructureSet) -> Report:
    """The build-time family of one induction: D_paths.

    The composite gamma o nabla^sp of the induced structures against the
    explicit induced_dirac formula, on the basis spinors e1..e4.  No closed
    form enters it; the certificate holds the projector premise.
    """
    p = h.quotient_presentation
    report = Report(subject=p.name or "induction")

    def dirac_checks():
        for alpha in range(SPINOR_RANK):
            e_a = TensorElement.basis(p, (), alpha)
            yield f"e{alpha + 1}", dirac(structures.spin, e_a) - induced_dirac(h, e_a)

    report.family("D_paths", dirac_checks())
    return report


# ---------------------------------------------------------------------------
# induced structures
# ---------------------------------------------------------------------------


def _induced_metric(h: HypersurfaceSpec, qc: Calculus) -> Metric:
    metric = h.ambient_q.metric
    g_inv = LeftLinearMap.on_free_words(
        qc.presentation, (2, False), lambda w: metric.g_inv.apply(qc.canonical_input(w))
    )
    return Metric(qc.canon(metric.g_element), g_inv)


def _induced_connection(h: HypersurfaceSpec, qc: Calculus) -> Connection:
    """Gauss formula: nabla_B(w) = [nabla(w) - g^-1(w (x) nu) nabla(nu)].

    Each value is the formula's own representative, unprojected: on s3 it
    has 4 terms where canon of it has 20-25, and every later product (both
    tensor-product connections, right_leibniz, the next induction) pays for
    the size.  No result can change.  Two representatives of one class
    differ by an element of the normal submodule N spanned by nu (x) x and
    x (x) nu (on t2 also by the converted sphere normal), and:

    - nu is central (build_hypersurface refuses it otherwise, and the
      certificate's calculus family checks it on every spec), so N is
      closed under left and right multiplication;
    - sigma maps N into N (the nu_transparency family);
    - canon kills N: Pi(nu) = 0 (the certificate's calculus family, which
      the gate requires on every build) and Pi is left-linear;
    - every reader of Connection.values projects before it compares:
      Connection.apply is canon o raw_apply, the right_leibniz and both
      compatibility images end in canon, D~ (ContractedConnection) reads
      only the spin connection, through Phi, and Phi o canon = Phi, the
      next induction's Gauss formula stores a value read under the same
      rules, and the CLI and the goldens print and compare canon of each
      value.
    """
    quotient = qc.presentation
    amb_q = h.ambient_q
    values = {}
    for i in range(quotient.n):
        free = TensorElement.basis(quotient, (i,))
        b = amb_q.metric.pair(tensor(free, h.nu_q))
        values[BasisWord((i,), None)] = amb_q.connection.values[BasisWord((i,), None)] - h.nabla_nu_q.left_mul(b)
    # the braiding descends untouched; keeping the ambient single-word images
    # as the working representatives is exact (extensional maps are
    # class-correct at any representative) and much cheaper to apply
    return Connection(qc, values, amb_q.connection.sigma)


def _induced_spin(h: HypersurfaceSpec, qc: Calculus) -> SpinStructure:
    """Clifford action gamma_[2](Pi(w) (x) nu (x) s) and the spinorial Gauss formula.

    w (x) e_a -> gamma_[2](w (x) nu (x) e_a) is left-linear in w (nu and the
    spinor sit to its right as fixed factors, and gamma_[2] is left-linear),
    so it is stored once on the free dz_k (x) e_a, and each induced gamma
    image is one apply of it to b_i (x) e_a: exact, since
    gamma_[2](sum_k c_k dz_k (x) nu (x) e_a) = sum_k c_k gamma_[2](dz_k (x) nu (x) e_a).
    Its image on dz_k (x) e_a is gamma(dz_k (x) gamma(nu (x) e_a)), with
    gamma(nu (x) e_a) formed once per a: gamma_[2] first applies gamma at
    slot 1 of dz_k (x) nu (x) e_a, and apply_at twists each image
    coefficient left through the prefix dz_k exactly as tensor twists a
    coefficient of its right factor, so that is dz_k (x) gamma(nu (x) e_a).
    """
    quotient = qc.presentation
    ambient_gamma = h.ambient_q.spin.gamma
    gamma_nu = [ambient_gamma.apply(with_spinor(h.nu_q, alpha)) for alpha in range(SPINOR_RANK)]
    clifford_nu = LeftLinearMap.on_free_words(
        quotient,
        (1, True),
        lambda w: ambient_gamma.apply(tensor(TensorElement.basis(quotient, w.forms), gamma_nu[w.spin])),
    )
    gamma = LeftLinearMap.on_free_words(
        quotient, (1, True), lambda w: clifford_nu.apply(qc.canonical_input(w))
    )

    spin_values = {}
    for alpha in range(SPINOR_RANK):
        base = h.ambient_q.spin.spin_connection.values[BasisWord((), alpha)]
        correction = _gamma2(h, with_spinor(h.nabla_nu_nu, alpha)).scale(HALF)
        spin_values[BasisWord((), alpha)] = qc.canon(base + correction)
    spin_connection = Connection(qc, spin_values)
    return SpinStructure(qc, gamma, spin_connection)


def induced_structures(h: HypersurfaceSpec) -> StructureSet:
    """The induced metric, connection and spin structure on h.calculus, if the certificate passes."""
    h.require_certificate()
    qc = h.calculus
    return StructureSet(
        calculus=qc,
        metric=_induced_metric(h, qc),
        connection=_induced_connection(h, qc),
        spin=_induced_spin(h, qc),
    )


def induced_dirac(h: HypersurfaceSpec, spinor: TensorElement) -> TensorElement:
    """Induced Dirac operator by its explicit formula in ambient data.

    Evaluates
    -1/2 (gamma_[2] - gamma_[2] (sigma (x) id))(nu (x) nabla^sp(s))
    + 1/2 gamma_[2]((Pi (x) id) nabla(nu) (x) s)
    on ambient-level data at quotient coefficients, with the spinor-free
    (Pi (x) id) nabla(nu) kept on h (pi_nabla_nu).  gamma_[2] is additive,
    so the first term is one gamma_[2] of t - (sigma (x) id)(t), for
    t = nu (x) nabla^sp(s).  It equals the composite
    spin.dirac(_induced_spin(h, qc), s) = gamma o nabla^sp of the induced
    structures; check_induction compares the two on basis spinors.
    """
    h.require_certificate()
    if spinor.degree != 0 or not spinor.has_spin:
        raise ValueError("Dirac operator acts on spinors")
    minus_half = Scalar.rational(-1) * HALF
    amb_q = h.ambient_q
    t = tensor(h.nu_q, amb_q.spin.spin_connection.apply(spinor))
    term1 = _gamma2(h, t - amb_q.connection.sigma.apply_at(t, 0)).scale(minus_half)
    term2 = _gamma2(h, tensor(h.pi_nabla_nu, spinor)).scale(HALF)
    return term1 + term2
