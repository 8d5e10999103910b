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
from .geometry import Calculus, Connection, Metric, algebra_value
from .reports import Report
from .scalars import HALF, Scalar
from .spin import SpinStructure, StructureSet, dirac, gamma_iterated
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
    the tangential projector pi.  The constructor, the one way a spec is
    made, derives in this order nu_commutators, the (label, nu z_j - z_j nu)
    of commutator_residuals(nu), nu_q and nabla_nu_q (nu and nabla(nu)
    converted), nu_pairing, the map P(w) = g^-1(w (x) nu_q) stored on the
    free dz_k (_nu_pairing), the calculus of pi, the certificate and
    pi_nabla_nu, (Pi (x) id) nabla(nu) as induced_dirac reads it; a spec
    built from changed fields gets those of its own data.  P is the one
    pairing with the normal that the spec reads: the corollaries' {},nu
    image, the Gauss formula (_induced_connection) and build_hypersurface's
    normalization check.  The slots refuse any attribute beyond the eleven,
    and specs compare by identity.
    """

    __slots__ = (
        "ambient", "ambient_q", "nu", "pi", "nu_commutators", "nu_q", "nabla_nu_q", "nu_pairing", "calculus",
        "certificate", "pi_nabla_nu",
    )

    def __init__(self, ambient: StructureSet, ambient_q: StructureSet, nu: TensorElement, pi: LeftLinearMap):
        self.ambient = ambient
        self.ambient_q = ambient_q
        self.nu = nu
        self.pi = pi
        self.nu_commutators = tuple(commutator_residuals(nu))
        quotient = ambient_q.presentation
        self.nu_q = nu.convert(quotient)
        self.nabla_nu_q = ambient.connection.apply(nu).convert(quotient)
        self.nu_pairing = _nu_pairing(ambient_q, self.nu_q)
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


def _nu_pairing(ambient_q: StructureSet, nu_q: TensorElement) -> LeftLinearMap:
    """P(w) = g^-1(w (x) nu_q) with the converted ambient g^-1, stored on the free dz_k.

    P is left-linear: g^-1 is, and nu_q is a fixed factor right of the
    input, so a coefficient of w stays on the left.
    """
    p = ambient_q.presentation
    g_inv = ambient_q.metric.g_inv
    return LeftLinearMap.on_free_words(
        p, (1, False), lambda w: g_inv.apply(tensor(TensorElement.basis(p, w.forms), nu_q))
    )


def build_hypersurface(ambient: StructureSet, f: AlgebraElement, name: str = "") -> HypersurfaceSpec:
    """Construct the quotient data for the level-set hypersurface of f, certified.

    Builds the quotient, nu = df, ambient_q and the tangential projector
    Pi(w) = w - g^-1(w (x) nu) nu, whose pairing is a map made by
    _nu_pairing, and makes the spec with HypersurfaceSpec(ambient,
    ambient_q, nu, pi).  Raises HypersurfaceError with kind
    "f_not_central" before any of that, then from the spec's own fields
    "nu_not_central" (nu_commutators) and "normalization" (nu_pairing),
    when the corresponding Definition clause fails; a refused nu has had
    its spec and certificate built.  The normalization [g^-1(nu (x) nu)] is
    P(nu_q): P is left-linear and nu_q's coefficients sit on the left, so
    P(nu_q) = g^-1_q(nu_q (x) nu_q), and converting to the quotient is a
    ring homomorphism, so that is g^-1(nu (x) nu) converted.  A failing
    assumption certificate is recorded, not raised: induction refuses it.
    """
    p_amb = ambient.presentation
    if f.presentation != p_amb:
        raise ValueError("level function must live in the ambient presentation")
    if not is_central(f):
        raise HypersurfaceError("f_not_central", "level function is not central")

    quotient = extend_presentation(p_amb, f, name=name)
    nu = ambient.calculus.d(f)
    ambient_q = ambient.convert(quotient)
    nu_q = nu.convert(quotient)
    pairing = _nu_pairing(ambient_q, nu_q)

    # tangential projector Pi(w) = w - g^-1(w (x) nu) nu on class representatives
    def tangential(w: BasisWord) -> TensorElement:
        return ambient_q.calculus.basis[w.forms[0]] - nu_q.left_mul(algebra_value(pairing.images[w]))

    spec = HypersurfaceSpec(ambient, ambient_q, nu, LeftLinearMap.on_free_words(quotient, (1, False), tangential))
    for label, residual in spec.nu_commutators:
        if not residual.is_zero():
            raise HypersurfaceError("nu_not_central", f"nu*{label} != {label}*nu")
    norm = algebra_value(spec.nu_pairing.apply(spec.nu_q))
    if not norm.is_one():
        raise HypersurfaceError(
            "normalization",
            f"[g^-1(nu (x) nu)] = {norm!r} != 1 in the quotient",
        )
    return spec


def check_assumptions(h: HypersurfaceSpec) -> AssumptionCertificate:
    """Verify the calculus premise, the three induction assumptions and the lemma corollaries.

    calculus is the one report of the premise that every induced structure
    and both verifiers rest on: h.calculus.premise_failures, kept with the
    calculus; nu, Pi(nu); and nu,z{j}, nu z_j - z_j nu, so nu is central and
    Pi(a nu) = a Pi(nu) = 0.

    Assumption 1 lives at the ambient level; assumptions 2 and 3 are checked
    on quotient-coefficient representatives, with the class projections the
    statements require.  Residuals are recorded verbatim.  Each residual
    on an input form is a composite R stored once on the free words and
    evaluated by Calculus.stored_family of the calculus whose canonical
    inputs it reads: the ambient calculus's b_i for nu_transparency, the
    converted ambient's pairs b_i (x) b_j for pi_transparency, and
    h.calculus's b_i otherwise.  That is exact where R is left-linear, and
    a map whose images on the free words all vanish has no residual and
    builds no input (on s3 and t2, every map but the corollary pairings,
    so pi_transparency forms no pair):

    - pi_transparency, sigma o (Pi at one slot) - (Pi at the other) o sigma,
      and the pairings g^-1(w (x) nu), are left-linear as they stand: Pi,
      sigma, g^-1 and canon are left-linear maps, and a fixed factor right
      of the input leaves its coefficients on the left.  The {},nu pairing
      is the spec's nu_pairing, whose images the family stores as they are.
    - nu_transparency, canon(sigma(w (x) nu) - nu (x) w) and
      canon(sigma(nu (x) w) - w (x) nu), and the pairings g^-1(nu (x) w):
      nu (x) c w = (nu c) (x) w = c nu (x) w needs nu central (the
      calculus family's nu,z{j}; nu_q is its image under the quotient
      homomorphism, so it is central too).
    - nabla_nu_transparency, Pi at slot 0 of canon(sigma_23 sigma_12(w (x)
      nabla(nu)) - nabla(nu) (x) w): nabla(nu) (x) c w = c nabla(nu) (x) w
      needs nabla(nu) central (the corollaries family's nabla_nu,z{j}).

    Both commutator sets are read before any family: nu's are the spec's
    nu_commutators, nabla(nu)'s are computed here.  The corollaries clause
    nabla_nu,nu, the one reader of nabla(nu) (x) nu, forms it once per spec.
    A family whose premise fails is the one failing clause name[needs
    premise], with no residual (Report.unmet), and no stored map of it is
    built: nu_transparency and corollaries need calculus's nu,z{j}, and
    nabla_nu_transparency needs corollaries' nabla_nu,z{j}, which a
    corollaries family that was not evaluated does not establish.
    """
    amb, amb_q = h.ambient, h.ambient_q
    quotient = amb_q.presentation
    cert = AssumptionCertificate(subject=quotient.name or "assumptions")
    sigma_q = amb_q.connection.sigma
    nabla_nu = h.nabla_nu_q
    nu_commutators = [(f"nu,{label}", r) for label, r in h.nu_commutators]
    nabla_nu_commutators = [(f"nabla_nu,{label}", r) for label, r in commutator_residuals(nabla_nu)]
    nu_central = all(r.is_zero() for _, r in nu_commutators)
    nabla_nu_central = nu_central and all(r.is_zero() for _, r in nabla_nu_commutators)

    def calculus_checks():
        yield from h.calculus.premise_failures
        yield "nu", h.pi.apply(h.nu_q)
        yield from nu_commutators

    def nu_transparency(w: BasisWord, nu_right: bool) -> TensorElement:
        # assumption 1: sigma(w (x) nu) = nu (x) w and sigma(nu (x) w) = w (x) nu
        b = TensorElement.basis(amb.presentation, w.forms)
        w_nu, nu_w = tensor(b, h.nu), tensor(h.nu, b)
        lhs, rhs = (w_nu, nu_w) if nu_right else (nu_w, w_nu)
        return amb.calculus.canon(amb.connection.sigma.apply(lhs) - rhs)

    def pi_transparency(w: BasisWord, slot: int) -> TensorElement:
        # assumption 2: sigma interchanges (Pi (x) id) and (id (x) Pi) on q_! (x) q_!;
        # sigma o (Pi at slot) - (Pi at the other slot) o sigma on the free pair w
        b = TensorElement.basis(quotient, w.forms)
        return sigma_q.apply(h.pi.apply_at(b, slot)) - h.pi.apply_at(sigma_q.apply(b), 1 - slot)

    def nabla_nu_transparency(w: BasisWord) -> TensorElement:
        # assumption 3: sigma_23 sigma_12 (Pi(w) (x) nabla(nu)) = nabla(nu) (x) Pi(w)
        # as classes: the difference is projected, with Pi on its first slot
        b = TensorElement.basis(quotient, w.forms)
        lhs = sigma_q.apply_at(sigma_q.apply_at(tensor(b, nabla_nu), 0), 1)
        return h.pi.apply_at(amb_q.calculus.canon(lhs - tensor(nabla_nu, b)), 0)

    def corollary_checks():
        # lemma corollaries and centrality of nabla(nu)
        g_inv, nu = amb_q.metric.g_inv, h.nu_q

        def nu_left(w: BasisWord) -> TensorElement:
            return g_inv.apply(tensor(nu, TensorElement.basis(quotient, w.forms)))

        pairings = h.calculus.stored_family((1, False), (lambda w: h.nu_pairing.images[w], "{},nu"), (nu_left, "nu,{}"))

        def checks():
            for label, r in pairings:
                yield label, algebra_value(r)
            # lemma item: [(id (x) g^-1)(nabla(nu) (x) nu)] vanishes as a quotient
            # 1-form class, so the residual is projected before testing
            c3 = g_inv.apply_at(tensor(nabla_nu, nu), 1)
            yield "nabla_nu,nu", h.pi.apply_at(amb_q.calculus.canon(c3), 0)
            yield from nabla_nu_commutators

        return checks()

    cert.family("calculus", calculus_checks())
    if nu_central:
        nu_sides = ((lambda w: nu_transparency(w, True), "{},nu"), (lambda w: nu_transparency(w, False), "nu,{}"))
        cert.family("nu_transparency", amb.calculus.stored_family((1, False), *nu_sides))
    else:
        cert.unmet("nu_transparency", "calculus")
    pi_sides = ((lambda w: pi_transparency(w, 0), "{},left"), (lambda w: pi_transparency(w, 1), "{},right"))
    cert.family("pi_transparency", amb_q.calculus.stored_family((2, False), *pi_sides))
    if nabla_nu_central:
        cert.family("nabla_nu_transparency", h.calculus.stored_family((1, False), (nabla_nu_transparency, "{}")))
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
    """g(1) projected, and g^-1 stored on each free pair dz_i (x) dz_j as the ambient g^-1(b_i (x) b_j).

    Each image is one apply of the column map H_j(dz_k) = g^-1(dz_k (x) b_j),
    stored on the free dz_k, to b_i, so no pair b_i (x) b_j is formed.  That
    is exact: for b_i = sum_k pi_ik dz_k, the balanced tensor product gives
    b_i (x) b_j = sum_k pi_ik dz_k (x) b_j (tensor twists b_j's coefficients
    through dz_k, as apply_at twists an image through its prefix), and g^-1
    is left-linear, so g^-1(b_i (x) b_j) = sum_k pi_ik g^-1(dz_k (x) b_j),
    which is H_j(b_i).
    """
    quotient = qc.presentation
    g_inv = h.ambient_q.metric.g_inv
    columns = [
        LeftLinearMap.on_free_words(
            quotient, (1, False), lambda w, b=b: g_inv.apply(tensor(TensorElement.basis(quotient, w.forms), b))
        )
        for b in qc.basis
    ]
    induced = LeftLinearMap.on_free_words(
        quotient, (2, False), lambda w: columns[w.forms[1]].apply(qc.basis[w.forms[0]])
    )
    return Metric(qc.canon(h.ambient_q.metric.g_element), induced)


def _induced_connection(h: HypersurfaceSpec, qc: Calculus) -> Connection:
    """Gauss formula: nabla_B(w) = [nabla(w) - g^-1(w (x) nu) nabla(nu)].

    The pairing is the spec's nu_pairing P, read on each free dz_k: the
    value on dz_k is nabla(dz_k) - P(dz_k) nabla(nu), with P(dz_k)'s
    algebra value.  Each value is the formula's own representative,
    unprojected: on s3 it has 4 terms where canon of it has 20-25, and
    every later product (both tensor-product connections, right_leibniz,
    the next induction) pays for the size.  No result can change.  Two
    representatives of one class differ by an element of the normal
    submodule N spanned by nu (x) x and x (x) nu (on t2 also by the
    converted sphere normal), and:

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
    amb_q = h.ambient_q
    values = {
        w: amb_q.connection.values[w] - h.nabla_nu_q.left_mul(algebra_value(p_w))
        for w, p_w in h.nu_pairing.images.items()
    }
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

    The spin connection is the ambient one plus the Gauss correction
    1/2 gamma_[2](nabla(nu) (x) nu (x) e_a), projected.  By the same
    argument, (id (x) gamma)(X (x) Y) = X (x) gamma(Y) for the 2-form
    X = nabla(nu), so gamma_[2]'s first contraction, gamma at slot 2, gives
    nabla(nu) (x) gamma(nu (x) e_a): the correction is gamma at slot 1 of
    tensor(nabla(nu), gamma(nu (x) e_a)), with the gamma_nu formed above.
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
        correction = ambient_gamma.apply_at(tensor(h.nabla_nu_q, gamma_nu[alpha]), 1).scale(HALF)
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
    term1 = gamma_iterated(amb_q.spin, t - amb_q.connection.sigma.apply_at(t, 0)).scale(minus_half)
    term2 = gamma_iterated(amb_q.spin, tensor(h.pi_nabla_nu, spinor)).scale(HALF)
    return term1 + term2
