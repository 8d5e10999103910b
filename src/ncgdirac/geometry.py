"""Riemannian layer: calculi, bimodule connections, metrics, and their verifiers.

A Calculus fixes the home of 1-forms for one space.  For an ambient space the
form module is free; for a hypersurface quotient it is the image of a slot
projector inside the free module, and canonical representatives are obtained
by reducing coefficients and projecting every form slot.  Equality of quotient
classes is equality of canonical representatives.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .algebra import AlgebraElement, Presentation, _accumulate
from .reports import Report
from .scalars import _GR_ONE, Scalar, _scalar
from .tensors import (
    BasisWord,
    LeftLinearMap,
    TensorElement,
    TensorSum,
    _derivative,
    _tuple_new,
    add_leibniz,
    all_basis_words,
    commutator_residuals,
    differential,
    right_linearity_residuals,
    right_mul,
    tensor,
    with_spinor,
)


class Calculus:
    """First-order differential calculus over a presented algebra.

    projector=None means the free module itself (ambient space); otherwise the
    projector's extensional images define the canonical embedding of quotient
    1-forms into the free module, applied to every form slot by canon().
    basis[i] is the canonical representative of the class of dz_i: the
    projector's stored image of dz_i, or dz_i itself.  pairs[i][j] is
    basis[i] (x) basis[j]; the n^2 pairs are made on first use and kept
    with the calculus, so the induced metric and both verifiers of one
    calculus share them, as they share premise_failures, which only a
    hypersurface's certificate reports.  canonical_input(w) is the input
    made of them for a free word w, and stored_family evaluates a stored
    map on every such input, or on none when its images all vanish.
    """

    __slots__ = ("presentation", "projector", "basis", "_pairs", "_premise")

    def __init__(self, presentation: Presentation, projector: LeftLinearMap | None = None):
        self.presentation = presentation
        if projector is not None:
            if projector.domain != (1, False) or projector.codomain != (1, False):
                raise ValueError("projector must map 1-forms to 1-forms")
        self.projector = projector
        words = [BasisWord((i,), None) for i in range(presentation.n)]
        if projector is None:
            self.basis = tuple(TensorElement.basis(presentation, w.forms) for w in words)
        else:
            self.basis = tuple(projector.images[w] for w in words)
        self._pairs = None
        self._premise = None

    @property
    def pairs(self) -> tuple[tuple[TensorElement, ...], ...]:
        if self._pairs is None:
            self._pairs = tuple(tuple(tensor(bi, bj) for bj in self.basis) for bi in self.basis)
        return self._pairs

    def canonical_input(self, w: BasisWord) -> TensorElement:
        """b_i1 (x) ... (x) b_ik [(x) e_a] for the free word dz_i1 (x) ... (x) dz_ik [(x) e_a], k >= 1."""
        forms = w.forms
        x = self.basis[forms[0]] if len(forms) == 1 else self.pairs[forms[0]][forms[1]]
        for i in forms[2:]:
            x = tensor(x, self.basis[i])
        return x if w.spin is None else with_spinor(x, w.spin)

    def stored_family(self, domain: tuple[int, bool], image: Callable[[BasisWord], TensorElement]):
        """(label, R(x)) for each free word w of domain, x its canonical input, in all_basis_words order.

        R is stored with image(w) on every free word w and evaluated by
        stored_residuals: nothing when every image is zero, else one apply
        of R per residual; the label of dz_i (x) dz_j (x) e_a is
        dz{i},dz{j},e{a}.  R(x) is x's residual where the residual is
        left-linear in x (see verify_metric).
        """
        p = self.presentation
        stored = LeftLinearMap.on_free_words(p, domain, image)
        return stored_residuals(
            ((stored, "{}"),),
            lambda: (((repr(w).replace("(x)", ","),), self.canonical_input(w)) for w in all_basis_words(p, *domain)),
        )

    @property
    def premise_failures(self) -> tuple[tuple[str, TensorElement], ...]:
        """The failing (label, residual) pairs of the calculus premise; () when it holds.

        The premise under which the stored families of verify_metric and
        verify_spinorial equal their residuals (see check_assumptions):

        - dz{i}: Pi(b_i) - b_i, so Pi o Pi = Pi.  Pi is left-linear, so for a
          1-form x = sum_k a_k dz_k, Pi(Pi(x)) - Pi(x) = sum_k a_k (Pi(b_k) - b_k).
        - dz{k},z{j}: Pi(dz_k z_j) - Pi(dz_k) z_j, so Pi is right-linear: by
          left-linearity on every 1-form, and on every product of generators
          one generator at a time.
        - d(z^l): canon(d(z^l - r)) for each rewriting rule z^l -> r, with
          z^l - r differentiated unreduced.  Rewriting a product ab replaces
          some c z^l by c r, so d(ab) - d(a) b - a d(b) is a sum of left
          multiples c d(z^l - r) and of terms with the factor z^l - r, which
          reduce to zero; canon o d is then a derivation of the quotient.

        canon projects every form slot, so it is idempotent and right-linear
        on every degree with Pi.  The last set is not implied by the others:
        id - Pi of the sphere or the torus is idempotent and right-linear,
        and does not kill d(z^l - r).
        Empty for the free module; checked on first use and kept.
        """
        if self._premise is None:
            self._premise = () if self.projector is None else tuple(
                (label, r) for label, r in self._premise_residuals() if not r.is_zero()
            )
        return self._premise

    def _premise_residuals(self):
        p = self.presentation
        for i, b in enumerate(self.basis):
            yield f"dz{i + 1}", self.projector.apply(b) - b
        yield from right_linearity_residuals(self.projector)
        for rule in p.rules:
            relation = AlgebraElement(p, {rule.lhs: Scalar.one(), **{m: -c for m, c in rule.rhs.items()}})
            yield f"d({AlgebraElement(p, {rule.lhs: Scalar.one()})!r})", self.canon(differential(relation))

    def canon(self, e: TensorElement) -> TensorElement:
        """Canonical representative: project every form slot (spinor untouched)."""
        if self.projector is None:
            return e
        out = e
        for slot in range(e.degree):
            out = self.projector.apply_at(out, slot)
        return out

    def d(self, a: AlgebraElement) -> TensorElement:
        return self.canon(differential(a))


def stored_residuals(
    maps: Iterable[tuple[LeftLinearMap, str]], inputs: Callable[[], Iterable[tuple[tuple, TensorElement]]]
):
    """(label.format(*key), R(x)) for each (key, x) of inputs() and each (R, label) of maps, key outer.

    The one rule of every stored family: a map R whose images on the free
    words are all zero gives R(x) = sum_w c_w R(w) = 0 on every input x =
    sum_w c_w w, so its residuals are zero without an apply, and it yields
    none.  When every map vanishes, inputs is not called, so no input is
    built, and Report.family records the family's one passing clause.
    Otherwise the inputs are made before anything is yielded, and each
    residual of a map with a nonzero image is one apply of it.
    """
    live = [(m, label) for m, label in maps if any(img.terms for img in m.images.values())]
    if not live:
        return ()
    xs = list(inputs())
    return ((label.format(*key), m.apply(x)) for key, x in xs for m, label in live)


class Connection:
    """Connection on a free-basis module, with optional braiding (bimodule case).

    Its values on basis words (dz_i for form connections, e_alpha for spin
    connections) are kept as one LeftLinearMap, value_map (values reads its
    images), and extended by the left Leibniz rule.  The map's constructor
    refuses keys or values of more than one shape; empty values are
    refused here.  On a projected calculus a value may be any
    representative of its class (the induced connection keeps the Gauss
    formula's): every reader projects before it compares, as apply does,
    and canon kills the difference of two representatives (see
    hypersurface._induced_connection).  The braiding sigma, a map of
    2-forms, is stored once: every braiding of the engine is its own
    inverse (see verify_metric's sigma_invertible).
    """

    __slots__ = ("calculus", "value_map", "sigma")

    def __init__(
        self, calculus: Calculus, values: dict[BasisWord, TensorElement], sigma: LeftLinearMap | None = None
    ):
        if sigma is not None:
            if sigma.domain != (2, False) or sigma.codomain != (2, False):
                raise ValueError("sigma must map 2-forms to 2-forms")
        if not values:
            raise ValueError("a connection needs a value on at least one basis word")
        w0, v0 = next(iter(values.items()))
        domain = (len(w0.forms), w0.spin is not None)
        self.calculus = calculus
        self.value_map = LeftLinearMap(calculus.presentation, domain, v0.shape(), values)
        self.sigma = sigma

    @property
    def values(self) -> dict[BasisWord, TensorElement]:
        """The stored value of each basis word: value_map's images."""
        return self.value_map.images

    def apply(self, e: TensorElement) -> TensorElement:
        """The canonical representative canon(raw_apply(e))."""
        return self.calculus.canon(self.raw_apply(e))

    def raw_apply(self, e: TensorElement) -> TensorElement:
        """Left Leibniz extension nabla(c*w) = c*nabla(w) + d(c) (x) w, unprojected.

        The first sum is value_map applied over the whole word of e.  canon
        is additive, so a verifier that compares two sides projects their
        difference once: canon(raw_apply(x) - y) = apply(x) - canon(y).
        """
        m = self.value_map
        degree, has_spin, whole = m._window(e, 0)
        m._check_domain(e)
        out = TensorSum(m.presentation)
        m._accumulate_at(out.words, e, 0, whole)
        add_leibniz(out, e.terms)
        return out.element(degree, has_spin)


class ContractedConnection:
    """K(x) = phi(conn.apply(x)), stored on basis words.

    conn.apply(x) is canon(sum_w c_w * value(w) + Leibniz term), and phi
    is left-linear; phi is taken with phi o canon = phi, so k = phi o value
    is stored on the basis words of conn, and K(c w) = c * k(w) + phi(d(c)
    (x) w).  A phi whose domain is not the values' shape is refused with
    ShapeError.  add_term adds that sum into the raw maps of a TensorSum:
    each monomial's derivative terms (tensors._derivative) multiply the
    images of phi directly, so no element is built for the Leibniz term.
    Calling K on x adds every term of x into one TensorSum and builds one
    element.  The torus operator D~ (SpaceBundle.rotated_dirac) is its one
    engine user, with phi = Phi: gamma is stored as gamma_C(b_i (x) e_a),
    so gamma o canon = gamma, and Phi o canon = Phi, once Pi(b_i) = b_i,
    the certificate's calculus[dz{i}] clause, which every build requires.
    """

    __slots__ = ("presentation", "k", "phi")

    def __init__(self, conn: Connection, phi: LeftLinearMap):
        p = conn.calculus.presentation
        self.presentation = p
        self.phi = phi
        self.k = LeftLinearMap.on_free_words(p, conn.value_map.domain, lambda w: phi.apply(conn.values[w]))

    def __call__(self, x: TensorElement) -> TensorElement:
        k = self.k
        k._check_domain(x)
        k._window(x, 0)
        out = TensorSum(self.presentation)
        for w, c in x.terms.items():
            self.add_term(out, w, c.terms)
        return out.element(*k.codomain)

    def add_term(self, out: TensorSum, w: BasisWord, coeff: dict) -> None:
        """Add K(c w) to out for the coefficient c with terms coeff, a basis word w of k's domain."""
        p = self.presentation
        words = out.words
        for w2, c2 in self.k.images[w].terms.items():
            _accumulate(words.setdefault(w2, {}), p, coeff, c2.terms)
        images = self.phi.images
        for mono, s in coeff.items():
            for g, ((rem, kp, gp),) in _derivative(p, mono):
                # s times the one derivative term of z^mono under dz_g
                left = {rem: _scalar({k + kp: c if gp is _GR_ONE else c * gp for k, c in s.terms.items()})}
                for w2, c2 in images[_tuple_new(BasisWord, ((g,) + w.forms, w.spin))].terms.items():
                    _accumulate(words.setdefault(w2, {}), p, left, c2.terms)


class Metric:
    """Generalized metric: central element g(1) plus extensional inverse pairing."""

    __slots__ = ("g_element", "g_inv")

    def __init__(self, g_element: TensorElement, g_inv: LeftLinearMap):
        if g_element.shape() != (2, False):
            raise ValueError("g(1) must be a degree-2 form element")
        if g_inv.domain != (2, False) or g_inv.codomain != (0, False):
            raise ValueError("inverse metric must pair two 1-forms to the algebra")
        self.g_element = g_element
        self.g_inv = g_inv

    def pair(self, e: TensorElement) -> AlgebraElement:
        """Evaluate g^{-1} on a degree-2 element, returning the algebra value."""
        return algebra_value(self.g_inv.apply(e))


def algebra_value(e: TensorElement) -> AlgebraElement:
    """The algebra value of a degree-0 spinor-free element.

    Its only basis word is the empty one, under which a map's apply has
    accumulated every summand.
    """
    return e.terms.get(BasisWord((), None), AlgebraElement.zero(e.presentation))


def tensor_connection(conn_v: Connection, conn_e: Connection) -> Connection:
    """Tensor-product connection on Omega^1 (x) E, built on its basis words once.

    nabla(x)(dz_i (x) w) = nabla_V(dz_i) (x) w + (sigma (x) id)(dz_i (x) nabla_E(w))
    for every basis word w of conn_e; Connection.apply adds the Leibniz term
    for left coefficients.  The calculus is free (no projector), so apply
    returns an unprojected class representative: every caller contracts it
    with an extensional (class-correct) map and projects afterwards.
    """
    if conn_v.sigma is None:
        raise ValueError("left factor connection must carry a braiding")
    p = conn_v.calculus.presentation
    values = {}
    for i in range(p.n):
        dz_i = TensorElement.basis(p, (i,))
        nabla_dz_i = conn_v.values[BasisWord((i,), None)]
        for w, nabla_w in conn_e.values.items():
            term1 = tensor(nabla_dz_i, TensorElement.basis(p, w.forms, w.spin))
            term2 = conn_v.sigma.apply_at(tensor(dz_i, nabla_w), 0)
            values[BasisWord((i,) + w.forms, w.spin)] = term1 + term2
    return Connection(Calculus(p), values)


def tensor_connection_apply(conn_v: Connection, conn_e: Connection, e: TensorElement) -> TensorElement:
    """The tensor-product connection (see tensor_connection) applied to one element.

    It builds the connection's basis values on every call; to evaluate many
    elements, build tensor_connection once and apply it to each.
    """
    if e.presentation != conn_v.calculus.presentation:
        raise ValueError("presentation mismatch")
    return tensor_connection(conn_v, conn_e).apply(e)


def verify_metric(metric: Metric, conn: Connection) -> Report:
    """Check every Riemannian-structure clause exactly, on generating elements.

    All maps involved are left-linear or Leibniz over generating sets, so
    these finite checks witness the full clauses.  The calculus premise is
    reported only by the hypersurface's certificate; this report reads it.

    Every family but g_central, sigma_right_linear and sigma_invertible is a
    map R stored once per call on the free words, evaluated by
    stored_residuals (all but right_leibniz through Calculus.stored_family):
    each residual is one apply of R to its canonical input x = sum_w c_w w
    (b_i or pairs[i][j]), and where every image R(w) is zero the family
    passes with no input built, since R(x) = sum_w c_w * 0 = 0.  R(x) is
    x's residual when the residual is left-linear in x:

    - inverse_left, canon(g^-1 at slot 0 of w (x) g(1)) - w, and symmetry,
      g^-1((sigma - id)(w)) by Metric.pair, are left-linear as they stand.
    - inverse_right, canon(g^-1 at slot 1 of g(1) (x) w) - w, is left-linear
      when g(1) c = c g(1) for every coefficient c: it needs g_central.
    - metric_compatibility, canon(g^-1 at slot 1 of nabla(x) on x, minus
      d(g^-1(x))) for the tensor-product connection nabla(x): both carry the
      Leibniz term sum_w d(c_w) g^-1(w); each image reads nabla(x)'s value on w.
    - right_leibniz, canon(nabla(x z_j) - nabla(x) z_j - sigma(x (x) d z_j))
      per z_j: nabla(x z_j) and nabla(x) z_j carry the same Leibniz term
      sum_w d(c_w) (x) w z_j once canon(canon(y) z_j) = canon(y z_j), so
      each image multiplies the unprojected nabla(w) by z_j.

    Both cancellations need canon o d to be a derivation of the quotient,
    and the last one canon idempotent and right-linear: the calculus
    premise.  A family whose premise failed is the one failing clause
    name[needs premise], with no residual (Report.unmet).  Each residual is
    projected once, in the images.

    sigma_invertible is canon(sigma(sigma(w)) - w) on the free pairs w:
    sigma is invertible because it is its own inverse.  The flat braiding
    is sigma(dz_i (x) dz_j) = R[j][i] dz_j (x) dz_i, Presentation enforces
    R[i][j] R[j][i] = 1, and each induced braiding is that sigma descended
    unchanged, so sigma o sigma = id is what the family checks.
    """
    calc = conn.calculus
    p = calc.presentation
    report = Report(subject=p.name or "metric")
    g1 = calc.canon(metric.g_element)
    basis = calc.basis
    gens = [AlgebraElement.generator(p, j) for j in range(p.n)]

    def inverse_image(w: BasisWord, at: int) -> TensorElement:
        # canon(g^-1 at slot at of w (x) g(1) or g(1) (x) w) - w
        b = TensorElement.basis(p, w.forms)
        return calc.canon(metric.g_inv.apply_at(tensor(b, g1) if at == 0 else tensor(g1, b), at)) - b

    g_central = report.family("g_central", commutator_residuals(g1))
    report.family("inverse_left", calc.stored_family((1, False), lambda w: inverse_image(w, 0)))
    if g_central:
        report.family("inverse_right", calc.stored_family((1, False), lambda w: inverse_image(w, 1)))
    else:
        report.unmet("inverse_right", "g_central")

    def symmetry_image(w: BasisWord) -> TensorElement:
        b = TensorElement.basis(p, w.forms)
        return TensorElement.basis(p, (), None, metric.pair(conn.sigma.apply(b) - b))

    report.family(
        "symmetry",
        ((label, algebra_value(r)) for label, r in calc.stored_family((2, False), symmetry_image)),
    )

    calculus_holds = not calc.premise_failures
    if calculus_holds:
        # g^-1 at slot 1 of nabla(x)(w), minus d(g^-1(w)), on the free pair w
        nabla = tensor_connection(conn, conn).values

        def compatibility_image(w: BasisWord) -> TensorElement:
            b = TensorElement.basis(p, w.forms)
            return calc.canon(metric.g_inv.apply_at(nabla[w], 1) - differential(metric.pair(b)))

        report.family("metric_compatibility", calc.stored_family((2, False), compatibility_image))
    else:
        report.unmet("metric_compatibility", "calculus")

    report.family("sigma_right_linear", right_linearity_residuals(conn.sigma))

    def inverse_checks():
        for w in all_basis_words(p, 2):
            base = TensorElement.basis(p, w.forms)
            yield (repr(w), calc.canon(conn.sigma.apply(conn.sigma.apply(base)) - base))

    report.family("sigma_invertible", inverse_checks())

    if calculus_holds:
        # the unprojected nabla(w) on each free 1-form w, read by every z_j's map
        free = {w: TensorElement.basis(p, w.forms) for w in all_basis_words(p, 1)}
        raw = {w: conn.raw_apply(b) for w, b in free.items()}

        def leibniz(zj: AlgebraElement) -> LeftLinearMap:
            d_zj = calc.d(zj)

            def image(w: BasisWord) -> TensorElement:
                b = free[w]
                lhs = conn.raw_apply(right_mul(b, zj))
                rhs = right_mul(raw[w], zj) + conn.sigma.apply(tensor(b, d_zj))
                return calc.canon(lhs - rhs)

            return LeftLinearMap.on_free_words(p, (1, False), image)

        report.family(
            "right_leibniz",
            stored_residuals(
                [(leibniz(zj), f"dz{{}},z{j + 1}") for j, zj in enumerate(gens)],
                lambda: (((i + 1,), b) for i, b in enumerate(basis)),
            ),
        )
    else:
        report.unmet("right_leibniz", "calculus")
    return report
