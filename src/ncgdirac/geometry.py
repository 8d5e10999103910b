"""Riemannian layer: calculi, bimodule connections, metrics, and their verifiers.

A Calculus fixes the home of 1-forms for one space.  For an ambient space the
form module is free; for a hypersurface quotient it is the image of a slot
projector inside the free module, and canonical representatives are obtained
by reducing coefficients and projecting every form slot.  Equality of quotient
classes is equality of canonical representatives.
"""

from __future__ import annotations

from .algebra import AlgebraElement, Presentation
from .reports import Report
from .tensors import (
    BasisWord,
    LeftLinearMap,
    ShapeError,
    TensorElement,
    TensorSum,
    add_leibniz,
    all_basis_words,
    commutator_residuals,
    differential,
    right_linearity_residuals,
    right_mul,
    tensor,
)


class Calculus:
    """First-order differential calculus over a presented algebra.

    projector=None means the free module itself (ambient space); otherwise the
    projector's extensional images define the canonical embedding of quotient
    1-forms into the free module, applied to every form slot by canon().
    basis[i] is the canonical representative of the class of dz_i: the
    projector's stored image of dz_i, or dz_i itself.  pairs[i][j] is
    basis[i] (x) basis[j], the input of every pair residual; the n^2 pairs
    are made on first use and kept with the calculus, so the induced metric
    and both verifiers of one calculus share them.
    """

    __slots__ = ("presentation", "projector", "basis", "_pairs")

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

    @property
    def pairs(self) -> tuple[tuple[TensorElement, ...], ...]:
        if self._pairs is None:
            self._pairs = tuple(tuple(tensor(bi, bj) for bj in self.basis) for bi in self.basis)
        return self._pairs

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


class Connection:
    """Connection on a free-basis module, with optional braiding (bimodule case).

    Stored extensionally on basis words (dz_i for form connections, e_alpha for
    spin connections) and extended by the left Leibniz rule.  The keys share
    one shape and the values another; empty values are refused.
    """

    __slots__ = ("calculus", "values", "sigma", "sigma_inv")

    def __init__(
        self,
        calculus: Calculus,
        values: dict[BasisWord, TensorElement],
        sigma: LeftLinearMap | None = None,
        sigma_inv: LeftLinearMap | None = None,
    ):
        if (sigma is None) != (sigma_inv is None):
            raise ValueError("a braided connection needs both sigma and sigma_inv")
        shapes = {((len(w.forms), w.spin is not None), v.shape()) for w, v in values.items()}
        if not shapes:
            raise ValueError("a connection needs a value on at least one basis word")
        if len(shapes) > 1:
            raise ShapeError(f"basis words and values must each share one shape: {sorted(shapes)}")
        self.calculus = calculus
        self.values = dict(values)
        self.sigma = sigma
        self.sigma_inv = sigma_inv

    def apply(self, e: TensorElement) -> TensorElement:
        """The canonical representative canon(raw_apply(e))."""
        return self.calculus.canon(self.raw_apply(e))

    def raw_apply(self, e: TensorElement) -> TensorElement:
        """Left Leibniz extension nabla(c*w) = c*nabla(w) + d(c) (x) w, unprojected.

        canon is additive, so a verifier that compares two sides projects
        their difference once: canon(raw_apply(x) - y) = apply(x) - canon(y).
        """
        calc = self.calculus
        if e.presentation != calc.presentation:
            raise ValueError("presentation mismatch")
        sample = next(iter(self.values.values()))
        out = TensorSum(calc.presentation)
        for w, c in e.terms.items():
            value = self.values.get(w)
            if value is None:
                raise KeyError(f"connection has no value for basis word {w}")
            for w2, c2 in value.terms.items():
                out.add_product(w2, c, c2)
        add_leibniz(out, e.terms)
        return out.element(sample.degree, sample.has_spin)


def contracted_connection(conn: Connection, phi: LeftLinearMap):
    """x -> phi applied at the rightmost slots of conn.apply(x).

    conn.apply(x) is canon(sum_w c_w * value(w) + Leibniz term), and canon
    and phi are left-linear, so phi o canon is stored once on the basis words
    of the values' shape and runs once on each basis value (here) and once on
    the Leibniz term of each x, instead of on the expanded sum.
    """
    calc = conn.calculus
    p = calc.presentation
    w0, v0 = next(iter(conn.values.items()))
    degree, has_spin = v0.shape()
    at = degree - phi.domain[0]
    phi_canon = LeftLinearMap.on_free_words(
        p, v0.shape(), lambda w: phi.apply_at(calc.canon(TensorElement.basis(p, w.forms, w.spin)), at)
    )
    k = LeftLinearMap.on_free_words(
        p, (len(w0.forms), w0.spin is not None), lambda w: phi_canon.apply(conn.values[w])
    )

    def apply(x: TensorElement) -> TensorElement:
        leibniz = TensorSum(p)
        add_leibniz(leibniz, x.terms)
        return k.apply(x) + phi_canon.apply(leibniz.element(degree, has_spin))

    return apply


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
    these finite checks witness the full clauses.  metric_compatibility and
    right_leibniz compare unprojected sides and project their difference
    once (canon is additive); no value is projected a second time.

    Two families are left-linear in their input, so each is stored once per
    call on the free words and every residual is one apply: inverse_left is
    x -> canon(g^-1 at slot 0 of x (x) g(1)) on the dz_k, and symmetry is
    g^-1 o (sigma - id) on the free pairs, each image made by Metric.pair.
    inverse_right (g(1) (x) x puts x's coefficients to the right of g(1)'s),
    metric_compatibility (the Leibniz term of the connection and d) and
    right_leibniz are not left-linear in their input and are evaluated per
    residual.
    """
    calc = conn.calculus
    p = calc.presentation
    report = Report(subject=p.name or "metric")
    g1 = calc.canon(metric.g_element)
    basis, pairs = calc.basis, calc.pairs
    gens = [AlgebraElement.generator(p, j) for j in range(p.n)]

    report.family("g_central", commutator_residuals(g1))
    inverse_left = LeftLinearMap.on_free_words(
        p,
        (1, False),
        lambda w: calc.canon(metric.g_inv.apply_at(tensor(TensorElement.basis(p, w.forms), g1), 0)),
    )
    report.family(
        "inverse_left",
        ((f"dz{i + 1}", inverse_left.apply(basis[i]) - basis[i]) for i in range(p.n)),
    )
    report.family(
        "inverse_right",
        (
            (f"dz{i + 1}", calc.canon(metric.g_inv.apply_at(tensor(g1, basis[i]), 1)) - basis[i])
            for i in range(p.n)
        ),
    )

    def symmetry_image(w: BasisWord) -> TensorElement:
        b = TensorElement.basis(p, w.forms)
        return TensorElement.basis(p, (), None, metric.pair(conn.sigma.apply(b) - b))

    symmetry = LeftLinearMap.on_free_words(p, (2, False), symmetry_image)
    report.family(
        "symmetry",
        (
            (f"dz{i + 1},dz{j + 1}", algebra_value(symmetry.apply(pairs[i][j])))
            for i in range(p.n)
            for j in range(p.n)
        ),
    )

    def compatibility_checks():
        # (id (x) g^-1) nabla(x)(pair), with g^-1 applied to each basis value once
        contracted = contracted_connection(tensor_connection(conn, conn), metric.g_inv)
        for i in range(p.n):
            for j in range(p.n):
                pair = pairs[i][j]
                yield (
                    f"dz{i + 1},dz{j + 1}",
                    calc.canon(contracted(pair) - differential(metric.pair(pair))),
                )

    report.family("metric_compatibility", compatibility_checks())

    report.family("sigma_right_linear", right_linearity_residuals(conn.sigma))

    def inverse_checks():
        for w in all_basis_words(p, 2):
            base = TensorElement.basis(p, w.forms)
            got = conn.sigma_inv.apply(conn.sigma.apply(base))
            yield (repr(w), calc.canon(got - base))

    report.family("sigma_invertible", inverse_checks())

    def leibniz_checks():
        d_gens = [calc.d(zj) for zj in gens]
        for i in range(p.n):
            nabla_i = conn.apply(basis[i])
            for j, zj in enumerate(gens):
                lhs = conn.raw_apply(right_mul(basis[i], zj))
                rhs = right_mul(nabla_i, zj) + conn.sigma.apply(tensor(basis[i], d_gens[j]))
                yield (f"dz{i + 1},z{j + 1}", calc.canon(lhs - rhs))

    report.family("right_leibniz", leibniz_checks())
    return report
