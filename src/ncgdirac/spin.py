"""Spinorial layer: Clifford action, spin connections, Dirac operators, verifiers."""

from __future__ import annotations

from .algebra import AlgebraElement, Presentation
from .geometry import Calculus, Connection, Metric, tensor_connection
from .reports import Report
from .scalars import Scalar, _scalar
from .tensors import BasisWord, LeftLinearMap, TensorElement, TensorSum, all_basis_words, with_spinor

ScalarMatrix = tuple[tuple[Scalar, ...], ...]


def mat_mul(a: ScalarMatrix, b: ScalarMatrix) -> ScalarMatrix:
    """The product a b of square Scalar matrices, multiplying only nonzero entries.

    Entry (r, c) sums a[r][k] b[k][c] over the k where both factors are
    nonzero, in ascending k, term by term into one raw {q-exponent:
    GaussianRational} dict that drops a cancelled term; each entry is then
    one fresh Scalar, a zero one where no k contributes.  A torus sector
    has 8 nonzero entries of 16, so its square takes 16 products where the
    dense triple loop takes 64, and builds 16 Scalars.
    """
    n = len(a)
    b_rows = [[(c, y.terms.items()) for c, y in enumerate(row) if y.terms] for row in b]
    out = []
    for row in a:
        sums: list[dict] = [{} for _ in range(n)]
        for x, b_row in zip(row, b_rows):
            x_terms = x.terms.items()
            if x_terms:
                for c, y_terms in b_row:
                    s = sums[c]
                    for k1, g1 in x_terms:
                        for k2, g2 in y_terms:
                            k = k1 + k2
                            old = s.get(k)
                            if old is None:
                                s[k] = g1 * g2
                                continue
                            v = old + g1 * g2
                            if v.a or v.b:
                                s[k] = v
                            else:
                                del s[k]
        out.append(tuple(map(_scalar, sums)))
    return tuple(out)


class SpinStructure:
    """Clifford map and spin connection on the rank-SPINOR_RANK spinor module.

    The Clifford action is stored as a left-linear map on dz_i (x) e_alpha;
    for the flat ambient space its images come from constant Scalar matrices,
    while induced hypersurface actions have algebra-valued images.
    """

    __slots__ = ("calculus", "gamma", "spin_connection")

    def __init__(self, calculus: Calculus, gamma: LeftLinearMap, spin_connection: Connection):
        if gamma.domain != (1, True) or gamma.codomain != (0, True):
            raise ValueError("gamma must map dz_i (x) e_alpha to spinors")
        self.calculus = calculus
        self.gamma = gamma
        self.spin_connection = spin_connection


def matrix_act(matrix: ScalarMatrix, s: TensorElement) -> TensorElement:
    """Act with a constant matrix on the spinor slot of s; form slots are untouched."""
    out = TensorSum(s.presentation)
    for w, c in s.terms.items():
        for beta, row in enumerate(matrix):
            entry = row[w.spin]
            if not entry.is_zero():
                out.add_product(BasisWord(w.forms, beta), c, AlgebraElement.from_scalar(s.presentation, entry))
    return out.element(s.degree, True)


def gamma_from_matrices(
    calculus: Calculus, matrices: tuple[ScalarMatrix, ...]
) -> LeftLinearMap:
    """Clifford map with gamma(dz_i (x) e_alpha) = column alpha of matrix i."""
    p = calculus.presentation
    return LeftLinearMap.on_free_words(
        p, (1, True), lambda w: matrix_act(matrices[w.forms[0]], TensorElement.basis(p, (), w.spin))
    )


def gamma_apply(spin: SpinStructure, e: TensorElement) -> TensorElement:
    """Contract the innermost form index: one application of gamma."""
    if e.degree < 1 or not e.has_spin:
        raise ValueError("gamma needs at least one form slot and a spinor slot")
    return spin.gamma.apply_at(e, e.degree - 1)


def gamma_iterated(spin: SpinStructure, e: TensorElement) -> TensorElement:
    """gamma_[k]: contract all k form slots of e, down to a spinor."""
    out = e
    for _ in range(e.degree):
        out = gamma_apply(spin, out)
    return out


def dirac(spin: SpinStructure, spinor: TensorElement) -> TensorElement:
    """D = gamma o nabla^sp on a degree-0 spinor element."""
    if spinor.degree != 0 or not spinor.has_spin:
        raise ValueError("Dirac operator acts on spinors")
    return gamma_apply(spin, spin.spin_connection.apply(spinor))


def verify_spinorial(spin: SpinStructure, metric: Metric, conn: Connection) -> Report:
    """Check the Clifford relations and Clifford compatibility exactly.

    Both families are maps stored once per call on the free words, and
    each residual is one apply to its canonical input (Calculus.stored_family);
    R(sum_w c_w w) = sum_w c_w R(w) is exact where the residual is
    left-linear, because the normal-form product is associative and
    distributive, so a map whose images on the free words all vanish has
    every residual zero, and its family passes with no input built or
    applied (geometry.stored_residuals):

    - clifford_relations, R(w (x) e_a) = gamma_[2]((w + sigma(w)) (x) e_a)
      + 2 g^-1(w) e_a on the free dz_i (x) dz_j (x) e_a, applied to the pair
      with e_a appended to every word, is left-linear as it stands.
    - clifford_compatibility, canon(nabla^sp(gamma(x)) - gamma at slot 1 of
      nabla(x) on x) on the dz_k (x) e_a, applied to b_i (x) e_a, with
      nabla(x) the tensor-product connection: for x = sum_w c_w w, both
      terms carry the Leibniz term sum_w d(c_w) (x) gamma(w), so each image
      contracts nabla(x)'s stored value on w.  They cancel once canon makes
      d a derivation of the quotient, so the family needs the calculus
      premise (Calculus.premise_failures; the hypersurface's assumption
      certificate is the one place it is reported).
      When it fails, the family is the one clause
      clifford_compatibility[needs calculus], with no residual.
    """
    calc = spin.calculus
    p = calc.presentation
    report = Report(subject=(p.name or "spinorial"))
    two = Scalar.rational(2)

    # w + sigma(w) and 2 g^-1(w) on each free pair w, read for every e_a;
    # built on the free pair, so sigma braids pairs only
    parts = {}
    for pair in all_basis_words(p, 2):
        b = TensorElement.basis(p, pair.forms)
        parts[pair.forms] = (b + conn.sigma.apply(b), metric.g_inv.apply(b).scale(two))

    def clifford_image(w: BasisWord) -> TensorElement:
        sym, two_g = parts[w.forms]
        return gamma_iterated(spin, with_spinor(sym, w.spin)) + with_spinor(two_g, w.spin)

    report.family("clifford_relations", calc.stored_family((2, True), clifford_image))

    if calc.premise_failures:
        report.unmet("clifford_compatibility", "calculus")
        return report
    # nabla^sp(gamma(w)) minus gamma at slot 1 of nabla(x)(w), on the free w
    nabla = tensor_connection(conn, spin.spin_connection).values

    def compatibility_image(w: BasisWord) -> TensorElement:
        b = TensorElement.basis(p, w.forms, w.spin)
        return calc.canon(spin.spin_connection.raw_apply(gamma_apply(spin, b)) - gamma_apply(spin, nabla[w]))

    report.family("clifford_compatibility", calc.stored_family((1, True), compatibility_image))
    return report


class StructureSet:
    """The bundled geometric data of one space."""

    __slots__ = ("calculus", "metric", "connection", "spin")

    def __init__(self, calculus: Calculus, metric: Metric, connection: Connection, spin: SpinStructure):
        self.calculus = calculus
        self.metric = metric
        self.connection = connection
        self.spin = spin

    @property
    def presentation(self) -> Presentation:
        return self.calculus.presentation

    def convert(self, target: Presentation) -> StructureSet:
        """Every structure with coefficients converted to target, on one calculus of target."""
        projector = self.calculus.projector
        calc = Calculus(target, projector.convert(target) if projector else None)
        metric, conn, spin = self.metric, self.connection, self.spin
        spin_values = spin.spin_connection.value_map.convert(target)
        return StructureSet(
            calc,
            Metric(metric.g_element.convert(target), metric.g_inv.convert(target)),
            Connection(calc, conn.value_map.convert(target).images, conn.sigma.convert(target) if conn.sigma else None),
            SpinStructure(calc, spin.gamma.convert(target), Connection(calc, spin_values.images)),
        )
