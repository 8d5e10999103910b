import random

import pytest

from ncgdirac.algebra import AlgebraElement, normal_form
from ncgdirac.catalog import sphere_level_function
from ncgdirac.geometry import (
    Connection,
    ContractedConnection,
    Metric,
    tensor_connection,
    tensor_connection_apply,
    verify_metric,
)
from ncgdirac.scalars import Scalar
from ncgdirac.spin import verify_spinorial
from ncgdirac.tensors import (
    BasisWord, LeftLinearMap, ShapeError, TensorElement, all_basis_words, differential, tensor, with_spinor,
)


def dz(p, *indices):
    return TensorElement.basis(p, tuple(indices))


def test_r4_metric_suite_passes(r4):
    s = r4.structures
    report = verify_metric(s.metric, s.connection)
    assert report.all_passed, [c.name for c in report.failures()]


def test_s3_metric_suite_passes(s3):
    s = s3.structures
    report = verify_metric(s.metric, s.connection)
    assert report.all_passed, [c.name for c in report.failures()]


def test_perturbed_metric_fails_inverse_condition(r4):
    s = r4.structures
    p = r4.presentation
    # double the dz1 (x) dz3 component of g(1)
    terms = dict(s.metric.g_element.terms)
    key = BasisWord((0, 2), None)
    terms[key] = terms[key].scale(Scalar.rational(2))
    bad = Metric(TensorElement(p, 2, False, terms), s.metric.g_inv)
    report = verify_metric(bad, s.connection)
    failing = {c.name for c in report.failures()}
    assert any(name.startswith("inverse_") for name in failing)
    residuals = [c.residual for c in report.failures() if c.residual is not None]
    assert residuals, "failures must carry their residual elements"


def test_non_right_linear_braiding_reports_residual(r4):
    s = r4.structures
    p = r4.presentation
    # sigma(dz1 (x) dz1) = z1 dz1 (x) dz1 does not commute with right
    # multiplication by z2, since z2 z1 = q^4 z1 z2
    images = dict(s.connection.sigma.images)
    key = BasisWord((0, 0), None)
    images[key] = images[key].left_mul(AlgebraElement.generator(p, 0))
    sigma = LeftLinearMap(p, (2, False), (2, False), images)
    conn = Connection(s.calculus, s.connection.values, sigma)
    report = verify_metric(s.metric, conn)
    failing = [c for c in report.failures() if c.name.startswith("sigma_right_linear[")]
    assert failing
    assert all(c.residual is not None for c in failing)


def test_connection_refuses_a_value_of_another_shape(r4):
    # nabla(dz2) replaced by the 1-form dz2: raw_apply would return a 2-form
    # holding the one-letter word dz2
    conn = r4.structures.connection
    values = {**conn.values, BasisWord((1,), None): dz(r4.presentation, 1)}
    with pytest.raises(ShapeError, match="image of dz2 does not fit codomain"):
        Connection(conn.calculus, values, conn.sigma)


def test_connection_refuses_a_basis_word_of_another_shape(r4):
    conn = r4.structures.connection
    values = {**conn.values, BasisWord((), 0): TensorElement.zero(r4.presentation, 2)}
    with pytest.raises(ShapeError, match="image key e1 does not fit domain"):
        Connection(conn.calculus, values, conn.sigma)


def test_canonical_input_is_a_tensor_of_canonical_basis_forms(s3):
    calc = s3.structures.calculus
    b = calc.basis
    assert calc.canonical_input(BasisWord((2,), None)) == b[2]
    assert calc.canonical_input(BasisWord((0, 3), 1)) == with_spinor(tensor(b[0], b[3]), 1)
    assert calc.canonical_input(BasisWord((1, 0, 2), None)) == tensor(tensor(b[1], b[0]), b[2])


def test_connection_apply_refuses_an_element_of_another_shape(r4, s3):
    # the values are one stored map, which checks its input's shape and
    # presentation before any word is looked up
    s = r4.structures
    p = r4.presentation
    for conn, e in (
        (s.connection, tensor(dz(p, 0), dz(p, 1))),
        (s.connection, TensorElement.basis(p, (0,), 2)),
        (s.spin.spin_connection, dz(p, 0)),
    ):
        with pytest.raises(ShapeError):
            conn.apply(e)
    with pytest.raises(ValueError, match="presentation mismatch"):
        s.connection.apply(dz(s3.presentation, 0))


def test_connection_refuses_empty_values(r4):
    with pytest.raises(ValueError, match="at least one basis word") as refused:
        Connection(r4.structures.calculus, {})
    assert type(refused.value) is ValueError


def test_connection_refuses_a_braiding_of_another_shape(r4):
    # a map of 2-forms to the algebra is not a braiding: verify_metric would
    # fail deep inside with ShapeError
    conn = r4.structures.connection
    p = r4.presentation
    identity_1 = LeftLinearMap.on_free_words(p, (1, False), lambda w: TensorElement.basis(p, w.forms))
    for sigma in (r4.structures.metric.g_inv, identity_1):
        with pytest.raises(ValueError, match="sigma must map 2-forms to 2-forms") as refused:
            Connection(conn.calculus, conn.values, sigma)
        assert type(refused.value) is ValueError


def test_flat_connection_values(r4):
    s = r4.structures
    p = r4.presentation
    assert s.connection.apply(dz(p, 0)).is_zero()
    got = s.connection.apply(dz(p, 1).left_mul(AlgebraElement.generator(p, 0)))
    assert got == tensor(dz(p, 0), dz(p, 1))


def test_nabla_of_nu_is_metric_element(r4):
    s = r4.structures
    f = sphere_level_function(r4.presentation)
    nu = s.calculus.d(f)
    assert s.connection.apply(nu) == s.metric.g_element


def test_sigma_fixes_metric_element(r4):
    s = r4.structures
    assert s.connection.sigma.apply(s.metric.g_element) == s.metric.g_element


def test_sigma_inverse_composition(r4):
    # the braiding is its own inverse: R[i][j] R[j][i] = 1
    s = r4.structures
    p = r4.presentation
    for i in range(4):
        for j in range(4):
            pair = tensor(dz(p, i), dz(p, j))
            assert s.connection.sigma.apply(s.connection.sigma.apply(pair)) == pair


def test_tensor_connection_flat_basis(r4):
    s = r4.structures
    p = r4.presentation
    for i in range(4):
        for alpha in range(4):
            base = tensor(dz(p, i), TensorElement.basis(p, (), alpha))
            assert tensor_connection_apply(s.connection, s.spin.spin_connection, base).is_zero()


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_tensor_connection_leibniz(request, space):
    bundle = request.getfixturevalue(space)
    s = bundle.structures
    p = bundle.presentation
    rng = random.Random(31)
    for _ in range(10):
        word = [rng.randrange(4) for _ in range(rng.randint(1, 3))]
        a = normal_form(word, Scalar.one(), p)
        base = tensor(dz(p, rng.randrange(4)), dz(p, rng.randrange(4)))
        lhs = tensor_connection_apply(s.connection, s.connection, base.left_mul(a))
        rhs = tensor_connection_apply(s.connection, s.connection, base).left_mul(a) + tensor(
            differential(a), base
        )
        assert lhs == rhs


def test_tensor_connection_against_manual_expansion(s3):
    # independent expansion of nabla(x)(v (x) w) =
    #   nabla(v) (x) w + (sigma (x) id)(v (x) nabla(w)) on basis words
    s = s3.structures
    p = s3.presentation
    canon = s.calculus.canon
    conn = s.connection
    for i in range(4):
        for j in range(4):
            base = tensor(dz(p, i), dz(p, j))
            got = canon(tensor_connection_apply(conn, conn, base))
            term1 = tensor(conn.values[BasisWord((i,), None)], dz(p, j))
            inner = tensor(dz(p, i), conn.values[BasisWord((j,), None)])
            term2 = conn.sigma.apply_at(inner, 0)
            assert got == canon(term1 + term2)


class _CountingBraiding(LeftLinearMap):
    """A copy of a braiding that counts the elements it braids past a tail."""

    def __init__(self, sigma: LeftLinearMap):
        super().__init__(sigma.presentation, sigma.domain, sigma.codomain, sigma.images)
        self.with_tail = 0

    def apply_at(self, e, at):
        # only the tensor-product connection braids dz_i past the value of
        # another connection; every other verifier clause braids a pair
        if e.degree > self.domain[0] or e.has_spin:
            self.with_tail += 1
        return super().apply_at(e, at)


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_tensor_connection_braids_each_basis_word_once(request, space):
    # each verifier builds nabla(x) on the basis words dz_i (x) w once, so the
    # braiding runs at most n * |conn_e.values| times per connection pair,
    # however many words the projected basis forms carry
    s = request.getfixturevalue(space).structures
    conn = s.connection
    sigma = _CountingBraiding(conn.sigma)
    counted = Connection(conn.calculus, conn.values, sigma)
    n = s.presentation.n
    assert verify_metric(s.metric, counted).all_passed
    assert 0 < sigma.with_tail <= n * len(conn.values)
    sigma.with_tail = 0
    assert verify_spinorial(s.spin, s.metric, counted).all_passed
    assert 0 < sigma.with_tail <= n * len(s.spin.spin_connection.values)


def test_tensor_connection_values_on_basis_words(s3):
    # nabla(x) is stored over the free calculus on every dz_i (x) e_alpha as
    # nabla(dz_i) (x) e_alpha + (sigma (x) id)(dz_i (x) nabla^sp(e_alpha))
    s = s3.structures
    p = s3.presentation
    conn, spin_conn = s.connection, s.spin.spin_connection
    nabla = tensor_connection(conn, spin_conn)
    assert nabla.calculus.projector is None
    words = {BasisWord((i,), alpha) for i in range(p.n) for alpha in range(4)}
    assert set(nabla.values) == words
    for w in words:
        (i,), alpha = w
        term1 = tensor(conn.values[BasisWord((i,), None)], TensorElement.basis(p, (), alpha))
        inner = tensor(dz(p, i), spin_conn.values[BasisWord((), alpha)])
        assert nabla.values[w] == term1 + conn.sigma.apply_at(inner, 0)


def _reference_apply(conn: Connection, e: TensorElement) -> TensorElement:
    """Connection.apply written out per basis word: c * nabla(w) + d(c) (x) w."""
    p = e.presentation
    degree, has_spin = next(iter(conn.values.values())).shape()
    out = TensorElement.zero(p, degree, has_spin)
    for w, c in e.terms.items():
        leibniz = tensor(differential(c), TensorElement.basis(p, w.forms, w.spin))
        out = out + conn.values[w].left_mul(c) + leibniz
    return conn.calculus.canon(out)


def _with_coefficients(p, words, rng):
    """Each basis word alone, then sums of them with random polynomial coefficients."""
    elems = [TensorElement.basis(p, w.forms, w.spin) for w in words]
    for _ in range(6):
        out = None
        for w in rng.sample(words, min(3, len(words))):
            word = [rng.randrange(p.n) for _ in range(rng.randint(0, 3))]
            term = TensorElement.basis(p, w.forms, w.spin, normal_form(word, Scalar.one(), p))
            out = term if out is None else out + term
        elems.append(out)
    return elems


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_connection_apply_matches_per_word_leibniz(request, space):
    # the Leibniz term, factored out of the loop over the values, changes no output
    s = request.getfixturevalue(space).structures
    p = s.presentation
    rng = random.Random(41)
    connections = (
        s.connection,
        s.spin.spin_connection,
        tensor_connection(s.connection, s.connection),
        tensor_connection(s.connection, s.spin.spin_connection),
    )
    for conn in connections:
        for e in _with_coefficients(p, list(conn.values), rng):
            assert conn.apply(e) == _reference_apply(conn, e)


@pytest.mark.parametrize(
    "phi, space",
    [(phi, space) for phi in ("g^-1", "gamma") for space in ("r4", "s3", "t2")]
    + [("nabla^sp,gamma", "s3"), ("nabla^sp,gamma", "t2"), ("Phi", "t2"), ("flat gamma", "t2")],
)
def test_contracted_connection_is_exact(request, space, phi):
    # contracting nabla's stored values with phi directly is left-linearity
    # on representatives: equal to phi after the unprojected nabla(x), on
    # every basis spinor and on sums with algebra coefficients; a
    # class-correct phi (phi o canon = phi: the induced gamma, and the torus
    # Phi of the rotated operator D~) gives phi after the projected nabla(x)
    # too, while the flat gamma is not class-correct on torus forms, so it
    # tells the two apart.  A phi that does not take the values' shape
    # (g^-1 or gamma after a tensor-product connection, whose values have
    # one form slot more) is refused
    bundle = request.getfixturevalue(space)
    s = bundle.structures
    p = s.presentation
    if phi in ("g^-1", "gamma"):
        other, m = (s.connection, s.metric.g_inv) if phi == "g^-1" else (s.spin.spin_connection, s.spin.gamma)
        with pytest.raises(ShapeError, match="does not match domain"):
            ContractedConnection(tensor_connection(s.connection, other), m)
        return
    nabla = s.spin.spin_connection
    assert nabla.calculus.projector is not None
    m = {"nabla^sp,gamma": s.spin.gamma, "Phi": bundle.rotated_gamma, "flat gamma": bundle.flat_gamma}[phi]
    contracted = ContractedConnection(nabla, m)
    checked = [TensorElement.basis(p, (), alpha) for alpha in range(4)]
    checked += _with_coefficients(p, list(nabla.values), random.Random(43))
    for x in checked:
        assert contracted(x) == m.apply(nabla.raw_apply(x))
    projected = [contracted(x) == m.apply(nabla.apply(x)) for x in checked]
    assert all(projected) == (phi != "flat gamma")


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_gamma_and_phi_are_unchanged_by_canon(request, space):
    # D~ contracts the spin connection with Phi's images directly, which is
    # exact because Phi o canon = Phi: gamma is stored as gamma_C(b_i (x) e_a),
    # so gamma o canon = gamma once Pi(b_i) = b_i, and Phi is gamma followed
    # by a left-linear map
    bundle = request.getfixturevalue(space)
    p = bundle.presentation
    canon = bundle.structures.calculus.canon
    words = all_basis_words(p, 1, True)
    assert len(words) == 16
    for m in (bundle.structures.spin.gamma, bundle.rotated_gamma):
        for w in words:
            assert m.apply_at(canon(TensorElement.basis(p, w.forms, w.spin)), 0) == m.images[w]


def test_metric_compatibility_residual_exactly_zero(r4):
    s = r4.structures
    p = r4.presentation
    for i in range(4):
        for j in range(4):
            pair = tensor(dz(p, i), dz(p, j))
            raw = tensor_connection_apply(s.connection, s.connection, pair)
            lhs = s.metric.g_inv.apply_at(raw, 1)
            rhs = s.calculus.d(s.metric.pair(pair))
            assert (s.calculus.canon(lhs) - rhs).is_zero()


def test_report_json_shape(r4):
    s = r4.structures
    report = verify_metric(s.metric, s.connection)
    payload = report.to_json()
    assert payload["pass"] is True
    assert all(set(c) == {"clause", "pass", "residual"} for c in payload["clauses"])
