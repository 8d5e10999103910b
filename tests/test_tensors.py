import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdirac import algebra
from ncgdirac.algebra import AlgebraElement, Presentation, normal_form
from ncgdirac.catalog import r4_presentation
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.tensors import (
    SPINOR_RANK,
    BasisWord,
    LeftLinearMap,
    ShapeError,
    TensorElement,
    TensorSum,
    _tuple_new,
    add_leibniz,
    all_basis_words,
    differential,
    right_linearity_residuals,
    right_mul,
    tensor,
)

from closed_forms import partial_coeffs, phi_basis
from kernel_reference import letters, naive_mul, presentation, reference_add_leibniz

P = r4_presentation()


def z(i):
    return AlgebraElement.generator(P, i)


def dz(*indices):
    return TensorElement.basis(P, tuple(indices))


def rand_element(rng, max_len=4):
    total = AlgebraElement.zero(P)
    for _ in range(rng.randint(1, 3)):
        word = [rng.randrange(4) for _ in range(rng.randint(0, max_len))]
        total = total + normal_form(word, Scalar.q_power(rng.randint(-2, 2)), P)
    return total


def rand_tensor(rng, degree=1, spin=False):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = BasisWord(
            tuple(rng.randrange(4) for _ in range(degree)),
            rng.randrange(4) if spin else None,
        )
        terms[w] = rand_element(rng)
    return TensorElement(P, degree, spin, terms)


# -- right action ------------------------------------------------------------

def test_basis_word_is_a_named_pair():
    # a plain namedtuple with its own repr: fields, tuple equality and hash,
    # and a word built by tuple.__new__ (_tuple_new) is an equal BasisWord
    w = BasisWord((0, 2), 1)
    assert BasisWord._fields == ("forms", "spin") and (w.forms, w.spin) == ((0, 2), 1)
    assert repr(w) == "dz1(x)dz3(x)e2" and repr(BasisWord((), None)) == "1"
    assert w == ((0, 2), 1) and hash(w) == hash(((0, 2), 1))
    built = _tuple_new(BasisWord, ((0, 2), 1))
    assert type(built) is BasisWord and built == w and repr(built) == repr(w)


def test_right_mul_through_one_letter():
    # dz1 z2 = R^{21} z2 dz1 with R^{21} = e^{i theta}
    got = right_mul(dz(0), z(1))
    want = TensorElement.basis(P, (0,), None, z(1).scale(Scalar.q_power(4)))
    assert got == want


def test_right_mul_trivial_phases():
    got = right_mul(tensor(dz(0), dz(2)), z(0))
    want = tensor(dz(0), dz(2)).left_mul(z(0))
    assert got == want


def test_right_mul_unit():
    e = tensor(dz(0), dz(1))
    assert right_mul(e, AlgebraElement.one(P)) == e


def test_right_action_property():
    rng = random.Random(3)
    for _ in range(25):
        e = rand_tensor(rng, degree=rng.randint(0, 2), spin=rng.random() < 0.5)
        a = rand_element(rng, 2)
        b = rand_element(rng, 2)
        assert right_mul(right_mul(e, a), b) == right_mul(e, a * b)


# -- tensor product ----------------------------------------------------------

def test_tensor_left_coefficient_passthrough():
    a = z(0) * z(1)
    got = tensor(dz(0).left_mul(a), dz(1))
    assert got == tensor(dz(0), dz(1)).left_mul(a)


def test_tensor_phase_matches_right_mul_oracle():
    # phase of dz1 (x) z2 dz3 equals the phase produced by dz1 * z2
    got = tensor(dz(0), dz(2).left_mul(z(1)))
    moved = right_mul(dz(0), z(1))
    (w, c), = moved.terms.items()
    want = tensor(dz(0), dz(2)).left_mul(c)
    assert got == want


def test_tensor_balanced():
    rng = random.Random(9)
    for _ in range(25):
        e1 = rand_tensor(rng, degree=1)
        e2 = rand_tensor(rng, degree=1, spin=rng.random() < 0.5)
        a = rand_element(rng, 2)
        assert tensor(right_mul(e1, a), e2) == tensor(e1, e2.left_mul(a))


def test_tensor_with_degree_zero_unit():
    e = tensor(dz(0), dz(1))
    unit = TensorElement.basis(P, (), None)
    assert tensor(unit, e) == e


def test_spinor_slot_must_be_rightmost():
    spinor = TensorElement.basis(P, (), 0)
    with pytest.raises(ShapeError):
        tensor(spinor, dz(0))


# -- maps --------------------------------------------------------------------

def sigma_map():
    images = {
        BasisWord((i, j), None): TensorElement.basis(
            P, (j, i), None, AlgebraElement.from_scalar(P, P.R[j][i])
        )
        for i in range(4)
        for j in range(4)
    }
    return LeftLinearMap(P, (2, False), (2, False), images)


def g_inv_map():
    from ncgdirac.catalog import metric_upper

    images = {
        BasisWord((i, j), None): TensorElement.basis(
            P, (), None, AlgebraElement.from_scalar(P, Scalar.rational(metric_upper(i, j)))
        )
        for i in range(4)
        for j in range(4)
    }
    return LeftLinearMap(P, (2, False), (0, False), images)


def test_sigma_image():
    # sigma(dz1 (x) dz2) = R^{21} dz2 (x) dz1 = e^{i theta} dz2 (x) dz1
    got = sigma_map().apply(tensor(dz(0), dz(1)))
    assert got == tensor(dz(1), dz(0)).scale(Scalar.q_power(4))


def test_g_inverse_pairing():
    got = g_inv_map().apply(tensor(dz(0), dz(2)))
    assert got == TensorElement.basis(P, (), None, AlgebraElement.from_scalar(P, Scalar.rational(2)))


def test_apply_commutes_with_left_multiplication():
    rng = random.Random(2)
    s = sigma_map()
    for _ in range(20):
        e = rand_tensor(rng, degree=2)
        a = rand_element(rng, 2)
        assert s.apply(e.left_mul(a)) == s.apply(e).left_mul(a)


def _right_linear(m):
    return all(residual.is_zero() for _, residual in right_linearity_residuals(m))


def test_right_linearity_checks():
    assert _right_linear(sigma_map())
    assert _right_linear(g_inv_map())
    broken = {
        BasisWord((i,), None): (
            TensorElement.basis(P, (0,), None, z(0)) if i == 0 else TensorElement.zero(P, 1)
        )
        for i in range(4)
    }
    assert not _right_linear(LeftLinearMap(P, (1, False), (1, False), broken))


def test_right_linearity_residuals_apply_the_map_once_per_word(monkeypatch):
    # m(w) is applied once and reused for every generator z_j, so a word costs
    # 1 + n applies; labels and residuals are those of the pair-by-pair loop
    m = kernel_map(random.Random(3), P, (2, False), (1, False))
    calls = []
    apply = LeftLinearMap.apply

    def counting(self, e):
        calls.append(e)
        return apply(self, e)

    monkeypatch.setattr(LeftLinearMap, "apply", counting)
    got = [(label, residual) for label, residual in right_linearity_residuals(m)]
    assert len(calls) == 16 * (1 + 4)
    monkeypatch.undo()
    want = []
    for w in all_basis_words(P, 2):
        base = TensorElement.basis(P, w.forms)
        for j in range(4):
            want.append((f"{w!r},z{j + 1}", m.apply(right_mul(base, z(j))) - right_mul(m.apply(base), z(j))))
    assert got == want
    assert any(not residual.is_zero() for _, residual in got)


def test_apply_shape_mismatch():
    # apply takes exactly the domain's shape, also where the window at slot 0
    # would fit a longer word
    s = sigma_map()
    for e in (dz(0), dz(0, 1, 2)):
        with pytest.raises(ShapeError):
            s.apply(e)


def test_missing_basis_image():
    partial_images = {BasisWord((0,), None): TensorElement.basis(P, (0,))}
    m = LeftLinearMap(P, (1, False), (1, False), partial_images)
    with pytest.raises(KeyError):
        m.apply(dz(1))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        dz(0) + tensor(dz(0), dz(1))


def test_apply_at_slot_windows():
    s = sigma_map()
    e = tensor(tensor(dz(0), dz(1)), dz(2))
    front = s.apply_at(e, 0)
    assert front == tensor(tensor(dz(1), dz(0)), dz(2)).scale(Scalar.q_power(4))
    back = s.apply_at(e, 1)
    # sigma(dz2 (x) dz3) = R^{32} dz3 (x) dz2 = e^{i theta} dz3 (x) dz2
    assert back == tensor(tensor(dz(0), dz(2)), dz(1)).scale(Scalar.q_power(4))


# -- differential ------------------------------------------------------------

def test_differential_of_product_word():
    # d(z1 z2) = z1 dz2 + e^{i theta} z2 dz1
    a = normal_form([0, 1], Scalar.one(), P)
    got = differential(a)
    want = TensorElement.basis(P, (1,), None, z(0)) + TensorElement.basis(
        P, (0,), None, z(1).scale(Scalar.q_power(4))
    )
    assert got == want


def test_differential_of_unit():
    assert differential(AlgebraElement.one(P)).is_zero()


def test_differential_of_level_function_is_nu():
    from ncgdirac.catalog import metric_lower, sphere_level_function

    f = sphere_level_function(P)
    want = TensorElement.zero(P, 1)
    for i in range(4):
        for j in range(4):
            v = metric_lower(i, j)
            if v:
                want = want + TensorElement.basis(P, (j,), None, z(i).scale(Scalar.rational(v)))
    assert differential(f) == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_leibniz_rule(seed):
    rng = random.Random(seed)
    a = rand_element(rng, 3)
    b = rand_element(rng, 3)
    lhs = differential(a * b)
    rhs = right_mul(differential(a), b) + differential(b).left_mul(a)
    assert lhs == rhs


def test_partials_on_generators():
    parts = partial_coeffs(z(0))
    assert parts[0] == AlgebraElement.one(P)
    assert all(parts[i].is_zero() for i in (1, 2, 3))


def test_partials_reconstruct_differential():
    rng = random.Random(17)
    for _ in range(20):
        a = rand_element(rng, 3)
        parts = partial_coeffs(a)
        rebuilt = TensorElement.zero(P, 1)
        for i, coeff in enumerate(parts):
            rebuilt = rebuilt + TensorElement.basis(P, (i,), None, coeff)
        assert rebuilt == differential(a)


def _phi_derivative(a, which):
    from closed_forms import phi_momentum_derivative

    p = a.presentation
    spinor = TensorElement.basis(p, (), 0, a)
    image = phi_momentum_derivative(spinor, which)
    if not image.terms:
        return AlgebraElement.zero(p)
    ((_, coeff),) = image.terms.items()
    return coeff


def test_torus_partial_phi_relation_on_holomorphic_words(t2):
    # partial_1 a = (2/i) (d/dphi_1 a) z3, exact on words in z1 and z2 where
    # the representative expansion already has no dz3, dz4 components
    p = t2.presentation
    rng = random.Random(23)
    two_over_i = Scalar.q_power(0, GaussianRational(0, -2))
    for _ in range(20):
        word = [rng.randrange(2) for _ in range(rng.randint(0, 4))]
        a = normal_form(word, Scalar.one(), p)
        want = (_phi_derivative(a, 1) * AlgebraElement.generator(p, 2)).scale(two_over_i)
        assert partial_coeffs(a)[0] == want


def test_torus_differential_matches_phi_expansion_as_class(t2):
    # d a = (d/dphi_1 a) dphi_1 + (d/dphi_2 a) dphi_2 in the quotient calculus
    p = t2.presentation
    canon = t2.structures.calculus.canon
    dphi1, dphi2 = phi_basis(t2)
    rng = random.Random(29)
    for _ in range(20):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 4))]
        a = normal_form(word, Scalar.one(), p)
        want = dphi1.left_mul(_phi_derivative(a, 1)) + dphi2.left_mul(_phi_derivative(a, 2))
        assert canon(differential(a)) == canon(want)


# -- serialization -----------------------------------------------------------

def test_tensor_json_round_trip():
    rng = random.Random(4)
    for degree, spin in ((0, True), (1, False), (2, True)):
        e = rand_tensor(rng, degree=degree, spin=spin)
        assert TensorElement.from_json(e.to_json(), P) == e


def _one_term(word, alpha=None, degree=None, spinor=None):
    entry = {"word": word, "coeff": AlgebraElement.one(P).to_json()}
    if alpha is not None:
        entry["alpha"] = alpha
    return {
        "degree": len(word) if degree is None else degree,
        "spinor": alpha is not None if spinor is None else spinor,
        "terms": [entry],
    }


MALFORMED_TENSORS = {
    # every field of this input used to be converted silently, to dz1(x)e1
    "all-fields": {
        "degree": "1",
        "spinor": "no",
        "terms": [{"word": [0.7], "alpha": 0, "coeff": AlgebraElement.one(P).to_json()}],
    },
    "letter-float": _one_term([0.7]),
    "letter-string": _one_term(["1"]),
    "letter-bool": _one_term([True]),
    "letter-negative": _one_term([-1]),
    "letter-out-of-range": _one_term([4]),
    "spinor-string": _one_term([0], alpha=0, spinor="yes"),
    "spinor-int": _one_term([0], alpha=0, spinor=1),
    "degree-string": _one_term([0], degree="1"),
    "degree-bool": _one_term([0], degree=True),
    "degree-float": _one_term([0], degree=1.0),
    "degree-not-word-length": _one_term([0, 1], degree=1),
    "alpha-string": _one_term([0], alpha="0"),
    "alpha-bool": _one_term([0], alpha=False),
    "alpha-float": _one_term([0], alpha=0.0),
    "alpha-out-of-range": _one_term([0], alpha=4),
    "alpha-negative": _one_term([0], alpha=-1),
    "alpha-without-spinor": _one_term([0], alpha=0, spinor=False),
    "top-level-list": [],
    "terms-missing": {"degree": 0, "spinor": False},
    "terms-int": {"degree": 0, "spinor": False, "terms": 5},
    # used to be read as its last entry, (5)*dz1
    "word-repeated": {
        "degree": 1,
        "spinor": False,
        "terms": [
            {"word": [0], "coeff": AlgebraElement.one(P).to_json()},
            {"word": [0], "coeff": AlgebraElement.from_scalar(P, Scalar.rational(5)).to_json()},
        ],
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TENSORS))
def test_tensor_from_json_rejects_malformed(name):
    with pytest.raises(ValueError):
        TensorElement.from_json(MALFORMED_TENSORS[name], P)


def test_tensor_from_json_names_a_repeated_word():
    with pytest.raises(ValueError, match=r"tensor word dz1 appears twice"):
        TensorElement.from_json(MALFORMED_TENSORS["word-repeated"], P)


def test_tensor_from_json_reads_well_formed():
    e = TensorElement.from_json(_one_term([0, 3], alpha=3), P)
    assert e == TensorElement.basis(P, (0, 3), 3)


# -- the accumulation kernel against a naive reference -----------------------
#
# The reference moves a coefficient left through a basis word one letter and
# one generator at a time by dz_i z_j = R[j][i] z_j dz_i, multiplies
# coefficients as sums of normal forms of concatenated words, and adds every
# contribution as a whole AlgebraElement.

COEFFS = [GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
          GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 2), Fraction(1, 3))]


def kernel_element(rng, p, max_len=3):
    total = AlgebraElement.zero(p)
    for _ in range(rng.randint(0, 3)):
        word = [rng.randrange(p.n) for _ in range(rng.randint(0, max_len))]
        coeff = Scalar({rng.randint(-6, 6): rng.choice(COEFFS) for _ in range(rng.randint(1, 2))})
        total = total + normal_form(word, coeff, p)
    return total


def kernel_tensor(rng, p, degree, spin):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        w = BasisWord(tuple(rng.randrange(p.n) for _ in range(degree)),
                      rng.randrange(SPINOR_RANK) if spin else None)
        terms[w] = kernel_element(rng, p)
    return TensorElement(p, degree, spin, terms)


def kernel_map(rng, p, domain, codomain):
    words = all_basis_words(p, *domain)
    return LeftLinearMap(p, domain, codomain, {w: kernel_tensor(rng, p, *codomain) for w in words})


def naive_moved(forms, a):
    """The coefficient a' with w * a = a' * w for the basis word w = forms."""
    p = a.presentation
    terms = {}
    for m, c in a.terms.items():
        for i in forms:
            for j in letters(m):
                c = c * p.R[j][i]
        terms[m] = c
    return AlgebraElement(p, terms)


def naive_add(out, word, coeff):
    out[word] = out[word] + coeff if word in out else coeff


def naive_right_mul(e, a):
    out = {}
    for w, c in e.terms.items():
        naive_add(out, w, naive_mul(c, naive_moved(w.forms, a)))
    return TensorElement(e.presentation, e.degree, e.has_spin, out)


def naive_tensor(e1, e2):
    out = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            naive_add(out, BasisWord(w1.forms + w2.forms, w2.spin), naive_mul(c1, naive_moved(w1.forms, c2)))
    return TensorElement(e1.presentation, e1.degree + e2.degree, e2.has_spin, out)


def naive_apply_at(m, e, at):
    (k, dspin), (ck, cspin) = m.domain, m.codomain
    out = {}
    for w, c in e.terms.items():
        prefix, suffix = w.forms[:at], w.forms[at + k:]
        for w2, c2 in m.images[BasisWord(w.forms[at:at + k], w.spin if dspin else None)].terms.items():
            spin = w2.spin if cspin else (None if dspin else w.spin)
            naive_add(out, BasisWord(prefix + w2.forms + suffix, spin), naive_mul(c, naive_moved(prefix, c2)))
    return TensorElement(e.presentation, e.degree - k + ck, cspin or (e.has_spin and not dspin), out)


spaces = st.sampled_from(["r4", "s3", "t2"])
seeds = st.integers(0, 2**32 - 1)


@given(spaces, seeds)
def test_kernel_right_mul_matches_twist_rule(space, seed):
    rng = random.Random(seed)
    p = presentation(space)
    e = kernel_tensor(rng, p, rng.randint(0, 2), rng.random() < 0.5)
    a = kernel_element(rng, p)
    assert right_mul(e, a) == naive_right_mul(e, a)


@given(spaces, seeds)
def test_kernel_tensor_matches_twist_rule(space, seed):
    rng = random.Random(seed)
    p = presentation(space)
    e1 = kernel_tensor(rng, p, rng.randint(0, 2), False)
    e2 = kernel_tensor(rng, p, rng.randint(0, 1), rng.random() < 0.5)
    assert tensor(e1, e2) == naive_tensor(e1, e2)


# (domain, codomain, element degree): form maps anywhere in a word, and a
# spinor-consuming or spinor-producing map at its right end
MAP_SHAPES = [
    ((1, False), (1, False), 2),
    ((1, False), (2, False), 2),
    ((2, False), (0, False), 3),
    ((1, True), (0, True), 2),
    ((0, True), (1, True), 1),
]


@given(spaces, seeds, st.sampled_from(MAP_SHAPES), st.booleans(), st.booleans())
def test_kernel_apply_at_matches_twist_rule(space, seed, shape, whole, unit):
    # whole: the window is the whole word of e, with no prefix or suffix;
    # unit: e is one basis word with the coefficient 1, whose image is copied
    # (twisted through the prefix of a window) with no product
    domain, codomain, degree = shape
    rng = random.Random(seed)
    p = presentation(space)
    m = kernel_map(rng, p, domain, codomain)
    if whole:
        degree = domain[0]
    spin = domain[1] or (not codomain[1] and rng.random() < 0.5)
    if unit:
        forms = tuple(rng.randrange(p.n) for _ in range(degree))
        e = TensorElement.basis(p, forms, rng.randrange(SPINOR_RANK) if spin else None)
    else:
        e = kernel_tensor(rng, p, degree, spin)
    at = degree - domain[0] if domain[1] else rng.randint(0, degree - domain[0])
    got = m.apply_at(e, at)
    assert got == naive_apply_at(m, e, at)
    if unit:  # a copy: clearing it leaves the stored images unchanged
        before = {w: img.to_json() for w, img in m.images.items()}
        for c in got.terms.values():
            for s in c.terms.values():
                s.terms.clear()
            c.terms.clear()
        assert {w: img.to_json() for w, img in m.images.items()} == before


def naive_differential(a):
    """d(a) letter by letter: d(x1...xn) = sum_j x1..x(j-1) dz_(xj) x(j+1)..xn, dz moved left by the twist rule."""
    p = a.presentation
    out = {}
    for m, c in a.terms.items():
        word = letters(m)
        for j, g in enumerate(word):
            before = normal_form(word[:j], c, p)
            after = normal_form(word[j + 1:], Scalar.one(), p)
            naive_add(out, BasisWord((g,), None), naive_mul(before, naive_moved((g,), after)))
    return TensorElement(p, 1, False, out)


def leibniz_tensor(rng, p, degree, spin):
    """kernel_tensor plus a term z_g^k * (up to two letters), k >= 2, under one random word."""
    w = BasisWord(tuple(rng.randrange(p.n) for _ in range(degree)), rng.randrange(SPINOR_RANK) if spin else None)
    word = [rng.randrange(p.n)] * rng.randint(2, 3) + [rng.randrange(p.n) for _ in range(rng.randint(0, 2))]
    coeff = Scalar.q_power(rng.randint(-6, 6), rng.choice(COEFFS))
    return kernel_tensor(rng, p, degree, spin) + TensorElement.basis(p, w.forms, w.spin, normal_form(word, coeff, p))


@given(spaces, seeds)
def test_kernel_leibniz_matches_letter_by_letter_differential(space, seed):
    # add_leibniz(out, e.terms) adds sum_w d(c_w) (x) w; two calls whose terms
    # cancel in the raw map must give the Leibniz term of the summed element
    rng = random.Random(seed)
    p = presentation(space)
    degree, spin = rng.randint(0, 2), rng.random() < 0.5
    e1 = leibniz_tensor(rng, p, degree, spin)
    e2 = leibniz_tensor(rng, p, degree, spin) - e1
    out = TensorSum(p)
    add_leibniz(out, e1.terms)
    add_leibniz(out, e2.terms)
    want = TensorElement.zero(p, degree + 1, spin)
    for w, c in (e1 + e2).terms.items():
        assert differential(c) == naive_differential(c)
        want = want + tensor(differential(c), TensorElement.basis(p, w.forms, w.spin))
    assert out.element(degree + 1, spin) == want


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_kernel_tensor_results_share_nothing_with_their_caller(space):
    # clearing a result's dicts leaves its operands, the stored images and
    # the next result unchanged, also where a unit word's result is a copy
    rng = random.Random(5)
    p = presentation(space)
    e1, e2 = kernel_tensor(rng, p, 1, False), kernel_tensor(rng, p, 1, True)
    assert not e1.is_zero() and not e2.is_zero()
    m = kernel_map(rng, p, (1, True), (0, True))
    form_map = kernel_map(rng, p, (1, False), (2, False))
    unit_form, unit_spinor = TensorElement.basis(p, (2,)), TensorElement.basis(p, (1,), 3)
    operands = (e1, e2, unit_form, unit_spinor)
    stored = [img for img in (*m.images.values(), *form_map.images.values()) if not img.is_zero()]
    assert stored
    before = [x.to_json() for x in operands + tuple(stored)]
    for product in (lambda: tensor(e1, e2), lambda: m.apply_at(tensor(e1, e2), 1),
                    lambda: right_mul(e1, e2.terms[next(iter(e2.terms))]),
                    lambda: tensor(e1, unit_spinor), lambda: tensor(unit_form, e2),
                    lambda: m.apply(unit_spinor), lambda: form_map.apply(unit_form),
                    lambda: m.apply_at(tensor(unit_form, unit_spinor), 1)):
        want = product().to_json()
        first = product()
        for c in first.terms.values():
            for s in c.terms.values():
                s.terms.clear()
            c.terms.clear()
        first.terms.clear()
        assert product().to_json() == want
    assert [x.to_json() for x in operands + tuple(stored)] == before


def unit_word(rng, p, degree, spin):
    """One basis word with the coefficient 1, as the shared _GR_ONE or as an equal GaussianRational."""
    w = BasisWord(tuple(rng.randrange(p.n) for _ in range(degree)), rng.randrange(SPINOR_RANK) if spin else None)
    one = AlgebraElement.one(p)
    if rng.random() < 0.5:
        one = AlgebraElement(p, {(0,) * p.n: Scalar({0: GaussianRational(1)})})
    return TensorElement(p, degree, spin, {w: one})


@given(spaces, seeds, st.sampled_from(MAP_SHAPES), st.booleans())
def test_kernel_apply_at_on_a_unit_word_matches_naive(space, seed, shape, whole):
    # a unit word over the whole window gets a copy of its image; over a slot
    # window, or with a spinor slot the map passes through, it is a product
    domain, codomain, degree = shape
    rng = random.Random(seed)
    p = presentation(space)
    m = kernel_map(rng, p, domain, codomain)
    if whole:
        degree = domain[0]
    e = unit_word(rng, p, degree, domain[1] or (not codomain[1] and rng.random() < 0.5))
    at = degree - domain[0] if domain[1] else rng.randint(0, degree - domain[0])
    got = m.apply_at(e, at)
    assert got == naive_apply_at(m, e, at)
    assert got.shape() == (degree - domain[0] + codomain[0], codomain[1] or (e.has_spin and not domain[1]))


@given(spaces, seeds, st.booleans())
def test_kernel_tensor_with_a_unit_factor_matches_naive(space, seed, unit_right):
    rng = random.Random(seed)
    p = presentation(space)
    if unit_right:
        e1 = kernel_tensor(rng, p, rng.randint(0, 2), False)
        e2 = unit_word(rng, p, rng.randint(0, 2), rng.random() < 0.5)
    else:
        e1 = unit_word(rng, p, rng.randint(0, 2), False)
        e2 = kernel_tensor(rng, p, rng.randint(0, 2), rng.random() < 0.5)
    assert tensor(e1, e2) == naive_tensor(e1, e2)


def _in_order(x):
    """The terms of x, nested, in insertion order: equal values written in the same order."""
    if isinstance(x, TensorElement):
        return [(w, _in_order(c)) for w, c in x.terms.items()]
    if isinstance(x, AlgebraElement):
        return [(m, _in_order(c)) for m, c in x.terms.items()]
    return list(x.terms.items())


@given(spaces, seeds)
def test_kernel_subtraction_is_adding_the_negation(space, seed):
    # one pass gives a + (-b) term for term and in the same order, also where
    # terms of b cancel terms of a
    rng = random.Random(seed)
    p = presentation(space)
    degree, spin = rng.randint(0, 2), rng.random() < 0.5
    a = kernel_tensor(rng, p, degree, spin)
    b = kernel_tensor(rng, p, degree, spin) + a if rng.random() < 0.5 else kernel_tensor(rng, p, degree, spin)
    x, y = kernel_element(rng, p), kernel_element(rng, p)
    pairs = [(a, b), (b, a), (a, a), (x, y), (x, y + x), (x, x)]
    pairs += [(s, t) for s in x.terms.values() for t in (y + x).terms.values()]
    for u, v in pairs:
        diff = u - v
        assert _in_order(diff) == _in_order(u + (-v))
    assert (a - a).is_zero() and (x - x).is_zero()


def test_kernel_twist_memo_holds_tuples():
    p = r4_presentation()
    words = [(0, 2), (3,), (1, 1, 2)]
    for forms in words:
        right_mul(TensorElement.basis(p, forms), AlgebraElement.generator(p, 1))
    assert set(p._twist_cache) == set(words)
    for forms, twist in p._twist_cache.items():
        assert type(twist) is tuple and all(type(t) is int for t in twist)
        want = tuple(-sum(p.q_exp[i][j] for i in forms) for j in range(p.n))
        assert twist == want


def test_kernel_twist_memo_stops_growing_at_its_bound(monkeypatch):
    # past the bound twists are computed without being stored; the results
    # match the reference for every word, stored or not
    monkeypatch.setattr(algebra, "PRODUCT_CACHE_BOUND", 3)
    p = r4_presentation()
    a = normal_form([1, 2, 3], Scalar.q_power(1), p)
    for _ in range(2):
        for w in all_basis_words(p, 2):
            e = TensorElement.basis(p, w.forms)
            assert right_mul(e, a) == naive_right_mul(e, a)
    assert len(p._twist_cache) == 3


@given(spaces, seeds)
def test_kernel_derivative_memo_matches_the_letter_loop(space, seed):
    # add_leibniz reads each monomial's derivative terms from the memo; the
    # reference computes every letter's phase afresh.  The first call may
    # store new monomials, the second reads only stored ones
    rng = random.Random(seed)
    p = presentation(space)
    degree, spin = rng.randint(0, 2), rng.random() < 0.5
    e = leibniz_tensor(rng, p, degree, spin)
    want = TensorSum(p)
    reference_add_leibniz(want, e.terms)
    for _ in range(2):
        got = TensorSum(p)
        add_leibniz(got, e.terms)
        assert got.element(degree + 1, spin) == want.element(degree + 1, spin)
    assert all(mono in p._derivative_cache for c in e.terms.values() for mono in c.terms)


def test_kernel_derivative_memo_holds_tuples():
    p = r4_presentation()
    a = normal_form([0, 1, 1, 3], Scalar.one(), p) + normal_form([2, 2, 2], Scalar.q_power(1), p)
    differential(a)
    assert set(p._derivative_cache) == set(a.terms)
    for mono, terms in p._derivative_cache.items():
        assert type(terms) is tuple
        assert [g for g, _ in terms] == [g for g, k in enumerate(mono) if k]
        for g, triples in terms:
            assert type(triples) is tuple and len(triples) == 1
            (rem, phase, k), = triples
            assert type(rem) is tuple and type(phase) is int and type(k) is GaussianRational
            assert rem[g] == mono[g] - 1 and k == GaussianRational(mono[g])


def test_kernel_derivative_memo_stops_growing_at_its_bound(monkeypatch):
    # past the bound derivatives are computed without being stored; the
    # results match the reference for every monomial, stored or not
    monkeypatch.setattr(algebra, "PRODUCT_CACHE_BOUND", 3)
    p = r4_presentation()
    elements = [normal_form(word, Scalar.q_power(1), p) for word in ([0], [1, 2], [3, 3], [0, 2, 3], [1, 1, 1])]
    for _ in range(2):
        for a in elements:
            assert differential(a) == naive_differential(a)
    assert len(p._derivative_cache) == 3


def test_kernel_presentation_checks_accept_an_equal_copy_and_refuse_another():
    # the checks compare by identity first and then by key: a distinct
    # presentation with an equal key is the same algebra at every kernel call
    # site, and another presentation is refused
    rng = random.Random(11)
    p = presentation("s3")
    twin = Presentation.from_json(p.to_json())
    assert twin is not p and twin == p
    m = kernel_map(rng, p, (1, True), (0, True))
    e, f, a = kernel_tensor(rng, p, 1, True), kernel_tensor(rng, p, 1, False), kernel_element(rng, p)

    calls = [
        (e, lambda x: m.apply_at(x, 0)), (e, lambda x: tensor(f, x)),
        (a, lambda x: right_mul(f, x)), (a, lambda x: f.left_mul(x)),
        (f, lambda x: f + x), (f, lambda x: f - x), (a, lambda x: a + x), (a, lambda x: a * x),
    ]
    for operand, call in calls:
        assert call(operand.convert(twin)) == call(operand)
        with pytest.raises(ValueError, match="presentation mismatch"):
            call(operand.convert(presentation("t2")))
