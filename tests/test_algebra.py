import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdirac import algebra
from ncgdirac.algebra import (
    AlgebraElement,
    Presentation,
    PresentationError,
    RewriteBudgetExceeded,
    RewriteRule,
    brute_force_normal_form,
    critical_pairs,
    is_central,
    normal_form,
)
from ncgdirac.catalog import r4_presentation, sphere_level_function
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spectrum import spectrum_scan

from closed_forms import replace
from kernel_reference import letters, naive_mul, presentation, reference_mono_reduction, reference_phase


@pytest.fixture(scope="module")
def p_r4():
    return presentation("r4")


@pytest.fixture(scope="module")
def p_s3():
    return presentation("s3")


@pytest.fixture(scope="module")
def p_t2():
    return presentation("t2")


def gens(p):
    return [AlgebraElement.generator(p, i) for i in range(p.n)]


words = st.lists(st.integers(0, 3), max_size=6)


# -- presentation validation -------------------------------------------------

def test_r_matrix_invariants(p_r4):
    one = Scalar.one()
    for i in range(4):
        assert p_r4.R[i][i] == one
        for j in range(4):
            assert p_r4.R[i][j] * p_r4.R[j][i] == one
            # a single term c*q**k with |c| = 1
            (c,) = p_r4.R[i][j].terms.values()
            assert c.a * c.a + c.b * c.b == c.d * c.d


def test_bad_r_matrix_rejected():
    R = [[Scalar.one()] * 2 for _ in range(2)]
    R[0][1] = Scalar.q_power(4)
    R[1][0] = Scalar.q_power(4)  # violates R[i][j] R[j][i] = 1
    with pytest.raises(PresentationError):
        Presentation(2, R)


def test_non_power_entry_rejected():
    R = [[Scalar.one()] * 2 for _ in range(2)]
    R[0][1] = Scalar.one() + Scalar.q_power(4)
    with pytest.raises(PresentationError):
        Presentation(2, R)


# -- normal forms ------------------------------------------------------------

def test_reorder_z2_z1(p_r4):
    # z2 z1 = e^{-i theta} z1 z2
    got = normal_form([1, 0], Scalar.one(), p_r4)
    want = normal_form([0, 1], Scalar.q_power(-4), p_r4)
    assert got == want


def test_sphere_rule(p_s3):
    got = normal_form([1, 3], Scalar.one(), p_s3)
    want = AlgebraElement.one(p_s3) - normal_form([0, 2], Scalar.one(), p_s3)
    assert got == want


def test_sphere_relation_sums_to_one(p_s3):
    total = normal_form([0, 2], Scalar.one(), p_s3) + normal_form([1, 3], Scalar.one(), p_s3)
    assert total == AlgebraElement.one(p_s3)


def test_torus_rules(p_t2):
    half = AlgebraElement.from_scalar(p_t2, Scalar.rational("1/2"))
    assert normal_form([0, 2], Scalar.one(), p_t2) == half
    assert normal_form([1, 3], Scalar.one(), p_t2) == half


def test_torus_rule_set_shape(p_t2):
    # the sphere rule got replaced by the pair of half relations
    lhs = sorted(rule.lhs for rule in p_t2.rules)
    assert lhs == [(0, 1, 0, 1), (1, 0, 1, 0)]
    for rule in p_t2.rules:
        assert list(rule.rhs) == [(0, 0, 0, 0)]


def test_irreducibility_invariants(p_s3, p_t2):
    rng = random.Random(7)
    for _ in range(200):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
        for p, check in (
            (p_s3, lambda m: min(m[1], m[3]) == 0),
            (p_t2, lambda m: min(m[1], m[3]) == 0 and min(m[0], m[2]) == 0),
        ):
            nf = normal_form(word, Scalar.one(), p)
            assert all(check(m) for m in nf.terms)


# -- multiplication ----------------------------------------------------------

def test_commuting_pair(p_r4):
    z = gens(p_r4)
    assert z[0] * z[2] == z[2] * z[0]


def test_level_function_central(p_r4):
    f = sphere_level_function(p_r4)
    z = gens(p_r4)
    assert all((f * zi - zi * f).is_zero() for zi in z)
    assert is_central(f)


def test_generator_not_central_symbolically(p_r4):
    assert not is_central(AlgebraElement.generator(p_r4, 0))


def test_unit_is_central(p_r4):
    assert is_central(AlgebraElement.one(p_r4))


@given(words)
def test_unit_law(word):
    p = r4_presentation()
    a = normal_form(word, Scalar.one(), p)
    assert a * AlgebraElement.one(p) == a
    assert AlgebraElement.one(p) * a == a


def test_multiplicativity_all_presentations(p_r4, p_s3, p_t2):
    rng = random.Random(101)
    for p in (p_r4, p_s3, p_t2):
        for _ in range(60):
            w1 = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
            w2 = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
            whole = normal_form(w1 + w2, Scalar.one(), p)
            split = normal_form(w1, Scalar.one(), p) * normal_form(w2, Scalar.one(), p)
            assert whole == split


def test_presentation_mismatch_rejected(p_r4, p_s3):
    a = AlgebraElement.generator(p_r4, 0)
    b = AlgebraElement.generator(p_s3, 0)
    with pytest.raises(ValueError):
        a * b


def test_generator_index_out_of_range(p_r4):
    with pytest.raises(IndexError):
        normal_form([7], Scalar.one(), p_r4)
    with pytest.raises(IndexError):
        AlgebraElement.generator(p_r4, -1)


def test_normal_form_idempotent(p_s3):
    rng = random.Random(11)
    for _ in range(100):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
        nf = normal_form(word, Scalar.one(), p_s3)
        again = AlgebraElement.zero(p_s3)
        for mono, coeff in nf.terms.items():
            again = again + normal_form(letters(mono), coeff, p_s3)
        assert again == nf


# -- brute-force confluence oracle -------------------------------------------

@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_brute_force_oracle_sample(space, p_r4, p_s3, p_t2):
    p = {"r4": p_r4, "s3": p_s3, "t2": p_t2}[space]
    rng = random.Random(hash(space) % 2**32)
    memo = {}
    for _ in range(150):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
        assert brute_force_normal_form(word, Scalar.one(), p, memo) == normal_form(
            word, Scalar.one(), p
        )


def test_oracle_flags_non_confluent_rules(p_r4):
    # two rules with the same normal-ordered pair but inconsistent right sides
    bad = Presentation(
        4,
        p_r4.R,
        (
            RewriteRule((1, 0, 1, 0), {(0, 0, 0, 0): Scalar.one()}),
            RewriteRule((1, 1, 1, 0), {(0, 0, 0, 0): Scalar.one()}),
        ),
        name="bad",
    )
    with pytest.raises(AssertionError):
        for _ in range(3):
            brute_force_normal_form([0, 2, 1], Scalar.one(), bad)
            brute_force_normal_form([0, 1, 2], Scalar.one(), bad)



@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_oracle_decides_every_short_word(space):
    # every word of length <= 5 over the 4 generators: 1,365 words
    p = presentation(space)
    memo = {}
    words = [w for n in range(6) for w in itertools.product(range(4), repeat=n)]
    assert len(words) == 1365
    for word in words:
        assert brute_force_normal_form(word, Scalar.one(), p, memo) == normal_form(
            word, Scalar.one(), p
        ), word


def test_oracle_memo_holds_one_entry_per_multiset(p_s3):
    words = set(itertools.permutations([0, 0, 1, 2, 3, 3]))
    assert len(words) == 180
    memo = {}
    for word in sorted(words):
        assert brute_force_normal_form(word, Scalar.one(), p_s3, memo) == normal_form(
            word, Scalar.one(), p_s3
        )
    assert all(key == tuple(sorted(key)) for key in memo)
    # z2 z4 -> 1 - z1 z3 leaves the class once, to two classes with no z2
    assert set(memo) == {(0, 0, 1, 2, 3, 3), (0, 0, 2, 3), (0, 0, 0, 2, 2, 3)}


def test_oracle_checks_every_word_of_the_class(p_r4):
    # z1 z2 z3 -> 1 fires in the sorted word; z1 z3 -> 1 only in z1 z3 z2, a
    # reordering of it, where it gives a multiple of z2 instead
    bad = Presentation(
        4,
        p_r4.R,
        (
            RewriteRule((1, 0, 1, 0), {(0, 0, 0, 0): Scalar.one()}),
            RewriteRule((1, 1, 1, 0), {(0, 0, 0, 0): Scalar.one()}),
        ),
        name="bad",
    )
    with pytest.raises(AssertionError, match="non-confluent"):
        brute_force_normal_form([0, 1, 2], Scalar.one(), bad, {})


# -- critical pairs ----------------------------------------------------------

def _two_rule_presentation(p_r4):
    # the presentation of test_oracle_flags_non_confluent_rules: z1 z3 -> 1, z1 z2 z3 -> 1
    one = {(0, 0, 0, 0): Scalar.one()}
    return Presentation(
        4, p_r4.R, (RewriteRule((1, 0, 1, 0), one), RewriteRule((1, 1, 1, 0), one)), name="bad"
    )


# rule sets over the r4 R that only the critical pairs of homogeneity decide
_RULE_SETS = {
    # no overlap, but z1 z2 does not commute with z1: z1 z1 z2 rewrites to z1,
    # and its reordering z1 z2 z1 to a q-multiple of z1
    "inhomogeneous": [((1, 1, 0, 0), {(0, 0, 0, 0): Scalar.one()})],
    # z2^2 -> z1 moves past every generator with another phase than z1, but
    # z1 z1, z2 z1, z3 z1 and z4 z1 all reduce to 0, so the rules are confluent
    "inhomogeneous-confluent": [
        ((0, 2, 0, 0), {(1, 0, 0, 0): Scalar.one()}),
        ((2, 0, 0, 0), {}),
        ((1, 1, 0, 0), {}),
        ((1, 0, 1, 0), {}),
        ((1, 0, 0, 1), {}),
    ],
}


@pytest.mark.parametrize("name", ["r4", "classical-r4", "s3", "t2"])
def test_critical_pairs_vanish_on_the_catalog(name):
    p = r4_presentation(classical=True) if name == "classical-r4" else presentation(name)
    pairs = list(critical_pairs(p))
    # one homogeneity pair per rule and generator, one overlap per pair of rules
    r = len(p.rules)
    assert len(pairs) == r * p.n + r * (r - 1) // 2
    assert all(residual.is_zero() for _, residual in pairs)


def test_critical_pairs_name_the_non_confluent_rules(p_r4):
    bad = _two_rule_presentation(p_r4)
    failing = [(label, residual) for label, residual in critical_pairs(bad) if not residual.is_zero()]
    one = Scalar.one()
    assert failing == [
        # z1 z2 z3 z1 = q**-4 z1 z1 z2 z3, while 1 z1 = z1 z1
        ("homogeneity: rule 2 (z1*z2*z3) past z1", AlgebraElement(bad, {(1, 0, 0, 0): Scalar.q_power(-4) - one})),
        ("homogeneity: rule 2 (z1*z2*z3) past z3", AlgebraElement(bad, {(0, 0, 1, 0): Scalar.q_power(4) - one})),
        # z1 z2 z3 = q**4 z2 (z1 z3) -> q**4 z2 by rule 1, and -> 1 by rule 2
        ("overlap: rules 1 (z1*z3) and 2 (z1*z2*z3)", AlgebraElement(bad, {(0, 0, 0, 0): -one, (0, 1, 0, 0): Scalar.q_power(4)})),
    ]


@pytest.mark.parametrize(
    "name, confluent",
    [
        ("r4", True),
        ("s3", True),
        ("t2", True),
        ("two-rule", False),
        ("inhomogeneous", False),
        ("inhomogeneous-confluent", True),
    ],
)
def test_critical_pairs_fail_exactly_when_the_oracle_raises(name, confluent, p_r4):
    if name == "two-rule":
        p = _two_rule_presentation(p_r4)
    elif name in _RULE_SETS:
        p = Presentation(4, p_r4.R, tuple(RewriteRule(lhs, rhs) for lhs, rhs in _RULE_SETS[name]))
    else:
        p = presentation(name)
    memo = {}
    raised = False
    for word in (w for n in range(6) for w in itertools.product(range(4), repeat=n)):
        try:
            brute_force_normal_form(word, Scalar.one(), p, memo)
        except AssertionError:
            raised = True
            break
    fails = any(not residual.is_zero() for _, residual in critical_pairs(p))
    assert fails == raised == (not confluent)


def test_critical_pairs_charge_one_budget(monkeypatch, p_t2):
    # t2 spends 3 letters on each of its 8 homogeneity words z^lhs z_j and 4
    # on its overlap z1 z2 z3 z4, whose reductions of z1 z3 and of z2 z4
    # take one rule step each: 30 steps
    monkeypatch.setattr(algebra, "STEP_BUDGET", 30)
    assert all(residual.is_zero() for _, residual in critical_pairs(p_t2))
    monkeypatch.setattr(algebra, "STEP_BUDGET", 29)
    with pytest.raises(RewriteBudgetExceeded):
        list(critical_pairs(p_t2))


# -- quotient construction ---------------------------------------------------

def test_extend_presentation_orients_sphere_rule(p_r4, p_s3):
    (rule,) = p_s3.rules
    assert rule.lhs == (0, 1, 0, 1)
    assert rule.rhs == {
        (0, 0, 0, 0): Scalar.one(),
        (1, 0, 1, 0): Scalar.rational(-1),
    }


def test_convert_between_presentations(p_r4, p_s3):
    a = normal_form([1, 3, 0], Scalar.one(), p_r4)
    b = a.convert(p_s3)
    assert b == normal_form([1, 3, 0], Scalar.one(), p_s3)


def test_non_decreasing_rule_rejected_at_construction(p_r4):
    # a rule that reproduces its own left side would rewrite forever
    looping = (RewriteRule((2, 0, 0, 0), {(2, 0, 0, 0): Scalar.q_power(4)}),)
    with pytest.raises(PresentationError, match=r"rule \[0, 0\] .* not below its lhs"):
        Presentation(4, p_r4.R, looping, name="loop")


def test_step_budget_guard(monkeypatch, p_s3):
    monkeypatch.setattr(algebra, "STEP_BUDGET", 3)
    with pytest.raises(RewriteBudgetExceeded):
        normal_form([3, 2, 1, 0], Scalar.one(), p_s3)


def _chain_presentation(p_r4):
    # the single valid rule z4 -> z3 over the r4 R: z4^n rewrites one letter
    # at a time, a chain of n rule steps
    return Presentation(p_r4.n, p_r4.R, (RewriteRule((0, 0, 0, 1), {(0, 0, 1, 0): Scalar.one()}),))


def test_long_rewriting_chain_has_no_recursion_limit(p_r4):
    n = 2000
    got = normal_form([3] * n, Scalar.one(), _chain_presentation(p_r4))
    assert got.terms == {(0, 0, n, 0): Scalar.q_power(-2 * n * (n - 1))}


def test_long_rewriting_chain_hits_the_step_budget(monkeypatch, p_r4):
    # the word takes 6000 steps (2000 letters, 2000 rule steps, 2000 rhs
    # letters); a budget past the first 2000 lets the chain itself run out
    monkeypatch.setattr(algebra, "STEP_BUDGET", 5000)
    with pytest.raises(RewriteBudgetExceeded):
        normal_form([3] * 2000, Scalar.one(), _chain_presentation(p_r4))


def test_presentation_equality_ignores_name(p_s3):
    renamed = Presentation(p_s3.n, p_s3.R, p_s3.rules, name="renamed")
    assert renamed == p_s3
    assert hash(renamed) == hash(p_s3)


def test_presentation_equality_sees_content(p_r4, p_s3):
    (rule,) = p_s3.rules
    first = min(rule.rhs)
    rhs = {m: c * Scalar.rational(2) if m == first else c for m, c in rule.rhs.items()}
    recoefficient = Presentation(p_s3.n, p_s3.R, (RewriteRule(rule.lhs, rhs),), name="s3")
    assert recoefficient != p_s3
    # R[0][2] * R[2][0] must stay 1, so the mirrored entry moves with it
    R = [list(row) for row in p_r4.R]
    R[0][2], R[2][0] = Scalar.q_power(4), Scalar.q_power(-4)
    assert Presentation(p_r4.n, R, (), name="r4") != p_r4


# -- serialization -----------------------------------------------------------

def test_presentation_json_round_trip(p_s3):
    blob = json.dumps(p_s3.to_json())
    back = Presentation.from_json(json.loads(blob))
    assert back == p_s3
    assert normal_form([1, 3], Scalar.one(), back) == normal_form(
        [1, 3], Scalar.one(), p_s3
    ).convert(back)


def test_catalog_rules_load_as_terminating(p_s3, p_t2):
    # from_json refuses a rule unless each rhs monomial is below its lhs
    for p in (p_s3, p_t2):
        assert Presentation.from_json(json.loads(json.dumps(p.to_json()))) == p


def test_element_json_round_trip(p_s3):
    a = normal_form([0, 1, 3], Scalar.q_power(2), p_s3)
    assert AlgebraElement.from_json(a.to_json(), p_s3) == a


# -- the product kernel against term-by-term normal forms --------------------

small_gaussians = st.builds(
    GaussianRational,
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2), 2]),
    st.sampled_from([0, 0, 1, -1, Fraction(1, 3)]),
)
coefficients = st.dictionaries(st.integers(-6, 6), small_gaussians, min_size=1, max_size=2).map(Scalar)


@st.composite
def elements(draw, p, max_len=4):
    """A sum of up to three normal forms of random words with random coefficients."""
    total = AlgebraElement.zero(p)
    for _ in range(draw(st.integers(0, 3))):
        word = draw(st.lists(st.integers(0, p.n - 1), max_size=max_len))
        total = total + normal_form(word, draw(coefficients), p)
    return total


presentations = st.sampled_from(["r4", "s3", "t2"]).map(presentation)


@given(st.data())
def test_kernel_product_matches_term_by_term_normal_forms(data):
    p = data.draw(presentations)
    a, b = data.draw(elements(p)), data.draw(elements(p))
    assert a * b == naive_mul(a, b)


@given(st.data())
def test_kernel_product_is_associative(data):
    p = data.draw(presentations)
    a, b, c = (data.draw(elements(p, max_len=3)) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("name", ["r4", "s3", "t2"])
@pytest.mark.parametrize("which", ["a*b", "a*1", "1*a"])
def test_kernel_product_shares_nothing_with_its_caller(name, which):
    # a result's terms and its Scalars' terms are the caller's to change; the
    # product cache and the operands must not see the change
    p = presentation(name)
    a = normal_form([0, 2, 3], Scalar.q_power(1), p) + normal_form([1, 3], Scalar.rational(2), p)
    b = normal_form([2, 1, 0], Scalar.one(), p) + normal_form([3, 3], Scalar.q_power(-4), p)
    x, y = {"a*b": (a, b), "a*1": (a, AlgebraElement.one(p)), "1*a": (AlgebraElement.one(p), a)}[which]
    want = json.dumps((x * y).to_json())
    first = x * y
    for s in first.terms.values():
        s.terms.clear()
        s.terms[99] = GaussianRational(7)
    assert json.dumps((x * y).to_json()) == want
    first = x * y
    first.terms.clear()
    assert json.dumps((x * y).to_json()) == want


def test_product_cache_holds_immutable_triples(p_s3):
    normal_form([0, 3], Scalar.one(), p_s3) * normal_form([1, 2, 3], Scalar.one(), p_s3)
    assert p_s3._product_cache
    for entry in p_s3._product_cache.values():
        assert type(entry) is tuple
        assert all(type(m) is tuple and type(k) is int and type(g) is GaussianRational for m, k, g in entry)


def test_product_cache_stops_growing_at_its_bound(monkeypatch):
    # past the bound products are computed without being stored
    monkeypatch.setattr(algebra, "PRODUCT_CACHE_BOUND", 3)
    p = r4_presentation()
    for _ in range(2):
        for i, x in enumerate(gens(p)):
            for j, y in enumerate(gens(p)):
                assert x * y == normal_form([i, j], Scalar.one(), p)
    assert len(p._product_cache) == 3


# -- monomial products through the reduction memo ------------------------------


def _fresh(p):
    """A copy of p whose product and reduction memos are empty."""
    return Presentation(p.n, p.R, p.rules, name=p.name)


def _normal_monomials(p, max_degree):
    """Every monomial of degree <= max_degree that no rule of p rewrites."""
    monos = (m for m in itertools.product(range(max_degree + 1), repeat=p.n) if sum(m) <= max_degree)
    return [m for m in monos if not any(all(a <= b for a, b in zip(r.lhs, m)) for r in p.rules)]


def _product_element(p, triples):
    terms = {}
    for m, k, g in triples:
        terms.setdefault(m, {})[k] = g
    return AlgebraElement(p, {m: Scalar(c) for m, c in terms.items()})


@pytest.mark.parametrize("name", ["r4", "s3", "t2"])
def test_kernel_mono_product_matches_naive_mul_on_short_monomials(name):
    # every pair of normal monomials of degree <= 3, each product taken once
    # from empty memos: pairs with one sum share a reduction
    p = _fresh(presentation(name))
    monos = _normal_monomials(p, 3)
    elements = {m: AlgebraElement(p, {m: Scalar.one()}) for m in monos}
    for m1 in monos:
        for m2 in monos:
            got = _product_element(p, algebra._mono_product(p, m1, m2))
            assert got == naive_mul(elements[m1], elements[m2]), (m1, m2)
    assert len(p._product_cache) == len(monos) ** 2 > len(p._reduction_cache)


def test_kernel_phase_matches_the_oracle_on_r4(p_r4):
    # r4 has no rules, so every monomial is normal and z^m1 z^m2 is one
    # q-power times z^(m1+m2)
    monos = _normal_monomials(p_r4, 3)
    assert len(monos) == 35
    memo = {}
    for m1 in monos:
        for m2 in monos:
            want = {tuple(map(int.__add__, m1, m2)): Scalar.q_power(algebra._phase(p_r4, m1, m2))}
            got = brute_force_normal_form(letters(m1) + letters(m2), Scalar.one(), p_r4, memo)
            assert got.terms == want, (m1, m2)


def test_kernel_reduction_memo_holds_immutable_entries(p_t2):
    p = _fresh(p_t2)
    normal_form([0, 3], Scalar.one(), p) * normal_form([1, 2, 3], Scalar.one(), p)
    assert p._reduction_cache
    for mono, entry in p._reduction_cache.items():
        assert type(mono) is tuple and type(entry) is tuple
        terms, steps = entry
        assert type(terms) is tuple and type(steps) is int
        assert all(type(m) is tuple and type(k) is int and type(g) is GaussianRational for m, k, g in terms)


def test_kernel_reduction_memo_stops_growing_at_its_bound(monkeypatch):
    # past the bound reductions are computed without being stored; the 16
    # generator pairs of r4 have 10 distinct sums
    monkeypatch.setattr(algebra, "PRODUCT_CACHE_BOUND", 3)
    p = r4_presentation()
    for _ in range(2):
        for i, x in enumerate(gens(p)):
            for j, y in enumerate(gens(p)):
                assert x * y == normal_form([i, j], Scalar.one(), p)
    assert len(p._reduction_cache) == 3


def _raises_over_budget(compute):
    try:
        compute()
    except RewriteBudgetExceeded:
        return True
    return False


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_product_budget_matches_rewriting_the_word(monkeypatch, p_t2, warm):
    # a product charges deg(m2) inserted letters plus the rule steps of its
    # reduction, as rewriting m1 * z_{letters of m2} from scratch does; the
    # word letters(m1) + letters(m2) costs deg(m1) more steps.  Warm: the
    # reductions were stored under the full budget and are reused under the
    # lowered one, so the stored step count decides.
    monos = _normal_monomials(p_t2, 2)
    warmed = _fresh(p_t2)
    for m1 in monos:
        for m2 in monos:
            algebra._mono_product(warmed, m1, m2)
    assert max(steps for _, steps in warmed._reduction_cache.values()) > 0
    for budget in range(8):
        p = _fresh(p_t2)
        if warm:
            p._reduction_cache.update(warmed._reduction_cache)
        for m1 in monos:
            for m2 in monos:
                monkeypatch.setattr(algebra, "STEP_BUDGET", budget)
                product = _raises_over_budget(lambda: algebra._mono_product(p, m1, m2))
                monkeypatch.setattr(algebra, "STEP_BUDGET", budget + sum(m1))
                word = _raises_over_budget(lambda: normal_form(letters(m1) + letters(m2), Scalar.one(), p))
                assert product == word, (budget, m1, m2)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_conversion_budget_sums_the_reductions(monkeypatch, p_r4, warm):
    # under z4 -> z3, z4^3 takes 3 rule steps and z4^4 takes 4, each inserting
    # one letter: 6 + 8 steps, charged against one budget.  Warm: the
    # reductions were stored by a conversion under the full budget.
    full = algebra.STEP_BUDGET
    a = normal_form([3] * 3, Scalar.one(), p_r4) + normal_form([3] * 4, Scalar.one(), p_r4)
    want = {(0, 0, 3, 0): Scalar.q_power(-12), (0, 0, 4, 0): Scalar.q_power(-24)}
    for budget in (13, 14):
        chain = _chain_presentation(p_r4)
        monkeypatch.setattr(algebra, "STEP_BUDGET", full)
        if warm:
            assert a.convert(chain).terms == want
        monkeypatch.setattr(algebra, "STEP_BUDGET", budget)
        if budget == 13:
            with pytest.raises(RewriteBudgetExceeded):
                a.convert(chain)
        else:
            assert a.convert(chain).terms == want


# one confluence-oracle memo per presentation, shared by the examples
_ORACLE_MEMOS = {"r4": {}, "s3": {}, "t2": {}}


@given(st.data())
def test_kernel_word_products_match_the_oracle(data):
    # the oracle shares nothing with the kernel, unlike naive_mul, which
    # multiplies through the same normal forms as the product it checks
    name = data.draw(st.sampled_from(sorted(_ORACLE_MEMOS)))
    p = presentation(name)
    words = st.lists(st.integers(0, p.n - 1), max_size=3)
    w1, w2 = data.draw(words), data.draw(words)
    c1, c2 = data.draw(coefficients), data.draw(coefficients)
    got = normal_form(w1, c1, p) * normal_form(w2, c2, p)
    assert got == brute_force_normal_form(w1 + w2, c1 * c2, p, _ORACLE_MEMOS[name])


# -- the reduction loop on raw coefficients against the Scalar stack loop ------


def _all_monomials(n, max_degree):
    return [m for m in itertools.product(range(max_degree + 1), repeat=n) if sum(m) <= max_degree]


def _reference_product(p, m1, m2):
    e = reference_phase(p, m1, m2)
    terms, _ = reference_mono_reduction(p, tuple(map(int.__add__, m1, m2)))
    return tuple((m, k + e, g) for m, k, g in terms)


def _multi_term_presentation(p_r4):
    """A JSON presentation over the r4 R whose rule coefficients have several q-terms.

    z4^2 -> (q + 2) z3 z4 + (1 - i q^3) z3^2 and z2 z4 -> (1/2 q^-1 - q^2) + (i + q) z1 z3;
    nothing asks them to be confluent: both loops rewrite the same way.
    """
    def scalar(terms):
        return {"terms": [[k, re, im] for k, re, im in terms]}

    data = {
        "name": "multi",
        "generators": 4,
        "R": [[s.to_json() for s in row] for row in p_r4.R],
        "ideal": [
            {"lhs": [3, 3], "rhs": [
                {"exps": [0, 0, 1, 1], "coeff": scalar([[1, "1", "0"], [0, "2", "0"]])},
                {"exps": [0, 0, 2, 0], "coeff": scalar([[0, "1", "0"], [3, "0", "-1"]])},
            ]},
            {"lhs": [1, 3], "rhs": [
                {"exps": [0, 0, 0, 0], "coeff": scalar([[-1, "1/2", "0"], [2, "-1", "0"]])},
                {"exps": [1, 0, 1, 0], "coeff": scalar([[0, "0", "1"], [1, "1", "0"]])},
            ]},
        ],
    }
    p = Presentation.from_json(json.loads(json.dumps(data)))
    assert all(len(c.terms) == 2 for rule in p.rules for c in rule.rhs.values())
    return p


def test_kernel_reduction_matches_the_scalar_loop_on_the_products_of_a_cold_scan(t2, monkeypatch):
    # every product a cold mmax=8 scan takes, recorded into empty memos, then
    # each taken again from empty memos: (terms, steps) and the product
    # tuples equal the Scalar loop's, term order included
    p = t2.presentation
    with monkeypatch.context() as patched:
        patched.setattr(p, "_product_cache", {})
        patched.setattr(p, "_reduction_cache", {})
        spectrum_scan(replace(t2), 8, 0.7)
        products = list(p._product_cache)
    assert len(products) > 1000
    fresh = _fresh(p)
    for m1, m2 in products:
        fresh._product_cache.clear()
        fresh._reduction_cache.clear()
        mono = tuple(map(int.__add__, m1, m2))
        assert algebra._mono_reduction(fresh, mono) == reference_mono_reduction(p, mono), (m1, m2)
        fresh._reduction_cache.clear()
        assert algebra._mono_product(fresh, m1, m2) == _reference_product(p, m1, m2), (m1, m2)


@pytest.mark.parametrize("name", ["s3", "t2", "multi"])
def test_kernel_reduction_matches_the_scalar_loop_on_short_monomials(p_r4, name):
    # every monomial of degree <= 6, reducible or not, from an empty memo
    p = _multi_term_presentation(p_r4) if name == "multi" else presentation(name)
    monos = _all_monomials(p.n, 6)
    assert len(monos) == 210
    fresh = _fresh(p)
    steps = 0
    for mono in monos:
        got = algebra._mono_reduction(fresh, mono)
        assert got == reference_mono_reduction(p, mono), mono
        steps = max(steps, got[1])
    assert steps >= 3  # chains of rewrites, not single steps
    if name == "multi":  # the rules combine several q-terms in one coefficient
        assert any(len({m for m, _, _ in terms}) < len(terms) for terms, _ in fresh._reduction_cache.values())


@pytest.mark.parametrize("name", ["s3", "t2", "multi"])
def test_kernel_reduction_exceeds_the_budget_at_the_scalar_loops_step(monkeypatch, p_r4, name):
    # both loops charge the same steps in the same order: under a budget one
    # below a monomial's step count both raise, and at its step count neither
    p = _multi_term_presentation(p_r4) if name == "multi" else presentation(name)
    full = algebra.STEP_BUDGET
    for mono in _all_monomials(p.n, 5):
        monkeypatch.setattr(algebra, "STEP_BUDGET", full)
        _, steps = reference_mono_reduction(p, mono)
        for budget in (steps - 1, steps):
            monkeypatch.setattr(algebra, "STEP_BUDGET", budget)
            over = steps > budget
            assert _raises_over_budget(lambda: algebra._mono_reduction(_fresh(p), mono)) == over, (mono, budget)
            assert _raises_over_budget(lambda: reference_mono_reduction(p, mono)) == over, (mono, budget)
