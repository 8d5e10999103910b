"""The clause families, stored once on the free basis words.

LeftLinearMap.on_free_words builds every stored map: it calls the image
function on each free word of the domain and reads the codomain from the
images.
verify_metric stores inverse_left, inverse_right, symmetry,
metric_compatibility and right_leibniz, verify_spinorial stores
clifford_relations and clifford_compatibility, check_assumptions stores
nu_transparency, pi_transparency, nabla_nu_transparency and the corollary
pairings, _induced_spin stores w (x) e_a -> gamma_[2](w (x) nu (x) e_a),
and _induced_metric stores one column map dz_k -> g^-1(dz_k (x) b_j) per j;
each induced image is then one apply.  Every family is evaluated by
Calculus.stored_family, whose docstring gives the rule: a family whose
stored maps all vanish on the free words yields no residual, builds no
input and applies nothing; each residual of any other map is one apply.
These tests compare the families with the reference loops of
kernel_reference, which expand every residual from its input, on the built
spaces and on spaces with one stored image changed so that the families
fail: the clause names, verdicts and residual JSON must agree.  Where a
family's premise fails (the calculus premise, reported by the assumption
certificate, or g_central for inverse_right), the family is one failing
clause that names the premise, with no residual.
"""

from collections import Counter

import pytest

from ncgdirac import catalog, geometry, hypersurface, tensors
from ncgdirac.algebra import AlgebraElement
from ncgdirac.catalog import build_r4, verify_space
from ncgdirac.geometry import Calculus, Connection, ContractedConnection, Metric, verify_metric
from ncgdirac.hypersurface import HypersurfaceError, _induced_metric, _induced_spin, check_assumptions
from ncgdirac.reports import Report
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spectrum import sector_basis
from ncgdirac.spin import SpinStructure, verify_spinorial
from ncgdirac.tensors import (
    SPINOR_RANK, BasisWord, LeftLinearMap, ShapeError, TensorElement, TensorSum, add_leibniz,
)

from closed_forms import replace
from kernel_reference import (
    reference_add_leibniz, reference_certificate_families, reference_contracted_connection, reference_families,
    reference_induced_gamma, reference_induced_metric, reference_spin_correction,
)

STORED = (
    "inverse_left", "inverse_right", "symmetry", "metric_compatibility", "right_leibniz",
    "clifford_relations", "clifford_compatibility",
)
NEEDS_CALCULUS = ("metric_compatibility", "right_leibniz", "clifford_compatibility")

# the families each change must fail, so that their failing residuals are compared too
MUST_FAIL = {
    None: set(),
    "gamma(dz1(x)e1)*2": {"clifford_relations", "clifford_compatibility"},
    "gamma(dz2(x)e3)*q^4": {"clifford_relations", "clifford_compatibility"},
    "sigma(dz1(x)dz2)*q^4": {"clifford_relations", "right_leibniz", "clifford_compatibility"},
    "g_inv(dz1(x)dz3)*2": {"inverse_left", "inverse_right", "clifford_relations"},
    "g_inv(dz1(x)dz3)*q^4": {"inverse_left", "inverse_right", "clifford_relations"},
    "nabla(dz1)*q^4": {"metric_compatibility", "clifford_compatibility"},
    "nabla(dz1)+dz2(x)dz3": {"metric_compatibility", "right_leibniz", "clifford_compatibility"},
    "nabla_sp(e1)+dz2(x)e3": {"clifford_compatibility"},
}


def _changed(m: LeftLinearMap, key: BasisWord, s: Scalar) -> LeftLinearMap:
    return LeftLinearMap(m.presentation, m.domain, m.codomain, {**m.images, key: m.images[key].scale(s)})


def _structures(s, change):
    """(spin, metric, connection) as built, or with one stored image changed."""
    spin, metric, conn = s.spin, s.metric, s.connection
    p, q4, two = s.presentation, Scalar.q_power(4), Scalar.rational(2)
    if change is not None and change.startswith("gamma"):
        key, factor = (BasisWord((0,), 0), two) if change.endswith("*2") else (BasisWord((1,), 2), q4)
        spin = SpinStructure(s.calculus, _changed(spin.gamma, key, factor), spin.spin_connection)
    elif change == "sigma(dz1(x)dz2)*q^4":
        sigma = _changed(conn.sigma, BasisWord((0, 1), None), q4)
        conn = Connection(s.calculus, conn.values, sigma)
    elif change is not None and change.startswith("g_inv"):
        factor = two if change.endswith("*2") else q4
        metric = Metric(metric.g_element, _changed(metric.g_inv, BasisWord((0, 2), None), factor))
    elif change is not None and change.startswith("nabla("):
        key = BasisWord((0,), None)
        value = conn.values[key].scale(q4) if change.endswith("*q^4") else (
            conn.values[key] + TensorElement.basis(p, (1, 2))
        )
        conn = Connection(s.calculus, {**conn.values, key: value}, conn.sigma)
    elif change == "nabla_sp(e1)+dz2(x)e3":
        values, key = spin.spin_connection.values, BasisWord((), 0)
        values = {**values, key: values[key] + TensorElement.basis(p, (1,), 2)}
        spin = SpinStructure(s.calculus, spin.gamma, Connection(s.calculus, values))
    return spin, metric, conn


def _on_calculus(spin, metric, conn, calc):
    """The structures with every connection and the spin structure on calc."""
    conn = Connection(calc, conn.values, conn.sigma)
    spin = SpinStructure(calc, spin.gamma, Connection(calc, spin.spin_connection.values))
    return spin, metric, conn


def _verify(spin, metric, conn):
    report = verify_metric(metric, conn)
    report.clauses += verify_spinorial(spin, metric, conn).clauses
    return report


def _clauses(report, family):
    return [c.to_json() for c in report.clauses if c.name.split("[")[0] == family]


def _unmet(family, premise):
    return [{"clause": f"{family}[needs {premise}]", "pass": False, "residual": None}]


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("change", list(MUST_FAIL))
def test_kernel_stored_families_match_the_reference_loops(request, space, change):
    spin, metric, conn = _structures(request.getfixturevalue(space).structures, change)
    assert conn.calculus.premise_failures == ()
    report = _verify(spin, metric, conn)
    reference = reference_families(spin, metric, conn)
    failing = set()
    for family in STORED:
        got = _clauses(report, family)
        assert got == _clauses(reference, family), family
        if not got[0]["pass"]:
            failing.add(family)
    # as built every family passes
    assert failing >= MUST_FAIL[change]
    assert bool(failing) == (change is not None)


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("change", [None, "Pi(dz1)*2"])
def test_kernel_induced_gamma_is_gamma2_of_b_nu_e(request, space, change):
    h = request.getfixturevalue(space).hypersurface
    pi = h.pi if change is None else _changed(h.pi, BasisWord((0,), None), Scalar.rational(2))
    qc = Calculus(h.quotient_presentation, pi)
    assert _induced_spin(h, qc).gamma.images == reference_induced_gamma(h, qc)


def _induction_spec(h, change):
    """The spec as built, or rebuilt with one stored image of its converted ambient doubled."""
    amb_q, two = h.ambient_q, Scalar.rational(2)
    if change == "g_inv(dz1(x)dz3)*2":
        metric = replace(amb_q.metric, g_inv=_changed(amb_q.metric.g_inv, BasisWord((0, 2), None), two))
        return replace(h, ambient_q=replace(amb_q, metric=metric))
    if change == "gamma(dz1(x)e2)*2":
        spin = replace(amb_q.spin, gamma=_changed(amb_q.spin.gamma, BasisWord((0,), 1), two))
        return replace(h, ambient_q=replace(amb_q, spin=spin))
    return h


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("change", [None, "g_inv(dz1(x)dz3)*2", "gamma(dz1(x)e2)*2"])
def test_kernel_induced_metric_and_spin_correction_match_the_reference_loops(request, space, change):
    # g^-1 on each free pair is one apply of its column map H_j to b_i, with
    # no pair b_i (x) b_j formed, and the Gauss correction is gamma at slot 1
    # of nabla(nu) (x) gamma(nu (x) e_a); the references form the pair and
    # nabla(nu) (x) nu (x) e_a whole.  Each change moves what it feeds
    built = request.getfixturevalue(space).hypersurface
    h = _induction_spec(built, change)
    qc = h.calculus
    g_inv = _induced_metric(h, qc).g_inv.images
    assert g_inv == reference_induced_metric(h, qc)
    assert (g_inv != _induced_metric(built, built.calculus).g_inv.images) == (change == "g_inv(dz1(x)dz3)*2")
    base = h.ambient_q.spin.spin_connection.values
    spin_values = _induced_spin(h, qc).spin_connection.values
    corrections = reference_spin_correction(h)
    assert spin_values == {w: qc.canon(base[w] + c) for w, c in corrections.items()}
    assert (corrections != reference_spin_correction(built)) == (change == "gamma(dz1(x)e2)*2")


def test_a_checked_build_forms_no_pair_of_basis_forms(monkeypatch):
    # the induced metric reads its columns, and every family whose inputs
    # are pairs vanishes on the free words: no canonical input of a word of
    # two forms is made.  On each of s3 and t2 the inputs are the n basis
    # forms of inverse_left, inverse_right and the corollary pairings, and
    # the n * SPINOR_RANK of the induced gamma
    inputs = Counter()
    canonical_input = Calculus.canonical_input

    def counting(self, w):
        inputs[len(w.forms)] += 1
        return canonical_input(self, w)

    monkeypatch.setattr(Calculus, "canonical_input", counting)
    catalog.build_t2(check=True)
    n = 4
    assert inputs == Counter({1: 2 * (3 * n + n * SPINOR_RANK)})


def _per_residual_costs(monkeypatch) -> tuple[dict, Counter]:
    """Each family's residuals, as the counts of (apply, tensor, raw_apply, add_leibniz) calls made for each.

    The dict fills as Report.family consumes the checks: LeftLinearMap.apply,
    Connection.raw_apply, and tensor() and add_leibniz wherever the engine
    reads them, are counted between one residual and the next.  The
    Counter holds the running totals, with the calls of
    Calculus.canonical_input, and as pairs those on a word of two forms,
    whose input starts with a pair b_i (x) b_j.
    """
    counts = Counter()
    apply, raw_apply = LeftLinearMap.apply, Connection.raw_apply
    canonical_input = Calculus.canonical_input

    def counting_apply(self, e):
        counts["apply"] += 1
        return apply(self, e)

    def counting_raw_apply(self, e):
        counts["raw_apply"] += 1
        return raw_apply(self, e)

    def counting_canonical_input(self, w):
        counts["canonical_input"] += 1
        counts["pairs"] += len(w.forms) == 2
        return canonical_input(self, w)

    monkeypatch.setattr(LeftLinearMap, "apply", counting_apply)
    monkeypatch.setattr(Connection, "raw_apply", counting_raw_apply)
    monkeypatch.setattr(Calculus, "canonical_input", counting_canonical_input)
    for module in (geometry, hypersurface, tensors):
        for name in ("tensor", "add_leibniz"):
            if not hasattr(module, name):
                continue

            def counting(*args, original=getattr(module, name), name=name):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

    per_residual = {}
    family = Report.family
    kinds = ("apply", "tensor", "raw_apply", "add_leibniz")

    def watching(self, name, checks):
        costs = per_residual.setdefault(name, [])

        def each():
            before = counts.copy()
            for item in checks:
                costs.append(tuple(counts[k] - before[k] for k in kinds))
                yield item
                before = counts.copy()

        return family(self, name, each())

    monkeypatch.setattr(Report, "family", watching)
    return per_residual, counts


def _cases(spaces, change):
    """(space, None) for each space, then (space, change) for s3 and t2; the id of an unchanged case is its space."""
    cases = [(space, None) for space in spaces] + [(space, change) for space in ("s3", "t2")]
    return pytest.mark.parametrize(
        "space, change", cases, ids=[space if c is None else f"{space}-{c}" for space, c in cases]
    )


@_cases(("r4", "s3", "t2"), "nabla(dz1)+dz2(x)dz3")
def test_stored_families_apply_once_per_residual(request, monkeypatch, space, change):
    # a family whose stored map vanishes on every free word has no residual
    # and builds no canonical input: on r4 every family, on s3 and t2 all but
    # inverse_left and inverse_right.  Each residual of any other family, and
    # of each family the changed nabla(dz1) makes nonzero, is one
    # LeftLinearMap.apply on the calculus's stored pairs or basis forms,
    # with no tensor(), no Connection.raw_apply and no Leibniz term
    spin, metric, conn = _structures(request.getfixturevalue(space).structures, change)
    per_residual, counts = _per_residual_costs(monkeypatch)
    assert _verify(spin, metric, conn).all_passed == (change is None)
    n = conn.calculus.presentation.n
    words = {
        "inverse_left": n, "inverse_right": n, "symmetry": n * n, "metric_compatibility": n * n,
        "right_leibniz": n, "clifford_relations": n * n * SPINOR_RANK, "clifford_compatibility": n * SPINOR_RANK,
    }
    maps = {"right_leibniz": n}  # one per generator z_j; every other family stores one map
    live = MUST_FAIL[change] | (set() if space == "r4" else {"inverse_left", "inverse_right"})
    once = (1, 0, 0, 0)
    for family in STORED:
        residuals = words[family] * maps.get(family, 1) if family in live else 0
        assert per_residual[family] == [once] * residuals, family
    # each live family builds the canonical input of each of its free words
    # once, a pair b_i (x) b_j for each word of two forms
    assert counts["canonical_input"] == sum(words[family] for family in live)
    two_forms = ("symmetry", "metric_compatibility", "clifford_relations")
    assert counts["pairs"] == sum(words[family] for family in live if family in two_forms)


# the certificate families whose residuals on an input form are stored maps,
# and the families each change of one stored image must fail; where nabla(nu)
# is not central, nabla_nu_transparency is its premise clause
CERTIFICATE_STORED = ("nu_transparency", "pi_transparency", "nabla_nu_transparency", "corollaries")
CERTIFICATE_MUST_FAIL = {
    None: set(),
    "ambient sigma(dz1(x)dz3)*2": {"nu_transparency"},
    "conn_q sigma(dz1(x)dz3)*2": {"pi_transparency", "nabla_nu_transparency"},
    "ambient nabla(dz1)+dz2(x)dz3": {"nabla_nu_transparency", "corollaries"},
    "metric_q g_inv(dz1(x)dz3)*2": {"corollaries"},
}


def _certificate_spec(h, change):
    """The spec as built, or rebuilt with one stored image of its ambient structures changed."""
    amb, amb_q = h.ambient, h.ambient_q
    two, pair = Scalar.rational(2), BasisWord((0, 2), None)
    if change == "ambient sigma(dz1(x)dz3)*2":
        conn = amb.connection
        return replace(h, ambient=replace(amb, connection=replace(conn, sigma=_changed(conn.sigma, pair, two))))
    if change == "conn_q sigma(dz1(x)dz3)*2":
        conn = amb_q.connection
        return replace(h, ambient_q=replace(amb_q, connection=replace(conn, sigma=_changed(conn.sigma, pair, two))))
    if change == "ambient nabla(dz1)+dz2(x)dz3":
        conn, key = amb.connection, BasisWord((0,), None)
        value = conn.values[key] + TensorElement.basis(amb.presentation, (1, 2))
        return replace(h, ambient=replace(amb, connection=replace(conn, values={**conn.values, key: value})))
    if change == "metric_q g_inv(dz1(x)dz3)*2":
        metric = amb_q.metric
        return replace(h, ambient_q=replace(amb_q, metric=replace(metric, g_inv=_changed(metric.g_inv, pair, two))))
    return h


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("change", list(CERTIFICATE_MUST_FAIL))
def test_kernel_certificate_families_match_the_reference_loops(request, space, change):
    # the stored certificate families against the per-residual loops; a
    # non-central nabla(nu), which corollaries reports, leaves
    # nabla_nu_transparency its premise clause with no residual
    h = _certificate_spec(request.getfixturevalue(space).hypersurface, change)
    cert = check_assumptions(h)
    reference = reference_certificate_families(h)
    gated = any(c.name.startswith("corollaries[nabla_nu,z") for c in reference.failures())
    assert gated == (change == "ambient nabla(dz1)+dz2(x)dz3")
    failing = set()
    for family in CERTIFICATE_STORED:
        got = _clauses(cert, family)
        if family == "nabla_nu_transparency" and gated:
            assert got == _unmet(family, "corollaries")
        else:
            assert got == _clauses(reference, family), family
        if not got[0]["pass"]:
            failing.add(family)
    assert failing == CERTIFICATE_MUST_FAIL[change]


@_cases(("s3", "t2"), "conn_q sigma(dz1(x)dz3)*2")
def test_certificate_families_apply_once_per_residual(request, monkeypatch, space, change):
    # as built, the maps of nu_transparency, pi_transparency and
    # nabla_nu_transparency vanish on the free words: no residual, no
    # canonical input, and pi_transparency reads no pairs of the converted
    # ambient.  Each pairing of corollaries, and each residual of the two
    # families the changed braiding makes nonzero, is one LeftLinearMap.apply
    # to a stored basis form or pair, with no tensor()
    h = _certificate_spec(request.getfixturevalue(space).hypersurface, change)
    per_residual, counts = _per_residual_costs(monkeypatch)
    assert check_assumptions(h).all_passed == (change is None)
    n = h.ambient.presentation.n
    inputs = {"nu_transparency": 2 * n, "pi_transparency": 2 * n * n, "nabla_nu_transparency": n}
    live = set() if change is None else {"pi_transparency", "nabla_nu_transparency"}
    once = (1, 0, 0, 0)
    for family, count in inputs.items():
        assert per_residual[family] == [once] * (count if family in live else 0), family
    assert per_residual["corollaries"][:2 * n] == [once] * (2 * n)
    # one canonical input per free word of a live family, the pairings' n
    # basis forms included; each of pi_transparency's n^2 words is a pair
    words = {"nu_transparency": n, "pi_transparency": n * n, "nabla_nu_transparency": n}
    assert counts["canonical_input"] == n + sum(words[family] for family in live)
    assert counts["pairs"] == (n * n if "pi_transparency" in live else 0)


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("factor", ["q^4", "2"])
def test_a_scaled_projector_fails_the_calculus_premise(request, monkeypatch, space, k, factor):
    # Pi(dz_k) scaled through the calculus projector: Pi o Pi != Pi.  The
    # certificate of the replaced spec is the one report of the premise; the
    # verifiers on its calculus read the same failures for their unmet clauses
    bundle = request.getfixturevalue(space)
    h, s = bundle.hypersurface, bundle.structures
    scale = Scalar.q_power(4) if factor == "q^4" else Scalar.rational(2)
    broken = replace(h, pi=_changed(h.pi, BasisWord((k,), None), scale))
    cert = broken.certificate
    assert cert.clauses[0].name.startswith("calculus[") and not cert.clauses[0].passed
    assert f"calculus[dz{k + 1}]" in [c.name for c in cert.failures()]
    report = _verify(*_on_calculus(s.spin, s.metric, s.connection, broken.calculus))
    assert all(not c.name.startswith("calculus") for c in report.clauses)
    for family in NEEDS_CALCULUS:
        assert _clauses(report, family) == _unmet(family, "calculus")

    # the catalog induction refuses the build at the certificate gate
    real = catalog.build_hypersurface

    def scaled(*args, **kwargs):
        built = real(*args, **kwargs)
        if built.quotient_presentation.name != space:
            return built
        return replace(built, pi=_changed(built.pi, BasisWord((k,), None), scale))

    monkeypatch.setattr(catalog, "build_hypersurface", scaled)
    with pytest.raises(HypersurfaceError) as exc:
        if space == "s3":
            catalog.build_s3(check=True)
        else:
            catalog.build_t2(check=True, s3=request.getfixturevalue("s3"))
    assert exc.value.kind == "certificate_failed"
    assert f"calculus[dz{k + 1}]" in str(exc.value)


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_the_complementary_projector_fails_only_the_derivation_premise(request, space):
    # id - Pi is idempotent and right-linear, but canon o d is no derivation of
    # the quotient under it; the stored families would differ from their loops
    bundle = request.getfixturevalue(space)
    p, pi, s = bundle.presentation, bundle.hypersurface.pi, bundle.structures
    complement = LeftLinearMap.on_free_words(
        p, (1, False), lambda w: TensorElement.basis(p, w.forms) - pi.images[w]
    )
    calc = Calculus(p, complement)
    labels = [label for label, _ in calc.premise_failures]
    assert labels == ["d(z2*z4)", "d(z1*z3)"][: len(p.rules)]
    report = _verify(*_on_calculus(s.spin, s.metric, s.connection, calc))
    for family in NEEDS_CALCULUS:
        assert _clauses(report, family) == _unmet(family, "calculus")


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_a_non_central_g_gives_inverse_right_its_premise_clause_only(request, space):
    s = request.getfixturevalue(space).structures
    g = s.metric.g_element + TensorElement.basis(s.presentation, (0, 1))
    report = verify_metric(Metric(g, s.metric.g_inv), s.connection)
    assert not _clauses(report, "g_central")[0]["pass"]
    assert _clauses(report, "inverse_right") == _unmet("inverse_right", "g_central")
    assert _clauses(report, "inverse_left")[0]["residual"] is not None


def test_the_free_calculus_has_no_calculus_family(r4):
    assert r4.structures.calculus.premise_failures == ()
    assert all(c.name != "calculus" for c in verify_space(r4).clauses)
    assert all(c.name != "calculus" for c in verify_space(build_r4(classical=True)).clauses)


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
@pytest.mark.parametrize("domain", [(0, False), (0, True), (1, False), (1, True), (2, False), (2, True)])
def test_kernel_on_free_words_calls_the_image_on_every_free_word(request, space, domain):
    p = request.getfixturevalue(space).presentation
    degree, has_spin = domain
    seen = []

    def image(w):
        seen.append(w)
        return TensorElement.basis(p, w.forms[::-1], w.spin)

    m = LeftLinearMap.on_free_words(p, domain, image)
    assert len(seen) == len(set(seen)) == (SPINOR_RANK if has_spin else 1) * p.n ** degree
    assert all(len(w.forms) == degree and (w.spin is not None) == has_spin for w in seen)
    assert list(m.images) == seen
    assert (m.domain, m.codomain) == (domain, domain)


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_kernel_on_free_words_reads_the_codomain_from_the_images(request, space):
    # each stored map of a space, rebuilt from its own images: g^-1 (to the
    # algebra), sigma (to pairs), gamma (to spinors) and Pi (to 1-forms)
    bundle = request.getfixturevalue(space)
    s = bundle.structures
    maps = [s.metric.g_inv, s.connection.sigma, s.spin.gamma]
    if bundle.hypersurface is not None:
        maps.append(bundle.hypersurface.pi)
    for m in maps:
        rebuilt = LeftLinearMap.on_free_words(m.presentation, m.domain, m.images.__getitem__)
        assert rebuilt.codomain == m.codomain
        assert rebuilt.images == m.images
    p = s.presentation
    zero = LeftLinearMap.on_free_words(p, (1, False), lambda w: TensorElement.zero(p, 3, True))
    assert zero.codomain == (3, True)


@pytest.mark.parametrize("odd_shape", [(2, False), (1, True), (0, False)])
def test_kernel_on_free_words_refuses_an_image_of_another_shape(s3, odd_shape):
    p = s3.presentation

    def image(w):
        if w.forms == (2,):
            return TensorElement.zero(p, *odd_shape)
        return TensorElement.basis(p, w.forms)

    with pytest.raises(ShapeError, match="does not fit codomain"):
        LeftLinearMap.on_free_words(p, (1, False), image)


def test_a_stored_map_refuses_an_image_of_another_presentation(r4, s3):
    # the r4 element z2*z4 is 1 - z1*z3 in s3's normal form, so an s3 map
    # holding it would break syntactic class equality
    p, other = s3.presentation, r4.presentation
    z2_z4 = AlgebraElement.generator(other, 1) * AlgebraElement.generator(other, 3)
    foreign = TensorElement.basis(other, (), None, z2_z4)
    with pytest.raises(ValueError, match="image of dz1 is over another presentation"):
        LeftLinearMap.on_free_words(p, (1, False), lambda w: foreign)
    with pytest.raises(ValueError, match="image of dz2 is over another presentation"):
        LeftLinearMap(p, (1, False), (0, False), {BasisWord((1,), None): foreign})


def _sector_columns(p):
    """The basis spinors of every momentum sector with |m|, |n| <= 8: the columns of a mmax=8 scan."""
    columns = [
        TensorElement.basis(p, (), alpha, AlgebraElement(p, {mono: Scalar.one()}))
        for m in range(-8, 9)
        for n in range(-8, 9)
        for mono, alpha in sector_basis(m, n)
    ]
    assert len(columns) == 1156
    return columns


def test_kernel_leibniz_terms_of_the_sector_columns_match_the_letter_loop(t2):
    # add_leibniz reads each monomial's derivative terms from the per-presentation
    # memo; the reference computes every letter's phase afresh
    p = t2.presentation
    for x in _sector_columns(p):
        got, want = TensorSum(p), TensorSum(p)
        add_leibniz(got, x.terms)
        reference_add_leibniz(want, x.terms)
        assert got.element(1, True) == want.element(1, True)


def test_kernel_rotated_dirac_matches_the_sum_of_two_elements(t2):
    # D~ adds both of its applies into one TensorSum; the reference builds
    # k.apply(x) and phi_canon.apply(Leibniz term) and adds the two elements
    p = t2.presentation
    reference = reference_contracted_connection(t2.structures.spin.spin_connection, t2.rotated_gamma)
    columns = _sector_columns(p)
    for x in columns:
        assert t2.rotated_dirac(x) == reference(x)
    constant = AlgebraElement(p, {(0,) * p.n: Scalar.q_power(3, GaussianRational(0, 1))})
    mixed = (
        columns[0].scale(Scalar.q_power(1)) + columns[5] + columns[500].scale(Scalar.rational(-3))
        + columns[501] + TensorElement.basis(p, (), 2) + TensorElement.basis(p, (), 1, constant)
    )
    assert len(mixed.terms) == 3 and any(len(c.terms) > 1 for c in mixed.terms.values())
    assert t2.rotated_dirac(mixed) == reference(mixed)


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_kernel_contracted_connections_match_the_sum_of_two_elements(request, space):
    # the spin connection contracted by the induced gamma: ContractedConnection
    # reads gamma's images directly, the reference gamma o canon, and the two
    # agree because gamma o canon = gamma; the spinors z_i z_j e_a have
    # coefficients that are not constant, so every Leibniz term runs
    s = request.getfixturevalue(space).structures
    p = s.presentation
    conn, gamma = s.spin.spin_connection, s.spin.gamma
    gens = [AlgebraElement.generator(p, i) for i in range(p.n)]
    inputs = [TensorElement.basis(p, (), a, zi * zj) for zi in gens for zj in gens for a in range(SPINOR_RANK)]
    got, want = ContractedConnection(conn, gamma), reference_contracted_connection(conn, gamma)
    for x in inputs:
        assert got(x) == want(x)


def test_kernel_verifiers_construct_no_contracted_connection(s3, t2, monkeypatch):
    # both compatibility families contract the tensor-product connection's
    # stored value on each free word directly; D~ is the one ContractedConnection
    built = []
    init = ContractedConnection.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ContractedConnection, "__init__", counted)
    catalog.build_t2(check=True)
    assert verify_space(s3).all_passed and verify_space(t2).all_passed
    assert built == []


def test_kernel_rotated_dirac_keeps_its_input_checks(s3, t2):
    # one sum per column still refuses a foreign spinor and a wrong shape,
    # with or without a Leibniz term
    p = t2.presentation
    z1 = AlgebraElement.generator(p, 0)
    wrong = (TensorElement.basis(p, (0,), 1, z1), TensorElement.basis(p, (0,), 1), TensorElement.basis(p, (), None, z1))
    for x in wrong:
        with pytest.raises(ShapeError):
            t2.rotated_dirac(x)
    foreign = s3.presentation
    for coeff in (AlgebraElement.generator(foreign, 0), AlgebraElement.one(foreign)):
        with pytest.raises(ValueError, match="presentation mismatch"):
            t2.rotated_dirac(TensorElement.basis(foreign, (), 1, coeff))
