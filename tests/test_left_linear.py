"""The left-linear clause families, stored once on the free basis words.

LeftLinearMap.on_free_words builds every stored map: it calls the image
function on each free word of the domain and reads the codomain from the
images.
verify_metric stores inverse_left and symmetry, verify_spinorial stores
clifford_relations, and _induced_spin stores w (x) e_a -> gamma_[2](w (x) nu
(x) e_a); each residual or induced image is then one apply.  These tests
compare them with the reference loops of kernel_reference, which expand every
residual from its input, on the built spaces and on spaces with one stored
image changed so that the families fail: the clause names, verdicts and
residual JSON must agree.
"""

from collections import Counter

import pytest

from ncgdirac import geometry, tensors
from ncgdirac.geometry import Calculus, Connection, Metric, verify_metric
from ncgdirac.hypersurface import _induced_spin
from ncgdirac.reports import Report
from ncgdirac.scalars import Scalar
from ncgdirac.spin import SpinStructure, verify_spinorial
from ncgdirac.tensors import SPINOR_RANK, BasisWord, LeftLinearMap, ShapeError, TensorElement

from kernel_reference import reference_families, reference_induced_gamma

STORED = ("inverse_left", "symmetry", "clifford_relations")


def _changed(m: LeftLinearMap, key: BasisWord, s: Scalar) -> LeftLinearMap:
    return LeftLinearMap(m.presentation, m.domain, m.codomain, {**m.images, key: m.images[key].scale(s)})


def _structures(s, change):
    """(spin, metric, connection) as built, or with one stored image changed."""
    spin, metric, conn = s.spin, s.metric, s.connection
    if change == "gamma(dz1(x)e1)*2":
        spin = SpinStructure(
            s.calculus, _changed(spin.gamma, BasisWord((0,), 0), Scalar.rational(2)), spin.spin_connection
        )
    elif change == "sigma(dz1(x)dz2)*q^4":
        sigma = _changed(conn.sigma, BasisWord((0, 1), None), Scalar.q_power(4))
        conn = Connection(s.calculus, conn.values, sigma, conn.sigma_inv)
    elif change == "g_inv(dz1(x)dz3)*2":
        metric = Metric(metric.g_element, _changed(metric.g_inv, BasisWord((0, 2), None), Scalar.rational(2)))
    return spin, metric, conn


def _clauses(report, family):
    return [c.to_json() for c in report.clauses if c.name.split("[")[0] == family]


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize(
    "change", [None, "gamma(dz1(x)e1)*2", "sigma(dz1(x)dz2)*q^4", "g_inv(dz1(x)dz3)*2"]
)
def test_kernel_stored_families_match_the_reference_loops(request, space, change):
    spin, metric, conn = _structures(request.getfixturevalue(space).structures, change)
    report = verify_metric(metric, conn)
    report.clauses += verify_spinorial(spin, metric, conn).clauses
    reference = reference_families(spin, metric, conn)
    failing = set()
    for family in STORED:
        got = _clauses(report, family)
        assert got == _clauses(reference, family), family
        if not got[0]["pass"]:
            failing.add(family)
    # as built every family passes; each change fails clifford_relations, so
    # failing residuals are compared too
    assert ("clifford_relations" in failing) == (change is not None)
    if change == "g_inv(dz1(x)dz3)*2":
        assert "inverse_left" in failing


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize("change", [None, "Pi(dz1)*2"])
def test_kernel_induced_gamma_is_gamma2_of_b_nu_e(request, space, change):
    h = request.getfixturevalue(space).hypersurface
    pi = h.pi if change is None else _changed(h.pi, BasisWord((0,), None), Scalar.rational(2))
    qc = Calculus(h.quotient_presentation, pi)
    assert _induced_spin(h, qc).gamma.images == reference_induced_gamma(h, qc)


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_stored_families_apply_once_per_residual(request, monkeypatch, space):
    # each residual of a stored family is one LeftLinearMap.apply on the
    # calculus's stored pairs or basis forms, with no tensor() call
    s = request.getfixturevalue(space).structures
    counts = Counter()
    apply = LeftLinearMap.apply

    def counting_apply(self, e):
        counts["apply"] += 1
        return apply(self, e)

    monkeypatch.setattr(LeftLinearMap, "apply", counting_apply)
    for module in (geometry, tensors):
        def counting_tensor(e1, e2, original=module.tensor):
            counts["tensor"] += 1
            return original(e1, e2)

        monkeypatch.setattr(module, "tensor", counting_tensor)

    per_residual = {}
    family = Report.family

    def watching(self, name, checks):
        costs = per_residual.setdefault(name, [])

        def each():
            before = counts.copy()
            for item in checks:
                costs.append((counts["apply"] - before["apply"], counts["tensor"] - before["tensor"]))
                yield item
                before = counts.copy()

        return family(self, name, each())

    monkeypatch.setattr(Report, "family", watching)
    assert verify_metric(s.metric, s.connection).all_passed
    assert verify_spinorial(s.spin, s.metric, s.connection).all_passed
    n = s.presentation.n
    assert per_residual["inverse_left"] == [(1, 0)] * n
    assert per_residual["symmetry"] == [(1, 0)] * (n * n)
    assert per_residual["clifford_relations"] == [(1, 0)] * (n * n * SPINOR_RANK)


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
