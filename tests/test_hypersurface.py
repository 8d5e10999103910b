import json
import random

import pytest

from closed_forms import check_goldens, replace
from ncgdirac import catalog, cli, hypersurface
from ncgdirac.algebra import AlgebraElement, normal_form
from ncgdirac.catalog import (
    build_r4,
    metric_lower,
    sphere_level_function,
    torus_level_function,
)
from ncgdirac.geometry import Calculus, Connection, Metric, verify_metric
from ncgdirac.hypersurface import (
    HypersurfaceError,
    HypersurfaceSpec,
    build_hypersurface,
    check_assumptions,
    check_induction,
    induced_dirac,
    induced_structures,
)
from ncgdirac.scalars import Scalar
from ncgdirac.spin import StructureSet, dirac, verify_spinorial
from ncgdirac.tensors import BasisWord, LeftLinearMap, TensorElement, right_mul, tensor


def dz(p, *indices):
    return TensorElement.basis(p, tuple(indices))


def z(p, i):
    return AlgebraElement.generator(p, i)


# -- construction and validation ----------------------------------------------

def test_sphere_spec_has_expected_nu(s3):
    h = s3.hypersurface
    p_amb = h.ambient.presentation
    want = TensorElement.zero(p_amb, 1)
    for i in range(4):
        for j in range(4):
            v = metric_lower(i, j)
            if v:
                want = want + TensorElement.basis(
                    p_amb, (j,), None, z(p_amb, i).scale(Scalar.rational(v))
                )
    assert h.nu == want


def test_non_central_level_function_rejected():
    r4 = build_r4()
    with pytest.raises(HypersurfaceError) as exc:
        build_hypersurface(r4.structures, z(r4.presentation, 0))
    assert exc.value.kind == "f_not_central"


def test_a_non_central_nu_is_refused_before_the_normalization(monkeypatch):
    # f doubled is central and not normalized; with nu's commutators made
    # nonzero at z3 and z4, the refusal names z3 and comes first
    r4 = build_r4()
    f = sphere_level_function(r4.presentation).scale(Scalar.rational(2))
    with pytest.raises(HypersurfaceError) as exc:
        build_hypersurface(r4.structures, f)
    assert exc.value.kind == "normalization"
    real = hypersurface.commutator_residuals

    def skewed(e):
        for label, r in real(e):
            yield label, r if label in ("z1", "z2") else r + dz(e.presentation, 0)

    monkeypatch.setattr(hypersurface, "commutator_residuals", skewed)
    with pytest.raises(HypersurfaceError) as exc:
        build_hypersurface(r4.structures, f)
    assert exc.value.kind == "nu_not_central"
    assert str(exc.value) == "nu*z3 != z3*nu"


def _calls(monkeypatch, name):
    """The argument tuples of each call to hypersurface's name from now on."""
    calls = []
    original = getattr(hypersurface, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hypersurface, name, counting)
    return calls


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_a_built_spec_forms_nu_commutators_and_nabla_nu_nu_once(request, monkeypatch, space):
    # build_hypersurface hands the commutators of its nu_not_central refusal
    # to the certificate, and nabla(nu) (x) nu is formed once, for the
    # corollaries clause nabla_nu,nu and the induced spin connection; a spec
    # made through its constructor computes its own commutators
    built = request.getfixturevalue(space).hypersurface
    level = sphere_level_function if space == "s3" else torus_level_function
    commutators, tensors = _calls(monkeypatch, "commutator_residuals"), _calls(monkeypatch, "tensor")
    h = build_hypersurface(built.ambient, level(built.ambient.presentation), name=space)
    induced_structures(h)
    assert [args for args in commutators if args[0] is h.nu] == [(h.nu,)]
    assert [args for args in tensors if args[0] is h.nabla_nu_q and args[1] is h.nu_q] == [(h.nabla_nu_q, h.nu_q)]
    assert h.certificate == built.certificate
    commutators.clear()
    same = HypersurfaceSpec(h.ambient, h.ambient_q, h.nu, h.pi)
    assert [args for args in commutators if args[0] is h.nu] == [(h.nu,)]
    assert same.certificate == h.certificate


def test_unnormalized_level_function_rejected():
    # classically z1 is central, but g^-1(dz1 (x) dz1) = 0 != 1
    r4 = build_r4(classical=True)
    with pytest.raises(HypersurfaceError) as exc:
        build_hypersurface(r4.structures, z(r4.presentation, 0))
    assert exc.value.kind == "normalization"


# -- projector -----------------------------------------------------------------

def test_sphere_projector_closed_form(s3):
    h = s3.hypersurface
    p = h.quotient_presentation
    nu_q = h.nu_q
    for i in range(4):
        got = h.pi.apply(dz(p, i))
        want = dz(p, i) - nu_q.left_mul(z(p, i))
        assert got == want


def test_torus_projector_closed_form(t2):
    h = t2.hypersurface
    p = h.quotient_presentation
    for i in range(4):
        sign = Scalar.rational(-1 if (i + 1) % 2 else 1)
        got = h.pi.images[BasisWord((i,), None)]
        want = h.ambient_q.calculus.canon(dz(p, i)) + h.nu_q.left_mul(z(p, i).scale(sign))
        assert got == want


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_projector_idempotent_and_kills_nu(space, s3, t2):
    h = {"s3": s3, "t2": t2}[space].hypersurface
    p = h.quotient_presentation
    for i in range(4):
        once = h.pi.apply(dz(p, i))
        assert h.pi.apply(once) == once
    assert h.pi.apply(h.nu_q).is_zero()


# -- assumption certificates ----------------------------------------------------

CERTIFICATE_FAMILIES = ("calculus", "nu_transparency", "pi_transparency", "nabla_nu_transparency", "corollaries")


def test_sphere_certificate_passes(s3):
    cert = s3.hypersurface.certificate
    assert cert.all_passed
    assert tuple(c.name for c in cert.clauses) == CERTIFICATE_FAMILIES


def test_torus_certificate_passes(t2):
    assert t2.hypersurface.certificate.all_passed


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_replaced_spec_carries_the_certificate_of_its_own_data(request, space):
    # replace builds the copy through the constructor, which derives the
    # calculus from the copy's pi and certifies the copy
    bundle = request.getfixturevalue(space)
    h = bundle.hypersurface
    same = replace(h, pi=h.pi)
    assert same.calculus.projector is h.pi
    assert same.certificate == h.certificate
    induced = induced_structures(same)
    assert induced.calculus is same.calculus
    assert induced.metric.g_inv.images == bundle.structures.metric.g_inv.images
    key = BasisWord((1,), None)
    images = {**h.pi.images, key: h.pi.images[key].scale(Scalar.q_power(4))}
    pi = LeftLinearMap(h.pi.presentation, h.pi.domain, h.pi.codomain, images)
    scaled = replace(h, pi=pi)
    assert scaled.calculus.projector is pi
    assert scaled.certificate == check_assumptions(scaled)
    assert "calculus[dz2]" in [c.name for c in scaled.certificate.failures()]


def test_build_makes_each_projected_calculus_once_and_its_premise_once(monkeypatch):
    # a checked build_t2 makes three projected calculi: the s3 and t2 specs'
    # own (each shared by check_assumptions, induced_structures and the
    # verifiers) and t2's quotient calculus of the converted s3 projector;
    # the premise runs once per hypersurface, in its certificate
    made, premises = [], []
    init, residuals = Calculus.__init__, Calculus._premise_residuals

    def counting_init(self, presentation, projector=None):
        if projector is not None:
            made.append(presentation.name)
        init(self, presentation, projector)

    def counting_residuals(self):
        premises.append(self.presentation.name)
        return residuals(self)

    monkeypatch.setattr(Calculus, "__init__", counting_init)
    monkeypatch.setattr(Calculus, "_premise_residuals", counting_residuals)
    t2 = catalog.build_t2(check=True)
    assert made == ["s3", "t2", "t2"]
    assert premises == ["s3", "t2"]
    assert t2.structures.calculus is t2.hypersurface.calculus


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_induction_projects_nabla_nu_once(request, monkeypatch, space):
    # (Pi (x) id) nabla(nu) does not depend on the spinor: the spec projects
    # it once on construction, and check_induction's four induced_dirac
    # calls read it; a replaced pi gets its own projection.  A replaced spec
    # derives its own nabla_nu_q, so the element is matched by value.
    h = request.getfixturevalue(space).hypersurface
    projected = []
    apply_at = LeftLinearMap.apply_at

    def counting(m, e, at):
        if e == h.nabla_nu_q:
            projected.append(m)
        return apply_at(m, e, at)

    monkeypatch.setattr(LeftLinearMap, "apply_at", counting)
    same = replace(h, pi=h.pi)
    assert projected == [h.pi]
    assert same.pi_nabla_nu == h.pi.apply_at(h.nabla_nu_q, 0)
    projected.clear()
    report = check_induction(same, request.getfixturevalue(space).structures)
    assert report.all_passed and projected == []
    key = BasisWord((0,), None)
    pi = LeftLinearMap(h.pi.presentation, h.pi.domain, h.pi.codomain,
                       {**h.pi.images, key: h.pi.images[key].scale(Scalar.rational(2))})
    assert replace(h, pi=pi).pi_nabla_nu == pi.apply_at(h.nabla_nu_q, 0) != h.pi_nabla_nu


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_nu_transparency_projects_each_residual_once(request, monkeypatch, space):
    # nu_transparency projects sigma(a) - b, not sigma(a) and b apart: the
    # ambient calculus (used by no other family) projects the image of each
    # free dz_k once in each of the two stored maps, 2n projections, and its
    # basis forms are stored, not projected
    h = request.getfixturevalue(space).hypersurface
    canon = Calculus.canon
    ambient_calls = []

    def counting(self, e):
        if self is h.ambient.calculus:
            ambient_calls.append(e.degree)
        return canon(self, e)

    monkeypatch.setattr(Calculus, "canon", counting)
    assert check_assumptions(h).all_passed
    n = h.ambient.presentation.n
    assert ambient_calls == [2] * (2 * n)


def _stored_maps(monkeypatch):
    """The domains of the maps LeftLinearMap.on_free_words builds from now on."""
    built = []
    on_free_words = LeftLinearMap.on_free_words

    def counting(p, domain, image):
        built.append(domain)
        return on_free_words(p, domain, image)

    monkeypatch.setattr(LeftLinearMap, "on_free_words", staticmethod(counting))
    return built


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_certificate_stores_seven_maps(request, monkeypatch, space):
    # nu_transparency two on the ambient dz_k, pi_transparency two on the
    # free pairs, nabla_nu_transparency one and the corollary pairings two
    h = request.getfixturevalue(space).hypersurface
    built = _stored_maps(monkeypatch)
    assert check_assumptions(h).all_passed
    assert built == [(1, False)] * 2 + [(2, False)] * 2 + [(1, False)] * 3


def _premise_failures(cert):
    return [(c.name, c.residual is None) for c in cert.failures()]


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_a_non_central_nabla_nu_leaves_its_transparency_unmet(request, monkeypatch, space):
    # nabla(dz1) + dz2 (x) dz3 in the ambient connection: nabla(nu) is not
    # central, which corollaries reports with its residuals, so its stored
    # map would not equal nabla_nu_transparency's residuals and is not built
    h = request.getfixturevalue(space).hypersurface
    amb, key = h.ambient, BasisWord((0,), None)
    values = {**amb.connection.values, key: amb.connection.values[key] + dz(amb.presentation, 1, 2)}
    broken = replace(h, ambient=replace(amb, connection=replace(amb.connection, values=values)))
    built = _stored_maps(monkeypatch)
    failures = _premise_failures(check_assumptions(broken))
    assert ("nabla_nu_transparency[needs corollaries]", True) in failures
    commutators = [no_residual for name, no_residual in failures if name.startswith("corollaries[nabla_nu,z")]
    assert commutators and not any(commutators)
    assert {name.split("[")[0] for name, _ in failures} == {"nabla_nu_transparency", "corollaries"}
    assert built == [(1, False)] * 2 + [(2, False)] * 2 + [(1, False)] * 2


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_a_non_central_nu_leaves_its_families_unmet(request, monkeypatch, space):
    # nu replaced by z1 nu: Pi(z1 nu) = z1 Pi(nu) = 0 still, but nu z_j != z_j nu,
    # which the calculus family reports; nu_transparency and corollaries store
    # nu left of the input, and nabla_nu_transparency's premise lives in
    # corollaries, so the three are premise clauses and only
    # pi_transparency stores its maps
    h = request.getfixturevalue(space).hypersurface
    broken = replace(h, nu=h.nu.left_mul(z(h.ambient.presentation, 0)))
    built = _stored_maps(monkeypatch)
    assert _premise_failures(check_assumptions(broken)) == [
        ("calculus[nu,z2]", False),
        ("calculus[nu,z4]", False),
        ("nu_transparency[needs calculus]", True),
        ("nabla_nu_transparency[needs corollaries]", True),
        ("corollaries[needs calculus]", True),
    ]
    assert built == [(2, False)] * 2


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_metric_symmetry_pairs_each_residual_once(request, monkeypatch, space):
    # the symmetry family stores g^-1(sigma(w) - w) on the n^2 free pairs w,
    # one Metric.pair each; with metric_compatibility's one g^-1(pair) per
    # pair (inside d), verify_metric pairs 2 n^2 elements
    s = request.getfixturevalue(space).structures
    pair = Metric.pair
    calls = []

    def counting(self, e):
        calls.append(e.degree)
        return pair(self, e)

    monkeypatch.setattr(Metric, "pair", counting)
    assert verify_metric(s.metric, s.connection).all_passed
    n = s.presentation.n
    assert calls == [2] * (2 * n * n)


def _flip_ambient(r4):
    """The r4 structures with the plain flip dz_i (x) dz_j -> dz_j (x) dz_i as braiding."""
    s = r4.structures
    p = r4.presentation
    flip = LeftLinearMap(
        p,
        (2, False),
        (2, False),
        {
            BasisWord((i, j), None): TensorElement.basis(p, (j, i))
            for i in range(4)
            for j in range(4)
        },
    )
    broken = Connection(s.calculus, s.connection.values, flip)
    return StructureSet(s.calculus, s.metric, broken, s.spin)


def _refusal(cert) -> str:
    failing = ", ".join(c.name for c in cert.failures())
    return f"assumption certificate fails {failing}; induction refused"


def test_trivial_flip_braiding_fails_assumptions():
    r4 = build_r4()
    h = build_hypersurface(_flip_ambient(r4), sphere_level_function(r4.presentation), name="flip")
    cert = h.certificate  # recorded by the build, failing clauses and all
    assert not cert.all_passed
    failures = cert.failures()
    for clause in failures:
        family, _, label = clause.name.partition("[")
        assert family in CERTIFICATE_FAMILIES and label.endswith("]"), clause.name
        assert clause.residual is not None, "a failing clause must carry its residual"
    report = cert.to_report("flip")
    assert report.subject == "flip"
    assert [c.to_json() for c in report.clauses] == [c.to_json() for c in cert.clauses]
    with pytest.raises(HypersurfaceError) as exc:
        induced_structures(h)
    assert exc.value.kind == "certificate_failed"
    assert str(exc.value) == _refusal(cert)
    with pytest.raises(HypersurfaceError) as exc:
        induced_dirac(h, TensorElement.basis(h.quotient_presentation, (), 0))
    assert exc.value.kind == "certificate_failed"


def test_catalog_induction_refuses_failing_certificate():
    # the catalog has no gate of its own: induced_structures refuses, naming
    # every failing clause of the certificate
    r4 = build_r4()
    ambient = catalog.SpaceBundle("flip_r4", _flip_ambient(r4), None, r4.base_matrices)
    f = sphere_level_function(r4.presentation)
    with pytest.raises(HypersurfaceError) as exc:
        catalog._induce(ambient, f, "flip", check=False)
    assert exc.value.kind == "certificate_failed"
    cert = build_hypersurface(ambient.structures, f, name="flip").certificate
    assert cert.failures() and str(exc.value) == _refusal(cert)


def test_spec_rejects_unknown_and_missing_fields(s3):
    h = s3.hypersurface
    with pytest.raises(TypeError):
        HypersurfaceSpec(bogus=1)
    with pytest.raises(TypeError):
        HypersurfaceSpec(ambient=h.ambient)
    with pytest.raises(TypeError):
        replace(h, bogus=1)
    # the slots refuse any other attribute, and the quotient presentation is ambient_q's
    with pytest.raises(AttributeError):
        h.bogus = 1
    with pytest.raises(AttributeError):
        h.quotient_presentation = h.ambient.presentation
    assert h.quotient_presentation is h.ambient_q.presentation
    same = replace(h, pi=h.pi)
    assert same != h and same == same


# -- lemma consequences ----------------------------------------------------------

@pytest.mark.parametrize("space", ["s3", "t2"])
def test_lemma_consequences(space, s3, t2):
    h = {"s3": s3, "t2": t2}[space].hypersurface
    p = h.quotient_presentation
    for i in range(4):
        base = h.pi.apply(dz(p, i))
        assert h.ambient_q.metric.pair(tensor(base, h.nu_q)).is_zero()
        assert h.ambient_q.metric.pair(tensor(h.nu_q, base)).is_zero()
    contracted = h.ambient_q.metric.g_inv.apply_at(tensor(h.nabla_nu_q, h.nu_q), 1)
    assert h.pi.apply_at(h.ambient_q.calculus.canon(contracted), 0).is_zero()


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_nabla_nu_central(space, s3, t2):
    h = {"s3": s3, "t2": t2}[space].hypersurface
    p = h.quotient_presentation
    for j in range(4):
        zj = z(p, j)
        assert (right_mul(h.nabla_nu_q, zj) - h.nabla_nu_q.left_mul(zj)).is_zero()


# -- induced structures ------------------------------------------------------------

@pytest.mark.parametrize("space", ["s3", "t2"])
def test_induced_structures_verify(space, s3, t2):
    s = {"s3": s3, "t2": t2}[space].structures
    assert verify_metric(s.metric, s.connection).all_passed
    assert verify_spinorial(s.spin, s.metric, s.connection).all_passed


def test_right_leibniz_on_quotient(s3):
    # nabla_B(dz_i z_j) = nabla_B(dz_i) z_j + sigma_B(dz_i (x) dz_j)
    s = s3.structures
    p = s3.presentation
    canon = s.calculus.canon
    for i in range(4):
        for j in range(4):
            base = canon(dz(p, i))
            zj = z(p, j)
            lhs = s.connection.apply(right_mul(base, zj))
            rhs = right_mul(s.connection.apply(base), zj) + s.connection.sigma.apply(
                tensor(base, s.calculus.d(zj))
            )
            assert (lhs - canon(rhs)).is_zero()


def rand_spinor(p, rng, max_degree=2):
    total = TensorElement.zero(p, 0, True)
    for _ in range(rng.randint(1, 2)):
        word = [rng.randrange(4) for _ in range(rng.randint(0, max_degree))]
        total = total + TensorElement.basis(
            p, (), rng.randrange(4), normal_form(word, Scalar.one(), p)
        )
    return total


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_composite_equals_explicit_dirac(space, s3, t2):
    bundle = {"s3": s3, "t2": t2}[space]
    h = bundle.hypersurface
    p = h.quotient_presentation
    rng = random.Random(41 if space == "s3" else 43)
    for _ in range(15):
        s = rand_spinor(p, rng)
        lhs = dirac(bundle.structures.spin, s)
        rhs = induced_dirac(h, s)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_induced_dirac_derivation_property(space, s3, t2):
    from ncgdirac.spin import gamma_apply

    bundle = {"s3": s3, "t2": t2}[space]
    h = bundle.hypersurface
    spin = bundle.structures.spin
    p = h.quotient_presentation
    operators = {
        "composite": lambda x: dirac(spin, x),
        "explicit": lambda x: induced_dirac(h, x),
    }
    for name, apply_dirac in operators.items():
        rng = random.Random(47)  # both operators see the same pairs
        for _ in range(15):
            word = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
            a = normal_form(word, Scalar.one(), p)
            s = rand_spinor(p, rng)
            lhs = apply_dirac(s.left_mul(a))
            da = bundle.structures.calculus.d(a)
            rhs = apply_dirac(s).left_mul(a) + gamma_apply(spin, tensor(da, s))
            assert (lhs - rhs).is_zero(), name


def test_iterated_ambient_is_previous_quotient(t2):
    h = t2.hypersurface
    assert h.ambient.presentation.name == "s3"
    assert h.quotient_presentation.name == "t2"
    assert len(h.quotient_presentation.rules) == 2


# -- representative independence of the stored connection -----------------------

def _with_connection_terms(bundle, extra):
    """The bundle with extra(i) added to its stored connection value on dz_i."""
    s = bundle.structures
    conn = s.connection
    values = {w: v + extra(w.forms[0]) for w, v in conn.values.items()}
    connection = Connection(conn.calculus, values, conn.sigma)
    return replace(bundle, structures=replace(s, connection=connection))


def _normal_terms(bundle, s3):
    """extra(i) = z2 (nu (x) dz_i) + dz3 (x) nu for the normal nu, and on t2 also for the sphere's normal."""
    p = bundle.presentation
    normals = [bundle.hypersurface.nu_q]
    if bundle.name == "t2":
        normals.append(s3.hypersurface.nu_q.convert(p))

    def extra(i):
        out = TensorElement.zero(p, 2)
        for nu in normals:
            out = out + tensor(nu, dz(p, i)).left_mul(z(p, 1)) + tensor(dz(p, 2), nu)
        return out

    return extra


def _observed(bundle):
    """What the stored connection reaches: verify_space, check_induction, apply on the b_i, the induce payload."""
    s = bundle.structures
    return (
        json.dumps(catalog.verify_space(bundle).to_json(), sort_keys=True),
        json.dumps(check_induction(bundle.hypersurface, s).to_json(), sort_keys=True),
        [json.dumps(s.connection.apply(b).to_json(), sort_keys=True) for b in s.calculus.basis],
        json.dumps(cli._structures_payload(bundle), sort_keys=True),
    )


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_kernel_connection_representative_changes_no_result(space, s3, t2):
    # the induced connection keeps the Gauss formula's unprojected
    # representative; any other representative of the same classes (here
    # with normal components in both slots) must give the same bytes
    bundle = {"s3": s3, "t2": t2}[space]
    moved = _with_connection_terms(bundle, _normal_terms(bundle, s3))
    assert all(moved.structures.connection.values[w] != v for w, v in bundle.structures.connection.values.items())
    want = _observed(bundle)
    assert json.loads(want[0])["pass"]
    assert _observed(moved) == want


def test_kernel_next_induction_ignores_the_sphere_representative(s3, t2):
    # the torus Gauss formula reads the sphere's stored values; another
    # representative of them gives a torus with the same classes and reports
    moved = catalog.build_t2(check=True, s3=_with_connection_terms(s3, _normal_terms(s3, s3)))
    check_goldens(moved)
    assert moved.structures.connection.values != t2.structures.connection.values
    assert _observed(moved) == _observed(t2)


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_kernel_tangential_connection_terms_change_the_report(space, s3, t2):
    # the negative control: b1 (x) b2 is tangential, so adding it changes
    # the classes, the report and the payload
    bundle = {"s3": s3, "t2": t2}[space]
    pair = bundle.structures.calculus.pairs[0][1]
    moved = _with_connection_terms(bundle, lambda i: pair)
    got, want = _observed(moved), _observed(bundle)
    assert not json.loads(got[0])["pass"]
    assert got[0] != want[0] and got[2] != want[2] and got[3] != want[3]
