import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncgdirac.algebra import AlgebraElement, normal_form
from ncgdirac.catalog import (
    SPINOR_RANK,
    GoldenMismatch,
    build_space,
    dtilde_apply,
    gamma_nu_tilde,
    gamma_theta_matrices,
    h_lower,
    metric_lower,
    metric_upper,
    verify_space,
)
from ncgdirac.geometry import Connection, Metric, tensor_connection_apply
from ncgdirac import catalog
from ncgdirac.hypersurface import (
    HypersurfaceError, check_assumptions, check_induction, induced_dirac, induced_structures,
)
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spin import SpinStructure, dirac, mat_mul
from ncgdirac.tensors import BasisWord, LeftLinearMap, TensorElement, tensor

from closed_forms import _expect, golden_s3, golden_t2, partial_coeffs, phi_basis, replace


def e(p, alpha, coeff=None):
    return TensorElement.basis(p, (), alpha, coeff)


def z(p, i):
    return AlgebraElement.generator(p, i)


# -- flat space ---------------------------------------------------------------

def test_r4_verifies(r4):
    assert verify_space(r4).all_passed


def test_r4_dirac_example(r4):
    p = r4.presentation
    got = dirac(r4.structures.spin, e(p, 0, z(p, 0)))
    gam = r4.base_matrices
    want = TensorElement(
        p,
        0,
        True,
        {
            BasisWord((), beta): AlgebraElement.from_scalar(p, gam[0][beta][0])
            for beta in range(SPINOR_RANK)
            if not gam[0][beta][0].is_zero()
        },
    )
    assert got == want


# -- sphere --------------------------------------------------------------------

def test_s3_metric_golden(s3):
    p = s3.presentation
    for i in range(4):
        for j in range(4):
            pair = tensor(
                TensorElement.basis(p, (i,)), TensorElement.basis(p, (j,))
            )
            got = s3.structures.metric.pair(pair)
            want = AlgebraElement.from_scalar(p, Scalar.rational(metric_upper(i, j))) - z(p, i) * z(p, j)
            assert got == want


def test_s3_basis_dirac_matches_isospectral_value(s3):
    # D_B(e_a) = -(3/2) e_a, the basis-spinor value shared with the
    # isospectral-deformation operator
    p = s3.presentation
    for alpha in range(SPINOR_RANK):
        got = induced_dirac(s3.hypersurface, e(p, alpha))
        assert got == e(p, alpha).scale(Scalar.rational(Fraction(-3, 2)))


def test_s3_basis_dirac_matches_classical_operator(s3):
    # mechanical evaluation of the classical sphere operator
    # -1/2 sum [g^j, g^i] partial_i(s) z_j - 3/2 s (undeformed matrices,
    # plain commutator) on basis spinors, where it must coincide with the
    # induced operator; both sides satisfy the same derivation property,
    # which reduces the full comparison to exactly this check
    p = s3.presentation
    classical = gamma_theta_matrices(classical=True)
    for alpha in range(SPINOR_RANK):
        e_a = e(p, alpha)
        ((_, coeff),) = e_a.terms.items()
        value = e_a.scale(Scalar.rational(Fraction(-3, 2)))
        parts = partial_coeffs(coeff)
        for i in range(4):
            if parts[i].is_zero():
                continue
            for j in range(4):
                comm = tuple(
                    tuple(x - y for x, y in zip(ra, rb))
                    for ra, rb in zip(
                        mat_mul(classical[j], classical[i]),
                        mat_mul(classical[i], classical[j]),
                    )
                )
                z_j = AlgebraElement.zero(p)
                for k in range(4):
                    v = metric_lower(j, k)
                    if v:
                        z_j = z_j + z(p, k).scale(Scalar.rational(v))
                factor = (parts[i] * z_j).scale(Scalar.rational(Fraction(-1, 2)))
                for beta in range(SPINOR_RANK):
                    if not comm[beta][alpha].is_zero():
                        value = value + e(p, beta, factor.scale(comm[beta][alpha]))
        assert induced_dirac(s3.hypersurface, e_a) == value


def test_s3_dirac_closed_formula(s3):
    # D_B(s) = -1/2 sum [gamma^j, gamma^i]_theta partial_i(s) z_j - 3/2 s
    from closed_forms import sphere_dirac_closed_form

    h = s3.hypersurface
    p = s3.presentation
    rng = random.Random(53)
    for _ in range(10):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        alpha = rng.randrange(SPINOR_RANK)
        s = e(p, alpha, normal_form(word, Scalar.one(), p))
        assert (induced_dirac(h, s) - sphere_dirac_closed_form(s3, s)).is_zero()


def test_s3_theta_zero_reproduces_round_sphere(r4_classical):
    # at theta = 0 the chain is commutative: R = 1 and classical gammas
    from ncgdirac.catalog import sphere_level_function
    from ncgdirac.hypersurface import build_hypersurface, check_assumptions, induced_structures

    p = r4_classical.presentation
    assert all(p.R[i][j] == Scalar.one() for i in range(4) for j in range(4))
    f = sphere_level_function(p)
    h = build_hypersurface(r4_classical.structures, f, name="s3_classical")
    assert check_assumptions(h).all_passed
    structures = induced_structures(h)
    for alpha in range(SPINOR_RANK):
        got = induced_dirac(h, e(h.quotient_presentation, alpha))
        assert got == e(h.quotient_presentation, alpha).scale(Scalar.rational(Fraction(-3, 2)))


def test_golden_mismatch_reports_residual(s3):
    p = s3.presentation
    with pytest.raises(GoldenMismatch) as exc:
        _expect("demo", e(p, 0), e(p, 0).scale(Scalar.rational(2)))
    assert exc.value.residual is not None


def _doubled(m: LeftLinearMap, key: BasisWord) -> LeftLinearMap:
    """A copy of an extensional map whose image of one basis word is doubled."""
    images = dict(m.images)
    images[key] = images[key] + images[key]
    return LeftLinearMap(m.presentation, m.domain, m.codomain, images)


def _corrupt(s, family: str):
    """A copy of the structure set with one induced value of one family doubled."""
    conn, metric, spin = s.connection, s.metric, s.spin
    if family == "sigma":
        sigma = _doubled(conn.sigma, BasisWord((0, 2), None))
        return replace(s, connection=Connection(conn.calculus, conn.values, sigma))
    if family == "g":
        return replace(s, metric=Metric(metric.g_element + metric.g_element, metric.g_inv))
    if family == "g^-1":
        g_inv = _doubled(metric.g_inv, BasisWord((0, 2), None))
        return replace(s, metric=Metric(metric.g_element, g_inv))
    if family == "nabla":
        values = dict(conn.values)
        values[BasisWord((1,), None)] = values[BasisWord((1,), None)].scale(Scalar.rational(2))
        return replace(s, connection=Connection(conn.calculus, values, conn.sigma))
    if family == "gamma":
        gamma = _doubled(spin.gamma, BasisWord((1,), 2))
        return replace(s, spin=SpinStructure(spin.calculus, gamma, spin.spin_connection))
    values = dict(spin.spin_connection.values)
    values[BasisWord((), 1)] = values[BasisWord((), 1)].scale(Scalar.rational(2))
    spin_connection = Connection(spin.calculus, values)
    return replace(s, spin=SpinStructure(spin.calculus, spin.gamma, spin_connection))


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize(
    "family, label",
    [
        ("sigma", "sigma_{}[dz1,dz3]"),
        ("g", "g_{}"),
        ("g^-1", "g_{}_inv[dz1,dz3]"),
        ("nabla", "nabla_{}[dz2]"),
        ("gamma", "gamma_{}[dz2,e3]"),
        ("nabla^sp", "nabla_sp_{}[e2]"),
    ],
    ids=["sigma", "g", "g^-1", "nabla", "gamma", "nabla^sp"],
)
def test_golden_rejects_corrupted_family(request, space, family, label):
    golden, tag = {"s3": (golden_s3, "B"), "t2": (golden_t2, "C")}[space]
    bundle = request.getfixturevalue(space)
    corrupted = _corrupt(bundle.structures, family)
    with pytest.raises(GoldenMismatch) as exc:
        golden(bundle.hypersurface, corrupted, bundle.base_matrices)
    assert exc.value.label == label.format(tag)


# sha256 of the verify_space report of each corrupted bundle (json.dumps with
# indent=2, sort_keys=True): the verifiers alone, without the golden forms,
# catch a corrupted connection with the same residuals, byte for byte.  The
# certificate's calculus family, whose premise these corruptions leave intact,
# passes.  The braiding is stored once and sigma_invertible checks
# sigma o sigma = id, so a doubled sigma(dz1 (x) dz3) fails it on both
# dz1 (x) dz3 and dz3 (x) dz1.
CORRUPTED_REPORT_SHA256 = {
    ("s3", "nabla"): "5e47a19a2a11bddcf5165b74f123216583b2bccb344e932f2fa0d94e2cf624d2",
    ("s3", "nabla^sp"): "2ef31809be2b99cdea780b1226ff4246f2e76174e780bd8e4e7d193c9a814c2b",
    ("t2", "nabla"): "47a2172115eec58daf1084ce41d4eace3a0547676befe65ff6e9d62a928ad195",
    ("t2", "nabla^sp"): "c64cb07a4d6d9c2e898aae37e8bf1dcc62f1db94b6f1b260dbc82bfdd938721c",
    ("s3", "sigma"): "6f03a4553045528c74d84ab8ee71499d5de84112cd345511f8ccc93f55d47909",
    ("s3", "g"): "35de71ff1fb3094f4be062acc10e79a1ed4807b1b5d7a43937dced6757b798fc",
    ("s3", "g^-1"): "64697522634a31357b18fded56069b808c2fd6b3f19fc125277d364d47e9f967",
    ("s3", "gamma"): "45f3941787a3e41a91cb7825d6db192163e041e64eb14b947a65fbe96cfbbbe8",
    ("t2", "sigma"): "2ac18f91262c732a216eefdee042a39e9c8956401c923fddbb976ae5d2892b2b",
    ("t2", "g"): "9de1e027a57c214e26b0f940daec43525e87bd7a846298ff1cc2fd50ccb85047",
    ("t2", "g^-1"): "38d037f702908b8c2d5833d071e828590ba52b7e41f32daa4ddf0cf11e225d47",
    ("t2", "gamma"): "c69d2c2ac934bff0686b02acd168fda36fa52bd277a068ec9c61402804651224",
}


def _report_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), indent=2, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize(
    "family, failing",
    [
        ("nabla", {"metric_compatibility", "clifford_compatibility"}),
        ("nabla^sp", {"clifford_compatibility"}),
    ],
    ids=["nabla", "nabla^sp"],
)
def test_verifiers_reject_corrupted_connection(request, space, family, failing):
    bundle = request.getfixturevalue(space)
    report = verify_space(replace(bundle, structures=_corrupt(bundle.structures, family)))
    assert {c.name.split("[")[0] for c in report.failures()} == failing
    assert _report_sha256(report) == CORRUPTED_REPORT_SHA256[space, family]


_SIGMA_FAILS = {
    "symmetry", "sigma_invertible", "right_leibniz", "clifford_relations", "clifford_compatibility",
}


@pytest.mark.parametrize(
    "space, family, failing",
    [
        ("s3", "sigma", _SIGMA_FAILS),
        ("t2", "sigma", _SIGMA_FAILS),
        ("s3", "g", {"inverse_left", "inverse_right"}),
        ("t2", "g", {"inverse_left", "inverse_right"}),
        (
            "s3",
            "g^-1",
            {"inverse_left", "inverse_right", "symmetry", "metric_compatibility", "clifford_relations"},
        ),
        ("t2", "g^-1", {"inverse_left", "inverse_right", "clifford_relations"}),
        ("s3", "gamma", {"clifford_relations", "clifford_compatibility"}),
        ("t2", "gamma", {"clifford_relations", "clifford_compatibility"}),
    ],
)
def test_verifiers_reject_corrupted_structure(request, space, family, failing):
    # byte guards on the braiding, metric and Clifford residuals of the verifiers
    bundle = request.getfixturevalue(space)
    report = verify_space(replace(bundle, structures=_corrupt(bundle.structures, family)))
    assert {c.name.split("[")[0] for c in report.failures()} == failing
    if family == "sigma":
        inverse = [c.name for c in report.failures() if c.name.startswith("sigma_invertible")]
        assert inverse == ["sigma_invertible[dz1(x)dz3]", "sigma_invertible[dz3(x)dz1]"]
    assert _report_sha256(report) == CORRUPTED_REPORT_SHA256[space, family]


# sha256 of the assumption certificate (as a report named after the space) when
# one braiding image, at dz1 (x) dz3, is doubled: in the ambient connection it
# breaks nu_transparency; in the quotient-coefficient copy ambient_q (the
# parameter id and pin key conn_q name its connection), pi_ and
# nabla_nu_transparency
CORRUPTED_CERTIFICATE_SHA256 = {
    ("s3", "ambient"): "f41a533696bab310da22d572df5f61215181f70fc772a1e14046f74cb54aca54",
    ("s3", "conn_q"): "6364fc5e0057369cbbb83efe24fab3254cd39df0dabf86de27522d47071f9191",
    ("t2", "ambient"): "78136d8442012914fb834b699cf4be1a7f594476b0601a499082a5154264e608",
    ("t2", "conn_q"): "155aa002ce32a98385ac163270a1a28050d164d89ea7e6011760573309e1b3b6",
}


def _doubled_braiding(conn: Connection) -> Connection:
    sigma = _doubled(conn.sigma, BasisWord((0, 2), None))
    return Connection(conn.calculus, conn.values, sigma)


@pytest.mark.parametrize("space", ["s3", "t2"])
@pytest.mark.parametrize(
    "where, failing",
    [
        ("ambient", {"nu_transparency"}),
        ("conn_q", {"pi_transparency", "nabla_nu_transparency"}),
    ],
    ids=["ambient", "conn_q"],
)
def test_certificate_rejects_doubled_braiding(request, space, where, failing):
    h = request.getfixturevalue(space).hypersurface
    if where == "ambient":
        amb = h.ambient
        broken = replace(h, ambient=replace(amb, connection=_doubled_braiding(amb.connection)))
    else:
        amb_q = h.ambient_q
        broken = replace(h, ambient_q=replace(amb_q, connection=_doubled_braiding(amb_q.connection)))
    cert = check_assumptions(broken)
    assert {c.name.split("[")[0] for c in cert.failures()} == failing
    assert _report_sha256(cert.to_report(space)) == CORRUPTED_CERTIFICATE_SHA256[space, where]


# sha256 of the verify_space report and of the assumption certificate (as a
# report named after the space) when the projector image Pi(dz2) is scaled by
# q^4 in the hypersurface and in every calculus of the structures.  Pi o Pi !=
# Pi then: the certificate's calculus family fails on both spaces (on s3 the
# corollaries too), each verifier family that needs the premise is the one
# clause name[needs calculus] with no residual, and inverse_left and
# inverse_right, which need no calculus premise, fail with their residuals.
CORRUPTED_PROJECTOR_SHA256 = {
    ("s3", "verify_space"): "cb12f6dd55b049854824452534d92f970aa16804d3578f85f4209be63d8e2cf1",
    ("s3", "certificate"): "69246fd55f779577b6f70420c05367484309c3820ab8f5aed97dc1f2c1fe648f",
    ("t2", "verify_space"): "7e7300a538b6892a073541df2e01bcd2aea2b3766c3cf26dcdac26f21e06b819",
    ("t2", "certificate"): "74904aa89e6c354bfc8d5fd5b7b954880baa7716426eaed24dc680f71813c135",
}
_PROJECTOR_FAILS = {
    "inverse_left", "inverse_right", "metric_compatibility", "right_leibniz", "clifford_compatibility",
}
# the failing calculus clauses: Pi(b_i) != b_i, canon o d no derivation, Pi(nu) != 0
_PROJECTOR_PREMISE_FAILS = {
    "s3": ["dz1", "dz2", "dz3", "dz4", "d(z2*z4)", "nu"],
    "t2": ["dz2", "dz4", "d(z2*z4)", "nu"],
}


def _corrupted_projector(h, key=BasisWord((1,), None), factor=Scalar.q_power(4)):
    """The hypersurface with Pi(key), by default Pi(dz2), scaled, and its quotient calculus.

    replace rebuilds the spec through its constructor, which derives the
    copy's calculus from the scaled Pi and certifies the copy.
    """
    pi = h.pi
    images = dict(pi.images)
    images[key] = images[key].scale(factor)
    broken = replace(h, pi=LeftLinearMap(pi.presentation, pi.domain, pi.codomain, images))
    return broken, broken.calculus


def _with_calculus(s, calc):
    """A copy of the structure set whose calculus, connections and spin structure use calc."""
    conn, spin = s.connection, s.spin
    connection = Connection(calc, conn.values, conn.sigma)
    spin_connection = Connection(calc, spin.spin_connection.values)
    spin = SpinStructure(calc, spin.gamma, spin_connection)
    return replace(s, calculus=calc, connection=connection, spin=spin)


@pytest.mark.parametrize(
    "space, cert_fails", [("s3", {"calculus", "corollaries"}), ("t2", {"calculus"})], ids=["s3", "t2"]
)
def test_verifiers_and_certificate_pin_a_corrupted_projector(request, space, cert_fails):
    bundle = request.getfixturevalue(space)
    h, calc = _corrupted_projector(bundle.hypersurface)
    report = verify_space(replace(bundle, structures=_with_calculus(bundle.structures, calc), hypersurface=h))
    assert {c.name.split("[")[0] for c in report.failures()} == _PROJECTOR_FAILS | cert_fails
    assert _report_sha256(report) == CORRUPTED_PROJECTOR_SHA256[space, "verify_space"]
    cert = check_assumptions(h)
    assert {c.name.split("[")[0] for c in cert.failures()} == cert_fails
    assert _report_sha256(cert.to_report(space)) == CORRUPTED_PROJECTOR_SHA256[space, "certificate"]
    failing = [c.name for c in cert.failures() if c.name.startswith("calculus")]
    assert failing == [f"calculus[{x}]" for x in _PROJECTOR_PREMISE_FAILS[space]]
    assert check_induction(bundle.hypersurface, bundle.structures).all_passed


# -- build-time checks on mutated builds ------------------------------------------
# Three mutants, each corrupting one stored image while a catalog build runs:
# no closed form is compared in a build, and each build still refuses its
# mutant.  tools/mutation_sweep.py runs the full sweep.

def _mutating(monkeypatch, target, space, mutate):
    """Make catalog builds pass the result of catalog.target for `space` through mutate."""
    real = getattr(catalog, target)

    def mutated(*args, **kwargs):
        out = real(*args, **kwargs)
        name = out.quotient_presentation.name if target == "build_hypersurface" else out.presentation.name
        return mutate(out) if name == space else out

    monkeypatch.setattr(catalog, target, mutated)


def test_build_refuses_scaled_s3_braiding(monkeypatch):
    # sigma(dz1 (x) dz2) scaled by q^4
    def mutate(s):
        conn = s.connection
        key = BasisWord((0, 1), None)
        sigma = LeftLinearMap(conn.sigma.presentation, conn.sigma.domain, conn.sigma.codomain,
                              {**conn.sigma.images, key: conn.sigma.images[key].scale(Scalar.q_power(4))})
        return replace(s, connection=Connection(conn.calculus, conn.values, sigma))

    _mutating(monkeypatch, "induced_structures", "s3", mutate)
    with pytest.raises(GoldenMismatch) as exc:
        catalog.build_s3(check=True)
    assert exc.value.label.startswith("s3 verification: symmetry[")


def test_build_refuses_shifted_t2_spin_connection(monkeypatch):
    # nabla^sp(e1) + dz2 (x) e3
    def mutate(s):
        spin = s.spin
        values = dict(spin.spin_connection.values)
        key = BasisWord((), 0)
        values[key] = values[key] + TensorElement.basis(s.presentation, (1,), 2)
        spin = SpinStructure(spin.calculus, spin.gamma, Connection(spin.calculus, values))
        return replace(s, spin=spin)

    _mutating(monkeypatch, "induced_structures", "t2", mutate)
    with pytest.raises(GoldenMismatch) as exc:
        catalog.build_t2(check=True)
    assert exc.value.label.startswith("t2 verification: clifford_compatibility[")


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_build_refuses_scaled_t2_projector(monkeypatch, check):
    # Pi(dz1) scaled by 2: the certificate's calculus family fails, and the
    # gate refuses the build the same way, checked or not
    specs = []

    def mutate(h):
        broken, _ = _corrupted_projector(h, BasisWord((0,), None), Scalar.rational(2))
        specs.append(broken)
        return broken

    _mutating(monkeypatch, "build_hypersurface", "t2", mutate)
    with pytest.raises(HypersurfaceError) as exc:
        catalog.build_t2(check=check)
    assert exc.value.kind == "certificate_failed"
    failing = [c.name for c in specs[0].certificate.failures()]
    assert failing[0] == "calculus[dz1]"
    assert str(exc.value) == f"assumption certificate fails {', '.join(failing)}; induction refused"


@pytest.mark.parametrize("op", ["*2", "*-1", "*q^4"])
@pytest.mark.parametrize("k", range(4))
def test_gate_refuses_each_scaled_t2_projector_image(t2, k, op):
    # no clause of the certificate outside the calculus family sees a scaled
    # Pi(dz_k) image of the torus; that family refuses each one at the gate
    factor = {"*2": Scalar.rational(2), "*-1": Scalar.rational(-1), "*q^4": Scalar.q_power(4)}[op]
    broken, _ = _corrupted_projector(t2.hypersurface, BasisWord((k,), None), factor)
    assert {c.name.split("[")[0] for c in broken.certificate.failures()} == {"calculus"}
    with pytest.raises(HypersurfaceError) as exc:
        induced_structures(broken)
    assert exc.value.kind == "certificate_failed"
    assert f"calculus[dz{k + 1}]" in str(exc.value)


def test_verify_space_report_cannot_change_the_cached_certificate(t2):
    # verify_space reports the certificate's own clauses; a clause refuses
    # assignment, so no reader of the report can close or open the gate
    s3 = catalog.build_s3(check=False)
    h = s3.hypersurface
    want = h.certificate.to_json()
    clause = next(c for c in verify_space(s3).clauses if c.name == "nu_transparency")
    with pytest.raises(AttributeError):
        clause.passed = False
    with pytest.raises(AttributeError):
        del clause.residual
    assert h.certificate.to_json() == want and h.certificate.all_passed
    induced_dirac(h, TensorElement.basis(h.quotient_presentation, (), 0))

    broken, _ = _corrupted_projector(t2.hypersurface, BasisWord((0,), None), Scalar.rational(2))
    want = broken.certificate.to_json()
    failing = next(c for c in verify_space(replace(t2, hypersurface=broken)).clauses if c.name == "calculus[dz1]")
    with pytest.raises(AttributeError):
        failing.passed = True
    assert broken.certificate.to_json() == want and not broken.certificate.all_passed
    with pytest.raises(HypersurfaceError) as exc:
        broken.require_certificate()
    assert exc.value.kind == "certificate_failed"


def test_unchecked_build_refuses_scaled_s3_clifford_action_by_d_paths(monkeypatch):
    # gamma(dz1 (x) e1) scaled by 2: the certificate reads the hypersurface
    # only, so D_paths alone refuses the unchecked build
    def mutate(s):
        spin, key = s.spin, BasisWord((0,), 0)
        gamma = LeftLinearMap(spin.gamma.presentation, spin.gamma.domain, spin.gamma.codomain,
                              {**spin.gamma.images, key: spin.gamma.images[key].scale(Scalar.rational(2))})
        return replace(s, spin=SpinStructure(spin.calculus, gamma, spin.spin_connection))

    _mutating(monkeypatch, "induced_structures", "s3", mutate)
    with pytest.raises(GoldenMismatch) as exc:
        catalog.build_s3(check=False)
    assert exc.value.label.startswith("s3 induction: D_paths[")


def test_committed_mutation_matrix_has_no_golden_only_row():
    # tools/mutation_sweep.py --check recomputes this matrix; here only its
    # committed verdict is read: every mutant a closed form catches, a
    # build-time or verifier family catches too
    matrix = json.loads((Path(__file__).resolve().parents[1] / "tools" / "mutation_matrix.json").read_text())
    golden = set(matrix["columns"]["golden"])
    rows = matrix["rows"]
    assert len(rows) == matrix["summary"]["mutants"]
    assert matrix["golden_only"] == [] and matrix["summary"]["golden_only"] == 0
    assert all(set(caught) - golden for caught in rows.values() if caught)


def test_committed_mutation_matrix_columns_are_the_build_families(s3):
    # the sweep reads these columns from the same reports; a family added to
    # either check changes them, and the committed matrix must be regenerated
    columns = json.loads((Path(__file__).resolve().parents[1] / "tools" / "mutation_matrix.json")
                         .read_text())["columns"]
    assert columns["certificate"] == [c.name for c in s3.hypersurface.certificate.clauses]
    build = check_induction(s3.hypersurface, s3.structures)
    assert columns["build"] == [c.name for c in build.clauses]


# -- torus ---------------------------------------------------------------------

def test_t2_metric_normalization_identity():
    # sum_jl h_ij g^{jl} h_kl = g_ik, the compatibility behind the
    # normalization of the torus normal form
    for i in range(4):
        for k in range(4):
            total = Fraction(0)
            for j in range(4):
                for l in range(4):
                    total += h_lower(i, j) * metric_upper(j, l) * h_lower(k, l)
            assert total == metric_lower(i, k)


def test_t2_nu_normalized(t2):
    h = t2.hypersurface
    got = h.ambient_q.metric.pair(tensor(h.nu_q, h.nu_q))
    assert got == AlgebraElement.one(h.quotient_presentation)


def test_t2_phi_metric_golden(t2):
    dphi1, dphi2 = phi_basis(t2)
    two = AlgebraElement.from_scalar(t2.presentation, Scalar.rational(2))
    zero = AlgebraElement.zero(t2.presentation)
    metric = t2.structures.metric
    assert metric.pair(tensor(dphi1, dphi1)) == two
    assert metric.pair(tensor(dphi2, dphi2)) == two
    assert metric.pair(tensor(dphi1, dphi2)) == zero
    assert metric.pair(tensor(dphi2, dphi1)) == zero


def test_t2_phi_basis_central(t2):
    from ncgdirac.tensors import right_mul

    p = t2.presentation
    canon = t2.structures.calculus.canon
    for dphi in phi_basis(t2):
        fixed = canon(dphi)
        for j in range(4):
            zj = z(p, j)
            assert (canon(right_mul(fixed, zj)) - canon(fixed.left_mul(zj))).is_zero()


def test_t2_dirac_closed_formula(t2):
    # D_C(s) = -1/2 sum [g^j, g^i]_theta (partial_i s z~_j
    #          - sum_k partial_k s z^k z_i z~_j - s z_i z~_j)
    from closed_forms import torus_dirac_closed_form

    h = t2.hypersurface
    p = t2.presentation
    rng = random.Random(59)
    for _ in range(10):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        alpha = rng.randrange(SPINOR_RANK)
        s = e(p, alpha, normal_form(word, Scalar.one(), p))
        assert (induced_dirac(h, s) - torus_dirac_closed_form(t2, s)).is_zero()


def test_dtilde_paths_agree(t2):
    p = t2.presentation
    rng = random.Random(61)
    cases = [e(p, alpha) for alpha in range(SPINOR_RANK)]
    cases += [e(p, alpha, z(p, 0)) for alpha in range(SPINOR_RANK)]
    for _ in range(8):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        cases.append(e(p, rng.randrange(SPINOR_RANK), normal_form(word, Scalar.one(), p)))
    for s in cases:
        d1 = gamma_nu_tilde(t2, induced_dirac(t2.hypersurface, s))
        d2 = dtilde_apply(t2, s)
        assert (d1 - d2).is_zero()


def _rand_polynomial_spinor(p, rng):
    s = TensorElement.zero(p, 0, True)
    for _ in range(rng.randint(1, 4)):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 4))]
        coeff = Scalar.q_power(0, GaussianRational(rng.randint(-3, 3), rng.randint(1, 3)))
        coeff = coeff.q_shift(rng.randint(-4, 4))
        s = s + e(p, rng.randrange(SPINOR_RANK), normal_form(word, coeff, p))
    return s


def test_dtilde_matches_rotated_closed_form(t2):
    # the engine's D~ (one contraction of the induced spin connection) equals
    # the hand-derived phi-basis form, an oracle that shares no code with it,
    # on every sector-basis spinor with |m|,|n| <= 4 and on random polynomials
    from closed_forms import rotated_torus_dirac_closed_form

    from ncgdirac.spectrum import sector_basis

    p = t2.presentation
    cases = [
        e(p, alpha, AlgebraElement(p, {mono: Scalar.one()}))
        for m in range(-4, 5)
        for n in range(-4, 5)
        for mono, alpha in sector_basis(m, n)
    ]
    rng = random.Random(71)
    cases += [_rand_polynomial_spinor(p, rng) for _ in range(30)]
    for s in cases:
        assert dtilde_apply(t2, s) == rotated_torus_dirac_closed_form(t2, s)


def test_torus_operators_reject_foreign_spinor(s3, t2):
    # an element over another presentation is an error, never silently
    # re-reduced; the connections' Leibniz sums must refuse it before any
    # product is taken
    p = s3.presentation
    s = e(p, 0, z(p, 0))
    structures = t2.structures
    conn, spin_conn = structures.connection, structures.spin.spin_connection
    for apply in (
        lambda: dtilde_apply(t2, s),
        lambda: gamma_nu_tilde(t2, s),
        lambda: induced_dirac(t2.hypersurface, s),
        lambda: dirac(structures.spin, s),
        lambda: spin_conn.apply(s),
        lambda: conn.apply(TensorElement.basis(p, (0,), coeff=z(p, 1))),
        lambda: tensor_connection_apply(conn, spin_conn, TensorElement.basis(p, (0,), 2, z(p, 1))),
    ):
        with pytest.raises(ValueError, match="presentation mismatch"):
            apply()


def test_dtilde_refuses_a_bundle_without_hypersurface(r4):
    p = r4.presentation
    with pytest.raises(ValueError, match="not a hypersurface"):
        dtilde_apply(r4, e(p, 0, z(p, 0)))


def test_dtilde_on_the_sphere_is_normal_after_sphere_dirac(s3):
    # on s3 the definition reads gamma(nu (x) D_B(s)), as its docstring says
    p = s3.presentation
    rng = random.Random(73)
    cases = [e(p, alpha, z(p, alpha)) for alpha in range(SPINOR_RANK)]
    cases += [_rand_polynomial_spinor(p, rng) for _ in range(4)]
    for s in cases:
        assert dtilde_apply(s3, s) == gamma_nu_tilde(s3, dirac(s3.structures.spin, s))


def test_gamma_nu_tilde_squares_to_minus_id(t2):
    p = t2.presentation
    rng = random.Random(67)
    for _ in range(10):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        s = e(p, rng.randrange(SPINOR_RANK), normal_form(word, Scalar.one(), p))
        assert (gamma_nu_tilde(t2, gamma_nu_tilde(t2, s)) + s).is_zero()


def test_t2_two_step_chain_verifies_directly(t2):
    assert verify_space(t2).all_passed


def test_build_space_names():
    with pytest.raises(KeyError):
        build_space("klein_bottle")


def test_deformed_gamma_clifford_at_q1():
    # {gamma^i, gamma^j} = -2 g^{ij} for the classical matrices
    from closed_forms import mat_scale

    gam = gamma_theta_matrices(classical=True)
    for i in range(4):
        for j in range(4):
            anti = tuple(
                tuple(x + y for x, y in zip(ra, rb))
                for ra, rb in zip(mat_mul(gam[i], gam[j]), mat_mul(gam[j], gam[i]))
            )
            want = mat_scale(
                tuple(
                    tuple(Scalar.one() if r == c else Scalar.zero() for c in range(4))
                    for r in range(4)
                ),
                Scalar.rational(-2 * metric_upper(i, j)),
            )
            assert anti == want


# -- two routes to one torus ----------------------------------------------------


def _level(p, scale, products, constant):
    """scale * (sum of c z_i z_j over the products (c, i, j), plus constant)."""
    f = AlgebraElement.from_scalar(p, Scalar.rational(constant))
    for c, i, j in products:
        f = f + normal_form([i, j], Scalar.rational(c), p)
    return f.scale(Scalar.rational(scale))


def test_two_routes_to_one_torus_induce_the_same_structures(r4):
    # route A cuts the sphere z1z3 + z2z4 = 1/4 by z1z3 - z2z4 = -7/100, route
    # B the cylinder z1z3 = 9/100 by z2z4 = 4/25: both reach the torus
    # z1z3 = 9/100, z2z4 = 4/25, each step checked.  The gamma images differ
    # (a gauge between the two spinor frames is not known), so only the
    # structures that do not depend on the normal frame are compared
    p = r4.presentation
    sphere = catalog._induce(r4, _level(p, 1, [(1, 0, 2), (1, 1, 3)], Fraction(-1, 4)), "a1", True)
    p_s = sphere.presentation
    a = catalog._induce(sphere, _level(p_s, Fraction(25, 24), [(1, 0, 2), (-1, 1, 3)], Fraction(7, 100)), "a", True)
    cylinder = catalog._induce(r4, _level(p, Fraction(5, 3), [(1, 0, 2)], Fraction(-9, 100)), "b1", True)
    p_c = cylinder.presentation
    b = catalog._induce(cylinder, _level(p_c, Fraction(5, 4), [(1, 1, 3)], Fraction(-4, 25)), "b", True)
    pa, pb = a.presentation, b.presentation
    # the same two rules in opposite order
    rules_a, rules_b = pa.to_json()["ideal"], pb.to_json()["ideal"]
    assert rules_a == rules_b[::-1] and rules_a != rules_b and pa.key() != pb.key()
    sa, sb = a.structures, b.structures
    canon = sb.calculus.canon

    def converted(images):
        return {w: v.convert(pb) for w, v in images.items()}

    assert [x.convert(pb) for x in sa.calculus.basis] == list(sb.calculus.basis)
    assert converted(sa.metric.g_inv.images) == sb.metric.g_inv.images
    assert converted(sa.connection.sigma.images) == sb.connection.sigma.images
    # the induced connection keeps unprojected representatives: compare classes
    assert {w: canon(v) for w, v in converted(sa.connection.values).items()} == {
        w: canon(v) for w, v in sb.connection.values.items()
    }
    assert converted(sa.spin.spin_connection.values) == sb.spin.spin_connection.values
    # D^2 on the lowest sector: the flat torus value 1/r1^2 + 1/r2^2 with r1 = 3/10, r2 = 2/5
    for bundle in (a, b):
        for alpha in range(SPINOR_RANK):
            s = e(bundle.presentation, alpha)
            assert dirac(bundle.structures.spin, dirac(bundle.structures.spin, s)) == s.scale(
                Scalar.rational(Fraction(625, 144))
            )
