import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ncgdirac import algebra, catalog, cli
from ncgdirac.cli import EXIT_BAD_INPUT, EXIT_FAILED, EXIT_OK, main
from ncgdirac.catalog import r4_presentation

from kernel_reference import letters, presentation


# sha256 of exact report bytes; every change to these outputs must be named.
# The spectrum section is left out: its values and deviations are floats
# (math.sqrt and math.hypot of the closed form), while these reports are exact.
VERIFY_S3_SHA256 = "c649c33a0a91d382002505554861862b4300402ebf9ed51565d95412fd1037cd"
DIRAC_T2_SHA256 = "4ebf2f4685bcbf4770bf75d36fafb6caf2a79e33fe320d00893224b23a275755"
REPORT_ALL_SPACES_SHA256 = "5c543fb411ab6f342e08304a5eba4e0bd9ec1e84abf036f0deacca2ada677fe4"
INDUCE_SHA256 = {
    "s3": "71a3d01b6fed6f86cd9eb987073bf1f8854755d68eb8e644c3c7e8d1d4a7c1d7",
    "t2": "9ccd7a91598f193b6e0285dc1106a233aa21fdaa95990c03c40e49b9d3c91f52",
}
# the stored maps that induce --emit-structures leaves out: each
# hypersurface's Pi, and the flat space's g^-1, sigma and gamma
UNEMITTED_MAPS_SHA256 = "95ec2ac41071c01234e8d2845f07095a4ef62aa9200e186c87deebe898e42ed5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_r4(capsys):
    code, out, _ = run(capsys, "verify", "r4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any(c["clause"] == "clifford_relations" for c in payload["clauses"])


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "r4", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "r4: PASS"
    assert lines[1] == "  [ok ] g_central"


def test_verify_writes_report_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "r4", "--out", str(target))
    assert code == EXIT_OK
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_report_file_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    # the report gets the mode a plain open() would give it, not mkstemp's 0600
    target = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        code, _, _ = run(capsys, "verify", "r4", "--out", str(target))
    finally:
        os.umask(previous)
    assert code == EXIT_OK
    assert target.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize(
    "target, reason",
    [("missing/report.json", "No such file or directory"), ("directory", "Is a directory")],
    ids=["missing-parent", "directory"],
)
def test_out_errors_name_the_given_path(tmp_path, capsys, target, reason):
    # the message names the path given, not the temporary file, and none is left behind
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, "verify", "r4", "--out", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: cannot write report to {str(path)!r}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
    assert list((tmp_path / "directory").iterdir()) == []


def test_verify_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "verify", "s3", "--out", str(a))
    run(capsys, "verify", "s3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert sha256(a.read_bytes()) == VERIFY_S3_SHA256


def test_induce_s3_emit_structures(capsys, s3):
    from ncgdirac.algebra import AlgebraElement
    from ncgdirac.catalog import metric_lower
    from ncgdirac.scalars import Scalar
    from ncgdirac.tensors import TensorElement, tensor

    code, out, _ = run(capsys, "induce", "s3", "--emit-structures")
    assert code == EXIT_OK
    assert sha256(out.encode()) == INDUCE_SHA256["s3"]
    payload = json.loads(out)
    assert payload["space"] == "s3"
    # nabla_B(dz1) = -z1 sum g_kl dz_k (x) dz_l, emitted as its projected
    # canonical representative
    p = s3.presentation
    want = TensorElement.zero(p, 2)
    for k in range(4):
        for l in range(4):
            v = metric_lower(k, l)
            if v:
                want = want + tensor(
                    TensorElement.basis(p, (k,)), TensorElement.basis(p, (l,))
                ).scale(Scalar.rational(v))
    want = s3.structures.calculus.canon(
        want.left_mul(AlgebraElement.generator(p, 0)).scale(Scalar.rational(-1))
    )
    assert payload["connection"]["dz1"] == want.to_json()
    assert "certificate" in payload and payload["certificate"]["pass"] is True


def test_induce_rejects_flat_space(capsys):
    code, _, err = run(capsys, "induce", "r4")
    assert code == EXIT_BAD_INPUT
    assert "'s3'" in err and "'t2'" in err


def test_dirac_command_t2(capsys):
    code, out, _ = run(capsys, "dirac", "t2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["basis_dirac"]) == {"e1", "e2", "e3", "e4"}
    assert sha256(out.encode()) == DIRAC_T2_SHA256


# numpy is only a cross-check of the certified spectrum: the CLI imports
# without it, and the commands run with numpy unimportable on the catalog torus
NO_NUMPY_SCRIPT = """
import sys
import ncgdirac.cli
if "numpy" in sys.modules:
    sys.exit("numpy imported by ncgdirac.cli")
sys.modules["numpy"] = None
sys.exit(ncgdirac.cli.main(sys.argv[1:]))
"""


def test_cli_runs_without_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def run_without_numpy(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SCRIPT, *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        return proc.stdout

    assert sha256(run_without_numpy("dirac", "t2")) == DIRAC_T2_SHA256
    report = json.loads(run_without_numpy("report-all"))
    spaces = json.dumps(report["spaces"], indent=2, sort_keys=True)
    assert sha256(spaces.encode()) == REPORT_ALL_SPACES_SHA256
    assert report["spectrum"]["certificate"]["pass"] is True
    scan = json.loads(run_without_numpy("spectrum", "t2", "--mmax", "2"))
    assert scan["certificate"]["pass"] is True and len(scan["eigenvalues"]) == 4 * 25


# the engine and the CLI import none of these modules, which only cost
# start-up time (dataclasses alone pulls in inspect, ast and dis; numpy is
# only the spectrum's cross-check); -S keeps site from preloading typing and
# tempfile, and report-all --out imports tempfile when it writes
START_UP_SCRIPT = """
import sys
import ncgdirac
import ncgdirac.cli
loaded = [m for m in ("dataclasses", "inspect", "typing", "tempfile", "numpy") if m in sys.modules]
if loaded:
    sys.exit(f"imported by ncgdirac.cli: {', '.join(loaded)}")
sys.exit(ncgdirac.cli.main(sys.argv[1:]))
"""


def test_cli_imports_no_start_up_only_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_SCRIPT, "report-all", "--out", str(out)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    report = json.loads(out.read_text())
    spaces = json.dumps(report["spaces"], indent=2, sort_keys=True)
    assert sha256(spaces.encode()) == REPORT_ALL_SPACES_SHA256
    assert report["spectrum"]["certificate"]["pass"] is True


def test_dirac_command_flat_space(capsys):
    code, out, _ = run(capsys, "dirac", "r4")
    assert code == EXIT_OK
    payload = json.loads(out)
    # the flat spin connection kills basis spinors
    assert all(value["terms"] == [] for value in payload["basis_dirac"].values())


def test_induce_t2(capsys):
    code, out, _ = run(capsys, "induce", "t2", "--emit-structures")
    assert code == EXIT_OK
    assert sha256(out.encode()) == INDUCE_SHA256["t2"]
    payload = json.loads(out)
    assert payload["certificate"]["pass"] is True
    assert payload["nu"]["degree"] == 1


def test_unemitted_stored_maps_are_pinned(r4, s3, t2):
    maps = {
        "r4 g_inverse": r4.structures.metric.g_inv,
        "r4 sigma": r4.structures.connection.sigma,
        "r4 gamma": r4.structures.spin.gamma,
        "s3 pi": s3.hypersurface.pi,
        "t2 pi": t2.hypersurface.pi,
    }
    payload = {
        name: {
            "domain": list(m.domain),
            "codomain": list(m.codomain),
            "images": cli._basis_values_json(m.images),
        }
        for name, m in maps.items()
    }
    assert sha256(json.dumps(payload, sort_keys=True).encode()) == UNEMITTED_MAPS_SHA256


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "t2", "--theta", "0.7", "--mmax", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_deviation"] < 1e-9
    assert payload["fallback_used"] is False


def test_spectrum_requires_torus(capsys):
    code, _, err = run(capsys, "spectrum", "s3")
    assert code == EXIT_BAD_INPUT
    assert "t2" in err


def test_spectrum_defaults_to_torus(capsys):
    code, out, _ = run(capsys, "spectrum", "--mmax", "0")
    assert code == EXIT_OK
    assert json.loads(out)["mmax"] == 0


def test_spectrum_text_format(capsys):
    code, out, _ = run(capsys, "spectrum", "t2", "--mmax", "0", "--format", "text")
    assert code == EXIT_OK
    assert "max_deviation" in out


def test_malformed_arguments(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == EXIT_BAD_INPUT


def test_user_presentation_verifies(tmp_path, capsys):
    doc = r4_presentation().to_json()
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True


def test_user_presentation_non_confluent_fails(tmp_path, capsys):
    # two rules rewriting the same normal-ordered pair inconsistently
    doc = r4_presentation().to_json()
    doc["ideal"] = [
        {"lhs": [0, 2], "rhs": [{"exps": [0, 0, 0, 0], "coeff": {"terms": [[0, "1", "0"]]}}]},
        {
            "lhs": [0, 1, 2],
            "rhs": [{"exps": [0, 0, 0, 0], "coeff": {"terms": [[0, "1", "0"]]}}],
        },
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_FAILED
    payload = json.loads(out)
    assert not payload["pass"]
    assert [c["clause"] for c in payload["clauses"]] == [
        "critical_pairs[homogeneity: rule 2 (z1*z2*z3) past z1]",
        "critical_pairs[homogeneity: rule 2 (z1*z2*z3) past z3]",
        "critical_pairs[overlap: rules 1 (z1*z3) and 2 (z1*z2*z3)]",
    ]



# stdout of `verify --presentation` on the catalog quotient presentations, the
# cli benchmark's input, in the default JSON format
PRESENTATION_SHA256 = {
    "s3": "167963501f7fe096991bc4aaadb93c418a080131ec6c0a9532520907f7c699ba",
    "t2": "dd7474d2287241556a3e42b5885d52187f4060135cbfd8654639f36ac7f0a458",
}


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_catalog_quotient_presentation_verifies(space, tmp_path, capsys):
    path = tmp_path / f"{space}.json"
    path.write_text(json.dumps(presentation(space).to_json()))
    code, out, _ = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [(c["clause"], c["pass"]) for c in payload["clauses"]] == [("critical_pairs", True)]
    assert sha256(out.encode()) == PRESENTATION_SHA256[space]


def _doc(**changes):
    doc = r4_presentation().to_json()
    doc.update(changes)
    return doc


def _rule(lhs, exps=(0, 0, 0, 0), term=(0, "1", "0")):
    return {"lhs": lhs, "rhs": [{"exps": list(exps), "coeff": {"terms": [list(term)]}}]}


MALFORMED_PRESENTATIONS = [
    pytest.param([], "JSON object", id="top-level-list"),
    pytest.param(_doc(R=5), "R must be", id="R-not-a-list"),
    pytest.param(_doc(R=[5, 5, 5, 5]), "R must be", id="R-row-not-a-list"),
    pytest.param(_doc(R=[[{"terms": None}] * 4] * 4), "'terms' list", id="terms-null"),
    pytest.param(_doc(ideal=[_rule([0, 7])]), "generator index", id="letter-too-large"),
    pytest.param(_doc(ideal=[_rule([0, -1])]), "generator index", id="letter-negative"),
    pytest.param(_doc(ideal=[_rule([0, True])]), "generator index", id="letter-boolean"),
    pytest.param(_doc(ideal=[_rule([0, 2], (0, -1, 0, 0))]), "negative exp", id="negative-exps"),
    pytest.param(_doc(generators=0, R=[]), "at least one generator", id="no-generators"),
    pytest.param(_doc(generators=None), "malformed presentation", id="generators-null"),
    pytest.param(_doc(ideal=5), "malformed presentation", id="ideal-not-a-list"),
    pytest.param(_doc(ideal=[{"lhs": [0, 2], "rhs": None}]), "malformed", id="rhs-null"),
    pytest.param(_doc(ideal=[_rule([0], (2, 0, 0, 0))]), "not below", id="non-terminating-rule"),
    pytest.param(_doc(generators=4.5), "JSON integer", id="generators-float"),
    pytest.param(_doc(ideal=[_rule([0, 2], (0.7, 0, 0, 0))]), "JSON integer", id="exps-float"),
    pytest.param(_doc(ideal=[_rule([0, 2], (True, 0, 0, 0))]), "JSON integer", id="exps-boolean"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, 0.1, "0"))]), "[k, re, im]", id="re-number"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, "1"))]), "[k, re, im]", id="term-pair"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0.5, "1", "0"))]), "[k, re, im]", id="q-exp-float"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(True, "1", "0"))]), "[k, re, im]", id="q-exp-boolean"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, "1/0", "0"))]), "zero denominator", id="re-zero-denominator"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, "1e5", "0"))]), "p/q", id="re-exponent"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, "0", "0.5"))]), "p/q", id="im-decimal"),
    pytest.param(_doc(ideal=[_rule([0, 2], term=(0, "1" * 5000, "0"))]), "out of range", id="re-5000-digits"),
    pytest.param({"name": "x", "R": []}, "missing field 'generators'", id="generators-missing"),
    pytest.param({"name": "x", "generators": 4}, "missing field 'R'", id="R-missing"),
    pytest.param(_doc(ideal=[{"rhs": []}]), "missing field 'lhs'", id="lhs-missing"),
    pytest.param(_doc(ideal=[{"lhs": [0, 2]}]), "missing field 'rhs'", id="rhs-missing"),
    pytest.param(
        _doc(ideal=[{"lhs": [0, 2], "rhs": [{"coeff": {"terms": [[0, "1", "0"]]}}]}]),
        "missing field 'exps'",
        id="exps-missing",
    ),
    pytest.param(
        _doc(ideal=[{"lhs": [0, 2], "rhs": [{"exps": [0, 0, 0, 0]}]}]),
        "missing field 'coeff'",
        id="coeff-missing",
    ),
    # a repeated key used to be read as its last entry: 1 + 1 as R[0][0] = 1,
    # and a rule rhs 1*z2 + 2*z2 as 2*z2
    pytest.param(
        {"name": "x", "generators": 1, "R": [[{"terms": [[0, "1", "0"], [0, "1", "0"]]}]]},
        "repeat the q-exponent 0",
        id="scalar-q-exponent-repeated",
    ),
    pytest.param(
        {
            "name": "x",
            "generators": 2,
            "R": [[{"terms": [[0, "1", "0"]]}] * 2] * 2,
            "ideal": [{"lhs": [0, 0], "rhs": [
                {"exps": [0, 1], "coeff": {"terms": [[0, "1", "0"]]}},
                {"exps": [0, 1], "coeff": {"terms": [[0, "2", "0"]]}},
            ]}],
        },
        "monomial [0, 1] appears twice",
        id="rhs-monomial-repeated",
    ),
]


@pytest.mark.parametrize("payload, reason", MALFORMED_PRESENTATIONS)
def test_malformed_presentation_rejected(tmp_path, capsys, payload, reason):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize(
    "name, json_type",
    [
        ({"a": 1}, "an object"),
        (7, "a number"),
        (None, "null"),
        (json.loads("[" * 500 + "]" * 500), "an array"),
    ],
    ids=["object", "number", "null", "list-500-deep"],
)
def test_presentation_name_must_be_a_string(tmp_path, capsys, name, json_type):
    # a name that is no string used to be taken as it was, and its Python
    # repr became the report subject; the error names its type, not the value
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(_doc(name=name)))
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: malformed presentation: name must be a string, not {json_type}\n"


@pytest.mark.parametrize(
    "ideal, field",
    [
        ({"a": _rule([0, 2])}, "ideal must be a list, not an object"),
        (["z1*z3"], "rule 1 must be an object, not a string"),
        ([_rule([0, 2]), {"lhs": 3, "rhs": []}], "rule 2: lhs must be a list of generators"),
        ([{"lhs": [0, 2], "rhs": [[[]]]}], 'rule 1: rhs must be a list of {"exps", "coeff"} objects'),
        ([{"lhs": [0, 2], "rhs": [{"exps": 5, "coeff": {"terms": [[0, "1", "0"]]}}]}],
         "rule 1: rhs term 1: exps must be a list of JSON integers"),
        ([_rule([0, 2]), {"lhs": [1, 3], "rhs": [_rule([0])["rhs"][0], {"exps": [0, 1, 0, 0]}]}],
         "rule 2: rhs term 2: missing field 'coeff'"),
    ],
    ids=["ideal-object", "rule-string", "lhs-integer", "rhs-nested-list", "exps-integer", "coeff-missing"],
)
def test_malformed_rule_is_named_with_its_field(tmp_path, capsys, ideal, field):
    # each shape used to exit 2 with a TypeError's text, naming neither the
    # rule nor the field; rules are numbered from 1, as critical_pairs does
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(_doc(ideal=ideal)))
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: malformed presentation: {field}\n"
    assert "indices must be" not in err and "not iterable" not in err


def test_deeply_nested_presentation_rejected(tmp_path, capsys):
    # json.load recurses once per level, so this file used to end in a
    # RecursionError traceback with status 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply to read\n"


def test_repeated_q_exponent_is_named_once_not_as_out_of_range(tmp_path, capsys):
    # Scalar.from_json is the one check of a repeated q-exponent; the reader
    # passes its message on, naming the scalar and the exponent
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"name": "x", "generators": 1, "R": [[{"terms": [[0, "1", "0"], [0, "1", "0"]]}]]}))
    code, _, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert err == "error: scalar terms [[0, '1', '0'], [0, '1', '0']] repeat the q-exponent 0\n"


@pytest.mark.parametrize(
    "text, member",
    [
        # json.load alone read R[0][0] as the last R's 1, not the first's 2
        pytest.param(
            '{"name": "x", "generators": 1, "R": [[{"terms": [[0, "2", "0"]]}]], '
            '"R": [[{"terms": [[0, "1", "0"]]}]]}',
            "R",
            id="top-level",
        ),
        pytest.param(
            '{"name": "x", "generators": 1, "R": [[{"terms": [[0, "2", "0"]], '
            '"terms": [[0, "1", "0"]]}]]}',
            "terms",
            id="nested",
        ),
    ],
)
def test_repeated_json_member_rejected(tmp_path, capsys, text, member):
    # json.dumps cannot write a repeated member, so the file is raw text
    path = tmp_path / "pres.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: JSON object repeats the member {member!r}\n"


def test_oversized_generator_count_is_refused_before_any_rule(tmp_path, capsys):
    # each rule allocates one exponent per declared generator, so R's shape is
    # checked first: a few bytes may not ask for a 10**12-entry list
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": 10**12, "R": [], "ideal": [{"lhs": [0], "rhs": []}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: R must be an n x n scalar matrix\n"


@pytest.mark.parametrize("command", ["verify-presentation", "dirac-t2"])
def test_exhausted_step_budget_rejected(command, tmp_path, capsys, monkeypatch):
    # t2's critical pairs take 30 steps; r4 has no rules, so no pair to charge
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(presentation("t2").to_json()))
    argv = {
        "verify-presentation": ["verify", "--presentation", str(path)],
        "dirac-t2": ["dirac", "t2"],
    }[command]
    monkeypatch.setattr(algebra, "STEP_BUDGET", 3)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "budget" in err


def test_many_rules_exhaust_the_step_budget_quickly(tmp_path, capsys, monkeypatch):
    # 3,059 rules z^m -> 0, every monomial of degree 1 to 14: their
    # homogeneity words take 149,324 letters, and the about 4.7 million
    # overlaps are each charged the letters of their lcm, so the budget stops
    # the check a few thousand overlaps in, not after every pair
    monos = [m for d in range(1, 15) for m in itertools.product(range(d + 1), repeat=4) if sum(m) == d]
    assert len(monos) == 3059
    path = tmp_path / "many.json"
    path.write_text(json.dumps(_doc(ideal=[{"lhs": letters(m), "rhs": []} for m in monos])))
    monkeypatch.setattr(algebra, "STEP_BUDGET", 200_000)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--presentation", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: rewrite step budget of 200000 steps exceeded\n"


def test_user_presentation_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--presentation", "/nonexistent/pres.json")
    assert code == EXIT_BAD_INPUT
    assert err


def test_report_all(tmp_path, capsys):
    target = tmp_path / "all.json"
    code, _, _ = run(capsys, "report-all", "--mmax", "1", "--out", str(target))
    assert code == EXIT_OK
    payload = json.loads(target.read_text())
    assert set(payload["spaces"]) == {"r4", "s3", "t2"}
    assert payload["spectrum"]["max_deviation"] < 1e-9
    spaces = json.dumps(payload["spaces"], indent=2, sort_keys=True)
    assert sha256(spaces.encode()) == REPORT_ALL_SPACES_SHA256


def test_report_all_induces_each_space_once(tmp_path, capsys, monkeypatch):
    # report-all induces t2 from the s3 bundle it has just built and verified
    names = []
    build_hypersurface = catalog.build_hypersurface

    def counted(ambient, f, name=""):
        names.append(name)
        return build_hypersurface(ambient, f, name=name)

    monkeypatch.setattr(catalog, "build_hypersurface", counted)
    code, _, _ = run(capsys, "report-all", "--mmax", "0", "--out", str(tmp_path / "all.json"))
    assert code == EXIT_OK
    assert names == ["s3", "t2"]


def test_report_all_builds_r4_once(tmp_path, capsys, monkeypatch):
    # s3 is induced from the r4 bundle that report-all has just built and
    # verified; a call through either module's name is counted
    calls = []
    build_r4 = catalog.build_r4

    def counted(*args, **kwargs):
        calls.append(args)
        return build_r4(*args, **kwargs)

    monkeypatch.setattr(catalog, "build_r4", counted)
    monkeypatch.setattr(cli, "build_r4", counted)
    target = tmp_path / "all.json"
    code, _, _ = run(capsys, "report-all", "--mmax", "0", "--out", str(target))
    assert code == EXIT_OK
    assert calls == [()]
    spaces = json.dumps(json.loads(target.read_text())["spaces"], indent=2, sort_keys=True)
    assert sha256(spaces.encode()) == REPORT_ALL_SPACES_SHA256


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--theta", "nan"], "theta must be finite"),
        (["spectrum", "--theta=-inf"], "theta must be finite"),
        (["report-all", "--theta", "inf"], "theta must be finite"),
        (["spectrum", "--mmax", "-1"], "mmax must be nonnegative"),
        (["report-all", "--mmax", "-1"], "mmax must be nonnegative"),
    ],
    ids=[
        "spectrum-nan", "spectrum-minus-inf", "report-all-inf",
        "spectrum-negative-mmax", "report-all-negative-mmax",
    ],
)
def test_non_finite_theta_rejected(argv, message, capsys, monkeypatch):
    # the arguments are refused before any space is built
    def no_build(*args, **kwargs):
        raise AssertionError("a space was built before the scan arguments were checked")

    monkeypatch.setattr(cli, "build_space", no_build)
    monkeypatch.setattr(cli, "build_t2", no_build)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: {message}\n"
