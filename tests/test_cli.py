import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncgdirac import algebra, catalog, cli
from ncgdirac.cli import EXIT_BAD_INPUT, EXIT_FAILED, EXIT_OK, main
from ncgdirac.catalog import r4_presentation

from kernel_reference import presentation


# sha256 of exact report bytes; every change to these outputs must be named.
# The spectrum section is left out: its values and deviations are floats
# (math.sqrt and math.hypot of the closed form), while these reports are exact.
VERIFY_S3_SHA256 = "13d90232674ecf9e793d6dd106c29cd6f8280cb3a75345de98cb62ee69bb673c"
DIRAC_T2_SHA256 = "4ebf2f4685bcbf4770bf75d36fafb6caf2a79e33fe320d00893224b23a275755"
REPORT_ALL_SPACES_SHA256 = "98446bf25b26fdb24544e6557b0ef08387aa1a50f1421c05ef284985399d6dd2"


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


def test_dirac_command_flat_space(capsys):
    code, out, _ = run(capsys, "dirac", "r4")
    assert code == EXIT_OK
    payload = json.loads(out)
    # the flat spin connection kills basis spinors
    assert all(value["terms"] == [] for value in payload["basis_dirac"].values())


def test_induce_t2(capsys):
    code, out, _ = run(capsys, "induce", "t2", "--emit-structures")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["certificate"]["pass"] is True
    assert payload["nu"]["degree"] == 1


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



# stdout of `verify --presentation` on the catalog quotient presentations, the
# cli benchmark's input, in the default JSON format
PRESENTATION_SHA256 = {
    "s3": "76d7f0f03007604a59eddefe799ea622d8c1e6260f82e498b5854140fc5cbdf9",
    "t2": "b94136bab21dbcfae7d01678d2143fb5ef316f85e7514be3854ee08c4dcd7756",
}


@pytest.mark.parametrize("space", ["s3", "t2"])
def test_catalog_quotient_presentation_verifies(space, tmp_path, capsys):
    path = tmp_path / f"{space}.json"
    path.write_text(json.dumps(presentation(space).to_json()))
    code, out, _ = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [(c["clause"], c["pass"]) for c in payload["clauses"]] == [
        ("normal_form_idempotent", True),
        ("brute_force_oracle_agreement", True),
    ]
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
]


@pytest.mark.parametrize("payload, reason", MALFORMED_PRESENTATIONS)
def test_malformed_presentation_rejected(tmp_path, capsys, payload, reason):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--presentation", str(path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize("command", ["verify-presentation", "dirac-t2"])
def test_exhausted_step_budget_rejected(command, tmp_path, capsys, monkeypatch):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(r4_presentation().to_json()))
    argv = {
        "verify-presentation": ["verify", "--presentation", str(path)],
        "dirac-t2": ["dirac", "t2"],
    }[command]
    monkeypatch.setattr(algebra, "STEP_BUDGET", 3)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "budget" in err


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
