"""Mutation sweep: which checks catch a corrupted stored image of s3 or t2.

Each mutant changes one stored image of one induced structure of the sphere
or the torus: g(1), an image of g^-1, sigma (stored once, as its own
inverse), nabla, gamma or nabla^sp, or an image Pi(dz_k) of the tangential
projector.  The operators are *2, *-1 and *q^4, and the addition of one free
basis word of the image's codomain (dz_k (x) dz_l for a 2-form, dz_k (x) e_b
for nabla^sp, e_b for a gamma image, dz_k for Pi, 1 for g^-1).

Every check runs on every mutant as if it were the only check:

- verify_space: the families of verify_metric and verify_spinorial;
- certificate: the families of the assumption certificate (check_assumptions),
  whose calculus family is the one check of the projector premise;
- build: the one family of check_induction, D_paths, which every catalog
  build runs;
- golden: the closed-form comparisons of tests/closed_forms.py, by label
  family (sigma_B, gamma_C, pi_T2, ...).

The verify_space, certificate and build column names are read from the
reports of the built s3, so a family added to a check gets its column.  A
Pi mutant replaces the hypersurface's pi only, which derives its calculus
and computes its certificate on the mutated hypersurface, and is induced
again on that calculus, past the certificate gate.  The certificate reads the hypersurface only, so every other
mutant keeps the built one.  A mutant that leaves its image unchanged (a
scaled zero image) is marked unchanged; no check can catch it.

A row is golden-only when a golden family catches it and no other check
does.  Write the matrix, or recompute it and compare with a committed one
(exit status 1 on a difference or on any golden-only row):

    python3 tools/mutation_sweep.py --out tools/mutation_matrix.json
    python3 tools/mutation_sweep.py --check tools/mutation_matrix.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from closed_forms import check_goldens, replace  # noqa: E402
from ncgdirac.catalog import SpaceBundle, build_s3, build_t2, verify_space  # noqa: E402
from ncgdirac.geometry import Connection, Metric  # noqa: E402
from ncgdirac.hypersurface import check_induction, induced_structures  # noqa: E402
from ncgdirac.scalars import Scalar  # noqa: E402
from ncgdirac.spin import SpinStructure  # noqa: E402
from ncgdirac.tensors import LeftLinearMap, TensorElement, all_basis_words, word_key  # noqa: E402

SCALINGS = (("*2", Scalar.rational(2)), ("*-1", Scalar.rational(-1)), ("*q^4", Scalar.q_power(4)))


def _family(name: str) -> str:
    return name.split("[")[0]


def _targets(bundle):
    """(target, key, stored image, rebuild) for every stored image of the bundle.

    rebuild(new_image) returns the mutated (hypersurface, structures).
    """
    h, s = bundle.hypersurface, bundle.structures
    conn, metric, spin = s.connection, s.metric, s.spin

    def with_image(m: LeftLinearMap, key, image) -> LeftLinearMap:
        return LeftLinearMap(m.presentation, m.domain, m.codomain, {**m.images, key: image})

    def rebuild_pi(key, image):
        mutated = replace(h, pi=with_image(h.pi, key, image))
        own, mutated.certificate = mutated.certificate, h.certificate  # past the gate, as if no other check ran
        structures = induced_structures(mutated)
        mutated.certificate = own
        return mutated, structures

    maps = {
        "g^-1": (metric.g_inv, lambda g_inv: replace(s, metric=Metric(metric.g_element, g_inv))),
        "sigma": (conn.sigma, lambda sigma: replace(
            s, connection=Connection(conn.calculus, conn.values, sigma))),
        "gamma": (spin.gamma, lambda gamma: replace(
            s, spin=SpinStructure(spin.calculus, gamma, spin.spin_connection))),
    }
    values = {
        "nabla": (conn.values, lambda v: replace(
            s, connection=Connection(conn.calculus, v, conn.sigma))),
        "nabla^sp": (spin.spin_connection.values, lambda v: replace(
            s, spin=SpinStructure(spin.calculus, spin.gamma, Connection(spin.calculus, v)))),
    }
    yield "g", "1", metric.g_element, lambda img: (h, replace(s, metric=Metric(img, metric.g_inv)))
    for target in ("g^-1", "sigma", "nabla", "gamma", "nabla^sp", "Pi"):
        if target == "Pi":
            for key in sorted(h.pi.images, key=word_key):
                yield target, repr(key), h.pi.images[key], lambda img, key=key: rebuild_pi(key, img)
        elif target in maps:
            m, make = maps[target]
            for key in sorted(m.images, key=word_key):
                yield target, repr(key), m.images[key], (
                    lambda img, m=m, make=make, key=key: (h, make(with_image(m, key, img)))
                )
        else:
            stored, make = values[target]
            for key in sorted(stored, key=word_key):
                yield target, repr(key), stored[key], (
                    lambda img, stored=stored, make=make, key=key: (h, make({**stored, key: img}))
                )


def _mutants(bundle):
    p = bundle.presentation
    for target, key, image, rebuild in _targets(bundle):
        for op, factor in SCALINGS:
            yield f"{bundle.name} {target}[{key}] {op}", image, image.scale(factor), rebuild
        for w in all_basis_words(p, *image.shape()):
            added = image + TensorElement.basis(p, w.forms, w.spin)
            yield f"{bundle.name} {target}[{key}] +{w!r}", image, added, rebuild


def _caught(bundle, h, structures) -> set[str]:
    """The columns whose check fails on the mutated hypersurface and structures."""
    mutant = SpaceBundle(bundle.name, structures, h, bundle.base_matrices)
    caught = {_family(c.name) for c in verify_space(mutant).failures()}
    # past induced_dirac's certificate gate, as a build that reached its checks is
    gate, h.certificate = h.certificate, bundle.hypersurface.certificate
    try:
        caught |= {_family(c.name) for c in check_induction(h, structures).failures()}
    finally:
        h.certificate = gate

    def expect(label, got, want):
        if not (got - want).is_zero():
            caught.add("golden:" + _family(label))

    check_goldens(mutant, expect)
    return caught


def sweep() -> dict:
    bundles = (build_s3(), build_t2())
    golden_columns = set()
    for bundle in bundles:
        check_goldens(bundle, lambda label, got, want: golden_columns.add("golden:" + _family(label)))
    s3 = bundles[0]
    certificate = [c.name for c in s3.hypersurface.certificate.clauses]
    columns = {
        "verify_space": [c.name for c in verify_space(s3).clauses if c.name not in certificate],
        "certificate": certificate,
        "build": [c.name for c in check_induction(s3.hypersurface, s3.structures).clauses],
        "golden": sorted(golden_columns),
    }
    order = [c for group in columns.values() for c in group]
    rows, unchanged = {}, []
    for bundle in bundles:
        for name, before, after, rebuild in _mutants(bundle):
            if after == before:
                unchanged.append(name)
                rows[name] = []
                continue
            caught = _caught(bundle, *rebuild(after))
            unknown = caught - set(order)
            if unknown:
                raise RuntimeError(f"{name}: unexpected columns {sorted(unknown)}")
            rows[name] = [c for c in order if c in caught]
    golden = set(columns["golden"])
    golden_only = [name for name, caught in rows.items() if caught and set(caught) <= golden]
    uncaught = [name for name, caught in rows.items() if not caught and name not in unchanged]
    return {
        "columns": columns,
        "summary": {
            "mutants": len(rows),
            "unchanged": len(unchanged),
            "uncaught_changed": len(uncaught),
            "golden_only": len(golden_only),
            "caught_by_column": {c: sum(c in caught for caught in rows.values()) for c in order},
        },
        "golden_only": golden_only,
        "uncaught_changed": uncaught,
        "unchanged": unchanged,
        "rows": rows,
    }


def dumps(result: dict) -> str:
    """JSON with one line per row, so a changed row shows as one changed line."""
    head = {k: v for k, v in result.items() if k != "rows"}
    text = json.dumps(head, indent=2)[:-2]
    rows = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in result["rows"].items())
    return f'{text},\n  "rows": {{\n{rows}\n  }}\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the catch matrix to this file")
    mode.add_argument("--check", help="recompute and compare with this committed matrix")
    args = parser.parse_args(argv)
    result = sweep()
    summary = result["summary"]
    print(
        f"{summary['mutants']} mutants, {summary['unchanged']} unchanged, "
        f"{summary['uncaught_changed']} changed but uncaught, {summary['golden_only']} golden-only"
    )
    for name in result["golden_only"]:
        print(f"golden-only: {name}: {result['rows'][name]}")
    if args.out:
        Path(args.out).write_text(dumps(result))
        return 1 if result["golden_only"] else 0
    committed = json.loads(Path(args.check).read_text())
    status = 1 if result["golden_only"] else 0
    for key in ("columns", "summary", "golden_only", "uncaught_changed", "unchanged"):
        if committed.get(key) != result[key]:
            print(f"differs from the committed matrix: {key}")
            status = 1
    for name in sorted(set(committed["rows"]) | set(result["rows"])):
        if committed["rows"].get(name) != result["rows"].get(name):
            print(f"row differs: {name}: committed {committed['rows'].get(name)}, now {result['rows'].get(name)}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
