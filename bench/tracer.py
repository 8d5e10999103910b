"""Out-of-program tracing for the ncgdirac benchmark.

Every measurement here is taken from outside the engine: the tracer replaces
public functions and methods of each layer with wrappers, and puts the
originals back afterwards.  A module-level function is replaced in every
``ncgdirac`` module that holds a reference to it (``catalog`` imports
``verify_metric``, so ``catalog.verify_metric`` is patched, not only
``geometry.verify_metric``); a method is replaced on its class, which also
covers the operator slots (``Scalar.__mul__`` serves ``a * b``).

Three kinds of wrapper exist, chosen by how often the target runs:

* ``COUNTED`` -- coefficient arithmetic, millions of calls per build.  Only a
  call count, plus every ``SAMPLE_EVERY``-th operand pair for the
  micro-timings.
* ``TIMED`` -- hot structural operations (products, ``apply_at``, ``canon``).
  A call count and the inclusive time of the outermost call.
* ``STAGES`` -- coarse stages (builds, verifiers, sectors, CLI commands).
  Count and inclusive time as for ``TIMED``, and one span per call with
  name, start, end and parent span.  Self times are computed over these
  spans only, so a stage's self time includes the hot operations it runs.

Spans are kept in memory and written to a JSON file when the run ends.
"""

from __future__ import annotations

import importlib
import json
import operator
import random
import sys
import time
from collections import defaultdict

now_ns = time.perf_counter_ns

SAMPLE_EVERY = 97
SAMPLE_CAP = 2000
NORMAL_FORM_SAMPLE_CAP = 400

# metric key -> (module, qualified name); a dotted name is a class attribute
COUNTED = {
    "scalars.gr_mul": ("scalars", "GaussianRational.__mul__"),
    "scalars.gr_add": ("scalars", "GaussianRational.__add__"),
    "scalars.scalar_mul": ("scalars", "Scalar.__mul__"),
    "scalars.scalar_add": ("scalars", "Scalar.__add__"),
    "scalars.eval_numeric": ("scalars", "Scalar.eval_numeric"),
}
SAMPLED = ("scalars.gr_mul", "scalars.gr_add", "scalars.scalar_mul")

TIMED = {
    "algebra.elem_mul": ("algebra", "AlgebraElement.__mul__"),
    "algebra.normal_form": ("algebra", "normal_form"),
    "tensors.apply_at": ("tensors", "LeftLinearMap.apply_at"),
    "tensors.tensor": ("tensors", "tensor"),
    "tensors.right_mul": ("tensors", "right_mul"),
    "tensors.differential": ("tensors", "differential"),
    "geometry.canon": ("geometry", "Calculus.canon"),
    "geometry.connection_apply": ("geometry", "Connection.apply"),
    "geometry.tensor_connection_apply": ("geometry", "tensor_connection_apply"),
    "catalog.dtilde_apply": ("catalog", "dtilde_apply"),
    "spectrum.truncated_scan": ("spectrum", "_truncated_scan"),
}

STAGES = {
    "catalog.build_r4": ("catalog", "build_r4"),
    "catalog.build_s3": ("catalog", "build_s3"),
    "catalog.build_t2": ("catalog", "build_t2"),
    "catalog.verify_space": ("catalog", "verify_space"),
    "hypersurface.build_hypersurface": ("hypersurface", "build_hypersurface"),
    "hypersurface.check_assumptions": ("hypersurface", "check_assumptions"),
    "hypersurface.induced_structures": ("hypersurface", "induced_structures"),
    "hypersurface.induced_dirac": ("hypersurface", "induced_dirac"),
    "geometry.verify_metric": ("geometry", "verify_metric"),
    "spin.verify_spinorial": ("spin", "verify_spinorial"),
    "algebra.brute_force": ("algebra", "brute_force_normal_form"),
    "spectrum.spectrum_scan": ("spectrum", "spectrum_scan"),
    "spectrum.sector_matrix": ("spectrum", "sector_matrix"),
    "spectrum.eigvals": ("spectrum", "SectorMatrix.eigenvalues"),
    "cli.main": ("cli", "main"),
    "reports.write_report_atomic": ("reports", "write_report_atomic"),
}

def _resolve(module: str, qualname: str):
    mod = importlib.import_module(f"ncgdirac.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(mod, cls_name)
        return cls, attr, cls.__dict__[attr]
    return None, qualname, getattr(mod, qualname)


class Tracer:
    """Installs the wrappers, collects counts, times, spans and operand samples."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = {key: [] for key in SAMPLED}
        self.normal_form_args: list = []
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        for table, factory in ((COUNTED, self._counted), (TIMED, self._timed),
                               (STAGES, self._stage)):
            for key, (module, qualname) in table.items():
                self._patch(module, qualname, lambda fn, attr: factory(key, fn, attr))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, module: str, qualname: str, make_wrapper):
        cls, attr, original = _resolve(module, qualname)
        wrapper = make_wrapper(original, attr)
        if cls is not None:
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != "ncgdirac" and not name.startswith("ncgdirac."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    # -- wrapper factories ---------------------------------------------------

    def _counted(self, key: str, fn, attr: str):
        calls = self.calls
        samples = self.samples.get(key)
        if samples is None:

            def counted(a, b):
                calls[key] += 1
                return fn(a, b)

        else:

            def counted(a, b):
                calls[key] += 1
                if calls[key] % SAMPLE_EVERY == 0 and len(samples) < SAMPLE_CAP:
                    samples.append((a, b))
                return fn(a, b)

        counted.__name__ = attr
        return counted

    def _timed(self, key: str, fn, attr: str):
        calls, total = self.calls, self.inclusive_ns
        depth = [0]
        nf_args = self.normal_form_args if key == "algebra.normal_form" else None

        def timed(*args, **kwargs):
            calls[key] += 1
            if nf_args is not None and len(nf_args) < NORMAL_FORM_SAMPLE_CAP:
                nf_args.append((args, kwargs))
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total[key] += now_ns() - start
                depth[0] = 0

        timed.__name__ = attr
        return timed

    def _stage(self, key: str, fn, attr: str):
        calls, total, spans, stack = self.calls, self.inclusive_ns, self.spans, self._stack
        depth = [0]

        def stage(*args, **kwargs):
            calls[key] += 1
            index = len(spans)
            span = [key, now_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now_ns()
                stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    total[key] += span[2] - span[1]

        stage.__name__ = attr
        return stage

    # -- results -------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Per stage name: summed span duration minus the time its child spans cover."""
        own = defaultdict(int)
        for span in self.spans:
            own[span[0]] += span[2] - span[1]
        for span in self.spans:
            if span[3] >= 0:
                own[self.spans[span[3]][0]] -= span[2] - span[1]
        return dict(own)

    def stage_table(self) -> list[tuple[str, int, float, float]]:
        own = self.self_ns()
        return [
            (key, self.calls[key], self.inclusive_ns[key] / 1e9, own.get(key, 0) / 1e9)
            for key in STAGES
            if self.calls[key]
        ]

    def write_spans(self, path, meta: dict):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "meta": meta,
            "names": names,
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "stages": [
                {"name": key, "calls": calls, "inclusive_s": inc, "self_s": own}
                for key, calls, inc, own in self.stage_table()
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class PresentationTracker:
    """Keeps every Presentation built while active, to read product-cache sizes.

    The caches only gain an entry on a miss, so the summed size after an
    operation is the number of product-cache misses its presentations took.
    """

    def __init__(self):
        self.presentations: list = []
        self._undo = None

    def __enter__(self):
        from ncgdirac.algebra import Presentation

        original = Presentation.__init__
        kept = self.presentations

        def init(p, *args, **kwargs):
            original(p, *args, **kwargs)
            kept.append(p)

        Presentation.__init__ = init
        self._undo = (Presentation, original)
        return self

    def __exit__(self, *exc):
        cls, original = self._undo
        cls.__init__ = original
        return False

    def cache_entries(self, since: int = 0) -> int:
        return sum(len(p._product_cache) for p in self.presentations[since:])


def _loop_ns(pairs, op) -> int:
    start = now_ns()
    for a, b in pairs:
        op(a, b)
    return now_ns() - start


def micro_ns(pairs: list, op, seed: int, rounds: int = 7) -> float:
    """Median ns per ``op(a, b)`` over the sampled pairs, net of loop cost."""
    if not pairs:
        return 0.0
    pairs = list(pairs)
    random.Random(seed).shuffle(pairs)
    per_op = []
    for _ in range(rounds):
        empty = _loop_ns(pairs, operator.is_)
        per_op.append((_loop_ns(pairs, op) - empty) / len(pairs))
    return sorted(per_op)[rounds // 2]


def normal_form_us(calls: list, seed: int, rounds: int = 5) -> float:
    """Median microseconds per untraced normal_form call on the sampled arguments."""
    from ncgdirac.algebra import normal_form

    if not calls:
        return 0.0
    calls = list(calls)
    random.Random(seed).shuffle(calls)
    per_call = []
    for _ in range(rounds):
        start = now_ns()
        for args, kwargs in calls:
            normal_form(*args, **kwargs)
        per_call.append((now_ns() - start) / len(calls) / 1e3)
    return sorted(per_call)[rounds // 2]


def per_layer_metrics(tracer: Tracer, cache_entries: int, import_s: float,
                      overhead_x: float, seed: int) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not reach the layer."""
    calls, inc = tracer.calls, tracer.inclusive_ns
    own = tracer.self_ns()

    def s(key):
        return inc[key] / 1e9

    values = {
        "scalars.gr_mul_calls": calls["scalars.gr_mul"],
        "scalars.gr_add_calls": calls["scalars.gr_add"],
        "scalars.scalar_mul_calls": calls["scalars.scalar_mul"],
        "scalars.scalar_add_calls": calls["scalars.scalar_add"],
        "scalars.eval_numeric_calls": calls["scalars.eval_numeric"],
        "scalars.gr_mul_ns": micro_ns(tracer.samples["scalars.gr_mul"], operator.mul, seed),
        "scalars.gr_add_ns": micro_ns(tracer.samples["scalars.gr_add"], operator.add, seed),
        "scalars.scalar_mul_ns": micro_ns(tracer.samples["scalars.scalar_mul"], operator.mul, seed),
        "algebra.elem_mul_calls": calls["algebra.elem_mul"],
        "algebra.elem_mul_s": s("algebra.elem_mul"),
        "algebra.normal_form_calls": calls["algebra.normal_form"],
        "algebra.normal_form_s": s("algebra.normal_form"),
        "algebra.normal_form_us": normal_form_us(tracer.normal_form_args, seed),
        "algebra.product_cache_entries": cache_entries,
        "algebra.brute_force_s": s("algebra.brute_force"),
        "tensors.apply_at_calls": calls["tensors.apply_at"],
        "tensors.apply_at_s": s("tensors.apply_at"),
        "tensors.tensor_calls": calls["tensors.tensor"],
        "tensors.right_mul_calls": calls["tensors.right_mul"],
        "tensors.differential_calls": calls["tensors.differential"],
        "geometry.canon_calls": calls["geometry.canon"],
        "geometry.canon_s": s("geometry.canon"),
        "geometry.connection_apply_s": s("geometry.connection_apply"),
        "geometry.tensor_connection_apply_s": s("geometry.tensor_connection_apply"),
        "geometry.verify_metric_s": s("geometry.verify_metric"),
        "spin.verify_spinorial_s": s("spin.verify_spinorial"),
        "hypersurface.build_hypersurface_s": s("hypersurface.build_hypersurface"),
        "hypersurface.check_assumptions_s": s("hypersurface.check_assumptions"),
        "hypersurface.induced_structures_s": s("hypersurface.induced_structures"),
        "hypersurface.induced_dirac_calls": calls["hypersurface.induced_dirac"],
        "hypersurface.induced_dirac_s": s("hypersurface.induced_dirac"),
        "catalog.build_self_s": (own.get("catalog.build_s3", 0) + own.get("catalog.build_t2", 0)) / 1e9,
        "catalog.verify_space_s": s("catalog.verify_space"),
        "catalog.dtilde_apply_calls": calls["catalog.dtilde_apply"],
        "catalog.dtilde_apply_s": s("catalog.dtilde_apply"),
        "spectrum.sectors": calls["spectrum.sector_matrix"],
        "spectrum.sector_matrix_s": s("spectrum.sector_matrix"),
        "spectrum.eigvals_s": s("spectrum.eigvals"),
        "spectrum.fallback_scans": calls["spectrum.truncated_scan"],
        "cli.import_s": import_s,
        "cli.main_s": s("cli.main"),
        "reports.write_report_atomic_s": s("reports.write_report_atomic"),
        "trace.overhead_x": overhead_x,
    }
    return values
