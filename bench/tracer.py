"""Spans and counters around calls into each nliealg module.

``Tracer.install`` replaces public functions and methods with wrappers
at run time; nothing under ``src/`` changes.  Modules bind functions
with ``from .x import f``, so every module attribute that holds an
original is patched, not only the defining one.  The hottest calls get a
counter and no span, to keep the overhead down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); the span name's prefix is the layer
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "run_command", "cli.run_command"),
    ("documents", "parse_document", "documents.parse"),
    ("documents", "Report.to_json", "documents.emit"),
    ("documents", "Report.to_text", "documents.emit"),
    ("documents", "emit_document", "documents.emit"),
    ("documents", "algebra_document", "documents.emit"),
    ("documents", "operator_document", "documents.emit"),
    ("documents", "ns_document", "documents.emit"),
    ("documents", "functional_document", "documents.emit"),
    ("documents", "representation_document", "documents.emit"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.rank", "linalg.rank"),
    ("linalg", "Matrix.solve", "linalg.solve"),
    ("linalg", "Matrix.inverse", "linalg.inverse"),
    ("algebra", "check_filippov", "algebra.check_filippov"),
    ("algebra", "check_representation", "algebra.check_representation"),
    ("algebra", "is_derivation", "algebra.is_derivation"),
    ("algebra", "algebra_from_bracket_function", "algebra.tabulate"),
    ("algebra", "adjoint_representation", "algebra.adjoint_representation"),
    ("algebra", "semidirect_product", "algebra.semidirect_product"),
    ("cohomology", "ReynoldsComplex.__init__", "cohomology.complex_init"),
    ("cohomology", "ReynoldsComplex.differential_matrix", "cohomology.differential"),
    ("cohomology", "ReynoldsComplex.dimensions", "cohomology.dimensions"),
    ("cohomology", "reynolds_representation", "cohomology.reynolds_representation"),
    ("reynolds", "check_reynolds", "reynolds.check"),
    ("reynolds", "induced_bracket", "reynolds.induced"),
    ("reynolds", "check_hom_pair", "reynolds.check_hom_pair"),
    ("reynolds", "derivation_to_reynolds", "reynolds.derivation_to_reynolds"),
    ("reynolds", "reynolds_to_derivation", "reynolds.reynolds_to_derivation"),
    ("reynolds", "reynolds_from_nilpotent_derivation", "reynolds.series"),
    ("nijenhuis", "deformed_bracket_ladder", "nijenhuis.ladder"),
    ("nijenhuis", "check_nijenhuis", "nijenhuis.check"),
    ("nijenhuis", "deformed_algebra", "nijenhuis.deformed_algebra"),
    ("ns", "check_ns", "ns.check"),
    ("ns", "ns_from_reynolds", "ns.from_reynolds"),
    ("ns", "ns_from_nijenhuis", "ns.from_nijenhuis"),
    ("ns", "subadjacent", "ns.subadjacent"),
    ("deformation", "is_infinitesimal_deformation", "deformation.infinitesimal"),
    ("deformation", "is_trivial_deformation", "deformation.trivial"),
    ("deformation", "check_equivalence_witness", "deformation.witness"),
    ("constructions", "extend_by_functional", "constructions.extend_by_functional"),
    ("constructions", "reynolds_lift_criterion", "constructions.lift_criterion"),
    ("constructions", "corollary_bracket", "constructions.corollary"),
    ("constructions", "check_assoc_reynolds", "constructions.check_assoc_reynolds"),
    ("constructions", "three_lie_from_f_D", "constructions.det3"),
    ("constructions", "three_lie_from_two_derivations", "constructions.det3"),
    ("constructions", "three_lie_from_three_derivations", "constructions.det3"),
]

# (module, attribute path, counter name)
COUNTERS = [
    ("algebra", "NAryAlgebra.bracket", "algebra.bracket_calls"),
    ("algebra", "NAryAlgebra.bracket_on_basis", "algebra.bracket_on_basis_calls"),
    ("algebra", "fundamental_action", "algebra.fundamental_action_calls"),
    ("wedge", "canonicalize_wedge", "wedge.canonicalize_calls"),
    ("linalg", "Matrix.apply", "linalg.apply_calls"),
    ("cohomology", "coboundary", "cohomology.coboundary_calls"),
    ("cohomology", "Cochain.evaluate", "cohomology.evaluate_calls"),
    ("ns", "NSAlgebra.curly", "ns.curly_calls"),
] + [("rings", f"Dual.{op}", "rings.dual_ops")
     for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")]

# metric name -> span name whose outermost calls it sums
INCLUSIVE = {
    "cohomology.complex_init_s": "cohomology.complex_init",
    "cohomology.differential_s": "cohomology.differential",
    "linalg.matmul_s": "linalg.matmul",
    "linalg.rank_s": "linalg.rank",
    "linalg.solve_s": "linalg.solve",
    "linalg.inverse_s": "linalg.inverse",
    "algebra.check_filippov_s": "algebra.check_filippov",
    "algebra.check_representation_s": "algebra.check_representation",
    "algebra.is_derivation_s": "algebra.is_derivation",
    "algebra.tabulate_s": "algebra.tabulate",
    "deformation.infinitesimal_s": "deformation.infinitesimal",
    "deformation.trivial_s": "deformation.trivial",
    "reynolds.check_s": "reynolds.check",
    "reynolds.induced_s": "reynolds.induced",
    "nijenhuis.ladder_s": "nijenhuis.ladder",
    "nijenhuis.check_s": "nijenhuis.check",
    "ns.check_s": "ns.check",
    "documents.parse_s": "documents.parse",
    "documents.emit_s": "documents.emit",
}
CALLS = {
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.rank_calls": "linalg.rank",
    "reynolds.check_calls": "reynolds.check",
    "ns.check_calls": "ns.check",
    "documents.parse_calls": "documents.parse",
}
SELF = {"constructions.self_s": "constructions", "cli.self_s": "cli"}


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _fingerprint(algebra, op):
    brackets = tuple(sorted((k, tuple(v)) for k, v in algebra.brackets.items()))
    return algebra.arity, algebra.dim, algebra.symmetry, brackets, op.entries


class Tracer:
    """Records spans (name, start, end, parent, job) and counters in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.job = None
        self._seen_checks = set()
        self._patches = []

    # -- patching ----------------------------------------------------------

    def install(self):
        pkg = self.package
        modules = [pkg] + [importlib.import_module(f"{pkg.__name__}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = {
            "linalg.matmul": self._after_matmul,
            "linalg.rank": self._after_rank,
            "cohomology.differential": self._after_differential,
            "documents.parse": self._after_parse,
            "documents.emit": self._after_emit,
        }
        for module, path, name in SPANS:
            make = self._span(name, hooks.get(name))
            if name == "reynolds.check":
                make = self._recheck(make)
            self._patch(modules, by_name[module], path, make)
        for module, path, name in COUNTERS:
            hit = path == "NAryAlgebra.bracket_on_basis"
            self._patch(modules, by_name[module], path, self._counter(name, hit))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, module, path, make):
        owner, attr = _resolve(module, path)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, after):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self.stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    self.spans[index] = (name, start, end, parent, self.job)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _counter(self, name, hit=False):
        counts = self.counts

        def make(fn):
            if hit:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    if any(result):
                        counts["algebra.bracket_hits"] += 1
                    return result
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _recheck(self, make_span):
        """Counts calls on an (algebra, operator) pair the job already checked."""
        def make(fn):
            inner = make_span(fn)

            @functools.wraps(fn)
            def wrapper(algebra, op):
                key = (self.job, _fingerprint(algebra, op))
                if key in self._seen_checks:
                    self.counts["reynolds.rechecks"] += 1
                self._seen_checks.add(key)
                return inner(algebra, op)
            return wrapper
        return make

    # -- per-call work counts ------------------------------------------------

    def _after_matmul(self, args, result):
        left, right = args
        self.counts["linalg.matmul_mults"] += left.rows * left.cols * right.cols

    def _after_rank(self, args, result):
        (mat,) = args
        self.counts["linalg.rank_cells"] += mat.rows * mat.cols
        self.counts["linalg.rank_nnz"] += sum(1 for row in mat.entries for a in row if a)

    def _after_differential(self, args, result):
        self.counts["cohomology.differential_cells"] += result.rows * result.cols
        self.counts["cohomology.differential_nnz"] += sum(1 for row in result.entries for a in row if a)

    def _after_parse(self, args, result):
        source = args[0]
        if isinstance(source, str) and os.path.exists(source):
            self.counts["documents.bytes_in"] += os.path.getsize(source)
        else:
            self.counts["documents.bytes_in"] += len(str(source).encode())

    def _after_emit(self, args, result):
        if isinstance(result, str):
            self.counts["documents.bytes_out"] += len(result.encode())

    # -- reduction -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics over every span and counter recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(i):
            name, parent = spans[i][0], spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return False
                parent = spans[parent][3]
            return True

        inclusive, calls, layer_self = Counter(), Counter(), Counter()
        square_zero = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += end - start - child_time[i]
            if outermost(i):
                inclusive[name] += end - start
            if name == "linalg.matmul" and parent >= 0 and spans[parent][0] == "cohomology.dimensions":
                square_zero += end - start
        c = self.counts
        out = {m: inclusive[s] for m, s in INCLUSIVE.items()}
        out.update({m: calls[s] for m, s in CALLS.items()})
        out.update({m: layer_self[layer] for m, layer in SELF.items()})
        out["cohomology.square_zero_s"] = square_zero
        for name in ("cohomology.coboundary_calls", "cohomology.evaluate_calls",
                     "cohomology.differential_cells", "linalg.matmul_mults", "linalg.apply_calls",
                     "linalg.rank_cells", "linalg.rank_nnz", "algebra.bracket_calls",
                     "algebra.bracket_on_basis_calls", "algebra.fundamental_action_calls",
                     "wedge.canonicalize_calls", "rings.dual_ops", "ns.curly_calls", "documents.bytes_in",
                     "documents.bytes_out"):
            out[name] = c[name]
        out["cohomology.differential_density"] = _ratio(c["cohomology.differential_nnz"],
                                                        c["cohomology.differential_cells"])
        out["algebra.bracket_hit_ratio"] = _ratio(c["algebra.bracket_hits"], c["algebra.bracket_on_basis_calls"])
        out["reynolds.recheck_ratio"] = _ratio(c["reynolds.rechecks"], calls["reynolds.check"])
        return out

    def job_metrics(self, job):
        """The same reduction restricted to the spans of one job."""
        sub = Tracer(self.package)
        keep = {}
        for i, span in enumerate(self.spans):
            if span[4] == job:
                keep[i] = len(sub.spans)
                parent = keep.get(span[3], -1)
                sub.spans.append(span[:3] + (parent, job))
        return sub.metrics()

    def write(self, path, job_keys):
        """Spans as JSON lines: [name, start, end, parent, job key]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job_keys[job]]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
