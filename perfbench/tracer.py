"""Per-layer tracing of coxlab, installed from the benchmark's own files.

``Tracer.install()`` replaces public functions of each coxlab module with
timing wrappers, in every coxlab namespace that holds them, so each call
that crosses into a layer opens a span.  Nothing under ``src/`` changes;
the wrappers exist only in the traced process.

A span records its job, its parent span, the function, start and end.
Functions called once per letter or per pair (``HOT``) keep only counts
and times, no span.  A layer's self time is the duration of its calls
minus the time covered by calls into other wrapped functions.  A named
time metric sums the outermost calls of its functions, so a call nested
in another call of the same metric is not counted twice.

Per-layer values are means per traced job; ratios are taken over totals.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# Layer -> wrapped attributes of coxlab.<layer>.
LAYERS = {
    "cli": ["main"],
    "complexes": ["complex_from_json", "is_paper_labeling", "load_paper_labeling",
                  "build_torus_triangulation", "dual_graph", "hexagon_links",
                  "spanning_data", "witness_words"],
    "fixtures": ["load_json", "load_ax_relations", "load_nonrel_pairs"],
    "presentation": ["generate", "presentation_from_json", "ax_fixture", "nonrel_fixture",
                     "classify_missing", "coverage_counts", "cycle_relator"],
    "model": ["evaluate_word_semidirect", "phi_table", "rho_hat", "relator_report",
              "center_witness", "kernel_generators", "kernel_relation_matrix",
              "abelianization", "random_kernel_element", "nilpotency_class_check",
              "ModelElement.commutes_with"],
    "perm": ["compose", "identity", "transposition"],
    "words": ["clean", "reduce_with_commutations", "derive_bounded"],
    "snf": ["smith_normal_form", "abelian_invariants"],
    "cosets": ["enumerate_cosets", "check_result"],
    # The per-suite functions are private; they are the only place where
    # the suites of `verify --suite all` can be told apart.
    "verify": ["run_suite", "_suite_relators", "_suite_ax", "_suite_tables",
               "_suite_center", "_suite_structure"],
}

HOT = {"perm.compose", "perm.identity", "perm.transposition", "model.ModelElement.commutes_with"}

SUITES = ("relators", "ax", "tables", "center", "structure")

# Time metric -> functions whose outermost calls it sums.
TIMES = {
    "complexes.load_s": ["complexes.complex_from_json", "complexes.is_paper_labeling"],
    "complexes.build_s": ["complexes.build_torus_triangulation"],
    "complexes.graph_s": ["complexes.dual_graph", "complexes.hexagon_links", "complexes.spanning_data"],
    "fixtures.load_s": ["fixtures.load_json"],
    "presentation.generate_s": ["presentation.generate"],
    "model.eval_s": ["model.evaluate_word_semidirect"],
    "model.rho_s": ["model.rho_hat"],
    "model.kernel_s": ["model.kernel_generators", "model.kernel_relation_matrix",
                       "model.abelianization", "model.random_kernel_element",
                       "model.nilpotency_class_check"],
    "perm.compose_s": ["perm.compose"],
    "words.clean_s": ["words.clean"],
    "words.reduce_s": ["words.reduce_with_commutations"],
    "words.derive_s": ["words.derive_bounded"],
    "snf.s": ["snf.smith_normal_form"],
    "cosets.enumerate_s": ["cosets.enumerate_cosets"],
    "cosets.check_s": ["cosets.check_result"],
    **{f"verify.{suite}_s": [f"verify._suite_{suite}"] for suite in SUITES},
}

# Count metric -> function whose calls it counts.
CALLS = {
    "fixtures.loads": "fixtures.load_json",
    "model.eval_calls": "model.evaluate_word_semidirect",
    "model.rho_calls": "model.rho_hat",
    "perm.compose_calls": "perm.compose",
    "words.reduce_calls": "words.reduce_with_commutations",
}


def _observe_planes(counts, args, result):
    counts["complexes.planes"] = max(counts["complexes.planes"], len(result.planes))


def _observe_generate(counts, args, result):
    counts["presentation.relators"] += len(result.relator_words())


def _observe_eval(counts, args, result):
    counts["model.eval_letters"] += len(args[0])


def _observe_clean(counts, args, result):
    counts["words.clean_passes"] += result.passes


def _observe_derive(counts, args, result):
    counts["words.derive_explored"] += result.explored
    counts["words.derive_calls"] += 1
    counts["words.derive_found"] += result.found


def _observe_snf(counts, args, result):
    matrix = args[0]
    counts["snf.cells"] += len(matrix) * len(matrix[0]) if matrix else 0


def _observe_enumerate(counts, args, result):
    counts["cosets.allocated"] += result.allocated
    if result.status == "finite":
        counts["cosets.finite_index"] += result.index
        counts["cosets.finite_allocated"] += result.allocated


def _observe_suite(counts, args, result):
    counts["verify.entries"] += len(result.entries)
    counts["verify.failed_entries"] += sum(e.status == "fail" for e in result.entries)


OBSERVERS = {
    "complexes.complex_from_json": _observe_planes,
    "complexes.build_torus_triangulation": _observe_planes,
    "presentation.generate": _observe_generate,
    "model.evaluate_word_semidirect": _observe_eval,
    "words.clean": _observe_clean,
    "words.derive_bounded": _observe_derive,
    "snf.smith_normal_form": _observe_snf,
    "cosets.enumerate_cosets": _observe_enumerate,
    "verify.run_suite": _observe_suite,
}

# Per-layer metric -> unit, in report order.
UNITS = {
    "complexes.load_s": "s", "complexes.build_s": "s", "complexes.graph_s": "s",
    "complexes.planes": "count",
    "fixtures.loads": "count", "fixtures.load_s": "s",
    "presentation.generate_s": "s", "presentation.relators": "count",
    "model.eval_calls": "count", "model.eval_letters": "count", "model.eval_s": "s",
    "model.letters_per_s": "1/s", "model.rho_calls": "count", "model.rho_s": "s",
    "model.kernel_s": "s",
    "perm.compose_calls": "count", "perm.compose_s": "s",
    "words.clean_s": "s", "words.clean_passes": "count", "words.reduce_calls": "count",
    "words.reduce_s": "s", "words.derive_s": "s", "words.derive_explored": "count",
    "words.derive_found_ratio": "1",
    "snf.s": "s", "snf.cells": "count",
    "cosets.enumerate_s": "s", "cosets.allocated": "count", "cosets.defined_per_s": "1/s",
    "cosets.index_per_allocated": "1", "cosets.check_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "verify.entries": "count", "verify.failed_entries": "count",
    "cli.stdout_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (job, id, parent id, function, start, end)
        self.stack: list[list] = []         # open calls: [span id, time covered by children]
        self.jobs: list[Counter] = []       # per-job counts
        self.calls: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._depth: Counter = Counter()
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._groups = defaultdict(list)
        for metric, functions in TIMES.items():
            for name in functions:
                self._groups[name].append(metric)

    def start_job(self):
        self.jobs.append(Counter())

    def install(self):
        """Wrap every traced function in each coxlab namespace that holds it."""
        for layer, attrs in LAYERS.items():
            module = importlib.import_module(f"coxlab.{layer}")
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = getattr(target, leaf)
                wrapped = self._wrap(original, f"{layer}.{attr}", layer)
                self._patch(target, leaf, wrapped)
                if owner:
                    continue
                for name, other in list(sys.modules.items()):
                    if name.startswith("coxlab.") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, key, wrapped)

    def uninstall(self):
        """Put back every original function."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def _patch(self, target, key, value):
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def _wrap(self, fn, name, layer):
        stack, spans, depth = self.stack, self.spans, self._depth
        groups, observe = self._groups[name], OBSERVERS.get(name)
        hot, ids = name in HOT, self._ids
        tracer = self

        def traced(*args, **kwargs):
            for metric in groups:
                depth[metric] += 1
            span_id = None if hot else next(ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[name] += 1
                for metric in groups:
                    depth[metric] -= 1
                    if not depth[metric]:
                        tracer.times[metric] += duration
                if not hot:
                    spans.append((len(tracer.jobs) - 1, span_id, parent, name, start, end))
            if observe is not None:
                observe(tracer.jobs[-1], args, result)
            return result

        return traced

    def summary(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics as means per traced job, ratios over totals."""
        njobs = max(1, len(self.jobs))
        counts = Counter()
        for job in self.jobs:
            counts.update(job)
        out = {metric: self.times[metric] for metric in TIMES}
        out.update({metric: self.calls[name] for metric, name in CALLS.items()})
        out.update({f"{layer}.self_s": self.self_s[layer] for layer in LAYERS})
        for key in ("complexes.planes", "presentation.relators", "model.eval_letters",
                    "words.clean_passes", "words.derive_explored", "snf.cells",
                    "cosets.allocated", "verify.entries", "verify.failed_entries"):
            out[key] = counts[key]
        out["cli.stdout_bytes"] = stdout_bytes
        out = {key: value / njobs for key, value in out.items()}
        out["model.letters_per_s"] = _ratio(counts["model.eval_letters"], self.times["model.eval_s"])
        out["words.derive_found_ratio"] = _ratio(counts["words.derive_found"], counts["words.derive_calls"])
        out["cosets.defined_per_s"] = _ratio(counts["cosets.allocated"], self.times["cosets.enumerate_s"])
        out["cosets.index_per_allocated"] = _ratio(counts["cosets.finite_index"],
                                                   counts["cosets.finite_allocated"])
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for job, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"job": job, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")
