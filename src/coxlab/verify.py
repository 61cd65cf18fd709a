"""Named verification suites over a complex.

Each suite adds entries to one Report; an entry carries a stable name, a
pass/fail/inconclusive status, the computed value and a one-line statement
of the property checked.  Reports are deterministic for fixed inputs:
entries are emitted sorted by name and contain no timestamps.

SUITES is the one table of suites: it maps each name, in the order that
`all` runs them, to whether the suite runs on any complex; the others are
pinned to the published 3 x 3 labeling.  relators adds the reduced-model
checks when the complex is the published one.

Every word is read through model.word_action, the exact model's sparse
(sigma, coords) pair; model.SemidirectElement is the reduced layer only,
which _Context.reduced reaches by model.rho_hat.  relators evaluates each
passing Coxeter relator at most once: a cycle is in the kernel when its
sigma moves no plane, and nontrivial before the reduction when its
coordinate dict is not empty.  On the published complex the 12
numerations of each hexagon agree when every one reduces to the
identity, which is what relators.cycle_orientations_agree checks.
model.coxeter_failures applies the support lemma per line, so on a
valid complex no commutation (x y)^2 is evaluated and none is built;
every square, braid and fork is.  The census is derived too: the
commutation count is C(lines, 2) minus the braids, so relators.counts
checks only the counts that 3-regularity implies.

center reads each generator image as ctx.reduced((e,)), the one path
from word_action through rho_hat that the other suites use, and each
conjugating word's transposition off its sigma dict.  Every sigma is the
{plane: image} dict of coxlab.perm, so z is (perm.identity(), z); only a
failing center.witness_permutation spells sigma out as its list of images.

structure decides structure.noncentral_kernel_elements by the semidirect
law, without forming a product.  For a transposition t and a reduced m,
(1, m)(t, 1) = (t, m.act(t)) and (t, 1)(1, m) = (t, m), so (1, m) fails
to commute with some transposition exactly when a or b is not constant
(ReducedElement.is_permutation_invariant).  Its model.SAMPLES elements,
like the nilpotency entry's triples, come from a fixed seed; the seed
draws no central element, so every sample must move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from . import model, presentation
from .complexes import (WITNESS_TRANSPOSITIONS, DegenerationComplex, dual_graph,
                        hexagon_links, is_paper_labeling, spanning_data)
from .perm import identity
from .presentation import cycle_relator
from .words import rotations

SUITES = {"relators": True, "ax": False, "tables": False, "center": False, "structure": False}


@dataclass
class Entry:
    name: str
    status: str     # "pass", "fail" or "inconclusive"
    value: object
    detail: str


@dataclass
class Report:
    command: str
    entries: list[Entry] = field(default_factory=list)

    def add(self, name: str, ok: bool, value, detail: str):
        self.entries.append(Entry(name, "pass" if ok else "fail", value, detail))

    def finalize(self) -> "Report":
        self.entries.sort(key=lambda e: e.name)
        return self

    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "inconclusive": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.entries)

    def exit_code(self) -> int:
        return 1 if self.failed() else 0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "entries": [
                {"name": e.name, "status": e.status, "value": e.value, "detail": e.detail}
                for e in self.entries
            ],
            "summary": self.summary(),
        }


@dataclass
class _Context:
    """The derived data of one complex, each built on first use, so a
    suite pays only for what it reads (structure reads none of it)."""

    x0: DegenerationComplex
    paper: bool

    @cached_property
    def graph(self):
        return dual_graph(self.x0)

    @cached_property
    def links(self):
        return hexagon_links(self.x0)

    @cached_property
    def span(self):
        return spanning_data(self.graph, "paper-fixture" if self.paper else "canonical")

    @cached_property
    def quotient(self):
        return presentation.generate(self.graph, self.links, "quotient")

    def reduced(self, word):
        return model.rho_hat(model.word_action(word, self.span, self.graph), self.span)


def run_suite(x0: DegenerationComplex, suite: str) -> Report:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    paper = is_paper_labeling(x0)
    if not paper and not all(SUITES[name] for name in names):
        raise ValueError(f"suite {suite!r} is defined only for the published 3 x 3 labeling")
    ctx = _Context(x0, paper)
    report = Report(command=f"verify:{suite}")
    for name in names:
        # Looked up by name when it runs, so a wrapper set on the module
        # (the benchmark's tracer) sees each suite's call.
        globals()[f"_suite_{name}"](ctx, report)
    return report.finalize()


def _suite_relators(ctx: _Context, rep: Report) -> None:
    counts = ctx.quotient.counts()
    # A 3-regular graph without parallel edges: three line pairs, hence three
    # braids and three forks, per plane; every other line pair commutes.  The
    # commutation count is derived from the braids, so it adds no check.
    lines, planes = len(ctx.graph.edges), len(ctx.graph.vertices)
    implied = {"squares": lines, "commutations": lines * (lines - 1) // 2 - 3 * planes,
               "braids": 3 * planes, "forks": 3 * planes, "cycles": len(ctx.links)}
    rep.add("relators.counts", all(counts[k] == n for k, n in implied.items()),
            counts, "relator census of the quotient presentation")

    q = ctx.quotient
    bad = model.coxeter_failures(q, ctx.span, ctx.graph)
    rep.add("relators.coxeter_identity", not bad,
            {"checked": counts["total"] - counts["cycles"], "failed": len(bad)},
            "square, commutation, braid and fork relators act trivially in the exact model")

    actions = [model.word_action(w, ctx.span, ctx.graph) for w in q.cycles]
    in_kernel = sum(not sigma for sigma, _ in actions)
    nontrivial = sum(bool(coords) for _, coords in actions)
    rep.add("relators.cycles_in_kernel", in_kernel == len(actions),
            in_kernel, "cyclic relators have trivial permutation part")
    rep.add("relators.cycles_nontrivial_before_reduction",
            nontrivial == len(actions), nontrivial,
            "cyclic relators are nontrivial before the reduction collapses them")

    # Reduced entries on the published complex only: perfbench pins the grid reports.
    if ctx.paper:
        # A word whose exact image is the identity reduces to the identity,
        # so only the failed Coxeter words and the cycles are reduced.
        records = model.relator_report(bad + q.cycles, ctx.span, ctx.graph)
        failed = sum(1 for r in records if r["status"] != "pass")
        rep.add("relators.reduced_identity", failed == 0,
                {"checked": counts["total"], "failed": failed},
                "every quotient relator maps to the identity of the reduced model")
        ok = all(ctx.reduced(cycle_relator(orient)).is_identity() for link in ctx.links
                 for orient in (*rotations(link.cycle), *rotations(link.cycle[::-1])))
        rep.add("relators.cycle_orientations_agree", ok, 12 * len(ctx.links),
                "all 12 numerations of each hexagon give the same reduced value")


def _suite_ax(ctx: _Context, rep: Report) -> None:
    for label, word in sorted(presentation.ax_fixture().items()):
        value = ctx.reduced(word)
        rep.add(f"ax.{label}", value.is_identity(),
                "identity" if value.is_identity() else value.part.to_json(),
                "fixed miscellaneous relator evaluates to the identity")


def _suite_tables(ctx: _Context, rep: Report) -> None:
    pairs = presentation.nonrel_fixture()
    cov = presentation.coverage_counts(ctx.quotient, pairs, ctx.graph)
    rep.add("tables.pair_split", (cov["pairs_total"], cov["disjoint"], cov["adjacent"]) == (351, 297, 54),
            {k: cov[k] for k in ("pairs_total", "disjoint", "adjacent")},
            "all 351 edge pairs split 297 disjoint and 54 adjacent")
    rep.add("tables.missing_count", cov["missing"] == 43 and cov["pairs_total"] - 308 == 43,
            cov["missing"], "exactly 43 pairs carry no order relation up front")
    rep.add("tables.missing_split",
            (cov["missing_disjoint"], cov["missing_adjacent"]) == (33, 10),
            {k: cov[k] for k in ("missing_disjoint", "missing_adjacent")},
            "the 43 missing pairs split 33 disjoint and 10 adjacent")
    rep.add("tables.given_split",
            (cov["disjoint_given"], cov["adjacent_given"]) == (264, 44),
            {k: cov[k] for k in ("disjoint_given", "adjacent_given")},
            "308 pairs are given: 264 commutations and 44 order-3 pairs")

    table = presentation.classify_missing(pairs, ctx.links)
    expected = presentation.EXPECTED_MISSING_ROLES
    rep.add("tables.role_table", table == expected,
            {str(p): sorted(v) for p, v in sorted(table.items())},
            "role classification of the missing pairs matches the recorded table row for row")
    diagonal_free = all(
        role not in ("c", "f")
        for point, roles in table.items() for pair in roles for role in pair)
    rep.add("tables.no_diagonal_roles", diagonal_free, diagonal_free,
            "no missing pair involves a diagonal role at its shared point")


def _suite_center(ctx: _Context, rep: Report) -> None:
    witness = model.center_witness(ctx.span, ctx.graph)
    part, sigma = witness.value.part, witness.value.sigma
    generates = part.is_central_power() and part.zeta in (1, -1)
    rep.add("center.witness_value", generates,
            {"zeta": part.zeta} if generates else part.to_json(),
            "the commutator word evaluates to a generator of the centre")
    rep.add("center.witness_permutation", not sigma,
            [sigma.get(i, i) for i in range(1, len(part.a) + 1)] if sigma else "identity",
            "the centre witness has trivial permutation part")
    expected = {k: set(v) for k, v in WITNESS_TRANSPOSITIONS.items()}
    got = {k: v and set(v) for k, v in witness.tau_images.items()}
    rep.add("center.tau_images", got == expected,
            {k: v and sorted(v) for k, v in sorted(witness.tau_images.items())},
            "the conjugating words land on the recorded transpositions")

    n = len(ctx.graph.vertices)
    z = model.SemidirectElement(identity(), model.ReducedElement.z(n))
    commuting = sum(
        1 for e in sorted(ctx.graph.edges)
        if z.commutes_with(ctx.reduced((e,))))
    rep.add("center.z_commutes", commuting == len(ctx.graph.edges), commuting,
            "z commutes with all 27 generator images")


def _suite_structure(ctx: _Context, rep: Report) -> None:
    n = len(ctx.x0.planes)
    matrix = model.kernel_relation_matrix(n)
    rank, torsion = model.abelianization(matrix, len(matrix[0]))
    rep.add("structure.abelianization_rank", rank == 34, rank,
            "the abelianized kernel is free of rank 34")
    rep.add("structure.abelianization_torsion", torsion == [], torsion,
            "the abelianized kernel has no torsion")

    nil = model.nilpotency_class_check(n)
    rep.add("structure.nilpotency_class", nil["nilpotency_class"] == 2, nil,
            "sampled kernel triples witness nilpotency class exactly 2")

    rng = random.Random(18)
    moved = sum(not model.random_kernel_element(rng, n).is_permutation_invariant()
                for _ in range(model.SAMPLES))
    rep.add("structure.noncentral_kernel_elements", moved == model.SAMPLES,
            {"samples": model.SAMPLES, "moved": moved},
            "every sampled kernel element outside the centre fails to commute with some transposition")
