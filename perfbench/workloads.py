"""Workload inputs, jobs and output checks of the coxlab benchmark.

A workload is a list of jobs that one caller runs in a closed loop.  Job
inputs come from the seed alone; coxlab receives only the generated
inputs (random words, grid shapes, subgroup words and capacities), never
the seed.  A job goes through ``coxlab.cli.main([...], --json)`` with
stdout captured wherever the CLI exposes the call, and through the
library's public functions otherwise.  Every job checks its output and
raises CheckFailed on a mismatch.

All coxlab calls go through module attributes (``cli.main``,
``words.clean``, ...) so that the tracer in ``tracer.py`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

from coxlab import cli, complexes, cosets, fixtures, model, presentation, words

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_FILE = os.path.join(HERE, "goldens.json")

# Grid shapes with one plane count (2mn = 48), so every shape has 72
# generators and the same relator census.
GRID_SHAPES = ((3, 8), (4, 6), (6, 4), (8, 3))
# Square grids of the one-shot scaling diagnostic (diagnose.py).
DIAGNOSTIC_SHAPES = ((3, 3), (4, 4), (5, 5), (6, 6))

# Random words of the paper workload: pairs per job and letters per word.
PAPER_WORD_PAIRS = 20
PAPER_WORD_LENGTH = 40
PAPER_GENERATORS = 27
# The four hexagon relations rederived from local relators plus one AX relator.
HEXAGON_REPLAYS = (("AX1", 1), ("AX3", 4), ("AX4", 6), ("AX2", 9))
# The finite enumerations of the paper and their indices.
FINITE_ENUMERATIONS = (("s4_remark.json", 24), ("hexagon_quotient.json", 720))

# Capped enumeration of the infinite hexagon group.
COSET_CAPACITIES = range(140_000, 160_001, 1_000)
AFFINE_GENERATORS = 6


class CheckFailed(Exception):
    """A job's output differs from what the seed code produces."""


@dataclass
class JobResult:
    stdout_bytes: int = 0
    steps: dict[str, float] = field(default_factory=dict)


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clean_digest(report: words.CleanReport) -> str:
    return digest(json.dumps(report.to_json(), sort_keys=True))


def load_goldens() -> dict:
    with open(GOLDENS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def _step(result: JobResult, name: str):
    """Record the wall time of one named step of a job, for the diagnostic."""
    start = time.perf_counter()
    yield
    result.steps[name] = time.perf_counter() - start


def run_cli(result: JobResult, *argv: str) -> str:
    """Run one coxlab command in-process and return its stdout; it must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    result.stdout_bytes += len(text.encode("utf-8"))
    check(code == 0, f"coxlab {argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
    return text


# -- paper: every claim on the published 3 x 3 complex ------------------------

@dataclass
class PaperJob:
    word_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]


def _random_word(rng: random.Random, length: int, letters) -> tuple[int, ...]:
    return tuple(rng.choice(letters) for _ in range(length))


def prepare_paper(rng: random.Random, workdir: str, njobs: int) -> list[PaperJob]:
    _write_json(os.path.join(workdir, "paper.json"), complexes.load_paper_labeling().to_json())
    for name, _ in FINITE_ENUMERATIONS:
        _write_json(os.path.join(workdir, name), fixtures.load_json(name))
    letters = range(1, PAPER_GENERATORS + 1)
    return [
        PaperJob([(_random_word(rng, PAPER_WORD_LENGTH, letters),
                   _random_word(rng, PAPER_WORD_LENGTH, letters))
                  for _ in range(PAPER_WORD_PAIRS)])
        for _ in range(njobs)
    ]


def run_paper(job: PaperJob, workdir: str, goldens: dict) -> JobResult:
    result = JobResult()
    gold = goldens["paper"]
    paper = os.path.join(workdir, "paper.json")

    with _step(result, "verify_all"):
        out = run_cli(result, "verify", "--complex", paper, "--suite", "all", "--json")
        check(digest(out) == gold["verify_all"], "verify --suite all report differs from the golden")

    x0 = complexes.complex_from_json(read_json(paper))
    graph, links = complexes.dual_graph(x0), complexes.hexagon_links(x0)
    with _step(result, "derive"):
        plain = presentation.generate(graph, links, "plain")
        by_point = {link.point: link for link in links}
        for label, point in HEXAGON_REPLAYS:
            local = set(by_point[point].cycle)
            known = [(e, e) for e in local]
            known += [w for w in plain.commutations + plain.braids if set(w) <= local]
            known.append(presentation.ax_fixture()[label])
            found = words.derive_bounded(known, presentation.cycle_relator(by_point[point].cycle),
                                         max_len=40).found
            check(found, f"no derivation of the hexagon relation at point {point}")

    with _step(result, "clean"):
        quotient = os.path.join(workdir, "quotient.json")
        run_cli(result, "present", "--complex", paper, "--variant", "quotient", "--out", quotient, "--json")
        relators = [tuple(w) for w in read_json(quotient)["relators"]]
        report = words.clean(relators + list(presentation.ax_fixture().values()))
        check(clean_digest(report) == gold["clean"], "clean report differs from the golden")

    with _step(result, "enumerate"):
        table_file = os.path.join(workdir, "table.json")
        for name, index in FINITE_ENUMERATIONS:
            pres = os.path.join(workdir, name)
            out = run_cli(result, "enumerate", "--presentation", pres,
                          "--table-out", table_file, "--json")
            info = json.loads(out)
            check(info["status"] == "finite" and info["index"] == index,
                  f"{name}: expected index {index}, got {info['status']} {info['index']}")
            data = read_json(pres)
            enumeration = cosets.EnumerationResult("finite", info["index"], info["table_size"],
                                                   read_json(table_file)["table"])
            check(cosets.check_result(enumeration, data["generators"], data["relators"]),
                  f"{name}: coset table fails check_result")

    with _step(result, "words"):
        span = complexes.spanning_data(graph, "paper-fixture")
        table = model.phi_table(span, graph)

        def reduced(word):
            exact = model.evaluate_word_semidirect(word, span, graph, table)
            return model.rho_hat(exact, span)

        for u, v in job.word_pairs:
            check(reduced(u + v) == reduced(u) * reduced(v),
                  f"reduced image of u.v is not the product of the images, u={u}, v={v}")
    return result


# -- grid: one generated torus end to end -------------------------------------

@dataclass
class GridJob:
    rows: int
    cols: int


def prepare_grid(rng: random.Random, workdir: str, njobs: int) -> list[GridJob]:
    return [GridJob(*rng.choice(GRID_SHAPES)) for _ in range(njobs)]


def grid_outputs(job: GridJob, workdir: str, result: JobResult) -> tuple[str, words.CleanReport]:
    """The relators report and the clean report of one grid, step-timed."""
    grid = os.path.join(workdir, "grid.json")
    quotient = os.path.join(workdir, "grid_quotient.json")
    with _step(result, "build"):
        out = run_cli(result, "build", "--rows", str(job.rows), "--cols", str(job.cols),
                      "--out", grid, "--json")
        planes = json.loads(out)["planes"]
        check(planes == 2 * job.rows * job.cols, f"{job.rows} x {job.cols} grid has {planes} planes")
    with _step(result, "present"):
        run_cli(result, "present", "--complex", grid, "--variant", "quotient", "--out", quotient, "--json")
    with _step(result, "verify_relators"):
        report = run_cli(result, "verify", "--complex", grid, "--suite", "relators", "--json")
    with _step(result, "clean"):
        relators = [tuple(w) for w in read_json(quotient)["relators"]]
        cleaned = words.clean(relators)
    return report, cleaned


def run_grid(job: GridJob, workdir: str, goldens: dict) -> JobResult:
    result = JobResult()
    report, cleaned = grid_outputs(job, workdir, result)
    gold = goldens["grid"][f"{job.rows}x{job.cols}"]
    check(digest(report) == gold["verify_relators"],
          f"{job.rows} x {job.cols}: relators report differs from the golden")
    check(clean_digest(cleaned) == gold["clean"],
          f"{job.rows} x {job.cols}: clean report differs from the golden")
    return result


# -- cosets: capped enumeration of the infinite hexagon group ------------------

@dataclass
class CosetsJob:
    subgroup: str
    capacity: int


def prepare_cosets(rng: random.Random, workdir: str, njobs: int) -> list[CosetsJob]:
    _write_json(os.path.join(workdir, "hexagon_affine.json"), fixtures.load_json("hexagon_affine.json"))
    jobs = []
    for _ in range(njobs):
        # Words over five of the six generators lie in a finite parabolic
        # subgroup, which has infinite index: the enumeration never closes.
        omitted = rng.randint(1, AFFINE_GENERATORS)
        letters = [g for g in range(1, AFFINE_GENERATORS + 1) if g != omitted]
        subgroup = [_random_word(rng, rng.randint(1, 5), letters) for _ in range(rng.randint(1, 3))]
        jobs.append(CosetsJob(" ".join(",".join(map(str, w)) for w in subgroup),
                              rng.choice(COSET_CAPACITIES)))
    return jobs


def run_cosets(job: CosetsJob, workdir: str, goldens: dict) -> JobResult:
    result = JobResult()
    out = run_cli(result, "enumerate", "--presentation", os.path.join(workdir, "hexagon_affine.json"),
                  "--subgroup", job.subgroup, "--capacity", str(job.capacity), "--json")
    info = json.loads(out)
    check(info["status"] == "inconclusive" and info["table_size"] == job.capacity,
          f"expected capacity-exceeded at {job.capacity}, got {info['status']} "
          f"with {info['table_size']} cosets")
    return result


PREPARE = {"paper": prepare_paper, "grid": prepare_grid, "cosets": prepare_cosets}
RUN = {"paper": run_paper, "grid": run_grid, "cosets": run_cosets}
