"""What the commands reach: every function in src/coxlab runs under some
command, and the commands load nothing outside the standard library.

Both tests read one run of tests/command_tour.py in a fresh interpreter.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxlab"
TOUR = Path(__file__).resolve().parent / "command_tour.py"

# Functions that no command reaches, each with the ROADMAP item that
# removes it.  "Benchmark" means perfbench/workloads.py calls it, or its
# tracer wraps it, so no source change may delete it before item 2.
UNREACHED_ALLOWED = {
    "model.phi_table",                  # benchmark; item 2, then item 8
    "model.evaluate_word_semidirect",   # benchmark; item 2, then item 8
    "words.clean",                      # benchmark; item 2, then item 8
    "words.CleanReport.to_json",        # benchmark's clean digest; item 8
    "words.reduce_with_commutations",   # benchmark, inside clean; item 8
    "words.derive_bounded",             # benchmark's hexagon replays; items 1 and 8
    "words._substitution_rules",        # inside derive_bounded; item 8
    "words.free_reduce_involutive",     # inside clean and derive_bounded; item 8
    "presentation.Presentation.relator_words",  # benchmark tracer (_observe_generate); item 2
}


def defined_functions() -> dict[tuple[str, int], str]:
    """{(path under src/coxlab, first line of its code): qualified name} of
    every def in the package.  A decorated function's code starts at its first
    decorator, as co_firstlineno reports it."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(key, first)] = prefix + child.name
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        key = path.relative_to(PACKAGE).as_posix()
        module = path.parent.name if path.stem == "__init__" else path.stem
        visit(ast.parse(path.read_text(encoding="utf-8")), module + ".")
    return out


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    proc = subprocess.run([sys.executable, str(TOUR), str(tmp_path_factory.mktemp("tour"))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_command_of_the_tour_succeeds(tour):
    assert [argv for argv, code in tour["exit_codes"] if code != 0] == []
    assert {argv[0] for argv, _ in tour["exit_codes"]} == {"build", "present", "verify", "enumerate"}


def test_every_package_function_is_reached_by_a_command(tour):
    defined = defined_functions()
    # Module and class bodies, lambdas and comprehensions also run; only
    # the defs are counted.
    reached = {tuple(key) for key in tour["reached"]}
    unreached = {name for key, name in defined.items() if key not in reached}
    assert sorted(unreached - UNREACHED_ALLOWED) == [], "helpers that no command reaches"
    assert sorted(UNREACHED_ALLOWED - unreached) == [], "allowed entries that a command reaches"


def test_commands_load_only_the_standard_library(tour):
    foreign = [name for name in tour["modules"]
               if name.partition(".")[0] not in sys.stdlib_module_names
               and name != "coxlab" and not name.startswith("coxlab.")]
    assert foreign == []
    assert "coxlab.cli" in tour["modules"]
