"""Command-line front end.

    coxlab build      construct a complex and write it as JSON
    coxlab present    emit a presentation from a complex file
    coxlab verify     run a named verification suite
    coxlab enumerate  count cosets of a presented group

Human-readable summaries go to stdout; --json switches to a canonical
machine-readable report (sorted keys, no timestamps).  Exit codes:
0 success or inconclusive, 1 verification failure (a failed entry, or a
coset table that fails its check), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

from . import cosets, fixtures, presentation, verify
from .complexes import (build_torus_triangulation, complex_from_json,
                        dual_graph, hexagon_links, load_paper_labeling)
from .words import Word, word_from_json

USAGE_ERROR = 2
# Items of a long list (relator or coset-table rows, the rows of a large
# grid's id tables) encoded by one json.dumps call.
ROWS_PER_CHUNK = 256
# glibc's mallopt parameter and its default value.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


@functools.cache
def _fix_mmap_threshold():
    """Turn off glibc's sliding mmap threshold for this process.

    glibc maps blocks above the threshold and, when it frees one, raises
    the threshold to that block's size.  After one enumeration's coset
    columns are freed, the next enumeration's would grow on the heap,
    where a realloc may copy them, and the peak memory of a process that
    runs many enumerations would depend on what else lies on the heap.
    Setting the threshold explicitly, at its default, keeps every large
    column mapped.
    Other C libraries are left as they are.  Only enumerate calls this,
    so no other command loads ctypes.
    """
    import ctypes
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, OSError, fixtures.CorruptFixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory for this input", file=sys.stderr)
        return USAGE_ERROR


class _InputError(Exception):
    """The user's input is unusable; main reports it and exits 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coxlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a torus triangulation complex")
    grid = p.add_argument_group("grid")
    grid.add_argument("--rows", type=int)
    grid.add_argument("--cols", type=int)
    p.add_argument("--paper-fixture", action="store_true",
                   help="use the published 3 x 3 labeling instead of a generated grid")
    p.add_argument("--out", help="write the complex JSON here")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("present", help="emit a presentation from a complex")
    p.add_argument("--complex", required=True, dest="complex_file")
    p.add_argument("--variant", choices=presentation.VARIANTS, default="quotient")
    p.add_argument("--out", help="write the presentation JSON here")
    p.add_argument("--fixtures-out", help="also export the bundled fixtures into this directory")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--complex", required=True, dest="complex_file")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate cosets of a presented group")
    p.add_argument("--presentation", required=True, dest="presentation_file")
    p.add_argument("--subgroup", default="",
                   help="subgroup generator words: letters comma-separated, words space-separated")
    p.add_argument("--capacity", type=int, default=cosets.DEFAULT_CAPACITY)
    p.add_argument("--table-out", help="dump the standardized coset table here")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_enumerate)
    return parser


def _json_text(value, pad: str = ""):
    """The text of json.dumps(value, sort_keys=True, indent=1), in pieces.

    pad is the indent of the line on which value starts.  A dict whose
    keys are all str recurses, with sorted keys.  An iterator, or a list or
    tuple longer than ROWS_PER_CHUNK, is encoded that many items at a time
    and written as a list, so the relators, a coset table or any long
    list of records is never held whole; an iterator is read once.  A
    list of non-empty int rows goes through json.dumps without indent,
    which runs in the C encoder, and the row breaks are then indented.
    Anything else is json.dumps itself, indented by pad.  So the text is
    byte for byte what json.dump writes.
    """
    inner = pad + " "
    if isinstance(value, dict) and {*map(type, value)} == {str}:
        head = "{\n" + inner
        for key, item in sorted(value.items()):
            yield head + encode_basestring_ascii(key) + ": "
            yield from _json_text(item, inner)
            head = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, Iterator) or isinstance(value, (list, tuple)) and len(value) > ROWS_PER_CHUNK:
        items, head = iter(value), "[\n" + inner
        while chunk := list(islice(items, ROWS_PER_CHUNK)):
            text = "".join(_json_text(chunk, pad))
            # Drop the chunk's own brackets and the line breaks beside them.
            yield head + text[len(inner) + 2:-len(pad) - 2]
            head = ",\n" + inner
        # Nothing written: the empty list.
        yield "[]" if head[0] == "[" else "\n" + pad + "]"
    elif isinstance(value, (list, tuple)) and _int_rows(value):
        cell = inner + " "
        text = json.dumps(value, separators=(",\n" + cell, ": "))
        row_break = "\n" + inner + "],\n" + inner + "[\n" + cell
        yield ("[\n" + inner + "[\n" + cell + text[2:-2].replace("],\n" + cell + "[", row_break)
               + "\n" + inner + "]\n" + pad + "]")
    else:
        yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + pad)


def _int_rows(items) -> bool:
    """Whether items are non-empty lists or tuples of plain ints (no bools)."""
    return ({*map(type, items)} <= {list, tuple} and all(items)
            and {*map(type, chain.from_iterable(items))} == {int})


def _dump(data, handle) -> None:
    """Write data as json.dump(data, handle, sort_keys=True, indent=1) does, then a newline."""
    handle.writelines(_json_text(data))
    handle.write("\n")


def _emit(data: dict, as_json: bool, lines) -> None:
    if as_json:
        _dump(data, sys.stdout)
    else:
        for line in lines:
            print(line)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        _dump(data, handle)


def _read(path: str, kind: str, parse):
    """parse(the JSON in path); a file that does not parse is an input error."""
    with open(path, encoding="utf-8") as handle, \
            fixtures.reported_as(_InputError, f"invalid {kind} file {path}"):
        return parse(json.load(handle))


def cmd_build(args) -> int:
    if args.paper_fixture:
        if args.rows is not None or args.cols is not None:
            raise _InputError("--paper-fixture excludes --rows/--cols")
        x0 = load_paper_labeling()
    else:
        if args.rows is None or args.cols is None:
            raise _InputError("either --paper-fixture or both --rows and --cols are required")
        try:
            x0 = build_torus_triangulation(args.rows, args.cols)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
    graph = dual_graph(x0)
    tree = graph.walk(graph.edges)
    info = {
        "command": "build",
        "rows": x0.rows,
        "cols": x0.cols,
        "points": len(x0.points),
        "lines": len(x0.lines),
        "planes": len(x0.planes),
        "euler_characteristic": len(x0.points) - len(x0.lines) + len(x0.planes),
        "dual_regular_degree": 3,
        "dual_connected": len(tree) == len(graph.vertices) - 1,
        "cycle_rank": graph.cycle_rank(),
        "tree_edges": len(tree),
    }
    if args.out:
        _write_json(args.out, x0.to_json())
        info["out"] = args.out
    _emit(info, args.as_json, [
        f"{x0.rows} x {x0.cols} torus triangulation: "
        f"{info['points']} points, {info['lines']} lines, {info['planes']} planes",
        f"dual graph: 3-regular, connected={info['dual_connected']}, "
        f"cycle rank {info['cycle_rank']}, spanning tree {info['tree_edges']} edges",
    ] + ([f"wrote {args.out}"] if args.out else []))
    return 0


def cmd_present(args) -> int:
    x0 = _read(args.complex_file, "complex", complex_from_json)
    graph = dual_graph(x0)
    links = hexagon_links(x0)
    pres = presentation.generate(graph, links, args.variant)
    counts = pres.counts()
    info = {"command": "present", "variant": args.variant, **counts}
    if args.out:
        _write_json(args.out, pres.to_json())
        info["out"] = args.out
    if args.fixtures_out:
        os.makedirs(args.fixtures_out, exist_ok=True)
        info["fixtures"] = [os.path.join(args.fixtures_out, name) for name in fixtures.BUNDLED]
        for name, path in zip(fixtures.BUNDLED, info["fixtures"]):
            _write_json(path, fixtures.load_json(name))
    _emit(info, args.as_json, [
        f"{args.variant} presentation on {pres.generator_count} generators: "
        + ", ".join(f"{counts[k]} {k}" for k in ("squares", "commutations", "braids", "forks", "cycles"))
        + f" ({counts['total']} relators)",
    ] + ([f"wrote {args.out}"] if args.out else [])
      + ([f"exported fixtures to {args.fixtures_out}"] if args.fixtures_out else []))
    return 0


def cmd_verify(args) -> int:
    x0 = _read(args.complex_file, "complex", complex_from_json)
    try:
        report = verify.run_suite(x0, args.suite)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    summary = report.summary()
    _emit(report.to_json(), args.as_json,
          [f"{e.status.upper():4} {e.name}: {e.detail} [{e.value}]" for e in report.entries]
          + [f"summary: {summary['pass']} pass, {summary['fail']} fail, "
             f"{summary['inconclusive']} inconclusive"])
    return report.exit_code()


def _parse_subgroup(text: str, ngens: int) -> list[Word]:
    """Words space-separated, letters comma-separated, each letter in 1..ngens.

    A letter is plain decimal digits: a sign or an empty field is kept as
    text, which word_from_json rejects like a letter out of range.
    """
    words = []
    for chunk in text.split():
        letters = [int(x) if x.isascii() and x.isdigit() else x for x in chunk.split(",")]
        try:
            words.append(word_from_json(letters, ngens, "subgroup word"))
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
    return words


def cmd_enumerate(args) -> int:
    _fix_mmap_threshold()
    ngens, relators = _read(args.presentation_file, "presentation",
                            presentation.presentation_from_json)
    subgroup = _parse_subgroup(args.subgroup, ngens)
    if args.capacity < 1:
        raise _InputError("capacity must be positive")
    result = cosets.enumerate_cosets(ngens, relators, subgroup, args.capacity)
    status = "finite" if result.status == "finite" else "inconclusive"
    if status == "finite" and not cosets.check_result(result, ngens, relators, subgroup):
        status = "check-failed"
    info = {
        "command": "enumerate",
        "status": status,
        "index": result.index,
        "table_size": result.allocated,
        "capacity": args.capacity,
    }
    if args.table_out and status == "finite":
        _write_json(args.table_out, {"index": result.index, "table": result.table})
        info["table_out"] = args.table_out
    _emit(info, args.as_json, [
        f"index {result.index} (allocated {result.allocated} cosets)"
        if status == "finite" else
        f"check-failed: the table of index {result.index} fails cosets.check_result"
        if status == "check-failed" else
        f"inconclusive: capacity {args.capacity} exceeded "
        f"(allocated {result.allocated} cosets); the group may be infinite",
    ])
    return 1 if status == "check-failed" else 0


if __name__ == "__main__":
    sys.exit(main())
