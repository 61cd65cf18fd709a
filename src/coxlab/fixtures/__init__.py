"""Bundled data fixtures.

The environment variable COXLAB_FIXTURES, when set, points at a directory
whose files override the bundled ones of the same name.  An override that
cannot be read or parsed raises CorruptFixtureError, as does a published
table of the wrong shape, checked by the function that loads it (``load``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from importlib import resources

from ..words import word_from_json

BUNDLED = [
    "tt33.json",
    "t0_spanning.json",
    "ax_relations.json",
    "nonrel_pairs.json",
    "s4_remark.json",
    "hexagon_quotient.json",
    "hexagon_affine.json",
]

PAPER_LETTERS = 27  # lines of the published 3 x 3 complex, the letters of its words


class CorruptFixtureError(RuntimeError):
    """A fixture file could not be read, has the wrong shape or failed its consistency oracle."""


@contextmanager
def reported_as(error, prefix: str):
    """Re-raise a KeyError, TypeError, ValueError or RecursionError as error(prefix: ...)."""
    try:
        yield
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{prefix}: {detail}") from exc


def _override(name: str) -> str | None:
    directory = os.environ.get("COXLAB_FIXTURES")
    path = os.path.join(directory, name) if directory else None
    return path if path and os.path.exists(path) else None


def load_json(name: str):
    path = _override(name)
    if path is None:
        return json.loads(resources.files(__package__).joinpath(name).read_text("utf-8"))
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise CorruptFixtureError(f"cannot read fixture file {path}: {exc}") from exc


def load(name: str, parse):
    """parse(load_json(name)); a fixture that parse rejects is corrupt, named by its file."""
    data = load_json(name)
    with reported_as(CorruptFixtureError, f"invalid fixture file {_override(name) or name}"):
        return parse(data)


def load_ax_relations() -> dict[str, tuple[int, ...]]:
    """The 25 fixed miscellaneous relators, keyed by their published labels."""
    def parse(data):
        if type(data) is not dict or sorted(data) != sorted(f"AX{k}" for k in range(1, 27) if k != 9):
            raise ValueError("miscellaneous relator fixture has unexpected labels")
        return {label: word_from_json(word, PAPER_LETTERS, label) for label, word in data.items()}
    return load("ax_relations.json", parse)


def load_nonrel_pairs() -> list[tuple[int, int]]:
    """The 43 generator pairs whose product order is not given up front, each ascending."""
    def parse(data):
        if type(data) is not list:
            raise ValueError(f"the pair table holds one list, got {type(data).__name__}")
        pairs = [tuple(sorted(word_from_json(pair, PAPER_LETTERS, "pair"))) for pair in data]
        if len(pairs) != 43 or len(set(pairs)) != 43 or any(len(p) != 2 or p[0] == p[1] for p in pairs):
            raise ValueError("pair fixture must hold 43 distinct pairs of two distinct lines")
        return pairs
    return load("nonrel_pairs.json", parse)
