"""Bundled data fixtures.

The environment variable COXLAB_FIXTURES, when set, points at a directory
whose files override the bundled ones of the same name.  An override that
cannot be read or parsed raises CorruptFixtureError, as does a fixture that
fails its consistency oracle.
"""

from __future__ import annotations

import json
import os
from importlib import resources

BUNDLED = [
    "tt33.json",
    "t0_spanning.json",
    "ax_relations.json",
    "nonrel_pairs.json",
    "s4_remark.json",
    "hexagon_quotient.json",
    "hexagon_affine.json",
]


class CorruptFixtureError(RuntimeError):
    """A fixture file could not be read or failed its consistency oracle."""


def load_json(name: str):
    override = os.environ.get("COXLAB_FIXTURES")
    if override:
        path = os.path.join(override, name)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    return json.load(handle)
            except (OSError, ValueError, RecursionError) as exc:
                raise CorruptFixtureError(f"cannot read fixture file {path}: {exc}") from exc
    return json.loads(resources.files(__package__).joinpath(name).read_text("utf-8"))


def load_ax_relations() -> dict[str, tuple[int, ...]]:
    """The 25 fixed miscellaneous relators, keyed by their published labels."""
    data = load_json("ax_relations.json")
    return {label: tuple(word) for label, word in data.items()}


def load_nonrel_pairs() -> list[tuple[int, int]]:
    """The 43 generator pairs whose product order is not given up front."""
    data = load_json("nonrel_pairs.json")
    return [tuple(pair) for pair in data]

