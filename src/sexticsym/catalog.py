"""Static family data: candidate singularity sets, kernel shapes, expected
stable groups, and the trigonal quotient dictionary."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import List, NamedTuple, Optional, Tuple

from .rootsystems import ADEType, DynkinGraph


class SexticFamily(NamedTuple):
    tag: str  # TorusW6 | Weight8 | Weight9 | D10 | D14 | TwoE8
    essential: str  # singularity set, e.g. "2E6+A5"
    kernel_spec: Tuple[Optional[int], int]  # (p, rank); (None, 0) for K = 0
    expected_group: str
    note: str


@lru_cache(maxsize=None)
def _load() -> dict:
    """The parsed data file, read once per process; callers only read it."""
    with resources.files("sexticsym").joinpath("data/families.json").open() as fh:
        return json.load(fh)


def families() -> List[SexticFamily]:
    data = _load()
    out = []
    for row in data["families"]:
        p = row["kernel"]["p"]
        out.append(
            SexticFamily(
                tag=row["tag"],
                essential=row["essential"],
                kernel_spec=(p, row["kernel"]["rank"]),
                expected_group=row["expected_group"],
                note=row["note"],
            )
        )
    return out


class QuotientRow(NamedTuple):
    sextic_essential: str
    trigonal: str  # one of E8, E6+A2, A8, 2A4, 4A2


def quotient_dictionary() -> List[QuotientRow]:
    data = _load()
    return [
        QuotientRow(sextic_essential=r["sextic"], trigonal=r["trigonal"])
        for r in data["quotients"]
    ]


def weight(graph: DynkinGraph) -> int:
    """Torus weight: w(A_{3i-1}) = i, w(E6) = 2, 0 otherwise."""
    total = 0
    for t in graph.components:
        if t.family == "A" and (t.rank + 1) % 3 == 0:
            total += (t.rank + 1) // 3
        elif t == ADEType("E", 6):
            total += 2
    return total
