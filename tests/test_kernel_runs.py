"""The kernel search on every p-torsion essential set, not only the catalog.

The runs are every nonempty multiset of the components with p-torsion
(p = 3: A2, A5, A8, A11, A14, A17, E6; p = 5: A4, A9, A14; p = 7: A6, A13)
of total rank at most 19, at every kernel rank 1..m: 94 sets and 315 runs,
34 of them with an orbit (helpers.torsion_runs).  The golden
tests/data/kernel-runs.json pins each run's orbit count, its number of
kernels and its representatives.  It is written by

    PYTHONPATH=src:tests python -c "import helpers; helpers.write_kernel_runs('tests/data/kernel-runs.json')"
"""

import json
import pathlib

from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import stability
from sexticsym.rootsystems import print_singularities
from sexticsym.stability import admissible_kernels

from helpers import kernel_orbits, kernel_run, least_kernel_breadth_first, torsion_runs

GOLDEN = pathlib.Path(__file__).parent / "data" / "kernel-runs.json"


def test_kernel_runs_match_golden():
    runs = torsion_runs()
    assert len(runs) == 315 and len({(print_singularities(g), p) for g, p, _ in runs}) == 94
    got = [kernel_run(*run) for run in runs]
    want = json.loads(GOLDEN.read_text())
    assert [(r["set"], r["p"], r["rank"]) for r in got] == [(r["set"], r["p"], r["rank"]) for r in want]
    assert [r for r, w in zip(got, want) if r != w] == []
    assert sum(1 for r in got if r["orbits"]) == 34


def test_kernel_runs_match_the_exhaustive_reference():
    # every run whose p-torsion space has at most 3^7 vectors, 290 of the
    # 315, in ~3 s; the reference lists every isotropic subspace, and the
    # 25 runs left (8A2, 9A2, A5+7A2, ...) take it seconds to minutes each
    runs = [(g, p, rank) for g, p, rank in torsion_runs() if p ** len(g.components) <= 3**7]
    assert len(runs) == 290
    mismatches = [(print_singularities(g), p, rank) for g, p, rank in runs
                  if [(o.config.kernel, o.size) for o in admissible_kernels(g, p, rank)] != kernel_orbits(g, p, rank)]
    assert mismatches == []


def point_permutation(w):
    """The signed permutation w = (perm, signs) as a permutation of the 2m
    points (k, +-1), point 2k + (sign < 0): (k, s) goes to (perm[k], s signs[k])."""
    perm, signs = w
    return Permutation([2 * perm[k] + (s * e < 0) for k, e in enumerate(signs) for s in (1, -1)])


def test_least_kernel_matches_breadth_first_on_every_run(monkeypatch):
    # every kernel admissible_kernels hands _least_kernel over all 315 runs,
    # lines and children (755 calls on 112 distinct kernels of F_p^m): the
    # unpruned search gives the same verdict and stabilizer order, and its
    # generators generate the same group
    calls, count = {}, 0
    least = stability._least_kernel

    def recorded(p, runs, vectors):
        nonlocal count
        count += 1
        calls[p, tuple(runs), tuple(vectors)] = found = least(p, runs, vectors)
        return found

    monkeypatch.setattr(stability, "_least_kernel", recorded)
    for run in torsion_runs():
        admissible_kernels(*run)
    assert (count, len(calls)) == (755, 112)
    for (p, runs, vectors), found in calls.items():
        want = least_kernel_breadth_first(p, runs, list(vectors))
        assert (found is None) == (want is None)
        if found:
            identity = [Permutation(2 * sum(runs) - 1)]
            got, ref = (PermutationGroup([*map(point_permutation, ws), *identity]) for _, ws in (found, want))
            assert found[0] == want[0] == got.order() == ref.order()
            assert all(ref.contains(w) for w in got.generators)
