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

from sexticsym.rootsystems import print_singularities
from sexticsym.stability import admissible_kernels

from helpers import kernel_orbits, kernel_run, torsion_runs

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
