"""The kernel search on every p-torsion essential set, not only the catalog.

The runs are every nonempty multiset of the components with p-torsion
(p = 3: A2, A5, A8, A11, A14, A17, E6; p = 5: A4, A9, A14; p = 7: A6, A13)
of total rank at most 19, at every kernel rank 1..m: 94 sets and 315 runs,
34 of them with an orbit (helpers.torsion_runs).  The golden
tests/data/kernel-runs.json pins each run's orbit count, its number of
kernels and its representatives.  It is written by

    PYTHONPATH=src:tests python -c "import helpers; helpers.write_kernel_runs('tests/data/kernel-runs.json')"

The runs also certify that admissible_kernels keeps only the least kernel
of each orbit on every graph of rank at most 19 and odd prime p (its
docstring): the unpruned least test accepts every kernel the runs hand to
_stabilizer, a component without p-torsion adds no call, and every other
component with p-torsion has no isotropic line.  On the runs and the
catalog, the child step and the stable-group backtrack are also checked
against the references in helpers that they replaced.
"""

import json
import pathlib

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import catalog, stability
from sexticsym.discrforms import torsion_space
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    graph_discr,
    parse_singularities,
    print_singularities,
)
from sexticsym.stability import Configuration, admissible_kernels, sym_stable

from helpers import (
    TORSION_COMPONENTS,
    catalog_kernels,
    child_orbits_by_marking,
    component_discr,
    kernel_orbits,
    kernel_run,
    least_kernel_breadth_first,
    perm_signs,
    search_symmetries_copying,
    torsion_runs,
)

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
    """The signed permutation w, given by its sources, as a permutation of
    the 2m points (k, +-1), point 2k + (sign < 0): with (perm, signs) =
    perm_signs(w), (k, s) goes to (perm[k], s signs[k])."""
    perm, signs = perm_signs(w)
    return Permutation([2 * perm[k] + (s * e < 0) for k, e in enumerate(signs) for s in (1, -1)])


def stabilizer_calls(runs):
    """admissible_kernels of each run, and for each run the (p, runs,
    vectors) of every _stabilizer call it makes, in order."""
    stabilizer, calls, orbits = stability._stabilizer, [], []

    def recorded(p, runs, vectors):
        calls[-1].append((p, tuple(runs), tuple(vectors)))
        return stabilizer(p, runs, vectors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_stabilizer", recorded)
        for run in runs:
            calls.append([])
            orbits.append(admissible_kernels(*run))
    return orbits, calls


@pytest.fixture(scope="module")
def run_calls():
    """The _stabilizer calls of each of the 315 runs, by run."""
    runs = torsion_runs()
    return dict(zip(runs, stabilizer_calls(runs)[1]))


def test_least_kernel_matches_breadth_first_on_every_run(run_calls):
    # every kernel admissible_kernels hands _stabilizer over all 315 runs,
    # the kept lines and children (321 calls on 59 distinct kernels of
    # F_p^m), is accepted by the unpruned least test, with the same
    # stabilizer order, and its generators generate the same group
    calls = [call for run in run_calls.values() for call in run]
    distinct = dict.fromkeys(calls)
    assert (len(calls), len(distinct)) == (321, 59)
    for p, runs, vectors in distinct:
        found, want = stability._stabilizer(p, runs, vectors), least_kernel_breadth_first(p, runs, list(vectors))
        assert want is not None
        identity = [Permutation(2 * sum(runs) - 1)]
        got, ref = (PermutationGroup([*map(point_permutation, ws), *identity]) for _, ws in (found, want))
        assert found[0] == want[0] == got.order() == ref.order()
        assert all(ref.contains(w) for w in got.generators)


def test_components_without_torsion_add_no_stabilizer_call(run_calls):
    # every run with one more component of each discriminant type that has
    # no odd torsion (Z2, Z4, Z8, Z2^2, Z4, Z2, 0), where the rank allows:
    # no orbit, as that component's block is 0 on every p-torsion element,
    # and only _stabilizer calls the run makes (at its last rank full
    # support fails before a row is stabilized)
    runs = [(g, p, rank, extra) for extra in ("A1", "A3", "A7", "D4", "D5", "E7", "E8") for g, p, rank in run_calls
            if g.rank + parse_singularities(extra).rank <= 19]
    orbits, calls = stabilizer_calls([(parse_singularities(f"{print_singularities(g)}+{extra}"), p, rank)
                                      for g, p, rank, extra in runs])
    assert not any(orbits)
    assert all(set(c) <= set(run_calls[g, p, rank]) for c, (g, p, rank, _) in zip(calls, runs))
    assert sum(map(len, calls)) == 358


def recorded_calls(name, call):
    """The arguments of every call of stability's function name made while
    call() runs, in order."""
    step, calls = getattr(stability, name), []

    def recorded(*args):
        calls.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, name, recorded)
        call()
    return calls


def test_children_match_the_marking_reference():
    # every parent that the 315 runs and the catalog's rank-2 and rank-3
    # families reach: the least child of each Stab(P)-orbit, read off P's
    # cut, is the one that marking every child finds, in the same order
    runs = torsion_runs() + [(parse_singularities(f.essential), *f.kernel_spec)
                             for f in catalog.families() if f.kernel_spec[1] > 1]
    calls = recorded_calls("_child_orbits", lambda: [admissible_kernels(*run) for run in runs])
    assert len(calls) == 301
    assert [(parent, list(stability._child_orbits(space, runs, parent, gens)))
            for space, runs, parent, gens in calls] == [(parent, child_orbits_by_marking(space, parent, gens))
                                                       for space, _, parent, gens in calls]


def test_symmetry_search_matches_the_copying_reference():
    # the stable symmetries of every catalog orbit, K = 0 included, and of
    # the 34 orbits of the 315 runs, each with its image codes of K-perp's
    # generators and then K's, in the same order as the search that copies
    # each option's partial images before it prunes
    configs = [Configuration(parse_singularities(f.essential), k) for f in catalog.families()
               for k in catalog_kernels(f)[1]]
    configs += [o.config for run in torsion_runs() for o in admissible_kernels(*run)]
    calls = recorded_calls("_search_symmetries", lambda: [sym_stable(c) for c in configs])
    assert (len(configs), len(calls)) == (97, 97)
    assert all(zgens[len(zgens) - len(c.kernel.greedy_span[0]):] == c.kernel.greedy_span[0]
               for c, (_, zgens, _) in zip(configs, calls))
    assert all(list(stability._search_symmetries(*args)) == search_symmetries_copying(*args) for args in calls)


ADE_TYPES = ([ADEType("A", n) for n in range(1, 20)] + [ADEType("D", n) for n in range(4, 20)]
             + [ADEType("E", n) for n in (6, 7, 8)])


def test_torsion_components_are_every_component_with_an_isotropic_line():
    # every ADE type of rank <= 19 with p-torsion, p an odd prime (the
    # discriminant order is at most 20), is one of the runs' components, or
    # has room for no second p-torsion component and a 1x1 nondegenerate
    # p-torsion form, so that no graph of it has an isotropic line
    left_out = []
    for t in ADE_TYPES:
        for p in (3, 5, 7, 11, 13, 17, 19):
            if component_discr(t).form.order() % p or t.label() in TORSION_COMPONENTS.get(p, ()):
                continue
            g = DynkinGraph((t,))
            ((d,),) = torsion_space(graph_discr(g), p).bmat
            assert 2 * t.rank > 19 and d % p and admissible_kernels(g, p, 1) == []
            left_out.append(f"{t.label()}-{p}")
    assert left_out == ["A10-11", "A12-13", "A16-17", "A18-19", "A19-5"]
