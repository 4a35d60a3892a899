"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the sexticsym modules from outside the
package.  Every module global bound to a traced function (and the one traced
method, Skeleton.canonical_form) is replaced by a wrapper that records one
span per call -- name, start, end, parent span, run id -- and the work
counters derived from the call's result.  Nothing is installed unless
install() is called, so untraced runs execute the program's own functions.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _count_subspaces(counters, result):
    counters["discrforms.subspaces_out"] += int(result.shape[0])
    counters["discrforms.subspaces_bytes_out"] += int(result.nbytes)


def _count_orbits(counters, result):
    counters["stability.kernel_orbits_out"] += len(result)
    counters["stability.kernel_orbit_size_total"] += sum(o.size for o in result)


def _count_stable(counters, result):
    counters["stability.stable_elements_out"] += result.order


def _count_skeletons(counters, result):
    counters["dessins.skeletons_out"] += len(result)


# (span name, module, attribute, counter hook)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("catalog.families", "catalog", "families", None),
    ("rootsystems.graph_symmetries", "rootsystems", "graph_symmetries", None),
    ("rootsystems.graph_discr", "rootsystems", "graph_discr", None),
    ("rootsystems.discr_action", "rootsystems", "discr_action", None),
    ("discrforms.discriminant_form", "discrforms", "discriminant_form", None),
    ("discrforms.torsion_space", "discrforms", "torsion_space", None),
    ("discrforms.isotropic_subspaces", "discrforms", "isotropic_subspaces", _count_subspaces),
    ("stability.classify_family", "stability", "classify_family", None),
    ("stability.admissible_kernels", "stability", "admissible_kernels", _count_orbits),
    ("stability.configuration", "stability", "configuration", None),
    ("stability.sym_stable", "stability", "sym_stable", _count_stable),
    ("stability.identify_group", "stability", "identify_group", None),
    ("dessins.enumerate_skeletons", "dessins", "enumerate_skeletons", _count_skeletons),
    ("dessins.canonical_form", "dessins", "Skeleton.canonical_form", None),
    ("dessins.table1", "dessins", "table1", None),
    ("dessins.component_count", "dessins", "component_count", None),
    ("weierstrass.fiber_analysis", "weierstrass", "fiber_analysis", None),
    ("weierstrass.j_invariant", "weierstrass", "j_invariant", None),
    ("weierstrass.is_maximal", "weierstrass", "is_maximal", None),
    ("exactcore.poly_gcd", "exactcore", "poly_gcd", None),
    ("exactcore.squarefree_partition", "exactcore", "squarefree_partition", None),
)

_MARK = "_perfbench_span"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "sexticsym" or name.startswith("sexticsym."))]


def _bindings():
    """(owner, attribute name, object) for every module global and class
    attribute of the loaded sexticsym modules."""
    out = []
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            out.append((mod, key, val))
        skeleton = getattr(mod, "Skeleton", None)
        if isinstance(skeleton, type) and skeleton.__module__ == mod.__name__:
            for key, val in list(vars(skeleton).items()):
                out.append((skeleton, key, val))
    return out


def installed_wrappers() -> int:
    """Number of bindings in the loaded package that are tracer wrappers."""
    return sum(1 for _, _, val in _bindings() if getattr(val, _MARK, None))


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.calls = Counter()
        self.seconds = Counter()  # inclusive
        self.self_seconds = Counter()  # minus the time covered by child spans
        self.counters = Counter()
        self.by_family = {}  # singularity set -> Counter, for classify_family calls
        self._family = None
        self._stack = []  # [span id, seconds covered by children]
        self._restore = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            if name == "stability.classify_family":
                self._family = args[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if name == "stability.classify_family":
                    self._family = None
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
                self.calls[name] += 1
                self.seconds[name] += dur
                self.self_seconds[name] += dur - frame[1]
            if count is not None:
                count(self.counters, result)
                if self._family is not None:
                    count(self.by_family.setdefault(self._family, Counter()), result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        """Replace every binding of each target by its wrapper."""
        pkg = {m.__name__: m for m in _package_modules()}
        bindings = _bindings()
        for name, modname, attr, count in TARGETS:
            owner = pkg["sexticsym." + modname]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            orig = vars(owner)[attr.split(".")[-1]]
            wrapper = self._wrap(name, orig, count)
            for holder, key, val in bindings:
                if val is orig:
                    setattr(holder, key, wrapper)
                    self._restore.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore = []

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart\tend\trun\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\t{self.run_id}\n")
