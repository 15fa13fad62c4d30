"""Per-layer tracing of qhpp from outside the package.

A Tracer replaces public functions of the qhpp modules with timing and
counting wrappers for the duration of a ``with tracer:`` block, and puts the
originals back afterwards.  Nothing under ``src/`` is edited.  The program
calls these functions through module attributes, so a wrapper sees every call
the program makes, including calls from one qhpp module into another.

Times are summed in milliseconds, counts are summed; ``export`` returns both
as one flat dict so that the tracers of several processes can be added up.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

FILTERS = ("cyclic_h1", "arithmetic", "bmy", "donaldson", "linking_form", "spin_sum")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, int] = {}
        # Per-process samples reported as their median, and metrics already
        # exported by tracers in child processes.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.extra: dict[str, float] = {}
        self.reports: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._index: int | None = None
        self._search = 0
        self._partial_orbits: set = set()

    # ------------------------------------------------------------------
    # installation

    def __enter__(self):
        from qhpp import floer, lattice, linking, screening

        self._patch(screening, "classify", self._wrap_classify)
        self._patch(screening, "enumerate_candidates", self._wrap_enumerate)
        for module, attr, name in (
            (screening, "cyclic_h1_filter", "cyclic_h1"),
            (screening, "arithmetic_filter", "arithmetic"),
            (screening, "bmy_filter", "bmy"),
            (lattice, "donaldson_obstruction", "donaldson"),
            (linking, "linking_obstruction", "linking_form"),
            (floer, "spin_sum_obstruction", "spin_sum"),
        ):
            self._patch(module, attr, lambda f, name=name: self._wrap_filter(f, name))
        self._patch(lattice, "enumerate_embeddings", self._wrap_search)
        self._patch(lattice, "vectors_of_norm", self._wrap_vectors)
        self._patch(lattice, "canonical_form", self._wrap_canonical)
        self._patch(lattice, "complement_witness", self._wrap_witness)
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def _patch(self, module, attr, make) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_classify(self, original):
        def classify(index, *args, **kwargs):
            outer, self._index = self._index, index
            try:
                report = original(index, *args, **kwargs)
            finally:
                self._index = outer
            self.reports[index] = report
            return report
        return classify

    def _wrap_enumerate(self, original):
        def enumerate_candidates(index, *args, **kwargs):
            start = _clock()
            out = original(index, *args, **kwargs)
            self.ms[f"screening.enumerate_ms.idx{index}"] += (_clock() - start) * 1e3
            self.values[f"screening.candidates.idx{index}"] = len(out)
            return out
        return enumerate_candidates

    def _wrap_filter(self, original, name):
        # Only calls made while a classification runs are attributed; the
        # table verb also calls arithmetic_filter, outside any classify.
        def run_filter(*args, **kwargs):
            start = _clock()
            out = original(*args, **kwargs)
            if self._index is not None:
                self.ms[f"screening.filter_ms.{name}.idx{self._index}"] += (_clock() - start) * 1e3
            return out
        return run_filter

    def _wrap_search(self, original):
        def enumerate_embeddings(*args, **kwargs):
            self._search += 1
            start = _clock()
            out = original(*args, **kwargs)
            self.ms["lattice.search_ms"] += (_clock() - start) * 1e3
            self.counts["lattice.searches"] += 1
            self.counts["lattice.orbits"] += len(out)
            return out
        return enumerate_embeddings

    def _wrap_vectors(self, original):
        info = getattr(original, "cache_info", None)

        def vectors_of_norm(*args, **kwargs):
            misses = info().misses if info else None
            start = _clock()
            out = original(*args, **kwargs)
            self.ms["lattice.vectors_of_norm_ms"] += (_clock() - start) * 1e3
            if info is None or info().misses != misses:
                self.counts["lattice.candidate_vectors"] += len(out)
            return out
        return vectors_of_norm

    def _wrap_canonical(self, original):
        ms, counts, seen = self.ms, self.counts, self._partial_orbits

        def canonical_form(rows, *args, **kwargs):
            start = _clock()
            out = original(rows, *args, **kwargs)
            ms["lattice.canonical_form_ms"] += (_clock() - start) * 1e3
            counts["lattice.canonical_form_calls"] += 1
            seen.add((self._search, len(out), out))
            return out
        return canonical_form

    def _wrap_witness(self, original):
        def complement_witness(*args, **kwargs):
            start = _clock()
            out = original(*args, **kwargs)
            self.ms["lattice.witness_ms"] += (_clock() - start) * 1e3
            self.counts["lattice.witness_calls"] += 1
            return out
        return complement_witness

    # ------------------------------------------------------------------
    # results

    def export(self) -> dict:
        """Times, counts and values as one flat dict.  ``lattice.partial_orbits``
        is the number of distinct canonical forms per search and assignment
        length, which includes the canonicalisation of finished embeddings."""
        out = {**self.ms, **self.counts, **self.values}
        out["lattice.partial_orbits"] = len(self._partial_orbits)
        out.update((name, statistics.median(xs)) for name, xs in self.samples.items())
        merge(out, self.extra)
        return out


# Metrics that are sizes, not sums: they must agree wherever they occur.
SIZES = ("screening.candidates.",)


def merge(total: dict, part: dict) -> None:
    """Add the metrics of ``part`` into ``total``."""
    for name, value in part.items():
        if name.startswith(SIZES):
            if total.setdefault(name, value) != value:
                raise AssertionError(f"{name} differs between traced calls: "
                                     f"{total[name]} != {value}")
        else:
            total[name] = total.get(name, 0) + value
