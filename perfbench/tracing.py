"""Outside-in tracing of heckeweights' public functions.

A wrapper replaces every binding of a traced function in the heckeweights
namespaces: traces, cli and homcheck import with ``from .reps import ...``,
so patching ``reps`` alone would miss their calls.  Each wrapper records
calls and self time (its span minus the spans of traced functions it calls);
a few wrappers also record counts computed from the call's arguments or
result.  Spans stay in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "heckeweights"

TRACED = (
    "cli.main",
    "reps.evaluate", "reps.character", "reps.expand_word", "reps.typeB_rep",
    "reps.typeA_rep", "reps.skew_rep", "reps.relation_residuals",
    "traces.weight_B", "traces.markov_trace_B", "traces.markov_trace_D",
    "traces.weight_D",
    "schur.schur_principal", "schur.schur_normalized",
    "combinatorics.standard_tableaux",
    "homcheck.rho_eigenvalue_report", "homcheck.character_match_report",
    "homcheck.weight_ratio_report",
    "scalars.ParameterPoint.__post_init__", "scalars.admissible_point",
    "scalars.is_zero_matrix",
)
CACHED = ("reps.typeB_rep", "reps.typeA_rep", "reps.skew_rep")


def _matmuls(args):
    """Letter matrices multiplied by evaluate(rep, element): the summed word
    length over the element's terms."""
    element = args[1]
    terms = getattr(element, "terms", None)
    if terms is None:
        return len(element.letters)
    return sum(len(w.letters) for w in terms)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.counts = {"reps.evaluate.matmuls": 0, "reps.expand_word.terms": 0}
        self._child = []          # time covered by child spans, per open span
        self._restore = []        # (namespace, attribute, original)
        self._cached = {}         # key -> original lru_cache function
        self._cache_start = {}

    def _wrap(self, key, fn):
        child, calls, self_s, counts = (self._child, self.calls, self.self_s,
                                        self.counts)
        matmuls = key == "reps.evaluate"
        terms = key == "reps.expand_word"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if matmuls:
                counts["reps.evaluate.matmuls"] += _matmuls(args)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[key] += span - child.pop()
                calls[key] += 1
                if child:
                    child[-1] += span
            if terms:
                counts["reps.expand_word.terms"] += len(result.terms)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of every traced function; raise if a function
        has no binding, since its metrics would then silently read zero."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for key in TRACED:
            module_name, *path = key.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(key, original)
            # A method has one binding, on its class; a function may be
            # bound in every module that imported it by name.
            namespaces = [owner] if path[:-1] else modules
            bound = 0
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"traced function {key} has no binding")
            if key in CACHED:
                self._cached[key] = original
                self._cache_start[key] = original.cache_info()

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def hit_ratio(self, key) -> float:
        """Cache hits over lookups since install; 0 when never called."""
        info, start = self._cached[key].cache_info(), self._cache_start[key]
        hits, misses = info.hits - start.hits, info.misses - start.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict:
        values = {}
        for key in TRACED:
            values[f"{key}.calls"] = self.calls[key]
            values[f"{key}.self_s"] = self.self_s[key]
        values.update(self.counts)
        for key in CACHED:
            values[f"{key}.hit_ratio"] = self.hit_ratio(key)
        return values
