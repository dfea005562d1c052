"""Spans and counters around the layers of ladderlie, for the traced run.

Hooks live in the benchmark, not in the package: each one wraps a function
or method of a ``ladderlie`` module and is installed by rebinding every place
in the loaded ``ladderlie.*`` modules that holds the original.  That covers
module attributes (``cli`` and the package ``__init__`` import names
directly), class attributes (``__radd__ = __add__`` aliases), module-level
dicts (the family registry) and tuples (``cli.SUITES``).  A target that no
longer exists is recorded in ``Tracer.missing`` and its metrics are left
out, so a refactor that moves a function makes the run report a missing
metric instead of crashing.

Spans are kept in memory as (name, start, end, parent) and turned into
per-layer metrics once the workload has finished.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# metric prefix -> hooked functions, as "module:qualname"
SPAN_TARGETS = {
    "liecore.structure_constants": ["ladderlie.liecore:structure_constants"],
    "liecore.expand_in_basis": ["ladderlie.liecore:expand_in_basis"],
    "liecore.dependent_labels": ["ladderlie.liecore:dependent_labels"],
    "liecore.jacobi_check": ["ladderlie.liecore:jacobi_check"],
    "liecore.compare": ["ladderlie.liecore:compare"],
    "opalg.commutator": ["ladderlie.opalg:commutator"],
    "opalg.OperatorExpr.mul": ["ladderlie.opalg:OperatorExpr.__mul__"],
    "opalg.parse_expr": ["ladderlie.opalg:parse_expr"],
    "catalog.build": [f"ladderlie.catalog:{name}" for name in (
        "sp2_oscillator", "sp2_pauli", "sp2_minkowski4", "two_mode_oscillator",
        "sp4_matrices", "o32_matrices", "translation_matrices")],
    "contract.conjugate": ["ladderlie.contract:conjugate"],
    "contract.limit": ["ladderlie.contract:limit"],
    "contract.contract_family": ["ladderlie.contract:contract_family"],
    "focknum.realize": ["ladderlie.focknum:realize"],
    "focknum.protected_commutator_check": ["ladderlie.focknum:protected_commutator_check"],
    "phspace.flow_residuals": ["ladderlie.phspace:flow_residuals"],
    "phspace.wigner_grid": ["ladderlie.phspace:wigner_grid"],
}

# Scalar operations run hundreds of thousands of times per verify; they get
# a bare call counter, since a span each would swamp the run.
COUNT_TARGETS = {
    "scalars.mul": ["ladderlie.scalars:ExactScalar.__mul__"],
    "scalars.add": ["ladderlie.scalars:ExactScalar.__add__",
                    "ladderlie.scalars:ExactScalar.__sub__"],
    "scalars.inverse": ["ladderlie.scalars:ExactScalar.inverse"],
}

SUITE_NAMES = ("ccr", "catalog", "closure", "contraction", "fock", "phspace")

# span prefixes reported as self time only
SELF_ONLY = ("phspace.flow_residuals", "phspace.wigner_grid")


def _ladderlie_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ladderlie" or name.startswith("ladderlie."))]


def _swap_in_tuple(value: tuple, original, replacement):
    """Copy of `value` with `original` replaced, one nesting level deep."""
    changed = False
    out = []
    for item in value:
        if item is original:
            item, changed = replacement, True
        elif isinstance(item, tuple) and any(x is original for x in item):
            item, changed = tuple(replacement if x is original else x for x in item), True
        out.append(item)
    return tuple(out) if changed else value


def rebind(original, replacement):
    """Point every ladderlie.* reference to `original` at `replacement`."""
    for mod in _ladderlie_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, type) and value.__module__.startswith("ladderlie"):
                for key, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, key, replacement)
            elif isinstance(value, dict):
                for key, member in list(value.items()):
                    if member is original:
                        value[key] = replacement
            elif isinstance(value, tuple):
                swapped = _swap_in_tuple(value, original, replacement)
                if swapped is not value:
                    setattr(mod, attr, swapped)


def resolve(target: str):
    """'pkg.module:Class.attr' -> the function object, or None if gone."""
    modname, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(modname)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj if callable(obj) else None


def _family_key(fam, *_args, **_kwargs):
    return (fam.kind, tuple(fam.labels), tuple(fam.elements[l] for l in fam.labels))


def _call_key(target: str):
    return lambda *args, **kwargs: (target, args, tuple(sorted(kwargs.items())))


class Tracer:
    """Collects spans and counters; `install` wraps the hook targets."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self._stack: list = []
        self.counts: Counter = Counter()
        self.keys = defaultdict(set)   # span name -> distinct argument keys
        self.stats: Counter = Counter()
        self.missing: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, key=None, after=None):
        spans, stack = self.spans, self._stack
        keys = self.keys[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                try:
                    keys.add(key(*args, **kwargs))
                except (AttributeError, TypeError, KeyError):
                    keys.add(object())      # an input it cannot key counts as distinct
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-target extras ------------------------------------------------

    def _after_realize(self, matrix):
        # dense arrays and scipy sparse matrices alike
        rows, cols = matrix.shape
        nnz = matrix.count_nonzero() if hasattr(matrix, "count_nonzero") else np.count_nonzero(matrix)
        self.stats["focknum.realize.nnz"] += int(nnz)
        self.stats["focknum.cells"] += rows * cols
        self.stats["focknum.dim"] = max(self.stats["focknum.dim"], rows)

    def _after_commutator(self, expr):
        self.stats["opalg.terms_out"] += len(expr.terms)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every hook target; record the ones that no longer exist."""
        extras = {
            "liecore.structure_constants": dict(key=_family_key),
            "focknum.realize": dict(after=self._after_realize),
            "opalg.commutator": dict(after=self._after_commutator),
        }
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                fn = resolve(target)
                if fn is None:
                    self.missing.append(target)
                    continue
                opts = dict(extras.get(name, {}))
                if name == "catalog.build":
                    opts["key"] = _call_key(target)
                rebind(fn, self._span(name, fn, **opts))
        for name, targets in COUNT_TARGETS.items():
            for target in targets:
                fn = resolve(target)
                if fn is None:
                    self.missing.append(target)
                    continue
                rebind(fn, self._counter(name, fn))
        self._install_suites()

    def _install_suites(self):
        """Wrap the verify suites, wherever a `SUITES` table of (name, fn) lives."""
        found = set()
        for mod in _ladderlie_modules():
            table = getattr(mod, "SUITES", None)
            if not isinstance(table, tuple):
                continue
            for entry in table:
                if (isinstance(entry, tuple) and len(entry) == 2
                        and isinstance(entry[0], str) and callable(entry[1])
                        and entry[0] not in found):
                    found.add(entry[0])
                    rebind(entry[1], self._span(f"cli.suite.{entry[0]}", entry[1]))
        self.missing.extend(f"SUITES:{name}" for name in SUITE_NAMES if name not in found)

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent}) + "\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            total_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration

        gone = {name for name, targets in {**SPAN_TARGETS, **COUNT_TARGETS}.items()
                if any(t in self.missing for t in targets)}

        out = {}
        for name in SPAN_TARGETS:
            if name in gone:
                continue
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNT_TARGETS:
            if name not in gone:
                out[f"{name}.calls"] = self.counts[name]
        suite_total = 0.0
        for suite in SUITE_NAMES:
            if f"SUITES:{suite}" in self.missing:
                continue
            out[f"cli.suite.{suite}_s"] = total_s[f"cli.suite.{suite}"]
            suite_total += total_s[f"cli.suite.{suite}"]
        for name in ("liecore.structure_constants", "catalog.build"):
            if name not in gone:
                out[f"{name}.distinct_ratio"] = (len(self.keys[name]) / calls[name]
                                                 if calls[name] else 0.0)
        if "opalg.commutator" not in gone:
            out["opalg.terms_out"] = self.stats["opalg.terms_out"]
        if "focknum.realize" not in gone:
            out["focknum.dim"] = self.stats["focknum.dim"]
            out["focknum.realize.nnz"] = self.stats["focknum.realize.nnz"]
            cells = self.stats["focknum.cells"]
            out["focknum.density"] = self.stats["focknum.realize.nnz"] / cells if cells else 0.0
        out["trace.wall_s"] = wall_s
        out["cli.suite_coverage"] = suite_total / wall_s if wall_s > 0 else 0.0
        return out
