"""Span tracing of groupwalk's public functions, installed from outside.

`install()` wraps the functions named in TARGETS at every place the package
binds them (modules import each other with `from .linalg import ...`), and
class methods on their class.  Each call records a span
[name, start_ns, end_ns, parent_index] in memory; `dump()` writes them once
at the end.  Per-element hot paths (group.mul, GF2System.add, Fraction
arithmetic) are never wrapped; the counts that need them are derived from
call arguments, inside "trace.count" spans so their cost is not charged to
any layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

GROUP_CLASSES = (
    "CyclicGroup",
    "DihedralGroup",
    "SymmetricGroup",
    "QuaternionGroup",
    "TableGroup",
    "ProductGroup",
    "LatticeBall",
    "FreeBall",
)


def _rref_count(tracer, args, kwargs):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    tracer.counts["linalg.rref_cells"] += rows * cols
    tracer.seen["linalg.rref"].add(hash(tuple(tuple(row) for row in matrix)))


def _matmul_count(tracer, args, kwargs):
    a, b = args[0], args[1]
    tracer.counts["linalg.matmul_mults"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _spectrum_count(tracer, args, kwargs):
    op = args[0]
    key = (op.group.name, op.side, tuple(sorted(op.measure.weights.items())))
    tracer.seen["operators.spectrum"].add(key)


def _character_count(tracer, args, kwargs):
    group, mu = args[0], args[1]
    if not group.is_truncated:
        tracer.counts["harmonic.character_equations"] += group.order ** 2 + len(mu.weights)


# (module, attribute, span name, counter); "Class.method" wraps on the class
TARGETS = [
    ("groups", "build_group", "groups.build", None),
    *[("groups", f"{cls}.__init__", "groups.build", None) for cls in GROUP_CLASSES],
    ("measures", "is_generating", "measures.generating", None),
    ("measures", "min_return", "measures.min_return", None),
    ("linalg", "rational_rref", "linalg.rref", _rref_count),
    ("linalg", "rational_nullspace", "linalg.nullspace", None),
    ("linalg", "rational_matmul", "linalg.matmul", _matmul_count),
    ("linalg", "rational_solve", "linalg.solve", None),
    ("linalg", "float_nullspace", "linalg.float_nullspace", None),
    ("operators", "ConvolutionOperator.exact_matrix", "operators.exact_matrix", None),
    ("operators", "ConvolutionOperator.as_array", "operators.as_array", None),
    ("operators", "apply", "operators.apply", None),
    ("operators", "apply_truncated", "operators.apply_truncated", None),
    ("operators", "spectrum", "operators.spectrum", _spectrum_count),
    ("operators", "eigenspace", "operators.eigenspace", None),
    ("harmonic", "find_anti_character", "harmonic.character", _character_count),
    ("harmonic", "harmonic_space", "harmonic.harmonic_space", None),
    ("harmonic", "anti_harmonic_space", "harmonic.anti_harmonic_space", None),
    ("harmonic", "jointly_biharmonic_space", "harmonic.biharmonic", None),
    ("harmonic", "peripheral_boundary", "harmonic.boundary", None),
    ("harmonic", "diamond", "harmonic.diamond", None),
    ("harmonic", "decompose", "harmonic.decompose", None),
    ("verify", "corpus_fixtures", "verify.corpus", None),
    ("verify", "random_symmetric_generating_measure", "verify.corpus", None),
    ("verify", "fixture_theorem_checks", "verify.fixture_checks", None),
    ("verify", "foguel_decay", "verify.foguel_decay", None),
    ("verify", "root_of_unity_check", "verify.root_of_unity", None),
    ("verify", "revuz_check", "verify.revuz_check", None),
    ("verify", "exp_bound_check", "verify.exp_bound", None),
    ("verify", "verify_suite", "verify.suite", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run_analysis", "cli.run_analysis", None),
    ("cli", "_emit", "cli.emit", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.seen = defaultdict(set)

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count is not None:
                start = clock()
                count(self, args, kwargs)
                spans.append(["trace.count", start, clock(), parent])
            record = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target at its definition and at each import site."""
        import numpy as np

        import groupwalk.cli  # noqa: F401  (loads every module of the package)

        modules = [m for k, m in sys.modules.items() if k == "groupwalk" or k.startswith("groupwalk.")]
        for module_name, attr, span, count in TARGETS:
            home = sys.modules[f"groupwalk.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(span, cls.__dict__[method], count))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(span, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        # numpy's eigensolvers are called only from operators.spectrum
        for attr in ("eig", "eigh"):
            setattr(np.linalg, attr, self.wrap("operators.eigensolve", getattr(np.linalg, attr)))

    def dump(self, path):
        counts = dict(self.counts)
        for name, keys in self.seen.items():
            counts[f"{name}_distinct"] = len(keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def self_times(spans):
    """Total self time in seconds and call count per span name."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(int)
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start - child[i]
        calls[name] += 1
    return {k: v / 1e9 for k, v in total.items()}, calls


def layer_metrics(trace):
    """Per-layer metrics from one dumped trace."""
    spans = trace["spans"]
    counts = trace["counts"]
    self_s, calls = self_times(spans)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ratio(distinct, total):
        return distinct / total if total else 0.0

    build_calls = sum(
        1 for name, _, _, parent in spans
        if name == "groups.build" and (parent < 0 or spans[parent][0] != "groups.build")
    )
    out = {
        "groups.build_s": (s("groups.build"), "s"),
        "groups.build_calls": (build_calls, "count"),
        "measures.generating_s": (s("measures.generating"), "s"),
        "measures.min_return_s": (s("measures.min_return"), "s"),
        "linalg.rref_s": (s("linalg.rref", "linalg.nullspace"), "s"),
        "linalg.rref_calls": (calls["linalg.rref"], "count"),
        "linalg.rref_cells": (counts.get("linalg.rref_cells", 0), "count"),
        "linalg.rref_unique_ratio": (
            ratio(counts.get("linalg.rref_distinct", 0), calls["linalg.rref"]), "ratio"
        ),
        "linalg.matmul_s": (s("linalg.matmul"), "s"),
        "linalg.matmul_mults": (counts.get("linalg.matmul_mults", 0), "count"),
        "linalg.solve_s": (s("linalg.solve"), "s"),
        "linalg.float_nullspace_s": (s("linalg.float_nullspace"), "s"),
        "operators.exact_matrix_s": (s("operators.exact_matrix"), "s"),
        "operators.exact_matrix_calls": (calls["operators.exact_matrix"], "count"),
        "operators.apply_s": (s("operators.apply"), "s"),
        "operators.apply_calls": (calls["operators.apply"], "count"),
        "operators.eigenspace_s": (s("operators.eigenspace"), "s"),
        "operators.as_array_s": (s("operators.as_array"), "s"),
        "operators.spectrum_s": (s("operators.spectrum"), "s"),
        "operators.eigensolve_s": (s("operators.eigensolve"), "s"),
        "operators.spectrum_calls": (calls["operators.spectrum"], "count"),
        "operators.spectrum_unique_ratio": (
            ratio(counts.get("operators.spectrum_distinct", 0), calls["operators.spectrum"]),
            "ratio",
        ),
        "operators.apply_truncated_s": (s("operators.apply_truncated"), "s"),
        "harmonic.character_s": (s("harmonic.character"), "s"),
        "harmonic.character_equations": (counts.get("harmonic.character_equations", 0), "count"),
        "harmonic.harmonic_space_s": (s("harmonic.harmonic_space"), "s"),
        "harmonic.anti_harmonic_space_s": (s("harmonic.anti_harmonic_space"), "s"),
        "harmonic.biharmonic_s": (s("harmonic.biharmonic"), "s"),
        "harmonic.boundary_s": (s("harmonic.boundary"), "s"),
        "harmonic.diamond_calls": (calls["harmonic.diamond"], "count"),
        "harmonic.decompose_s": (s("harmonic.decompose"), "s"),
        "verify.corpus_s": (s("verify.corpus"), "s"),
        "verify.fixture_checks_s": (s("verify.fixture_checks"), "s"),
        "verify.foguel_decay_s": (s("verify.foguel_decay"), "s"),
        "verify.root_of_unity_s": (s("verify.root_of_unity"), "s"),
        "verify.revuz_check_s": (s("verify.revuz_check"), "s"),
        "verify.exp_bound_s": (s("verify.exp_bound"), "s"),
        "cli.load_config_s": (s("cli.load_config"), "s"),
        "cli.run_analysis_s": (s("cli.run_analysis"), "s"),
        "cli.emit_s": (s("cli.emit"), "s"),
    }
    # whole-module self time, so every layer reads on every workload
    for layer in ("groups", "measures", "linalg", "operators", "harmonic", "verify", "cli"):
        out[f"{layer}.self_s"] = (
            sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0), "s"
        )
    return out
