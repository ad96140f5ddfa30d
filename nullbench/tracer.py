"""Outside-in span recorder for the traced benchmark run.

The library has no trace hooks of its own, so the recorder replaces the
public functions of each layer with timing wrappers from outside.  The
modules import functions by name (``measures`` does ``from .algebra import
minor``), so a function is replaced in every ``nullag.*`` namespace that
bound the same object; methods and staticmethods are replaced on their
class.  Each call becomes a span ``[name, start, end, parent, instance]``
kept in memory; counts taken from arguments and return values sit beside
the spans.  ``self_times`` turns the spans into per-layer self time: a
span's duration minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _len_result(args, kwargs, result):
    return {"pairs": len(result)}


def _nl_counts(args, kwargs, result):
    return {"checked": result.checked, "skipped": result.skipped}


def _rank_one_counts(args, kwargs, result):
    return {"found": int(bool(result.found))}


def _chain_counts(args, kwargs, result):
    chain = getattr(result, "chain", None)
    return {"terminal": int(chain is not None)}


def _farkas_counts(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"cols": problem.A.cols, "feasible": int(bool(result.feasible))}


def _iterate_counts(args, kwargs, result):
    return {"steps": len(result.trace)}


# (dotted name under nullag, count hook or None).  The names are the
# per-layer metric prefixes; see README for what each should move.
TARGETS = (
    ("algebra.enumerate_minors", _len_result),
    ("algebra.nonvanishing_minor_candidates", _len_result),
    ("algebra.minor", None),
    ("algebra.psd_analyze", None),
    ("algebra.QuadraticForm.from_poly", None),
    ("algebra.RationalMatrix.det", None),
    ("algebra.RationalMatrix.rref", None),
    ("subspace.find_rank_one", _rank_one_counts),
    ("subspace.minor_polys", None),
    ("subspace.Subspace.evaluate", None),
    ("certify.reduce_chain", _chain_counts),
    ("certify.find_certificate_d_le_3", None),
    ("certify.verify_combination", None),
    ("certify.grassmann_genericity", None),
    ("measures.is_null_lagrangian", _nl_counts),
    ("measures.construct_nontrivial", None),
    ("measures.farkas_solve", _farkas_counts),
    ("measures.subspace_value_fn", None),
    ("conslaw.build_atoms", None),
    ("conslaw.iterate_weights", _iterate_counts),
    ("conslaw.five_atom_measure", None),
    ("conslaw.push_forward_to_K1", None),
    ("cli.main", None),
)

# spans of the closure that subspace_value_fn returns: one per sampled point
VALUE_CLOSURE = "measures.subspace_value_fn.value"
ROOT = "cli.main"


class Tracer:
    """Holds the spans and counts of one traced pass.

    ``spans`` rows are ``[name, start, end, parent_index, instance]``;
    ``counts`` maps a span name to its summed count hooks.
    """

    def __init__(self):
        self.instance = None
        self.reset()
        self._restore = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = self.spans
            stack = self._stack
            row = [name, time.perf_counter(), None, stack[-1] if stack else None, self.instance]
            rows.append(row)
            stack.append(len(rows) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = time.perf_counter()
            if hook is not None:
                counts = self.counts[name]
                for key, value in hook(args, kwargs, result).items():
                    if key == "cols":
                        counts["max_cols"] = max(counts["max_cols"], value)
                    else:
                        counts[key] += value
            return result

        return wrapper

    def install(self):
        """Wrap every target in place; ``uninstall`` restores the originals."""
        import nullag.cli  # noqa: F401  (loads every layer module)

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nullag" or k.startswith("nullag."))]
        for dotted, hook in TARGETS:
            modname, *path = dotted.split(".")
            module = sys.modules["nullag." + modname]
            if len(path) == 1:
                original = getattr(module, path[0])
                if dotted == "measures.subspace_value_fn":
                    wrapper = self._wrap_value_fn(original, dotted)
                else:
                    wrapper = self.wrap(original, dotted, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, original))
            else:
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, dotted, hook))
                else:
                    new = self.wrap(raw, dotted, hook)
                setattr(cls, path[1], new)
                self._restore.append((cls, path[1], raw))

    def _wrap_value_fn(self, factory, name):
        wrapped_factory = self.wrap(factory, name)

        @functools.wraps(factory)
        def value_fn(*args, **kwargs):
            return self.wrap(wrapped_factory(*args, **kwargs), VALUE_CLOSURE)

        return value_fn

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []


def self_times(spans):
    """Per-span self time: duration minus the time direct children cover.

    Spans of one thread nest, so direct children are disjoint intervals
    inside their parent and their durations can be summed.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, inst in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - c for (name, start, end, parent, inst), c in zip(spans, child)]


def max_self_sum_error(spans):
    """Largest gap, over commands, between the summed self times of a
    command's spans and the duration of its root span (should be ~0)."""
    roots = []
    total = {}
    for i, (row, s) in enumerate(zip(spans, self_times(spans))):
        root = i if row[3] is None else roots[row[3]]
        roots.append(root)
        total[root] = total.get(root, 0.0) + s
    return max((abs(t - (spans[r][2] - spans[r][1])) for r, t in total.items()), default=0.0)


def layer_metrics(spans, counts):
    """Per-layer self time, calls and derived counts of one traced pass."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for row, s in zip(spans, selfs):
        self_s[row[0]] += s
        calls[row[0]] += 1
    out = {}
    for dotted, _ in TARGETS:
        key = "cli" if dotted == ROOT else dotted
        out[key + ".self_s"] = self_s[dotted]
        out[key + ".calls"] = calls[dotted]
    out["measures.subspace_value_fn.self_s"] += self_s[VALUE_CLOSURE]
    out["measures.subspace_value_fn.points"] = calls[VALUE_CLOSURE]

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    out["algebra.enumerate_minors.pairs"] = c("algebra.enumerate_minors", "pairs")
    out["algebra.nonvanishing_minor_candidates.pairs"] = c(
        "algebra.nonvanishing_minor_candidates", "pairs")
    checked = c("measures.is_null_lagrangian", "checked")
    skipped = c("measures.is_null_lagrangian", "skipped")
    out["measures.is_null_lagrangian.checked"] = checked
    out["measures.is_null_lagrangian.skipped_frac"] = _ratio(skipped, checked + skipped)
    out["subspace.find_rank_one.found"] = c("subspace.find_rank_one", "found")
    chains = calls["certify.reduce_chain"]
    terminal = c("certify.reduce_chain", "terminal")
    out["certify.reduce_chain.steps"] = _chain_steps(spans, chains, terminal)
    out["certify.reduce_chain.terminal_frac"] = _ratio(terminal, chains)
    out["measures.farkas_solve.max_cols"] = c("measures.farkas_solve", "max_cols")
    out["measures.farkas_solve.feasible_frac"] = _ratio(
        c("measures.farkas_solve", "feasible"), calls["measures.farkas_solve"])
    out["conslaw.iterate_weights.steps"] = c("conslaw.iterate_weights", "steps")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _chain_steps(spans, chains, terminal):
    """Cones the chain examined: one verified combination per completed
    step, plus the cone each non-terminal chain got stuck on."""
    starts = {i for i, row in enumerate(spans) if row[0] == "certify.reduce_chain"}
    verified = sum(1 for row in spans
                   if row[0] == "certify.verify_combination" and row[3] in starts)
    return verified + chains - terminal
