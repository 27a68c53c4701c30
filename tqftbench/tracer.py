"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each traced public function of
``tqftkit`` with a timing wrapper in every module that binds it (modules
import kernels by name, so ``evaluate.matmul`` and ``frobenius.kron`` are
separate bindings of one function), plus ``Matrix.identity``, and puts
the originals back on exit.  Spans (name, start, end, parent) are kept
in memory and written out at the end.  A span's self time is its
duration minus its children's durations and minus the wrapper's own
counting work.  Only the traced run imports this module.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

WRAPPED = "__tqftbench_wrapped__"

# (module, function) pairs traced; span names are "<layer>.<function>"
# with the layer named after the module.
TARGETS = (
    ("exactlin", "matmul"),
    ("exactlin", "kron"),
    ("exactlin", "swap_matrix"),
    ("exactlin", "rank"),
    ("exactlin", "inverse"),
    ("exactlin", "matrix_to_json"),
    ("exactlin", "matrix_from_json"),
    ("terms", "parse_term"),
    ("terms", "typecheck"),
    ("evaluate", "eval_term"),
    ("evaluate", "bend_state"),
    ("evaluate", "reconstruct_map"),
    ("evaluate", "check_relations"),
    ("frobenius", "check_axioms"),
    ("frobenius", "from_economy"),
    ("frobenius", "to_economy"),
    ("frobenius", "morphism_inverse"),
    ("frobenius", "admits_frobenius_form"),
    ("algebras", "builtin_algebra"),
    ("algebras", "group_algebra"),
    ("algebras", "milnor_ring"),
    ("algebras", "matrix_center_algebra"),
    ("surfaces", "surface_invariant"),
    ("surfaces", "frobenius_interpretation"),
    ("surfaces", "reduce_along_circle"),
    ("dualpairs", "dual_pair_interpretation"),
    ("dualpairs", "dp_morphism_inverse"),
    ("fusion", "validate_fusion_ring"),
    ("fusion", "hom_dimension"),
    ("fusion", "grothendieck_frobenius"),
    ("cli", "run"),
)
IDENTITY = "exactlin.identity"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS) + (IDENTITY,)

COUNTERS = (
    "exactlin.matmul.madds_dense",
    "exactlin.matmul.madds_nonzero",
    "exactlin.kron.entries_out",
    "exactlin.identity.entries_out",
    "exactlin.swap_matrix.entries_out",
    "exactlin.rank.entries_in",
    "terms.parse_term.chars",
    "terms.typecheck.nodes",
    "evaluate.eval_term.nodes",
)


def _nodes(term) -> int:
    """Node count of a term, without recursion (terms can be very deep)."""
    count, stack = 0, [term]
    while stack:
        t = stack.pop()
        count += 1
        for child in ("first", "then", "left", "right"):
            sub = getattr(t, child, None)
            if sub is not None:
                stack.append(sub)
    return count


def _numerators(a):
    """Row-major numerators: the dense ``nums`` tuple when the matrix keeps
    one, otherwise read through the public ``entry``."""
    nums = getattr(a, "nums", None)
    if isinstance(nums, tuple) and len(nums) == a.rows * a.cols:
        return nums
    return tuple(a.entry(i, j).numerator for i in range(a.rows) for j in range(a.cols))


def _count_matmul(c, a, b):
    n, k, m = a.rows, a.cols, b.cols
    if k != b.rows:
        return
    c["exactlin.matmul.madds_dense"] += n * k * m
    anums, bnums = _numerators(a), _numerators(b)
    nonzero = 0
    for t in range(k):
        col = n - anums[t::k].count(0)
        if col:
            nonzero += col * (m - bnums[t * m:(t + 1) * m].count(0))
    c["exactlin.matmul.madds_nonzero"] += nonzero


def _count_rank(c, a):
    c["exactlin.rank.entries_in"] += a.rows * a.cols


def _count_parse(c, text, sig):
    c["terms.parse_term.chars"] += len(text)


def _count_typecheck(c, t, sig):
    c["terms.typecheck.nodes"] += _nodes(t)


def _count_eval(c, t, interp):
    c["evaluate.eval_term.nodes"] += _nodes(t)


# counting done on the arguments before the call
BEFORE = {
    "exactlin.matmul": _count_matmul,
    "exactlin.rank": _count_rank,
    "terms.parse_term": _count_parse,
    "terms.typecheck": _count_typecheck,
    "evaluate.eval_term": _count_eval,
}
# spans whose matrix result counts towards entries_out
ENTRIES_OUT = {"exactlin.kron", "exactlin.swap_matrix", IDENTITY}
# spans whose matrix result counts towards the peak matrix size
MATRIX_RESULT = ENTRIES_OUT | {"exactlin.matmul", "exactlin.inverse", "exactlin.matrix_from_json"}


class Tracer:
    def __init__(self, tq):
        self.tq = tq
        self.active = True
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.peak_entries = 0
        self.names = list(SPAN_NAMES)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_overhead = array("d")
        self._stack = []
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, func):
        tracer = self
        nid = self.names.index(name)
        before = BEFORE.get(name)
        entries_key = f"{name}.entries_out" if name in ENTRIES_OUT else None
        sized = name in MATRIX_RESULT

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            start = perf_counter()
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_overhead.append(0.0)
            stack.append(idx)
            overhead = 0.0
            try:
                if before is not None:
                    before(tracer.counts, *args, **kwargs)
                    overhead = perf_counter() - start
                result = func(*args, **kwargs)
                if sized:
                    t = perf_counter()
                    entries = result.rows * result.cols
                    if entries_key is not None:
                        tracer.counts[entries_key] += entries
                    if entries > tracer.peak_entries:
                        tracer.peak_entries = entries
                    overhead += perf_counter() - t
                return result
            finally:
                stack.pop()
                tracer.span_overhead[idx] = overhead
                tracer.span_end[idx] = perf_counter()

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "tqftkit" or name.startswith("tqftkit."))]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target; restore the originals on exit."""
        modules = self._modules()
        try:
            for module_name, func_name in TARGETS:
                original = getattr(sys.modules["tqftkit." + module_name], func_name, None)
                if original is None:  # gone from the program: reported as 0 calls
                    continue
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            matrix_cls = self.tq.exactlin.Matrix
            original = matrix_cls.__dict__["identity"]
            self._patches.append((matrix_cls, "identity", original))
            matrix_cls.identity = classmethod(self._wrap(IDENTITY, original.__func__))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through untraced, e.g. while results are checked."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def leftover_wrappers(self) -> list:
        """Names of wrappers still installed anywhere in the program."""
        found = [f"{m.__name__}.{attr}" for m in self._modules()
                 for attr, value in vars(m).items() if getattr(value, WRAPPED, False)]
        ident = self.tq.exactlin.Matrix.__dict__["identity"].__func__
        if getattr(ident, WRAPPED, False):
            found.append("Matrix.identity")
        return found

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = [d - o for d, o in zip(durations, self.span_overhead)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def metrics(self, passes: int, wall_untraced: float, wall_traced: float) -> dict:
        """Per-layer metrics, each per pass."""
        own = self.self_times()
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for nid, t in zip(self.span_name, own):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += t
        rank_id = self.names.index("exactlin.rank")
        admits_id = self.names.index("frobenius.admits_frobenius_form")
        grid_points = 0
        for i, nid in enumerate(self.span_name):
            if nid == rank_id:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != admits_id:
                    p = self.span_parent[p]
                grid_points += p >= 0

        out = {}
        for name in self.names:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        for key in COUNTERS:
            out[key] = (self.counts[key] / passes, "count")
        dense = self.counts["exactlin.matmul.madds_dense"]
        out["exactlin.matmul.useful_ratio"] = (
            self.counts["exactlin.matmul.madds_nonzero"] / dense if dense else 0.0, "ratio")
        out["exactlin.peak_matrix_entries"] = (self.peak_entries, "count")
        out["frobenius.admits_frobenius_form.grid_points"] = (grid_points / passes, "count")
        out["trace.wall_untraced_s"] = (wall_untraced / passes, "s")
        out["trace.wall_traced_s"] = (wall_traced / passes, "s")
        out["trace.overhead_s"] = ((wall_traced - wall_untraced) / passes, "s")
        out["trace.self_s_sum"] = (sum(own) / passes, "s")
        out["trace.spans"] = (len(own) / passes, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.span_name, self.span_start,
                                                   self.span_end, self.span_parent)):
                fh.write(f"{i}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\n")
