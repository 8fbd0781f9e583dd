"""Span tracing of grushko's layers, wrapped from outside the package.

A `Tracer` wraps named public functions of the package's modules (the
layers) and rebinds every reference to them: the attribute on the defining
module, every other `grushko.*` module that imported the function by name
(verify and basis_complex do), and the package namespace.  Methods are
rebound on their class.  Each call records one span (name, start, end,
parent) in memory; `account` turns the spans into per-function calls and
busy seconds and per-module self time.  Hooks count work at the same
boundaries.  A target that no longer exists is reported as an absent
layer, not an error, so the tracer survives API churn.

The benchmark runs each round in a fresh worker process and installs a
tracer there, so the figures of one round (`Tracer.totals`) are added up
across rounds with `Accounting.add`.

Word operations are deliberately not wrapped: they are the inner loop and
their cost shows in the self time of the modules that call them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: `<module>.<path>` inside the package.

    `name(args)` overrides the span name (default `<module>.<path>`);
    `hook(tracer, args, result)` updates counters after the span has
    ended.  `args` is the call's bound arguments by parameter name when
    `bind` is set and None otherwise, so calls whose hook ignores their
    arguments skip the binding.
    """

    module: str
    path: str
    name: Callable[[dict], str] | None = None
    hook: Callable[["Tracer", dict | None, object], None] | None = None
    bind: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}.{self.path}"


# ---------------------------------------------------------------------------
# hooks: work counts at layer boundaries
# ---------------------------------------------------------------------------

def _words_upto(n: int, max_len: int) -> int:
    """Reduced words of length 0..max_len over n involutions (computed)."""
    return 1 + sum(n * (n - 1) ** (k - 1) for k in range(1, max_len + 1))


def _sweep_hook(tr: "Tracer", args, result) -> None:
    if "n" in args and "max_len" in args:
        tr.counters["kernels.words_enumerated"] += _words_upto(args["n"], args["max_len"])
    tr.counters["kernels.visible_words"] += len(result)


def _canonical_pair_hook(tr: "Tracer", args, result) -> None:
    tr.canonical_keys.add(tuple(args.values())[:2])


def _is_basis_hook(tr: "Tracer", args, result) -> None:
    tr.counters["membership.is_basis.true"] += bool(result)


def _fold_hook(tr: "Tracer", args, result) -> None:
    tr.counters["membership.fold.vertices"] += getattr(result, "num_vertices", 0)


def _order_complex_hook(tr: "Tracer", args, result) -> None:
    for size, count in Counter(map(len, result.simplices)).items():
        tr.counters[f"topology.simplices.d{size - 1}"] += count


def _chain_complex_hook(tr: "Tracer", args, result) -> None:
    # distinct complexes by identity; a dead weakref means the id was reused
    cx = tuple(args.values())[1]
    ref = tr.complexes.get(id(cx))
    if ref is None or ref() is not cx:
        tr.complexes[id(cx)] = weakref.ref(cx)
        tr.counters["topology.complexes"] += 1
    tr.counters["topology.ChainComplex.builds"] += 1


def _matrix_rank_name(args) -> str:
    fieldname = tuple(args.values())[1]
    return "topology.matrix_rank." + ("Q" if fieldname == "Q" else f"F{fieldname}")


def _matrix_rank_hook(tr: "Tracer", args, result) -> None:
    tr.counters["topology.matrix_rank.cols"] += len(tuple(args.values())[0])


def _build_unpaired_hook(tr: "Tracer", args, result) -> None:
    tr.counters["basis_complex.certified"] += len(result.classes)
    tr.counters["basis_complex.uncertified"] += len(result.params.get("uncertified", ()))


# Public layer entry points.  Besides the functions the per-layer metrics
# name, the ones the benchmark calls directly are wrapped too, so that time
# inside the package is not left in the benchmark's own residual.
LAYERS: tuple[Target, ...] = (
    Target("kernels", "sweep_visible", hook=_sweep_hook, bind=True),
    Target("kernels", "segment_tables"),
    Target("factors", "canonical_pair", hook=_canonical_pair_hook, bind=True),
    Target("factors", "canonical_class"),
    Target("visibility", "visible_classes"),
    Target("visibility", "visible_classes_brute"),
    Target("visibility", "is_visible"),
    Target("visibility", "certify_partial_basis"),
    Target("visibility", "bp_fiber"),
    Target("membership", "is_basis", hook=_is_basis_hook),
    Target("membership", "fold", hook=_fold_hook),
    Target("topology", "Poset.from_leq"),
    Target("topology", "Poset.isomorphic_via"),
    Target("topology", "Poset.order_complex", hook=_order_complex_hook),
    Target("topology", "ChainComplex.__init__", hook=_chain_complex_hook, bind=True),
    Target("topology", "matrix_rank", name=_matrix_rank_name, hook=_matrix_rank_hook, bind=True),
    Target("topology", "matrix_snf"),
    Target("topology", "betti"),
    Target("topology", "integral_homology"),
    Target("topology", "components"),
    Target("topology", "join_poset"),
    Target("topology", "verify_wedge"),
    Target("basis_complex", "build_unpaired_radius", hook=_build_unpaired_hook),
    Target("basis_complex", "connectivity_report"),
    Target("basis_complex", "PartialBasisComplex.order_complex"),
    Target("basis_complex", "PartialBasisComplex.poset"),
    Target("trees", "enumerate_shapes"),
)

MODULES = ("kernels", "factors", "visibility", "membership", "topology", "basis_complex", "trees")
PACKAGE = "grushko"


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Wraps layer functions of the package and records their spans."""

    def __init__(self, targets=LAYERS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.canonical_keys: set = set()
        self.complexes: dict[int, weakref.ref] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, target: Target):
        """A traced stand-in for fn that records a span per call."""
        tracer = self
        clock = time.perf_counter_ns
        sig = inspect.signature(fn)
        fixed = None if target.name else self._name_id(target.label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if target.bind else None
            nid = fixed if fixed is not None else tracer._name_id(target.name(bound))
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if target.hook is not None:
                target.hook(tracer, bound, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target that exists; record the rest as absent."""
        for target in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ModuleNotFoundError:
                self.absent.append(target.label)
                continue
            *owners, attr = target.path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(target.label)
                continue
            original = vars(owner).get(attr) if owners else getattr(owner, attr, None)
            kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
            fn = original.__func__ if kind else original
            if not callable(fn):
                self.absent.append(target.label)
                continue
            traced = self.wrap(fn, target)
            if kind:
                traced = kind(traced)
            if owners:
                self._rebind(owner, attr, traced)
            else:
                self._rebind_everywhere(original, traced)
        return self

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, traced) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self):
        """(name, start_ns, end_ns, parent_index) per recorded span."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)]

    def totals(self, wall_ns: int) -> "Accounting":
        """The accounting of the spans so far, with the hooks' counters."""
        acc = account(self.spans(), wall_ns)
        acc.counters.update(self.counters)
        acc.counters["factors.canonical_pair.distinct"] += len(self.canonical_keys)
        return acc


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

@dataclass
class Accounting:
    calls: Counter = field(default_factory=Counter)      # span name -> calls
    busy_ns: Counter = field(default_factory=Counter)    # span name -> inclusive ns
    self_ns: Counter = field(default_factory=Counter)    # module -> exclusive ns
    residual_ns: int = 0                                 # wall not inside any span
    wall_ns: int = 0
    counters: Counter = field(default_factory=Counter)   # hook counts

    def add(self, other: "Accounting") -> "Accounting":
        """Add another stretch of traced time, such as a further round."""
        for mine, theirs in ((self.calls, other.calls), (self.busy_ns, other.busy_ns),
                             (self.self_ns, other.self_ns), (self.counters, other.counters)):
            mine.update(theirs)
        self.residual_ns += other.residual_ns
        self.wall_ns += other.wall_ns
        return self


def account(spans, wall_ns: int) -> Accounting:
    """Per-name calls and busy time, per-module self time and the residual.

    A span's self time is its duration minus that of its direct children;
    the module is the first component of the span name.  Top-level spans
    are subtracted from the wall time to give the benchmark's residual, so
    residual plus all module self times equals wall_ns exactly.  Busy time
    of a recursive name counts every nested call.
    """
    out = Accounting(wall_ns=wall_ns)
    durations = [end - start for _, start, end, _ in spans]
    child_ns = [0] * len(spans)
    top_ns = 0
    for (_, _, _, parent), dur in zip(spans, durations):
        if parent < 0:
            top_ns += dur
        else:
            child_ns[parent] += dur
    for (name, _, _, _), dur, inner in zip(spans, durations, child_ns):
        out.calls[name] += 1
        out.busy_ns[name] += dur
        out.self_ns[name.split(".", 1)[0]] += dur - inner
    out.residual_ns = wall_ns - top_ns
    return out

