"""Spans and counts around the public functions of each potbench module.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every public function of the layer modules by a timing wrapper, at every
name it is bound to (``solve_lp`` is imported by name into ``capacity`` and
``principles``, ``wmp_constant`` into ``sublinear`` and ``cli``, and every
function is re-exported by the package), and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, op id) stay in memory
until the run ends.  Counts are read from return values: ``LpSolution``
pivots, ``WmpReport``/``CompleteMpReport`` pairs, ``SolveResult``
iterations and the extras of each ``ConstantEstimate``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("core", "simplex", "principles", "capacity", "sublinear", "gallery", "cli")
CAPACITY_FUNCTIONS = ("capacity.cap0", "capacity.content", "capacity.wiener_cap1")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _subset_key(args, kwargs):
    kernel = _first_arg(args, kwargs, "kernel")
    points = args[1] if len(args) > 1 else kwargs["points"]
    idx = kernel.space.indices(points)
    return hash(kernel.entries.tobytes()), tuple(sorted(idx.tolist()))


def _weak_span_name(args, kwargs):
    q = _first_arg(args, kwargs, "problem").q
    return "sublinear.weak_type_constant." + ("q_gt1" if q > 1.0 else "q_le1")


class Tracer:
    """Collects spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = {}
        self.capacity_keys: set = set()
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original)
        self._measure_init = None

    # -- installation ------------------------------------------------------

    def _targets(self):
        """Original public functions by id, with their span names."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"potbench.{layer}"]
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        return targets

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [sys.modules["potbench"]] + [sys.modules[f"potbench.{layer}"]
                                               for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][1] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        measure = sys.modules["potbench.core"].Measure
        self._measure_init = measure.__post_init__
        original_init = self._measure_init
        counts = self.counts

        def counted_init(obj):
            counts["core.measure.builds"] = counts.get("core.measure.builds", 0) + 1
            original_init(obj)

        measure.__post_init__ = counted_init

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()
        if self._measure_init is not None:
            sys.modules["potbench.core"].Measure.__post_init__ = self._measure_init
            self._measure_init = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        namer = _weak_span_name if name == "sublinear.weak_type_constant" else None
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            parent = self._stack[-1] if self._stack else -1
            span = [span_name, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observer(self, name):
        if name == "simplex.solve_lp":
            return lambda a, k, r: self._add("simplex.solve_lp.pivots", r.iterations)
        if name in ("principles.wmp_constant", "principles.complete_mp_constant"):
            return lambda a, k, r: self._add(f"{name}.pairs", r.pairs_checked)
        if name in ("sublinear.gagliardo_supersolution", "sublinear.monotone_solution"):
            return lambda a, k, r: self._add(f"{name}.iterations", r.iterations)
        if name == "sublinear.strong_type_constant":
            def strong(a, k, r):
                gap = float(r.extras.get("certificate_gap", 0.0))
                key = "sublinear.strong.cert_gap_max"
                self.counts[key] = max(self.counts.get(key, 0.0), gap)
            return strong
        if name in CAPACITY_FUNCTIONS:
            return lambda a, k, r: self.capacity_keys.add((name,) + _subset_key(a, k))
        return None

    # -- aggregation -------------------------------------------------------

    def layer_table(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def capacity_distinct_frac(self, table) -> float:
        calls = sum(table.get(name, {}).get("calls", 0) for name in CAPACITY_FUNCTIONS)
        return len(self.capacity_keys) / calls if calls else 0.0

