"""Per-layer spans and counters, recorded from the benchmark's side.

``Tracer.install`` wraps every public function of the nine layer modules and
every method of their classes, then rebinds each wrapped function wherever a
module of the package holds it: ``moduli.sym_power_curve`` as well as
``macdonald.sym_power_curve``, ``jacobians.n0_odd``, the series names that
``verify`` and ``cli`` import, and the package's re-exports.  Methods are
patched on their classes, so every caller sees them.  Nothing in ``src/``
changes.

A span's self time is its duration minus the time of the spans it encloses.
Spans are folded into per-layer totals as they close, so memory stays flat.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

LAYERS = ("laurent", "motive", "series", "macdonald", "moduli", "realize",
          "jacobians", "verify", "cli")

#: work counters recorded at layer boundaries
COUNTERS = ("laurent.constructed", "laurent.mul_term_pairs", "laurent.div_calls",
            "motive.constructed", "motive.weight_part_calls",
            "series.coeff_products", "realize.bilaurent_mul_term_pairs")

#: repeat ratio -> function whose calls are keyed by their arguments
REPEATS = {"macdonald.sym_power_repeat_frac": "sym_power_curve",
           "moduli.n0_odd_repeat_frac": "n0_odd"}


#: bindings of imported names that must be traced like the originals
REQUIRED_BINDINGS = ("moduli.sym_power_curve", "jacobians.n0_odd",
                     "verify.big_f", "verify.binomial_series", "verify.geometric",
                     "cli.big_f", "cli.sym_power_curve", "cli.decompose")


class Tracer:
    def __init__(self):
        self.stats = {layer: [0, 0.0] for layer in LAYERS}  # [calls, self seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.seen = {name: set() for name in REPEATS.values()}
        self.repeats = {name: [0, 0] for name in REPEATS.values()}  # [repeats, calls]
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for acc in self.stats.values():
            acc[0], acc[1] = 0, 0.0
        for key in self.counts:
            self.counts[key] = 0
        for name in self.seen:
            self.seen[name].clear()
            self.repeats[name][:] = [0, 0]

    def metrics(self) -> dict:
        out = {}
        for layer, (calls, self_s) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out.update(self.counts)
        for metric, name in REPEATS.items():
            repeats, calls = self.repeats[name]
            out[metric] = repeats / calls if calls else 0.0
        return out

    # -- hooks: counters taken on a call's arguments, before it runs -----------

    def _hooks(self, mods) -> dict:
        counts = self.counts
        laurent_type = mods["laurent"].LaurentInt
        bilaurent_type = mods["realize"].BiLaurent

        def terms(value, kind):
            if isinstance(value, kind):
                return len(value._c)
            return 1 if isinstance(value, int) and value else 0

        def count(key):
            def hook(*args, **kwargs):
                counts[key] += 1
            return hook

        def laurent_mul(self_, other):
            counts["laurent.mul_term_pairs"] += len(self_._c) * terms(other, laurent_type)

        def bilaurent_mul(self_, other):
            counts["realize.bilaurent_mul_term_pairs"] += (
                len(self_._c) * terms(other, bilaurent_type))

        def series_mul(self_, other):
            n = min(len(self_._coeffs), len(getattr(other, "_coeffs", ())))
            counts["series.coeff_products"] += n * (n + 1) // 2

        def repeat(name):
            seen, acc = self.seen[name], self.repeats[name]

            def hook(*args, **kwargs):
                key = args + tuple(sorted(kwargs.items()))
                acc[1] += 1
                if key in seen:
                    acc[0] += 1
                else:
                    seen.add(key)
            return hook

        return {
            ("laurent", "LaurentInt.__init__"): count("laurent.constructed"),
            ("laurent", "LaurentInt.__mul__"): laurent_mul,
            ("laurent", "LaurentInt.__rmul__"): laurent_mul,
            ("laurent", "LaurentInt.exact_div"): count("laurent.div_calls"),
            ("laurent", "LaurentInt.series_div"): count("laurent.div_calls"),
            ("motive", "MotiveClass.__init__"): count("motive.constructed"),
            ("motive", "MotiveClass.weight_part"): count("motive.weight_part_calls"),
            ("series", "MotiveSeries.__mul__"): series_mul,
            ("realize", "BiLaurent.__mul__"): bilaurent_mul,
            ("realize", "BiLaurent.__rmul__"): bilaurent_mul,
            ("macdonald", "sym_power_curve"): repeat("sym_power_curve"),
            ("moduli", "n0_odd"): repeat("n0_odd"),
        }

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, layer: str, fn, hook):
        stack = self._stack
        acc = self.stats[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                acc[0] += 1
                acc[1] += span - stack.pop()
                if stack:
                    stack[-1] += span

        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        traced.__doc__, traced.__module__ = fn.__doc__, fn.__module__
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, mods: dict) -> None:
        """Wrap the layer modules in `mods` (layer name -> module)."""
        hooks = self._hooks(mods)
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = self._wrap(layer, obj, hooks.pop((layer, name), None))
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, tuple)):
                    self._wrap_class(layer, obj, hooks)
        if hooks:
            raise RuntimeError(f"counter hooks found no target: {sorted(hooks)}")
        prefix = mods["laurent"].__package__
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == prefix or name.startswith(prefix + ".")]
        rebound = set()
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, FunctionType) and id(obj) in wrapped:
                    rebound.add(id(obj))
                    self._set(ns, name, wrapped[id(obj)])
        missing = [path for path in REQUIRED_BINDINGS
                   if not hasattr(getattr(mods[path.split(".")[0]],
                                          path.split(".")[1]), "__wrapped__")]
        if missing or rebound != set(wrapped):
            raise RuntimeError(f"bindings left unwrapped: {missing}")

    def _wrap_class(self, layer: str, cls: type, hooks: dict) -> None:
        for name, attr in list(vars(cls).items()):
            key = (layer, f"{cls.__name__}.{name}")
            if isinstance(attr, FunctionType):
                self._set(cls, name, self._wrap(layer, attr, hooks.pop(key, None)))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(layer, attr.__func__, None)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(cls, name, property(self._wrap(layer, attr.fget, None)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
