"""Out-of-library tracing of necklace-kit's layers.

`Tracer.install` wraps every public function of each layer module, plus the
product and row-insertion methods that do most of the arithmetic, and
rebinds each wrapped name in every `necklacekit` module that holds it (for
example `strata` imports `classify_root` and `forms` imports `concat` by
name, and `cli.COMMANDS` maps names to functions).  The library itself is
not edited.

Every call becomes a span (name, start, end, parent span, op id) kept in
flat arrays and written out once, when the run ends.  A generator function
gets one span per resumption, so the work done while a consumer iterates it
is charged to it.  A layer's self time is the total duration of its spans
minus the time their child spans cover; since everything runs on one
thread, spans nest and children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = (
    "quiver", "roots", "strata", "paths", "forms", "linalg", "lie", "numerics", "cli", "textio"
)

# Span names of the methods wrapped in addition to module-level functions.
METHODS = (
    ("forms", "FormSum", "__mul__", "forms.FormSum.mul"),
    ("paths", "PathSum", "__mul__", "paths.PathSum.mul"),
    ("linalg", "RowReducer", "add", "linalg.RowReducer.add"),
)

PER_LAYER_METRICS = (
    ("quiver.self_s", "s"),
    ("quiver.euler_form.calls", "count"),
    ("quiver.tits_form.calls", "count"),
    ("roots.self_s", "s"),
    ("roots.classify_root.calls", "count"),
    ("roots.reflections", "count"),
    ("strata.self_s", "s"),
    ("strata.sigma_membership.calls", "count"),
    ("strata.decompositions.yielded", "count"),
    ("paths.self_s", "s"),
    ("paths.concat.calls", "count"),
    ("paths.PathSum.mul.calls", "count"),
    ("paths.partial_derivative.calls", "count"),
    ("paths.project_to_necklaces.calls", "count"),
    ("forms.self_s", "s"),
    ("forms.FormSum.mul.calls", "count"),
    ("forms.differential.calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.RowReducer.add.calls", "count"),
    ("linalg.RowReducer.add.useful_ratio", "ratio"),
    ("lie.self_s", "s"),
    ("lie.kontsevich_bracket.calls", "count"),
    ("lie.derivation_commutator.calls", "count"),
    ("numerics.self_s", "s"),
    ("numerics.solve.calls", "count"),
    ("numerics.iterations", "count"),
    ("numerics.converged_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("textio.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


_COUNTED = frozenset(
    ("roots.classify_root", "numerics.solve", "linalg.RowReducer.add",
     "forms.FormSum.mul", "paths.PathSum.mul")
)


def _count_result(name, counters, args, result):
    """Work counters read off a call's arguments and result."""
    if name == "roots.classify_root":
        counters["roots.reflections"] += len(result.reflections)
    elif name == "numerics.solve":
        counters["numerics.iterations"] += result.iterations
        counters["numerics.converged"] += bool(result.converged)
    elif name == "linalg.RowReducer.add":
        counters["linalg.RowReducer.add.useful"] += bool(result)
    elif name in ("forms.FormSum.mul", "paths.PathSum.mul"):
        # products of two sums only, not scalings
        if type(args[1]) is type(args[0]):
            counters[name + ".products"] += 1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self
        counted = name in _COUNTED

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    tracer.counters[name + ".yielded"] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counted:
                _count_result(name, tracer.counters, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them everywhere."""
        modules = {layer: importlib.import_module(f"necklacekit.{layer}") for layer in LAYERS}
        package = importlib.import_module("necklacekit")
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in (package, *modules.values()):
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in replacements:
                    namespace[attr] = replacements[id(obj)]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            obj[key] = replacements[id(value)]
        for layer, cls_name, method, span_name in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self._wrap(span_name, getattr(cls, method)))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        count = len(self.name)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per_name = [0.0] * len(self.names)
        name = self.name
        for i in range(count):
            per_name[name[i]] += end[i] - start[i] - child[i]
        layers = dict.fromkeys(LAYERS, 0.0)
        for name_id, total in enumerate(per_name):
            layers[self.names[name_id].split(".", 1)[0]] += total
        return layers

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio, which needs an
        untraced run of the same ops."""
        calls, counters = self.calls, self.counters
        out: dict[str, float] = {
            f"{layer}.self_s": seconds for layer, seconds in self.self_times().items()
        }
        for name in (
            "quiver.euler_form",
            "quiver.tits_form",
            "roots.classify_root",
            "strata.sigma_membership",
            "paths.concat",
            "paths.partial_derivative",
            "paths.project_to_necklaces",
            "forms.differential",
            "linalg.RowReducer.add",
            "lie.kontsevich_bracket",
            "lie.derivation_commutator",
            "numerics.solve",
        ):
            out[f"{name}.calls"] = calls[name]
        out["paths.PathSum.mul.calls"] = counters["paths.PathSum.mul.products"]
        out["forms.FormSum.mul.calls"] = counters["forms.FormSum.mul.products"]
        out["roots.reflections"] = counters["roots.reflections"]
        out["strata.decompositions.yielded"] = counters["strata.decompositions.yielded"]
        out["numerics.iterations"] = counters["numerics.iterations"]
        adds = calls["linalg.RowReducer.add"]
        out["linalg.RowReducer.add.useful_ratio"] = (
            counters["linalg.RowReducer.add.useful"] / adds if adds else 0.0
        )
        solves = calls["numerics.solve"]
        out["numerics.converged_ratio"] = (
            counters["numerics.converged"] / solves if solves else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("op\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.name)):
                handle.write(
                    f"{self.op[i]}\t{names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\n"
                )
