"""Per-layer tracing from outside the program.

Every public function of every ``sympbw`` module is replaced, under each name
that any ``sympbw`` module binds it to, by a wrapper that counts the call and
times it.  The layers are the modules.  Time is attributed to the innermost
layer on the call stack, so a layer's self time is its span time minus the
child spans into other layers.

Spans (function, operation, parent span, start, end) are kept in memory and
written out at the end.  A function that runs more than ``SPAN_LIMIT`` times
in a run is only aggregated into a call count and a total time.
"""

import inspect
import json
import sys
import time
from array import array
from collections import Counter

SPAN_LIMIT = 100_000  # calls per function recorded as spans; later calls only aggregate
SPAN_FIELDS = 5  # function id, operation id, parent span, start ns, end ns
PACKAGE = "sympbw"


def program_modules():
    """The loaded modules of the program, by layer name."""
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    }


def memo_caches():
    """Every functools cache the program's modules hold, to be emptied between operations."""
    return [
        obj
        for mod in program_modules().values()
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


class FuncStat:
    __slots__ = ("calls", "ns", "depth")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.depth = 0


class Tracer:
    """Counts, times and spans of calls into the program's public functions.

    Nothing is recorded unless ``active`` is true, so the benchmark's own
    calls into the program (its output checks) leave no trace.
    """

    def __init__(self, observers):
        self.observers = observers
        self.active = False
        self.op_id = -1
        self.stats = {}  # "layer.function" -> FuncStat
        self.counts = Counter()  # counters fed by observers
        self.layer_ns = Counter()  # self time per layer; None is the benchmark itself
        self.layer = None
        self.mark = 0
        self.names = []
        self.spans = array("q")
        self.span_stack = [-1]
        self._restore = []

    def install(self):
        """Wrap every public function of every loaded program module."""
        modules = program_modules()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(layer, attr, obj)
        for mod in list(modules.values()) + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def start_op(self):
        self.op_id += 1
        self.mark = time.perf_counter_ns()
        self.active = True

    def stop_op(self):
        self.active = False
        self.layer_ns[self.layer] += time.perf_counter_ns() - self.mark

    def depth(self, name):
        stat = self.stats.get(name)
        return stat.depth if stat else 0

    def _wrap(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        stat = self.stats[name] = FuncStat()
        fid = len(self.names)
        self.names.append(name)
        observe = self.observers.get(name)
        clock = time.perf_counter_ns
        spans = self.spans
        span_stack = self.span_stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            tracer.layer_ns[tracer.layer] += start - tracer.mark
            caller = tracer.layer
            tracer.layer = layer
            tracer.mark = start
            stat.calls += 1
            stat.depth += 1
            slot = -1
            if stat.calls <= SPAN_LIMIT:
                slot = len(spans)
                spans.extend((fid, tracer.op_id, span_stack[-1], start, 0))
                span_stack.append(slot // SPAN_FIELDS)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.layer_ns[layer] += end - tracer.mark
                tracer.layer = caller
                tracer.mark = end
                stat.depth -= 1
                if stat.depth == 0:
                    stat.ns += end - start
                if slot >= 0:
                    spans[slot + 4] = end
                    span_stack.pop()
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def kept_spans(self):
        """Spans of the functions called at most SPAN_LIMIT times.

        The spans of hotter functions are dropped: they are aggregated only.
        A kept span's parent is its nearest kept ancestor.
        """
        keep = [self.stats[name].calls <= SPAN_LIMIT for name in self.names]
        remap = []  # record index -> index of itself or its nearest kept ancestor
        out = []
        for i in range(0, len(self.spans), SPAN_FIELDS):
            fid, op, parent, start, end = self.spans[i:i + SPAN_FIELDS]
            parent = remap[parent] if parent >= 0 else -1
            if keep[fid]:
                remap.append(len(out))
                out.append((fid, op, parent, start, end))
            else:
                remap.append(parent)
        return out

    def write(self, path):
        """Write the spans and the aggregates as one JSON document."""
        data = {
            "span_fields": ["function", "operation", "parent", "start_ns", "end_ns"],
            "functions": self.names,
            "spans": self.kept_spans(),
            "calls": {k: s.calls for k, s in self.stats.items() if s.calls},
            "seconds": {k: s.ns / 1e9 for k, s in self.stats.items() if s.calls},
            "layer_self_seconds": {
                str(k if k is not None else "bench"): v / 1e9 for k, v in self.layer_ns.items()
            },
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
