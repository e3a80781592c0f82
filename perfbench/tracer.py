"""Span recorder for one traced ``ordcensus`` process.

Every public function of the upper layers (cli, serialize, artin_schreier,
superelliptic, dirichlet, oracle, polys) is replaced, in every module that
binds it, by a wrapper that records a span: its name, its parent span and its
start and end times.  Spans stay in memory and are written out when the
process ends.

The leaf layers ``fields`` and ``_polyarith`` get no spans: one job makes
around 10^6 calls into them, and a Python wrapper per call would multiply the
run time several times over.  Their per-function call counts and self times
come from ``cProfile``, which hooks calls at C level and also gives the self
time of every other layer's own code, module import included.

Generator functions are not wrapped, because their frames interleave with the
caller's spans.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import json
import sys
import time
from array import array

SPAN_LAYERS = ("cli", "serialize", "artin_schreier", "superelliptic",
               "dirichlet", "oracle", "polys")
LEAF_LAYERS = ("fields", "_polyarith")
LAYERS = SPAN_LAYERS + LEAF_LAYERS


class Recorder:
    """Spans, work counters and the profile of one job."""

    def __init__(self, job: int):
        self.job = job
        self.names: list = []
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"elems_swept": 0, "covers_enumerated": 0}
        self.places: set = set()
        self.profile = cProfile.Profile(builtins=False)

    def span(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- work counters at layer boundaries ---------------------------------

    def _count_sweep(self, fn):
        counters = self.counters

        def count_points(c, k):
            counters["elems_swept"] += c.field.q ** k
            return fn(c, k)
        return count_points

    def _count_places(self, fn):
        places = self.places

        def ext_field_for(place):
            places.add(place)
            return fn(place)
        return ext_field_for

    def _count_covers(self, fn):
        counters = self.counters

        def enumerate_covers(*args, **kwargs):
            for cover in fn(*args, **kwargs):
                counters["covers_enumerated"] += 1
                yield cover
        return enumerate_covers

    def install(self):
        """Wrap the upper layers' public functions wherever they are bound."""
        hooks = {"oracle.count_points_as": self._count_sweep,
                 "oracle.count_points_se": self._count_sweep,
                 "polys.ext_field_for": self._count_places,
                 "artin_schreier.enumerate_covers": self._count_covers}
        replace = {}
        for layer in SPAN_LAYERS:
            mod = importlib.import_module(f"ordcensus.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                label = f"{layer}.{attr}"
                fn = hooks[label](obj) if label in hooks else obj
                if not inspect.isgeneratorfunction(obj):
                    fn = self.span(label, fn)
                if fn is not obj:
                    replace[id(obj)] = fn
        for name, mod in list(sys.modules.items()):
            if name != "ordcensus" and not name.startswith("ordcensus."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    # -- output ------------------------------------------------------------

    def functions(self) -> list:
        """[layer, qualified name, calls, self seconds] for every profiled
        function of the package."""
        qualnames = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ordcensus.{layer}")
            for obj in vars(mod).values():
                members = vars(obj).values() if inspect.isclass(obj) else [obj]
                for f in members:
                    f = inspect.unwrap(getattr(f, "__func__", f))
                    if inspect.isfunction(f):
                        code = f.__code__
                        qualnames[(code.co_filename, code.co_firstlineno)] = f.__qualname__
        self.profile.create_stats()
        out = []
        for (filename, line, func), (_, calls, tottime, _, _) in self.profile.stats.items():
            parts = filename.replace("\\", "/").rsplit("/", 2)
            if len(parts) < 3 or parts[1] != "ordcensus":
                continue
            layer = parts[2][:-3]
            if layer in LAYERS:
                out.append([layer, qualnames.get((filename, line), func), calls, tottime])
        return out

    def write(self, path: str):
        self.counters["ext_fields_built"] = len(self.places)
        data = {"job": self.job, "names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counters": self.counters,
                "functions": self.functions()}
        with open(path, "w") as fh:
            json.dump(data, fh)
