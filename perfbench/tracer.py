"""In-memory spans around the calls between areaholonomy's modules.

Nothing in the package is edited: after import, `install` replaces each
module-level binding through which one module calls a function of another
(and the package namespace the CLI calls through) with a wrapper that
records a span.  A few kernels called inside their own module get spans
too, because the per-layer metrics name them.  Spans stay in memory and
are written once, by `Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time


def _loop_steps(args, kwargs, out):
    loop = args[1] if len(args) > 1 else kwargs["loop"]
    return len(loop.steps)


def _batch(args, kwargs, out):
    return len(args[0])


def _iterations(args, kwargs, out):
    return out[1].iterations


def _letters(args, kwargs, out):
    word = args[2] if len(args) > 2 else kwargs.get("word", ())
    if isinstance(word, str):
        return len(word.split())
    return len(getattr(word, "letters", word))


# Work counted at a span's boundary, keyed by span name.
COUNTS = {
    "surfaces.enclosed_area": _loop_steps,
    "liecore.plaquette_angles": _batch,
    "lattice.gradient_flow": _iterations,
    "words.normalize": _letters,
}


# Span fields, one array each: arrays hold plain numbers, so a run with
# 100 000 spans adds no objects for the garbage collector to scan.
COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("count", "q"), ("raised", "b"))


class Tracer:
    """Spans of one run, all sharing its run id.  parent is the index of the
    enclosing span, or -1; count is work counted at the boundary (COUNTS)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {field: array.array(code) for field, code in COLUMNS}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, under the current span."""
        for field, value in zip(self.columns, (self._name_id(name), start, end, self._stack[-1], 0, 0)):
            self.columns[field].append(value)

    def wrap(self, name: str, fn, count=None):
        name_id = self._name_id(name)
        names, starts, ends, parents, counts, raised = self.columns.values()
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            ends.append(0.0)
            parents.append(stack[-1])
            counts.append(0)
            raised.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counts[index] = count(args, kwargs, out)
            return out

        return traced

    def dump(self, path: str, **header) -> None:
        """Write the spans, then a line with `header` and the time the spans
        were written (t_dumped), so that writing them is accounted too."""
        columns = {field: values.tolist() for field, values in self.columns.items()}
        body = json.dumps({"run_id": self.run_id, "names": self.names, "columns": columns})
        with open(path, "w") as handle:
            handle.write(body + "\n")
            handle.flush()
            header["t_dumped"] = time.perf_counter()
            handle.write(json.dumps(header) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every cross-module binding of a package function, plus the kernels."""
    import areaholonomy as ah
    from areaholonomy import lattice, liecore, reps, surfaces, words

    wrappers: dict = {}

    def wrapper_for(fn, name=None):
        if fn not in wrappers:
            name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrappers[fn] = tracer.wrap(name, fn, COUNTS.get(name))
        return wrappers[fn]

    for holder in (ah, lattice, liecore, reps, surfaces, words):
        for attr, value in list(vars(holder).items()):
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("areaholonomy.")
                and value.__module__ != holder.__name__
            ):
                setattr(holder, attr, wrapper_for(value))

    # calls inside lattice and words that the per-layer metrics name
    lattice.loop_holonomy = wrapper_for(lattice.loop_holonomy)
    lattice.face_curvature = wrapper_for(lattice.face_curvature)
    lattice._unitarize = wrapper_for(lattice._unitarize, "lattice.unitarize")
    for method in ("plaquettes", "logs", "action_from_logs", "gradient_from_logs"):
        setattr(lattice._Engine, method, wrapper_for(getattr(lattice._Engine, method), f"lattice.{method}"))
    words.GammaRElement.__init__ = wrapper_for(words.GammaRElement.__init__, "words.normalize")
