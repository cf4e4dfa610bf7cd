"""Span tracer that wraps spherelam's public functions from outside.

Every public module-level function of a layer module is replaced, in every
spherelam module that holds it, by a wrapper.  The wrapper is installed
under the name the calling module uses (``triangulation.triangular_faces``
is the plane function as the triangulation module calls it), so calls
between modules are seen as well as calls from the benchmark.

A wrapped call records a span: name, parent span, start, end and the class
of any exception it raised.  Spans stay in memory until ``write``.  A few
tiny helpers that run hundreds of thousands of times per workload are
counted, not spanned: a span would cost more than the call and its time
stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "lattice", "curves", "triangulation", "plane", "shear",
    "exactla", "fan", "render", "selftest", "cli",
)

# Called per candidate slope or per lattice pair; counted only.
COUNT_ONLY = frozenset({
    "lattice.det2", "lattice.farey_distance", "lattice.standard_form",
    "lattice.is_farey1_triple", "lattice.mediant",
    "curves.endpoint_sets", "curves.kappa", "curves.kappa_inv",
    "shear.apply_perm", "shear.compose",
    "exactla.dot", "exactla.primitive",
    "plane.pseudo_angle", "plane.quad_cycle", "plane.score_crossing",
})

ROOT = "bench"


class Tracer:
    """Spans as parallel lists indexed by span id; span 0 is the root,
    which covers the benchmark's own time between layer calls."""

    def __init__(self):
        self.parent: list[int] = [-1]
        self.name: list[str] = [ROOT]
        self.start: list[float] = [0.0]
        self.end: list[float] = [0.0]
        self.exc: list[str | None] = [None]
        self.stack: list[int] = [0]
        self.counted: Counter = Counter()          # calls of count-only helpers
        self.items: Counter = Counter()            # values yielded by generators
        self.gen_calls: Counter = Counter()        # generator functions called
        self.extra: Counter = Counter()            # per-function result counts
        self.distinct: defaultdict = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []
        self.on = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded; their time stays in the
        enclosing span (the benchmark's own work)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def calls_under(self, name: str, parent: str) -> int:
        """Spans of ``name`` whose parent span is a ``parent`` span."""
        return sum(1 for sid, n in enumerate(self.name)
                   if n == name and self.name[self.parent[sid]] == parent)

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        sid = len(self.parent)
        self.parent.append(self.stack[-1])
        self.name.append(name)
        self.end.append(0.0)
        self.exc.append(None)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid: int, exc: BaseException | None = None) -> None:
        self.end[sid] = perf_counter()
        if exc is not None:
            self.exc[sid] = type(exc).__name__
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self._begin(name)
        try:
            yield
        except BaseException as e:
            self._finish(sid, e)
            raise
        self._finish(sid)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                if self.on:
                    self.counted[name] += 1
                return fn(*args, **kwargs)

            return count_only

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so the generator's own work is
                # charged to it and not to the consumer
                if not self.on:
                    yield from fn(*args, **kwargs)
                    return
                self.gen_calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = self._begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._finish(sid)
                        return
                    except BaseException as e:
                        self._finish(sid, e)
                        raise
                    self._finish(sid)
                    self.items[name] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._finish(sid, e)
                raise
            self._finish(sid)
            if hook is not None:
                hook(self, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every public function of every layer, in every spherelam
        module that refers to it."""
        pkg = importlib.import_module("spherelam")
        modules = {short: importlib.import_module(f"spherelam.{short}") for short in LAYERS}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        holders = [pkg, *modules.values(), importlib.import_module("spherelam.errors")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)
        self.start[0] = perf_counter()

    def uninstall(self) -> None:
        self.end[0] = perf_counter()
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- derived figures -------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for sid in range(1, len(self.parent)):
            own[self.parent[sid]] -= dur[sid]
        return own

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive durations, and the
        exception classes raised."""
        own = self.self_times()
        dur = self.durations()
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [],
                                         "raised": Counter()})
        for sid, name in enumerate(self.name):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += own[sid]
            rec["durations"].append(dur[sid])
            if self.exc[sid] is not None:
                rec["raised"][self.exc[sid]] += 1
        return out

    def calls_of(self, name: str, summary: dict) -> int:
        """Calls of a function: spans, or counted calls of a helper, or
        generator invocations (a generator has one span per resumption)."""
        if name in COUNT_ONLY:
            return self.counted[name]
        if name in self.gen_calls:
            return self.gen_calls[name]
        return summary[name]["calls"] if name in summary else 0

    def write(self, path: str) -> None:
        """One JSON line per span, then one line of counters."""
        t0 = self.start[0]
        with open(path, "w") as fh:
            for sid in range(len(self.parent)):
                fh.write(json.dumps([sid, self.parent[sid], self.name[sid],
                                     round(self.start[sid] - t0, 9),
                                     round(self.end[sid] - t0, 9), self.exc[sid]]))
                fh.write("\n")
            fh.write(json.dumps({"counted": dict(self.counted), "items": dict(self.items)}))
            fh.write("\n")


def _count_segments(tracer, name, args, _result):
    tracer.extra[name + ".segments_in"] += len(args[0])


def _count_crossings(tracer, name, _args, result):
    tracer.extra[name + ".crossings_out"] += len(result)


def _distinct_curves(tracer, name, args, _result):
    tracer.distinct[name].add(args[0])


def _count_checks(tracer, name, _args, result):
    tracer.extra[name + ".checks"] += len(result)


def _count_pairs(tracer, name, _args, result):
    tracer.extra[name + ".pairs"] += result.pairs_checked


def _count_cones(tracer, name, _args, result):
    key = name + ".cones"
    tracer.extra[key] = max(tracer.extra[key], len(result.cones))


_HOOKS = {
    "plane.triangular_faces": _count_segments,
    "plane.segment_crossings": _count_crossings,
    "shear.shear_closed_form": _distinct_curves,
    "selftest.run_selftest": _count_checks,
    "fan.fan_check": _count_pairs,
    "fan.cone_index": _count_cones,
}
