"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload

- ``setup()``: the work a user pays before the first operation (timed);
- ``stream()``: an endless, seeded stream of operations;
- ``op(item)``: runs one operation and checks its output against an
  independent path; returns None, or the label of a refusal caused by a
  known defect (a failed op); raises ``WrongAnswer`` on a wrong output.
  Any other exception is a wrong answer too: only the known defects
  listed in README.md are caught, each where it is raised;
- ``after_op(item)``: work after an op, outside its timing (the figures
  only a traced run needs);
- ``loop_ops(seconds)``: how many operations a timed run's loop does;
- ``after(seconds)``: an optional second phase after the loop, sized from
  ``--seconds``, or at the traced run's fixed size when seconds is None.

A run does a fixed, seed-determined amount of work, sized from
``--seconds`` by the rates below, so that ``attempted`` and ``failed``
are the same for two runs with the same seed and seconds, whatever the
host's speed.  The rates were measured on a 2-core Xeon host (Python
3.11), where a run's loop and second phase then take about ``--seconds``.

The program receives only the generated inputs.  Why each workload exists,
and which layers it bypasses, is written down in README.md.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from itertools import count

import clock
from spherelam import curves, fan, lattice, render, shear, triangulation
from spherelam.curves import PUNCTURES, Tagging
from spherelam.errors import BoundExhausted, InternalNonUnique, UnsupportedBaseCase


MIN_OPS = 10


class WrongAnswer(Exception):
    """An output that disagrees with the independent path."""


def _curve_key(c) -> str:
    return json.dumps(c.to_json(), sort_keys=True)


def _lam_json(lam) -> list:
    return [{"curve": c.to_json(), "weight": w} for c, w in lam.weights]


class Workload:
    name = ""
    setup_reps = 5          # set-ups per run; setup_s is their median
    loop_rate = 1.0         # loop operations per second of --seconds
    block = 1               # the loop does whole blocks: cycles of the op mix
    fixed_ops = 0           # main-loop operations of a traced run
    reference_s = clock.CAL_REFERENCE_S   # what one calibration means

    def __init__(self, seed: int, root: str, tmpdir: str):
        self.seed = seed
        self.root = root
        self.tmpdir = tmpdir
        self.stats: dict = {}
        self.heights: list[int] = []
        self.fixed = False      # a traced run, or its untraced twin
        self.tracer = None

    def calibration_s(self) -> float:
        """The calibration each op's time is divided by (clock.py)."""
        return clock.calibration_s(reps=3)

    def untraced(self):
        """Context for the benchmark's own library calls (inputs, expected
        outputs): a traced run does not count them."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def calibrating(self):
        """Context for the calibrations around each op: a span of its own
        in a traced run, so they are not charged to the benchmark."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(clock.CALIBRATION_SPAN)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def pool_rng(self, purpose: str) -> random.Random:
        """For inputs that are the same for every seed."""
        return random.Random(f"{self.name}:{purpose}")

    def setup(self) -> None:
        raise NotImplementedError

    def stream(self):
        raise NotImplementedError

    def describe(self, item):
        """JSON form of an input, for the input fingerprint."""
        raise NotImplementedError

    def op(self, item) -> str | None:
        raise NotImplementedError

    def after_op(self, item) -> None:
        pass

    def kind(self, item) -> str:
        """The kind of input, for per-kind figures in the record."""
        return self.name

    def loop_ops(self, seconds: float) -> int:
        """Operations of a timed run's loop: whole blocks, at least MIN_OPS."""
        blocks = max(math.ceil(MIN_OPS / self.block),
                     round(seconds * self.loop_rate / self.block))
        return blocks * self.block

    def after(self, seconds: float | None) -> tuple[int, int]:
        """Second phase; returns (attempted, failed)."""
        return 0, 0

    def setup_times(self, own: float) -> list[float]:
        """This process's set-up time and those of fresh interpreters, in
        reference seconds."""
        out = [own]
        for _ in range(self.setup_reps - 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(self.root, "perfbench", "run.py"),
                 "--workload", self.name, "--seed", str(self.seed), "--probe", "setup"],
                capture_output=True, text=True, timeout=120, cwd=self.root,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            out.append(float(proc.stdout.split()[-1]))
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def counts(self) -> dict:
        """Sizes of the inputs, so a cost per item compares across runs."""
        return {}


# ---------------------------------------------------------------------------


class FanLocate(Workload):
    """Locate integer shear vectors in the height-3 fan, then check fan
    axioms on sampled cone pairs."""

    name = "fan-locate"
    setup_reps = 3          # each builds cone_index(3), 2-3 s
    loop_rate = 16.0        # queries: about 80% of --seconds
    block = 3
    fixed_ops = 40
    PAIR_RATE = 48.0        # fan_check pairs: the other 20%
    FIXED_PAIRS = 30
    HEIGHT = 3
    PAIRS_PER_CALL = 10
    # one query of each kind in turn: equal weights (README.md, "Op mixes")
    KINDS = ("interior", "face", "out-of-bound")

    def setup(self) -> None:
        self.index = fan.cone_index(self.HEIGHT)

    def _pools(self):
        if not hasattr(self, "_collections"):
            # canonical order, so the inputs do not depend on index order
            self._collections = sorted(
                (c.collection for c in self.index.cones),
                key=lambda coll: [_curve_key(c) for c in coll.curves])
            self._high = sorted(
                (c for c in curves.enumerate_curves(5) if c.height >= 4), key=_curve_key)
            self._low = sorted(curves.enumerate_curves(self.HEIGHT), key=_curve_key)
            keyed = {id(c.collection): c for c in self.index.cones}
            self._cones = [keyed[id(coll)] for coll in self._collections]
        return self._collections, self._high, self._low

    def stream(self):
        collections, high, low = self._pools()
        rng = self.rng("queries")
        for i in count():
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "interior":
                coll = rng.choice(collections)
                weights = [(c, rng.randint(1, 3)) for c in coll.curves]
            elif kind == "face":
                coll = rng.choice(collections)
                picked = rng.sample(coll.curves, rng.randint(1, 4))
                weights = [(c, rng.randint(1, 3)) for c in picked]
            else:
                first = rng.choice(high)
                weights = [(first, rng.randint(1, 3))]
                second = rng.choice(low)
                if second != first and curves.curves_compatible(first, second):
                    weights.append((second, rng.randint(1, 3)))
            lam = shear.QuasiLamination(tuple(weights))
            yield kind, shear.shear_lamination(lam), lam

    def describe(self, item):
        kind, v, _lam = item
        return [kind, list(v)]

    def op(self, item):
        kind, v, lam = item
        try:
            got = fan.locate(v, self.HEIGHT)
        except BoundExhausted:
            if kind == "out-of-bound":
                return None
            raise WrongAnswer(f"locate({list(v)}) found no cone at height {self.HEIGHT}")
        if got != lam:
            raise WrongAnswer(f"locate({list(v)}) gave {_lam_json(got)}, expected {_lam_json(lam)}")
        return None

    def after_op(self, item):
        """In a traced run: how many of the scanned cones contain v."""
        if not self.fixed:
            return
        with self.untraced():
            containing = fan.count_containing_cones(item[1], self.HEIGHT)
        self.stats["containing"] = self.stats.get("containing", 0) + containing
        self.stats["scanned"] = self.stats.get("scanned", 0) + len(self.index.cones)

    def kind(self, item):
        return item[0]

    def after(self, seconds):
        self._pools()
        size = self.PAIRS_PER_CALL
        target = (self.FIXED_PAIRS if seconds is None
                  else max(1, round(seconds * self.PAIR_RATE / size)) * size)
        pairs = calls = 0
        start = time.perf_counter()
        while pairs < target:
            # fan_check samples pairs from the list it is given: canonical order
            report = fan.fan_check(self._cones, self.PAIRS_PER_CALL, seed=self.seed * 1000 + calls)
            calls += 1
            pairs += report.pairs_checked
            if report.failures:
                raise WrongAnswer(f"fan_check found {report.failures} bad intersections")
        elapsed = time.perf_counter() - start
        self.stats["fan_check_pairs"] = pairs
        self.stats["fan_check_pairs_per_s"] = pairs / elapsed
        return pairs, 0

    def counts(self):
        return {"cones": len(self.index.cones), "fan_check_pairs": self.stats.get("fan_check_pairs")}


# ---------------------------------------------------------------------------


class ShearSweep(Workload):
    """Every curve of height <= 12 through the three shear paths."""

    name = "shear-sweep"
    HEIGHT = 12
    loop_rate = 118.0       # curves; the loop does whole passes over them

    def setup(self) -> None:
        self.curves = curves.enumerate_curves(self.HEIGHT)

    @property
    def fixed_ops(self):
        return len(self.curves)

    @property
    def block(self):
        return len(self.curves)

    def stream(self):
        # canonical order first, so a seed picks the same curves even if
        # enumeration order changes
        pool = sorted(self.curves, key=_curve_key)
        rng = self.rng("order")
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield from order

    def describe(self, item):
        return item.to_json()

    def op(self, c):
        formula = shear.shear_closed_form(c)
        try:
            word = shear.shear_via_word(c)
        except UnsupportedBaseCase:
            word = None
        oracle = shear.shear_oracle(c)
        if oracle != formula or (word is not None and word != formula):
            raise WrongAnswer(f"{c}: formula {formula}, word {word}, oracle {oracle}")
        self.stats["word_paths"] = self.stats.get("word_paths", 0) + (word is not None)
        return None

    def counts(self):
        return {"curves": len(self.curves), "word_paths": self.stats.get("word_paths", 0)}


# ---------------------------------------------------------------------------


def _farey_neighbor(a: int, b: int) -> tuple[int, int]:
    """(c, d) with a*d - b*c = 1."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return -old_t, old_s


class _Walk:
    """The state of one flip walk."""

    def __init__(self, tri, seed):
        self.tri, self.rng, self.B = tri, random.Random(seed), None


class FlipWalk(Workload):
    """Random flip walks: plain walks checked against matrix mutation, and
    tagged walks from type-I triangulations of height 20-300.  One
    operation is a round: one step of a plain walk and one of a tagged
    walk, so the two phases have equal weight (README.md, "Op mixes").

    The walks are a fixed pool, the same for every seed; the seed sets the
    order in which they run.  Which flips hit the flip height cap depends
    only on the walk, so a whole pass over the pool fails the same number
    of times on every run: ``failed`` changes only when the program does."""

    name = "flip-walk"
    STEPS = 4               # rounds per pair of walks
    WALKS = 50              # pairs of walks in the pool
    TAGGED_STARTS = 24
    loop_rate = 10.0        # rounds
    block = WALKS * STEPS   # whole passes over the pool
    fixed_ops = 6 * STEPS

    def setup(self) -> None:
        self.plain_starts = [
            t for t in triangulation.enumerate_triangulations(2) if t.all_plain]
        rng = self.pool_rng("starts")
        self.tagged_starts = []
        while len(self.tagged_starts) < self.TAGGED_STARTS:
            a, b = rng.randint(1, 300), rng.randint(-300, 300)
            if math.gcd(a, b) != 1 or max(a, abs(b)) < 20:
                continue
            c, d = _farey_neighbor(a, b)
            triple = (lattice.standard_form(a, b), lattice.standard_form(c, d),
                      lattice.standard_form(a + c, b + d))
            tags = tuple((p, rng.choice((Tagging.PLAIN, Tagging.NOTCHED))) for p in PUNCTURES)
            self.tagged_starts.append(
                triangulation.build_type(triangulation.TriType("I", triple, taggings=tags)))

    def stream(self):
        plain = sorted(self.plain_starts, key=lambda t: json.dumps(t.to_json()))
        pool_rng = self.pool_rng("walks")
        pool = [(pool_rng.choice(plain), pool_rng.getrandbits(32),
                 pool_rng.choice(self.tagged_starts), pool_rng.getrandbits(32))
                for _ in range(self.WALKS)]
        rng = self.rng("order")
        while True:
            rng.shuffle(pool)
            for walks in pool:
                for step in range(self.STEPS):
                    yield (*walks, step)

    def describe(self, item):
        plain, plain_seed, tagged, tagged_seed, step = item
        return [plain.to_json(), plain_seed, tagged.to_json(), tagged_seed, step]

    def op(self, item):
        """One round; its label is that of the first step that hit the
        known defect, if any."""
        plain, plain_seed, tagged, tagged_seed, step = item
        if step == 0:
            self.plain, self.tagged = _Walk(plain, plain_seed), _Walk(tagged, tagged_seed)
        labels = [self._timed("plain", self._plain_step), self._timed("tagged", self._tagged_step)]
        return next((label for label in labels if label), None)

    def _timed(self, phase, step):
        """Runs one step; keeps its wall time and any defect by phase."""
        start = time.perf_counter()
        label = step()
        self.stats.setdefault("step_wall_ms", {}).setdefault(phase, []).append(
            (time.perf_counter() - start) * 1000)
        if label:
            defects = self.stats.setdefault("defects", {})
            defects[phase] = defects.get(phase, 0) + 1
        return label

    @staticmethod
    def _flip(walk, k):
        """flip(T, k), or None where the flip height cap (ROADMAP item 3)
        makes it raise InternalNonUnique: the known defect."""
        try:
            return triangulation.flip(walk.tri, k)
        except InternalNonUnique:
            return None

    def _plain_step(self):
        walk = self.plain
        if walk.B is None:
            walk.B = triangulation.signed_adjacency(walk.tri)
        order = list(range(6))
        walk.rng.shuffle(order)
        for k in order:
            new = self._flip(walk, k)
            if new is None:
                return "InternalNonUnique"
            if new.all_plain:
                break
        else:
            return None
        B_new = triangulation.signed_adjacency(new)
        if B_new != triangulation.mutate(walk.B, k):
            raise WrongAnswer(f"signed_adjacency(flip(T, {k})) != mutate(B, {k}) for {walk.tri.to_json()}")
        self.stats["mutation_checks"] = self.stats.get("mutation_checks", 0) + 1
        walk.tri, walk.B = new, B_new
        self.heights.append(new.height)
        return None

    def _tagged_step(self):
        walk = self.tagged
        new = self._flip(walk, walk.rng.randrange(6))
        if new is None:
            return "InternalNonUnique"
        kind = triangulation.classify(new)
        if triangulation.build_type(kind) != new:
            raise WrongAnswer(f"classify does not recover {new.to_json()}")
        self.stats["tagged_flips"] = self.stats.get("tagged_flips", 0) + 1
        walk.tri = new
        self.heights.append(new.height)
        return None

    def counts(self):
        return {"plain_starts": len(self.plain_starts), "tagged_starts": len(self.tagged_starts),
                "tagged_flips": self.stats.get("tagged_flips", 0),
                "mutation_checks": self.stats.get("mutation_checks", 0),
                "height_max": max(self.heights, default=0)}


# ---------------------------------------------------------------------------


class CliOneshot(Workload):
    """One ``python -m spherelam.cli`` child per operation."""

    name = "cli-oneshot"
    LIGHT = ("shear", "shear-oracle", "compat", "classify", "flip", "badj",
             "mutate", "gvectors", "universal", "tangle-check", "render")
    QUICK_REJECTS = ("flip-k9", "curve-list", "closed-int", "matrix-int", "ends-empty")
    # reject inputs that print a traceback instead of a JSON error (ROADMAP item 2)
    KNOWN_TRACEBACKS = ("curve-list", "closed-int", "matrix-int", "ends-empty")
    HEAVY = ("locate", "cones", "selftest", "locate-oob")
    HANGS = ("oracle-huge-slope", "render-huge-window")
    TIMEOUT_S = 60.0
    HANG_TIMEOUT_S = 2.0
    loop_rate = 4.8         # commands: whole cycles, then the after phase
    block = len(LIGHT) + len(QUICK_REJECTS)
    fixed_ops = block
    reference_s = clock.CHILD_REFERENCE_S

    def setup(self) -> None:
        pass

    def setup_times(self, own):
        """What a command line user pays before any command runs: a fresh
        interpreter importing the command line, each rescaled by an
        interpreter start next to it."""
        out = []
        for _ in range(self.setup_reps):
            start = self.calibration_s()
            out.append(self.python_wall_s(["-c", "import spherelam.cli"])
                       * self.reference_s / start)
        return out

    def calibration_s(self) -> float:
        """An interpreter start: the loop in clock.py tracks Python speed,
        not process creation, which is most of a command's time."""
        return self.python_wall_s(["-c", "pass"])

    def python_wall_s(self, args: list[str]) -> float:
        """Wall seconds of a fresh interpreter running args."""
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                       cwd=self.root, env=self.env, check=True)
        return time.perf_counter() - start

    @property
    def env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def peak_rss_mb(self) -> float:
        """Largest child so far: called before the commands run after the
        loop, so the two that never finish (and are killed) do not count."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def counts(self):
        return {"commands": sum(len(v) for v in self.stats.get("child_ms", {}).values()),
                "command_kinds": len(self.LIGHT + self.QUICK_REJECTS + self.HEAVY + self.HANGS)}

    # -- inputs ---------------------------------------------------------------

    def _pools(self):
        if hasattr(self, "_tris"):
            return
        self._curves = sorted(curves.enumerate_curves(12), key=_curve_key)
        self._arcs = sorted(curves.enumerate_arcs(3), key=lambda a: json.dumps(a.to_json()))
        self._tris = sorted(triangulation.enumerate_triangulations(2),
                            key=lambda t: json.dumps(t.to_json()))
        self._plain = [t for t in self._tris if t.all_plain]
        self._oracle_curves = [c for c in self._curves if c.height <= 8]
        self._render_curves = [c for c in self._curves if c.height <= 4]
        self._closed3 = [c for c in self._curves if c.is_closed and c.height <= 3]
        self._height3 = [c for c in self._curves if c.height == 3]

    def _command(self, what: str, rng: random.Random):
        """(kind, argv, expected): kind is valid, reject or hang; expected
        is the parsed stdout of a valid command."""
        dumps = json.dumps
        if what == "shear":
            c = rng.choice(self._curves)
            return "valid", ["shear", "--curve", dumps(c.to_json())], list(shear.shear_closed_form(c))
        if what == "shear-oracle":
            c = rng.choice(self._oracle_curves)
            return ("valid", ["shear", "--method", "oracle", "--curve", dumps(c.to_json())],
                    list(shear.shear_closed_form(c)))
        if what == "compat":
            if rng.random() < 0.5:
                x, y = rng.sample(self._curves, 2)
                doc = {"compatible": curves.curves_compatible(x, y)}
            else:
                x, y = rng.sample(self._arcs, 2)
                doc = {"compatible": curves.arcs_compatible(x, y),
                       "class": curves.classify_pair(x, y).value}
            return "valid", ["compat", "--a", dumps(x.to_json()), "--b", dumps(y.to_json())], doc
        if what == "classify":
            t = rng.choice(self._tris)
            return ("valid", ["classify", "--tri", dumps(t.to_json())],
                    {"type": triangulation.classify(t).to_json()})
        if what == "flip":
            t, k = rng.choice(self._tris), rng.randrange(6)
            new = triangulation.flip(t, k)
            return ("valid", ["flip", "--tri", dumps(t.to_json()), "--k", str(k)],
                    {"triangulation": new.to_json(), "type": triangulation.classify(new).to_json()})
        if what == "badj":
            t = rng.choice(self._plain)
            return ("valid", ["badj", "--tri", dumps(t.to_json())],
                    [list(r) for r in triangulation.signed_adjacency(t)])
        if what == "mutate":
            B, k = triangulation.signed_adjacency(rng.choice(self._plain)), rng.randrange(6)
            return ("valid", ["mutate", "--matrix", dumps([list(r) for r in B]), "--k", str(k)],
                    [list(r) for r in triangulation.mutate(B, k)])
        if what == "gvectors":
            h = rng.randint(1, 2)
            return ("valid", ["gvectors", "--max-height", str(h)],
                    {"max_height": h, "vectors": [list(v) for v in fan.g_vectors(h)]})
        if what == "universal":
            h, form = rng.randint(1, 2), rng.choice(("thm12", "thm81"))
            return ("valid", ["universal", "--form", form, "--max-height", str(h)],
                    {"max_height": h, "vectors": [list(v) for v in fan.universal_coeffs(h, form)]})
        if what == "tangle-check":
            while True:
                picked = rng.sample(self._closed3, rng.randint(1, 2))
                tangle = shear.Tangle(tuple((c, rng.randint(1, 3)) for c in picked))
                try:
                    witness = shear.find_witness(tangle, 2)
                except BoundExhausted:
                    continue
                if witness is not None:
                    break
            doc = {"witness": witness.to_json(), "shear": list(shear.tangle_shear(tangle, witness))}
            return ("valid", ["tangle-check", "--max-height", "2", "--tangle",
                              dumps([{"curve": c.to_json(), "weight": w} for c, w in tangle.weights])],
                    doc)
        if what == "render":
            c = rng.choice(self._render_curves)
            side = rng.randint(2, 3)
            path = os.path.join(self.tmpdir, f"render-{next(self._render_n)}.svg")
            spec = render.RenderSpec(curves=(c,), window=(0, side, 0, side))
            return ("valid", ["render", "--curve", dumps(c.to_json()),
                              "--window", f"0,{side},0,{side}", "--out", path],
                    {"written": path, "bytes": len(render.render(spec)), "svg": render.render(spec)})
        if what == "locate":
            t = rng.choice(self._tris)
            arcs = rng.sample(t.arcs, rng.randint(1, 6))
            lam = shear.QuasiLamination(tuple((curves.kappa(a), rng.randint(1, 3)) for a in arcs))
            return ("valid", ["locate", "--max-height", "2", "--vector",
                              dumps(list(shear.shear_lamination(lam)))],
                    {"lamination": _lam_json(lam)})
        if what == "cones":
            if not hasattr(self, "_cones1"):
                self._cones1 = [{"kind": c.kind, "generators": [list(g) for g in c.generators]}
                                for c in fan.cone_index(1).cones]
            return ("valid", ["cones", "--max-height", "1"],
                    {"max_height": 1, "count": len(self._cones1), "cones": self._cones1})
        if what == "selftest":
            if not hasattr(self, "_selftest"):
                from spherelam.selftest import run_selftest
                checks = run_selftest()
                self._selftest = {"passed": sum(ok for _, ok in checks),
                                  "failed": sum(not ok for _, ok in checks),
                                  "failures": [n for n, ok in checks if not ok]}
            return "valid", ["selftest"], self._selftest
        if what == "locate-oob":
            c = rng.choice(self._height3)
            lam = shear.QuasiLamination(((c, rng.randint(1, 3)),))
            return ("reject", ["locate", "--max-height", "2", "--vector",
                               dumps(list(shear.shear_lamination(lam)))],
                    {"lamination": _lam_json(lam)})
        if what == "flip-k9":
            return "reject", ["flip", "--tri", dumps(rng.choice(self._tris).to_json()), "--k", "9"], None
        if what == "curve-list":
            return "reject", ["shear", "--curve", "[1,2]"], None
        if what == "closed-int":
            return "reject", ["shear", "--curve", '{"closed":3}'], None
        if what == "matrix-int":
            return "reject", ["mutate", "--matrix", "5", "--k", "1"], None
        if what == "ends-empty":
            return "reject", ["compat", "--a", '{"slope":"1/1","ends":[]}',
                              "--b", '{"closed":"1/1"}'], None
        if what == "oracle-huge-slope":
            c = curves.AllowableCurve(lattice.Slope.parse("99999999999999999999/1"))
            return ("hang", ["shear", "--method", "oracle", "--curve", dumps(c.to_json())],
                    list(shear.shear_closed_form(c)))
        if what == "render-huge-window":
            path = os.path.join(self.tmpdir, "render-huge.svg")
            return "hang", ["render", "--window", "0,1,0,1000000", "--out", path], None
        raise ValueError(what)

    def stream(self):
        """Cycles of every light command and quick reject, in seeded order."""
        self._pools()
        self._render_n = count()
        rng = self.rng("commands")
        while True:
            names = list(self.LIGHT + self.QUICK_REJECTS)
            rng.shuffle(names)
            for what in names:
                yield (what, *self._command(what, rng))

    def describe(self, item):
        # the temporary directory differs from run to run; the inputs do not
        return [arg.replace(self.tmpdir, "<tmp>") for arg in item[2]]

    def kind(self, item):
        return item[1]

    # -- one command ------------------------------------------------------------

    def _run_child(self, argv, timeout):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "spherelam.cli", *argv],
                                  capture_output=True, text=True, timeout=timeout,
                                  cwd=self.root, env=self.env)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start
        return proc, time.perf_counter() - start

    def op(self, item, timeout=None):
        what, kind, argv, expected = item
        timeout = timeout or self.TIMEOUT_S
        if self.tracer is not None:
            with self.tracer.span("cli.child"):
                proc, wall = self._run_child(argv, timeout)
        else:
            proc, wall = self._run_child(argv, timeout)
        label = self._judge(what, kind, argv, expected, proc, timeout)
        if proc is not None:
            self.stats.setdefault("child_ms", {}).setdefault(argv[0], []).append(wall * 1000)
            self.stats.setdefault("class_ms", {}).setdefault(
                "heavy" if what in self.HEAVY else kind, []).append(wall * 1000)
        if label:
            self.stats.setdefault("labels", {})
            self.stats["labels"][label] = self.stats["labels"].get(label, 0) + 1
        return label

    def after_op(self, item):
        """In a traced run: cli.run in this process, so the trace sees the
        layers below the command line; the two commands that never finish
        are skipped."""
        what, kind, argv, _expected = item
        if not self.fixed or kind == "hang":
            return
        from spherelam import cli
        try:
            cli.run(list(argv))
        except Exception as e:
            if what not in self.KNOWN_TRACEBACKS:
                raise WrongAnswer(f"cli.run({argv}) raised {type(e).__name__}: {e}") from e

    def _judge(self, what, kind, argv, expected, proc, timeout):
        """None for a right answer or a correct rejection, the label of a
        known defect, or WrongAnswer."""
        if proc is None:
            if kind == "hang":
                return "timeout"
            raise WrongAnswer(f"{argv}: no answer within {timeout} s")
        out = proc.stdout.strip()
        if "Traceback" in proc.stderr:
            if what in self.KNOWN_TRACEBACKS and proc.returncode == 1 and not out:
                return "traceback"
            raise WrongAnswer(f"{argv}: traceback: {proc.stderr.strip().splitlines()[-1][:200]}")
        try:
            doc = json.loads(out) if out else None
        except json.JSONDecodeError:
            raise WrongAnswer(f"{argv}: stdout is not one JSON document: {out[:200]!r}")
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k != "schema"}
        if proc.returncode == 0:
            # a reject input may come to be accepted only with an exact answer
            if kind == "valid" or expected is not None:
                self._check_output(what, argv, doc, expected, out)
            elif not (what == "render-huge-window" and isinstance(doc, dict) and "written" in doc):
                raise WrongAnswer(f"{argv}: rejected input gave exit 0: {out[:200]!r}")
            return None
        if kind == "valid":
            raise WrongAnswer(f"{argv}: exit {proc.returncode}, stdout {out[:200]!r}")
        is_error_doc = proc.returncode == 1 and isinstance(doc, dict) and "error" in doc
        if is_error_doc or (proc.returncode == 2 and not out):
            return None
        raise WrongAnswer(f"{argv}: rejected input gave exit {proc.returncode}, "
                          f"stdout {out[:200]!r}")

    @staticmethod
    def _check_output(what, argv, doc, expected, out):
        if what == "render":
            with open(expected["written"]) as fh:
                svg = fh.read()
            if svg != expected["svg"] or doc != {"written": expected["written"],
                                                 "bytes": expected["bytes"]}:
                raise WrongAnswer(f"{argv}: render output differs from render.render")
        elif doc != expected:
            raise WrongAnswer(f"{argv}: got {out[:300]}, expected {expected!r:.300}")

    def after(self, seconds):
        """Each heavy command once, then the two inputs that never finish
        under a short timeout.  They count in attempted and failed; their
        times go to the record, not to the latency percentiles, which they
        would split into two populations."""
        rng = self.rng("after-loop")
        failed = 0
        for what in self.HEAVY + self.HANGS:
            with self.untraced():
                item = (what, *self._command(what, rng))
            timeout = self.HANG_TIMEOUT_S if what in self.HANGS else None
            start = time.perf_counter()
            label = self.op(item, timeout=timeout)
            self.stats.setdefault("after_loop_s", {})[what] = time.perf_counter() - start
            self.after_op(item)
            failed += label is not None
        return len(self.HEAVY + self.HANGS), failed


WORKLOADS = {w.name: w for w in (FanLocate, ShearSweep, FlipWalk, CliOneshot)}
