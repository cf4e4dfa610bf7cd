"""spherelam benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload fan-locate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload does a seed-determined amount
of work sized to take about ``--seconds`` on a 2-core Xeon host, and the
last line of stdout is a JSON object with the end-to-end metrics.  With
``--trace 1`` a fixed, seed-determined amount of the workload runs with
every public function of every layer wrapped, and the metrics are the
per-layer ones; the spans go to ``perfbench/out/``.  The line before the
result is the run record: seed, input fingerprint, item counts, failures
by kind, and the machine.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import clock  # this directory is sys.path[0]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FINGERPRINT_ITEMS = 32


class Start(NamedTuple):
    """When this interpreter began its set-up, and the calibration then."""
    cal: float
    wall: float


CLI_COMMANDS = ("shear", "compat", "classify", "flip", "badj", "mutate", "gvectors",
                "universal", "tangle-check", "render", "locate", "cones", "selftest")

# (metric, unit) printed by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("lattice.enumerate_slopes.calls", "count"), ("lattice.enumerate_slopes.self_s", "s"),
    ("lattice.farey_distance.calls", "count"),
    ("curves.curves_compatible.calls", "count"), ("curves.curves_compatible.self_s", "s"),
    ("curves.arcs_compatible.calls", "count"), ("curves.arcs_compatible.self_s", "s"),
    ("curves.enumerate_curves.self_s", "s"),
    ("triangulation.enumerate_triangulations.count", "count"),
    ("triangulation.enumerate_triangulations.self_s", "s"),
    ("triangulation.build_type.calls", "count"), ("triangulation.build_type.self_s", "s"),
    ("triangulation.classify.calls", "count"), ("triangulation.classify.self_s", "s"),
    ("triangulation.flip.calls", "count"), ("triangulation.flip.self_s", "s"),
    ("triangulation.flip.failed", "count"), ("triangulation.flip.p95_ms", "ms"),
    ("triangulation.flip.compat_checks_per_flip", "count"),
    ("triangulation.signed_adjacency.calls", "count"),
    ("triangulation.signed_adjacency.self_s", "s"),
    ("triangulation.signed_adjacency.p95_ms", "ms"),
    ("triangulation.mutate.calls", "count"), ("triangulation.mutate.self_s", "s"),
    ("triangulation.height.max", "count"), ("triangulation.height.mean", "count"),
    ("plane.triangular_faces.calls", "count"), ("plane.triangular_faces.self_s", "s"),
    ("plane.triangular_faces.segments_in", "count"),
    ("plane.segment_crossings.calls", "count"), ("plane.segment_crossings.self_s", "s"),
    ("plane.segment_crossings.crossings_out", "count"),
    ("plane.spiral_crossings.calls", "count"), ("plane.spiral_crossings.self_s", "s"),
    ("plane.accumulate.calls", "count"), ("plane.accumulate.self_s", "s"),
    ("shear.shear_closed_form.calls", "count"), ("shear.shear_closed_form.self_s", "s"),
    ("shear.shear_closed_form.distinct_curves", "count"),
    ("shear.shear_via_word.calls", "count"), ("shear.shear_via_word.self_s", "s"),
    ("shear.shear_via_word.unsupported", "count"),
    ("shear.shear_oracle.calls", "count"), ("shear.shear_oracle.self_s", "s"),
    ("exactla.rank.calls", "count"), ("exactla.rank.self_s", "s"),
    ("exactla.adjugate.calls", "count"), ("exactla.adjugate.self_s", "s"),
    ("exactla.invert.calls", "count"), ("exactla.invert.self_s", "s"),
    ("exactla.dd_rays.calls", "count"), ("exactla.dd_rays.self_s", "s"),
    ("fan.maximal_collections.count", "count"),
    ("fan.cone_of.calls", "count"), ("fan.cone_of.self_s", "s"),
    ("fan.cone_index.build_s", "s"), ("fan.cone_index.cones", "count"),
    ("fan.locate.calls", "count"), ("fan.locate.self_s", "s"),
    ("fan.locate.out_of_bound", "count"), ("fan.locate.containing_per_query", "count"),
    ("fan.locate.hit_ratio", "ratio"),
    ("fan.fan_check.pairs", "count"),
    ("fan.intersection_rays.calls", "count"), ("fan.intersection_rays.self_s", "s"),
    ("render.render.self_s", "s"),
    ("selftest.run_selftest.self_s", "s"), ("selftest.run_selftest.checks", "count"),
    ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
    *((f"cli.{c}.ms", "ms") for c in CLI_COMMANDS),
    ("cli.run.self_s", "s"), ("cli.tracebacks", "count"), ("cli.timeouts", "count"),
    *((f"layer.{m}.self_s", "s") for m in (
        "lattice", "curves", "triangulation", "plane", "shear",
        "exactla", "fan", "render", "selftest", "cli")),
    ("bench.self_s", "s"), ("bench.calibration_s", "s"), ("trace.wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
]

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("ops_per_s", "1/s")]

# layers a workload never enters, and the "no change" prediction behind it
MUST_NOT_CALL = {
    "shear-sweep": ("exactla.", "fan."),
    "flip-walk": ("exactla.", "fan.", "plane.segment_crossings"),
    "fan-locate": ("plane.segment_crossings",),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "fixed"),
                   help=argparse.SUPPRESS)  # child runs made by the benchmark itself
    return p.parse_args(argv)


def percentile(xs, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


class Loop(NamedTuple):
    """What the closed loop measured."""
    walls: list         # per-op wall seconds (timeouts left out)
    refs: list          # the same in reference seconds
    attempted: int
    failed: int
    failures: dict      # failed ops by label
    inputs_hash: str
    by_kind: dict       # kind of input -> ops, failed, reference ms


class BypassViolation(Exception):
    """A traced workload called a layer it must bypass."""


def drive(wl, count: int) -> Loop:
    """The closed loop: count operations, one at a time.  Each op's wall
    time is rescaled to reference seconds by the workload's calibrations
    just before and after it (clock.py).  An op
    either succeeds, returns the label of a known-defect refusal, or
    raises; any exception but the workload's own known defects is a wrong
    answer."""
    from workloads import WrongAnswer
    walls, refs, attempted, failed, failures, by_kind = [], [], 0, 0, {}, {}
    digest = hashlib.sha256()
    stream = wl.stream()
    with wl.calibrating():
        cal_before = wl.calibration_s()
    while attempted < count:
        with wl.untraced():
            item = next(stream)
        digest.update(json.dumps(wl.describe(item)).encode())
        start = time.perf_counter()
        try:
            label = wl.op(item)
        except WrongAnswer:
            raise
        except Exception as e:
            raise WrongAnswer(f"{json.dumps(wl.describe(item))[:300]} raised "
                              f"{type(e).__name__}: {e}") from e
        elapsed = time.perf_counter() - start
        with wl.calibrating():
            cal_after = wl.calibration_s()
        wl.after_op(item)
        attempted += 1
        kind = by_kind.setdefault(wl.kind(item), {"ops": 0, "failed": 0, "ms": []})
        kind["ops"] += 1
        if label != "timeout":
            ref = elapsed * wl.reference_s / ((cal_before + cal_after) / 2)
            walls.append(elapsed)
            refs.append(ref)
            kind["ms"].append(ref * 1000)
        cal_before = cal_after
        if label:
            failed += 1
            kind["failed"] += 1
            failures[label] = failures.get(label, 0) + 1
    return Loop(walls, refs, attempted, failed, failures, digest.hexdigest(), by_kind)


def kind_record(by_kind: dict) -> dict:
    """Per kind of input: ops, failed, and reference-ms percentiles, so the
    mix behind the pooled latencies can be checked."""
    return {k: {"ops": v["ops"], "failed": v["failed"], "latency_samples": len(v["ms"]),
                "p50_ms": statistics.median(v["ms"]) if v["ms"] else None,
                "p90_ms": percentile(v["ms"], 90) if v["ms"] else None}
            for k, v in sorted(by_kind.items())}


def fingerprint(wl) -> str:
    """Hash of the first inputs of the seeded stream: equal for two runs
    with the same seed, whatever their length."""
    stream = wl.stream()
    head = [wl.describe(next(stream)) for _ in range(FINGERPRINT_ITEMS)]
    return hashlib.sha256(json.dumps(head).encode()).hexdigest()


def timed_run(args, tmpdir, start):
    """--trace 0: set-up, the loop and the second phase, both sized from
    --seconds (Workload.loop_ops).  All times in reference seconds
    (clock.py)."""
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmpdir)
    wl.setup()
    own = time.perf_counter() - start.wall
    setups = wl.setup_times(own * clock.scale(start.cal, clock.calibration_s(3)))

    loop_start = time.perf_counter()
    loop = drive(wl, wl.loop_ops(args.seconds))
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = wl.peak_rss_mb()
    more_attempted, more_failed = wl.after(args.seconds)

    ms = [x * 1000 for x in loop.refs]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 90),
        "ops_per_s": loop.attempted / sum(loop.refs),
    }
    record = {
        "setup_s": setups, "ops": loop.attempted, "op_failures": loop.failures,
        "latency_samples": len(ms), "loop_s": loop_s, "by_kind": kind_record(loop.by_kind),
        "wall_op_p50_ms": statistics.median(loop.walls) * 1000,
        "wall_op_p90_ms": percentile([w * 1000 for w in loop.walls], 90),
        "second_phase": {"attempted": more_attempted, "failed": more_failed},
        "inputs_sha256": loop.inputs_hash,
    }
    return (wl, metrics, record, loop.attempted + more_attempted,
            loop.failed + more_failed)


def fixed_pass(wl, tracer=None):
    """The traced run's fixed work: set-up, the first fixed_ops operations
    and the second phase at its fixed size.  Returns the loop, and the
    second phase's attempted and failed counts."""
    wl.fixed, wl.tracer = True, tracer
    wl.setup()
    loop = drive(wl, wl.fixed_ops)
    return loop, *wl.after(None)


def child_median_ms(wl, args_list, reps=3):
    """Median wall milliseconds of a fresh interpreter running args."""
    return statistics.median(wl.python_wall_s(args_list) for _ in range(reps)) * 1000


def traced_run(args, tmpdir, _start):
    import workloads
    from tracer import Tracer

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--probe", "fixed"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {proc.stderr.strip()[-500:]}")
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmpdir)
    tracer = Tracer()
    tracer.install()
    try:
        loop, more_attempted, more_failed = fixed_pass(wl, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)

    metrics = layer_metrics(tracer, wl)
    # op by op against the same inputs untraced: a ratio over the whole
    # pass would mostly measure the host's drift between the two passes
    metrics["trace_overhead_ratio"] = statistics.median(
        t / u for t, u in zip(loop.refs, untraced))
    if args.workload == "cli-oneshot":
        metrics["cli.interpreter_ms"] = child_median_ms(wl, ["-c", "pass"])
        metrics["cli.import_ms"] = child_median_ms(wl, ["-c", "import spherelam.cli"])
    summary = tracer.summary()
    calls = {name: tracer.calls_of(name, summary)
             for name in set(summary) | set(tracer.counted) | set(tracer.gen_calls)}
    bypassed = MUST_NOT_CALL.get(args.workload, ())
    violations = [name for name, n in calls.items()
                  if n and any(name.startswith(prefix) for prefix in bypassed)]
    if violations:
        raise BypassViolation(f"{args.workload} called {sorted(violations)}, "
                              "which it must bypass")
    record = {
        "ops": loop.attempted, "op_failures": loop.failures, "by_kind": kind_record(loop.by_kind),
        "inputs_sha256": loop.inputs_hash,
        "spans": len(tracer.name), "trace_file": os.path.relpath(trace_path, ROOT),
        "untraced_op_ref_s": sum(untraced), "traced_op_ref_s": sum(loop.refs),
        "calls": dict(sorted(calls.items())),
    }
    return wl, metrics, record, loop.attempted + more_attempted, loop.failed + more_failed


def layer_metrics(tracer, wl) -> dict:
    summary = tracer.summary()
    own = tracer.self_times()
    m = {name: 0.0 for name, _ in PER_LAYER}

    def rec(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "raised": {}})

    for name, _unit in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = tracer.calls_of(base, summary)
        elif stat == "self_s" and not name.startswith(("layer.", "bench.", "cli.run")):
            m[name] = rec(base)["self_s"]
        elif stat == "p95_ms":
            m[name] = percentile([d * 1000 for d in rec(base)["durations"]], 95)
        elif stat == "count":
            m[name] = tracer.items[base]
    m["triangulation.flip.failed"] = sum(
        n for exc, n in rec("triangulation.flip")["raised"].items() if exc.startswith("Internal"))
    flips = m["triangulation.flip.calls"]
    m["triangulation.flip.compat_checks_per_flip"] = (
        tracer.calls_under("curves.arcs_compatible", "triangulation.flip") / flips if flips else 0)
    if wl.heights:
        m["triangulation.height.max"] = max(wl.heights)
        m["triangulation.height.mean"] = statistics.mean(wl.heights)
    m["plane.triangular_faces.segments_in"] = tracer.extra["plane.triangular_faces.segments_in"]
    m["plane.segment_crossings.crossings_out"] = tracer.extra["plane.segment_crossings.crossings_out"]
    m["shear.shear_closed_form.distinct_curves"] = len(tracer.distinct["shear.shear_closed_form"])
    m["shear.shear_via_word.unsupported"] = rec("shear.shear_via_word")["raised"].get(
        "UnsupportedBaseCase", 0)
    m["fan.cone_index.build_s"] = sum(rec("fan.cone_index")["durations"])
    m["fan.cone_index.cones"] = tracer.extra["fan.cone_index.cones"]
    m["fan.locate.out_of_bound"] = rec("fan.locate")["raised"].get("BoundExhausted", 0)
    queries = m["fan.locate.calls"]
    if queries and wl.stats.get("scanned"):
        m["fan.locate.containing_per_query"] = wl.stats["containing"] / queries
        m["fan.locate.hit_ratio"] = wl.stats["containing"] / wl.stats["scanned"]
    m["fan.fan_check.pairs"] = tracer.extra["fan.fan_check.pairs"]
    m["selftest.run_selftest.checks"] = tracer.extra["selftest.run_selftest.checks"]
    m["cli.run.self_s"] = rec("cli.run")["self_s"]
    for cmd, walls in wl.stats.get("child_ms", {}).items():
        m[f"cli.{cmd}.ms"] = statistics.median(walls)
    labels = wl.stats.get("labels", {})
    m["cli.tracebacks"] = labels.get("traceback", 0)
    m["cli.timeouts"] = labels.get("timeout", 0)
    for sid, name in enumerate(tracer.name):
        if name == clock.CALIBRATION_SPAN:
            m["bench.calibration_s"] += own[sid]
        elif sid:
            m[f"layer.{name.split('.')[0]}.self_s"] += own[sid]
    m["bench.self_s"] = own[0]
    m["trace.wall_s"] = tracer.end[0] - tracer.start[0]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spherelam", "__init__.py")):
        print(f"error: no spherelam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = Start(clock.calibration_s(3), time.perf_counter())
    import workloads   # imports spherelam: part of every set-up
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe == "setup":
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, "")
        wl.setup()
        print((time.perf_counter() - start.wall) * clock.scale(start.cal, clock.calibration_s(3)))
        return 0
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.probe == "fixed":
            wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmpdir)
            print(json.dumps(fixed_pass(wl)[0].refs))
            return 0
        try:
            run = traced_run if args.trace else timed_run
            wl, metrics, record, attempted, failed = run(args, tmpdir, start)
        except workloads.WrongAnswer as e:
            print(f"wrong answer: {e}", file=sys.stderr)
            return 1
        except BypassViolation as e:
            print(f"bypass check failed: {e}", file=sys.stderr)
            return 1
        units = dict(PER_LAYER if args.trace else END_TO_END)
        record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, fingerprint_sha256=fingerprint(wl),
                      counts=wl.counts(), stats=summarize_stats(wl.stats), **machine_record())
        print(json.dumps({"record": record}, default=str))
        print(json.dumps({
            "correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def summarize_stats(stats: dict) -> dict:
    """Workload counters for the record; latency lists become medians."""
    out = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            out[key] = {k: (statistics.median(v) if isinstance(v, list) else v)
                        for k, v in value.items()}
        elif isinstance(value, list):
            out[key] = statistics.median(value) if value else None
        else:
            out[key] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
