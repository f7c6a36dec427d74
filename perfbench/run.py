"""The repository benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload fleet-steady --seed 1 --trace 0

Run it from the root of a checkout; it imports the library from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is a separate run that records spans around every layer boundary and
reports the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload, untraced and traced, each in a
fresh interpreter.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and their predicted interactions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS, FleetDrill, PaperSweep, derive_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
#: Loop iterations in one host-speed sample (about 0.4 ms).
SAMPLE_ITERATIONS = 10_000
#: Wall seconds between the samples taken while an op runs.
SAMPLE_INTERVAL_S = 0.02
#: Seconds per sample iteration on the reference host.  Gated times are
#: scaled to that host; see HostClock.
REFERENCE_ITERATION_S = 4e-8
now = time.perf_counter


def canary(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = now()
    x = 0
    for i in range(iterations):
        x ^= i
    return now() - start


class HostClock:
    """Times ops and the host's speed while they run.

    The host's speed changes from one second to the next, so every timed
    interval is bracketed by two samples of a fixed pure-Python loop, and
    while the clock runs an interval timer takes another sample every
    ``SAMPLE_INTERVAL_S`` of wall time.  ``end`` returns the interval's
    wall time less the samples' own time, and the factor that turns it
    into seconds on the reference host: ``REFERENCE_ITERATION_S`` over
    the mean seconds per iteration of the interval's samples.
    """

    def __init__(self) -> None:
        self.samples: list = []  # seconds per iteration
        self.spent = 0.0
        self.previous = None
        self.sampling = False

    def sample(self, *_) -> None:
        if self.sampling:  # the timer fired inside a sample
            return
        self.sampling = True
        took = canary(SAMPLE_ITERATIONS)
        self.samples.append(took / SAMPLE_ITERATIONS)
        self.spent += took
        self.sampling = False

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        if self.previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
            self.previous = None

    def begin(self):
        """Sample, then mark the start of a timed interval."""
        self.sample()
        return len(self.samples) - 1, self.spent, now()

    def end(self, mark):
        """(wall time less sampling, reference-host scale) since ``mark``."""
        stopped = now()
        index, spent, started = mark
        wall = stopped - started - (self.spent - spent)
        self.sample()
        speeds = self.samples[index:]
        return wall, REFERENCE_ITERATION_S * len(speeds) / sum(speeds)


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def ops_needed(tail_pct: int) -> int:
    """Fewest ops that leave at least ten beyond the tail percentile."""
    n = 11
    while n - math.ceil(tail_pct * n / 100) < 10:
        n += 1
    return n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ set-up
def setup_probe(workload, seed: int) -> None:
    """Child side of a ``setup_s`` sample: import, build, report.

    The child samples its own speed: a child process may run on another
    CPU than its parent, at another speed.
    """
    clock = HostClock()
    clock.start()
    mark = clock.begin()
    workload.import_library()
    import_s, import_scale = clock.end(mark)
    mark = clock.begin()
    workload.build(seed)
    build_s, build_scale = clock.end(mark)
    clock.stop()
    print(json.dumps({
        "import_s": import_s,
        "build_s": build_s,
        "scale": (import_s * import_scale + build_s * build_scale)
        / (import_s + build_s),
        "sampled_s": clock.spent,
    }), flush=True)


def setup_samples(name: str, seed: int):
    """Interpreter start to inputs built, in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = now()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            wall = now() - started
            child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {child.returncode}")
        sample = json.loads(line)
        sample["wall_s"] = wall - sample["sampled_s"]
        samples.append(sample)
    return samples


# ------------------------------------------------------------- measurement
_reported = []


def report_failures(label, failures) -> None:
    """Full text of the first failure, one line for each later one."""
    for failure in failures:
        text = failure if not _reported else failure.strip().splitlines()[-1]
        _reported.append(label)
        print(f"{label} failed: {text}", file=sys.stderr)


class OpLog:
    """One timed op; ``op`` is its id in the tracer's spans and
    ``scale`` turns its wall time into reference-host seconds."""

    __slots__ = ("label", "kind", "wall", "traced", "requests", "failures",
                 "op", "scale")

    def __init__(self, label, kind, wall, traced, requests, failures, op,
                 scale):
        self.label = label
        self.kind = kind
        self.wall = wall
        self.traced = traced
        self.requests = requests
        self.failures = failures
        self.op = op
        self.scale = scale

    @property
    def scaled(self) -> float:
        """Wall time on the reference host."""
        return self.wall * self.scale


def measure_cycles(wl, seconds, tracer, checker, clock):
    """Closed loop over whole cycles of ``wl``'s ops.

    Untraced runs time every cycle.  Traced runs alternate untraced and
    traced cycles so the tracing overhead is measured on the same ops
    under the same host conditions.
    """
    ops = wl.cycle()
    first = [None] * len(ops)
    outputs = [None] * len(ops)
    log = []
    need = ops_needed(wl.tail_pct)
    start = now()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        patches = tracing.install(tracer) if traced else None
        for index, op in enumerate(ops):
            checker.arrivals = 0
            checker.violations = []
            failures = []
            output = None
            mark = clock.begin()
            root = tracer.begin_op((cycle, index)) if traced else None
            try:
                output = op.fn()
            except Exception:
                failures.append(traceback.format_exc())
            if traced:
                tracer.end_op(root)
            wall, scale = clock.end(mark)
            if traced:
                wall = root.duration
            failures.extend(checker.violations)
            if output is not None:
                record, results = wl.record(output)
                failures.extend(wl.check_output(output))
                d = digest(record)
                if first[index] is None:
                    first[index] = d
                    outputs[index] = (record, results)
                elif d != first[index]:
                    failures.append(f"{op.label}: output differs from the "
                                    "first cycle's")
            report_failures(op.label, failures)
            log.append(OpLog(op.label, op.kind, wall, traced,
                             checker.arrivals, failures, (cycle, index),
                             scale))
        if patches is not None:
            patches.undo()
        cycle += 1
        enough = len(log) >= need if tracer is None else cycle >= 2
        if enough and now() - start >= seconds:
            return log, outputs


def measure_sweep(wl, seconds, tracer, clock):
    """One cold sweep timed point by point, then warm re-runs.

    The returned sweep wall time leaves out the clock's samples.
    """
    log = []
    roots = []
    start, spent = now(), clock.spent
    marks = [clock.begin()]
    if tracer is not None:
        patches = tracing.install(tracer)
        roots.append(tracer.begin_op(0))
    timed = []  # (wall, scale) of each point

    def progress(result):
        if tracer is not None:
            tracer.end_op(roots[-1])
        timed.append(clock.end(marks[-1]))
        marks.append(clock.begin())
        if tracer is not None:
            roots.append(tracer.begin_op(len(timed)))

    failures = []
    outcome = None
    try:
        outcome = wl.sweep(progress, wl.store_path)
    except Exception:
        failures.append(traceback.format_exc())
    sweep_wall = now() - start - (clock.spent - spent)
    if tracer is not None:
        tracer.end_op(roots[-1])  # the runner's tail: reading results back
    points = len(wl.spec.expand())
    model = {}
    cold_records = None
    if outcome is not None:
        check_failures, model = wl.check_cold(outcome)
        failures.extend(check_failures)
        cold_records = [wl.result_record(r) for r in outcome.results]
    report_failures("paper-sweep", failures)
    for k in range(points):
        wall, scale = timed[k] if k < len(timed) else (0.0, 1.0)
        log.append(OpLog(f"point{k}", "cold", wall, tracer is not None, 0,
                         failures, k, scale))
    rerun = 0
    while cold_records is not None:
        mark = clock.begin()
        root = tracer.begin_op(f"rerun{rerun}") if tracer is not None \
            else None
        problems = []
        again = None
        try:
            again = wl.sweep(None, wl.store_path)
        except Exception:
            problems.append(traceback.format_exc())
        if root is not None:
            tracer.end_op(root)
        wall, scale = clock.end(mark)
        if root is not None:
            wall = root.duration
        if again is not None:
            if again.computed != 0 or again.cached != points:
                problems.append(f"warm re-run computed {again.computed}")
            if [wl.result_record(r) for r in again.results] != cold_records:
                problems.append("warm re-run results differ from cold")
        report_failures(f"rerun{rerun}", problems)
        log.append(OpLog(f"rerun{rerun}", "rerun", wall, tracer is not None,
                         0, problems, f"rerun{rerun}", scale))
        rerun += 1
        if now() - start >= seconds:
            break
    if tracer is not None:
        patches.undo()
    return log, sweep_wall, model, cold_records or []


# ----------------------------------------------------------------- metrics
def sim_summary(outputs):
    """Simulated (seed-determined) quantities over the distinct ops."""
    results = [r for _, rs in outputs if rs for r in rs]
    if not results:
        return {}
    arrivals = retries = hedges = good = shed = 0
    p99 = 0.0
    for result in results:
        for t in result.tenants:
            arrivals += t.arrivals
            retries += t.retries
            hedges += t.hedges
            good += t.completions - t.late
            shed += t.rejected + t.expired + t.timed_out
            if t.latency is not None:
                p99 = max(p99, result.cycles_to_ms(t.latency.p99))
    lags = [r.cycles_to_ms(r.resilience.mean_time_to_detect_cycles)
            for r in results
            if r.resilience is not None
            and r.resilience.mean_time_to_detect_cycles is not None]
    return {
        "sim_p99_ms": p99,
        "sim_goodput_ratio": good / (arrivals - retries - hedges),
        "retry_ratio": retries / arrivals,
        "shed_ratio": shed / arrivals,
        "mttd_ms": statistics.mean(lags) if lags else 0.0,
    }


def layer_metrics(tracer, n_ops, scope_ops, opt_ops, opt_points):
    """Per-layer metrics from the traced ops' spans."""
    spans = tracer.spans
    in_scope = [s for s in spans if s.op in scope_ops]
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def self_s(layer):
        return sum(s.self_s for s in in_scope
                   if tracing.layer_of(s) == layer) / n_ops

    def named(prefix, pool=in_scope):
        return [s for s in pool if s.name.startswith(prefix)]

    def ratio(a, b):
        return a / b if b else 0.0

    opt_pool = [s for s in spans if s.op in opt_ops]
    seg = named("opt.segment_search", opt_pool)
    memory = named("opt.memory", opt_pool)
    materialize = named("sim.fastpath.materialize")
    arrivals = sum(s.attrs["arrivals"] for s in materialize)
    solve = {"under": [0.0, 0], "over": [0.0, 0]}
    for span in named("sim.fastpath.solve"):
        side = solve["over" if span.attrs["load"] > 1.0 else "under"]
        side[0] += span.self_s
        side[1] += sum(c.attrs.get("arrivals", 0)
                       for c in children.get(id(span), ()))
    engine = named("sim.engine")
    events = sum(s.attrs["events"] for s in engine)
    engine_requests = sum(
        s.attrs["arrivals"] for s in named("fleet.cluster")
        if any(c.name == "sim.engine" for c in children.get(id(s), ())))
    plans = named("fleet.planner.plan")
    plan_ids = {id(s) for s in plans}
    probes = []
    for span in named("fleet.cluster"):
        parent = span.parent
        while parent is not None and id(parent) not in plan_ids:
            parent = parent.parent
        if parent is not None:
            probes.append(span.duration)
    ejections = sum(v for (op, key), v in tracer.counts.items()
                    if key == "ejections" and op in scope_ops)
    return {
        "opt.segment_search.s": sum(s.self_s for s in seg) / opt_points,
        "opt.segment_search.calls": len(seg) / opt_points,
        "opt.memory.s": sum(s.self_s for s in memory) / opt_points,
        "opt.memory.calls": len(memory) / opt_points,
        "opt.memory.feasible_ratio": ratio(
            sum(1 for s in memory if s.attrs["feasible"]), len(memory)),
        "opt.driver.targets_per_point": sum(
            1 for s in seg if s.name.endswith("candidates")) / opt_points,
        "dse.worker.s": self_s("dse.worker"),
        "dse.store.s": self_s("dse.store"),
        "sim.fastpath.materialize_s": self_s("sim.fastpath.materialize"),
        "sim.fastpath.arrivals": arrivals / n_ops,
        "sim.fastpath.materialize_ns_per_arrival": ratio(
            sum(s.duration for s in materialize) * 1e9, arrivals),
        "sim.fastpath.solve_ns_per_request.under": ratio(
            solve["under"][0] * 1e9, solve["under"][1]),
        "sim.fastpath.solve_ns_per_request.over": ratio(
            solve["over"][0] * 1e9, solve["over"][1]),
        "fleet.cluster.self_s": self_s("fleet.cluster"),
        "sim.engine.s": self_s("sim.engine"),
        "sim.engine.events": events / n_ops,
        "sim.engine.ns_per_event": ratio(
            sum(s.duration for s in engine) * 1e9, events),
        "sim.engine.events_per_request": ratio(events, engine_requests),
        "scenario.faults.materialize_s": self_s("scenario.faults"),
        "fleet.detector.ejections": ejections / n_ops,
        "fleet.planner.probes_per_plan": ratio(len(probes), len(plans)),
        "fleet.planner.probe_ms.p50": statistics.median(probes) * 1e3
        if probes else 0.0,
        "fleet.planner.self_s": self_s("fleet.planner"),
        "serve.slo.s": self_s("serve.slo"),
        "core.serialize.s": self_s("core.serialize"),
        "analysis.report.s": self_s("analysis.report"),
        "other.s": self_s("other"),
    }


def accounting_error(tracer, scope_ops) -> float:
    """Largest |sum of self times - op wall| over traced ops, in s."""
    totals = {}
    walls = {}
    for span in tracer.spans:
        if span.op in scope_ops:
            totals[span.op] = totals.get(span.op, 0.0) + span.self_s
            if span.name == "op":
                walls[span.op] = span.duration
    return max((abs(totals[op] - walls[op]) for op in walls), default=0.0)


def tracemalloc_bytes(op) -> float:
    """Peak traced heap over one op."""
    import tracemalloc

    tracemalloc.start()
    try:
        op.fn()
        return float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def clear_optimizer_caches() -> None:
    """Empty the optimizer's process-global caches (a fresh interpreter's
    state), so a repeated sweep is cold again."""
    import repro.opt.memory as memory

    memory._STRUCTURE_CACHE.clear()
    memory.tile_candidates.cache_clear()


def sweep_trace_overhead(wl, tracer) -> float:
    """Traced / untraced wall of a cold AlexNet sub-sweep, ABBA order."""
    from repro.dse import SweepSpec

    spec = SweepSpec(networks=("alexnet",), parts=wl.spec.parts,
                     dtypes=wl.spec.dtypes, modes=wl.spec.modes)
    walls = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        clear_optimizer_caches()
        patches = tracing.install(tracer) if traced else None
        root = tracer.begin_op("overhead") if traced else None
        started = now()
        wl.sweep(None, spec=spec)
        walls[traced] += now() - started
        if traced:
            tracer.end_op(root)
            patches.undo()
    return walls[True] / walls[False] - 1.0


# ------------------------------------------------------------------ runner
def end_to_end(wl, log, setup_s, rss):
    """The untraced run's metrics, as {name: (value, unit)}.

    Times are scaled to the reference host (see HostClock); the raw
    wall-clock figures are printed beside them.
    """
    timed = [e for e in log if e.kind != "rerun"]
    scaled = [e.scaled for e in timed]
    walls = [e.wall for e in timed]
    if isinstance(wl, PaperSweep):
        done, what = len(timed), "points"
    else:
        done, what = sum(e.requests for e in timed), "requests"
    work = done / sum(scaled)
    print(f"  {what}_per_s = {work:.6g} {what}/s (reported as work_per_s); "
          f"{done / sum(walls):.6g} {what}/s of raw wall time")
    rank = math.ceil(wl.tail_pct * len(walls) / 100)
    print(f"  op_tail_s is p{wl.tail_pct} of {len(walls)} ops "
          f"({len(walls) - rank} beyond it)")
    print(f"  raw wall: op p50 {statistics.median(walls):.6g} s, "
          f"op p{wl.tail_pct} {percentile(walls, wl.tail_pct):.6g} s; "
          f"median host scale {statistics.median(e.scale for e in timed):.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work, "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (percentile(scaled, wl.tail_pct), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(wl, tracer, log, probes, sim, sweep_wall, failures):
    """The traced run's metrics, as {name: (value, unit)}."""
    sweep = isinstance(wl, PaperSweep)
    traced_ops = {e.op for e in log if e.traced and e.kind != "rerun"}
    n_ops = len(traced_ops)
    opt_points = len(wl.spec.expand()) if sweep else 1
    if sweep:
        # Op id ``points`` is the runner's tail after the last point:
        # reading every result back from the store.
        traced_ops.add(opt_points)
    layers = layer_metrics(tracer, n_ops, traced_ops,
                           traced_ops if sweep else {"setup"}, opt_points)
    layers.update({
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.optimize_s": statistics.median(p["build_s"] for p in probes),
        "serve.overload.retry_ratio": sim.get("retry_ratio", 0.0),
        "serve.overload.shed_ratio": sim.get("shed_ratio", 0.0),
        "fleet.detector.mttd_ms": sim.get("mttd_ms", 0.0),
        "dse.runner.overhead_s": 0.0,
        "dse.store.cached_rerun_s": 0.0,
        "fleet.bytes_per_request": 0.0,
        "obs.overhead_ratio": 0.0,
    })
    if sweep:
        worker_total = sum(s.duration for s in tracer.spans
                           if s.name == "dse.worker" and s.op in traced_ops)
        layers["dse.runner.overhead_s"] = (
            sweep_wall - worker_total) / opt_points
        layers["dse.store.cached_rerun_s"] = statistics.median(
            [e.wall for e in log if e.kind == "rerun"] or [0.0])
        overhead = sweep_trace_overhead(wl, tracer)
    else:
        overhead = statistics.mean(e.wall for e in log if e.traced) \
            / statistics.mean(e.wall for e in log if not e.traced) - 1.0
        largest = max(log, key=lambda e: e.requests)
        op = next(op for op in wl.cycle() if op.label == largest.label)
        layers["fleet.bytes_per_request"] = \
            tracemalloc_bytes(op) / largest.requests
    if isinstance(wl, FleetDrill):
        seed = derive_seed(wl.seed, wl.name, 0)
        walls = {True: 0.0, False: 0.0}
        for obs in (True, False, False, True):
            op = wl.drill(wl.SCENARIOS[0], seed, obs=obs)
            started = now()
            op()
            walls[obs] += now() - started
        layers["obs.overhead_ratio"] = walls[True] / walls[False]
    layers["trace.overhead_ratio"] = overhead
    slack = accounting_error(tracer, traced_ops)
    print(f"tracing overhead: {overhead:+.2%} (traced minus untraced wall "
          "of the same ops)")
    print(f"self-time accounting: largest |sum(self) - op wall| = "
          f"{slack:.3g} s over {len(traced_ops)} traced ops")
    if slack > 1e-6:
        failures.append("self times do not add up to op wall")
    spans_path = os.path.join(
        RUN_DIR, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    tracer.dump(spans_path)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return {name: (value, LAYER_UNITS.get(name, "s"))
            for name, value in sorted(layers.items())}


def run(args) -> int:
    tmpdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    clock = HostClock()
    try:
        wl = WORKLOADS[args.workload](tmpdir)
        canary_before = canary()
        probes = setup_samples(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            clock.start()  # traced runs report raw times, unperturbed
        started = now()
        wl.import_library()
        imported = now()
        checker = tracing.RunChecker()
        checker_patches = tracing.install_checker(checker)
        if tracer is not None:
            patches = tracing.install(tracer)
            root = tracer.begin_op("setup")
        wl.build(args.seed)
        if tracer is not None:
            tracer.end_op(root)
            patches.undo()
        built = now()

        model = {}
        outputs = []
        sweep_wall = 0.0
        if isinstance(wl, PaperSweep):
            log, sweep_wall, model, records = measure_sweep(
                wl, args.seconds, tracer, clock)
        else:
            log, outputs = measure_cycles(wl, args.seconds, tracer, checker,
                                          clock)
            records = [r for r, _ in outputs]
        clock.stop()
        rss = peak_rss_mb()
        run_failures = wl.run_checks()
        checker_patches.undo()
        setup_s = statistics.median(p["wall_s"] * p["scale"]
                                    for p in probes)
        sim = sim_summary(outputs)

        print(f"workload {args.workload}  seed {args.seed}  "
              f"trace {args.trace}  python {sys.version.split()[0]}")
        print(f"set-up: {setup_s:.4f} s (raw wall "
              f"{statistics.median(p['wall_s'] for p in probes):.4f} s) "
              f"median of {len(probes)} fresh interpreters; in-process "
              f"import {imported - started:.4f} s, build "
              f"{built - imported:.4f} s")
        print(f"digest {digest(wl.design_records() + records)}")
        for key, value in {**model, **sim}.items():
            print(f"  {key} = {value:.6g}")
        if tracer is None:
            metrics = end_to_end(wl, [e for e in log if not e.traced],
                                 setup_s, rss)
        else:
            metrics = per_layer(wl, tracer, log, probes, sim, sweep_wall,
                                run_failures)
        report_failures("run check", run_failures)
        attempted = len(log) + len(run_failures)
        failed = sum(1 for e in log if e.failures) + len(run_failures)
        print(f"ops: {attempted} attempted, {failed} failed, "
              f"error_rate {failed / attempted:g}")
        print(f"host canary: {canary_before:.4f} s before, "
              f"{canary():.4f} s after (2M-iteration loop)")
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        clock.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)


LAYER_UNITS = {
    "opt.segment_search.calls": "calls/point",
    "opt.memory.calls": "calls/point",
    "opt.memory.feasible_ratio": "ratio",
    "opt.driver.targets_per_point": "targets/point",
    "sim.fastpath.arrivals": "arrivals/op",
    "sim.fastpath.materialize_ns_per_arrival": "ns/arrival",
    "sim.fastpath.solve_ns_per_request.under": "ns/request",
    "sim.fastpath.solve_ns_per_request.over": "ns/request",
    "fleet.bytes_per_request": "B/request",
    "sim.engine.events": "events/op",
    "sim.engine.ns_per_event": "ns/event",
    "sim.engine.events_per_request": "events/request",
    "serve.overload.retry_ratio": "ratio",
    "serve.overload.shed_ratio": "ratio",
    "fleet.detector.ejections": "ejections/op",
    "fleet.detector.mttd_ms": "ms",
    "obs.overhead_ratio": "ratio",
    "fleet.planner.probes_per_plan": "probes/plan",
    "fleet.planner.probe_ms.p50": "ms",
    "trace.overhead_ratio": "ratio",
}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                print(f"{name} trace {trace} exited {child.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
            print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}, all")
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload](RUN_DIR), args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
