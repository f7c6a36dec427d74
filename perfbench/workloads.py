"""The benchmark's four workloads.

A workload imports the library (``import_library``), builds its inputs
from the seed (``build``) and then offers one *cycle* of operations
(``cycle``): a fixed list of distinct, seeded ops.  The runner repeats
whole cycles in a closed loop, so every run times the same mix of ops
and every simulated quantity is a function of the seed alone.
``paper-sweep`` is the exception: its op stream is one cold DSE sweep,
timed point by point, followed by warm re-runs.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Paper Table 1 grid: networks x parts x datatypes x modes (32 points).
PAPER_NETWORKS = ("alexnet", "squeezenet", "googlenet", "vggnet-e")
PAPER_PARTS = ("485t", "690t")
PAPER_DTYPES = ("float32", "fixed16")
#: Exact epoch cycles of AlexNet / 485T / float32 / Single-CLP.
ALEXNET_485T_SINGLE_CYCLES = 2_005_892

REPLICAS = 8


def derive_seed(base: int, *parts: Any) -> int:
    """Per-op seed from the benchmark seed; the library sees only this."""
    text = "/".join(str(p) for p in (base, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


class Op:
    """One closed-loop operation: ``fn()`` does the timed work."""

    def __init__(self, label: str, kind: str, fn: Callable[[], Any]):
        self.label = label
        self.kind = kind
        self.fn = fn


class Workload:
    name = ""
    #: Percentile reported as ``op_tail_s``; fixed per workload so a
    #: change in op count cannot move it.  The runner keeps going until
    #: at least ten ops lie beyond it.
    tail_pct = 80

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def import_library(self) -> None:
        raise NotImplementedError

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def cycle(self) -> List[Op]:
        raise NotImplementedError

    def record(self, output: Any) -> Tuple[Dict[str, Any], List[Any]]:
        """(digest record, fleet results) of one op's output, untimed."""
        raise NotImplementedError

    def check_output(self, output: Any) -> List[str]:
        """Failure messages for one op's output, untimed."""
        return []

    def run_checks(self) -> List[str]:
        """Untimed once-per-run checks; returns failure messages."""
        return []

    def design_records(self) -> List[Dict[str, Any]]:
        return []


# ------------------------------------------------------------ fleet common
class _FleetWorkload(Workload):
    """Shared set-up: the AlexNet-485T float32 Multi-CLP device."""

    def import_library(self) -> None:
        # Module globals, so that set-up times the imports apart from
        # building the inputs.
        global budget_for, DataType, get_network, optimize_multi_clp
        global DeviceSpec, DetectorSpec, AutoscalerPolicy, planner, cluster
        global TenantSpec, make_arrival_process, OverloadSpec
        global AdmissionPolicy, RetryPolicy, SLOSpec, ObsSpec
        global serialize, report
        from repro.fpga.parts import budget_for
        from repro.core.datatypes import DataType
        from repro.networks import get_network
        from repro.opt import optimize_multi_clp
        from repro.fleet import DeviceSpec, DetectorSpec, AutoscalerPolicy
        import repro.fleet.planner as planner
        import repro.fleet.cluster as cluster
        from repro.serve import (
            AdmissionPolicy,
            OverloadSpec,
            RetryPolicy,
            SLOSpec,
            TenantSpec,
            make_arrival_process,
        )
        from repro.obs import ObsSpec
        import repro.core.serialize as serialize
        import repro.analysis.report as report

    def build(self, seed: int) -> None:
        self.seed = seed
        self.budget = budget_for("485t")
        self.design = optimize_multi_clp(
            get_network("alexnet"), self.budget, DataType.from_name("float32")
        )
        self.device = DeviceSpec(
            design=self.design,
            part="485t",
            bytes_per_cycle=self.budget.bytes_per_cycle(),
        )
        self.fleet = self.device.replicated(REPLICAS)
        self.cps = self.budget.cycles_per_second
        self.tenant = self.design.network.name
        #: Requests per second the 8-replica fleet serves at saturation.
        self.capacity_rps = REPLICAS * self.cps / self.device.resolve_epoch()

    def tenants(self, kind: str, load: float) -> list:
        rate = load * self.capacity_rps / self.cps
        return [
            TenantSpec(
                self.tenant,
                make_arrival_process(
                    kind, rate, burstiness=4.0, period_cycles=5e-3 * self.cps
                ),
            )
        ]

    def record(self, output):
        return serialize.fleet_result_to_dict(output), [output]

    def design_records(self):
        return [serialize.design_to_dict(self.design)]


class FleetSteady(_FleetWorkload):
    """8 replicas, round-robin, fast path; ``repro fleet simulate
    --save --report`` per op.  Two of every three ops are Poisson at 0.9
    of capacity (vectorized solve); the third is bursty at 1.5 (queues
    fill, serial fallback).  Eight distinct seeds of each pattern per
    cycle keep one seed's cost from setting the tail."""

    name = "fleet-steady"
    SIM_SECONDS = 120.0
    LOADS = (("under", "poisson", 0.9), ("over", "bursty", 1.5),
             ("under", "poisson", 0.9)) * 8

    def cycle(self):
        ops = []
        for index, (kind, process, load) in enumerate(self.LOADS):
            seed = derive_seed(self.seed, self.name, index)
            tenants = self.tenants(process, load)
            ops.append(Op(f"{process}@{load}#{index}", kind,
                          self._op(tenants, seed, index)))
        return ops

    def _op(self, tenants, seed, index):
        save = os.path.join(self.tmpdir, f"steady{index}.json")
        out = os.path.join(self.tmpdir, f"steady{index}.md")

        def run():
            result = cluster.simulate_fleet(
                self.fleet, tenants,
                duration_cycles=self.SIM_SECONDS * self.cps,
                balancer="round-robin", seed=seed,
            )
            result.format()
            serialize.dump_fleet_result(result, save)
            with open(out, "w") as handle:
                handle.write(report.render_run_report(
                    [result], [f"fleet:round-robinx{REPLICAS}"]))
            return result

        return run

    def run_checks(self):
        """The fast path must agree with the event engine bit for bit."""
        failures = []
        for index, (_, process, load) in enumerate(self.LOADS[:2]):
            seed = derive_seed(self.seed, self.name, "differential", index)
            records = [
                serialize.fleet_result_to_dict(cluster.simulate_fleet(
                    self.fleet, self.tenants(process, load),
                    duration_cycles=10.0 * self.cps,
                    balancer="round-robin", seed=seed, engine=engine,
                ))
                for engine in ("fast", "event")
            ]
            if records[0] != records[1]:
                failures.append(f"fast != event on {process}@{load}")
        return failures


class FleetDrill(_FleetWorkload):
    """The same fleet on the event engine with every feature on."""

    name = "fleet-drill"
    SIM_SECONDS = 10.0
    SCENARIOS = ("chaos", "gray-failure")

    def build(self, seed):
        super().build(seed)
        self.overload = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(deadline_admission=True),
            retry=RetryPolicy(max_attempts=3, jitter="decorrelated"),
            deadline_ms=200.0,
        )
        self.detector = DetectorSpec(
            mode="probe", request_timeout_ms=100.0, max_failovers=2
        )

    def cycle(self):
        return [
            Op(f"{scenario}#{index}", scenario,
               self.drill(scenario, derive_seed(self.seed, self.name, index)))
            for index, scenario in enumerate(self.SCENARIOS * 8)
        ]

    def drill(self, scenario, seed, obs=True):
        tenants = self.tenants("poisson", 0.9)

        def run():
            result = cluster.simulate_fleet(
                self.fleet, tenants,
                duration_cycles=self.SIM_SECONDS * self.cps,
                balancer="least-outstanding", seed=seed, scenario=scenario,
                overload=self.overload, detector=self.detector,
                obs=ObsSpec(timeseries=True) if obs else None,
            )
            result.format()
            return result

        return run


class CapacityPlan(_FleetWorkload):
    """Many short simulations: capacity plans over a per-tenant rate grid
    (fair-weather on the fast path, rack-loss N+1 on the event engine)
    and one autoscale run over a diurnal schedule."""

    name = "capacity-plan"
    #: Per-tenant rates.  The rack-loss grid is wider and finer: those
    #: plans run the event engine and their cost grows with the rate.
    FAIR_RATES_RPS = (60.0, 120.0, 240.0, 480.0)
    RACK_RATES_RPS = (40.0, 60.0, 90.0, 135.0, 200.0, 300.0, 450.0, 675.0)
    DIURNAL_PEAK_RPS = 240.0
    PLAN_WINDOW_MS = 2000.0
    AUTOSCALE_WINDOW_MS = 1000.0
    AUTOSCALE_WINDOWS = 48
    #: Seeds per rate (and autoscale runs) per cycle: how many probes a
    #: plan takes depends on its seed, so one seed would set the tail.
    SEEDS = 3

    def build(self, seed):
        super().build(seed)
        self.fair_slo = SLOSpec(p99_ms=250.0, max_drop_rate=0.01)
        # Work in flight on a failing board is always lost, and a 2 s
        # window makes that a few percent of the traffic.
        self.drill_slo = SLOSpec(p99_ms=1000.0, max_drop_rate=0.1)
        self.policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=16, p99_high_ms=250.0,
            p99_low_ms=120.0,
        )
        windows = self.AUTOSCALE_WINDOWS
        self.schedule = [
            self.DIURNAL_PEAK_RPS
            * (0.55 + 0.45 * math.sin(2 * math.pi * w / windows))
            for w in range(windows)
        ]

    def cycle(self):
        ops = []
        for k in range(self.SEEDS):
            for index, rate in enumerate(self.FAIR_RATES_RPS):
                seed = derive_seed(self.seed, self.name, "fair", index, k)
                ops.append(Op(f"fair@{rate:g}#{k}", "fair", self._plan(
                    rate, self.fair_slo, seed, balancer="round-robin")))
            for index, rate in enumerate(self.RACK_RATES_RPS):
                seed = derive_seed(self.seed, self.name, "rack", index, k)
                ops.append(Op(f"rack-loss@{rate:g}#{k}", "rack-loss",
                              self._plan(rate, self.drill_slo, seed,
                                         balancer="least-outstanding",
                                         scenario="rack-loss",
                                         redundancy=1)))
            ops.append(Op(f"autoscale#{k}", "autoscale", self._autoscale(
                derive_seed(self.seed, self.name, "autoscale", k))))
        return ops

    def _autoscale(self, seed):
        return lambda: planner.autoscale(
            self.device, self.schedule, self.policy,
            window_ms=self.AUTOSCALE_WINDOW_MS, seed=seed)

    def _plan(self, rate, slo, seed, **kwargs):
        return lambda: planner.plan_capacity(
            self.device, rate, slo, duration_ms=self.PLAN_WINDOW_MS,
            seed=seed, **kwargs)

    def record(self, output):
        if isinstance(output, planner.AutoscaleTrace):
            return {"windows": [asdict(w) for w in output.windows],
                    "window_cycles": output.window_cycles}, []
        results = [] if output.result is None else [output.result]
        return {
            "replicas": output.replicas,
            "probes": [asdict(p) for p in output.probes],
            "scenario": output.scenario,
            "redundancy": output.redundancy,
            "result": None if output.result is None
            else serialize.fleet_result_to_dict(output.result),
        }, results

    def check_output(self, output) -> List[str]:
        """A plan's minimum must be minimal; autoscale stays in bounds."""
        if isinstance(output, planner.AutoscaleTrace):
            bad = [w.replicas for w in output.windows
                   if not self.policy.min_replicas <= w.replicas
                   <= self.policy.max_replicas]
            return [f"autoscale left bounds: {bad}"] if bad else []
        if output.replicas is None:
            return []
        verdicts = {p.replicas: p.meets for p in output.probes}
        failures = []
        if not verdicts.get(output.replicas):
            failures.append(f"planned {output.replicas} does not meet SLO")
        if verdicts.get(output.replicas - 1):
            failures.append(f"planned {output.replicas} is not minimal")
        return failures


# -------------------------------------------------------------- paper sweep
class PaperSweep(Workload):
    """A cold DSE sweep over the paper's Table-1 grid, point by point,
    then warm re-runs that read every point back from the store."""

    name = "paper-sweep"
    tail_pct = 68  # 32 points: the highest percentile with 10 beyond

    def import_library(self) -> None:
        global SweepSpec, ResultStore, dse_runner, paper_data  # see above
        from repro.dse import ResultStore, SweepSpec
        import repro.dse.runner as dse_runner
        import repro.analysis.paper_data as paper_data

    def build(self, seed: int) -> None:
        self.seed = seed  # the grid is the paper's; nothing is random
        self.spec = SweepSpec(
            networks=PAPER_NETWORKS, parts=PAPER_PARTS,
            dtypes=PAPER_DTYPES, modes=("single", "multi"),
        )
        self.store_path = os.path.join(self.tmpdir, "sweep.jsonl")
        if os.path.exists(self.store_path):
            os.remove(self.store_path)

    def sweep(self, progress, store_path: Optional[str] = None, spec=None):
        store = ResultStore(store_path) if store_path else None
        return dse_runner.run_sweep(
            spec or self.spec, store=store, workers=1, progress=progress)

    @staticmethod
    def result_record(result) -> Dict[str, Any]:
        """A sweep result without its host-time field."""
        record = result.to_dict()
        record.pop("elapsed_s")
        return record

    def check_cold(self, outcome) -> Tuple[List[str], Dict[str, float]]:
        """Paper invariants; returns (failures, model metrics)."""
        failures = []
        by_key = {}
        for result in outcome.results:
            p = result.point
            if not result.ok:
                failures.append(f"{p.network}/{p.part}/{p.dtype}/{p.mode} "
                                f"infeasible: {result.error_message}")
                continue
            by_key[(p.network, p.part, p.dtype, p.mode)] = result.metrics
        ratios = []
        for (net, part, dtype, mode), metrics in by_key.items():
            if mode != "multi":
                continue
            single = by_key.get((net, part, dtype, "single"))
            if single is None:
                continue
            if metrics["epoch_cycles"] > single["epoch_cycles"]:
                failures.append(f"{net}/{part}/{dtype}: multi slower")
            ratios.append(single["epoch_cycles"] / metrics["epoch_cycles"])
        anchor = by_key.get(("alexnet", "485t", "float32", "single"))
        if anchor is None or anchor["epoch_cycles"] != \
                ALEXNET_485T_SINGLE_CYCLES:
            failures.append("AlexNet-485T float32 single epoch cycles "
                            f"{anchor and anchor['epoch_cycles']} != "
                            f"{ALEXNET_485T_SINGLE_CYCLES}")
        errors = []
        for (net, part, dtype, mode), metrics in by_key.items():
            paper = paper_data.TABLE1_UTILIZATION.get((part, dtype, net))
            if paper is not None:
                errors.append(abs(metrics["arithmetic_utilization"]
                                  - paper[mode == "multi"]))
        if len(ratios) != 16 or len(errors) != 32:
            failures.append(f"{len(ratios)} pairs, {len(errors)} Table-1 "
                            "points (expected 16 and 32)")
        model = {
            "multi_clp_speedup_geomean": math.exp(
                sum(math.log(r) for r in ratios) / len(ratios))
            if ratios else 0.0,
            "table1_util_abs_err": sum(errors) / len(errors)
            if errors else 0.0,
        }
        return failures, model


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, FleetSteady, FleetDrill,
                              CapacityPlan)
}
