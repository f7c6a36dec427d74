#!/usr/bin/env python
"""Provisioning a service: from one optimized board to a planned fleet.

The paper maximizes a single FPGA's efficiency; a production service
asks the next question — how many of those boards does a traffic target
take, and is the cheap board or the big board the better buy per served
request?  This example walks the whole fleet layer:

1. optimize AlexNet on a VX485T (the paper's canonical scenario);
2. compare load-balancing policies on a fixed 4-board fleet under the
   same seeded burst traffic (power-of-two-choices vs round-robin vs
   random vs tenant-affinity);
3. capacity-plan the minimum fleet meeting a p99/drop SLO at a target
   rate, then verify the planned fleet by simulation;
4. step a reactive autoscaler through a traffic spike;
5. price the 485T fleet against a 690T fleet for the same SLO
   (cost-to-serve: boards needed x relative board cost).

Run:  python examples/fleet_capacity.py
"""

from repro import FLOAT32, budget_for, get_network, optimize_multi_clp
from repro.analysis.report import render_table
from repro.fleet import (
    AutoscalerPolicy,
    DeviceSpec,
    autoscale,
    plan_capacity,
    simulate_fleet,
)
from repro.fpga.parts import get_part
from repro.serve import BurstyArrivals, SLOSpec, TenantSpec, evaluate_slo

FREQ_MHZ = 100.0
CYCLES_PER_SECOND = FREQ_MHZ * 1e6


def main() -> None:
    network = get_network("alexnet")

    # 1. One board per part: the unit the fleet replicates.
    devices = {}
    for part in ("485t", "690t"):
        design = optimize_multi_clp(network, budget_for(part), FLOAT32)
        devices[part] = DeviceSpec(design, part=part)
        print(
            f"{part}: {design.num_clps} CLPs, "
            f"{design.throughput(FREQ_MHZ):.1f} img/s/board, "
            f"board cost {get_part(part).cost_weight:.2f}"
        )
    print()

    # 2. Balancer bake-off: same seeded bursty traffic, same 4 boards.
    device = devices["485t"]
    capacity = CYCLES_PER_SECOND / device.resolve_epoch()
    tenants = [
        TenantSpec(
            "AlexNet",
            BurstyArrivals(
                3.0 * capacity / CYCLES_PER_SECOND,
                burstiness=4.0,
                period_cycles=0.02 * CYCLES_PER_SECOND,
            ),
        )
    ]
    rows = []
    for balancer in ("power-of-two", "round-robin", "least-outstanding",
                     "random", "tenant-affinity"):
        result = simulate_fleet(
            device.replicated(4),
            tenants,
            duration_cycles=0.8 * CYCLES_PER_SECOND,
            balancer=balancer,
            seed=2017,
            queue_depth=16,
            drain=True,
        )
        tenant = result.tenants[0]
        rows.append(
            (
                balancer,
                f"{result.cycles_to_ms(tenant.latency.p99):.1f}",
                f"{tenant.drop_rate:.1%}",
                f"{result.utilization_imbalance:.1%}",
            )
        )
    print(render_table(
        ["balancer", "p99 ms", "drop", "imbalance"],
        rows,
        title="4x VX485T under 3x-capacity bursty traffic (seed 2017)",
    ))
    print()

    # 3. Capacity plan: minimum boards for 2.5x capacity with a tail SLO.
    # AlexNet's pipeline alone is ~170 ms deep on this board, so the
    # tail SLO must sit above that floor; 250 ms leaves queueing headroom.
    slo = SLOSpec(p99_ms=250.0, max_drop_rate=0.01)
    rate = 2.5 * capacity
    plan = plan_capacity(device, rate, slo, max_replicas=16, seed=7)
    print(plan.format())
    if plan.meets:
        verification = evaluate_slo(plan.result, slo)
        print(
            f"verification: planned fleet meets SLO = {verification.meets} "
            f"(p99 {verification.worst_p99_ms:.1f} ms, "
            f"shed {verification.worst_shed_rate:.1%})"
        )
    print()

    # 4. Reactive autoscaling through a spike: 0.5x -> 3x -> 0.5x capacity.
    schedule = [0.5 * capacity] * 2 + [3.0 * capacity] * 4 + [0.5 * capacity] * 3
    policy = AutoscalerPolicy(
        min_replicas=1,
        max_replicas=8,
        p99_high_ms=250.0,
        queue_high=4.0,
        p99_low_ms=180.0,
        queue_low=0.5,
    )
    trace = autoscale(device, schedule, policy, window_ms=60.0, seed=7)
    print(trace.format())
    print()

    # 5. Cost-to-serve: is the bigger board worth its price at this rate?
    rows = []
    for part, spec in devices.items():
        part_plan = plan_capacity(spec, rate, slo, max_replicas=16, seed=7)
        cost = get_part(part).cost_weight
        rows.append(
            (
                part,
                part_plan.replicas,
                f"{cost:.2f}",
                f"{part_plan.replicas * cost:.2f}" if part_plan.meets else "-",
            )
        )
    print(render_table(
        ["part", "boards", "board cost", "fleet cost"],
        rows,
        title=f"cost to serve {rate:.0f} r/s at p99<=250ms, drops<=1%",
    ))


if __name__ == "__main__":
    main()
