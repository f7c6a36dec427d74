"""Multi-tenant traffic simulation over Multi-CLP designs: the device model.

The accelerator model follows Section 4.1 of the paper: a design runs
back-to-back *epochs* of ``epoch_cycles``; at every epoch boundary each
tenant (network) may inject one image into the pipeline, and an image
completes ``pipeline_depth`` epochs after injection — the number of
in-flight images per tenant (layer count in the general schedule, CLP
count for latency-constrained adjacent assignments).  A
:class:`~repro.opt.joint.JointDesign` advances one image of *every*
member network per epoch (Section 4.3), so each network is a tenant
with its own admission slot.

This module holds that service model — :func:`tenant_plans` (per-tenant
depth and CLP cost), :func:`resolve_epoch` (epoch length from the
analytic model, optionally bandwidth-capped through
:meth:`MultiCLPDesign.epoch_cycles_under_bandwidth`, or calibrated by
running the cycle-level system simulator
:func:`repro.sim.system.simulate_system` on one epoch) — and the
per-tenant bounded-queue bookkeeping (:class:`TenantState`) every
engine fills in.  Seeded arrival streams (:mod:`repro.serve.arrivals`)
feed those queues under a drop policy.

There is one traffic engine, :class:`repro.fleet.ClusterSimulator`
(event loop plus the epoch-batched fast path).  :func:`simulate_traffic`
is its single-device view: it runs a one-replica fleet and reduces the
result to a :class:`~repro.serve.metrics.ServeResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from ..obs.telemetry import ObsSpec
    from .overload import OverloadSpec

from ..core.design import MultiCLPDesign
from ..opt.joint import _JOINT_SEPARATOR, JointDesign
from .arrivals import ArrivalProcess
from .metrics import LatencySummary, ServeResult, TenantStats

__all__ = [
    "TenantSpec",
    "TenantState",
    "DROP_POLICIES",
    "tenant_plans",
    "resolve_epoch",
    "service_capacity_rps",
    "pipeline_latency_cycles",
    "simulate_traffic",
]

#: Queue-full policies: reject the newcomer, or evict the oldest waiter.
DROP_POLICIES = ("drop-tail", "drop-head")


@dataclass(frozen=True)
class TenantSpec:
    """One request class: a network name and its arrival process."""

    name: str
    process: ArrivalProcess
    #: Optional bound on generated requests (guards open-ended traces).
    limit: Optional[int] = None
    #: Scheduling priority class (higher = more important).  Plain FIFO
    #: runs ignore it; the overload layer's brownout controller sheds
    #: lower classes first and its ``priority`` discipline favours fresh
    #: work within a class.
    priority: int = 0
    #: Per-request deadline in milliseconds.  When set, completions past
    #: it count as ``late`` (served but not goodput), deadline-aware
    #: disciplines (``edf``/``priority``) shed requests that expire in
    #: queue, and deadline admission can reject at enqueue.  Setting it
    #: activates the overload layer (event engine under ``auto``).
    deadline_ms: Optional[float] = None


def tenant_plans(
    design: Union[MultiCLPDesign, JointDesign],
) -> Tuple[MultiCLPDesign, Dict[str, Tuple[int, Tuple[int, ...]]]]:
    """Per-tenant (pipeline depth, per-CLP cycles-per-image) from a design.

    The service model every higher layer shares: one admission slot per
    tenant per epoch, completion ``depth`` epochs later.  The fleet
    simulator (:mod:`repro.fleet`) builds each replica's device model
    from exactly this plan.
    """
    if isinstance(design, JointDesign):
        base = design.design
        plans: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        for network in design.networks:
            prefix = f"{network.name}{_JOINT_SEPARATOR}"
            per_clp = tuple(
                sum(
                    clp.cycles_for(layer)
                    for layer in clp.layers
                    if layer.name.startswith(prefix)
                )
                for clp in base.clps
            )
            # General (Figure 5) schedule: one image per layer position.
            plans[network.name] = (len(network.layers), per_clp)
        return base, plans
    base = design
    per_clp = tuple(clp.total_cycles for clp in base.clps)
    return base, {
        base.network.name: (base.pipeline_depth_images, per_clp)
    }


def service_capacity_rps(
    design: Union[MultiCLPDesign, JointDesign], frequency_mhz: float
) -> float:
    """Analytic serving ceiling: one image per tenant per epoch."""
    return frequency_mhz * 1e6 / design.epoch_cycles


def pipeline_latency_cycles(
    design: Union[MultiCLPDesign, JointDesign],
    bytes_per_cycle: Optional[float] = None,
) -> float:
    """Worst per-tenant zero-queueing latency: pipeline depth x epoch.

    The shortest horizon at which a request can possibly complete; a
    simulation window below this reports every request as in-flight
    (callers that want percentiles should budget a few multiples, or
    drain)."""
    base, plans = tenant_plans(design)
    epoch = resolve_epoch(base, bytes_per_cycle, "model")
    return max(depth for depth, _ in plans.values()) * epoch


class TenantState:
    """Mutable bookkeeping for one tenant during a run."""

    def __init__(
        self,
        spec: TenantSpec,
        depth_epochs: int,
        clp_cycles: Tuple[int, ...],
        queue_depth: int,
        policy: str,
    ):
        self.spec = spec
        self.depth_epochs = depth_epochs
        self.clp_cycles = clp_cycles
        self.queue_depth = queue_depth
        self.policy = policy
        self.queue: Deque[float] = deque()
        self.arrivals = 0
        self.drops = 0
        self.lost = 0
        self.completions = 0
        self.pipeline = 0
        self.latencies: List[float] = []
        self.first_completion: Optional[float] = None
        self.last_completion: Optional[float] = None
        self.peak_queue = 0
        self._occupancy_area = 0.0
        self._occupancy_mark = 0.0

    # ------------------------------------------------------------- occupancy
    def _touch(self, now: float) -> None:
        self._occupancy_area += len(self.queue) * (now - self._occupancy_mark)
        self._occupancy_mark = now

    def mean_queue_depth(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        # Flush the integral up to the end of the observation window.
        area = self._occupancy_area + len(self.queue) * (
            elapsed - self._occupancy_mark
        )
        return area / elapsed

    # ---------------------------------------------------------------- events
    def on_arrival(self, now: float) -> None:
        self.arrivals += 1
        self._touch(now)
        if len(self.queue) >= self.queue_depth:
            if self.policy == "drop-tail":
                self.drops += 1
                return
            # drop-head: evict the stalest waiter to admit fresh work.
            self.queue.popleft()
            self.drops += 1
        self.queue.append(now)
        self.peak_queue = max(self.peak_queue, len(self.queue))

    def requeue(self, arrival: float, now: float) -> None:
        """Re-admit a request evacuated from a failed replica's queue.

        Not a new arrival — the request was already counted where it
        first landed; it joins the tail here (a client retry would).  A
        full queue sheds it as an ordinary drop on this replica.
        """
        self._touch(now)
        if len(self.queue) >= self.queue_depth:
            self.drops += 1
            return
        self.queue.append(arrival)
        self.peak_queue = max(self.peak_queue, len(self.queue))

    def admit(self, now: float) -> Optional[float]:
        """Pop the head of the queue into the pipeline; returns arrival time."""
        if not self.queue:
            return None
        self._touch(now)
        arrival = self.queue.popleft()
        self.pipeline += 1
        return arrival

    def on_completion(self, arrival: float, now: float) -> None:
        self.pipeline -= 1
        self.completions += 1
        self.latencies.append(now - arrival)
        if self.first_completion is None:
            self.first_completion = now
        self.last_completion = now

    # ----------------------------------------------------------------- final
    def stats(self, elapsed: float) -> TenantStats:
        steady = None
        if (
            self.completions >= 2
            and self.last_completion is not None
            and self.last_completion > self.first_completion
        ):
            steady = (self.completions - 1) / (
                self.last_completion - self.first_completion
            )
        return TenantStats(
            name=self.spec.name,
            offered_rate_per_cycle=self.spec.process.mean_rate,
            arrivals=self.arrivals,
            completions=self.completions,
            drops=self.drops,
            in_flight=len(self.queue) + self.pipeline,
            latency=LatencySummary.of(self.latencies),
            mean_queue_depth=self.mean_queue_depth(elapsed),
            peak_queue_depth=self.peak_queue,
            steady_rate_per_cycle=steady,
            lost=self.lost,
            priority=self.spec.priority,
        )


def resolve_epoch(
    base: MultiCLPDesign,
    bytes_per_cycle: Optional[float],
    calibrate: str,
) -> float:
    if calibrate == "model":
        return base.epoch_cycles_under_bandwidth(bytes_per_cycle)
    if calibrate == "simulate":
        from ..sim.system import simulate_system

        return simulate_system(base, bytes_per_cycle=bytes_per_cycle).epoch_cycles
    raise ValueError(
        f"unknown calibration {calibrate!r}; expected 'model' or 'simulate'"
    )


def simulate_traffic(
    design: Union[MultiCLPDesign, JointDesign],
    tenants: Sequence[TenantSpec],
    duration_cycles: float,
    *,
    frequency_mhz: float = 100.0,
    seed: int = 0,
    queue_depth: int = 64,
    policy: str = "drop-tail",
    bytes_per_cycle: Optional[float] = None,
    calibrate: str = "model",
    drain: bool = False,
    engine: str = "auto",
    obs: Optional["ObsSpec"] = None,
    overload: Optional["OverloadSpec"] = None,
) -> ServeResult:
    """Drive ``design`` with seeded request streams and measure serving.

    ``tenants`` must name exactly the networks the design serves (any
    order).  With ``drain=False`` the run is cut at ``duration_cycles``
    and queued/pipelined requests are reported as in-flight; with
    ``drain=True`` arrivals stop at the horizon but dispatch continues
    until every admitted request completes, so
    ``arrivals == completions + drops`` exactly.

    The run is a one-replica fleet: :class:`repro.fleet.ClusterSimulator`
    executes it and its :class:`~repro.fleet.metrics.FleetResult` is
    reduced to a :class:`ServeResult`, so ``engine``, ``obs`` and
    ``overload`` mean exactly what they mean for
    :meth:`~repro.fleet.ClusterSimulator.run`.  In short: ``engine``
    selects the execution strategy, not the semantics (``"event"`` is
    the reference discrete-event loop, ``"fast"`` the epoch-batched
    solver of :mod:`repro.sim.fastpath`, ``"auto"`` picks fast when it
    can — results are bit-identical).  ``obs`` (an
    :class:`~repro.obs.ObsSpec`) opts into windowed telemetry (the
    result's ``timeseries``, whose per-replica series and trace tracks
    carry the one replica's label) and/or request tracing; observed
    runs need the event engine, which ``"auto"`` falls back to.
    ``overload`` (an :class:`~repro.serve.overload.OverloadSpec`) opts
    into admission control, queue disciplines, client retries and
    brownout; any active feature — including a tenant ``deadline_ms`` —
    runs on the event engine, and ``engine="fast"`` raises.

    Determinism: identical arguments (including ``seed``) produce an
    identical :class:`~repro.serve.metrics.ServeResult`, bit for bit.
    """
    from ..fleet.cluster import simulate_fleet
    from ..fleet.device import DeviceSpec

    fleet = simulate_fleet(
        DeviceSpec(
            design, bytes_per_cycle=bytes_per_cycle, calibrate=calibrate
        ),
        tenants,
        duration_cycles,
        frequency_mhz=frequency_mhz,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
        engine=engine,
        obs=obs,
        overload=overload,
    )
    replica = fleet.replicas[0]
    base, plans = tenant_plans(design)
    label = (
        " + ".join(net.name for net in design.networks)
        if isinstance(design, JointDesign)
        else base.network.name
    )
    return ServeResult(
        design_label=f"{label} [{base.dtype.label}]",
        num_clps=base.num_clps,
        epoch_cycles=replica.epoch_cycles,
        pipeline_depths=tuple(plans[spec.name][0] for spec in tenants),
        frequency_mhz=frequency_mhz,
        horizon_cycles=fleet.horizon_cycles,
        elapsed_cycles=fleet.elapsed_cycles,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drained=drain,
        tenants=fleet.tenants,
        clp_busy_fraction=replica.clp_busy_fraction,
        timeseries=fleet.timeseries,
        overload=fleet.overload,
    )
