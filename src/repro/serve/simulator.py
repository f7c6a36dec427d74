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
:func:`repro.sim.system.simulate_system` on one epoch) — and the one
per-tenant bookkeeping class, :class:`TenantState`: a bounded queue of
request objects under a drop policy and a queue discipline, plus every
counter a run reports.  Seeded arrival streams
(:mod:`repro.serve.arrivals`) feed those queues; plain and
overload-controlled runs share the state and its request path, and the
epoch-batched fast path fills in the same class.

There is one traffic engine, :class:`repro.fleet.ClusterSimulator`
(event loop plus the epoch-batched fast path).  :func:`simulate_traffic`
is its single-device view: it runs a one-replica fleet and reduces the
result to a :class:`~repro.serve.metrics.ServeResult`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
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

from ..core.checks import require_finite_positive
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

    def __post_init__(self) -> None:
        require_finite_positive(self, "deadline_ms")


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


class _Request:
    """One attempt of one logical request, as it moves through a queue.

    Mutable on purpose: ``done`` flips when the attempt leaves the queue
    (dispatched, dropped, evicted, expired, or evacuated-lost), which is
    what cancels a pending hedge.  ``backoff_cycles`` carries the last
    delay for decorrelated jitter.  ``seq`` is the overload controller's
    global insertion stamp; requests of a run without one keep
    ``seq == 0``, so every FIFO insert appends at the tail.
    """

    __slots__ = (
        "arrival", "attempt", "hedge", "hedged", "done", "backoff_cycles",
        "seq",
    )

    def __init__(
        self,
        arrival: float,
        attempt: int = 1,
        *,
        hedge: bool = False,
        backoff_cycles: float = 0.0,
    ) -> None:
        self.arrival = arrival
        self.attempt = attempt
        self.hedge = hedge
        self.hedged = False
        self.done = False
        self.backoff_cycles = backoff_cycles
        self.seq = 0


class TenantState:
    """Mutable bookkeeping for one tenant on one device during a run.

    The queue holds :class:`_Request` entries in discipline order, head
    first: ``fifo`` orders by insertion stamp, ``edf`` by absolute
    deadline, ``priority`` puts fresh work ahead of retries and hedges
    (see :mod:`repro.serve.overload`).  ``rejected``/``expired``/
    ``retries``/``hedges``/``late`` stay 0 unless an overload controller
    drives the state.
    """

    def __init__(
        self,
        spec: TenantSpec,
        depth_epochs: int,
        clp_cycles: Tuple[int, ...],
        queue_depth: int,
        policy: str,
        *,
        queue_policy: str = "fifo",
        epoch: float = 1.0,
        deadline_cycles: Optional[float] = None,
    ):
        self.spec = spec
        self.depth_epochs = depth_epochs
        self.clp_cycles = clp_cycles
        self.queue_depth = queue_depth
        self.policy = policy
        self.queue_policy = queue_policy
        self.epoch = epoch
        self.deadline_cycles = deadline_cycles
        self.queue: Deque[_Request] = deque()
        self.arrivals = 0
        self.drops = 0
        self.lost = 0
        self.completions = 0
        self.pipeline = 0
        self.rejected = 0
        self.expired = 0
        self.retries = 0
        self.hedges = 0
        self.late = 0
        self.latencies: List[float] = []
        self.first_completion: Optional[float] = None
        self.last_completion: Optional[float] = None
        self.peak_queue = 0
        self._occupancy_area = 0.0
        self._occupancy_mark = 0.0
        # Expiry shedding belongs to the deadline-aware disciplines:
        # under ``fifo`` a stale request is still served (and completes
        # late), the epoch-burning naive behaviour.
        self._expires = queue_policy != "fifo" and deadline_cycles is not None
        self._key: Callable[[_Request], Any]
        if queue_policy == "edf":
            budget = math.inf if deadline_cycles is None else deadline_cycles
            self._key = lambda req: (req.arrival + budget, req.seq)
        elif queue_policy == "priority":
            # Fresh work ahead of retries and hedges: retry demotion
            # keeps a storm from starving first-attempt traffic.
            self._key = lambda req: (
                0 if (req.attempt == 1 and not req.hedge) else 1, req.seq
            )
        else:
            self._key = attrgetter("seq")

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
    def book_arrival(self, req: _Request) -> None:
        """Count one attempt arriving (before any admission decision)."""
        self.arrivals += 1
        if req.hedge:
            self.hedges += 1
        elif req.attempt > 1:
            self.retries += 1

    def push(self, req: _Request, now: float) -> Optional[_Request]:
        """Count one arriving attempt and queue it; returns the victim.

        ``None`` means the request was queued with room to spare.  Under
        drop-tail a full queue returns ``req`` itself (never queued);
        under drop-head it returns the evicted head — the entry the
        discipline would have served next — and queues ``req``.
        """
        self.book_arrival(req)
        return self._enqueue(req, now, self.policy == "drop-head")

    def requeue(self, req: _Request, now: float) -> Optional[_Request]:
        """Re-admit a request evacuated from another queue.

        Not a new arrival — the request was already counted where it
        first landed, and keeps its arrival time and insertion stamp.
        Unstamped requests rejoin at the tail (a client retry would); a
        stamped one re-enters in its original order.  A full queue sheds
        it as an ordinary drop here, and returns it so the host can hand
        it to the retry layer.
        """
        req.done = False
        return self._enqueue(req, now, False)

    def _enqueue(
        self, req: _Request, now: float, evict: bool
    ) -> Optional[_Request]:
        self._touch(now)
        queue = self.queue
        victim: Optional[_Request] = None
        if len(queue) >= self.queue_depth:
            self.drops += 1
            if not evict:
                req.done = True
                return req
            victim = queue.popleft()
            victim.done = True
        key = self._key
        if queue and key(queue[-1]) > key(req):
            # Keys mostly grow with time, so most inserts append; the
            # scan from the tail is O(queue_depth) at worst.
            rank = key(req)
            position = len(queue) - 1
            while position > 0 and key(queue[position - 1]) > rank:
                position -= 1
            queue.insert(position, req)
        else:
            queue.append(req)
        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)
        return victim

    def pop_next(
        self,
        now: float,
        expire: Optional[Callable[[_Request], None]] = None,
    ) -> Optional[_Request]:
        """Admit the discipline head into the pipeline, or ``None``.

        Under ``edf``/``priority`` with a deadline, a head whose deadline
        passed while queued is shed as ``expired`` (and handed to
        ``expire``) without burning the admission slot; the next head is
        tried until a live one is admitted or the queue runs dry.
        """
        queue = self.queue
        while queue:
            self._touch(now)
            req = queue.popleft()
            req.done = True
            if self._expires and now > req.arrival + self.deadline_cycles:
                self.expired += 1
                if expire is not None:
                    expire(req)
                continue
            self.pipeline += 1
            return req
        return None

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
            rejected=self.rejected,
            expired=self.expired,
            retries=self.retries,
            hedges=self.hedges,
            late=self.late,
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
