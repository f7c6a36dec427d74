"""Epoch-batched fast path for scenario-free traffic simulation.

The event engine (:mod:`repro.sim.engine`) charges ~3 heap events per
request; for plain open-loop runs — no fault scenario, no surge — the
whole simulation is a deterministic function of the arrival times and
the epoch grid, so it can be solved with batched numpy array ops
instead of a callback loop.  This module is that solver, used by
:class:`repro.fleet.cluster.ClusterSimulator` (and so by
:func:`repro.serve.simulator.simulate_traffic`, a one-replica fleet)
when ``engine="fast"`` (or ``"auto"`` without a scenario).

The contract is *bit-for-bit* equality with the event engine, not
statistical agreement: every float in the result is produced by the
same IEEE-754 operations in the same fold order the event loop would
have used.  The three places this bites, and how they are replicated:

* **Heap tie-breaks.**  An arrival at exactly a boundary time may fire
  before or after the boundary depending on *scheduling* order (the
  engine breaks time ties by insertion sequence).  The arrival chain
  schedules arrival ``i`` during arrival ``i-1``'s fire and the
  boundary chain schedules boundary ``k`` during boundary ``k-1``'s
  fire, so the winner follows from comparing those two earlier fire
  times — recursively when *they* tie too.  ``_eligibility`` resolves
  the recursion with a vectorized forward fill over the tie chains.
* **Fold order.**  Occupancy integrals and latency means are fold-left
  float sums in event order.  ``numpy.cumsum`` is a sequential
  fold-left (unlike ``numpy.sum``, which is pairwise), so
  ``cumsum(...)[-1]`` reproduces the event loop's accumulator exactly.
* **Grid times.**  Boundaries live on the exact grid ``k * epoch`` in
  both engines (see the ``schedule_at`` chains), so admission and
  completion timestamps are single multiplications, identical on both
  paths.

CLP busy cycles are integer-valued and far below 2**53, so their float
accumulation is exact in any order and needs no special care.

Per-request work is array operations, except where an arrival
process's generator has to be replayed:

* **Arrivals.**  Constant-rate streams are a closed form; Poisson
  streams draw their uniforms in blocks straight from the generator's
  MT19937 words (``_poisson_times``); other processes replay their
  generator.
* **Queues.**  ``_solve_stream`` solves one FIFO queue, filling or not,
  under either drop policy.  The queue length after each push is a
  clamp-shift map ``x -> min(depth, max(1, x + 1 - m))`` of the one
  before, ``m`` being the boundaries fired in between.  Such maps
  compose into maps of the same form, so every length comes from one
  prefix scan (``_clamp_scan``, ``ceil(log2 n)`` doubling passes), or
  from a ``cumsum`` and a ``minimum.accumulate`` when no queue fills.
  Admissions, drops, the served arrivals and the occupancy integral
  all follow from the lengths.

The fleet solver covers balancers whose routing is a function of the
per-tenant arrival index alone — round-robin (per-tenant counters),
tenant-affinity (a pure hash), and any policy when a tenant has exactly
one eligible replica.  Load-dependent policies over multiple replicas
(least-outstanding, power-of-two, random's shared RNG stream) depend on
the global event interleaving; for those the cluster falls back to the
reference event engine, which is what ``engine="fast"`` documents: a
promise about results, not mechanism.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.arrivals import ArrivalProcess, ConstantRate, PoissonArrivals
from ..serve.simulator import _Request

__all__ = [
    "ENGINES",
    "resolve_engine",
    "materialize_arrivals",
    "fleet_fast_supported",
    "run_fleet_fast",
]

#: Engine selectors accepted by the simulators.
ENGINES = ("auto", "fast", "event")


def resolve_engine(
    engine: str,
    *,
    has_scenario: bool = False,
    has_overload: bool = False,
    has_detector: bool = False,
) -> str:
    """Pick the concrete engine for a run.

    ``auto`` selects the fast path whenever no fault/surge scenario is
    in play, no overload feature (admission, non-FIFO discipline,
    retries, brownout, deadlines) is active, and no *active* failure
    detector (probe mode or request timeouts) is armed; the event
    engine remains the reference (and only) path for those runs —
    failure events, retry feedback loops, and probe/timeout events
    genuinely interleave with traffic.  Requesting ``fast`` together
    with any of them is an error rather than a silent downgrade.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "auto":
        return (
            "event"
            if (has_scenario or has_overload or has_detector)
            else "fast"
        )
    if engine == "fast" and has_scenario:
        raise ValueError(
            "engine='fast' cannot run fault/surge scenarios; "
            "use engine='event' (or 'auto') for scenario runs"
        )
    if engine == "fast" and has_overload:
        raise ValueError(
            "engine='fast' cannot run overload control (admission, "
            "queue disciplines, retries, brownout, deadlines); "
            "use engine='event' (or 'auto') for overload runs"
        )
    if engine == "fast" and has_detector:
        raise ValueError(
            "engine='fast' cannot run an active failure detector "
            "(probe mode or request timeouts); use engine='event' "
            "(or 'auto') for detector runs"
        )
    return engine


# --------------------------------------------------------------- arrivals
#: Most Poisson gaps drawn per block: large enough to amortize the
#: per-block calls, small enough to keep the block's temporaries small.
_POISSON_BLOCK = 8192


def _poisson_times(
    rate: float, rng: random.Random, limit: Optional[int], horizon: float
) -> np.ndarray:
    """``PoissonArrivals.times`` up to ``limit``/``horizon``, in blocks.

    ``expovariate`` is ``-log(1.0 - random()) / rate`` and ``random()``
    is ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` over two 32-bit
    MT19937 words.  ``getrandbits(64 * k)`` returns the next ``2k``
    words little-endian, so a block reproduces ``k`` calls' uniforms
    exactly and leaves the generator where they would.  The log is
    ``math.log`` per draw (``numpy.log`` may differ in the last ulp), and
    ``cumsum`` seeded with the previous time is the generator's running
    ``now += gap`` fold.  A block covers the expected arrivals left
    before the horizon plus four standard deviations, so short streams
    draw little more than they use; draws past the stop are discarded
    with the generator, which no one else reads.
    """
    blocks: List[np.ndarray] = []
    now = 0.0
    count = 0
    while limit is None or count < limit:
        expected = (horizon - now) * rate
        spread = 4.0 * math.sqrt(expected) + 16
        size = int(min(_POISSON_BLOCK, expected + spread))
        if limit is not None:
            size = min(size, limit - count)
        words = np.frombuffer(
            rng.getrandbits(64 * size).to_bytes(8 * size, "little"),
            dtype="<u4",
        )
        uniform = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
            1.0 / 9007199254740992.0
        )
        logs = np.fromiter(
            map(math.log, (1.0 - uniform).tolist()), np.float64, size
        )
        gaps = -logs / rate
        gaps[0] += now
        times = np.cumsum(gaps)
        cut = int(np.searchsorted(times, horizon, side="right"))
        if cut < size:
            blocks.append(times[:cut])
            break
        blocks.append(times)
        now = float(times[-1])
        count += size
    if not blocks:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(blocks)


def materialize_arrivals(
    process: ArrivalProcess,
    seed_key: str,
    limit: Optional[int],
    horizon: float,
) -> np.ndarray:
    """All arrival times one stream would fire, as a float64 array.

    Replicates the event loop's pump exactly: stop at ``limit``
    arrivals, at stream exhaustion, or at the first time beyond the
    horizon.  Constant-rate streams (the common benchmark shape) are
    generated without touching the RNG — their generator ignores it.
    Stochastic processes replay ``random.Random(seed_key)``
    draw-for-draw, which keeps the traffic identical to the event
    engine's streams by construction: Poisson streams in array blocks
    (:func:`_poisson_times`), every other process (including any
    ``PoissonArrivals`` subclass, which may override ``times``) through
    its generator.
    """
    if isinstance(process, ConstantRate):
        period = 1.0 / process.rate
        count = int(horizon / period) + 2
        times = np.arange(count, dtype=np.float64) * period
        times = times[times <= horizon]
        if limit is not None:
            times = times[:limit]
        return times
    rng = random.Random(seed_key)
    if type(process) is PoissonArrivals:
        return _poisson_times(process.rate, rng, limit, horizon)
    stream: Iterator[float] = process.times(rng)
    out: List[float] = []
    while limit is None or len(out) < limit:
        try:
            when = next(stream)
        except StopIteration:
            break
        if when > horizon:
            break
        out.append(when)
    return np.asarray(out, dtype=np.float64)


# ------------------------------------------------------------------- grid
def _last_boundary(horizon: float, epoch: float) -> int:
    """Largest ``k`` with ``k * epoch <= horizon`` under float rounding."""
    k = int(horizon / epoch)
    while (k + 1) * epoch <= horizon:
        k += 1
    while k > 0 and k * epoch > horizon:
        k -= 1
    return k


def _eligibility(arrivals: np.ndarray, epoch: float) -> np.ndarray:
    """First boundary index that fires after each arrival's event.

    For arrival time ``a`` strictly between boundaries this is simply
    ``ceil(a / epoch)``.  On an exact tie ``a == k * epoch`` the heap
    order decides: the arrival fires first (eligibility ``k``) iff its
    event was *scheduled* before the boundary's — i.e. iff the previous
    arrival fired before boundary ``k-1``, which on a further tie is the
    same question one step back.  Tie chains are resolved by evaluating
    the chain head's base case and forward-filling it down the chain.
    Boundary 0 runs synchronously before any event, so a time-0 arrival
    is never eligible for it.
    """
    n = arrivals.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k0 = np.ceil(arrivals / epoch).astype(np.int64)
    # Guard the division against float error in either direction.
    k0 = np.where((k0 - 1) * epoch >= arrivals, k0 - 1, k0)
    k0 = np.where(k0 * epoch < arrivals, k0 + 1, k0)
    tie = k0 * epoch == arrivals

    prev = np.empty(n, dtype=np.float64)
    prev[1:] = arrivals[:-1]
    prev[0] = -1.0  # sentinel; index 0 uses its own base case below
    t_prev = (k0 - 1) * epoch
    # Chained: the previous arrival sits exactly on boundary k0-1, so
    # this tie resolves the same way that one did.
    chained = tie & (k0 > 0) & (prev == t_prev)
    chained[0] = False
    # Base case: scheduled strictly before the boundary's own schedule
    # point (or at setup, which precedes the whole run).
    fires_first = tie & (k0 > 0) & (prev < t_prev)
    fires_first[0] = bool(tie[0]) and k0[0] > 0
    head = np.maximum.accumulate(
        np.where(~chained, np.arange(n, dtype=np.int64), -1)
    )
    resolved = fires_first[head]
    return np.where(tie, np.where(resolved, k0, k0 + 1), k0)


# ------------------------------------------------------------ FIFO solver
class _StreamResult:
    """One (tenant, replica) sub-stream solved against one epoch grid."""

    __slots__ = (
        "s_adm", "adm_times", "drops", "queue_times",
        "area", "mark", "peak", "last_boundary",
    )

    def __init__(
        self,
        s_adm: np.ndarray,
        adm_times: np.ndarray,
        drops: int,
        queue_times: Sequence[float],
        area: float,
        mark: float,
        peak: int,
    ):
        self.s_adm = s_adm
        self.adm_times = adm_times
        self.drops = drops
        self.queue_times = queue_times
        self.area = area
        self.mark = mark
        self.peak = peak
        #: Boundary index of the last admission (0 when none): with the
        #: tenant stream's close index, how far a drain must chain.
        self.last_boundary = int(s_adm[-1]) if s_adm.size else 0


def _clamp_scan(gaps: np.ndarray, depth: int) -> np.ndarray:
    """Queue length after each push when the queue may fill.

    Each arrival maps the previous length ``x`` to
    ``min(depth, max(1, x + 1 - gap))``.  Maps of the clamp-shift form
    ``x -> min(hi, max(lo, x + c))`` compose into the same form, so an
    inclusive prefix scan over ``(c, lo, hi)`` in doubling passes yields
    every composed map; applying each to the empty queue (0) gives the
    lengths.
    """
    n = gaps.size
    c = 1 - gaps
    lo = np.ones(n, dtype=np.int64)
    hi = np.full(n, depth, dtype=np.int64)
    step = 1
    while step < n:
        # Compose map i-step (applied first) into map i.
        c_b, lo_b, hi_b = c[step:], lo[step:], hi[step:]
        new_lo = np.minimum(hi_b, np.maximum(lo_b, lo[:-step] + c_b))
        new_hi = np.minimum(hi_b, np.maximum(lo_b, hi[:-step] + c_b))
        c[step:] = c[:-step] + c_b
        lo[step:] = new_lo
        hi[step:] = new_hi
        step *= 2
    return np.minimum(hi, np.maximum(lo, c))


def _solve_stream(
    arrivals: np.ndarray,
    eligibility: np.ndarray,
    epoch: float,
    last_k: int,
    queue_depth: int,
    policy: str,
    drain: bool,
) -> _StreamResult:
    """Solve one FIFO admission queue against one boundary grid.

    ``last_k`` is the last boundary that exists without draining; in
    drain mode the chain extends as far as pending work requires.

    Arrival ``i`` fires just before boundary ``e_i`` (its eligibility),
    so the boundaries that can pop between arrivals ``i-1`` and ``i``
    are ``e_{i-1} .. e_i - 1``, capped at ``last_k``: ``m_i`` of them.
    Each pops one waiter while any remain, so the length after the push
    follows ``L_i = min(D, max(1, L_{i-1} + 1 - m_i))``.  Without the
    ``D`` barrier that is a Lindley recursion (one ``cumsum`` and one
    ``minimum.accumulate``); when a queue fills, :func:`_clamp_scan`
    solves the two-barrier form.  Everything else follows from the
    lengths: ``min(L_{i-1}, m_i)`` pops in gap ``i`` at boundaries
    ``e_{i-1}, e_{i-1}+1, ...``; a drop wherever an arrival finds
    ``D`` waiters; and, since the queue is a contiguous run of arrival
    indexes under drop-head (of accepted ones under drop-tail), which
    arrival each pop serves.  The occupancy integral is one ``cumsum``
    over pop and arrival events laid out in fire order.
    """
    n = arrivals.size
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return _StreamResult(
            np.empty(0, dtype=np.int64), empty, 0, (), 0.0, 0.0, 0
        )

    # gaps[i]: boundaries that fire between arrivals i-1 and i, with
    # gaps[0] = 0 (the queue is empty before the first arrival) and
    # gaps[n] the boundaries left after the last one.
    gaps = np.empty(n + 1, dtype=np.int64)
    gaps[0] = 0
    if drain:
        np.subtract(eligibility[1:], eligibility[:-1], out=gaps[1:n])
    else:
        capped = np.minimum(eligibility[1:], last_k + 1)
        np.maximum(capped - eligibility[:-1], 0, out=gaps[1:n])
    # Lengths after each push, first without the depth barrier.
    rise = np.cumsum(1 - gaps[:n])
    length = rise - np.minimum.accumulate(rise) + 1
    peak = int(length.max())
    full = peak > queue_depth
    if full:
        # The barrier binds: some arrival finds the queue full.
        length = _clamp_scan(gaps[:n], queue_depth)
        peak = queue_depth
    held = int(length[-1])
    if drain:
        gaps[n] = held  # the chain runs until the queue is empty
    else:
        gaps[n] = max(0, last_k + 1 - int(eligibility[-1]))

    # prior[g]: waiters just after arrival g-1 (0 before the first).
    prior = np.empty(n + 1, dtype=np.int64)
    prior[0] = 0
    prior[1:] = length
    pops = np.minimum(prior, gaps)
    before = prior[:n] - pops[:n]  # waiters each arrival finds
    popped = np.cumsum(pops)
    total = int(popped[-1])

    # Pop j falls in gap g at offset t: boundary e_{g-1} + t.
    gap_of = np.repeat(np.arange(n + 1, dtype=np.int64), pops)
    offset = np.arange(total, dtype=np.int64) - (popped - pops)[gap_of]
    start = np.empty(n + 1, dtype=np.int64)
    start[0] = 0
    start[1:] = eligibility
    s_adm = start[gap_of] + offset

    if not full:
        drops = 0
        adm_times = arrivals[:total]
        queue_times = arrivals[total:].tolist()
    else:
        dropped = before >= queue_depth
        drops = int(np.count_nonzero(dropped))
        if policy == "drop-tail":
            accepted = np.flatnonzero(~dropped)
            adm_times = arrivals[accepted[:total]]
            queue_times = arrivals[accepted[total:]].tolist()
        else:
            # After arrival g-1 the queue holds arrivals g-prior[g]..g-1.
            adm_times = arrivals[gap_of - prior[gap_of] + offset]
            queue_times = arrivals[n - (held - int(pops[n])):].tolist()

    # Events in fire order: gap g's pops, then arrival g.
    times = np.empty(n + total, dtype=np.float64)
    waiting = np.empty(n + total, dtype=np.int64)
    at_arrival = np.arange(n, dtype=np.int64) + popped[:n]
    at_pop = np.arange(total, dtype=np.int64) + gap_of
    times[at_arrival] = arrivals
    waiting[at_arrival] = before
    times[at_pop] = s_adm * epoch
    waiting[at_pop] = prior[gap_of] - offset
    steps = np.cumsum(waiting * np.diff(times, prepend=0.0))
    return _StreamResult(
        s_adm,
        adm_times,
        drops,
        queue_times,
        float(steps[-1]),
        float(times[-1]),
        peak,
    )


# ---------------------------------------------------------- state filling
def _fill_state(
    state,
    arrivals: np.ndarray,
    solved: _StreamResult,
    epoch: float,
    drain: bool,
    horizon: float,
) -> Optional[float]:
    """Write one solved sub-stream into a ``TenantState``.

    Returns the last completion time (for the drain elapsed-time
    reduction), or ``None`` when nothing completed.
    """
    depth_cycles = state.depth_epochs * epoch
    finish = solved.s_adm.astype(np.float64) * epoch + depth_cycles
    if drain:
        fired = finish.size
    else:
        fired = int(np.searchsorted(finish, horizon, side="right"))
    latencies = finish[:fired] - solved.adm_times[:fired]

    state.arrivals = int(arrivals.size)
    state.drops = solved.drops
    state.completions = fired
    state.pipeline = int(finish.size) - fired
    state.latencies = latencies.tolist()
    if fired:
        state.first_completion = float(finish[0])
        state.last_completion = float(finish[fired - 1])
    # Requests left queued at the cut; only their count is ever read.
    state.queue = deque(_Request(float(t)) for t in solved.queue_times)
    state.peak_queue = solved.peak
    state._occupancy_area = solved.area
    state._occupancy_mark = solved.mark
    return float(finish[fired - 1]) if fired else None


def _charge_clps(clp_busy: List[float], state, admissions: int) -> None:
    """Admission-time CLP charges: exact integers, so one multiply."""
    for clp_index, cycles in enumerate(state.clp_cycles):
        clp_busy[clp_index] += admissions * cycles


# ------------------------------------------------------------------ fleet
def fleet_fast_supported(balancer, eligible: Dict[str, Tuple[int, ...]]) -> bool:
    """Can routing be computed from per-tenant arrival indexes alone?

    True for round-robin (per-tenant counters), tenant-affinity (pure
    hash), and the known randomized/load-aware policies when every
    tenant has a single eligible replica (their route degenerates to
    that replica regardless of RNG or load).  Custom subclasses are
    never assumed — ``type`` is compared exactly, since a subclass may
    override ``route`` with arbitrary order-dependent behaviour.
    """
    from ..fleet.balancer import (
        LeastOutstandingBalancer,
        PowerOfTwoBalancer,
        RandomBalancer,
        RoundRobinBalancer,
        TenantAffinityBalancer,
    )

    kind = type(balancer)
    if kind in (RoundRobinBalancer, TenantAffinityBalancer):
        return True
    if kind in (LeastOutstandingBalancer, PowerOfTwoBalancer, RandomBalancer):
        return all(len(targets) == 1 for targets in eligible.values())
    return False


def _static_routes(
    balancer, name: str, targets: Tuple[int, ...], count: int
) -> np.ndarray:
    """Replica index for each of a tenant's ``count`` arrivals."""
    from ..fleet.balancer import RoundRobinBalancer, TenantAffinityBalancer

    if len(targets) == 1:
        return np.full(count, targets[0], dtype=np.int64)
    if type(balancer) is RoundRobinBalancer:
        # The per-tenant counter advances once per arrival, and a
        # tenant's arrivals fire in index order, so the n-th arrival
        # draws turn n no matter how tenants interleave globally.
        choice = np.asarray(targets, dtype=np.int64)
        return choice[np.arange(count, dtype=np.int64) % len(targets)]
    if type(balancer) is TenantAffinityBalancer:
        import zlib

        digest = zlib.crc32(name.encode("utf-8"))
        return np.full(count, targets[digest % len(targets)], dtype=np.int64)
    raise AssertionError(f"unsupported balancer {balancer.name!r}")


def run_fleet_fast(
    replicas: Sequence,
    tenants: Sequence,
    eligible: Dict[str, Tuple[int, ...]],
    balancer,
    horizon: float,
    seed: int,
    drain: bool,
) -> float:
    """Solve a fleet run in place; returns the elapsed cycles.

    Each (replica, tenant) pair is an independent FIFO once routing is
    fixed, so the fleet reduces to per-replica instances of the
    single-stream solver (``_solve_stream``) — with one cross-cutting
    wrinkle: heap tie-breaks chain through the *tenant's* full arrival
    stream (arrival ``i`` is always scheduled by arrival ``i-1``,
    wherever that one routed), so eligibility is computed on the full
    stream per epoch grid and only then split by route.  A tenant's
    stream also keeps every replica that serves it draining until the
    stream closes, routed there or not, which is what ``stream_close``
    carries across.
    """
    last_finish: Optional[float] = None
    chain_ends = [
        _last_boundary(horizon, replica.epoch) for replica in replicas
    ]
    last_ks = list(chain_ends)
    for index, spec in enumerate(tenants):
        arrivals = materialize_arrivals(
            spec.process, f"{seed}/{index}/{spec.name}", spec.limit, horizon
        )
        targets = eligible[spec.name]
        routes = _static_routes(balancer, spec.name, targets, arrivals.size)
        # One eligibility pass per distinct epoch among serving replicas.
        by_epoch: Dict[float, np.ndarray] = {}
        for r in targets:
            epoch = replicas[r].epoch
            if epoch not in by_epoch:
                by_epoch[epoch] = _eligibility(arrivals, epoch)
        for r in targets:
            replica = replicas[r]
            state = replica.states[spec.name]
            mask = routes == r
            solved = _solve_stream(
                arrivals[mask],
                by_epoch[replica.epoch][mask],
                replica.epoch,
                last_ks[r],
                state.queue_depth,
                state.policy,
                drain,
            )
            finish = _fill_state(
                state, arrivals[mask], solved, replica.epoch, drain, horizon
            )
            if finish is not None and (
                last_finish is None or finish > last_finish
            ):
                last_finish = finish
            _charge_clps(replica.clp_busy, state, int(solved.s_adm.size))
            stream_close = (
                int(by_epoch[replica.epoch][-1]) if arrivals.size else 0
            )
            chain_ends[r] = max(
                chain_ends[r], solved.last_boundary, stream_close
            )
    if not drain:
        return horizon
    elapsed = horizon
    for r, replica in enumerate(replicas):
        t_end = chain_ends[r] * replica.epoch
        if t_end > elapsed:
            elapsed = t_end
    if last_finish is not None and last_finish > elapsed:
        elapsed = last_finish
    return elapsed
