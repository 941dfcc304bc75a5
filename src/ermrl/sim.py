"""Continuous-time discrete-event dispatch simulator.

Implements the operational model: Poisson incident arrivals, mandatory
nearest-available dispatch, FIFO waiting queue, fixed on-scene service,
transport to the nearest hospital, and return to the assigned depot. Planner
hooks run on decision events, move responders through the apply methods and
share eta_to_cell, the one rule for when a responder can be at a cell.

sample_incidents is the one incident sampler, behind every chain and every
search future. Per window ending at a rate-bucket boundary it makes one vector
Poisson draw of the counts over the requested cells, then one uniform draw of
the window's times, grouped cell by cell in the requested cells' order.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geo import RateModel, ScenarioWorld


class SimLogicError(RuntimeError):
    """Internal consistency violation in the simulator."""


@dataclass(frozen=True)
class LocationTrack:
    """One movement leg; stationary iff origin == destination."""
    origin: int
    destination: int
    depart_t: float
    arrive_t: float

    def __post_init__(self):
        if self.depart_t > self.arrive_t:
            raise SimLogicError("leg must not arrive before departing")

    @classmethod
    def at(cls, cell: int, t: float) -> "LocationTrack":
        return cls(cell, cell, t, t)

    @property
    def stationary(self) -> bool:
        return self.origin == self.destination


def eta_to_cell(resp: ResponderState, target, t: float, world: ScenarioWorld):
    """Start cell and seconds from t until resp can be at target: one cell id
    (a float) or an id array (an array), read from one travel-table row.

    Busy: remaining service time, then the ride from the drop-off hospital.
    Available, midpoint rule: in the first half of a leg the responder counts
    as still at the origin (minus time already spent, floored at zero); in the
    second half it counts as committed to the destination and pays the
    residual ride plus the onward travel time evaluated at its arrival instant.
    """
    mats, bucket, track = world.travel.matrices, world.travel.bucket_index, resp.track
    if resp.t_avail is not None:
        cell = world.hospitals[resp.hospital].cell
        eta = (resp.t_avail - t) + mats[bucket(resp.t_avail), cell, target]
    elif t <= track.depart_t or track.origin == track.destination:
        cell, eta = track.origin, mats[bucket(t), track.origin, target]
    elif t >= track.arrive_t:
        cell, eta = track.destination, mats[bucket(t), track.destination, target]
    elif (elapsed := t - track.depart_t) < (track.arrive_t - track.depart_t) / 2:
        cell, eta = track.origin, np.maximum(mats[bucket(t), track.origin, target] - elapsed, 0.0)
    else:
        cell = track.destination
        eta = (track.arrive_t - t) + mats[bucket(track.arrive_t), cell, target]
    return cell, (eta if isinstance(eta, np.ndarray) else float(eta))


@dataclass
class ResponderState:
    id: int
    depot: int
    region: int
    track: LocationTrack
    incident: int | None = None      # incident cell while serving
    hospital: int | None = None
    t_avail: float | None = None
    move_token: int = 0              # invalidates superseded depot-arrival events

    @property
    def available(self) -> bool:
        return self.incident is None

    def check(self):
        busy_fields = (self.incident is not None, self.hospital is not None, self.t_avail is not None)
        if len(set(busy_fields)) != 1:
            raise SimLogicError("incident/hospital/t_avail must be all set or all empty")


@dataclass(frozen=True)
class Incident:
    id: int
    cell: int
    report_t: float


@dataclass(frozen=True)
class IncidentChain:
    incidents: tuple[tuple[float, int], ...]  # (report_t_s, cell_id), time-sorted
    horizon_s: float
    seed: int

    def __post_init__(self):
        ts = [t for t, _ in self.incidents]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("chain incidents must be time-sorted")
        if ts and (ts[0] < 0 or ts[-1] > self.horizon_s):
            raise ValueError("chain incidents must fall within the horizon")


def sample_incidents(rates: RateModel, cells: np.ndarray, t0: float, t_end: float,
                     rng: np.random.Generator) -> list[tuple[float, int]]:
    """Time-sorted (t, cell) incidents on `cells` in [t0, t_end).

    Draw order, per window ending at a rate-bucket boundary: one vector Poisson
    draw of the counts over `cells`, then one uniform draw of all the window's
    times, grouped cell by cell in `cells` order (counts[0] times for cells[0],
    then counts[1] for cells[1], ...)."""
    times: list[float] = []
    labels: list[int] = []
    dur = rates.bucket_duration_s
    start = t0
    while start < t_end:
        end = min(math.floor(start / dur + 1) * dur, t_end)
        expected = rates.rates_at(start)[cells] * (end - start) / 3600.0  # rates per hour
        counts = rng.poisson(expected)
        times += rng.uniform(start, end, size=int(counts.sum())).tolist()
        labels += np.repeat(cells, counts).tolist()
        start = end
    return sorted(zip(times, labels))


def sample_chain(rates: RateModel, horizon_s: float, seed: int) -> IncidentChain:
    """Draw one incident realization over every cell from t = 0."""
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    events = sample_incidents(rates, np.arange(rates.n_cells), 0.0, horizon_s,
                              np.random.default_rng(seed))
    return IncidentChain(tuple(events), horizon_s, seed)


@dataclass(frozen=True)
class SimConfig:
    t_serve_s: float = 1200.0
    idle_timeout_s: float | None = None  # emit idle ticks when set

    def __post_init__(self):
        if self.t_serve_s <= 0:
            raise ValueError("t_serve_s must be positive")


# event kinds, in processing order at equal timestamps
_PRIORITY = {"release": 0, "depot_arrival": 1, "rate_change": 2, "incident": 3, "idle_tick": 4}


@dataclass(frozen=True)
class Event:
    kind: str
    t: float
    responder: int | None = None
    incident: Incident | None = None
    token: int | None = None


@dataclass(frozen=True)
class DispatchRecord:
    t: float
    incident_id: int
    responder: int
    region: int
    response_s: float


@dataclass
class EpisodeResult:
    """One chain's record: its responses, its seed and its planner calls."""
    response_log: list[tuple[int, float, float]]  # (incident id, report_t_s, response_s)
    seed: int
    decisions: list[tuple[str, float]]  # (level "region" | "city", wall seconds) per call

    @property
    def n_incidents(self) -> int:
        return len(self.response_log)

    @property
    def mean_response_s(self) -> float | None:
        if not self.response_log:
            return None
        return float(np.mean([r for _, _, r in self.response_log]))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["incident_id", "report_t_s", "response_time_s"])
            for iid, rt, resp in self.response_log:
                w.writerow([iid, repr(rt), repr(resp)])


class Simulator:
    """One episode: an isolated, single-threaded state machine.

    Planners change it only through apply_depot_moves (new depots inside the
    responders' regions) and apply_region_moves (depots in other regions),
    which reroute available responders at once and check depot capacity. The
    fleet is explicit: an initial assignment, or a responder count that
    default_initial_assignment spreads over the regions."""

    def __init__(self, world: ScenarioWorld, chain: IncidentChain,
                 config: SimConfig, controller=None,
                 initial_assignment: dict[int, int] | None = None,
                 n_responders: int | None = None):
        self.world = world
        self.chain = chain
        self.cfg = config
        self.controller = controller
        self.now = 0.0
        self.queue: deque[Incident] = deque()
        self.response_log: list[tuple[int, float, float]] = []
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._served = 0
        self._last_quiet_t = 0.0
        self.last_dispatch: DispatchRecord | None = None
        self.decisions: list[tuple[str, float]] = []  # the controller's planner calls

        if initial_assignment is None:
            if n_responders is None:
                raise ValueError("the simulator needs an initial_assignment or n_responders")
            initial_assignment = default_initial_assignment(world, n_responders)
        self.responders: dict[int, ResponderState] = {}
        for rid, depot in sorted(initial_assignment.items()):
            cell = world.depots[depot].cell
            region = world.seg.depot_regions[depot]
            self.responders[rid] = ResponderState(rid, depot, region, LocationTrack.at(cell, 0.0))
        self._check_capacity()

        for i, (t, cell) in enumerate(chain.incidents):
            self._push(Event("incident", t, incident=Incident(i, cell, t)))
        dur = world.rates.bucket_duration_s
        t = float(dur)
        while t <= chain.horizon_s:
            self._push(Event("rate_change", t))
            t += dur
        if config.idle_timeout_s:
            self._push(Event("idle_tick", config.idle_timeout_s))

    # -- event plumbing --

    def _push(self, ev: Event):
        self._seq += 1
        heapq.heappush(self._heap, (ev.t, _PRIORITY[ev.kind], self._seq, ev))

    def run(self) -> EpisodeResult:
        if self.controller is not None and hasattr(self.controller, "begin_episode"):
            self.controller.begin_episode(self)
        last_t = 0.0
        while self._heap:
            # run to the horizon; past it, only drain outstanding service work
            if self._heap[0][0] > self.chain.horizon_s:
                if (self._served >= len(self.chain.incidents)
                        and all(r.available for r in self.responders.values())):
                    break
            t, _, _, ev = heapq.heappop(self._heap)
            if t < last_t:
                raise SimLogicError("event clock moved backwards")
            last_t = t
            self.now = t
            self._handle(ev)
        if self._served < len(self.chain.incidents):
            raise SimLogicError("event calendar exhausted with incidents unserved")
        if self.controller is not None and hasattr(self.controller, "end_episode"):
            self.controller.end_episode(self)
        return EpisodeResult(self.response_log, self.chain.seed, self.decisions)

    def _handle(self, ev: Event):
        if ev.kind == "incident":
            self._last_quiet_t = ev.t
            self.dispatch(ev.incident)
            self._notify(ev)
            if self.cfg.idle_timeout_s:
                self._push(Event("idle_tick", ev.t + self.cfg.idle_timeout_s))
        elif ev.kind == "release":
            r = self.responders[ev.responder]
            if r.t_avail is None or r.t_avail != ev.t:
                raise SimLogicError(f"responder {ev.responder} released off schedule")
            self.release(ev.responder)
            self._notify(ev)
        elif ev.kind == "depot_arrival":
            self._settle_arrival(ev)
        elif ev.kind == "rate_change":
            self._notify(ev)
        elif ev.kind == "idle_tick":
            if (ev.t != self._last_quiet_t + self.cfg.idle_timeout_s
                    or ev.t > self.chain.horizon_s):
                return  # stale (a fresher tick is scheduled) or past the horizon
            self._last_quiet_t = ev.t
            self._notify(ev)
            self._push(Event("idle_tick", ev.t + self.cfg.idle_timeout_s))
        else:
            raise SimLogicError(f"unknown event kind {ev.kind}")

    def _notify(self, ev: Event):
        if self.controller is not None:
            self.controller.on_event(self, ev)

    # -- core operations --

    def dispatch(self, incident: Incident) -> int | None:
        """Send the nearest available responder, else queue the incident FIFO.

        One pass in ascending id order (self.responders keeps its sorted
        insertion order); a strict < keeps the lowest id on equal ETAs."""
        best = None
        cell, now, world = incident.cell, self.now, self.world
        for rid, r in self.responders.items():
            if r.incident is None:
                start, eta = eta_to_cell(r, cell, now, world)
                if best is None or eta < best_eta:
                    best, best_start, best_eta = rid, start, eta
        if best is None:
            self.queue.append(incident)
            return None
        self._assign_to_incident(best, incident, best_start, best_eta)
        return best

    def _assign_to_incident(self, rid: int, incident: Incident,
                            start_cell: int | None = None, eta: float | None = None):
        """Send rid to the incident, then on to the hospital nearest the scene.
        dispatch passes the start cell and ETA it found; the queue path
        (release) leaves them to eta_to_cell here."""
        r = self.responders[rid]
        if eta is None:
            start_cell, eta = eta_to_cell(r, incident.cell, self.now, self.world)
        scene_arrival = self.now + eta
        response = scene_arrival - incident.report_t
        if response < 0:
            raise SimLogicError("negative response time")
        self.response_log.append((incident.id, incident.report_t, response))
        self._served += 1
        self.last_dispatch = DispatchRecord(self.now, incident.id, rid, r.region, response)
        depart_scene = scene_arrival + self.cfg.t_serve_s
        h_ids, _, h_times = self.world.hospital_table(self.world.travel.bucket_index(depart_scene))
        hospital = h_ids[incident.cell]
        t_avail = depart_scene + h_times[incident.cell]
        r.incident = incident.cell
        r.hospital = hospital
        r.t_avail = t_avail
        r.move_token += 1
        r.track = LocationTrack(start_cell, incident.cell, self.now, scene_arrival)
        r.check()
        self._push(Event("release", t_avail, responder=rid))

    def release(self, rid: int):
        """Drop-off complete: take the queue head or head back to the depot."""
        r = self.responders[rid]
        h_cell = self.world.hospitals[r.hospital].cell
        r.incident = None
        r.hospital = None
        r.t_avail = None
        r.move_token += 1
        r.track = LocationTrack.at(h_cell, self.now)
        r.check()
        if self.queue:
            self._assign_to_incident(rid, self.queue.popleft())
        else:
            self._send_to_depot(rid)

    def _send_to_depot(self, rid: int):
        r = self.responders[rid]
        depot_cell = self.world.depots[r.depot].cell
        start_cell, eta = eta_to_cell(r, depot_cell, self.now, self.world)
        if eta > 0:
            r.track = LocationTrack(start_cell, depot_cell, self.now, self.now + eta)
            self._push(Event("depot_arrival", self.now + eta, responder=rid,
                             token=r.move_token))
        else:
            r.track = LocationTrack.at(depot_cell, self.now)

    def _settle_arrival(self, ev: Event):
        r = self.responders[ev.responder]
        if ev.token != r.move_token or not r.available:
            return  # superseded by a later retasking
        r.track = LocationTrack.at(r.track.destination, self.now)

    # -- planner-facing mutations --

    def apply_depot_moves(self, moves: dict[int, int]):
        """Reassign waiting depots; available responders reroute immediately,
        busy responders pick the new depot up at release."""
        for rid in sorted(moves):
            depot = moves[rid]
            r = self.responders[rid]
            if r.depot == depot:
                continue
            r.depot = depot
            if r.available:
                r.move_token += 1
                self._send_to_depot(rid)
        self._check_capacity()

    def apply_region_moves(self, moves: dict[int, int]) -> set[int]:
        """City reallocation: each mover joins the region of its new depot,
        then moves there as apply_depot_moves does. Returns the regions whose
        membership changed."""
        left = {self.responders[rid].region for rid in moves}
        for rid, depot in moves.items():
            self.responders[rid].region = self.world.seg.depot_regions[depot]
        self.apply_depot_moves(moves)
        return left | {self.responders[rid].region for rid in moves}

    def _check_capacity(self):
        held, depot_regions = set(), self.world.seg.depot_regions
        for r in self.responders.values():
            if r.depot in held:
                raise SimLogicError("two responders assigned to one depot")
            if depot_regions[r.depot] != r.region:
                raise SimLogicError("responder depot outside its region")
            held.add(r.depot)

    def region_counts(self) -> dict[int, int]:
        counts = {g: 0 for g in self.world.seg.region_ids}
        for r in self.responders.values():
            counts[r.region] += 1
        return counts

    def region_responders(self, region: int) -> list[int]:
        return sorted(rid for rid, r in self.responders.items() if r.region == region)


def region_shares(world: ScenarioWorld, n_responders: int, t: float = 0.0) -> dict[int, int]:
    """{region: responders}: a fleet of n_responders split over the regions in
    proportion to their rates at t within their depot counts, by capped
    Sainte-Laguë (Webster), house-monotone (optim.greedy_redistribute)."""
    from .optim import greedy_redistribute

    caps = world.region_caps()
    region_ids = sorted(caps)
    rates = world.region_rates(t)
    rates0 = np.array([rates[g] for g in region_ids])
    p = rates0 / rates0.sum() if rates0.sum() > 0 else np.ones(len(region_ids)) / len(region_ids)
    counts = greedy_redistribute(p, n_responders, [caps[g] for g in region_ids])
    return {g: int(c) for g, c in zip(region_ids, counts)}


def default_initial_assignment(world: ScenarioWorld, n_responders: int) -> dict[int, int]:
    """Each region's share of the fleet at t=0 on its lowest-id depots."""
    depots = [d for g, count in region_shares(world, n_responders).items()
              for d in world.region_depots(g)[:count]]
    return dict(enumerate(depots))


def run_episode(world: ScenarioWorld, chain: IncidentChain, controller,
                config: SimConfig, initial_assignment: dict[int, int] | None = None,
                n_responders: int | None = None) -> EpisodeResult:
    sim = Simulator(world, chain, config, controller, initial_assignment, n_responders)
    return sim.run()
