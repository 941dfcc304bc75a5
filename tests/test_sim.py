import math

import numpy as np
import pytest
from conftest import bench_city, chain_of, make_world, two_region_world, uniform_table

from ermrl import geo, harness, optim, sim


class TestSampleChain:
    def test_zero_rates_empty(self):
        rm = geo.RateModel(3600, np.zeros((1, 4)))
        chain = sim.sample_chain(rm, 7 * 24 * 3600, seed=1)
        assert chain.incidents == ()

    def test_poisson_concentration(self):
        rm = geo.RateModel(3600, np.array([[1.0]]))
        horizon = 10_000 * 3600.0
        chain = sim.sample_chain(rm, horizon, seed=2)
        n = len(chain.incidents)
        assert abs(n - 10_000) <= 4 * np.sqrt(10_000)

    def test_same_seed_identical(self):
        rm = geo.RateModel(3600, np.random.default_rng(0).uniform(0, 2, (2, 5)))
        a = sim.sample_chain(rm, 2 * 24 * 3600, seed=5)
        b = sim.sample_chain(rm, 2 * 24 * 3600, seed=5)
        assert a == b

    def test_sorted_within_horizon(self):
        rm = geo.RateModel(7200, np.random.default_rng(1).uniform(0, 3, (3, 4)))
        chain = sim.sample_chain(rm, 3 * 24 * 3600, seed=9)
        ts = [t for t, _ in chain.incidents]
        assert ts == sorted(ts)
        assert all(0 <= t <= chain.horizon_s for t in ts)


def frozen_sample_chain(rates, horizon_s, seed):
    """sample_chain as it was before search shared its sampler: the
    reference the shared sampler must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    events = []
    dur = rates.bucket_duration_s
    start = 0.0
    while start < horizon_s:
        end = min(start + dur, horizon_s)
        lam = rates.rates_at(start)
        expected = lam * (end - start) / 3600.0
        counts = rng.poisson(expected)
        for cell in np.flatnonzero(counts):
            ts = rng.uniform(start, end, size=int(counts[cell]))
            events.extend((float(t), int(cell)) for t in ts)
        start = end
    events.sort()
    return sim.IncidentChain(tuple(events), horizon_s, seed)


def frozen_sample_incidents(rates, cells, t0, t_end, rng):
    """sample_incidents as it was with one uniform draw per cell with a
    nonzero count: the reference the one-draw-per-window sampler must
    reproduce, in its events and in the generator state it leaves."""
    events = []
    dur = rates.bucket_duration_s
    start = t0
    while start < t_end:
        end = min(math.floor(start / dur + 1) * dur, t_end)
        expected = rates.rates_at(start)[cells] * (end - start) / 3600.0
        counts = rng.poisson(expected)
        for j in np.flatnonzero(counts):
            ts = rng.uniform(start, end, size=int(counts[j]))
            events.extend((float(t), int(cells[j])) for t in ts)
        start = end
    events.sort()
    return events


def assert_matches_frozen_sampler(rates, cells, t0, t_end, rng, frozen_rng):
    events = sim.sample_incidents(rates, cells, t0, t_end, rng)
    assert events == frozen_sample_incidents(rates, cells, t0, t_end, frozen_rng)
    assert all(type(t) is float and type(c) is int for t, c in events)
    assert rng.bit_generator.state == frozen_rng.bit_generator.state
    return events


# (bucket length, buckets per cycle): each cycle divides one week
RATE_CYCLES = [(900, 96), (3600, 24), (3600, 168), (7200, 12), (21600, 4)]


class TestSampleIncidents:
    @pytest.mark.parametrize("start", ["zero", "mid_bucket", "before_boundary"])
    @pytest.mark.parametrize("horizon_s", [0.5, 700.0, 6 * 3600.0, 3.5 * 86400.0])
    def test_matches_the_per_cell_sampler(self, start, horizon_s):
        n_events = 0
        for case in range(40):
            rng = np.random.default_rng([case, int(horizon_s * 2)])
            bucket_s, n_buckets = RATE_CYCLES[case % len(RATE_CYCLES)]
            n_all = int(rng.integers(1, 41))
            rates = rng.uniform(0.0, 20.0, (n_buckets, n_all))
            rates[:, rng.random(n_all) < 0.25] = 0.0       # cells never busy
            rates[rng.random(n_buckets) < 0.25] = 0.0      # buckets never busy
            # any subset of the cells, in any order
            cells = rng.permutation(n_all)[:rng.integers(1, n_all + 1)]
            bucket = int(rng.integers(0, 2 * n_buckets)) * bucket_s
            t0 = {"zero": 0.0, "mid_bucket": bucket + bucket_s / 2,
                  "before_boundary": bucket + bucket_s - 0.25}[start]
            events = assert_matches_frozen_sampler(
                geo.RateModel(bucket_s, rates), cells, t0, t0 + horizon_s,
                np.random.default_rng(case), np.random.default_rng(case))
            n_events += len(events)
        if horizon_s > 1.0:
            assert n_events > 0

    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_matches_the_per_cell_sampler_on_bench_regions(self, name):
        """Each region's search futures, drawn as city-mcts draws them: the
        region's cells in id order over a 6 h horizon, four futures in a row
        from one generator."""
        world = bench_city(name)
        dur = world.rates.bucket_duration_s
        n_events = 0
        for g in world.seg.region_ids:
            cells = np.array(sorted(world.seg.region_cells[g]))
            for t0 in (0.0, 5 * dur + dur / 2, 30 * dur - 0.25):
                rng, frozen_rng = np.random.default_rng(g), np.random.default_rng(g)
                for _ in range(4):
                    n_events += len(assert_matches_frozen_sampler(
                        world.rates, cells, t0, t0 + 6 * 3600.0, rng, frozen_rng))
        assert n_events > 0

    @pytest.mark.parametrize("bucket_s, n_buckets", [(3600, 24), (7200, 12), (21600, 4)])
    @pytest.mark.parametrize("horizon_s", [3600.0, 5000.0, 2 * 86400.0,
                                           8 * 86400.0 + 1234.5])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_chain_matches_the_frozen_sampler(self, bucket_s, n_buckets, horizon_s, seed):
        rates = np.random.default_rng(bucket_s + seed).uniform(0.5, 2.0, (n_buckets, 9))
        rates[:, [2, 5]] = 0.0                 # two cells never see an incident
        rates[n_buckets // 2] = 0.0            # one bucket sees none anywhere
        rm = geo.RateModel(bucket_s, rates)
        chain = sim.sample_chain(rm, horizon_s, seed)
        assert chain == frozen_sample_chain(rm, horizon_s, seed)
        assert chain.incidents and {c for _, c in chain.incidents}.isdisjoint({2, 5})

    def test_window_starting_mid_bucket(self):
        # each 2 h bucket puts all demand on a cell of its own
        bucket_s, hot = 7200, [0, 3, 5, 7]
        rates = np.zeros((4, 8))
        rates[np.arange(4), hot] = 20.0
        rates[:, 6] = 20.0                     # busy, but never requested
        rm = geo.RateModel(bucket_s, rates)
        cells = np.array([0, 3, 5, 7])
        t0, t_end = 3000.0, 3000.0 + 3 * bucket_s
        events = sim.sample_incidents(rm, cells, t0, t_end, np.random.default_rng(4))
        assert events == sorted(events)
        assert {c for _, c in events} == set(hot)
        for t, c in events:
            assert t0 <= t < t_end
            bucket = hot.index(c)
            assert bucket * bucket_s <= t < (bucket + 1) * bucket_s


class TestDispatch:
    def test_responder_at_scene(self):
        # responder idles at the incident cell; hospital one hop away
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[1])
        s = sim.Simulator(world, chain_of([(50.0, 0)], 3600), sim.SimConfig(),
                          n_responders=len(world.depots))
        res = s.run()
        assert res.response_log == [(0, 50.0, 0.0)]
        # t_avail = report + t_serve + travel(scene -> hospital)
        r = s.responders[0]
        assert r.available
        # responder finished at hospital then headed home; verify via event math
        # scene arrival 50, depart 1250, hospital arrival 1350

    def test_nearest_of_three(self):
        table = np.zeros((4, 4))
        for c, t in ((1, 300.0), (2, 120.0), (3, 450.0)):
            table[c, 0] = table[0, c] = t
        table[1, 2] = table[2, 1] = 500.0
        table[1, 3] = table[3, 1] = 500.0
        table[2, 3] = table[3, 2] = 500.0
        world = make_world(table, depot_cells=[1, 2, 3], hospital_cells=[0])
        s = sim.Simulator(world, chain_of([(0.0, 0)], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1, 2: 2})
        rid = None

        class Probe:
            def on_event(self, simulator, ev):
                nonlocal rid
                if ev.kind == "incident":
                    busy = [i for i, r in simulator.responders.items() if not r.available]
                    rid = busy[0]

        s.controller = Probe()
        res = s.run()
        assert res.response_log == [(0, 0.0, 120.0)]
        assert rid == 1  # responder stationed at cell 2

    def test_all_busy_queues(self):
        world = make_world(uniform_table(2, 60.0), depot_cells=[0], hospital_cells=[1])
        chain = chain_of([(0.0, 1), (1.0, 1)], 7200)
        s = sim.Simulator(world, chain, sim.SimConfig(),
                          n_responders=len(world.depots))
        qlen = []

        class Probe:
            def on_event(self, simulator, ev):
                if ev.kind == "incident":
                    qlen.append(len(simulator.queue))

        s.controller = Probe()
        s.run()
        assert qlen == [0, 1]


class TestRelease:
    def test_returns_to_depot_when_queue_empty(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        s = sim.Simulator(world, chain_of([(0.0, 1)], 3600), sim.SimConfig(),
                          n_responders=len(world.depots))
        tracks = []

        class Probe:
            def on_event(self, simulator, ev):
                if ev.kind == "release":
                    tracks.append(simulator.responders[0].track)

        s.controller = Probe()
        s.run()
        (track,) = tracks
        # release at 0+100+1200+100 = 1400; travel hospital->depot 100 s
        assert track.origin == 2 and track.destination == 0
        assert track.depart_t == 1400.0 and track.arrive_t == 1500.0

    def test_queue_head_counts_from_report(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        chain = chain_of([(0.0, 1), (10.0, 1)], 7200)
        res = sim.Simulator(world, chain, sim.SimConfig(),
                            n_responders=len(world.depots)).run()
        # first: response 100, release at 1400; second dispatched from hospital
        # cell 2 at 1400, scene arrival 1500, response 1500-10
        assert res.response_log[0] == (0, 0.0, 100.0)
        assert res.response_log[1] == (1, 10.0, 1490.0)

    def test_fifo_order(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        chain = chain_of([(0.0, 1), (5.0, 2), (6.0, 1)], 7200)
        res = sim.Simulator(world, chain, sim.SimConfig(),
                            n_responders=len(world.depots)).run()
        assert [iid for iid, _, _ in res.response_log] == [0, 1, 2]


class TestRunEpisode:
    def test_empty_chain(self):
        world = make_world(uniform_table(2, 100.0), depot_cells=[0], hospital_cells=[1])
        res = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                            n_responders=len(world.depots)).run()
        assert res.response_log == []
        assert res.mean_response_s is None

    def test_two_separated_incidents(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        chain = chain_of([(100.0, 1), (50_000.0, 1)], 100_000)
        res = sim.Simulator(world, chain, sim.SimConfig(),
                            n_responders=len(world.depots)).run()
        assert [resp for _, _, resp in res.response_log] == [100.0, 100.0]

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(11)
        table = rng.uniform(30, 900, (5, 5))
        np.fill_diagonal(table, 0)
        world = make_world(table, depot_cells=[0, 3], hospital_cells=[4],
                           rates_vec=[rng.uniform(0, 1, 5)])
        chain = sim.sample_chain(world.rates, 2 * 24 * 3600, seed=21)
        a = sim.Simulator(world, chain, sim.SimConfig(),
                          n_responders=len(world.depots)).run()
        b = sim.Simulator(world, chain, sim.SimConfig(),
                          n_responders=len(world.depots)).run()
        assert a.response_log == b.response_log

    def test_conservation_and_invariants(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(3, 7))
            table = rng.uniform(30, 600, (n, n))
            np.fill_diagonal(table, 0)
            depot_cells = list(rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
            world = make_world(table, depot_cells=[int(c) for c in depot_cells],
                               hospital_cells=[int(rng.integers(0, n))],
                               rates_vec=[rng.uniform(0.2, 2.0, n)])
            chain = sim.sample_chain(world.rates, 24 * 3600, seed=trial)
            res = sim.Simulator(world, chain, sim.SimConfig(),
                                n_responders=len(world.depots)).run()
            assert len(res.response_log) == len(chain.incidents)
            assert all(resp >= 0 for _, _, resp in res.response_log)
            logged = sorted(iid for iid, _, _ in res.response_log)
            assert logged == list(range(len(chain.incidents)))


def on_track(track):
    return sim.ResponderState(0, 0, 0, track)


class TestEtaRule:
    def test_stationary(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        track = sim.LocationTrack.at(1, 0.0)
        cell, eta = sim.eta_to_cell(on_track(track), 2, 50.0, world)
        assert (cell, eta) == (1, 100.0)

    def test_first_half_discounts_elapsed(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        track = sim.LocationTrack(0, 1, 0.0, 100.0)
        cell, eta = sim.eta_to_cell(on_track(track), 2, 30.0, world)
        assert cell == 0
        assert eta == pytest.approx(70.0)

    def test_second_half_commits_to_destination(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0], hospital_cells=[2])
        track = sim.LocationTrack(0, 1, 0.0, 100.0)
        cell, eta = sim.eta_to_cell(on_track(track), 2, 80.0, world)
        assert cell == 1
        assert eta == pytest.approx(20.0 + 100.0)

    def test_clamped_at_zero(self):
        table = uniform_table(3, 100.0)
        table[0, 2] = table[2, 0] = 10.0
        world = make_world(table, depot_cells=[0], hospital_cells=[2])
        track = sim.LocationTrack(0, 1, 0.0, 100.0)
        _, eta = sim.eta_to_cell(on_track(track), 2, 40.0, world)
        assert eta == 0.0


class TestReallocation:
    def test_available_responder_reroutes_immediately(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0, 2], hospital_cells=[1])
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0})
        s.apply_depot_moves({0: 1})
        r = s.responders[0]
        assert r.depot == 1
        assert r.track.destination == world.depots[1].cell
        assert r.track.arrive_t == 100.0

    def test_busy_responder_defers_move(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0, 2], hospital_cells=[1])
        chain = chain_of([(0.0, 1)], 3600)
        s = sim.Simulator(world, chain, sim.SimConfig(), initial_assignment={0: 0})
        moved = []

        class Probe:
            def on_event(self, simulator, ev):
                if ev.kind == "incident":
                    simulator.apply_depot_moves({0: 1})
                    moved.append(simulator.responders[0].track.destination)
                if ev.kind == "release":
                    moved.append(simulator.responders[0].track.origin)

        s.controller = Probe()
        s.run()
        # when dispatched the track heads to the scene, not the new depot
        assert moved[0] == 1  # scene cell, not depot cell 2
        r = s.responders[0]
        assert r.depot == 1

    def test_capacity_violation_caught(self):
        world = make_world(uniform_table(3, 100.0), depot_cells=[0, 2], hospital_cells=[1])
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1})
        with pytest.raises(sim.SimLogicError):
            s.apply_depot_moves({0: 1})

    def test_region_move_takes_the_depot_region_and_reroutes(self):
        world = two_region_world()
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1})
        assert s.apply_region_moves({1: 3}) == {0, 1}
        r = s.responders[1]
        assert (r.region, r.depot) == (1, 3)
        assert r.track.destination == world.depots[3].cell
        assert s.region_counts() == {0: 1, 1: 1}

    def test_region_move_onto_a_held_depot_caught(self):
        world = two_region_world()
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 2})
        with pytest.raises(sim.SimLogicError):
            s.apply_region_moves({0: 2})


def test_fleet_must_be_explicit():
    world = make_world(uniform_table(3, 100.0), depot_cells=[0, 2], hospital_cells=[1])
    with pytest.raises(ValueError, match="initial_assignment or n_responders"):
        sim.Simulator(world, chain_of([], 3600), sim.SimConfig())
    s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(), n_responders=1)
    assert len(s.responders) == 1


# --- the fleet split between regions ----------------------------------------------

def frozen_default_initial_assignment(world, n_responders):
    """default_initial_assignment as it was before region_shares owned the
    split between regions."""
    caps = world.region_caps()
    region_ids = sorted(caps)
    rates = world.region_rates(0.0)
    rates0 = np.array([rates[g] for g in region_ids])
    p = rates0 / rates0.sum() if rates0.sum() > 0 else np.ones(len(region_ids)) / len(region_ids)
    counts = optim.greedy_redistribute(p, n_responders, [caps[g] for g in region_ids])
    assignment = {}
    rid = 0
    for g, count in zip(region_ids, counts):
        for depot in world.seg.region_depots(g)[: int(count)]:
            assignment[rid] = depot
            rid += 1
    return assignment


def fuzzed_worlds():
    """Generated cities of 1-4 regions, a rate-free city, and two-region
    worlds whose cells are often rate-free, so that a region may have no
    demand."""
    rng = np.random.default_rng(23)
    for seed in range(30):
        nx, ny = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        n_depots = int(rng.integers(1, min(nx * ny - 1, 12) + 1))
        yield harness.generate_scenario(harness.ScenarioParams(
            nx=nx, ny=ny, n_depots=n_depots, n_hospitals=1,
            n_regions=int(rng.integers(1, min(n_depots, 4) + 1)),
            n_hotspots=int(rng.integers(1, 4))), seed)
    yield two_region_world(rates_by_bucket=[[0.0] * 6])
    for _ in range(30):
        rates = rng.uniform(0.0, 1.0, 6) * (rng.random(6) < 0.5)
        yield two_region_world(rates_by_bucket=[rates])


class TestRegionShares:
    @pytest.mark.parametrize("worlds", [
        pytest.param(fuzzed_worlds, id="fuzzed"),
        pytest.param(lambda: [bench_city("default"), bench_city("metro")], id="bench"),
    ])
    def test_default_assignment_unchanged_at_every_fleet(self, worlds):
        for world in worlds():
            for n in range(1, len(world.depots) + 1):
                want = frozen_default_initial_assignment(world, n)
                assert sim.default_initial_assignment(world, n) == want
                counts = {g: 0 for g in world.seg.region_ids}
                for depot in want.values():
                    counts[world.seg.depot_regions[depot]] += 1
                assert sim.region_shares(world, n) == counts

    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_monotone_in_the_fleet_in_every_bucket(self, name):
        world = bench_city(name)
        for b in range(world.rates.n_buckets):
            t = b * world.rates.bucket_duration_s
            prev = sim.region_shares(world, 1, t)
            for n in range(2, len(world.depots) + 1):
                shares = sim.region_shares(world, n, t)
                assert all(shares[g] >= prev[g] for g in shares), (b, n, prev, shares)
                prev = shares

    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_training_fleets_center_on_the_default_share(self, name):
        # the fleets agents.sample_fleet draws around the default, each equally likely
        world = bench_city(name)
        center = harness.resolve_fleet(world, None)
        fleets = [max(1, min(center + k, len(world.depots))) for k in range(-3, 4)]
        at_center = sim.region_shares(world, center)
        for g in world.seg.region_ids:
            median = float(np.median([sim.region_shares(world, n)[g] for n in fleets]))
            assert median == at_center[g], (g, fleets)

    def test_shares_follow_the_rate_bucket(self):
        world = two_region_world(rates_by_bucket=[[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1.0]])
        assert sim.region_shares(world, 2) == {0: 2, 1: 0}
        assert sim.region_shares(world, 2, t=3600.0) == {0: 0, 1: 2}


# --- dispatch against the two-pass rule it replaced --------------------------------

def frozen_eta(resp, cell, t, world):
    """eta_to_cell for one target cell, over the checked travel_time."""
    travel, track = world.travel, resp.track
    if resp.t_avail is not None:
        h_cell = world.hospitals[resp.hospital].cell
        return h_cell, (resp.t_avail - t) + travel.travel_time(h_cell, cell, resp.t_avail)
    if t <= track.depart_t or track.stationary:
        return track.origin, travel.travel_time(track.origin, cell, t)
    if t >= track.arrive_t:
        return track.destination, travel.travel_time(track.destination, cell, t)
    elapsed = t - track.depart_t
    if elapsed < (track.arrive_t - track.depart_t) / 2:
        return track.origin, max(travel.travel_time(track.origin, cell, t) - elapsed, 0.0)
    onward = travel.travel_time(track.destination, cell, track.arrive_t)
    return track.destination, (track.arrive_t - t) + onward


def frozen_dispatch(s, incident):
    """Dispatch as two passes: min over the sorted free ids by ETA, the
    winner's ETA again, then nearest_hospital and travel_time. Returns
    (responder, start cell, response, t_avail, hospital), or None to queue."""
    world = s.world
    free = [rid for rid in sorted(s.responders) if s.responders[rid].available]
    if not free:
        return None
    best = min(free, key=lambda rid: frozen_eta(s.responders[rid], incident.cell, s.now, world)[1])
    start, eta = frozen_eta(s.responders[best], incident.cell, s.now, world)
    depart = s.now + eta + s.cfg.t_serve_s
    hospital = world.nearest_hospital(incident.cell, depart)
    t_avail = depart + world.travel.travel_time(incident.cell, world.hospitals[hospital].cell,
                                                depart)
    return best, start, s.now + eta - incident.report_t, t_avail, hospital


BUCKET_S = 900  # four travel buckets per hour, so legs and services cross them


def dispatch_world(rng, n=7, n_hospitals=3):
    """Travel times in whole minutes (many exact ties) that change every
    BUCKET_S, and hospitals whose nearest one changes with the bucket."""
    tables = 60.0 * rng.integers(1, 6, size=(4, n, n))
    for table in tables:
        np.fill_diagonal(table, 0.0)
    cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
    grid = geo.Grid(cells, 1.0, (0.0, 0.0, float(n), 1.0))
    depots = {i: geo.Depot(i, i) for i in range(n)}
    hospitals = {h: geo.Hospital(h, int(c))
                 for h, c in enumerate(rng.choice(n, n_hospitals, replace=False))}
    return geo.ScenarioWorld(grid, depots, hospitals, geo.TravelModel(BUCKET_S, tables),
                             geo.RateModel(3600, np.ones((1, n))), geo.single_region(grid, depots))


def random_state(rng, s, kinds):
    """Give responder k the state kinds[k] at s.now (a multiple of BUCKET_S
    or not): busy, stationary, departing now, first half, second half with
    arrival in the next travel bucket, or arrived."""
    world, now, n = s.world, s.now, s.world.grid.n_cells
    for rid, kind in zip(sorted(s.responders), kinds):
        r = s.responders[rid]
        r.incident = r.hospital = r.t_avail = None
        o, d = (int(c) for c in rng.choice(n, 2, replace=False))
        if kind == "busy":
            r.incident, r.hospital = d, int(rng.choice(sorted(world.hospitals)))
            r.t_avail = now + float(rng.choice([1.0, 60.0, BUCKET_S - now % BUCKET_S]))
            r.track = sim.LocationTrack(o, d, now - 60.0, now)
        elif kind == "stationary":
            r.track = sim.LocationTrack.at(o, now - float(rng.integers(0, 600)))
        elif kind == "departing":
            r.track = sim.LocationTrack(o, d, now, now + 300.0)
        elif kind == "first_half":
            r.track = sim.LocationTrack(o, d, now - 100.0, now + 300.0)
        elif kind == "second_half":
            nxt = (now // BUCKET_S + 1) * BUCKET_S
            r.track = sim.LocationTrack(o, d, now - 400.0, nxt + 50.0)
        else:
            r.track = sim.LocationTrack(o, d, now - 400.0, now - 100.0)


STATE_KINDS = ("busy", "stationary", "departing", "first_half", "second_half", "arrived")


class TestOnePassDispatch:
    def test_matches_the_two_pass_rule_on_random_states(self):
        rng = np.random.default_rng(31)
        seen = {"tie": 0, "queued": 0, "boundary": 0}
        for trial in range(600):
            world = dispatch_world(rng)
            s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                              n_responders=len(world.depots))
            s.now = float(BUCKET_S * rng.integers(0, 8)) + (0.0 if trial % 2 else 250.0)
            seen["boundary"] += s.now % BUCKET_S == 0
            if trial % 50 == 0:
                kinds = ["busy"] * len(s.responders)
            else:
                kinds = list(rng.choice(STATE_KINDS, len(s.responders)))
            random_state(rng, s, kinds)
            incident = sim.Incident(0, int(rng.integers(0, world.grid.n_cells)),
                                    s.now - float(rng.integers(0, 120)))
            etas = [frozen_eta(r, incident.cell, s.now, world)[1]
                    for r in s.responders.values() if r.available]
            seen["tie"] += len(etas) > 1 and etas.count(min(etas)) > 1
            want = frozen_dispatch(s, incident)
            got = s.dispatch(incident)
            if want is None:
                seen["queued"] += 1
                assert got is None and list(s.queue) == [incident] and not s.response_log
                continue
            rid, start, response, t_avail, hospital = want
            r = s.responders[rid]
            assert got == rid
            (iid, report_t, logged), = s.response_log
            assert type(logged) is float and type(r.t_avail) is float
            assert (iid, report_t, logged.hex()) == (0, incident.report_t, response.hex())
            assert r.t_avail.hex() == t_avail.hex()
            assert (r.hospital, r.incident, r.track.origin) == (hospital, incident.cell, start)
        assert seen["tie"] > 100 and seen["queued"] >= 10 and seen["boundary"] >= 290

    def test_an_exact_tie_goes_to_the_lowest_id(self):
        table = np.full((3, 3), 120.0)
        np.fill_diagonal(table, 0.0)
        world = make_world(table, depot_cells=[0, 1, 2], hospital_cells=[0])
        # the responder on cell 0 is busy; the other two are both 120 s from it
        for ids in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                              initial_assignment=dict(zip(ids, [0, 1, 2])))
            busy = s.responders[ids[0]]
            busy.incident, busy.hospital, busy.t_avail = 0, 0, 5000.0
            assert s.dispatch(sim.Incident(0, 0, 0.0)) == min(ids[1:])

    def test_responders_stay_in_ascending_id_order(self):
        world = two_region_world()
        chain = sim.sample_chain(geo.RateModel(3600, np.full((1, 6), 3.0)), 6 * 3600.0, 5)
        orders = []

        class Mover:
            """Moves a free responder across regions at every event."""
            def on_event(self, simulator, ev):
                held = {r.depot for r in simulator.responders.values()}
                for rid, r in simulator.responders.items():
                    free = [d for d in world.depot_ids
                            if d not in held and world.seg.depot_regions[d] != r.region]
                    if free:
                        simulator.apply_region_moves({rid: free[0]})
                        break
                orders.append(list(simulator.responders))

        s = sim.Simulator(world, chain, sim.SimConfig(), Mover(),
                          initial_assignment={3: 0, 1: 2, 2: 3})
        s.run()
        assert len(orders) > 20
        assert all(order == [1, 2, 3] for order in orders)
