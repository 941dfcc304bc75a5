import numpy as np
import pytest
from conftest import make_world, uniform_table
from hypothesis import given, settings
from hypothesis import strategies as st

from ermrl import features, geo, sim


def idle_responder(world, depot_id, t=0.0):
    cell = world.depots[depot_id].cell
    return sim.ResponderState(0, depot_id, world.seg.depot_regions[depot_id],
                              sim.LocationTrack.at(cell, t))


def reference_arrival_time(resp, depot_id, t, world):
    """The per-pair rule that features.arrival_times replaced, over the
    checked travel_time: busy responders finish their run, available ones
    pay the midpoint rule."""
    travel, track = world.travel, resp.track
    target = world.depots[depot_id].cell
    if resp.t_avail is not None:
        h_cell = world.hospitals[resp.hospital].cell
        return (resp.t_avail - t) + travel.travel_time(h_cell, target, resp.t_avail)
    if t <= track.depart_t or track.stationary:
        return travel.travel_time(track.origin, target, t)
    if t >= track.arrive_t:
        return travel.travel_time(track.destination, target, t)
    elapsed = t - track.depart_t
    if elapsed < (track.arrive_t - track.depart_t) / 2:
        return max(travel.travel_time(track.origin, target, t) - elapsed, 0.0)
    onward = travel.travel_time(track.destination, target, track.arrive_t)
    return (track.arrive_t - t) + onward


def arrival(resp, depot_id, t, world):
    return features.arrival_times([resp], [depot_id], t, world)[0, 0]


KINDS = ("stationary", "first_half", "second_half", "arrived", "clamped", "busy")


@st.composite
def arrival_cases(draw):
    """A small world (travel times up to 500 s, one or two one-hour buckets,
    integer entries for exact ties) and responders of every kind. Clamped
    legs spend at least 700 s before their midpoint, so the origin's time
    to any cell is used up."""
    n = draw(st.integers(2, 6))
    n_buckets = draw(st.integers(1, 2))
    entry = st.one_of(st.integers(0, 500).map(float), st.floats(0.0, 500.0))
    tables = np.array(draw(st.lists(entry, min_size=n_buckets * n * n,
                                    max_size=n_buckets * n * n))).reshape(n_buckets, n, n)
    for table in tables:
        np.fill_diagonal(table, 0.0)
    cell = st.integers(0, n - 1)
    depot_cells = draw(st.lists(cell, min_size=1, max_size=n, unique=True))
    hospital_cells = draw(st.lists(cell, min_size=1, max_size=2))
    grid = geo.Grid(tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n)), 1.0,
                    (0.0, 0.0, float(n), 1.0))
    depots = {i: geo.Depot(i, c) for i, c in enumerate(depot_cells)}
    world = geo.ScenarioWorld(
        grid, depots, {i: geo.Hospital(i, c) for i, c in enumerate(hospital_cells)},
        geo.TravelModel(3600, tables), geo.RateModel(3600, np.zeros((1, n))),
        geo.single_region(grid, depots))
    t = draw(st.floats(0.0, 3 * 3600.0))
    responders = []
    for rid, kind in enumerate(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))):
        origin = draw(cell)
        dest = draw(cell.filter(lambda c, o=origin: c != o))
        dur = draw(st.floats(2000.0, 4000.0) if kind == "clamped" else st.floats(1.0, 3000.0))
        frac = {"first_half": st.floats(0.0, 0.49), "second_half": st.floats(0.5, 0.99),
                "arrived": st.floats(1.0, 2.0), "clamped": st.floats(0.35, 0.49),
                }.get(kind, st.just(0.5))
        depart = t - draw(frac) * dur
        track = (sim.LocationTrack.at(origin, t - draw(st.floats(0.0, 100.0)))
                 if kind == "stationary" else sim.LocationTrack(origin, dest, depart, depart + dur))
        resp = sim.ResponderState(rid, 0, 0, track)
        if kind == "busy":
            resp.incident = dest
            resp.hospital = draw(st.integers(0, len(hospital_cells) - 1))
            resp.t_avail = t + draw(st.floats(0.0, 5000.0))
        responders.append(resp)
    return world, responders, t


class TestArrivalTimesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrival_cases())
    def test_matches_per_pair_rule(self, case):
        world, responders, t = case
        got = features.arrival_times(responders, world.depot_ids, t, world)
        want = np.array([[reference_arrival_time(r, d, t, world) for d in world.depot_ids]
                         for r in responders])
        assert got.shape == (len(responders), len(world.depot_ids))
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(arrival_cases())
    def test_int_target_equals_one_element_array(self, case):
        world, responders, t = case
        for resp in responders:
            for c in range(world.grid.n_cells):
                cell, eta = sim.eta_to_cell(resp, c, t, world)
                cell_a, eta_a = sim.eta_to_cell(resp, np.array([c]), t, world)
                assert type(eta) is float
                assert (cell, eta) == (cell_a, eta_a[0])

    def test_empty_rows_and_columns(self):
        world = make_world(uniform_table(3, 100.0), [0, 1], [2])
        assert features.arrival_times([], [0, 1], 0.0, world).shape == (0, 2)
        r = idle_responder(world, 0)
        assert features.arrival_times([r], [], 0.0, world).shape == (1, 0)


class TestArrivalTime:
    def test_zero_when_stationary_at_depot(self):
        world = make_world(uniform_table(3, 200.0), [1], [2])
        r = idle_responder(world, 0)
        assert arrival(r, 0, 500.0, world) == 0.0

    def test_idle_at_other_cell(self):
        table = uniform_table(3, 999.0)
        table[2, 1] = table[1, 2] = 180.0
        world = make_world(table, [1], [0])
        r = idle_responder(world, 0)
        r.track = sim.LocationTrack.at(2, 0.0)
        assert arrival(r, 0, 0.0, world) == 180.0

    def test_busy_formula(self):
        table = uniform_table(3, 999.0)
        table[2, 1] = 250.0  # hospital cell 2 -> depot cell 1
        world = make_world(table, [1], [2])
        r = idle_responder(world, 0)
        r.incident = 0
        r.hospital = 0
        r.t_avail = 400.0
        assert arrival(r, 0, 100.0, world) == pytest.approx(550.0)

    def test_busy_lower_bound(self):
        rng = np.random.default_rng(0)
        table = rng.uniform(10, 500, (4, 4))
        np.fill_diagonal(table, 0)
        world = make_world(table, [1], [3])
        r = idle_responder(world, 0)
        r.incident = 2
        r.hospital = 0
        r.t_avail = 900.0
        for t in (0.0, 400.0, 899.0):
            assert arrival(r, 0, t, world) >= r.t_avail - t


def occupancy(phi, L):
    """Per-depot occupancy column of the critic features."""
    return features.critic_features(phi, np.zeros(L.shape[1]), L).reshape(-1, 3)[:, 0]


def weighted_arrival(phi, L):
    """Per-depot likelihood-weighted arrival column of the critic features."""
    return features.critic_features(phi, np.zeros(L.shape[1]), L).reshape(-1, 3)[:, 1]


class TestCriticFeatureParts:
    def test_occupancy_clips(self):
        L = np.array([[0.7, 0.3], [0.6, 0.4]])
        assert occupancy(np.zeros((2, 2)), L)[0] == 1.0
        assert occupancy(np.zeros((2, 2)), L)[1] == pytest.approx(0.7)
        empty = np.zeros((0, 2))
        assert occupancy(empty, empty)[0] == 0.0

    def test_occupancy_small_sum_passes_through(self):
        L = np.array([[0.4, 0.6]])
        assert occupancy(np.zeros((1, 2)), L)[0] == pytest.approx(0.4)

    def test_likely_available_time(self):
        phi = np.array([[300.0, 0.0]])
        L = np.array([[1.0, 0.0]])
        assert weighted_arrival(phi, L)[0] == pytest.approx(300.0)
        phi = np.array([[100.0, 1.0], [500.0, 1.0]])
        L = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert weighted_arrival(phi, L)[0] == pytest.approx(275.0)
        L = np.zeros((2, 2))
        assert weighted_arrival(phi, L)[1] == 0.0

    def test_occupancy_permutation_invariant(self):
        rng = np.random.default_rng(1)
        L = rng.dirichlet(np.ones(4), size=6)
        phi = rng.uniform(0, 2, (6, 4))
        lam = rng.uniform(0, 1, 4)
        base = features.critic_features(phi, lam, L)
        perm = rng.permutation(6)
        again = features.critic_features(phi[perm], lam, L[perm])
        assert np.allclose(base, again)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.1, 2.0, (3, 4))
        lam = rng.uniform(0, 1, 4)
        L = rng.dirichlet(np.ones(4), size=3)
        dfeat = rng.normal(size=12)
        analytic = features.critic_features_grad(phi, L, dfeat)
        eps = 1e-6
        for v in range(3):
            for d in range(4):
                up, down = L.copy(), L.copy()
                up[v, d] += eps
                down[v, d] -= eps
                num = ((features.critic_features(phi, lam, up)
                        - features.critic_features(phi, lam, down)) @ dfeat) / (2 * eps)
                assert analytic[v, d] == pytest.approx(num, abs=1e-6)


class TestRegionRate:
    def test_zero(self):
        world = make_world(uniform_table(3, 100.0), [0], [1])
        assert geo.region_rate(world.seg, world.rates, 0, 0.0) == 0.0

    def test_three_cell_sum(self):
        world = make_world(uniform_table(3, 100.0), [0], [1],
                           rates_vec=[[0.1, 0.2, 0.3]])
        assert geo.region_rate(world.seg, world.rates, 0, 0.0) == pytest.approx(0.6)

    def test_regions_sum_to_citywide(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(0, 2, 6)
        cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(6))
        grid = geo.Grid(cells, 1.0, (0.0, 0.0, 6.0, 1.0))
        seg = geo.Segmentation(
            region_cells={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})},
            depot_regions={0: 0, 1: 1},
        )
        rm = geo.RateModel(3600, rates.reshape(1, 6))
        total = sum(geo.region_rate(seg, rm, g, 0.0) for g in (0, 1))
        assert total == pytest.approx(rates.sum())


class TestObservationNoise:
    def test_zero_sigma_identity(self):
        x = np.array([1.0, 2.0, 0.0])
        rng = np.random.default_rng(4)
        out = features.apply_observation_noise(x, 0.0, rng)
        assert np.array_equal(out, x)
        # rng untouched: repeated call gives the same stream afterwards
        assert rng.integers(1000) == np.random.default_rng(4).integers(1000)

    def test_lognormal_median_one(self):
        rng = np.random.default_rng(5)
        x = np.ones(100_000)
        out = features.apply_observation_noise(x, 0.2, rng)
        assert np.median(out) == pytest.approx(1.0, rel=0.02)

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(6)
        x = np.abs(rng.normal(size=1000))
        out = features.apply_observation_noise(x, 0.3, rng)
        assert np.all(out >= 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            features.apply_observation_noise(np.ones(3), -0.1, np.random.default_rng(0))


class TestObservationAssembly:
    def test_region_observation_shapes_and_interleave(self):
        world = make_world(uniform_table(4, 100.0), [0, 2], [3],
                           rates_vec=[[0.5, 0.5, 1.0, 0.0]])
        s = sim.Simulator(world, sim.IncidentChain((), 3600, -1), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1})
        obs = features.region_observation(s.responders, 0, 0.0, world)
        assert obs.responder_ids == [0, 1]
        assert obs.depot_ids == [0, 1]
        af = obs.actor_features()
        assert af.shape == (2, 4)
        assert np.allclose(af[:, 0::2], obs.phi)
        assert np.allclose(af[0, 1::2], obs.lam)
        # both responders idle at their depots: phi diagonal zero
        assert obs.phi[0, 0] == 0.0 and obs.phi[1, 1] == 0.0

    def test_all_features_finite_random_states(self):
        rng = np.random.default_rng(7)
        world = make_world(uniform_table(5, 150.0), [0, 2, 4], [1],
                           rates_vec=[rng.uniform(0, 2, 5)])
        chain = sim.sample_chain(world.rates, 12 * 3600, seed=8)
        s = sim.Simulator(world, chain, sim.SimConfig(),
                          n_responders=len(world.depots))
        checked = []

        class Probe:
            def on_event(self, simulator, ev):
                obs = features.region_observation(simulator.responders, 0,
                                                  simulator.now, world)
                checked.append(np.all(np.isfinite(obs.actor_features())))

        s.controller = Probe()
        s.run()
        assert checked and all(checked)

    def test_hlp_observation_layout(self):
        obs = features.hlp_observation({0: 2.0, 1: 1.0}, {0: 3, 1: 1}, 4, 2.0)
        assert obs == pytest.approx([1.0, 0.75, 0.5, 0.25])
