import base64
import collections
import itertools
import json
import math

import numpy as np
import pytest
from conftest import BENCH_CITIES, bench_city

from ermrl import geo


def line_grid(n, spacing=1.0):
    cells = tuple(geo.Cell(i, (i * spacing + 0.5, 0.5)) for i in range(n))
    return geo.Grid(cells, 1.0, (0.0, 0.0, n * spacing, 1.0))


def uniform_rates(n_cells, rate=0.0, buckets=1, bucket_s=3600):
    return geo.RateModel(bucket_s, np.full((buckets, n_cells), rate))


def manual_travel(tables, bucket_s=3600):
    return geo.TravelModel(bucket_s, np.array(tables, dtype=float))


class TestTravelTime:
    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(10, 900, size=(1, 9, 9))
        m[0][np.diag_indices(9)] = 0.0
        tm = manual_travel(m)
        for c in range(9):
            assert tm.travel_time(c, c, 12345.0) == 0.0

    def test_direct_table_lookup(self):
        m = np.zeros((1, 8, 8))
        m[0, 3, 7] = 540.0
        tm = manual_travel(m)
        assert tm.travel_time(3, 7, 0.0) == 540.0

    def test_bucket_switch(self):
        # two one-hour buckets with distinct entries; period 7200 s divides a week
        m = np.zeros((2, 2, 2))
        m[0, 0, 1] = m[0, 1, 0] = 100.0
        m[1, 0, 1] = m[1, 1, 0] = 250.0
        tm = manual_travel(m)
        assert tm.travel_time(0, 1, 3599.9) == 100.0
        assert tm.travel_time(0, 1, 3600.0) == 250.0
        # cycles with its period
        assert tm.travel_time(0, 1, 7200.0) == 100.0

    def test_weekly_periodicity(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 1] = 10.0
        m[1, 0, 1] = 20.0
        tm = manual_travel(m)
        for t in (0.0, 4000.0, 123456.0):
            assert tm.travel_time(0, 1, t) == tm.travel_time(0, 1, t + geo.WEEK_S)

    def test_unknown_cell_rejected(self):
        tm = manual_travel(np.zeros((1, 3, 3)))
        with pytest.raises(geo.ScenarioError):
            tm.travel_time(0, 5, 0.0)

    def test_nonweekly_cycle_rejected(self):
        with pytest.raises(geo.ScenarioError):
            geo.TravelModel(5000, np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("value, message", [
        (np.nan, "finite and nonnegative"), (np.inf, "finite and nonnegative"),
        (-np.inf, "finite and nonnegative"), (-1.0, "finite and nonnegative"),
        ("diagonal", "diagonal must be zero")])
    def test_bad_entry_rejected(self, value, message):
        m = np.full((2, 3, 3), 60.0)
        m[:, np.arange(3), np.arange(3)] = 0.0
        if value == "diagonal":
            m[1, 2, 2] = 5.0
        else:
            m[1, 0, 2] = value
        with pytest.raises(geo.ScenarioError, match=message):
            manual_travel(m)

    def test_empty_table_accepted(self):
        assert manual_travel(np.zeros((1, 0, 0))).n_cells == 0

    @pytest.mark.parametrize("city", [
        {},
        {"nx": 25, "ny": 25, "n_depots": 36, "n_hospitals": 6, "n_regions": 5,
         "citywide_rate_per_hour": 6.0},
    ], ids=["default", "metro"])
    def test_generated_tables_match_the_stacked_reference(self, city):
        from ermrl.harness import ScenarioParams, generate_scenario
        params = ScenarioParams(**city)
        world = generate_scenario(params, 7)
        # frozen reference: one temporary table per bucket, stacked
        hours = np.arange(24)
        speed_mult = 1.0 - 0.3 * (np.exp(-((hours - 8) ** 2) / 4.0)
                                  + np.exp(-((hours - 17) ** 2) / 4.0))
        xy = world.grid.centroids()
        diff = xy[:, None, :] - xy[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        reference = np.stack([dist / (params.base_speed_mph * m) * 3600.0
                              for m in list(speed_mult)])
        assert np.array_equal(world.travel.matrices, reference)


BUCKETED = {"travel": lambda dur, n=4: geo.TravelModel(dur, np.zeros((n, 2, 2))),
            "rate": lambda dur, n=4: geo.RateModel(dur, np.zeros((n, 2)))}


class TestBucketDuration:
    @pytest.mark.parametrize("make", BUCKETED.values(), ids=BUCKETED.keys())
    @pytest.mark.parametrize("dur", [1.5, 0.5, 0, -3600, np.nan, np.inf, "3600", None])
    def test_not_a_positive_whole_number_of_seconds_rejected(self, make, dur):
        with pytest.raises(geo.ScenarioError, match="whole number of seconds"):
            make(dur)

    @pytest.mark.parametrize("make", BUCKETED.values(), ids=BUCKETED.keys())
    def test_no_buckets_rejected(self, make):
        with pytest.raises(geo.ScenarioError, match="divide one week"):
            make(3600, n=0)

    @pytest.mark.parametrize("make", BUCKETED.values(), ids=BUCKETED.keys())
    @pytest.mark.parametrize("dur", [3600.0, np.int64(3600), np.float64(3600.0)],
                             ids=["float", "int64", "float64"])
    def test_a_whole_number_of_any_type_is_kept_as_int(self, make, dur):
        model = make(dur)
        assert (model.bucket_duration_s, model.period_s) == (3600, 4 * 3600)
        assert type(model.bucket_duration_s) is int and type(model.period_s) is int
        assert [model.bucket_index(t) for t in (0.0, 3599.5, 3600.0, 4 * 3600.0 + 1)] \
            == [0, 0, 1, 0]

    def test_a_world_with_whole_float_durations_equals_the_int_one(self):
        tables = np.array([[[0.0, 60.0], [60.0, 0.0]]] * 2)
        worlds = [lcm_cycle_world(dur, tables, dur, [[1.0, 2.0], [0.5, 0.0]], [0, 1])
                  for dur in (3600, 3600.0)]
        assert worlds[0].rate_scale.hex() == worlds[1].rate_scale.hex()
        assert worlds[0].travel.travel_time(0, 1, 7199.0) == worlds[1].travel.travel_time(
            0, 1, 7199.0) == 60.0


class TestNearCells:
    def test_single_depot_gets_everything(self):
        grid = line_grid(5)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {0: geo.Depot(0, 2)}
        parts = geo.near_cells([0], depots, tm, 0.0)
        assert parts == {0: set(range(5))}

    def test_two_depot_line_matches_bruteforce(self):
        grid = line_grid(4)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 3)}
        parts = geo.near_cells([0, 1], depots, tm, 0.0)
        # brute-force argmin per cell
        expected = {0: set(), 1: set()}
        for c in range(4):
            times = {d: tm.travel_time(c, depots[d].cell, 0.0) for d in (0, 1)}
            winner = min(times, key=lambda d: (times[d], d))
            expected[winner].add(c)
        assert parts == expected

    def test_equidistant_tie_goes_to_lower_id(self):
        grid = line_grid(3)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {4: geo.Depot(4, 0), 7: geo.Depot(7, 2)}
        parts = geo.near_cells([7, 4], depots, tm, 0.0)
        assert 1 in parts[4]  # middle cell equidistant

    def test_partition_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            grid = line_grid(n, spacing=float(rng.uniform(0.5, 2.0)))
            tables = rng.uniform(0, 600, size=(2, n, n))
            for b in range(2):
                tables[b][np.diag_indices(n)] = 0
            tm = geo.TravelModel(3600, tables)
            k = int(rng.integers(1, n + 1))
            cells = rng.choice(n, size=k, replace=False)
            depots = {i: geo.Depot(i, int(c)) for i, c in enumerate(cells)}
            t = float(rng.uniform(0, 3 * 3600))
            parts = geo.near_cells(sorted(depots), depots, tm, t)
            union = set()
            for s in parts.values():
                assert not (union & s)
                union |= s
            assert union == set(range(n))


class TestNearbyRates:
    def test_zero_rates(self):
        grid = line_grid(3)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {0: geo.Depot(0, 1)}
        lam = geo.nearby_rates([0], depots, tm, uniform_rates(3, 0.0), 0.0)
        assert lam[0] == 0.0

    def test_single_depot_sums_all(self):
        grid = line_grid(3)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {0: geo.Depot(0, 0)}
        rm = geo.RateModel(3600, np.array([[0.1, 0.2, 0.3]]))
        lam = geo.nearby_rates([0], depots, tm, rm, 0.0)
        assert lam[0] == pytest.approx(0.6)

    def test_rates_near_other_depot(self):
        grid = line_grid(4)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0] * 168)
        depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 3)}
        rm = geo.RateModel(3600, np.array([[0.0, 0.0, 0.5, 0.5]]))
        parts = geo.near_cells([0, 1], depots, tm, 0.0)
        assert {2, 3} <= parts[1]
        lam = geo.nearby_rates([0, 1], depots, tm, rm, 0.0)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(1.0)


def frozen_near_cells(depot_ids, depots, travel, t):
    """near_cells as it was, iterating numpy scalars."""
    ids = sorted(depot_ids)
    table = travel.matrices[travel.bucket_index(t)]
    cols = np.column_stack([table[:, depots[d].cell] for d in ids])
    winners = cols.argmin(axis=1)
    out = {d: set() for d in ids}
    for c, w in enumerate(winners):
        out[ids[int(w)]].add(c)
    return out


def frozen_nearby_rates(depot_ids, depots, travel, rates, t):
    """nearby_rates as it was, summing numpy scalars."""
    parts = frozen_near_cells(depot_ids, depots, travel, t)
    rate_vec = rates.rates_at(t)
    return {d: float(sum(rate_vec[c] for c in cells)) for d, cells in parts.items()}


@pytest.mark.parametrize("name", ["default", "metro"])
def test_projection_matches_the_scalar_loops_on_bench_cities(name):
    """Same sets in the same order, and the same bits in every sum and in
    rate_scale, at every (travel bucket, rate bucket) boundary."""
    world = bench_city(name)
    travel, rates = world.travel, world.rates
    period = math.lcm(travel.period_s, rates.period_s)
    times = sorted(set(range(0, period, travel.bucket_duration_s))
                   | set(range(0, period, rates.bucket_duration_s)))
    best = 0.0
    for t in times:
        args = (world.depot_ids, world.depots, travel)
        parts, want = geo.near_cells(*args, t), frozen_near_cells(*args, t)
        assert [list(parts[d]) for d in parts] == [list(want[d]) for d in want]
        lam, ref = geo.nearby_rates(*args, rates, t), frozen_nearby_rates(*args, rates, t)
        assert [(d, v.hex()) for d, v in lam.items()] == [(d, v.hex()) for d, v in ref.items()]
        best = max(best, *ref.values())
    assert world.rate_scale.hex() == best.hex()


def lcm_cycle_world(travel_bucket_s, travel_tables, rate_bucket_s, rate_rows, depot_cells,
                    rate_scale=0.0):
    n = len(rate_rows[0])
    grid = line_grid(n)
    depots = {i: geo.Depot(i, c) for i, c in enumerate(depot_cells)}
    return geo.ScenarioWorld(grid, depots, {0: geo.Hospital(0, 0)},
                             manual_travel(travel_tables, travel_bucket_s),
                             geo.RateModel(rate_bucket_s, np.array(rate_rows, dtype=float)),
                             geo.single_region(grid, depots), rate_scale)


class TestNearbyRateTable:
    def random_world(self, rate_scale=0.0):
        # 7 travel buckets of 12 h (a 3.5-day cycle) against 3 rate buckets of
        # 8 h (a 1-day cycle): boundaries interleave and the pairs repeat weekly
        rng = np.random.default_rng(4)
        tables = rng.uniform(0, 900, size=(7, 6, 6))
        for b in range(7):
            tables[b][np.diag_indices(6)] = 0.0
        return lcm_cycle_world(12 * 3600, tables, 8 * 3600,
                               rng.uniform(0, 2, size=(3, 6)), [0, 2, 5], rate_scale)

    def test_equals_a_fresh_lookup_at_every_boundary(self):
        world = self.random_world()
        times = sorted(set(range(0, geo.WEEK_S, 12 * 3600)) | set(range(0, geo.WEEK_S, 8 * 3600)))
        assert len(times) == 14 + 21 - 7
        for t in times:
            for s in (t, t + 3599.5):
                fresh = geo.nearby_rates(world.depot_ids, world.depots, world.travel,
                                         world.rates, s)
                assert dict(world.nearby_rates_at(s)) == fresh

    def test_one_computation_per_bucket_pair(self, monkeypatch):
        calls = []
        real = geo.nearby_rates
        monkeypatch.setattr(geo, "nearby_rates", lambda *a: calls.append(a[-1]) or real(*a))
        world = self.random_world(rate_scale=1.0)  # given, so nothing is derived
        assert calls == []
        for t in range(0, 2 * geo.WEEK_S, 1800):
            world.nearby_rates_at(float(t))
        pairs = [(world.travel.bucket_index(t), world.rates.bucket_index(t)) for t in calls]
        assert len(pairs) == len(set(pairs)) == 21
        calls.clear()
        self.random_world()  # deriving rate_scale visits every pair once
        assert len(calls) == 21

    def test_callers_cannot_change_later_lookups(self):
        world = self.random_world()
        lam = world.nearby_rates_at(0.0)
        before = dict(lam)
        with pytest.raises(TypeError):
            lam[0] = 99.0
        with pytest.raises(TypeError):
            del lam[0]
        copy = dict(lam)
        copy[0] = 99.0
        assert dict(world.nearby_rates_at(0.0)) == before

    def test_rate_scale_covers_the_whole_cycle(self):
        # travel bucket 0 sends both cells to depot 0; it meets rate bucket 1,
        # where both cells are busy, only in the second half of the week
        zero = np.zeros((2, 2))
        apart = np.array([[0.0, 1.0], [1.0, 0.0]])
        world = lcm_cycle_world(12 * 3600, [zero] + [apart] * 6, 12 * 3600,
                                [[1.0, 0.0], [1.0, 1.0]], [0, 1])
        assert world.rate_scale == 2.0
        assert world.nearby_rates_at(84 * 3600.0)[0] == 2.0


def stored(world, kind):
    """The keys, kind dropped, under which world's store holds tables of that kind."""
    return [key[1:] for key in world._tables if key[0] == kind]


def fresh_region_tables(world, g, t):
    lam = geo.nearby_rates(world.depot_ids, world.depots, world.travel, world.rates, t)
    return (np.array([world.depots[d].cell for d in world.region_depots(g)], dtype=int),
            np.array([lam[d] for d in world.region_depots(g)]) / world.rate_scale)


def assert_region_tables_fresh(world, times):
    for t in times:
        for g in world.seg.region_ids:
            cells, lam = fresh_region_tables(world, g, t)
            got_cells, got_lam = world.region_depot_cells(g), world.scaled_nearby_rates(g, t)
            assert got_cells.dtype == cells.dtype and np.array_equal(got_cells, cells)
            assert got_lam.dtype == lam.dtype and got_lam.tobytes() == lam.tobytes(), (t, g)


class TestRegionTables:
    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_equal_a_fresh_computation_at_every_bucket_pair(self, name):
        world = bench_city(name)
        travel, rates = world.travel, world.rates
        period = math.lcm(travel.period_s, rates.period_s)
        times = sorted(set(range(0, period, travel.bucket_duration_s))
                       | set(range(0, period, rates.bucket_duration_s)))
        pairs = {(travel.bucket_index(t), rates.bucket_index(t)) for t in times}
        assert len(pairs) == travel.matrices.shape[0] == 24
        # at each boundary, then just before the next one, then a cycle later
        assert_region_tables_fresh(world, [s for t in times
                                           for s in (t, t + 3599.5, t + period)])

    def test_follow_both_buckets_where_their_cycles_interleave(self):
        world = TestNearbyRateTable().random_world()
        times = sorted(set(range(0, geo.WEEK_S, 12 * 3600)) | set(range(0, geo.WEEK_S, 8 * 3600)))
        assert_region_tables_fresh(world, [s for t in times for s in (t, t + 3599.5)])
        assert len(stored(world, "scaled")) == 21

    def test_read_only_and_built_on_first_use(self):
        # depot cells are built with the world; scaled rates wait for their first lookup
        world = geo.world_from_json(geo.world_to_json(bench_city("default")))
        regions = world.seg.region_ids
        assert sorted(world._tables) == [("cells", g) for g in regions]
        for h in regions:
            with pytest.raises(ValueError):
                world.region_depot_cells(h)[0] = 0
        g = regions[-1]
        cells, lam = world.region_depot_cells(g), world.scaled_nearby_rates(g, 7200.0)
        assert world.region_depot_cells(g) is cells
        assert world.scaled_nearby_rates(g, 7200.0 + 1800.0) is lam
        assert stored(world, "scaled") == [(2, 0, g)] and stored(world, "nearby") == [(2, 0)]
        assert len(world._tables) == len(regions) + 2
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            lam *= 2.0


class TestTableStore:
    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_does_not_grow_with_time(self, name):
        world = bench_city(name)
        travel, rates, regions = world.travel, world.rates, world.seg.region_ids
        period = math.lcm(travel.period_s, rates.period_s)
        step = min(travel.bucket_duration_s, rates.bucket_duration_s) / 2
        pairs = set()
        for t in np.arange(0.0, 2 * period, step).tolist():  # two combined cycles
            pairs.add((travel.bucket_index(t), rates.bucket_index(t)))
            world.nearby_rates_at(t)
            world.region_rates(t)
            world.hospital_table(travel.bucket_index(t))
            world.nearest_hospital(0, t)
            for g in regions:
                world.region_depot_cells(g)
                world.scaled_nearby_rates(g, t)
        assert len(pairs) == 24
        kinds = collections.Counter(key[0] for key in world._tables)
        assert kinds == {"cells": len(regions), "nearby": 24, "scaled": 24 * len(regions),
                         "region": rates.n_buckets, "hospital": travel.matrices.shape[0]}
        assert set(stored(world, "nearby")) == pairs


def scan_nearest_hospital(world, cell, t):
    """The hospital rule as a scan: fastest by travel_time, ties to the lowest id."""
    best, best_t = None, None
    for h in sorted(world.hospitals):
        tt = world.travel.travel_time(cell, world.hospitals[h].cell, t)
        if best_t is None or tt < best_t:
            best, best_t = h, tt
    return best, best_t


def hospital_world(tables, hospitals):
    n = len(tables[0])
    grid = line_grid(n)
    depots = {0: geo.Depot(0, 0)}
    return geo.ScenarioWorld(grid, depots, hospitals, manual_travel(tables),
                             uniform_rates(n), geo.single_region(grid, depots))


class TestHospitalTable:
    @pytest.mark.parametrize("name", sorted(BENCH_CITIES))
    def test_equals_the_scan_at_every_bucket_and_cell(self, name):
        world = bench_city(name)
        travel = world.travel
        for b in range(travel.matrices.shape[0]):
            ids, cells, times = world.hospital_table(b)
            for t in (b * travel.bucket_duration_s, (b + 0.5) * travel.bucket_duration_s):
                for c in range(world.grid.n_cells):
                    h, tt = scan_nearest_hospital(world, c, t)
                    assert (ids[c], cells[c], times[c]) == (h, world.hospitals[h].cell, tt)
                    assert world.nearest_hospital(c, t) == h

    def test_a_tie_goes_to_the_lowest_id(self):
        # cell 1 lies 60 s from both hospitals; the dict lists id 1 first
        table = [[0.0, 60.0, 120.0], [60.0, 0.0, 60.0], [120.0, 60.0, 0.0]]
        world = hospital_world([table], {1: geo.Hospital(1, 0), 0: geo.Hospital(0, 2)})
        assert world.nearest_hospital(1, 0.0) == 0
        assert world.hospital_table(0) == ([1, 0, 0], [0, 2, 2], [0.0, 60.0, 0.0])

    def test_bucket_boundaries(self):
        # cell 1 is nearer hospital 0 (cell 0) in bucket 0, hospital 1 (cell 2) in bucket 1
        near_0 = [[0.0, 50.0, 90.0], [50.0, 0.0, 70.0], [90.0, 70.0, 0.0]]
        near_2 = [[0.0, 70.0, 90.0], [70.0, 0.0, 50.0], [90.0, 50.0, 0.0]]
        world = hospital_world([near_0, near_2], {0: geo.Hospital(0, 0), 1: geo.Hospital(1, 2)})
        for t, expected in ((0.0, 0), (np.nextafter(3600.0, 0.0), 0), (3600.0, 1),
                            (np.nextafter(7200.0, 0.0), 1), (7200.0, 0)):
            assert world.nearest_hospital(1, float(t)) == expected == scan_nearest_hospital(
                world, 1, float(t))[0]

    def test_rejects_an_unknown_cell_or_negative_time(self):
        world = hospital_world([[[0.0, 1.0], [1.0, 0.0]]], {0: geo.Hospital(0, 0)})
        for cell, t in ((2, 0.0), (-1, 0.0), (0, -1.0)):
            with pytest.raises(geo.ScenarioError):
                world.nearest_hospital(cell, t)

    def test_tables_are_built_on_first_use_and_kept(self):
        world = geo.world_from_json(geo.world_to_json(bench_city("default")))
        assert stored(world, "hospital") == []
        assert world.hospital_table(5) is world.hospital_table(5)
        assert stored(world, "hospital") == [(5,)]


def two_blob_grid():
    pts = [(0.0, 0.0), (0.2, 0.1), (0.1, 0.3), (0.3, 0.2),
           (9.0, 9.0), (9.2, 9.1), (9.1, 9.3), (9.3, 9.2)]
    cells = tuple(geo.Cell(i, p) for i, p in enumerate(pts))
    return geo.Grid(cells, 1.0, (0.0, 0.0, 10.0, 10.0))


def kmeans_objective(grid, partition):
    total = 0.0
    xy = grid.centroids()
    for part in partition:
        pts = xy[list(part)]
        total += ((pts - pts.mean(axis=0)) ** 2).sum()
    return total


class TestKmeansSegment:
    def test_k1_single_region(self):
        grid = line_grid(5)
        seg = geo.kmeans_segment(grid, uniform_rates(5), {0: geo.Depot(0, 2)}, 1, seed=0)
        assert seg.region_cells == {0: frozenset(range(5))}

    def test_two_blobs_match_exhaustive_2means(self):
        grid = two_blob_grid()
        depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 4)}
        seg = geo.kmeans_segment(grid, uniform_rates(8), depots, 2, seed=3)
        # exhaustive 2-partition oracle over 8 cells
        best, best_obj = None, float("inf")
        idx = list(range(8))
        for r in range(1, 8):
            for left in itertools.combinations(idx, r):
                part = (set(left), set(idx) - set(left))
                obj = kmeans_objective(grid, part)
                if obj < best_obj:
                    best, best_obj = part, obj
        got = {frozenset(c) for c in seg.region_cells.values()}
        assert got == {frozenset(p) for p in best}

    def test_same_seed_identical(self):
        grid = two_blob_grid()
        rm = geo.RateModel(3600, np.linspace(0, 1, 8).reshape(1, 8))
        depots = {0: geo.Depot(0, 1), 1: geo.Depot(1, 5)}
        a = geo.kmeans_segment(grid, rm, depots, 2, seed=11)
        b = geo.kmeans_segment(grid, rm, depots, 2, seed=11)
        assert a == b

    def test_invariants_for_all_k(self):
        rng = np.random.default_rng(5)
        grid = geo.square_grid(4, 4)
        rm = geo.RateModel(3600, rng.uniform(0, 2, size=(1, 16)))
        depots = {i: geo.Depot(i, int(c)) for i, c in enumerate(rng.choice(16, 5, replace=False))}
        for k in range(1, len(depots) + 1):
            seg = geo.kmeans_segment(grid, rm, depots, k, seed=k)
            covered = set()
            for cells in seg.region_cells.values():
                covered |= cells
            assert covered == set(range(16))
            for g in seg.region_ids:
                assert seg.region_depots(g)
            for d, g in seg.depot_regions.items():
                assert depots[d].cell in seg.region_cells[g]

    def test_k_above_depot_count_rejected(self):
        grid = line_grid(4)
        with pytest.raises(geo.ScenarioError):
            geo.kmeans_segment(grid, uniform_rates(4), {0: geo.Depot(0, 0)}, 2, seed=0)


class TestScenarioRoundTrip:
    def test_json_round_trip(self, tmp_path):
        grid = geo.square_grid(3, 2)
        tm = geo.euclidean_travel_model(grid, 3600, [1.0, 1.2] * 84)
        rm = geo.RateModel(7200, np.random.default_rng(1).uniform(0, 1, size=(2, 6)))
        depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 5)}
        hosp = {0: geo.Hospital(0, 2)}
        seg = geo.kmeans_segment(grid, rm, depots, 2, seed=0)
        world = geo.ScenarioWorld(grid, depots, hosp, tm, rm, seg)
        path = tmp_path / "scenario.json"
        geo.save_world(world, path)
        loaded = geo.load_world(path)
        assert loaded.seg == world.seg
        assert np.array_equal(loaded.travel.matrices, world.travel.matrices)
        assert np.array_equal(loaded.rates.rates, world.rates.rates)
        assert loaded.rate_scale == world.rate_scale
        assert loaded.nearest_hospital(4, 0.0) == world.nearest_hospital(4, 0.0)

    @pytest.mark.parametrize("name", ["default", "metro"])
    def test_bench_city_round_trip_is_bit_identical(self, tmp_path, name):
        world = bench_city(name)
        path = tmp_path / "scenario.json"
        geo.save_world(world, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2 and doc["travel"]["matrices"]["dtype"] == "<f8"
        assert_same_world(geo.load_world(path), world)

    def test_a_version_1_document_loads_to_the_same_world(self, default_city_doc):
        world = bench_city("default")
        v1 = {**default_city_doc, "version": 1,
              "travel": {**default_city_doc["travel"],
                         "matrices": world.travel.matrices.tolist()}}
        assert_same_world(geo.world_from_json(v1), world)
        assert_same_world(geo.world_from_json(json.loads(json.dumps(v1))), world)


@pytest.fixture(scope="module")
def default_city_doc():
    from ermrl.harness import ScenarioParams, generate_scenario
    return geo.world_to_json(generate_scenario(ScenarioParams(), seed=7))


def widen_rates(doc):
    rates = [row + [0.0] * 5 for row in doc["rates"]["cell_rates_per_hour"]]
    return {**doc, "rates": {**doc["rates"], "cell_rates_per_hour": rates}}


def widen_rates_and_segment(doc):
    return {**widen_rates(doc), "segmentation": {"k": 2, "seed": 0}}


def with_travel(doc, mats):
    """doc with its travel tables encoded as version 2 stores them."""
    enc = {"dtype": "<f8", "shape": list(mats.shape),
           "base64": base64.b64encode(mats.astype("<f8").tobytes()).decode("ascii")}
    return {**doc, "travel": {**doc["travel"], "matrices": enc}}


def decoded_travel(doc):
    enc = doc["travel"]["matrices"]
    return np.frombuffer(base64.b64decode(enc["base64"]), "<f8").reshape(enc["shape"])


def shrink_travel(doc):
    return with_travel(doc, decoded_travel(doc)[:, :30, :30])


def edit_travel_encoding(**entries):
    def edit(doc):
        return {**doc, "travel": {**doc["travel"],
                                  "matrices": {**doc["travel"]["matrices"], **entries}}}
    return edit


def assert_same_world(a, b):
    assert (a.grid, a.depots, a.hospitals, a.seg) == (b.grid, b.depots, b.hospitals, b.seg)
    assert a.rate_scale.hex() == b.rate_scale.hex()
    for x, y in ((a.travel.matrices, b.travel.matrices), (a.rates.rates, b.rates.rates)):
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert a.travel.bucket_duration_s == b.travel.bucket_duration_s
    assert a.rates.bucket_duration_s == b.rates.bucket_duration_s


def move_hospital(cell):
    def edit(doc):
        return {**doc, "hospitals": [{**doc["hospitals"][0], "cell": cell},
                                     *doc["hospitals"][1:]]}
    return edit


def depot_capacity(capacity):
    def edit(doc):
        return {**doc, "depots": [{**doc["depots"][0], "capacity": capacity},
                                  *doc["depots"][1:]]}
    return edit


def depot_without_cell(doc):
    return {**doc, "depots": [{"id": doc["depots"][0]["id"]}, *doc["depots"][1:]]}


def repeat_first(key):
    def edit(doc):
        return {**doc, key: [*doc[key], doc[key][0]]}
    return edit


def grow_region(doc):
    regions = dict(doc["segmentation"]["regions"])
    regions["0"] = regions["0"] + [36]
    return {**doc, "segmentation": {**doc["segmentation"], "regions": regions}}


class TestScenarioCellIds:
    def test_default_city_loads(self, default_city_doc):
        assert geo.world_from_json(default_city_doc).grid.n_cells == 36
        # files written before depots lost the field name capacity 1
        assert geo.world_from_json(depot_capacity(1)(default_city_doc)).depots == \
            geo.world_from_json(default_city_doc).depots

    @pytest.mark.parametrize("edit", [widen_rates, widen_rates_and_segment, shrink_travel,
                                      move_hospital(99), move_hospital(-1), grow_region,
                                      depot_capacity(2), depot_without_cell,
                                      repeat_first("depots"), repeat_first("hospitals")],
                             ids=["rates_41_cells", "rates_41_cells_kmeans", "travel_30x30",
                                  "hospital_99", "hospital_negative", "region_cell_36",
                                  "depot_capacity_2", "depot_without_cell",
                                  "depot_id_twice", "hospital_id_twice"])
    def test_rejected_at_load(self, default_city_doc, edit):
        with pytest.raises(geo.ScenarioError):
            geo.world_from_json(edit(default_city_doc))


def short_by_one_value(doc):
    """The bytes of all but the last travel time, under the full shape."""
    short = with_travel(doc, decoded_travel(doc).ravel()[:-1])["travel"]["matrices"]
    return edit_travel_encoding(base64=short["base64"])(doc)


BAD_ENCODINGS = {
    "float32": edit_travel_encoding(dtype="<f4"),
    "big_endian": edit_travel_encoding(dtype=">f8"),
    "short_by_one_value": short_by_one_value,
    "shape_too_large": edit_travel_encoding(shape=[24, 36, 37]),
    "shape_not_a_list": edit_travel_encoding(shape="24,36,36"),
    "shape_of_floats": edit_travel_encoding(shape=[24.0, 36, 36]),
    "not_base64": edit_travel_encoding(base64="not base64!"),
    "base64_not_a_string": edit_travel_encoding(base64=7),
    "no_dtype": lambda doc: {**doc, "travel": {**doc["travel"], "matrices": {
        k: v for k, v in doc["travel"]["matrices"].items() if k != "dtype"}}},
}


class TestTravelEncoding:
    @pytest.mark.parametrize("edit", BAD_ENCODINGS.values(), ids=BAD_ENCODINGS.keys())
    def test_malformed_encoding_rejected_at_load(self, default_city_doc, edit):
        with pytest.raises(geo.ScenarioError):
            geo.world_from_json(edit(default_city_doc))

    def test_a_malformed_encoding_exits_2(self, tmp_path, default_city_doc):
        from ermrl.cli import main
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BAD_ENCODINGS["short_by_one_value"](default_city_doc)))
        out = tmp_path / "out"
        assert main(["eval", "--scenario", str(path), "--out-dir", str(out),
                     "--seed", "1", "--planner", "static", "--eval-seeds", "50:51",
                     "--horizon-days", "0.1"]) == 2
        assert not out.exists()


def bucket_duration(section, dur):
    def edit(doc):
        return {**doc, section: {**doc[section], "bucket_duration_s": dur}}
    return edit


def depot_regions(edit_regions):
    def edit(doc):
        regions = edit_regions(dict(doc["segmentation"]["depot_regions"]))
        return {**doc, "segmentation": {**doc["segmentation"], "depot_regions": regions}}
    return edit


def rate_norm(value):
    def edit(doc):
        return {**doc, "feature_norm": {"rate_per_hour": value}}
    return edit


def without_depot_0(regions):
    del regions["0"]
    return regions


UNFIT = {
    "travel_bucket_1.5_s": bucket_duration("travel", 1.5),
    "travel_bucket_0.5_s": bucket_duration("travel", 0.5),
    "rate_bucket_0.5_s": bucket_duration("rates", 0.5),
    "rate_bucket_2.5_s": bucket_duration("rates", 2.5),
    "depot_0_without_region": depot_regions(without_depot_0),
    "unknown_depot_99": depot_regions(lambda regions: {**regions, "99": 0}),
    "rate_norm_negative": rate_norm(-1.0),
    "rate_norm_nan": rate_norm(math.nan),
    "rate_norm_inf": rate_norm(math.inf),
    "rate_norm_string": rate_norm("1.0"),
}


class TestScenarioFit:
    """Bucket durations, the segmentation's depots and the rate scale must fit
    the world they describe."""

    @pytest.mark.parametrize("edit", UNFIT.values(), ids=UNFIT.keys())
    def test_rejected_at_load(self, default_city_doc, edit):
        with pytest.raises(geo.ScenarioError):
            geo.world_from_json(edit(default_city_doc))

    @pytest.mark.parametrize("name", ["travel_bucket_1.5_s", "depot_0_without_region",
                                      "unknown_depot_99", "rate_norm_negative"])
    def test_exits_2(self, tmp_path, default_city_doc, name):
        from ermrl.cli import main
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(UNFIT[name](default_city_doc)))
        out = tmp_path / "out"
        assert main(["eval", "--scenario", str(path), "--out-dir", str(out),
                     "--seed", "1", "--planner", "greedy", "--eval-seeds", "50:51",
                     "--horizon-days", "0.1"]) == 2
        assert not out.exists()

    def test_a_zero_rate_norm_is_derived(self, default_city_doc):
        world = geo.world_from_json(rate_norm(0)(default_city_doc))
        assert world.rate_scale.hex() == bench_city("default").rate_scale.hex()


class TestRegionRates:
    def test_equals_region_rate_at_every_rate_bucket(self):
        from ermrl.harness import ScenarioParams, generate_scenario
        world = generate_scenario(ScenarioParams(n_regions=3), 3)
        assert world.rates.n_buckets > 1 and world.seg.n_regions == 3
        dur = world.rates.bucket_duration_s
        for b in range(world.rates.n_buckets):
            for t in (b * dur, b * dur + dur / 2):
                expected = {g: geo.region_rate(world.seg, world.rates, g, t)
                            for g in world.seg.region_ids}
                assert world.region_rates(t) == expected

    def test_one_cached_entry_per_rate_bucket(self):
        from ermrl.harness import ScenarioParams, generate_scenario
        world = generate_scenario(ScenarioParams(n_regions=3), 3)
        dur = world.rates.bucket_duration_s
        for t in np.arange(0.0, 2 * world.rates.period_s, dur / 3):
            world.region_rates(float(t))
        assert sorted(stored(world, "region")) == [(b,) for b in range(world.rates.n_buckets)]

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        from ermrl.harness import ScenarioParams, generate_scenario
        world = generate_scenario(ScenarioParams(n_regions=3), 3)
        g = world.seg.region_ids[0]
        depots = sorted(d for d, r in world.seg.depot_regions.items() if r == g)
        rates = {h: geo.region_rate(world.seg, world.rates, h, 0.0) for h in world.seg.region_ids}
        caps = world.region_caps()
        assert world.region_rates(0.0) == rates
        assert world.region_depots(g) == depots
        assert caps == {h: len(world.region_depots(h)) for h in world.seg.region_ids}
        world.region_rates(0.0)[g] = -1.0
        world.region_depots(g).append(-1)
        world.seg.region_depots(g).clear()
        world.region_caps()[g] = -1
        assert world.region_rates(0.0) == rates
        assert world.region_depots(g) == depots
        assert world.region_caps() == caps
