"""Shared scenario builders for the test suite."""

import functools

import numpy as np

from ermrl import geo, harness, sim

# the benchmark's two cities, both generated from seed 7
BENCH_CITIES = {
    "default": harness.ScenarioParams(),
    "metro": harness.ScenarioParams(nx=25, ny=25, n_depots=36, n_hospitals=6,
                                    n_regions=5, citywide_rate_per_hour=6.0),
}


@functools.cache
def bench_city(name):
    return harness.generate_scenario(BENCH_CITIES[name], 7)


def make_world(travel_table, depot_cells, hospital_cells, rates_vec=None,
               rate_bucket_s=3600, segmentation=None):
    n = len(travel_table)
    cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
    grid = geo.Grid(cells, 1.0, (0.0, 0.0, float(n), 1.0))
    tm = geo.TravelModel(3600, np.array([travel_table], dtype=float))
    if rates_vec is None:
        rates_vec = [[0.0] * n]
    rm = geo.RateModel(rate_bucket_s, np.array(rates_vec, dtype=float))
    depots = {i: geo.Depot(i, c) for i, c in enumerate(depot_cells)}
    hospitals = {i: geo.Hospital(i, c) for i, c in enumerate(hospital_cells)}
    seg = segmentation if segmentation is not None else geo.single_region(grid, depots)
    return geo.ScenarioWorld(grid, depots, hospitals, tm, rm, seg)


def uniform_table(n, t):
    m = np.full((n, n), float(t))
    np.fill_diagonal(m, 0.0)
    return m


def chain_of(events, horizon):
    return sim.IncidentChain(tuple(events), horizon, seed=-1)


def two_region_world(rates_by_bucket=None, travel_s=120.0, bucket_s=3600):
    """Six cells on a line; regions {0,1,2} and {3,4,5}, two depots each."""
    n = 6
    cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
    grid = geo.Grid(cells, 1.0, (0.0, 0.0, float(n), 1.0))
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * travel_s
    tm = geo.TravelModel(3600, np.array([table], dtype=float))
    if rates_by_bucket is None:
        rates_by_bucket = [[0.5] * n]
    rm = geo.RateModel(bucket_s, np.array(rates_by_bucket, dtype=float))
    depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 2), 2: geo.Depot(2, 3), 3: geo.Depot(3, 5)}
    hospitals = {0: geo.Hospital(0, 1), 1: geo.Hospital(1, 4)}
    seg = geo.Segmentation(
        region_cells={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})},
        depot_regions={0: 0, 1: 0, 2: 1, 3: 1},
    )
    return geo.ScenarioWorld(grid, depots, hospitals, tm, rm, seg)


def toy_llp_world(rate_per_hour=0.5):
    """One region, two depots at opposite ends, all incident mass at the far
    end next to the second depot."""
    n = 5
    cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
    grid = geo.Grid(cells, 1.0, (0.0, 0.0, 5.0, 1.0))
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 300.0
    tm = geo.TravelModel(3600, np.array([table]))
    rm = geo.RateModel(3600, np.array([[0.0, 0.0, 0.0, 0.0, rate_per_hour]]))
    depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 4)}
    hospitals = {0: geo.Hospital(0, 2)}
    return geo.ScenarioWorld(grid, depots, hospitals, tm, rm,
                             geo.single_region(grid, depots))


def toy_hierarchy_world():
    """Two regions, two depots each, demand alternating between regions every
    six hours; within the hot region the mass is split across both depot cells
    so real coverage needs two responders."""
    n = 6
    cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
    grid = geo.Grid(cells, 1.0, (0.0, 0.0, 6.0, 1.0))
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 300.0
    tm = geo.TravelModel(3600, np.array([table]))
    hot0 = [0.5, 0, 0.5, 0.02, 0, 0.02]
    hot1 = [0.02, 0, 0.02, 0.5, 0, 0.5]
    rm = geo.RateModel(21600, np.array([hot0, hot1, hot0, hot1] * 7))
    depots = {0: geo.Depot(0, 0), 1: geo.Depot(1, 2), 2: geo.Depot(2, 3), 3: geo.Depot(3, 5)}
    hospitals = {0: geo.Hospital(0, 1), 1: geo.Hospital(1, 4)}
    seg = geo.Segmentation(
        region_cells={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})},
        depot_regions={0: 0, 1: 0, 2: 1, 3: 1},
    )
    return geo.ScenarioWorld(grid, depots, hospitals, tm, rm, seg)
