"""Geography, travel model, incident-rate model, and region segmentation.

Everything here is immutable after construction and safe to share between
threads. ScenarioWorld keeps the tables it derives (per-region depot cells,
nearby rates, region rates, scaled nearby rates, nearest hospitals) in one
store keyed by table kind, buckets and region: depot cells are built at
construction, the per-bucket tables on first use, and no value ever changes.
Times are seconds, rates are incidents per hour, distances miles.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

WEEK_S = 7 * 24 * 3600


class ScenarioError(ValueError):
    """Invalid scenario input or configuration."""


@dataclass(frozen=True)
class Cell:
    id: int
    centroid: tuple[float, float]


@dataclass(frozen=True)
class Grid:
    cells: tuple[Cell, ...]
    cell_size_miles: float
    bbox: tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax)

    def __post_init__(self):
        ids = [c.id for c in self.cells]
        if ids != list(range(len(ids))):
            raise ScenarioError("cell ids must be 0..n-1 in order")
        if self.cell_size_miles <= 0:
            raise ScenarioError("cell_size_miles must be positive")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def centroid(self, cell_id: int) -> tuple[float, float]:
        return self.cells[cell_id].centroid

    def centroids(self) -> np.ndarray:
        return np.array([c.centroid for c in self.cells], dtype=float)

    def diagonal_miles(self) -> float:
        xmin, ymin, xmax, ymax = self.bbox
        return math.hypot(xmax - xmin, ymax - ymin)


def square_grid(nx: int, ny: int, cell_size_miles: float = 1.0) -> Grid:
    """Regular nx-by-ny grid with unit-square cells, ids in row-major order."""
    cells = []
    for j in range(ny):
        for i in range(nx):
            cid = j * nx + i
            cells.append(Cell(cid, ((i + 0.5) * cell_size_miles, (j + 0.5) * cell_size_miles)))
    return Grid(tuple(cells), cell_size_miles, (0.0, 0.0, nx * cell_size_miles, ny * cell_size_miles))


@dataclass(frozen=True)
class Depot:
    """A station for one responder."""
    id: int
    cell: int


@dataclass(frozen=True)
class Hospital:
    id: int
    cell: int


class _BucketCycle:
    """n_buckets buckets of a positive whole number of seconds each, cycling
    with period n_buckets * bucket_duration_s, which must divide one week."""

    def __init__(self, kind: str, n_buckets: int, dur):
        if not (isinstance(dur, numbers.Real) and dur > 0 and dur % 1 == 0):  # inf % 1 is NaN
            raise ScenarioError(f"{kind} bucket_duration_s must be a positive whole number "
                                f"of seconds, not {dur!r}")
        self.bucket_duration_s = int(dur)
        self.period_s = n_buckets * self.bucket_duration_s
        if self.period_s == 0 or WEEK_S % self.period_s != 0:
            raise ScenarioError(f"{kind} bucket cycle must divide one week")

    def bucket_index(self, t: float) -> int:
        return int((t % self.period_s) // self.bucket_duration_s)


class TravelModel(_BucketCycle):
    """Time-varying cell-to-cell travel times.

    One square table per time bucket of the weekly-periodic cycle. Diagonals
    are zero. The triangle inequality is not assumed (road networks violate it).
    """

    def __init__(self, bucket_duration_s: int, matrices: np.ndarray):
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ScenarioError("travel matrices must have shape (buckets, n, n)")
        super().__init__("travel", matrices.shape[0], bucket_duration_s)
        # min/max make no full-size temporary, and a NaN propagates through both
        if matrices.size and not (matrices.min() >= 0 and np.isfinite(matrices.max())):
            raise ScenarioError("travel times must be finite and nonnegative")
        if np.any(np.diagonal(matrices, axis1=1, axis2=2) != 0):
            raise ScenarioError("travel time diagonal must be zero")
        self.matrices = matrices
        self.n_cells = matrices.shape[1]

    def travel_time(self, from_cell: int, to_cell: int, t: float) -> float:
        if not (0 <= from_cell < self.n_cells and 0 <= to_cell < self.n_cells):
            raise ScenarioError(f"unknown cell id in travel lookup: {from_cell}, {to_cell}")
        if t < 0:
            raise ScenarioError("travel lookup requires t >= 0")
        return float(self.matrices[self.bucket_index(t), from_cell, to_cell])


class RateModel(_BucketCycle):
    """Piecewise-constant per-cell incident rates (incidents/hour), cycling weekly."""

    def __init__(self, bucket_duration_s: int, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2:
            raise ScenarioError("rates must have shape (buckets, n_cells)")
        super().__init__("rate", rates.shape[0], bucket_duration_s)
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ScenarioError("rates must be finite and nonnegative")
        self.rates = rates

    @property
    def n_cells(self) -> int:
        return self.rates.shape[1]

    @property
    def n_buckets(self) -> int:
        return self.rates.shape[0]

    def rates_at(self, t: float) -> np.ndarray:
        return self.rates[self.bucket_index(t)]

    def mean_rates(self) -> np.ndarray:
        return self.rates.mean(axis=0)


@dataclass(frozen=True)
class Segmentation:
    """Partition of the grid into depot-bearing regions."""

    region_cells: dict[int, frozenset[int]]
    depot_regions: dict[int, int]
    # region id -> its depot ids in id order, regions in id order
    _depots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: set[int] = set()
        for cells in self.region_cells.values():
            if seen & cells:
                raise ScenarioError("regions must be disjoint")
            seen |= cells
        regions_with_depot = set(self.depot_regions.values())
        if regions_with_depot != set(self.region_cells):
            raise ScenarioError("every region must contain at least one depot")
        object.__setattr__(self, "_depots", {
            g: sorted(d for d, r in self.depot_regions.items() if r == g)
            for g in sorted(self.region_cells)})

    @property
    def region_ids(self) -> list[int]:
        return sorted(self.region_cells)

    @property
    def n_regions(self) -> int:
        return len(self.region_cells)

    def region_depots(self, region_id: int) -> list[int]:
        return list(self._depots.get(region_id, ()))


def single_region(grid: Grid, depots: dict[int, Depot]) -> Segmentation:
    return Segmentation(
        region_cells={0: frozenset(range(grid.n_cells))},
        depot_regions={d: 0 for d in depots},
    )


def kmeans_segment(
    grid: Grid,
    rates: RateModel,
    depots: dict[int, Depot],
    k: int,
    seed: int,
) -> Segmentation:
    """Cluster cells by (x, y, w * mean rate) with Lloyd's algorithm, where w
    scales the largest mean rate to the grid's diagonal.

    Clusters that end up without a depot are dissolved: their cells join the
    region of the nearest depot (centroid distance, ties to lowest depot id),
    so the returned segmentation always satisfies the one-depot-per-region
    invariant. Deterministic per seed.
    """
    if k < 1:
        raise ScenarioError("k must be >= 1")
    if k > len(depots):
        raise ScenarioError(f"k={k} exceeds depot count {len(depots)}; some region would lack a depot")

    xy = grid.centroids()
    mean_rates = rates.mean_rates()
    max_rate = float(mean_rates.max())
    rate_weight = grid.diagonal_miles() / max_rate if max_rate > 0 else 0.0
    feats = np.column_stack([xy, rate_weight * mean_rates])

    rng = np.random.default_rng(seed)
    centers = feats[rng.choice(grid.n_cells, size=k, replace=False)].copy()
    labels = np.zeros(grid.n_cells, dtype=int)
    for _ in range(200):
        dists = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for j in range(k):
            members = feats[new_labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    # Dissolve clusters that captured no depot.
    depot_ids = sorted(depots)
    depot_labels = {d: int(labels[depots[d].cell]) for d in depot_ids}
    good = sorted(set(depot_labels.values()))
    if len(good) < k or set(labels) - set(good):
        depot_xy = np.array([grid.centroid(depots[d].cell) for d in depot_ids])
        for c in range(grid.n_cells):
            if labels[c] not in good:
                d2 = ((depot_xy - xy[c]) ** 2).sum(axis=1)
                labels[c] = depot_labels[depot_ids[int(d2.argmin())]]

    relabel = {old: new for new, old in enumerate(sorted(set(int(v) for v in labels)))}
    region_cells = {new: frozenset(int(c) for c in np.flatnonzero(labels == old))
                    for old, new in relabel.items()}
    depot_regions = {d: relabel[depot_labels[d]] for d in depot_ids}
    return Segmentation(region_cells=region_cells, depot_regions=depot_regions)


def near_cells(
    depot_ids: list[int],
    depots: dict[int, Depot],
    travel: TravelModel,
    t: float,
) -> dict[int, set[int]]:
    """Partition cells among the given depots by closest travel time.

    Every cell goes to exactly one depot: argmin of travel(cell, depot, t),
    ties to the lowest depot id.
    """
    if not depot_ids:
        raise ScenarioError("near_cells requires a nonempty depot set")
    ids = sorted(depot_ids)
    table = travel.matrices[travel.bucket_index(t)]
    cols = np.column_stack([table[:, depots[d].cell] for d in ids])
    winners = cols.argmin(axis=1)  # argmin takes first (= lowest id) on ties
    out: dict[int, set[int]] = {d: set() for d in ids}
    for c, w in enumerate(winners.tolist()):
        out[ids[w]].add(c)
    return out


def nearby_rates(
    depot_ids: list[int],
    depots: dict[int, Depot],
    travel: TravelModel,
    rates: RateModel,
    t: float,
) -> dict[int, float]:
    """Per-depot summed incident rate over the cells nearest that depot."""
    parts = near_cells(depot_ids, depots, travel, t)
    rate_vec = rates.rates_at(t).tolist()
    return {d: float(sum(rate_vec[c] for c in cells)) for d, cells in parts.items()}


def region_rate(seg: Segmentation, rates: RateModel, region_id: int, t: float) -> float:
    rate_vec = rates.rates_at(t)
    return float(sum(rate_vec[c] for c in seg.region_cells[region_id]))


def _check_table_cells(grid: Grid, travel: TravelModel, rates: RateModel) -> None:
    n = grid.n_cells
    if travel.n_cells != n or rates.n_cells != n:
        raise ScenarioError(f"travel and rate tables must cover the grid's {n} cells")


@dataclass(frozen=True)
class ScenarioWorld:
    """Immutable world: geography plus models, shared read-only by episodes."""

    grid: Grid
    depots: dict[int, Depot]
    hospitals: dict[int, Hospital]
    travel: TravelModel
    rates: RateModel
    seg: Segmentation
    rate_scale: float = field(default=0.0)  # feature normalizer; 0 -> derive
    # derived tables by (kind, buckets..., region): ("cells", region) at construction;
    # ("nearby", travel b, rate b), ("region", rate b), ("scaled", travel b, rate b,
    # region) and ("hospital", travel b) on first use, by _fill. Values never change,
    # so two threads filling one key store equal values.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.hospitals:
            raise ScenarioError("scenario needs at least one hospital")
        _check_table_cells(self.grid, self.travel, self.rates)
        n = self.grid.n_cells
        # the simulator's travel lookups are unchecked, so every cell id is checked here
        cells = {p.cell for p in (*self.depots.values(), *self.hospitals.values())}
        if not cells.union(*self.seg.region_cells.values()) <= set(range(n)):
            raise ScenarioError(f"depot, hospital and region cell ids must lie in [0, {n})")
        if set(self.seg.depot_regions) != set(self.depots):
            raise ScenarioError(f"depot_regions must list exactly the depots {sorted(self.depots)}")
        for d in self.depots.values():
            if d.cell not in self.seg.region_cells[self.seg.depot_regions[d.id]]:
                raise ScenarioError(f"depot {d.id} lies outside its region")
        if not (isinstance(self.rate_scale, numbers.Real) and 0 <= self.rate_scale < math.inf):
            raise ScenarioError(f"rate_scale must be a finite number >= 0, not {self.rate_scale!r}")
        for g in self.seg.region_ids:  # read-only depot cells in depot id order
            cells = np.array([self.depots[d].cell for d in self.region_depots(g)], dtype=int)
            cells.setflags(write=False)
            self._tables["cells", g] = cells
        if self.rate_scale == 0.0:
            object.__setattr__(self, "rate_scale", _max_depot_rate(self))

    @property
    def depot_ids(self) -> list[int]:
        return sorted(self.depots)

    def region_depots(self, region_id: int) -> list[int]:
        return self.seg.region_depots(region_id)

    def region_caps(self) -> dict[int, int]:
        return {g: len(ds) for g, ds in self.seg._depots.items()}

    def _fill(self, key: tuple, t: float | None):
        """Build the table under key, keep it and return it; a rate table is
        built at t, any time in the key's buckets."""
        kind = key[0]
        if kind == "nearby":
            table = nearby_rates(self.depot_ids, self.depots, self.travel, self.rates, t)
        elif kind == "region":
            table = {g: region_rate(self.seg, self.rates, g, t) for g in self.seg.region_ids}
        elif kind == "hospital":
            ids = sorted(self.hospitals)
            cells = [self.hospitals[h].cell for h in ids]
            times = self.travel.matrices[key[1]][:, cells]
            best = times.argmin(axis=1).tolist()  # argmin takes first (= lowest id) on ties
            table = ([ids[j] for j in best], [cells[j] for j in best],
                     times[np.arange(len(best)), best].tolist())
        else:  # "scaled": read-only, the region's depots in id order
            lam = self.nearby_rates_at(t)
            table = np.array([lam[d] for d in self.region_depots(key[3])]) / self.rate_scale
            table.setflags(write=False)
        self._tables[key] = table
        return table

    def region_rates(self, t: float) -> dict[int, float]:
        """{region id: summed incident rate over the region's cells} at time t.

        Depends on t only through the rate bucket; each bucket is summed once
        and kept, and every call returns a fresh dict.
        """
        key = ("region", self.rates.bucket_index(t))
        return dict(lam if (lam := self._tables.get(key)) is not None else self._fill(key, t))

    def nearby_rates_at(self, t: float) -> MappingProxyType:
        """Read-only {depot id: nearby incident rate} over all depots at time t.

        Equal to nearby_rates(self.depot_ids, ..., t), which depends on t only
        through the (travel bucket, rate bucket) pair; each pair is computed
        once and kept.
        """
        key = ("nearby", self.travel.bucket_index(t), self.rates.bucket_index(t))
        return MappingProxyType(lam if (lam := self._tables.get(key)) is not None
                                else self._fill(key, t))

    def region_depot_cells(self, region_id: int) -> np.ndarray:
        """Read-only cells of the region's depots, in depot id order."""
        return self._tables["cells", region_id]

    def scaled_nearby_rates(self, region_id: int, t: float) -> np.ndarray:
        """Read-only nearby rates of the region's depots at t, in depot id
        order, divided by rate_scale: one array per (travel bucket, rate
        bucket) pair and region."""
        key = ("scaled", self.travel.bucket_index(t), self.rates.bucket_index(t), region_id)
        return lam if (lam := self._tables.get(key)) is not None else self._fill(key, t)

    def hospital_table(self, b: int) -> tuple[list[int], list[int], list[float]]:
        """Per cell, in travel bucket b: the id and cell of the hospital reached
        fastest from it, and the time to it; ties to the lowest hospital id."""
        key = ("hospital", b)
        return table if (table := self._tables.get(key)) is not None else self._fill(key, None)

    def nearest_hospital(self, from_cell: int, t: float) -> int:
        """Hospital reachable fastest from from_cell at time t; ties to lowest id."""
        if not 0 <= from_cell < self.grid.n_cells or t < 0:
            raise ScenarioError(f"nearest hospital needs a known cell and t >= 0: {from_cell}, {t}")
        return self.hospital_table(self.travel.bucket_index(t))[0][from_cell]


def _max_depot_rate(world: ScenarioWorld) -> float:
    """Max over bucket boundaries and depots of the nearby incident rate.

    Used to normalize rate features; sampled at every travel/rate bucket
    boundary within the combined cycle (the least common multiple of the two
    periods), so every (travel bucket, rate bucket) pair is seen.
    """
    period = math.lcm(world.travel.period_s, world.rates.period_s)
    times = sorted(
        set(range(0, period, world.travel.bucket_duration_s))
        | set(range(0, period, world.rates.bucket_duration_s))
    )
    best = max(max(world.nearby_rates_at(t).values()) for t in times)
    return best if best > 0 else 1.0


def euclidean_travel_model(
    grid: Grid,
    bucket_duration_s: int,
    speed_multipliers: list[float],
    base_speed_mph: float = 30.0,
) -> TravelModel:
    """Synthetic travel tables from centroid distance / per-bucket speeds."""
    xy = grid.centroids()
    dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    mats = np.empty((len(speed_multipliers), *dist.shape))
    for b, m in enumerate(speed_multipliers):
        speed = base_speed_mph * m
        if speed <= 0:
            raise ScenarioError("speed multiplier must keep speed positive")
        np.divide(dist, speed, out=mats[b])
        mats[b] *= 3600.0
    return TravelModel(bucket_duration_s, mats)


# --- scenario file (JSON) ---------------------------------------------------
#
# One document: grid, depots, hospitals, travel buckets (or generator params),
# rate buckets, and either an explicit segmentation or {k, seed}. Times in
# seconds, rates in incidents/hour. Version 2 stores the travel tables as the
# base64 of their little-endian float64 bytes; version 1 stored nested lists,
# which still load.

def _encode_f8(a: np.ndarray) -> dict:
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")}


def _decode_f8(doc: dict) -> np.ndarray:
    """The read-only array _encode_f8 wrote; another dtype, a bad shape or a
    byte count that does not fit the shape is a ScenarioError."""
    if doc["dtype"] != "<f8":
        raise ScenarioError(f"travel tables must be '<f8', not {doc['dtype']!r}")
    shape = doc["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ScenarioError(f"travel table shape must be a list of sizes, not {shape!r}")
    try:
        raw = base64.b64decode(doc["base64"], validate=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise ScenarioError(f"travel tables are not valid base64: {e}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ScenarioError(f"travel tables hold {len(raw)} bytes; shape {shape} needs "
                            f"{8 * math.prod(shape)}")
    return np.frombuffer(raw, "<f8").reshape(shape)


def world_to_json(world: ScenarioWorld) -> dict:
    return {
        "version": 2,
        "grid": {
            "cell_size_miles": world.grid.cell_size_miles,
            "bbox": list(world.grid.bbox),
            "cells": [{"id": c.id, "centroid": list(c.centroid)} for c in world.grid.cells],
        },
        "depots": [{"id": d.id, "cell": d.cell} for d in world.depots.values()],
        "hospitals": [{"id": h.id, "cell": h.cell} for h in world.hospitals.values()],
        "travel": {
            "bucket_duration_s": world.travel.bucket_duration_s,
            "matrices": _encode_f8(world.travel.matrices),
        },
        "rates": {
            "bucket_duration_s": world.rates.bucket_duration_s,
            "cell_rates_per_hour": world.rates.rates.tolist(),
        },
        "segmentation": {
            "regions": {str(g): sorted(cells) for g, cells in world.seg.region_cells.items()},
            "depot_regions": {str(d): g for d, g in world.seg.depot_regions.items()},
        },
        "feature_norm": {"rate_per_hour": world.rate_scale},
    }


def world_from_json(doc: dict) -> ScenarioWorld:
    """The world a scenario document describes; a missing entry, a depot or
    hospital id listed twice, or an inconsistent table is a ScenarioError."""
    try:
        g = doc["grid"]
        grid = Grid(
            tuple(Cell(c["id"], tuple(c["centroid"])) for c in g["cells"]),
            g["cell_size_miles"],
            tuple(g["bbox"]),
        )
        for d in doc["depots"]:
            if d.get("capacity", 1) != 1:
                raise ScenarioError(f"depot {d['id']} has capacity {d['capacity']}; "
                                    f"a depot holds one responder")
        depots = {d["id"]: Depot(d["id"], d["cell"]) for d in doc["depots"]}
        hospitals = {h["id"]: Hospital(h["id"], h["cell"]) for h in doc["hospitals"]}
        for kind, built in (("depot", depots), ("hospital", hospitals)):
            if len(built) != len(doc[f"{kind}s"]):
                raise ScenarioError(f"a {kind} id is listed twice")
        mats = doc["travel"]["matrices"]
        travel = TravelModel(doc["travel"]["bucket_duration_s"],
                             _decode_f8(mats) if isinstance(mats, dict) else np.array(mats))
        rates = RateModel(doc["rates"]["bucket_duration_s"],
                          np.array(doc["rates"]["cell_rates_per_hour"]))
        _check_table_cells(grid, travel, rates)  # segmenting reads the rate table
        seg_doc = doc.get("segmentation") or {"k": 1, "seed": 0}
        if "regions" in seg_doc:
            seg = Segmentation(
                region_cells={int(g_): frozenset(cells)
                              for g_, cells in seg_doc["regions"].items()},
                depot_regions={int(d): int(r) for d, r in seg_doc["depot_regions"].items()},
            )
        else:
            seg = kmeans_segment(grid, rates, depots, seg_doc["k"], seg_doc["seed"])
    except KeyError as e:
        raise ScenarioError(f"the scenario has no {e.args[0]!r} entry") from None
    rate_scale = doc.get("feature_norm", {}).get("rate_per_hour", 0.0)
    return ScenarioWorld(grid, depots, hospitals, travel, rates, seg, rate_scale)


def save_world(world: ScenarioWorld, path) -> None:
    with open(path, "w") as f:
        json.dump(world_to_json(world), f)


def load_world(path) -> ScenarioWorld:
    with open(path) as f:
        return world_from_json(json.load(f))
