"""Projections from simulator state to fixed-meaning feature vectors.

Planner networks never see raw state. Per depot the region planners see each
responder's expected arrival time (the simulator's eta_to_cell rule, busy
ones included), and the incident rate near the depot; the city planner sees
per-region rate sums and responder counts.
Normalization is fixed: times / 3600 s, rates / the scenario's max per-depot
rate, counts / fleet size. Observation noise (multiplicative log-normal) is
applied here, to agent inputs only, never to simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import ScenarioWorld
from .sim import ResponderState, eta_to_cell

TIME_SCALE_S = 3600.0


def arrival_times(responders: list[ResponderState], depot_ids: list[int], t: float,
                  world: ScenarioWorld) -> np.ndarray:
    """(n responders, n depots) seconds until each responder could be waiting
    at each depot: one sim.eta_to_cell row per responder."""
    cells = np.array([world.depots[d].cell for d in depot_ids], dtype=int)
    return _arrival_rows(responders, cells, t, world)


def _arrival_rows(responders: list[ResponderState], cells: np.ndarray, t: float,
                  world: ScenarioWorld) -> np.ndarray:
    rows = [eta_to_cell(resp, cells, t, world)[1] for resp in responders]
    return np.array(rows).reshape(len(responders), len(cells))


def apply_observation_noise(features: np.ndarray, sigma: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Multiply each entry by an independent log-normal factor; identity at 0."""
    if sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    if sigma == 0.0:
        return features
    return features * np.exp(rng.normal(0.0, sigma, size=np.shape(features)))


@dataclass(frozen=True)
class NoiseModel:
    """Per-channel observation noise: rates and travel-derived times."""
    sigma_rate: float = 0.0
    sigma_time: float = 0.0


@dataclass
class RegionObservation:
    """Scaled feature bundle for one region at one decision instant."""
    region: int
    responder_ids: list[int]
    depot_ids: list[int]
    phi: np.ndarray   # (n_responders, n_depots), times / 3600
    lam: np.ndarray   # (n_depots,), rates / rate_scale

    @property
    def n_responders(self) -> int:
        return len(self.responder_ids)

    @property
    def n_depots(self) -> int:
        return len(self.depot_ids)

    def actor_features(self) -> np.ndarray:
        return actor_features(self.phi, self.lam)


def actor_features(phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per responder, interleaved (arrival time, nearby rate) per depot.
    Leading batch axes of phi and lam carry through."""
    out = np.empty((*phi.shape[:-1], 2 * phi.shape[-1]))
    out[..., 0::2] = phi
    out[..., 1::2] = lam[..., None, :]
    return out


def group_by_count(observations: list[RegionObservation]) -> list[tuple]:
    """Per responder count n: the indices of the observations with n
    responders and their stacked phi (B_n, n, d) and lam (B_n, d), so that
    each group runs as one dense batch."""
    groups: dict[int, list[int]] = {}
    for k, obs in enumerate(observations):
        groups.setdefault(obs.n_responders, []).append(k)
    return [(n, members, np.stack([observations[k].phi for k in members]),
             np.stack([observations[k].lam for k in members]))
            for n, members in groups.items()]


def region_observation(
    responders: dict[int, ResponderState],
    region: int,
    t: float,
    world: ScenarioWorld,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> RegionObservation:
    member_ids = sorted(rid for rid, r in responders.items() if r.region == region)
    lam = world.scaled_nearby_rates(region, t)
    phi = _arrival_rows([responders[rid] for rid in member_ids],
                        world.region_depot_cells(region), t, world) / TIME_SCALE_S
    if noise is not None and rng is not None:
        phi = apply_observation_noise(phi, noise.sigma_time, rng)
        lam = apply_observation_noise(lam, noise.sigma_rate, rng)
    return RegionObservation(region, member_ids, world.region_depots(region), phi, lam)


def critic_features(phi: np.ndarray, lam: np.ndarray, likelihoods: np.ndarray) -> np.ndarray:
    """Fixed-size critic input: per depot (occupancy, weighted arrival, rate).
    Leading batch axes of phi, lam and likelihoods carry through."""
    col_sums = likelihoods.sum(axis=-2)
    eta = np.clip(col_sums, 0.0, 1.0)
    beta = (phi * likelihoods).sum(axis=-2)
    return np.stack([eta, beta, lam], axis=-1).reshape(*eta.shape[:-1], -1)


def critic_features_grad(phi: np.ndarray, likelihoods: np.ndarray,
                         dfeat: np.ndarray) -> np.ndarray:
    """Backprop the critic-feature map onto the likelihood matrix.

    The clip on occupancy gates its gradient to the open interval (0, 1);
    the weighted-arrival term contributes phi elementwise."""
    dfeat = dfeat.reshape(*likelihoods.shape[:-2], likelihoods.shape[-1], 3)
    col_sums = likelihoods.sum(axis=-2)
    gate = ((col_sums > 0.0) & (col_sums < 1.0)).astype(float)
    dL = np.broadcast_to((dfeat[..., 0] * gate)[..., None, :], likelihoods.shape).copy()
    dL += dfeat[..., None, :, 1] * phi
    return dL


def hlp_observation(
    region_rates: dict[int, float],
    region_counts: dict[int, int],
    fleet_size: int,
    rate_scale: float,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per region, interleaved (scaled rate sum, scaled responder count)."""
    regions = sorted(region_rates)
    lam = np.array([region_rates[g] for g in regions]) / rate_scale
    if noise is not None and rng is not None:
        lam = apply_observation_noise(lam, noise.sigma_rate, rng)
    counts = np.array([region_counts[g] for g in regions], dtype=float) / max(fleet_size, 1)
    out = np.empty(2 * len(regions))
    out[0::2] = lam
    out[1::2] = counts
    return out
