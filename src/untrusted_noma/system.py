"""Physical link model for the downlink NOMA cell with untrusted users.

Holds the model inputs: the physical parameters, user placement on a
square field with Rayleigh-faded path-loss channels, and fractional power
allocation. The SINR and secrecy rates of a SIC decoding order are computed
in ``optimizer``. All functions are pure; randomness enters only through
explicit seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelRealization",
    "PowerAllocation",
    "dbm_to_mw",
    "sample_channels",
    "draw_gains",
    "power_allocation",
]


def dbm_to_mw(x_dbm: float) -> float:
    """Convert a dBm figure to linear milliwatts."""
    return 10.0 ** (x_dbm / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and simulation knobs.

    Defaults follow the standard evaluation setup: 500 m square field,
    unit path-loss constant, exponent 3, residual-interference factor 0.1,
    10 dBm transmit power and -90 dBm noise floor.
    """

    n_users: int
    pt_dbm: float = 10.0
    noise_dbm: float = -90.0
    zeta: float = 0.1
    field_len_m: float = 500.0
    path_loss_const: float = 1.0
    path_loss_exp: float = 3.0
    min_dist_m: float = 1.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")
        if not (math.isfinite(self.field_len_m) and self.field_len_m > 0.0):
            raise ValueError(f"field_len_m must be positive and finite, got {self.field_len_m}")
        if not (math.isfinite(self.path_loss_exp) and self.path_loss_exp > 0.0):
            raise ValueError(f"path_loss_exp must be positive and finite, got {self.path_loss_exp}")
        if not (math.isfinite(self.path_loss_const) and self.path_loss_const > 0.0):
            raise ValueError(
                f"path_loss_const must be positive and finite, got {self.path_loss_const}"
            )
        if not 0.0 < self.min_dist_m < self.field_len_m / 2.0:
            raise ValueError(
                f"min_dist_m must lie in (0, field_len_m/2), got {self.min_dist_m}"
            )
        if not (math.isfinite(self.pt_dbm) and math.isfinite(self.noise_dbm)):
            raise ValueError("pt_dbm and noise_dbm must be finite")
        try:
            rho_t = self.rho_t
        except (OverflowError, ZeroDivisionError):
            rho_t = math.nan
        if not (math.isfinite(rho_t) and rho_t > 0.0):
            raise ValueError(
                f"pt_dbm={self.pt_dbm} and noise_dbm={self.noise_dbm} give no finite, "
                "positive transmit SNR"
            )

    @property
    def rho_t(self) -> float:
        """Transmit SNR: linear transmit power over linear noise power."""
        return dbm_to_mw(self.pt_dbm) / dbm_to_mw(self.noise_dbm)


@dataclass(frozen=True)
class ChannelRealization:
    """One Monte Carlo draw: per-user distances and channel power gains.

    Users are relabeled after sampling so that index 1 has the strongest
    gain; ``gains`` is strictly descending.
    """

    distances_m: tuple[float, ...]
    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.distances_m) != len(self.gains):
            raise ValueError("distances_m and gains must have equal length")
        if len(self.gains) < 1:
            raise ValueError("at least one user required")
        if any(g <= 0.0 or not math.isfinite(g) for g in self.gains):
            raise ValueError("gains must be positive and finite")
        if any(d <= 0.0 for d in self.distances_m):
            raise ValueError("distances must be positive")
        if any(a <= b for a, b in zip(self.gains, self.gains[1:])):
            raise ValueError("gains must be strictly descending")

    @property
    def n_users(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class PowerAllocation:
    """Fractional power split across users, parameterized by the exponent beta.

    beta < 0 gives less power to weaker users (LPWU), beta > 0 less power to
    stronger users (LPSU), beta = 0 a uniform split.
    """

    alphas: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if any(a <= 0.0 for a in self.alphas):
            raise ValueError("all power coefficients must be positive")
        if abs(sum(self.alphas) - 1.0) > 1e-12:
            raise ValueError("power coefficients must sum to 1 within 1e-12")

    @property
    def n_users(self) -> int:
        return len(self.alphas)


def _mean_gains(params: SystemParams, distances_m: np.ndarray) -> np.ndarray:
    """Mean channel power gain L_c * d**(-e) of users at the given distances."""
    # an overflow gives inf gains, which the sampler rejects
    with np.errstate(over="ignore"):
        path_loss = np.asarray(distances_m, dtype=float) ** (-params.path_loss_exp)
        return params.path_loss_const * path_loss


def draw_gains(params: SystemParams, distances_m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample unsorted channel power gains for users at the given distances.

    The gain of a user at distance d is exponentially distributed with mean
    L_c * d**(-e) (Rayleigh fading over a distance-based path loss).
    """
    with np.errstate(over="ignore"):
        return _mean_gains(params, distances_m) * rng.exponential(1.0, size=len(distances_m))


def _collide(gains: np.ndarray) -> np.ndarray:
    """Per row of gains [..., n], whether two of its values are equal."""
    ascending = np.sort(gains, axis=-1)
    return (ascending[..., 1:] == ascending[..., :-1]).any(axis=-1)


def _sample_block(params: SystemParams, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Distances and gains [T, n] of one channel draw per seed: row t is
    what ``sample_channels(params, seeds[t])`` holds.

    Each draw takes its positions and then its fades from its own
    ``default_rng(seed)``; distance, path loss, the tie check and the sort
    run over the whole block.
    """
    n = params.n_users
    half = params.field_len_m / 2.0
    xy = np.empty((len(seeds), n, 2))
    fades = np.empty((len(seeds), n))
    rngs = []
    for t, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        rngs.append(np.random.default_rng(seed))
        xy[t] = rngs[t].uniform(-half, half, size=(n, 2))
        fades[t] = rngs[t].exponential(1.0, size=n)
    dist = np.maximum(np.hypot(xy[..., 0], xy[..., 1]), params.min_dist_m)
    with np.errstate(over="ignore"):
        gains = _mean_gains(params, dist) * fades
    # exact ties have probability zero; a draw whose float values collide is
    # re-drawn from its own generator, which gains that all underflow to 0
    # (or overflow) would do forever
    for t in np.flatnonzero(_collide(gains)):
        while _collide(gains[t]) and (np.isfinite(gains[t]) & (gains[t] > 0.0)).all():
            gains[t] = draw_gains(params, dist[t], rngs[t])
    if not (np.isfinite(gains) & (gains > 0.0)).all():
        raise ValueError(
            "channel gains underflow to 0 or overflow; check field_len_m, "
            "min_dist_m and the path-loss constant and exponent"
        )
    idx = np.argsort(-gains, axis=1, kind="stable")
    return np.take_along_axis(dist, idx, axis=1), np.take_along_axis(gains, idx, axis=1)


def sample_channels(params: SystemParams, seed: int) -> ChannelRealization:
    """Draw one channel realization; deterministic for a fixed seed.

    Users are placed uniformly on the square field with the base station at
    its center, distances are clamped to at least ``min_dist_m``, and users
    are relabeled so gains sort strictly descending.
    """
    dist, gains = _sample_block(params, [seed])
    return ChannelRealization(distances_m=tuple(dist[0].tolist()), gains=tuple(gains[0].tolist()))


def _alpha_grid(gains: np.ndarray, beta_grid: Sequence[float]) -> np.ndarray:
    """Fractional power allocation of gains [..., n] at every beta of a grid,
    as alphas [..., B, n]: row b has alpha_n proportional to
    gain_n**(-beta_grid[b]). The rows pass the checks of ``PowerAllocation``.

    Each beta raises the gains to its own scalar exponent: an array exponent
    takes a different numpy path and moves the last bits of some rows.
    """
    for beta in beta_grid:
        if not -1.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {beta}")
    weights = np.stack([gains ** (-beta) for beta in beta_grid], axis=-2)
    alphas = weights / weights.sum(axis=-1, keepdims=True)
    if not (alphas > 0.0).all():
        raise ValueError("all power coefficients must be positive")
    if (np.abs(alphas.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ValueError("power coefficients must sum to 1 within 1e-12")
    return alphas


def power_allocation(channels: ChannelRealization, beta: float) -> PowerAllocation:
    """Fractional power allocation: alpha_n proportional to gain_n**(-beta)."""
    alphas = _alpha_grid(np.asarray(channels.gains, dtype=float), [beta])[0]
    return PowerAllocation(alphas=tuple(alphas.tolist()), beta=beta)

