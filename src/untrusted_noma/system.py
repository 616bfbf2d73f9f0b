"""Physical link model for the downlink NOMA cell with untrusted users.

Holds the model inputs: the physical parameters, user placement on a
square field with Rayleigh-faded path-loss channels, and fractional power
allocation. The SINR and secrecy rates of a SIC decoding order are computed
in ``optimizer``. All functions are pure; randomness enters only through
explicit seeds.

A batch of seeds is sampled in three steps. Every seed's ``SeedSequence``
state words are hashed in one uint32 array pass over the batch
(``_seed_words``, numpy's fixed hash, written out here). Each seed then
keeps its own ``PCG64`` stream, seeded from its words as ``default_rng``
seeds it, and draws through numpy's own ``uniform`` and
``standard_exponential``, so every bit drawn is numpy's. ``numpy.random``
is imported on the first draw, not with the package.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
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


def _as_int(name: str, value) -> int:
    """``value`` as an int, as ``operator.index`` takes it: a numpy integer
    is taken, and a float, str or None raises a TypeError naming ``name``.
    The one int rule of ``n_users``, ``trials`` and ``master_seed``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an int, got {value!r}") from None


def _as_float(name: str, value) -> float:
    """``value`` as a Python float: a real number (int, float, numpy number)
    is taken, and a str, None or complex raises a TypeError naming ``name``.
    The one float rule of the model values' real fields and the beta grid."""
    try:
        if not isinstance(value, (str, bytes, complex, np.complexfloating)):
            return float(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be a real number, got {value!r}")


_FLOAT_FIELDS = ("pt_dbm", "noise_dbm", "zeta", "field_len_m", "path_loss_const",
                 "path_loss_exp", "min_dist_m")


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
        object.__setattr__(self, "n_users", _as_int("n_users", self.n_users))
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")
        for name in ("field_len_m", "path_loss_exp", "path_loss_const"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
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
        for name in ("distances_m", "gains"):
            object.__setattr__(self, name, tuple(_as_float(name, v) for v in getattr(self, name)))
        if len(self.distances_m) != len(self.gains):
            raise ValueError("distances_m and gains must have equal length")
        if len(self.gains) < 1:
            raise ValueError("at least one user required")
        if not all(g > 0.0 and math.isfinite(g) for g in self.gains):
            raise ValueError("gains must be positive and finite")
        if not all(d > 0.0 for d in self.distances_m):
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
        object.__setattr__(self, "alphas", tuple(_as_float("alphas", a) for a in self.alphas))
        object.__setattr__(self, "beta", _as_float("beta", self.beta))
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if not all(a > 0.0 for a in self.alphas):
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


# numpy's SeedSequence hash over a pool of four uint32 words: the
# multipliers of its entropy mixing (hashmix call k xors in _INIT_A * _MULT_A**k
# and multiplies by the next power), of its output (likewise from _INIT_B), and
# of ``mix``, each modulo 2**32
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# per pool word, the others, into which its hash is mixed
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def _hash_consts(first: int, mult: int, count: int) -> np.ndarray:
    """``first * mult**k`` modulo 2**32 for k = 0 .. count - 1, as uint32."""
    consts = [first]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of uint32 words."""
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ r >> 16


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of every
    seed s, as rows [T, 4], hashed in one uint32 array pass over the batch.

    A seed's entropy is its 32-bit words, least significant first, padded
    with zeros to the pool of four; a seed of more words mixes each further
    word into the pool in one more round, which only its rows take."""
    seeds = list(map(operator.index, seeds))
    if min(seeds, default=0) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {min(seeds)}")
    width = max(_POOL, -(-max(seeds, default=0).bit_length() // 32))
    text = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
    entropy = np.frombuffer(text, dtype="<u4").reshape(len(seeds), width).astype(np.uint32)
    mults = _hash_consts(_INIT_A, _MULT_A, _POOL**2 + _POOL * (width - _POOL) + 1)
    calls = 0

    def hashmix(words: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` hashmix calls, one per column, of words [R, 1 or count]."""
        nonlocal calls
        mixed = (words ^ mults[calls:calls + count]) * mults[calls + 1:calls + count + 1]
        calls += count
        return mixed ^ mixed >> 16

    pool = hashmix(entropy[:, :_POOL], _POOL)
    for src, others in enumerate(_OTHERS):
        pool[:, others] = _mix(pool[:, others], hashmix(pool[:, src, None], _POOL - 1))
    if width > _POOL:
        bits = np.array([seed.bit_length() for seed in seeds])
        for src in range(_POOL, width):
            rows = bits > 32 * src
            pool[rows] = _mix(pool[rows], hashmix(entropy[rows, src, None], _POOL))
    outs = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = (np.tile(pool, 2) ^ outs[:-1]) * outs[1:]
    state ^= state >> 16
    # as SeedSequence does: pairs of words read as little-endian uint64
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Words:
    """A seed sequence that hands ``PCG64`` a seed's ``generate_state(4,
    np.uint64)`` words already hashed; registered as numpy's
    ``ISeedSequence`` by ``_generators`` on the first draw."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64), the only state these words are
        return self.words


@lru_cache(maxsize=1)
def _generators() -> tuple[type, type]:
    """numpy's ``PCG64`` and ``Generator``, imported, and ``_Words``
    registered as a seed sequence, on the first draw."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Words)
    return PCG64, Generator


def _sample_block(params: SystemParams, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Distances and gains [T, n] of one channel draw per seed: row t is
    what ``sample_channels(params, seeds[t])`` holds.

    The seeds' state words are hashed in one array pass (``_seed_words``);
    each draw then takes its positions and its fades from its own ``PCG64``
    stream, the one ``default_rng(seed)`` gives, through numpy's own
    ``uniform`` and ``standard_exponential``. Distance, path loss, the tie
    check and the sort run over the whole block.
    """
    n = params.n_users
    half = params.field_len_m / 2.0
    words = _seed_words(seeds)
    pcg64, generator = _generators()
    xy = np.empty((len(words), n, 2))
    fades = np.empty((len(words), n))
    rngs = []
    for t, row in enumerate(words):
        rng = generator(pcg64(_Words(row)))
        xy[t] = rng.uniform(-half, half, size=(n, 2))
        rng.standard_exponential(out=fades[t])
        rngs.append(rng)
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
    return ChannelRealization(distances_m=dist[0], gains=gains[0])


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
    # positive alphas come from finite weights, so a row sums to 1 within about
    # 3 n eps: inside PowerAllocation's 1e-12 at any n whose kernel fits in memory
    return alphas


def power_allocation(channels: ChannelRealization, beta: float) -> PowerAllocation:
    """Fractional power allocation: alpha_n proportional to gain_n**(-beta)."""
    alphas = _alpha_grid(np.asarray(channels.gains, dtype=float), [beta])[0]
    return PowerAllocation(alphas=alphas, beta=beta)

