"""Reference for the channel sampler: one seed at a time, each from its own
``np.random.default_rng(seed)``, which hashes the seed with numpy's own
``SeedSequence``. Positions come from ``uniform``, fades from
``exponential``, and a draw whose gains collide is re-drawn from the same
generator. It shares no seeding or drawing code with
``untrusted_noma.system``, so tests compare the two bit for bit.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from untrusted_noma import SystemParams


def _collide(gains: np.ndarray) -> bool:
    ascending = np.sort(gains)
    return bool((ascending[1:] == ascending[:-1]).any())


def sample_block(params: SystemParams, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Distances and gains [T, n], row t drawn from ``seeds[t]`` alone and
    relabeled so its gains descend."""
    n, half = params.n_users, params.field_len_m / 2.0
    dist = np.empty((len(seeds), n))
    gains = np.empty((len(seeds), n))
    for t, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-half, half, size=(n, 2))
        d = np.maximum(np.hypot(xy[:, 0], xy[:, 1]), params.min_dist_m)
        with np.errstate(over="ignore"):
            mean = params.path_loss_const * d ** (-params.path_loss_exp)
            g = mean * rng.exponential(1.0, size=n)
            while _collide(g) and (np.isfinite(g) & (g > 0.0)).all():
                g = mean * rng.exponential(1.0, size=n)
        if not (np.isfinite(g) & (g > 0.0)).all():
            raise ValueError("channel gains underflow to 0 or overflow")
        order = np.argsort(-g, kind="stable")
        dist[t], gains[t] = d[order], g[order]
    return dist, gains
