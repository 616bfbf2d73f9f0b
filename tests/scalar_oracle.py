"""Independent scalar reference for the SINR and secrecy-rate model.

Plain per-(user, receiver) loops over a decoding order's columns. They share
no code with the column-table kernel in ``untrusted_noma.optimizer``, so
tests compare the kernel against them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from untrusted_noma import ChannelRealization, DecodingOrder, PowerAllocation, SystemParams


@dataclass(frozen=True)
class SecrecyEvaluation:
    """Per-user secrecy rates under one decoding order, plus their minimum.

    ``eavesdropper_index`` records, for each user, which other user attains
    the best wiretap rate on its signal (None when there is a single user).
    """

    per_user_rates: tuple[float, ...]
    min_rate: float
    eavesdropper_index: tuple[int | None, ...]


def _interference_coef(order: DecodingOrder, alphas: np.ndarray, zeta: float, n: int, m: int) -> float:
    """Interference weight seen at receiver m while decoding user n's signal.

    Users decoded before n in column m leak only residual power (factor
    zeta); users decoded after n interfere at full power.
    """
    column = order.columns[m - 1]
    stage_n = column.index(n)
    before = sum(alphas[u - 1] for u in column[:stage_n])
    after = sum(alphas[u - 1] for u in column[stage_n + 1 :])
    return zeta * before + after


def sinr(
    order: DecodingOrder,
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
    n: int,
    m: int,
) -> float:
    """SINR when user m decodes user n's signal (1-based user indices)."""
    n_users = channels.n_users
    if not (1 <= n <= n_users and 1 <= m <= n_users):
        raise ValueError(f"user indices must lie in 1..{n_users}, got n={n}, m={m}")
    if order.n_users != n_users:
        raise ValueError("order size does not match channel realization")
    alphas = np.asarray(alpha.alphas, dtype=float)
    coef = _interference_coef(order, alphas, params.zeta, n, m)
    g_m = channels.gains[m - 1]
    return alphas[n - 1] * g_m / (coef * g_m + 1.0 / params.rho_t)


def secrecy_rates(
    order: DecodingOrder,
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
) -> SecrecyEvaluation:
    """Per-user secrecy rates: own decoding rate minus the best wiretap rate.

    Each rate is clamped at zero; exact zeros are meaningful (they mark users
    whose data the decoding order fails to protect).
    """
    n_users = channels.n_users
    rates: list[float] = []
    eaves: list[int | None] = []
    for n in range(1, n_users + 1):
        own = math.log2(1.0 + sinr(order, channels, alpha, params, n, n))
        best_tap = -math.inf
        best_m: int | None = None
        for m in range(1, n_users + 1):
            if m == n:
                continue
            tap = math.log2(1.0 + sinr(order, channels, alpha, params, n, m))
            if tap > best_tap:
                best_tap, best_m = tap, m
        if best_m is None:  # single user, nothing to eavesdrop
            rates.append(max(0.0, own))
        else:
            rates.append(max(0.0, own - best_tap))
        eaves.append(best_m)
    return SecrecyEvaluation(
        per_user_rates=tuple(rates),
        min_rate=min(rates),
        eavesdropper_index=tuple(eaves),
    )
