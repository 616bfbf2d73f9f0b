"""Max-min secrecy search over decoding-order sets, benchmark averaging,
and power-allocation sweeps.

Order evaluation is vectorized: a boolean tensor records, per order, which
users each receiver has already decoded when it reaches a given signal, so
one realization can be scored against thousands of orders at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import orders as ord_mod
from .orders import (
    DecodingOrder,
    _column_permutations,
    _secure_column_ranks,
    order_id,
    policy_order_lpsu,
    policy_order_lpwu,
)
from .system import ChannelRealization, PowerAllocation, SystemParams, power_allocation

__all__ = [
    "SCHEMES",
    "SearchOutcome",
    "SweepPoint",
    "max_min_order",
    "benchmark_average",
    "beta_sweep",
    "sweep_all",
]

SCHEME_OPTIMAL_L = "optimal-L"
SCHEME_OPTIMAL_O = "optimal-O"
SCHEME_POLICY_LPWU = "policy-LPWU"
SCHEME_POLICY_LPSU = "policy-LPSU"
SCHEME_BENCHMARK = "benchmark"
SCHEMES = (
    SCHEME_OPTIMAL_L,
    SCHEME_OPTIMAL_O,
    SCHEME_POLICY_LPWU,
    SCHEME_POLICY_LPSU,
    SCHEME_BENCHMARK,
)
# schemes that need the exhaustive secure set (vs the two policy matrices)
_ENUM_SCHEMES = frozenset({SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O, SCHEME_BENCHMARK})

_BATCH = 4096


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a max-min search: best order (if any order was feasible),
    its worst-user secrecy rate, and the feasibility bookkeeping."""

    best_order_id: int | None
    best_value: float
    feasible_count: int
    evaluated_count: int


@dataclass(frozen=True)
class SweepPoint:
    """One (beta, scheme) evaluation: the scheme's min-secrecy value, the
    order that realized it (None for averaged schemes), and per-user rates
    (averaged across orders for the benchmark scheme)."""

    beta: float
    value: float
    order_id: int | None
    per_user_rates: tuple[float, ...]


def _before_tensor(order_list: Sequence[DecodingOrder], n: int) -> np.ndarray:
    """Boolean [k, n, m, i]: in order k, receiver m decodes user i strictly
    before user n. Entries with i == n are False."""
    cols = np.asarray([order.columns for order in order_list], dtype=np.int64).reshape(-1, n, n)
    return _before_from_stages(np.argsort(cols, axis=2))


def _before_from_stages(stage: np.ndarray) -> np.ndarray:
    """``_before_tensor`` from stage[k, m, i], the stage at which receiver m
    decodes user i in order k; the strict comparison is False for i == n.
    C order keeps the rate kernel's ``weights @ alphas`` on contiguous rows."""
    return np.ascontiguousarray(stage[:, None, :, :] < stage.transpose(0, 2, 1)[:, :, :, None])


def _interference_weights(before: np.ndarray, zeta: float) -> np.ndarray:
    """Per-interferer weights [k, n, m, i]: zeta if already decoded, 1 if
    pending, 0 for the signal of interest itself."""
    n = before.shape[1]
    diag = np.arange(n)
    weights = np.where(before, zeta, 1.0)
    weights[:, diag, :, diag] = 0.0  # own signal is not interference
    return weights


def _rate_matrix(
    weights: np.ndarray,
    gains: np.ndarray,
    alphas: np.ndarray,
    inv_rho: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Clamped per-user secrecy rates, [k_orders, n], for one (gains, alphas).

    The SINRs are built in place in one [k, n, m] array, ``out`` if given,
    so that a sweep can reuse one buffer for all of its betas instead of
    allocating several such arrays per beta.
    """
    n = gains.shape[0]
    diag = np.arange(n)
    gamma = np.matmul(weights, alphas, out=out)  # [k, n, m] interference coefficients
    gamma *= gains
    gamma += inv_rho
    np.divide(alphas[:, None] * gains[None, :], gamma, out=gamma)
    own = np.log2(1.0 + gamma[:, diag, diag])  # [k, n]
    if n == 1:
        return np.maximum(0.0, own)
    gamma[:, diag, diag] = -1.0  # exclude own receiver from the wiretap max
    tap = np.log2(1.0 + gamma.max(axis=2))
    return np.maximum(0.0, own - tap)


@lru_cache(maxsize=8)
def _secure_bundle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, favourable mask and before-tensor of the secure orders, ascending
    by id, built from their per-column ranks. The arrays are read-only."""
    ranks = np.array(list(_secure_column_ranks(n)), dtype=np.int64).reshape(-1, n)
    stage = np.argsort(np.asarray(_column_permutations(n)), axis=1)[ranks]  # [k, m, user]
    ids = ranks @ (math.factorial(n) ** np.arange(n - 1, -1, -1, dtype=np.int64))
    diag = np.arange(n)
    fav = (stage[:, diag, diag] == n - 1).all(axis=1)
    bundle = (ids, fav, _before_from_stages(stage))
    for array in bundle:
        array.flags.writeable = False
    return bundle


@lru_cache(maxsize=8)
def _secure_weights(n: int, zeta: float) -> np.ndarray:
    """``_interference_weights`` of the secure set, which depend only on
    (n, zeta) and so are built once per pair. The array is read-only."""
    weights = _interference_weights(_secure_bundle(n)[2], zeta)
    weights.flags.writeable = False
    return weights


def _as_arrays(channels: ChannelRealization, alpha: PowerAllocation, params: SystemParams):
    gains = np.asarray(channels.gains, dtype=float)
    alphas = np.asarray(alpha.alphas, dtype=float)
    if len(alphas) != len(gains) or params.n_users != len(gains):
        raise ValueError("channels, alpha and params disagree on the user count")
    return gains, alphas, params.zeta, 1.0 / params.rho_t


def max_min_order(
    order_source: Iterable[DecodingOrder],
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
) -> SearchOutcome:
    """Among orders giving every user strictly positive secrecy, pick the one
    maximizing the worst user's rate; ties go to the smallest order id.

    Infeasibility is a value, not an error: with no feasible order the
    outcome carries no order id and a zero value.
    """
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    n = len(gains)
    best_id: int | None = None
    best_value = 0.0
    feasible = 0
    evaluated = 0
    batch: list[DecodingOrder] = []

    def flush(batch: list[DecodingOrder]) -> None:
        nonlocal best_id, best_value, feasible, evaluated
        weights = _interference_weights(_before_tensor(batch, n), zeta)
        mins = _rate_matrix(weights, gains, alphas, inv_rho).min(axis=1)
        evaluated += len(batch)
        ok = mins > 0.0
        feasible += int(ok.sum())
        for k in np.flatnonzero(ok):
            oid = order_id(batch[k])
            if best_id is None or mins[k] > best_value or (mins[k] == best_value and oid < best_id):
                best_id, best_value = oid, float(mins[k])

    for order in order_source:
        batch.append(order)
        if len(batch) >= _BATCH:
            flush(batch)
            batch = []
    if batch:
        flush(batch)
    return SearchOutcome(
        best_order_id=best_id,
        best_value=best_value,
        feasible_count=feasible,
        evaluated_count=evaluated,
    )


def benchmark_average(
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
    feasible_only: bool = False,
) -> float:
    """Mean over all secure orders of the per-order minimum secrecy rate.

    Orders where some user ends up at exactly zero contribute their zero
    minimum unless ``feasible_only`` drops them from the average.
    """
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    n = len(gains)
    mins = _rate_matrix(_secure_weights(n, zeta), gains, alphas, inv_rho).min(axis=1)
    if feasible_only:
        mins = mins[mins > 0.0]
        if mins.size == 0:
            return 0.0
    return float(mins.mean())


def _best_of(mask: np.ndarray, mins: np.ndarray, ids: np.ndarray) -> int | None:
    """Index of the max-min feasible order within ``mask``; id breaks ties."""
    cand = np.flatnonzero(mask & (mins > 0.0))
    if cand.size == 0:
        return None
    best = cand[np.argmax(mins[cand])]
    tied = cand[mins[cand] == mins[best]]
    return int(tied[np.argmin(ids[tied])])


def sweep_all(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> dict[str, list[SweepPoint]]:
    """Evaluate several schemes over a beta grid with one pass per beta.

    For each beta the power allocation follows the fractional rule; the
    optimal-* schemes search their order subset, the policy schemes score
    their single matrix, and the benchmark averages the secure set.
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme(s) {unknown}; valid: {list(SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError("duplicate schemes in request")
    for b in beta_grid:
        if not -1.0 <= b <= 1.0:
            raise ValueError(f"beta grid values must lie in [-1, 1], got {b}")
    n = params.n_users
    if channels.n_users != n:
        raise ValueError("channels and params disagree on the user count")
    need_enum = any(s in _ENUM_SCHEMES for s in schemes)
    if need_enum and n > ord_mod.ENUMERATION_CAP:
        raise ValueError(
            f"schemes {sorted(_ENUM_SCHEMES & set(schemes))} need exhaustive "
            f"enumeration, capped at {ord_mod.ENUMERATION_CAP} users"
        )

    gains = np.asarray(channels.gains, dtype=float)
    zeta, inv_rho = params.zeta, 1.0 / params.rho_t

    if need_enum:
        ids, fav, _ = _secure_bundle(n)
        sec_weights = _secure_weights(n, zeta)
        sinr = np.empty(sec_weights.shape[:3])
    pol_orders = [policy_order_lpwu(n), policy_order_lpsu(n)]
    pol_ids = [order_id(o) for o in pol_orders]
    pol_weights = _interference_weights(_before_tensor(pol_orders, n), zeta)

    result: dict[str, list[SweepPoint]] = {s: [] for s in schemes}
    zeros = (0.0,) * n
    for beta in beta_grid:
        alpha = power_allocation(channels, beta)
        alphas = np.asarray(alpha.alphas, dtype=float)
        pol_rates = _rate_matrix(pol_weights, gains, alphas, inv_rho)
        if need_enum:
            rates = _rate_matrix(sec_weights, gains, alphas, inv_rho, out=sinr)
            mins = rates.min(axis=1)
        for scheme in schemes:
            if scheme == SCHEME_BENCHMARK:
                point = SweepPoint(
                    beta=beta,
                    value=float(mins.mean()),
                    order_id=None,
                    per_user_rates=tuple(float(r) for r in rates.mean(axis=0)),
                )
            elif scheme in (SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O):
                mask = fav if scheme == SCHEME_OPTIMAL_L else ~fav
                k = _best_of(mask, mins, ids)
                if k is None:
                    point = SweepPoint(beta=beta, value=0.0, order_id=None, per_user_rates=zeros)
                else:
                    point = SweepPoint(
                        beta=beta,
                        value=float(mins[k]),
                        order_id=int(ids[k]),
                        per_user_rates=tuple(float(r) for r in rates[k]),
                    )
            else:
                k = 0 if scheme == SCHEME_POLICY_LPWU else 1
                point = SweepPoint(
                    beta=beta,
                    value=float(pol_rates[k].min()),
                    order_id=pol_ids[k],
                    per_user_rates=tuple(float(r) for r in pol_rates[k]),
                )
            result[scheme].append(point)
    return result


def beta_sweep(
    scheme: str,
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> list[SweepPoint]:
    """Single-scheme convenience wrapper around ``sweep_all``."""
    return sweep_all([scheme], beta_grid, channels, params)[scheme]
