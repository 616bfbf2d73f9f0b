"""SINR and secrecy rates of decoding orders, max-min secrecy search over
order sets, benchmark averaging, and power-allocation sweeps.

An order set is an int array of per-column ranks, [K, N]: entry (k, m) is
the lexicographic rank of receiver m's column in order k, as in
``order_id``. Receiver m's SINRs depend only on its own column, so a set is
scored from a table that holds, for each distinct column the set uses, the
SINR of every user at that column's receiver; one gather from it gives
every order's own and wiretap rates. The secure set at N = 4 has 3036
orders but uses at most 4 * 24 distinct columns. ``_sinr_table`` is the
package's only SINR formula: ``sinr`` and ``secrecy_rates`` score a single
order as a set of one.

The kernel also takes a leading beta axis: alphas of shape [B, N], one row
per grid point, give a [B, C, N] table and [B, K, N] rates, and each
(beta, column) is still the same [N, N] matrix-vector product. ``sweep_all``
scores up to ``_SCORE_BUDGET // K`` betas per kernel call, so a small order
set (K <= 14 at N <= 3) is scored over the whole grid at once and its
reductions run once per block instead of once per beta, while the 3038
orders at N = 4 keep one beta per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from . import orders as ord_mod
from .orders import (
    DecodingOrder,
    _column_permutations,
    _perm_rank,
    _perm_unrank,
    _secure_column_ranks,
    policy_order_lpsu,
    policy_order_lpwu,
)
from .system import ChannelRealization, PowerAllocation, SystemParams, power_allocation_grid

__all__ = [
    "SCHEMES",
    "SearchOutcome",
    "SweepPoint",
    "sinr",
    "secrecy_rates",
    "max_min_order",
    "benchmark_average",
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
# orders x betas scored per kernel call in sweep_all; batching betas over the
# 3038 orders at N = 4 measured slower than one beta per call
_SCORE_BUDGET = 4096


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


def _check_request(schemes: Sequence[str], beta_grid: Sequence[float], n_users: int) -> None:
    """Raise ValueError unless the schemes are nonempty, known and distinct,
    the beta grid is nonempty and within [-1, 1], and no scheme that needs
    the secure set asks for more than ENUMERATION_CAP users."""
    if len(schemes) == 0:
        raise ValueError("at least one scheme required")
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme(s) {unknown}; valid: {list(SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError("duplicate schemes in request")
    if len(beta_grid) == 0:
        raise ValueError("beta_grid must be nonempty")
    for b in beta_grid:
        if not -1.0 <= b <= 1.0:
            raise ValueError(f"beta grid values must lie in [-1, 1], got {b}")
    if n_users > ord_mod.ENUMERATION_CAP and _ENUM_SCHEMES & set(schemes):
        raise ValueError(
            f"schemes {sorted(_ENUM_SCHEMES & set(schemes))} need exhaustive "
            f"enumeration, capped at {ord_mod.ENUMERATION_CAP} users"
        )


def _ranks(order_source: Iterable[DecodingOrder], n: int) -> np.ndarray:
    """Per-column ranks [K, n] of the orders, each distinct column ranked
    once. Ranks are int64 while N! fits (N <= 20) and Python ints beyond."""

    @lru_cache(maxsize=None)
    def rank(col: tuple[int, ...]) -> int:
        if len(col) != n:
            raise ValueError(f"every order must have {n} users")
        return _perm_rank(col)

    flat = (rank(col) for order in order_source for col in order.columns)
    return np.fromiter(flat, dtype=np.int64 if n <= 20 else object).reshape(-1, n)


def _order_ids(ranks: np.ndarray) -> np.ndarray:
    """Exact ``order_id`` of each rank row, as Python ints: (N!)^N
    overflows int64 from N = 7."""
    base = math.factorial(ranks.shape[1])
    ids = [reduce(lambda oid, r: oid * base + r, row, 0) for row in ranks.tolist()]
    return np.array(ids, dtype=object)


def _column_index(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct columns an order set uses, as (stage [C, n], the 0-based
    SIC stage of each user; receiver [C]; index [K, n], the table row of
    order k's column m)."""
    n = ranks.shape[1]
    index = np.empty(ranks.shape, dtype=np.intp)
    perms: list[tuple[int, ...]] = []
    receiver: list[int] = []
    for m in range(n):
        used, inverse = np.unique(ranks[:, m], return_inverse=True)
        index[:, m] = inverse + len(perms)
        perms += [_perm_unrank(n, int(r)) for r in used]
        receiver += [m] * len(used)
    stage = np.argsort(np.array(perms, dtype=np.intp).reshape(-1, n), axis=1)
    return stage, np.array(receiver, dtype=np.intp), index


def _sinr_table(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> np.ndarray:
    """SINR table [..., C, n] of the columns in ``columns`` (a
    ``_column_index``) for alphas [..., n]: entry (c, t) is the SINR of user
    t's signal at column c's receiver.

    Users decoded before t in the column leak only residual power (factor
    zeta); users decoded after t interfere at full power.
    """
    stage, receiver, _ = columns
    diag = np.arange(len(gains))
    # weights[c, t, i]: zeta if column c decodes user i before user t, else 1; 0 for i == t
    weights = np.where(stage[:, None, :] < stage[:, :, None], zeta, 1.0)
    weights[:, diag, diag] = 0.0
    g = gains[receiver][:, None]
    gamma = np.matmul(weights, alphas[..., None, :, None])[..., 0]
    gamma *= g
    gamma += inv_rho
    return alphas[..., None, :] * g / gamma


def _secrecy_rates(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> np.ndarray:
    """Clamped per-user secrecy rates [..., K, n] of the order set whose
    ``_column_index`` is ``columns``, for gains and alphas [..., n]."""
    index = columns[2]
    n = len(gains)
    diag = np.arange(n)
    # [..., C, n]: user t's rate at column c's receiver
    rate = np.log2(1.0 + _sinr_table(columns, gains, alphas, zeta, inv_rho))
    # np.take gathers about twice as fast as fancy indexing with the same result
    own = np.take(rate.reshape(*rate.shape[:-2], -1), index * n + diag, axis=-1)
    # rates are >= 0, so starting the wiretap max at 0 and leaving out the
    # own receiver changes no max and gives a single user no eavesdropper
    tap = np.zeros_like(own)
    for m in diag:
        seen = np.take(rate, index[:, m], axis=-2)  # [..., K, t]: user t's rate at receiver m
        seen[..., m] = 0.0
        np.maximum(tap, seen, out=tap)
    return np.maximum(0.0, own - tap)


@lru_cache(maxsize=8)
def _secure_bundle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column ranks, ids and favourable mask of the secure orders,
    ascending by id. The arrays are read-only."""
    ranks = np.array(list(_secure_column_ranks(n)), dtype=np.int64).reshape(-1, n)
    ids = _order_ids(ranks)
    last = np.array([col[-1] for col in _column_permutations(n)])
    fav = (last[ranks] == np.arange(1, n + 1)).all(axis=1)
    bundle = (ranks, ids, fav)
    for array in bundle:
        array.flags.writeable = False
    return bundle


def _as_arrays(channels: ChannelRealization, alpha: PowerAllocation, params: SystemParams):
    gains = np.asarray(channels.gains, dtype=float)
    alphas = np.asarray(alpha.alphas, dtype=float)
    if len(alphas) != len(gains) or params.n_users != len(gains):
        raise ValueError("channels, alpha and params disagree on the user count")
    return gains, alphas, params.zeta, 1.0 / params.rho_t


def _row_min(rates: np.ndarray) -> np.ndarray:
    """Per-order minimum [..., K] of [..., K, n] rates, folded over the n
    users: at K = 3038, n = 4 that takes 11 us against 167 us for
    min(axis=-1). The result is C-contiguous, so a mean over its last axis
    sums in the order a 1-D mean does."""
    return np.ascontiguousarray(reduce(np.minimum, np.moveaxis(rates, -1, 0)))


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
    columns = _column_index(_ranks([order], n_users))
    table = _sinr_table(columns, *_as_arrays(channels, alpha, params))
    return float(table[columns[2][0, m - 1], n - 1])


def secrecy_rates(
    order: DecodingOrder,
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
) -> tuple[float, ...]:
    """Per-user secrecy rates of one order: own decoding rate minus the best
    wiretap rate over the other users, clamped at zero.

    Exact zeros are meaningful: they mark users whose data the decoding
    order fails to protect. A single user keeps its own rate.
    """
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    columns = _column_index(_ranks([order], len(gains)))
    return tuple(float(r) for r in _secrecy_rates(columns, gains, alphas, zeta, inv_rho)[0])


def _best_rows(mask: np.ndarray, mins: np.ndarray) -> np.ndarray:
    """Per row of ``mins`` [..., K], whose orders ascend by id: index of the
    max-min feasible order within ``mask``, the first (smallest id) of a
    tie, or -1 when no order within ``mask`` is feasible."""
    # feasible values are > 0, so 0 marks the rest and never wins
    vals = np.where(mask & (mins > 0.0), mins, 0.0)
    return np.where(vals.max(axis=-1) > 0.0, vals.argmax(axis=-1), -1)


def _best_of(mask: np.ndarray, mins: np.ndarray, ids: np.ndarray) -> int | None:
    """Index of the max-min feasible order within ``mask``; id breaks ties."""
    if len(mins) == 0:
        return None
    by_id = np.argsort(ids, kind="stable")
    k = int(_best_rows(mask[by_id], mins[by_id]))
    return None if k < 0 else int(by_id[k])


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
    ranks = _ranks(order_source, len(gains))
    mins = _row_min(_secrecy_rates(_column_index(ranks), gains, alphas, zeta, inv_rho))
    ids = _order_ids(ranks)
    k = _best_of(np.ones(len(mins), dtype=bool), mins, ids)
    return SearchOutcome(
        best_order_id=None if k is None else int(ids[k]),
        best_value=0.0 if k is None else float(mins[k]),
        feasible_count=int((mins > 0.0).sum()),
        evaluated_count=len(mins),
    )


def benchmark_average(
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
) -> float:
    """Mean over all secure orders of the per-order minimum secrecy rate;
    orders where some user ends up at exactly zero contribute that zero."""
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    columns = _column_index(_secure_bundle(len(gains))[0])
    return float(_row_min(_secrecy_rates(columns, gains, alphas, zeta, inv_rho)).mean())


def sweep_all(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> dict[str, list[SweepPoint]]:
    """Evaluate several schemes over a beta grid.

    For each beta the power allocation follows the fractional rule; the
    optimal-* schemes search their order subset, the policy schemes score
    their single matrix, and the benchmark averages the secure set. The
    secure set (when a scheme needs it) and the two policy matrices are
    scored together, over a block of up to ``_SCORE_BUDGET // K`` betas per
    kernel call, and each scheme's reduction runs once per block.
    """
    n = params.n_users
    if channels.n_users != n:
        raise ValueError("channels and params disagree on the user count")
    _check_request(schemes, beta_grid, n)

    gains = np.asarray(channels.gains, dtype=float)
    ranks = _ranks([policy_order_lpwu(n), policy_order_lpsu(n)], n)
    pol_ids = _order_ids(ranks).tolist()
    if _ENUM_SCHEMES & set(schemes):
        sec_ranks, ids, fav = _secure_bundle(n)
        ranks = np.concatenate([sec_ranks, ranks])
    columns = _column_index(ranks)
    alphas = power_allocation_grid(channels, beta_grid)
    inv_rho = 1.0 / params.rho_t
    block = max(1, _SCORE_BUDGET // len(ranks))

    result: dict[str, list[SweepPoint]] = {s: [] for s in schemes}
    for start in range(0, len(alphas), block):
        betas = list(beta_grid[start:start + block])
        rates = _secrecy_rates(columns, gains, alphas[start:start + block], params.zeta, inv_rho)
        rates, pol_rates = rates[:, :-2], rates[:, -2:]
        mins = _row_min(rates)  # [b, K]
        for scheme in schemes:
            if scheme == SCHEME_BENCHMARK:
                values = mins.mean(axis=1).tolist()
                order_ids = [None] * len(betas)
                users = rates.mean(axis=1).tolist()
            elif scheme in (SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O):
                best = _best_rows(fav if scheme == SCHEME_OPTIMAL_L else ~fav, mins)
                rows, found = np.arange(len(betas)), best >= 0
                values = np.where(found, mins[rows, best], 0.0).tolist()
                users = np.where(found[:, None], rates[rows, best], 0.0).tolist()
                order_ids = [int(ids[k]) if k >= 0 else None for k in best.tolist()]
            else:
                k = 0 if scheme == SCHEME_POLICY_LPWU else 1
                values = _row_min(pol_rates[:, k]).tolist()
                order_ids = [pol_ids[k]] * len(betas)
                users = pol_rates[:, k].tolist()
            result[scheme] += [
                SweepPoint(beta=beta, value=value, order_id=oid, per_user_rates=tuple(rates_))
                for beta, value, oid, rates_ in zip(betas, values, order_ids, users)
            ]
    return result
