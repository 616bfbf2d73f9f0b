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
from .system import ChannelRealization, PowerAllocation, SystemParams, power_allocation

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
    """SINR table [C, n] of the columns in ``columns`` (a ``_column_index``):
    entry (c, t) is the SINR of user t's signal at column c's receiver.

    Users decoded before t in the column leak only residual power (factor
    zeta); users decoded after t interfere at full power.
    """
    stage, receiver, _ = columns
    diag = np.arange(len(gains))
    # weights[c, t, i]: zeta if column c decodes user i before user t, else 1; 0 for i == t
    weights = np.where(stage[:, None, :] < stage[:, :, None], zeta, 1.0)
    weights[:, diag, diag] = 0.0
    g = gains[receiver][:, None]
    gamma = weights @ alphas
    gamma *= g
    gamma += inv_rho
    return alphas * g / gamma


def _secrecy_rates(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> np.ndarray:
    """Clamped per-user secrecy rates [K, n] of the order set whose
    ``_column_index`` is ``columns``, for one (gains, alphas)."""
    index = columns[2]
    diag = np.arange(len(gains))
    # [C, n]: user t's rate at column c's receiver
    rate = np.log2(1.0 + _sinr_table(columns, gains, alphas, zeta, inv_rho))
    own = rate[index, diag]
    # rates are >= 0, so starting the wiretap max at 0 and leaving out the
    # own receiver changes no max and gives a single user no eavesdropper
    tap = np.zeros_like(own)
    for m in diag:
        seen = rate[index[:, m]]  # [K, t]: user t's rate at receiver m
        seen[:, m] = 0.0
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
    """Per-order minimum [K] of [K, n] rates, folded over the n columns:
    at K = 3038, n = 4 that takes 11 us against 167 us for min(axis=1)."""
    return reduce(np.minimum, rates.T)


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


def _best_of(mask: np.ndarray, mins: np.ndarray, ids: np.ndarray) -> int | None:
    """Index of the max-min feasible order within ``mask``; id breaks ties."""
    cand = np.flatnonzero(mask & (mins > 0.0))
    if cand.size == 0:
        return None
    best = cand[np.argmax(mins[cand])]
    tied = cand[mins[cand] == mins[best]]
    return int(tied[np.argmin(ids[tied])])


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
    """Evaluate several schemes over a beta grid with one pass per beta.

    For each beta the power allocation follows the fractional rule; the
    optimal-* schemes search their order subset, the policy schemes score
    their single matrix, and the benchmark averages the secure set. The
    secure set (when a scheme needs it) and the two policy matrices are
    scored together, in one kernel call per beta.
    """
    n = params.n_users
    if channels.n_users != n:
        raise ValueError("channels and params disagree on the user count")
    _check_request(schemes, beta_grid, n)

    gains = np.asarray(channels.gains, dtype=float)
    ranks = _ranks([policy_order_lpwu(n), policy_order_lpsu(n)], n)
    pol_ids = _order_ids(ranks)
    if _ENUM_SCHEMES & set(schemes):
        sec_ranks, ids, fav = _secure_bundle(n)
        ranks = np.concatenate([sec_ranks, ranks])
    columns = _column_index(ranks)

    result: dict[str, list[SweepPoint]] = {s: [] for s in schemes}
    zeros = (0.0,) * n
    for beta in beta_grid:
        alpha = power_allocation(channels, beta)
        alphas = np.asarray(alpha.alphas, dtype=float)
        rates = _secrecy_rates(columns, gains, alphas, params.zeta, 1.0 / params.rho_t)
        rates, pol_rates = rates[:-2], rates[-2:]
        mins = _row_min(rates)
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
                    order_id=int(pol_ids[k]),
                    per_user_rates=tuple(float(r) for r in pol_rates[k]),
                )
            result[scheme].append(point)
    return result
