"""SINR and secrecy rates of decoding orders, max-min secrecy search over
order sets, benchmark averaging, and power-allocation sweeps.

An order set is an int array of per-column ranks, [K, N]: entry (k, m) is
the lexicographic rank of receiver m's column in order k, as in
``order_id``. Receiver m's SINRs depend only on its own column, so a set is
scored from a table that holds, for each distinct column the set uses, the
SINR of every user at that column's receiver. The secure set at N = 4 has
3036 orders but uses at most 4 * 24 distinct columns. ``_sinr_table`` is
the package's only SINR formula and ``_secrecy_rates`` its only rate
kernel: ``sinr`` and ``secrecy_rates`` score a single order as a set of one.

Rates are user-major, [..., N, K]: the rate table is transposed once per
call to [..., N, C], own rates come from one flat gather of it, and the
per-order minimum is taken over the user axis. A wiretap
rate is a max over the other receivers' columns, and max is exact, so the
taps are folded down the prefix tree of the set's columns
(``_Columns.levels``): at N = 4 the secure set's levels hold 6 / 48 / 392 /
3036 nodes, and the leaves take two [N, K] gathers whatever N is.

The kernel also takes leading axes: gains and alphas of shape [M, N], one
row per (trial, beta) cell, give an [M, C, N] table and [M, N, K] rates,
and each (cell, column) is still the same [N, N] matrix-vector product.
``_score_block`` flattens the (trial, beta) pairs of a block of trials into
one cell axis and scores up to ``_SCORE_BUDGET // K`` cells per kernel call
(``// C`` where the C table rows outnumber the K orders, as for the two
policy matrices alone), so at N <= 3 (K <= 14) about 14 trials x 21 betas
share one call and one pass of each reduction, while the 3038 orders at
N = 4 keep one cell per call. ``sweep_all`` is its one-trial call.

The benchmark's per-user mean adds the K orders' rates one after another,
the order the pinned outputs were made in: numpy sums a contiguous axis
pairwise, which would move the last bits of the exported rates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import orders as ord_mod
from .orders import (
    DecodingOrder,
    _column_permutations,
    _order_ids,
    _perm_rank,
    _perm_unrank,
    _secure_rank_blocks,
    policy_order_lpsu,
    policy_order_lpwu,
)
from .system import ChannelRealization, PowerAllocation, SystemParams, _alpha_grid

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
# rate rows (orders x (trial, beta) cells) scored per kernel call: one cell
# at N = 4, where more cells per call raise peak memory
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


class _Columns(NamedTuple):
    """The distinct columns an order set uses (C of them, grouped by
    receiver) and where its K orders find them; the arrays are read-only."""

    stage: np.ndarray  # [C, n]: the 0-based SIC stage of each user
    receiver: np.ndarray  # [C]: the column's receiver
    index: np.ndarray  # [K, n]: the table row of order k's column m
    own: np.ndarray  # [n, K]: position of user t's own rate in a flat [n, C] table
    # prefix tree of the orders' columns: levels[m - 1] is (parent, table row)
    # of each node of level m, a distinct prefix of columns 1..m; the parents
    # index level m - 1, whose only node at m = 1 is the root, and the last
    # level has one node per order, in order
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]


def _column_index(ranks: np.ndarray) -> _Columns:
    """The ``_Columns`` of the order set whose rank rows are ``ranks``, in
    any row order and with repeats allowed."""
    n = ranks.shape[1]
    index = np.empty(ranks.shape, dtype=np.intp)
    perms: list[tuple[int, ...]] = []
    receiver: list[int] = []
    for m in range(n):
        used, inverse = np.unique(ranks[:, m], return_inverse=True)
        index[:, m] = inverse + len(perms)
        perms += [_perm_unrank(n, int(r)) for r in used]
        receiver += [m] * len(used)
    c = len(perms)
    levels = []
    node = np.zeros(len(index), dtype=np.intp)  # each order's node on the current level
    for m in range(n - 1):
        prefixes, node = np.unique(node * c + index[:, m], return_inverse=True)
        levels.append((prefixes // c, prefixes % c))
    levels.append((node, index[:, -1]))
    columns = _Columns(
        stage=np.argsort(np.array(perms, dtype=np.intp).reshape(-1, n), axis=1),
        receiver=np.array(receiver, dtype=np.intp),
        index=index,
        own=index.T + np.arange(n)[:, None] * c,
        levels=tuple(levels),
    )
    for array in (*columns[:4], *(a for level in levels for a in level)):
        array.flags.writeable = False
    return columns


def _sinr_table(
    columns: _Columns,
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> np.ndarray:
    """SINR table [..., C, n] of the columns in ``columns`` (a
    ``_column_index``) for gains and alphas [..., n] with matching leading
    axes: entry (c, t) is the SINR of user t's signal at column c's
    receiver.

    Users decoded before t in the column leak only residual power (factor
    zeta); users decoded after t interfere at full power.
    """
    stage, receiver = columns.stage, columns.receiver
    diag = np.arange(gains.shape[-1])
    # weights[c, t, i]: zeta if column c decodes user i before user t, else 1; 0 for i == t
    weights = np.where(stage[:, None, :] < stage[:, :, None], zeta, 1.0)
    weights[:, diag, diag] = 0.0
    g = np.take(gains, receiver, axis=-1)[..., None]
    gamma = np.matmul(weights, alphas[..., None, :, None])[..., 0]
    gamma *= g
    gamma += inv_rho
    with np.errstate(over="ignore"):  # an overflow is reported just below
        table = alphas[..., None, :] * g / gamma
    if not np.isfinite(table).all():
        raise ValueError(
            "SINR overflows: the transmit SNR times a channel gain exceeds the float "
            "range; check pt_dbm, noise_dbm and the path-loss constant"
        )
    return table


def _secrecy_rates(
    columns: _Columns,
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> np.ndarray:
    """Clamped secrecy rates [..., n, K] of each user in each order of the
    set whose ``_Columns`` is ``columns``, for gains and alphas [..., n]."""
    # [..., n, C]: user t's rate at column c's receiver
    rate = np.log2(1.0 + _sinr_table(columns, gains, alphas, zeta, inv_rho))
    rate = np.swapaxes(rate, -1, -2).copy()
    # the take method skips np.take's wrapper, a few us a call at N = 4
    own = rate.reshape(*rate.shape[:-2], -1).take(columns.own, axis=-1)
    # rates are >= 0, so zeroing each user's rate at its own receiver and
    # starting the taps at 0 changes no max and gives a single user no
    # eavesdropper
    rate[..., columns.receiver, np.arange(rate.shape[-1])] = 0.0
    tap = np.zeros((*rate.shape[:-1], 1))
    for parent, row in columns.levels:
        tap = np.maximum(tap.take(parent, axis=-1), rate.take(row, axis=-1))
    return np.maximum(0.0, own - tap)


@lru_cache(maxsize=8)
def _secure_bundle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column ranks, ids and favourable mask of the secure orders,
    ascending by id. The arrays are read-only."""
    ranks = np.concatenate(list(_secure_rank_blocks(n)))
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
    return float(table[columns.index[0, m - 1], n - 1])


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
    return tuple(float(r) for r in _secrecy_rates(columns, gains, alphas, zeta, inv_rho)[:, 0])


def _best_rows(feasible: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Per row of ``feasible`` [..., K], the per-order minima with 0 for
    infeasible orders and the orders ascending by id: index of the max-min
    order among the ascending order indices ``subset``, the first (smallest
    id) of a tie, or -1 when none of them is feasible."""
    if len(subset) == 0:
        return np.full(feasible.shape[:-1], -1, dtype=np.intp)
    vals = feasible.take(subset, axis=-1)
    return np.where(vals.max(axis=-1) > 0.0, subset[vals.argmax(axis=-1)], -1)


def _best_of(mask: np.ndarray, mins: np.ndarray, ids: np.ndarray) -> int | None:
    """Index of the max-min feasible order within ``mask``; id breaks ties."""
    if len(mins) == 0:
        return None
    by_id = np.argsort(ids, kind="stable")
    feasible = np.where(mins[by_id] > 0.0, mins[by_id], 0.0)
    k = int(_best_rows(feasible, np.flatnonzero(mask[by_id])))
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
    rates = _secrecy_rates(_column_index(ranks), gains, alphas, zeta, inv_rho)
    mins = np.minimum.reduce(rates, axis=-2)
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
    rates = _secrecy_rates(columns, gains, alphas, zeta, inv_rho)
    return float(np.minimum.reduce(rates, axis=-2).mean())


@lru_cache(maxsize=16)
def _scored_set(
    n: int, secure: bool
) -> tuple[_Columns, np.ndarray, dict[str, np.ndarray], tuple[int, int]]:
    """What a sweep at n users scores: the secure orders (when ``secure``)
    followed by the LPWU and LPSU matrices. Returns (their
    ``_column_index``, secure ids, the ascending indices of the secure
    orders each optimal scheme searches, the two policy ids); the arrays
    are read-only."""
    ranks = _ranks([policy_order_lpwu(n), policy_order_lpsu(n)], n)
    pol_ids = tuple(_order_ids(ranks).tolist())
    ids, searched = np.empty(0), {}
    if secure:
        sec_ranks, ids, fav = _secure_bundle(n)
        ranks = np.concatenate([sec_ranks, ranks])
        searched = {SCHEME_OPTIMAL_L: np.flatnonzero(fav), SCHEME_OPTIMAL_O: np.flatnonzero(~fav)}
    for array in (ids, *searched.values()):
        array.flags.writeable = False
    return _column_index(ranks), ids, searched, pol_ids


def _cells_per_call(columns: _Columns) -> int:
    """(trial, beta) cells per kernel call: each cell takes K rate rows and C
    table rows, and the larger of the two is held to ``_SCORE_BUDGET`` rows
    in total, at least one cell per call."""
    return max(1, _SCORE_BUDGET // max(len(columns.index), len(columns.receiver)))


def _trials_per_block(schemes: Sequence[str], n_users: int, n_betas: int) -> int:
    """Trials whose (trial, beta) cells fit in one kernel call, at least 1."""
    columns = _scored_set(n_users, bool(_ENUM_SCHEMES & set(schemes)))[0]
    return max(1, _cells_per_call(columns) // n_betas)


def _score_block(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: Sequence[ChannelRealization],
    params: SystemParams,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Evaluate several schemes over a beta grid on each of T channel draws.

    Returns, per scheme, (values [T, B], order ids [T, B] as an object array,
    per-user rates [T, B, n]). For each beta the power allocation follows
    the fractional rule; the optimal-* schemes search their order subset
    (order id None where no order is feasible), the policy schemes score
    their single matrix, and the benchmark averages the secure set (order id
    None). The secure set (when a scheme needs it) and the two policy
    matrices are scored together, ``_cells_per_call`` (trial, beta) cells
    per kernel call, and each scheme's reduction runs once per call.
    """
    n = params.n_users
    if any(ch.n_users != n for ch in channels):
        raise ValueError("channels and params disagree on the user count")
    _check_request(schemes, beta_grid, n)

    columns, ids, searched, pol_ids = _scored_set(n, bool(_ENUM_SCHEMES & set(schemes)))
    gains = np.array([ch.gains for ch in channels], dtype=float)
    alphas = _alpha_grid(gains, beta_grid)  # [T, B, n]
    shape = alphas.shape[:-1]
    cell_alphas = alphas.reshape(-1, n)
    cell_gains = np.repeat(gains, shape[1], axis=0)
    cells = len(cell_alphas)
    inv_rho = 1.0 / params.rho_t
    step = _cells_per_call(columns)

    values = {s: np.empty(cells) for s in schemes}
    users = {s: np.empty((cells, n)) for s in schemes}
    optimal = (SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O)
    best = {s: np.empty(cells, dtype=np.intp) for s in schemes if s in optimal}
    for start in range(0, cells, step):
        part = slice(start, start + step)
        rates = _secrecy_rates(columns, cell_gains[part], cell_alphas[part], params.zeta, inv_rho)
        # the per-order minimum, [c, K], as a fold over the user rows: numpy's
        # reduce over the user axis runs an inner loop of K per (cell, user),
        # slow when K is short and the cells many
        mins = reduce(np.minimum, rates.swapaxes(0, 1))
        # feasible values are > 0, so 0 marks the rest and never wins
        feasible = np.where(mins > 0.0, mins, 0.0) if best else None
        for scheme in schemes:
            if scheme == SCHEME_BENCHMARK:
                values[scheme][part] = mins[:, :-2].mean(axis=1)
                # a left-to-right sum over the orders, whose last bits the
                # exported per-user rates carry
                total = np.add.accumulate(rates[..., :-2], axis=-1)[..., -1]
                users[scheme][part] = total / len(ids)
            elif scheme in optimal:
                k = _best_rows(feasible, searched[scheme])
                rows, found = np.arange(len(k)), k >= 0
                values[scheme][part] = np.where(found, mins[rows, k], 0.0)
                users[scheme][part] = np.where(found[:, None], rates[rows, :, k], 0.0)
                best[scheme][part] = k
            else:
                k = -2 if scheme == SCHEME_POLICY_LPWU else -1
                values[scheme][part] = mins[:, k]
                users[scheme][part] = rates[..., k]

    # the benchmark averages orders, so it has no order id
    fixed_id = {SCHEME_POLICY_LPWU: pol_ids[0], SCHEME_POLICY_LPSU: pol_ids[1]}
    result = {}
    for scheme in schemes:
        if scheme in best:
            order_ids = np.where(best[scheme] >= 0, ids[best[scheme]], None)
        else:
            order_ids = np.full(cells, fixed_id.get(scheme), dtype=object)
        result[scheme] = (
            values[scheme].reshape(shape),
            order_ids.reshape(shape),
            users[scheme].reshape(*shape, n),
        )
    return result


def sweep_all(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> dict[str, list[SweepPoint]]:
    """Evaluate several schemes over a beta grid on one channel draw: the
    one-trial call of ``_score_block``, one ``SweepPoint`` per beta."""
    scores = _score_block(schemes, beta_grid, [channels], params)
    return {
        scheme: [
            SweepPoint(beta=beta, value=value, order_id=oid, per_user_rates=tuple(rates))
            for beta, value, oid, rates in zip(
                beta_grid, values[0].tolist(), order_ids[0].tolist(), users[0].tolist()
            )
        ]
        for scheme, (values, order_ids, users) in scores.items()
    }
