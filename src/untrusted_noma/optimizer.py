"""SINR and secrecy rates of decoding orders, max-min secrecy search over
order sets, benchmark averaging, and the block scorer behind the
power-allocation sweeps.

An order set is an int array of per-column ranks, [K, N]: entry (k, m) is
the lexicographic rank of receiver m's column in order k, as in
``order_id``. Receiver m's SINRs depend only on its own column, so a set is
scored from a table that holds, for each distinct column the set uses, the
SINR of every user at that column's receiver. The secure set at N = 4 has
3036 orders but uses at most 4 * 24 distinct columns. ``_sinr_table`` is
the package's only SINR formula, and ``_rate_table`` with ``_score_orders``
its only rate kernel: ``sinr`` and ``secrecy_rates`` score a single order
as a set of one, and ``_order_rates`` re-reads chosen orders' per-user
rates from the same table.

Rates are order-major, [K, N, c]: orders, then users, then the (trial,
beta) cells, contiguous last, so every gather copies whole rows of N * c
floats. A wiretap rate is a max over the other receivers' columns, and max
is exact, so the taps are folded down the prefix tree of the set's columns
(``_Columns.levels``): at N = 4 the secure set's levels hold 6 / 48 / 392 /
3036 nodes, and the leaves take two gathers whatever N is. The leaf level is
walked in chunks of ``_SCORE_BUDGET // c`` orders, so a call's working set
is the [c, K] minima plus a few chunks, and the per-order minimum is a fold
over the user rows of each chunk.

``_score_block`` flattens the (trial, beta) pairs of the block of trials it
is handed into one cell axis and scores them in one kernel call. Its
callers size a block with ``_trials_per_block``: as many trials as keep
cells x max(K, C) within ``_SCORE_BUDGET``, and at least one, so 13 to 65
trials x 21 betas at N <= 3 (K <= 14) and one trial's whole beta grid at
N = 4. They also check the request (``_check_request``) before the call.

The benchmark's per-user mean adds the K orders' rates one after another,
the order the pinned outputs were made in: numpy sums a contiguous axis
pairwise, which would move the last bits of the exported rates. Over the
leading order axis, ``np.add.reduce`` adds row after row, and each chunk
carries the running sum in as its leading row. Its value is the mean of
the [c, K] minima, a pairwise sum along each cell's row.
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
    "sinr",
    "secrecy_rates",
    "max_min_order",
    "benchmark_average",
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
# (order, cell) pairs scored at once: a kernel call takes as many trials'
# beta grids as fit, at least one, and walks the leaf orders in chunks of
# this many pairs
_SCORE_BUDGET = 4096


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a max-min search: best order (if any order was feasible),
    its worst-user secrecy rate, and the feasibility bookkeeping."""

    best_order_id: int | None
    best_value: float
    feasible_count: int
    evaluated_count: int


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
    _check_scheme_cap(schemes, n_users)


def _check_scheme_cap(schemes: Sequence[str], n_users: int) -> None:
    """Raise ValueError if a scheme that needs the secure set asks for more
    than ENUMERATION_CAP users."""
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
        levels=tuple(levels),
    )
    for array in (*columns[:3], *(a for level in levels for a in level)):
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


def _rate_table(
    columns: _Columns,
    gains: np.ndarray,
    alphas: np.ndarray,
    zeta: float,
    inv_rho: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Rates of the columns in ``columns`` for gains and alphas [c, n], one
    row per cell: (rate [C, n, c], own [C, c]). rate[r, t, j] is user t's
    rate at column r's receiver in cell j, 0 for the receiver itself, whose
    own rate is own[r, j]."""
    rate = np.log2(1.0 + _sinr_table(columns, gains, alphas, zeta, inv_rho))
    rate = rate.transpose(1, 2, 0).copy()
    at_receiver = (np.arange(len(rate)), columns.receiver)
    own = rate[at_receiver]
    # rates are >= 0, so a zero at the receiver and taps that start at 0
    # change no max and give a single user no eavesdropper
    rate[at_receiver] = 0.0
    return rate, own


def _score_orders(
    columns: _Columns, rate: np.ndarray, own: np.ndarray, summed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-order minimum secrecy rate [c, K] of each order of the set in
    each cell, from a ``_rate_table``, and the per-user sum [n, c] of the
    first ``summed`` orders' rates, added left to right."""
    n, c = rate.shape[1:]
    tap = np.zeros((1, n, c))
    for parent, row in columns.levels[:-1]:
        node = rate.take(row, axis=0)
        tap = np.maximum(node, tap.take(parent, axis=0), out=node)
    parent, row = columns.levels[-1]
    mins = np.empty((c, len(row)))
    step = max(1, _SCORE_BUDGET // c)
    # the chunk's rates follow a leading row that carries the running sum
    # into it: a reduce over the leading axis adds row after row
    buf = np.zeros((1 + min(step, len(row)), n, c))
    for start in range(0, len(row), step):
        part = slice(start, start + step)
        rates = buf[1 : 1 + len(row[part])]
        # mode "clip" lets take write to ``out`` without a buffer
        rate.take(row[part], axis=0, out=rates, mode="clip")
        np.maximum(rates, tap.take(parent[part], axis=0), out=rates)
        np.subtract(own.take(columns.index[part], axis=0), rates, out=rates)
        np.maximum(rates, 0.0, out=rates)
        mins[:, part] = reduce(np.minimum, rates.swapaxes(0, 1)).T
        if start < summed:
            buf[0] = np.add.reduce(buf[: 1 + min(len(rates), summed - start)], axis=0)
    return mins, buf[0]


def _order_rates(columns: _Columns, rate: np.ndarray, own: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-user secrecy rates [S, n, c] of order k[s, j] of the set in cell
    j, for picks k [S, c], read from a ``_rate_table``."""
    n, c = rate.shape[1:]
    rows = columns.index.T.take(k, axis=1)  # [n, S, c]: the table row of each pick's column m
    # taps[m, t, s, j] = rate[rows[m, s, j], t, j], gathered with the cells innermost
    at = (rows * (n * c) + np.arange(c))[:, None] + np.arange(0, n * c, c)[:, None, None]
    taps = rate.take(at)
    rates = np.maximum(own.take(rows * c + np.arange(c)) - reduce(np.maximum, taps), 0.0)
    return rates.swapaxes(0, 1)


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
    """Gains and alphas [1, n] of one cell, zeta and 1 / rho_t."""
    gains = np.asarray(channels.gains, dtype=float)
    alphas = np.asarray(alpha.alphas, dtype=float)
    if len(alphas) != len(gains) or params.n_users != len(gains):
        raise ValueError("channels, alpha and params disagree on the user count")
    return gains[None], alphas[None], params.zeta, 1.0 / params.rho_t


def _one_cell(
    ranks: np.ndarray, channels: ChannelRealization, alpha: PowerAllocation, params: SystemParams
) -> tuple[_Columns, tuple[np.ndarray, np.ndarray]]:
    """The ``_column_index`` of the order set ``ranks`` and its one-cell
    ``_rate_table``."""
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    columns = _column_index(ranks)
    return columns, _rate_table(columns, gains, alphas, zeta, inv_rho)


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
    return float(table[0, columns.index[0, m - 1], n - 1])


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
    columns, table = _one_cell(_ranks([order], channels.n_users), channels, alpha, params)
    return tuple(_order_rates(columns, *table, np.zeros((1, 1), dtype=np.intp))[0, :, 0].tolist())


def _best_rows(mins: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Per row of ``mins`` [..., K], the per-order minima (0 for infeasible
    orders) with the orders ascending by id: index of the max-min order
    among the ascending order indices ``subset``, the first (smallest id) of
    a tie, or -1 when none of them is feasible."""
    if len(subset) == 0:
        return np.full(mins.shape[:-1], -1, dtype=np.intp)
    vals = mins.take(subset, axis=-1)
    return np.where(vals.max(axis=-1) > 0.0, subset[vals.argmax(axis=-1)], -1)


def _best_of(mask: np.ndarray, mins: np.ndarray, ids: np.ndarray) -> int | None:
    """Index of the max-min feasible order within ``mask``; id breaks ties."""
    if len(mins) == 0:
        return None
    by_id = np.argsort(ids, kind="stable")
    k = int(_best_rows(mins[by_id], np.flatnonzero(mask[by_id])))
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
    ranks = _ranks(order_source, channels.n_users)
    columns, table = _one_cell(ranks, channels, alpha, params)
    mins = _score_orders(columns, *table)[0][0]
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
    orders where some user ends up at exactly zero contribute that zero.
    Refuses more than ENUMERATION_CAP users."""
    _check_scheme_cap([SCHEME_BENCHMARK], channels.n_users)
    columns, table = _one_cell(_secure_bundle(channels.n_users)[0], channels, alpha, params)
    return float(_score_orders(columns, *table)[0][0].mean())


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


def _trials_per_block(schemes: Sequence[str], n_users: int, n_betas: int) -> int:
    """Trials whose (trial, beta) cells one kernel call scores: each cell
    takes K rate rows and C table rows, and the larger of the two is held
    to ``_SCORE_BUDGET`` rows in total, at least one trial per call."""
    columns = _scored_set(n_users, bool(_ENUM_SCHEMES & set(schemes)))[0]
    rows = max(len(columns.index), len(columns.receiver))
    return max(1, _SCORE_BUDGET // (rows * n_betas))


def _score_block(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: Sequence[ChannelRealization],
    params: SystemParams,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Evaluate several schemes over a beta grid on each of T channel draws,
    in one kernel call. The caller checks the request and sizes the block
    (``_trials_per_block``).

    Returns, per scheme, (values [T, B], order ids [T, B] as an object array,
    per-user rates [T, B, n]). For each beta the power allocation follows
    the fractional rule; the optimal-* schemes search their order subset
    (order id None where no order is feasible), the policy schemes score
    their single matrix, and the benchmark averages the secure set (order id
    None). The secure set (when a scheme needs it) and the two policy
    matrices are scored together, and each scheme's reduction runs once.
    """
    n = params.n_users
    columns, ids, searched, pol_ids = _scored_set(n, bool(_ENUM_SCHEMES & set(schemes)))
    gains = np.array([ch.gains for ch in channels], dtype=float)
    alphas = _alpha_grid(gains, beta_grid)  # [T, B, n]
    shape = alphas.shape[:-1]
    cell_gains = np.repeat(gains, shape[1], axis=0)
    inv_rho = 1.0 / params.rho_t
    table = _rate_table(columns, cell_gains, alphas.reshape(-1, n), params.zeta, inv_rho)
    summed = len(ids) if SCHEME_BENCHMARK in schemes else 0
    mins, total = _score_orders(columns, *table, summed)
    cells = len(mins)

    def block(values, order_ids, users):  # per-cell arrays as [T, B] ([T, B, n])
        return values.reshape(shape), order_ids.reshape(shape), users.T.reshape(*shape, n)

    # the schemes that pick one order per cell; the policy matrices are the
    # last two orders scored
    picked = [s for s in schemes if s != SCHEME_BENCHMARK]
    policy = {
        SCHEME_POLICY_LPWU: (len(columns.index) - 2, pol_ids[0]),
        SCHEME_POLICY_LPSU: (len(columns.index) - 1, pol_ids[1]),
    }
    k = np.empty((len(picked), cells), dtype=np.intp)  # the order picked per cell, -1 for none
    for i, scheme in enumerate(picked):
        k[i] = _best_rows(mins, searched[scheme]) if scheme in searched else policy[scheme][0]
    rates = np.where(k[:, None] >= 0, _order_rates(columns, *table, k), 0.0)  # [S, n, c]
    # the picked order's minimum, 0 where none is picked
    values = reduce(np.minimum, rates.swapaxes(0, 1))
    result = {}
    for i, scheme in enumerate(picked):
        if scheme in searched:
            order_ids = np.where(k[i] >= 0, ids[k[i]], None)
        else:
            order_ids = np.full(cells, policy[scheme][1], dtype=object)
        result[scheme] = block(values[i], order_ids, rates[i])
    if summed:
        # the benchmark averages orders, so it has no order id
        none = np.full(cells, None, dtype=object)
        result[SCHEME_BENCHMARK] = block(mins[:, :-2].mean(axis=1), none, total / len(ids))
    return {scheme: result[scheme] for scheme in schemes}
