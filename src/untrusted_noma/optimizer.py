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
rates from the same table. The kernel scores a set whose orders ascend by
id, repeats allowed: ``max_min_order`` sorts its source, and a sweep
scores the secure set, which holds both policy matrices, or else the
policy matrices alone (``_scored_set``).

Rates are order-major, [K, N, c]: orders, then users, then the (trial,
beta) cells, contiguous last, so every gather copies whole rows of N * c
floats. A wiretap rate is a max over the other receivers' columns, and max
is exact, so the taps are folded down the prefix tree of the set's columns
(``_Columns.levels``): at N = 4 the secure set's levels hold 6 / 48 / 392 /
3036 nodes, and the leaves take two gathers whatever N is. The leaf level is
walked in chunks of ``_SCORE_BUDGET // c`` orders, and the level above it is
not held whole but built a window of that many nodes at a time, from a
chunk's first parent on: leaves that ascend by id step through their
parents one at a time, so no chunk outruns its window. A call's working set
is the [c, K] minima plus a few chunks, and the per-order minimum is a fold
over the user rows of each chunk. The optimal schemes copy their orders'
minima out a slice of rows at a time (``_best_rows``).

``_score_block`` flattens the (trial, beta) pairs of the block of trials it
is handed into one cell axis and scores them in one kernel call. It returns
the block layout that records and writers read, and its callers size a
block with ``_trials_per_block``, by one bound on the floats a call holds
per cell (``_cell_floats``, ``_BLOCK_FLOATS``). A request is checked once
(``_check_request``) before its first call. A caller that reads only
values asks for them alone (picks and rates are then None), which skips
the benchmark's per-user sum and the re-read of the picked orders' rates.

The benchmark's per-user mean adds the K orders' rates one after another,
the order the pinned outputs were made in: numpy sums a contiguous axis
pairwise, which would move the last bits of the exported rates. Over the
leading order axis, ``np.add.reduce`` adds row after row, and each chunk
carries the running sum in as its leading row. Its value is the mean of
the [c, K] minima, a pairwise sum along each cell's row.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import orders as ord_mod
from .orders import (
    DecodingOrder,
    _column_table,
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
# (order, cell) pairs the leaf walk scores at once: it takes the leaf orders
# in chunks of this many pairs, at least one order
_SCORE_BUDGET = 4096
# floats a kernel call holds for all its (trial, beta) cells together: a call
# takes as many trials' beta grids as fit, at least one (``_trials_per_block``)
_BLOCK_FLOATS = 1 << 18
# values ``_best_rows`` copies out of the per-order minima at a time
_ROW_SLICE = 1 << 14


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
    the beta grid is nonempty and within [-1, 1], no scheme that needs the
    secure set asks for more than ENUMERATION_CAP users, and ``str`` can
    print every order id at ``n_users`` under Python's int digit limit."""
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
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit:
        # ids at N users run up to (N!)^N - 1: the largest N <= n_users whose ids fit
        largest, bound = 0, 10**limit
        while largest < n_users and math.factorial(largest + 1) ** (largest + 1) <= bound:
            largest += 1
        if largest < n_users:
            raise ValueError(
                f"order ids at {n_users} users pass Python's {limit}-digit limit for "
                f"printing an int; they can be printed for at most {largest} users"
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
    columns: _Columns, rate: np.ndarray, own: np.ndarray, summed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-order minimum secrecy rate [c, K] of each order of the set in
    each cell, from a ``_rate_table``, and the per-user sum [n, c] of all
    the orders' rates, added left to right, when ``summed`` (else zeros).
    The orders must ascend by id, repeats allowed; a set whose leaves'
    parents descend raises ValueError."""
    n, c = rate.shape[1:]
    *inner, (parent, row) = columns.levels
    if (np.diff(parent) < 0).any():
        raise ValueError("the orders of a scored set must ascend by id")
    # the leaves' parents (the root when the leaves are the only level) are
    # not held as a whole level but built a window of nodes at a time
    top = inner.pop() if inner else None
    tap = np.zeros((1, n, c))
    for node_parent, node_row in inner:
        node = rate.take(node_row, axis=0)
        tap = np.maximum(node, tap.take(node_parent, axis=0), out=node)

    def top_taps(nodes):
        node = rate.take(top[1][nodes], axis=0)
        return np.maximum(node, tap.take(top[0][nodes], axis=0), out=node)

    mins = np.empty((c, len(row)))
    step = max(1, _SCORE_BUDGET // c)
    # taps holds the parent nodes first .. first + step - 1
    first, taps = 0, tap if top is None else None
    # the chunk's rates follow a leading row that carries the running sum
    # into it: a reduce over the leading axis adds row after row
    buf = np.zeros((1 + min(step, len(row)), n, c))
    for start in range(0, len(row), step):
        part = slice(start, start + step)
        rates = buf[1 : 1 + len(row[part])]
        if taps is None or parent[part][-1] >= first + step:
            first = parent[start]
            taps = top_taps(slice(first, first + step))
        near = parent[part] - first
        # mode "clip" lets take write to ``out`` without a buffer
        rate.take(row[part], axis=0, out=rates, mode="clip")
        np.maximum(rates, taps.take(near, axis=0), out=rates)
        np.subtract(own.take(columns.index[part], axis=0), rates, out=rates)
        np.maximum(rates, 0.0, out=rates)
        mins[:, part] = reduce(np.minimum, rates.swapaxes(0, 1)).T
        if summed:
            buf[0] = np.add.reduce(buf[: 1 + len(rates)], axis=0)
    return mins, buf[0]


def _order_rates(columns: _Columns, rate: np.ndarray, own: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-user secrecy rates [S, n, c] of order k[s, j] of the set in cell
    j, for picks k [S, c], read from a ``_rate_table``. The wiretap rates
    are a max over the receivers, each one gather of the picks' rows of
    its column, so the call holds three [S, n, c] arrays at a time: the
    rates, one receiver's rows and their positions."""
    n, c = rate.shape[1:]
    cells = np.arange(c)
    offsets = np.arange(0, n * c, c)[:, None] + cells  # [n, c]: user t's rate in cell j
    rates = np.zeros((len(k), n, c))
    for m in range(n):
        at = columns.index[:, m].take(k) * (n * c)  # [S, c]: where the pick's column m starts
        np.maximum(rates, rate.take(at[:, None] + offsets), out=rates)
    for m in range(n):
        own_m = own.take(columns.index[:, m].take(k) * c + cells)
        np.subtract(own_m, rates[:, m], out=rates[:, m])
    return np.maximum(rates, 0.0, out=rates)


def _as_arrays(channels: ChannelRealization, alpha: PowerAllocation, params: SystemParams):
    """Gains and alphas [1, n] of one cell, zeta and 1 / rho_t."""
    gains = np.asarray(channels.gains, dtype=float)
    alphas = np.asarray(alpha.alphas, dtype=float)
    if len(alphas) != len(gains) or params.n_users != len(gains):
        raise ValueError("channels, alpha and params disagree on the user count")
    return gains[None], alphas[None], params.zeta, 1.0 / params.rho_t


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
    columns = _column_index(_ranks([order], channels.n_users))
    table = _rate_table(columns, *_as_arrays(channels, alpha, params))
    return tuple(_order_rates(columns, *table, np.zeros((1, 1), dtype=np.intp))[0, :, 0].tolist())


def _best_rows(mins: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Per row of ``mins`` [c, K], the per-order minima (0 for infeasible
    orders) with the orders ascending by id: index of the max-min order
    among the ascending order indices ``subset``, the first (smallest id) of
    a tie, or -1 when none of them is feasible. The subset's columns are
    copied a slice of rows at a time."""
    best = np.full(len(mins), -1, dtype=np.intp)
    if len(subset):
        step = max(1, _ROW_SLICE // len(subset))
        for start in range(0, len(mins), step):
            vals = mins[start : start + step].take(subset, axis=-1)
            k = vals.argmax(axis=-1)
            feasible = vals[np.arange(len(k)), k] > 0.0
            best[start : start + step] = np.where(feasible, subset[k], -1)
    return best


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
    ids = _order_ids(ranks)
    by_id = np.argsort(ids, kind="stable")
    ids = ids[by_id]
    columns = _column_index(ranks[by_id])
    table = _rate_table(columns, *_as_arrays(channels, alpha, params))
    mins = _score_orders(columns, *table)[0]
    k = int(_best_rows(mins, np.arange(len(ids)))[0])
    return SearchOutcome(
        best_order_id=None if k < 0 else int(ids[k]),
        best_value=0.0 if k < 0 else float(mins[0, k]),
        feasible_count=int((mins > 0.0).sum()),
        evaluated_count=len(ids),
    )


def benchmark_average(
    channels: ChannelRealization,
    alpha: PowerAllocation,
    params: SystemParams,
) -> float:
    """Mean over all secure orders of the per-order minimum secrecy rate;
    orders where some user ends up at exactly zero contribute that zero.
    Refuses more than ENUMERATION_CAP users."""
    _check_request([SCHEME_BENCHMARK], [alpha.beta], channels.n_users)
    columns = _scored_set(channels.n_users, True)[0]
    table = _rate_table(columns, *_as_arrays(channels, alpha, params))
    return float(_score_orders(columns, *table)[0][0].mean())


@lru_cache(maxsize=16)
def _scored_set(n: int, secure: bool) -> tuple[_Columns, np.ndarray, dict[str, np.ndarray]]:
    """What a sweep at n users scores: the secure set S (when ``secure``),
    as the secure walk lists it, or else the distinct LPWU and LPSU
    matrices, ascending by id. Both matrices decode each user last, so they
    lie in S. Returns (their ``_column_index``, their ids, and per scheme
    that picks an order the ascending indices of the orders it may pick:
    the favourable orders of S for optimal-L, the rest of S for optimal-O,
    the one matrix for each policy); the arrays are read-only. This is the
    package's only cache of S."""
    ranks = _ranks([policy_order_lpwu(n), policy_order_lpsu(n)], n)
    policy_ids = _order_ids(ranks)
    if secure:
        ranks = np.concatenate(list(_secure_rank_blocks(n)))
        ids = _order_ids(ranks)
        fav = (_column_table(n)[ranks, -1] == np.arange(1, n + 1)).all(axis=1)
        picks = {SCHEME_OPTIMAL_L: np.flatnonzero(fav), SCHEME_OPTIMAL_O: np.flatnonzero(~fav)}
    else:
        ids, first = np.unique(policy_ids, return_index=True)
        ranks, picks = ranks[first], {}
    picks[SCHEME_POLICY_LPWU], picks[SCHEME_POLICY_LPSU] = np.searchsorted(ids, policy_ids)[:, None]
    for array in (ids, *picks.values()):
        array.flags.writeable = False
    return _column_index(ranks), ids, picks


def _request_set(schemes: Sequence[str], n_users: int) -> tuple[_Columns, np.ndarray, dict]:
    """The ``_scored_set`` a request for ``schemes`` scores: S when one of
    them needs it, else the policy matrices."""
    return _scored_set(n_users, bool(_ENUM_SCHEMES & set(schemes)))


def _cell_floats(schemes: Sequence[str], n_users: int) -> int:
    """Floats a kernel call holds per (trial, beta) cell in the arrays that
    grow with it: its K per-order minima, its C x n entries of the SINR
    table and of the rate table, and, for each scheme that picks an order,
    the 3 x n of ``_order_rates``. Only these arrays stay within
    ``_BLOCK_FLOATS``: a full block's peak also holds the picks, values,
    gather rows and the returned block, and with every scheme it reaches
    about 2.5x the bound at N = 1, 1.7x at N = 2 and 1.1x at N = 3 and 4."""
    columns = _request_set(schemes, n_users)[0]
    picked = sum(scheme != SCHEME_BENCHMARK for scheme in schemes)
    return len(columns.index) + (2 * len(columns.receiver) + 3 * picked) * n_users


def _trials_per_block(schemes: Sequence[str], n_users: int, n_betas: int) -> int:
    """Trials whose (trial, beta) cells one kernel call scores: as many as
    keep their ``_cell_floats`` within ``_BLOCK_FLOATS``, and at least one.
    With every scheme and the 21-point grid that is 122 (N = 3) to 832
    (N = 1) trials at N <= 3 and three trials at N = 4."""
    return max(1, _BLOCK_FLOATS // (_cell_floats(schemes, n_users) * n_betas))


def _score_block(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    gains: np.ndarray,
    params: SystemParams,
    values_only: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Evaluate several schemes over a beta grid on each of T channel draws,
    given as their descending gains [T, n], in one kernel call. The caller
    checks the request and sizes the block (``_trials_per_block``).

    Returns C-contiguous (values [T, S, B], picks [T, S, B], per-user rates
    [T, S, B, n]), the S schemes in request order, or the values and two
    Nones when ``values_only``. A pick is the index of the scored order in
    the ids of ``_request_set(schemes, n)``, or -1 for none. For each beta
    the power allocation follows the fractional rule; the optimal-* schemes
    search their order subset (-1 where no order is feasible), the policy
    schemes score their single matrix, and the benchmark averages the
    secure set (-1). The secure set (when a scheme needs it), or else the
    policy matrices, is scored once, each scheme's reduction runs once, and
    only the schemes that pick an order re-read its rates.
    """
    n = params.n_users
    columns, ids, picks = _request_set(schemes, n)
    gains = np.asarray(gains, dtype=float)
    trials, betas = len(gains), len(beta_grid)
    # the cells' gains and alphas [c, n] live only until the table is built
    table = _rate_table(
        columns,
        np.repeat(gains, betas, axis=0),
        _alpha_grid(gains, beta_grid).reshape(-1, n),
        params.zeta,
        1.0 / params.rho_t,
    )
    summed = SCHEME_BENCHMARK in schemes and not values_only
    mins, total = _score_orders(columns, *table, summed)
    cells = len(mins)

    # the order each scheme takes per cell, -1 for none: the optimal schemes
    # search their subset, the policies take their matrix, and the benchmark
    # averages the orders, so it picks none
    k = np.full((len(schemes), cells), -1, dtype=np.intp)
    for i, scheme in enumerate(schemes):
        if scheme in (SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O):
            k[i] = _best_rows(mins, picks[scheme])
        elif scheme != SCHEME_BENCHMARK:
            k[i] = picks[scheme]
    # the picked order's minimum, 0 where none is picked
    values = np.where(k >= 0, mins[np.arange(cells), k], 0.0)
    if SCHEME_BENCHMARK in schemes:
        values[schemes.index(SCHEME_BENCHMARK)] = mins.mean(axis=1)
    # the cells run trial by trial, so [S, c] is [S, T, B]
    values = values.reshape(-1, trials, betas).swapaxes(0, 1).copy()
    if values_only:
        return values, None, None

    picked = [i for i, scheme in enumerate(schemes) if scheme != SCHEME_BENCHMARK]
    chosen = k[picked]
    users = _order_rates(columns, *table, chosen)  # [S', n, c]
    np.copyto(users, 0.0, where=(chosen < 0)[:, None])
    rates = np.empty((trials, len(schemes), betas, n))
    rates[:, picked] = users.reshape(-1, n, trials, betas).transpose(2, 0, 3, 1)
    if summed:
        mean = (total / len(ids)).reshape(n, trials, betas)  # the benchmark's per-user mean
        rates[:, schemes.index(SCHEME_BENCHMARK)] = mean.transpose(1, 2, 0)
    return values, k.reshape(-1, trials, betas).swapaxes(0, 1).copy(), rates
