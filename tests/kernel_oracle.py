"""Reference for the rate kernel: the user-major kernel and block reductions
that ``untrusted_noma.optimizer`` ran before its order-major kernel, kept as
they were. Rates are [..., n, K], one cell per call at N = 4, the per-order
minima are clamped to 0 before the max-min search, and the benchmark's
per-user sum is an ``np.add.accumulate`` along the order axis. It shares
the column index, the SINR table and the scored set with the package, and
no rate arithmetic, so tests compare the two bit for bit.

``per_column_sinr_table`` is the SINR table as the package built it before
it stacked the columns' weight matrices: one product per column.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from untrusted_noma import (
    ChannelRealization,
    DecodingOrder,
    PowerAllocation,
    SearchOutcome,
    SystemParams,
)
from untrusted_noma.optimizer import (
    SCHEME_BENCHMARK,
    SCHEME_OPTIMAL_L,
    SCHEME_OPTIMAL_O,
    _ENUM_SCHEMES,
    _check_request,
    _column_index,
    _ranks,
    _scored_set,
    _sinr_table,
)
from untrusted_noma.orders import _order_ids, _secure_rank_blocks
from untrusted_noma.system import _alpha_grid

# rate rows (orders x (trial, beta) cells) scored per kernel call
SCORE_BUDGET = 4096


def per_column_sinr_table(columns, gains, alphas, zeta: float, inv_rho: float) -> np.ndarray:
    """``_sinr_table`` with the interference sums taken as one [n, n]
    product per (cell, column) pair."""
    stage, receiver = columns.stage, columns.receiver
    diag = np.arange(gains.shape[-1])
    weights = np.where(stage[:, None, :] < stage[:, :, None], zeta, 1.0)
    weights[:, diag, diag] = 0.0
    g = np.take(gains, receiver, axis=-1)[..., None]
    gamma = np.matmul(weights, alphas[..., None, :, None])[..., 0]
    gamma *= g
    gamma += inv_rho
    return alphas[..., None, :] * g / gamma


def _own(columns) -> np.ndarray:
    """[n, K]: position of user t's own rate in a flat [n, C] table."""
    n, c = columns.index.shape[1], len(columns.receiver)
    return columns.index.T + np.arange(n)[:, None] * c


def user_major_rates(columns, gains, alphas, zeta: float, inv_rho: float) -> np.ndarray:
    """Clamped secrecy rates [..., n, K] of each user in each order of the
    set whose ``_Columns`` is ``columns``, for gains and alphas [..., n]."""
    # [..., n, C]: user t's rate at column c's receiver
    rate = np.log2(1.0 + _sinr_table(columns, gains, alphas, zeta, inv_rho))
    rate = np.swapaxes(rate, -1, -2).copy()
    own = rate.reshape(*rate.shape[:-2], -1).take(_own(columns), axis=-1)
    # rates are >= 0, so zeroing each user's rate at its own receiver and
    # starting the taps at 0 changes no max and gives a single user no
    # eavesdropper
    rate[..., columns.receiver, np.arange(rate.shape[-1])] = 0.0
    tap = np.zeros((*rate.shape[:-1], 1))
    for parent, row in columns.levels:
        tap = np.maximum(tap.take(parent, axis=-1), rate.take(row, axis=-1))
    return np.maximum(0.0, own - tap)


def best_rows(feasible: np.ndarray, subset: np.ndarray) -> np.ndarray:
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
    k = int(best_rows(feasible, np.flatnonzero(mask[by_id])))
    return None if k < 0 else int(by_id[k])


def _as_arrays(channels: ChannelRealization, alpha: PowerAllocation, params: SystemParams):
    return (
        np.asarray(channels.gains, dtype=float),
        np.asarray(alpha.alphas, dtype=float),
        params.zeta,
        1.0 / params.rho_t,
    )


def sinr(order: DecodingOrder, channels, alpha, params, n: int, m: int) -> float:
    """SINR when user m decodes user n's signal (1-based user indices)."""
    columns = _column_index(_ranks([order], channels.n_users))
    table = _sinr_table(columns, *_as_arrays(channels, alpha, params))
    return float(table[columns.index[0, m - 1], n - 1])


def secrecy_rates(order: DecodingOrder, channels, alpha, params) -> tuple[float, ...]:
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    columns = _column_index(_ranks([order], len(gains)))
    return tuple(float(r) for r in user_major_rates(columns, gains, alphas, zeta, inv_rho)[:, 0])


def max_min_order(order_source: Iterable[DecodingOrder], channels, alpha, params) -> SearchOutcome:
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    ranks = _ranks(order_source, len(gains))
    rates = user_major_rates(_column_index(ranks), gains, alphas, zeta, inv_rho)
    mins = np.minimum.reduce(rates, axis=-2)
    ids = _order_ids(ranks)
    k = _best_of(np.ones(len(mins), dtype=bool), mins, ids)
    return SearchOutcome(
        best_order_id=None if k is None else int(ids[k]),
        best_value=0.0 if k is None else float(mins[k]),
        feasible_count=int((mins > 0.0).sum()),
        evaluated_count=len(mins),
    )


def benchmark_average(channels, alpha, params) -> float:
    gains, alphas, zeta, inv_rho = _as_arrays(channels, alpha, params)
    columns = _column_index(np.concatenate(list(_secure_rank_blocks(len(gains)))))
    rates = user_major_rates(columns, gains, alphas, zeta, inv_rho)
    return float(np.minimum.reduce(rates, axis=-2).mean())


def score_block(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: Sequence[ChannelRealization],
    params: SystemParams,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per scheme, (values [T, B], picks [T, B], per-user rates [T, B, n]),
    which stacked along a scheme axis in request order are the arrays
    ``untrusted_noma.optimizer._score_block`` returns: a pick is the index
    of the scored order in the scored set's ids, -1 for none."""
    n = params.n_users
    _check_request(schemes, beta_grid, n)
    columns, ids, picks = _scored_set(n, bool(_ENUM_SCHEMES & set(schemes)))
    gains = np.array([ch.gains for ch in channels], dtype=float)
    alphas = _alpha_grid(gains, beta_grid)  # [T, B, n]
    shape = alphas.shape[:-1]
    cell_alphas = alphas.reshape(-1, n)
    cell_gains = np.repeat(gains, shape[1], axis=0)
    cells = len(cell_alphas)
    inv_rho = 1.0 / params.rho_t
    step = max(1, SCORE_BUDGET // max(len(columns.index), len(columns.receiver)))

    values = {s: np.empty(cells) for s in schemes}
    users = {s: np.empty((cells, n)) for s in schemes}
    optimal = (SCHEME_OPTIMAL_L, SCHEME_OPTIMAL_O)
    best = {s: np.empty(cells, dtype=np.intp) for s in schemes if s in optimal}
    for start in range(0, cells, step):
        part = slice(start, start + step)
        rates = user_major_rates(columns, cell_gains[part], cell_alphas[part], params.zeta, inv_rho)
        # the per-order minimum, [c, K], as a fold over the user rows: numpy's
        # reduce over the user axis runs an inner loop of K per (cell, user),
        # slow when K is short and the cells many
        mins = reduce(np.minimum, rates.swapaxes(0, 1))
        # feasible values are > 0, so 0 marks the rest and never wins
        feasible = np.where(mins > 0.0, mins, 0.0) if best else None
        for scheme in schemes:
            if scheme == SCHEME_BENCHMARK:
                values[scheme][part] = mins.mean(axis=1)
                # a left-to-right sum over the orders, whose last bits the
                # exported per-user rates carry
                total = np.add.accumulate(rates, axis=-1)[..., -1]
                users[scheme][part] = total / len(ids)
            elif scheme in optimal:
                k = best_rows(feasible, picks[scheme])
                rows, found = np.arange(len(k)), k >= 0
                values[scheme][part] = np.where(found, mins[rows, k], 0.0)
                users[scheme][part] = np.where(found[:, None], rates[rows, :, k], 0.0)
                best[scheme][part] = k
            else:
                (k,) = picks[scheme]
                values[scheme][part] = mins[:, k]
                users[scheme][part] = rates[..., k]

    result = {}
    for scheme in schemes:
        if scheme in best:
            chosen = best[scheme]
        elif scheme == SCHEME_BENCHMARK:
            # the benchmark averages orders, so it picks none
            chosen = np.full(cells, -1)
        else:
            chosen = np.full(cells, picks[scheme][0])
        result[scheme] = (
            values[scheme].reshape(shape),
            chosen.reshape(shape),
            users[scheme].reshape(*shape, n),
        )
    return result
