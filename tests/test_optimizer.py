import tracemalloc
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untrusted_noma import (
    DEFAULT_BETA_GRID,
    SCHEMES,
    ChannelRealization,
    DecodingOrder,
    PowerAllocation,
    SearchOutcome,
    SystemParams,
    benchmark_average,
    conventional_order,
    enumerate_orders,
    favourable_orders,
    is_favourable,
    is_secure,
    max_min_order,
    order_from_id,
    order_id,
    policy_order_lpsu,
    policy_order_lpwu,
    power_allocation,
    sample_channels,
    secrecy_rates,
    secure_orders,
    sinr,
    sweep_all,
    total_orders,
)
from untrusted_noma import optimizer
from untrusted_noma.optimizer import (
    _column_index,
    _order_rates,
    _ranks,
    _rate_table,
    _score_block,
    _score_orders,
    _scored_set,
    _trials_per_block,
)
from untrusted_noma.orders import _order_ids, _perm_rank
from untrusted_noma.system import _alpha_grid
from scalar_oracle import secrecy_rates as oracle_secrecy_rates
from scalar_oracle import sinr as oracle_sinr
from walk_oracle import secure_column_ranks

WORKED_CH = ChannelRealization(distances_m=(1.0, 2.0), gains=(4.0, 1.0))
WORKED_ALPHA = PowerAllocation(alphas=(0.2, 0.8), beta=0.0)
WORKED_PARAMS = SystemParams(n_users=2, pt_dbm=10.0, noise_dbm=0.0, zeta=0.1)
ORACLE_MIN_RATE = 0.7509724521600853  # log2(69/41), hand-derived


def kernel_rates(ranks, gains, alphas, zeta, inv_rho):
    """Per-user rates [n, K] of each order of the rank rows ``ranks`` in one
    cell, re-read from the rate table, and the per-order minima [K] of the
    kernel's walk of the prefix tree. The kernel scores the rows sorted by
    id; the results come back in the rows' own order."""
    by_id = np.argsort(_order_ids(ranks), kind="stable")
    columns = _column_index(ranks[by_id])
    table = _rate_table(columns, np.array([gains]), np.array([alphas]), zeta, inv_rho)
    rates = _order_rates(columns, *table, np.arange(len(ranks))[:, None])[:, :, 0]
    back = np.argsort(by_id)
    return rates.T[:, back], _score_orders(columns, *table)[0][0][back]


def walk_ranks(n):
    """Rank rows [K, n] of S, ascending by id, from the recursive walk."""
    return np.array(list(secure_column_ranks(n)), dtype=np.int64).reshape(-1, n)


def rank_rows(columns, k):
    """Rank rows of orders ``k`` of a scored set, from its column table."""
    perms = np.argsort(columns.stage, axis=1) + 1  # [C, n]: each column's SIC sequence
    return [[_perm_rank(tuple(perms[r].tolist())) for r in columns.index[i]] for i in k]


class TestMaxMinOrder:
    def test_single_secure_order_worked_instance(self):
        out = max_min_order(iter(secure_orders(2)), WORKED_CH, WORKED_ALPHA, WORKED_PARAMS)
        assert out.best_value == pytest.approx(ORACLE_MIN_RATE, abs=1e-9)
        assert out.feasible_count == 1
        assert out.evaluated_count == 1
        assert out.best_order_id == order_id(next(secure_orders(2)))

    def test_conventional_source_is_infeasible(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 3)
        pa = power_allocation(ch, 0.5)
        out = max_min_order(iter([conventional_order(3)]), ch, pa, params)
        assert out.best_order_id is None
        assert out.best_value == 0.0
        assert out.feasible_count == 0
        assert out.evaluated_count == 1

    def test_empty_source_and_size_mismatch(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 3)
        pa = power_allocation(ch, 0.5)
        assert max_min_order(iter([]), ch, pa, params) == SearchOutcome(None, 0.0, 0, 0)
        with pytest.raises(ValueError, match="3 users"):
            max_min_order(secure_orders(2), ch, pa, params)

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_enlarging_the_source_never_hurts(self, seed, beta):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, beta)
        subset = max_min_order(islice(secure_orders(3), 4), ch, pa, params)
        full = max_min_order(iter(secure_orders(3)), ch, pa, params)
        assert full.best_value >= subset.best_value
        assert full.feasible_count >= subset.feasible_count

    def test_result_independent_of_stream_direction(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 17)
        pa = power_allocation(ch, -0.4)
        fwd = max_min_order(iter(secure_orders(3)), ch, pa, params)
        rev = max_min_order(reversed(list(secure_orders(3))), ch, pa, params)
        assert fwd == rev

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_better_sweep_optimum(self, n):
        # the max-min over S is the better of optimal-L and optimal-O, the
        # smaller id winning a tie
        params = SystemParams(n_users=n)
        grid = (-0.6, 0.0, 0.4)
        sec = tuple(secure_orders(n))
        for seed in range(4):
            ch = sample_channels(params, seed)
            sweeps = sweep_all(["optimal-L", "optimal-O"], grid, ch, params)
            for beta, pl, po in zip(grid, sweeps["optimal-L"], sweeps["optimal-O"]):
                out = max_min_order(iter(sec), ch, power_allocation(ch, beta), params)
                feasible = [p for p in (pl, po) if p.order_id is not None]
                if not feasible:
                    assert (out.best_order_id, out.best_value) == (None, 0.0)
                    continue
                best = min(feasible, key=lambda p: (-p.min_secrecy_rate, p.order_id))
                assert (out.best_order_id, out.best_value) == (best.order_id, best.min_secrecy_rate)
                assert out.evaluated_count == len(sec)

    def test_tie_break_prefers_smallest_id(self):
        # without SIC residue (zeta = 0) distinct secure orders can give
        # bit-equal minima; fed in descending id order, the smaller id wins
        params = SystemParams(n_users=3, zeta=0.0)
        ch = sample_channels(params, 0)
        pa = power_allocation(ch, 0.0)
        by_min = {}
        for order in secure_orders(3):
            by_min.setdefault(min(secrecy_rates(order, ch, pa, params)), []).append(order)
        value, tied = max((v, o) for v, o in by_min.items() if len(o) > 1 and v > 0.0)
        pair = sorted(tied[:2], key=order_id, reverse=True)
        weaker = [o for v, orders in by_min.items() if 0.0 < v < value for o in orders][:1]
        out = max_min_order(iter([*weaker, *pair]), ch, pa, params)
        assert (out.best_order_id, out.best_value) == (order_id(pair[1]), value)
        assert out.feasible_count == out.evaluated_count == 3


class TestBatchEvaluator:
    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_path(self, seed, beta):
        # random orders from all (N!)^N, insecure ones included
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 4):
            for zeta in (0.0, 0.1, 1.0):
                params = SystemParams(n_users=n, zeta=zeta)
                ch = sample_channels(params, seed)
                pa = power_allocation(ch, beta)
                picks = [order_from_id(n, int(i)) for i in rng.integers(0, total_orders(n), size=8)]
                got, mins = kernel_rates(
                    _ranks(picks, n), ch.gains, pa.alphas, zeta, 1.0 / params.rho_t
                )
                assert got.shape == (n, len(picks))
                assert mins.tolist() == got.min(axis=0).tolist()
                for k, order in enumerate(picks):
                    expected = oracle_secrecy_rates(order, ch, pa, params).per_user_rates
                    assert got[:, k] == pytest.approx(expected, abs=1e-12)
                    for u in range(1, n + 1):
                        for m in range(1, n + 1):
                            assert sinr(order, ch, pa, params, u, m) == pytest.approx(
                                oracle_sinr(order, ch, pa, params, u, m), rel=1e-12
                            )

    def test_zero_power_user_has_zero_secrecy(self):
        # alpha -> 0 limit: no signal power, clamped rate is exactly zero
        ranks = _ranks([next(secure_orders(3))], 3)
        rates, mins = kernel_rates(ranks, [0.9, 0.5, 0.1], [0.0, 0.6, 0.4], 0.1, 1e-10)
        assert rates[0, 0] == 0.0 and mins[0] == 0.0

    def test_table_holds_only_the_columns_used(self):
        columns = _column_index(np.array([[5, 0, 3], [5, 2, 3], [1, 2, 3]]))
        assert columns.receiver.tolist() == [0, 0, 1, 1, 2]
        assert columns.index.tolist() == [[1, 2, 4], [1, 3, 4], [0, 3, 4]]
        assert columns.stage[1].tolist() == [2, 1, 0]  # rank 5 is the column (3, 2, 1)
        # 12! = 479001600 columns exist; the two policy matrices use 24
        ranks = _ranks([policy_order_lpwu(12), policy_order_lpsu(12)], 12)
        assert _column_index(ranks)[0].shape == (24, 12)


class TestOrderLists:
    """The prefix tree is built from the rank rows of any order list, so
    shuffled, repeated and prefix-sharing lists score exactly as each order
    does alone."""

    @staticmethod
    def order_list(n, rng):
        sec = list(secure_orders(n))
        start = int(rng.integers(0, len(sec)))
        near = sec[start:start + 30]  # consecutive ids share leading columns
        anywhere = [order_from_id(n, int(i)) for i in rng.integers(0, total_orders(n), size=20)]
        orders = near + anywhere
        orders += [orders[int(i)] for i in rng.integers(0, len(orders), size=10)]
        return [orders[int(i)] for i in rng.permutation(len(orders))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rates_and_search_match_per_order_scoring(self, n):
        rng = np.random.default_rng(n)
        for zeta in (0.0, 0.1, 1.0):
            params = SystemParams(n_users=n, zeta=zeta)
            for seed in range(3):
                ch = sample_channels(params, seed)
                pa = power_allocation(ch, float(rng.uniform(-1, 1)))
                orders = self.order_list(n, rng)
                got, mins = kernel_rates(
                    _ranks(orders, n), ch.gains, pa.alphas, zeta, 1.0 / params.rho_t
                )
                alone = [secrecy_rates(o, ch, pa, params) for o in orders]
                assert [tuple(col) for col in got.T.tolist()] == alone
                assert mins.tolist() == [min(r) for r in alone]
                feasible = [(-min(r), order_id(o)) for o, r in zip(orders, alone) if min(r) > 0]
                out = max_min_order(iter(orders), ch, pa, params)
                assert out.feasible_count == len(feasible)
                assert out.evaluated_count == len(orders)
                if feasible:
                    value, oid = min(feasible)
                    assert (out.best_order_id, out.best_value) == (oid, -value)
                else:
                    assert (out.best_order_id, out.best_value) == (None, 0.0)


class TestSecureBundle:
    """The bundle ``_scored_set(n, True)`` caches for S (column index, ids,
    picks) holds S ascending by id: optimal-L may pick its favourable
    orders and optimal-O the rest."""

    @staticmethod
    def assert_scores(n, sec):
        """The scored secure set holds the orders ``sec``, in that order."""
        columns, ids, picks = _scored_set(n, True)
        assert rank_rows(columns, range(len(ids))) == _ranks(sec, n).tolist()
        assert ids.tolist() == [order_id(o) for o in sec]
        fav = np.array([is_favourable(o) for o in sec])
        assert picks["optimal-L"].tolist() == np.flatnonzero(fav).tolist()
        assert picks["optimal-O"].tolist() == np.flatnonzero(~fav).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_per_order_construction(self, n):
        self.assert_scores(n, [o for o in enumerate_orders(n) if is_secure(o)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_recursive_walk(self, n):
        perms = list(permutations(range(1, n + 1)))
        sec = [DecodingOrder(tuple(perms[r] for r in row)) for row in walk_ranks(n).tolist()]
        self.assert_scores(n, sec)

    def test_cached_arrays_are_read_only(self):
        columns, ids, picks = _scored_set(3, True)
        assert _scored_set(3, True)[1] is ids
        arrays = (ids, *picks.values(), *columns[:3])
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            ids[0] = 1


class TestScoredSet:
    """A sweep scores S, or the distinct policy matrices alone, ascending by
    id; each policy picks the row of its own matrix."""

    @pytest.mark.parametrize(
        "n, secure", [(1, True), (2, True), (3, True), (4, True), (5, False), (12, False), (21, False)]
    )
    def test_ids_ascend_and_policies_pick_their_rows(self, n, secure):
        columns, ids, picks = _scored_set(n, secure)
        assert len(ids) == len(columns.index)
        assert all(a < b for a, b in zip(ids[:-1].tolist(), ids[1:].tolist()))
        policies = [policy_order_lpwu(n), policy_order_lpsu(n)]
        k = [int(picks[s][0]) for s in ("policy-LPWU", "policy-LPSU")]
        assert rank_rows(columns, k) == _ranks(policies, n).tolist()
        assert ids[k].tolist() == [order_id(o) for o in policies]
        if secure:
            assert np.array_equal(ids, _order_ids(walk_ranks(n)))
            searched = np.concatenate([picks["optimal-L"], picks["optimal-O"]])
            assert sorted(searched.tolist()) == list(range(len(ids)))
        else:
            assert len(ids) == (1 if n <= 2 else 2) and set(picks) == {"policy-LPWU", "policy-LPSU"}


class TestBenchmarkAverage:
    def test_two_users_equals_the_single_secure_order(self):
        got = benchmark_average(WORKED_CH, WORKED_ALPHA, WORKED_PARAMS)
        assert got == pytest.approx(ORACLE_MIN_RATE, abs=1e-9)

    def test_three_users_averages_twelve_orders(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 8)
        pa = power_allocation(ch, -0.2)
        expected = np.mean(
            [oracle_secrecy_rates(o, ch, pa, params).min_rate for o in secure_orders(3)]
        )
        assert benchmark_average(ch, pa, params) == pytest.approx(float(expected), rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_mean_never_exceeds_max(self, seed, beta):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, beta)
        best = max_min_order(iter(secure_orders(3)), ch, pa, params)
        if best.feasible_count > 0:
            assert benchmark_average(ch, pa, params) <= best.best_value + 1e-12

    def test_cap_enforced(self):
        params = SystemParams(n_users=5)
        ch = sample_channels(params, 1)
        pa = power_allocation(ch, 0.0)
        with pytest.raises(ValueError, match=r"\['benchmark'\] need exhaustive .* capped at 4"):
            benchmark_average(ch, pa, params)


class TestBenchmarkSummation:
    """The benchmark's per-user rates carry the bits of a left-to-right sum
    over the secure orders, divided by |S|. The kernel walks the orders in
    chunks and carries the running sum into each chunk as a leading row, so
    the sum must not depend on where the chunks begin."""

    @staticmethod
    def cell_rates(n, grid, params, seed):
        """The scored set's columns, a one-trial rate table over ``grid``
        and each secure order's per-user rates [K, n, c] re-read from it."""
        columns, ids = _scored_set(n, True)[:2]
        ch = sample_channels(params, seed)
        pas = [power_allocation(ch, beta) for beta in grid]
        table = _rate_table(
            columns,
            np.array([ch.gains] * len(grid)),
            np.array([pa.alphas for pa in pas]),
            params.zeta,
            1.0 / params.rho_t,
        )
        k = np.repeat(np.arange(len(ids))[:, None], len(grid), axis=1)
        return columns, table, _order_rates(columns, *table, k)

    @pytest.mark.parametrize(
        "n, grid, budget",
        [
            (4, DEFAULT_BETA_GRID, optimizer._SCORE_BUDGET),  # 3036 orders, chunks of 195
            (3, DEFAULT_BETA_GRID, optimizer._SCORE_BUDGET),  # 12 orders, one chunk
            (4, (0.3,), 1000),  # one cell, chunks of 1000
        ],
    )
    def test_chunked_sum_equals_accumulate(self, n, grid, budget, monkeypatch):
        monkeypatch.setattr(optimizer, "_SCORE_BUDGET", budget)
        params = SystemParams(n_users=n)
        columns, table, rates = self.cell_rates(n, grid, params, seed=5)
        assert len(rates) % max(1, budget // len(grid)) != 0
        total = _score_orders(columns, *table, True)[1]
        assert total.tobytes() == np.add.accumulate(rates, axis=0)[-1].tobytes()
        unsummed = _score_orders(columns, *table, False)[1]
        assert unsummed.shape == total.shape and not unsummed.any()

    @pytest.mark.parametrize(
        "n, trials, grid", [(3, 14, DEFAULT_BETA_GRID), (4, 1, (0.3,)), (2, 70, DEFAULT_BETA_GRID)]
    )
    def test_per_user_mean_is_a_left_to_right_sum(self, n, trials, grid):
        params = SystemParams(n_users=n)
        channels = [sample_channels(params, 40 + t) for t in range(trials)]
        gains = np.array([ch.gains for ch in channels])
        users = _score_block(["benchmark"], grid, gains, params)[2][:, 0]
        sec = list(secure_orders(n))
        for t, ch in enumerate(channels):
            for b, beta in enumerate(grid):
                pa = power_allocation(ch, beta)
                total = [0.0] * n
                for order in sec:
                    for u, rate in enumerate(secrecy_rates(order, ch, pa, params)):
                        total[u] += rate
                assert users[t, b].tolist() == [x / len(sec) for x in total]

    def test_full_grid_at_four_users(self):
        # every cell of one trial's grid, each summed order by order from
        # the secure orders' re-read rates
        params = SystemParams(n_users=4)
        gains = np.array([sample_channels(params, 5).gains])
        users = _score_block(["benchmark"], DEFAULT_BETA_GRID, gains, params)
        rates = self.cell_rates(4, DEFAULT_BETA_GRID, params, seed=5)[2]
        total = rates[0].copy()
        for row in rates[1:]:
            total += row
        assert users[2][0, 0].tolist() == (total.T / len(rates)).tolist()


def test_four_user_trial_memory_is_bounded():
    # one trial's full grid at N = 4 scores 21 cells x 3036 orders in one
    # kernel call; the leaf orders are walked in chunks, so the call's
    # traced peak stays near the [cells, K] minima it must hold
    params = SystemParams(n_users=4)
    gains = np.array([sample_channels(params, 3).gains])
    _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)  # build the cached order set
    tracemalloc.start()
    try:
        _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_four_user_block_memory_is_bounded():
    # a full block at N = 4 scores several trials' grids in one call; only
    # its [cells, K] minima grow with the block: the rate table, the leaf
    # chunks, the window of the leaves' parents and the optimal schemes'
    # row slices stay within 1 MiB of them
    params = SystemParams(n_users=4)
    trials = _trials_per_block(SCHEMES, 4, len(DEFAULT_BETA_GRID))
    assert trials > 1
    gains = np.array([sample_channels(params, 3 + t).gains for t in range(trials)])
    _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)  # build the cached order set
    minima = trials * len(DEFAULT_BETA_GRID) * len(_scored_set(4, True)[0].index) * 8
    tracemalloc.start()
    try:
        _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < minima + 2**20


GAIN_SCHEMES = ("policy-LPWU", "policy-LPSU", "benchmark")  # gain_vs_users' values-only calls


class TestBlockRule:
    """One bound on the floats a kernel call holds per cell sizes a block:
    three trials at N = 4, and at N <= 3 a whole 120-trial run."""

    @pytest.mark.parametrize("schemes", [SCHEMES, GAIN_SCHEMES])
    def test_four_users_keep_three_trials(self, schemes):
        assert _trials_per_block(schemes, 4, len(DEFAULT_BETA_GRID)) == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("schemes", [SCHEMES, GAIN_SCHEMES, ("policy-LPWU", "policy-LPSU")])
    def test_small_n_blocks_hold_a_whole_run(self, n, schemes):
        # at least what the former rule gave: cells x max(K, C) within 4096,
        # or 64 cells where that is more
        columns = _scored_set(n, "benchmark" in schemes)[0]
        rows = max(len(columns.index), len(columns.receiver))
        former = max(1, 4096 // (rows * len(DEFAULT_BETA_GRID)), 64 // len(DEFAULT_BETA_GRID))
        assert _trials_per_block(schemes, n, len(DEFAULT_BETA_GRID)) >= max(former, 120)

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_block_memory_is_bounded(self, n):
        # a full block at N = 2 (378 trials) or N = 3 (122 trials): its
        # traced peak stays within twice the bytes of the bound, which
        # leaves the per-scheme picks, values and ids it does not count
        params = SystemParams(n_users=n)
        trials = _trials_per_block(SCHEMES, n, len(DEFAULT_BETA_GRID))
        gains = np.array([sample_channels(params, 3 + t).gains for t in range(trials)])
        _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)  # build the cached order set
        tracemalloc.start()
        try:
            _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * optimizer._BLOCK_FLOATS


class TestBlockSize:
    """A kernel call over T trials must give what T one-trial calls give,
    bit for bit, at the block size ``_trials_per_block`` and across two
    blocks' worth."""

    @staticmethod
    def assert_calls_match(params, trials_of):
        """Calls over the first T trials, for each T of ``trials_of``,
        against one-trial calls."""
        gains = np.array([sample_channels(params, 60 + t).gains for t in range(trials_of[-1])])
        ones = [_score_block(SCHEMES, DEFAULT_BETA_GRID, row[None], params) for row in gains]
        for trials in trials_of:
            block = _score_block(SCHEMES, DEFAULT_BETA_GRID, gains[:trials], params)
            values, picks, users = (np.concatenate([one[i] for one in ones[:trials]]) for i in range(3))
            assert block[0].tobytes() == values.tobytes()
            assert block[1].tolist() == picks.tolist()
            assert block[2].shape == users.shape and block[2].tobytes() == users.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_block_equals_one_trial_calls(self, blocks_of, n, zeta):
        blocks_of(3, SCHEMES, n, len(DEFAULT_BETA_GRID))
        per_block = _trials_per_block(SCHEMES, n, len(DEFAULT_BETA_GRID))
        self.assert_calls_match(SystemParams(n_users=n, zeta=zeta), (per_block, 2 * per_block + 1))

    def test_full_block_equals_one_trial_calls(self):
        # a full N = 3 block's 2562 cells leave the leaf walk's budget room
        # for one order per chunk, where the three-trial blocks above score
        # all 12 in one
        per_block = _trials_per_block(SCHEMES, 3, len(DEFAULT_BETA_GRID))
        assert per_block * len(DEFAULT_BETA_GRID) > optimizer._SCORE_BUDGET // 2
        self.assert_calls_match(SystemParams(n_users=3, zeta=0.1), (per_block,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_values_only_equals_the_full_scores(self, n, zeta):
        params = SystemParams(n_users=n, zeta=zeta)
        gains = np.array([sample_channels(params, 80 + t).gains for t in range(2)])
        full = _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)
        values, picks, users = _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params, values_only=True)
        assert picks is None and users is None
        assert values.shape == full[0].shape and values.tobytes() == full[0].tobytes()

    def test_unsorted_set_is_refused(self):
        # the leaves' parents are built a window at a time, which only leaves
        # that ascend by id keep in step; a shuffled set would gather the
        # wrong parents, so it is refused before any chunk is scored
        params = SystemParams(n_users=4)
        ranks = walk_ranks(4)
        shuffled = ranks[np.random.default_rng(4).permutation(len(ranks))]
        gains = np.array([sample_channels(params, 9).gains] * len(DEFAULT_BETA_GRID))
        alphas = _alpha_grid(gains[0], DEFAULT_BETA_GRID)
        for rows, refused in ((ranks, False), (ranks[[0, 0, 1]], False), (shuffled, True)):
            columns = _column_index(rows)
            table = _rate_table(columns, gains, alphas, params.zeta, 1.0 / params.rho_t)
            if refused:
                with pytest.raises(ValueError, match="ascend by id"):
                    _score_orders(columns, *table)
            else:
                assert _score_orders(columns, *table)[0].shape == (len(gains), len(rows))


class TestSchemeOrder:
    """A block holds its schemes in request order: each scheme's values,
    picks and rates, the benchmark's -1 picks and per-user means included,
    are those it has at its place in the default order."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "schemes",
        [("benchmark", "policy-LPSU", "optimal-L"), ("optimal-O", "benchmark", "policy-LPWU")],
    )
    def test_each_scheme_at_its_position(self, n, schemes):
        params = SystemParams(n_users=n, zeta=0.1)
        gains = np.array([sample_channels(params, 90 + t).gains for t in range(2)])
        full = _score_block(SCHEMES, DEFAULT_BETA_GRID, gains, params)
        got = _score_block(schemes, DEFAULT_BETA_GRID, gains, params)
        assert [array.shape[1] for array in got] == [len(schemes)] * 3
        for i, scheme in enumerate(schemes):
            for mine, default in zip(got, full):
                assert mine[:, i].tobytes() == default[:, SCHEMES.index(scheme)].tobytes(), scheme
        assert (got[1][:, schemes.index("benchmark")] == -1).all()
        values = _score_block(schemes, DEFAULT_BETA_GRID, gains, params, values_only=True)[0]
        assert values.tobytes() == got[0].tobytes()


class TestBetaSweep:
    GRID = tuple(float(b) for b in np.linspace(-1, 1, 21))

    def test_policies_coincide_at_beta_zero_two_users(self):
        params = SystemParams(n_users=2)
        ch = sample_channels(params, 4)
        lpwu = sweep_all(["policy-LPWU"], [0.0], ch, params)["policy-LPWU"][0]
        lpsu = sweep_all(["policy-LPSU"], [0.0], ch, params)["policy-LPSU"][0]
        assert lpwu.min_secrecy_rate == lpsu.min_secrecy_rate
        assert lpwu.order_id == lpsu.order_id

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_dominance_chain_over_grid(self, seed):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        sweeps = sweep_all(
            ["optimal-L", "optimal-O", "policy-LPWU", "policy-LPSU"], self.GRID, ch, params
        )
        for pl, po, pw, ps in zip(
            sweeps["optimal-L"], sweeps["optimal-O"], sweeps["policy-LPWU"], sweeps["policy-LPSU"]
        ):
            assert pl.min_secrecy_rate >= po.min_secrecy_rate - 1e-12
            assert pl.min_secrecy_rate >= pw.min_secrecy_rate - 1e-12
            assert pl.min_secrecy_rate >= ps.min_secrecy_rate - 1e-12

    def test_policy_points_carry_policy_ids(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 9)
        sweeps = sweep_all(["policy-LPWU", "policy-LPSU"], [-0.5, 0.5], ch, params)
        assert all(p.order_id == order_id(policy_order_lpwu(3)) for p in sweeps["policy-LPWU"])
        assert all(p.order_id == order_id(policy_order_lpsu(3)) for p in sweeps["policy-LPSU"])

    def test_optimal_l_searches_favourable_set(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 11)
        pa_beta = -0.3
        point = sweep_all(["optimal-L"], [pa_beta], ch, params)["optimal-L"][0]
        expected = max_min_order(
            iter(favourable_orders(3)), ch, power_allocation(ch, pa_beta), params
        )
        assert point.min_secrecy_rate == pytest.approx(expected.best_value, rel=1e-12)
        assert point.order_id == expected.best_order_id

    def test_benchmark_points_average_per_user_rates(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 12)
        point = sweep_all(["benchmark"], [0.2], ch, params)["benchmark"][0]
        pa = power_allocation(ch, 0.2)
        per_user = np.array(
            [oracle_secrecy_rates(o, ch, pa, params).per_user_rates for o in secure_orders(3)]
        )
        assert point.order_id is None
        assert point.per_user_rates == pytest.approx(per_user.mean(axis=0), rel=1e-10)

    def test_deterministic(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 2)
        a = sweep_all(["optimal-L", "benchmark"], self.GRID, ch, params)
        b = sweep_all(["optimal-L", "benchmark"], self.GRID, ch, params)
        assert a == b

    def test_rejects_bad_input(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 2)
        with pytest.raises(ValueError):
            sweep_all(["optimal-X"], [0.0], ch, params)["optimal-X"]
        with pytest.raises(ValueError):
            sweep_all(["benchmark"], [1.5], ch, params)["benchmark"]
        with pytest.raises(ValueError, match="duplicate"):
            sweep_all(["benchmark", "benchmark"], [0.0], ch, params)
        big = SystemParams(n_users=5)
        with pytest.raises(ValueError):
            sweep_all(["benchmark"], [0.0], sample_channels(big, 1), big)["benchmark"]

    def test_policy_ids_stay_exact_beyond_int64(self):
        # at N = 21 both the order ids and the column ranks exceed int64
        params = SystemParams(n_users=21)
        ch = sample_channels(params, 3)
        sweeps = sweep_all(["policy-LPWU", "policy-LPSU"], [-0.5, 0.5], ch, params)
        for scheme, order in (("policy-LPWU", policy_order_lpwu(21)), ("policy-LPSU", policy_order_lpsu(21))):
            for point in sweeps[scheme]:
                assert point.order_id == order_id(order)
                expected = oracle_secrecy_rates(order, ch, power_allocation(ch, point.beta), params)
                assert point.per_user_rates == pytest.approx(expected.per_user_rates, abs=1e-12)

    def test_policies_allowed_beyond_enumeration_cap(self):
        params = SystemParams(n_users=5)
        ch = sample_channels(params, 1)
        points = sweep_all(["policy-LPWU"], [-0.5], ch, params)["policy-LPWU"]
        assert len(points) == 1 and points[0].min_secrecy_rate >= 0.0


class TestGridBlocks:
    """A whole-grid sweep scores many betas per kernel call; a one-point
    grid is one beta per call. Both must give the same points, bit for bit."""

    GRID = tuple(float(b) for b in np.linspace(-1, 1, 21))

    def assert_grid_matches_points(self, schemes, params, seed):
        ch = sample_channels(params, seed)
        sweeps = sweep_all(schemes, self.GRID, ch, params)
        for i, beta in enumerate(self.GRID):
            single = sweep_all(schemes, [beta], ch, params)
            assert {s: [points[i]] for s, points in sweeps.items()} == single

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_all_schemes(self, n, zeta):
        for seed in range(3 if n < 4 else 1):
            self.assert_grid_matches_points(SCHEMES, SystemParams(n_users=n, zeta=zeta), seed)

    @pytest.mark.parametrize("n", [5, 9, 12, 21])
    def test_policies_beyond_the_cap(self, n):
        self.assert_grid_matches_points(
            ("policy-LPWU", "policy-LPSU"), SystemParams(n_users=n), seed=n
        )

    def test_grid_alphas_match_power_allocation(self):
        params = SystemParams(n_users=9)
        ch = sample_channels(params, 5)
        gains = np.asarray(ch.gains)
        alphas = _alpha_grid(gains, self.GRID)
        assert [tuple(row) for row in alphas.tolist()] == [
            power_allocation(ch, beta).alphas for beta in self.GRID
        ]
        with pytest.raises(ValueError):
            _alpha_grid(gains, (0.0, 1.5))


def _wide_or(low: float, high: float):
    """Any float, non-finite ones included, or one from a range where the
    physics is well defined, so that both kinds of case are drawn often."""
    return st.one_of(st.floats(), st.floats(min_value=low, max_value=high))


class TestArbitraryInputs:
    """Any SystemParams x beta x zeta x N either raises ValueError or gives
    finite secrecy rates >= 0 for every scheme allowed at that N."""

    @given(
        n=st.integers(min_value=1, max_value=5),
        zeta=st.one_of(st.sampled_from([0.0, 1.0]), _wide_or(0.0, 1.0)),
        beta=_wide_or(-1.0, 1.0),
        pt_dbm=_wide_or(-400.0, 3100.0),
        noise_dbm=_wide_or(-3100.0, 400.0),
        field_len_m=_wide_or(1e-6, 1e12),
        path_loss_const=_wide_or(1e-300, 1e300),
        path_loss_exp=_wide_or(1e-3, 50.0),
        min_dist_m=_wide_or(1e-12, 1e3),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_value_error_or_finite_nonnegative_rates(self, n, beta, seed, **physics):
        schemes = SCHEMES if n <= 4 else ("policy-LPWU", "policy-LPSU")
        try:
            params = SystemParams(n_users=n, **physics)
            ch = sample_channels(params, seed)
            sweeps = sweep_all(schemes, [beta], ch, params)
        except ValueError:
            return
        for points in sweeps.values():
            (point,) = points
            assert np.isfinite(point.min_secrecy_rate) and point.min_secrecy_rate >= 0.0
            assert all(np.isfinite(v) and v >= 0.0 for v in point.per_user_rates)

    def test_sinr_overflow_raises(self):
        # one user, no interference: the SINR is alpha * g * rho_t, which
        # overflows once rho_t and the gain together pass the float range
        params = SystemParams(n_users=1, pt_dbm=3080.0, noise_dbm=0.0)
        ch = ChannelRealization(distances_m=(1.0,), gains=(10.0,))
        with pytest.raises(ValueError, match="SINR overflows"):
            sweep_all(SCHEMES, [0.0], ch, params)
        with pytest.raises(ValueError, match="SINR overflows"):
            secrecy_rates(policy_order_lpwu(1), ch, power_allocation(ch, 0.0), params)
