import os
import subprocess
import sys
import tracemalloc
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import untrusted_noma
from untrusted_noma import (
    DecodingOrder,
    conventional_order,
    count_secure,
    enumerate_orders,
    favourable_orders,
    is_favourable,
    is_secure,
    order_from_id,
    order_id,
    policy_order,
    policy_order_lpsu,
    secure_orders,
    self_last_transform,
    total_orders,
)
from untrusted_noma import orders, text
from walk_oracle import secure_column_ranks


def secure_by_before_sets(order: DecodingOrder) -> bool:
    """Independent reformulation of the security criterion: for every pair of
    users m < n, user n must be in the set user m has already decoded when
    user n reaches its own signal."""
    n_users = order.n_users
    for n in range(2, n_users + 1):
        own_stage = order.stage_of(n, n)
        for m in range(1, n):
            decoded_by_m = set(order.columns[m - 1][: own_stage - 1])
            if n not in decoded_by_m:
                return False
    return True


class TestDecodingOrder:
    def test_non_permutation_columns_rejected(self):
        with pytest.raises(ValueError):
            DecodingOrder(columns=((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            DecodingOrder(columns=((1, 2, 3), (1, 2)))

    def test_stage_lookup(self):
        order = DecodingOrder(columns=((3, 1, 2), (2, 3, 1), (1, 2, 3)))
        assert order.stage_of(1, 3) == 1
        assert order.stage_of(2, 1) == 3
        assert order.stage_of(3, 3) == 3


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 216)])
    def test_counts(self, n, expected):
        orders = list(enumerate_orders(n))
        assert len(orders) == expected == total_orders(n)
        assert len({o.columns for o in orders}) == expected  # pairwise distinct

    def test_ascending_ids_and_bijection(self):
        ids = [order_id(o) for o in enumerate_orders(3)]
        assert ids == list(range(216))
        for i in (0, 1, 17, 215):
            assert order_id(order_from_id(3, i)) == i

    def test_cap_refused_without_override(self):
        with pytest.raises(ValueError, match="allow_large_n"):
            next(enumerate_orders(5))
        with pytest.raises(ValueError):
            count_secure(5)

    def test_override_streams_without_materializing(self):
        head = list(islice(enumerate_orders(5, allow_large_n=True), 3))
        assert [order_id(o) for o in head] == [0, 1, 2]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_orders(0))
        for build in (conventional_order, lambda n: policy_order(n, 0.0), lambda n: order_from_id(n, 0)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                build(0)


class TestConventionalOrder:
    def test_columns_descend(self):
        assert conventional_order(3).columns == ((3, 2, 1),) * 3
        assert conventional_order(1).columns == ((1,),)

    def test_insecure_for_two_users(self):
        assert is_secure(conventional_order(2)) is False

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_insecure_beyond_one_user(self, n):
        assert not is_secure(conventional_order(n))


class TestSecurePredicate:
    def test_unique_two_user_secure_order(self):
        assert is_secure(DecodingOrder(columns=((2, 1), (1, 2))))
        assert not is_secure(DecodingOrder(columns=((1, 2), (1, 2))))

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 12)])
    def test_counts(self, n, expected):
        assert count_secure(n) == expected

    def test_survivors_match_independent_predicate(self):
        survivors = [o for o in enumerate_orders(3) if is_secure(o)]
        recheck = [o for o in enumerate_orders(3) if secure_by_before_sets(o)]
        assert len(survivors) == 12
        assert survivors == recheck


class TestFavourable:
    def test_counts_match_formula(self):
        assert len(list(favourable_orders(3))) == 8  # ((3-1)!)^3
        assert len([o for o in enumerate_orders(2) if is_favourable(o)]) == 1

    def test_favourable_is_secure_exhaustive_n3(self):
        assert all(is_secure(o) for o in favourable_orders(3))

    def test_self_first_not_favourable(self):
        assert not is_favourable(DecodingOrder(columns=((2, 1), (2, 1))))

    def test_remainder_set_is_mixed_not_none_last(self):
        # every secure-but-not-favourable order still has >= 1 receiver that
        # decodes itself last; the natural remainder set is S minus L
        remainder = [o for o in secure_orders(3) if not is_favourable(o)]
        assert len(remainder) == 12 - 8
        for order in remainder:
            assert any(col[-1] == m + 1 for m, col in enumerate(order.columns))


class TestSecureWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ids_match_exhaustive_filter_in_order(self, n):
        walked = [order_id(o) for o in secure_orders(n)]
        assert walked == [order_id(o) for o in enumerate_orders(n) if is_secure(o)]
        assert count_secure(n) == len(walked)
        walked = [order_id(o) for o in favourable_orders(n)]
        assert walked == [order_id(o) for o in enumerate_orders(n) if is_favourable(o)]

    def test_five_user_head_is_secure_and_strictly_ascending(self):
        head = list(islice(secure_orders(5, allow_large_n=True), 1000))
        ids = [order_id(o) for o in head]
        assert len(head) == 1000
        assert all(is_secure(o) for o in head)
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_counts_beyond_the_cap(self):
        assert count_secure(5, allow_large_n=True) == 29_638_368
        assert count_secure(6, allow_large_n=True) == 17_916_701_852_160
        assert count_secure(7, allow_large_n=True) == 981_429_924_852_324_864_000

    def test_ten_user_count_finishes(self):
        src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["count", "--users", "10", "--allow-large-n"]
        proc = subprocess.run(
            [sys.executable, "-m", "untrusted_noma.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"total={total_orders(10)} secure=")

    def test_cap_refused_at_the_call(self):
        for listing in (enumerate_orders, secure_orders):
            with pytest.raises(ValueError, match="allow_large_n"):
                listing(5)
        # favourable_orders has no override, so the error names none
        with pytest.raises(ValueError, match=r"capped at 4 users \(\(N!\)\^N grows too fast\)$"):
            favourable_orders(5)


def _refuse_work(monkeypatch):
    """Make building a column table or the count's DP raise, so that a
    refused call is seen to start no work."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_column_table", "_column_choices", "defaultdict"):
        monkeypatch.setattr(orders, name, refuse)


class TestCeilings:
    @pytest.mark.parametrize("n", [10, 21])
    @pytest.mark.parametrize(
        "call",
        [
            lambda n, allow: enumerate_orders(n, allow),
            lambda n, allow: secure_orders(n, allow),
            lambda n, allow: orders._secure_rank_blocks(n, allow),
        ],
        ids=["enumerate_orders", "secure_orders", "_secure_rank_blocks"],
    )
    @pytest.mark.parametrize("allow", [True, False])
    def test_listings_refused_past_their_ceiling(self, monkeypatch, call, n, allow):
        _refuse_work(monkeypatch)
        with pytest.raises(ValueError, match=r"past the 9-user ceiling .*would not finish"):
            call(n, allow)

    @pytest.mark.parametrize("n", [13, 21])
    @pytest.mark.parametrize("allow", [True, False])
    def test_count_refused_past_its_ceiling(self, monkeypatch, n, allow):
        _refuse_work(monkeypatch)
        with pytest.raises(ValueError, match=r"past the 12-user ceiling .*would not finish"):
            count_secure(n, allow)

    def test_ceilings_admit_the_documented_inputs(self):
        # the pinned listing heads go up to N = 8 and the count up to N = 12
        orders._check_cap(orders._LIST_CEILING, True)
        orders._check_cap(orders._COUNT_CEILING, True, orders._COUNT_CEILING)
        assert orders._LIST_CEILING >= 8 and orders._COUNT_CEILING >= 12


class TestColumnTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_are_the_permutations_in_rank_order(self, n):
        table = orders._column_table(n)
        want = list(permutations(range(1, n + 1)))
        assert table.tolist() == [list(p) for p in want]
        assert table.dtype == np.int8 and not table.flags.writeable


class TestBlockWalk:
    @pytest.mark.parametrize("n, rows", [(5, 300_000), (6, 20_000)])
    def test_head_matches_recursive_walk(self, n, rows):
        blocks, got = [], 0
        for block in orders._secure_rank_blocks(n, allow_large_n=True):
            blocks.append(block)
            got += len(block)
            if got >= rows:
                break
        head = np.concatenate(blocks)[:rows]
        want = list(islice(secure_column_ranks(n, allow_large_n=True), rows))
        assert head.dtype == np.int64
        assert np.array_equal(head, np.array(want))

    @pytest.mark.parametrize("block_rows", [1, 7, 100])
    def test_blocks_hold_at_most_the_row_constant(self, monkeypatch, block_rows):
        # 7 and 1 rows are fewer than one prefix's columns at N = 4 (up to 24)
        monkeypatch.setattr(orders, "_BLOCK_ROWS", block_rows)
        blocks = list(orders._secure_rank_blocks(4))
        assert all(0 < len(b) <= block_rows for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.array(list(secure_column_ranks(4))))

    def test_gathers_hold_at_most_the_row_constant(self, monkeypatch):
        # at N = 5 a prefix keeps up to 48 of its 24 to 120 columns, more
        # than 20 rows; every (prefix, column) index array the walk gathers
        # by is cut first
        sizes = []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def divmod(self, pairs, base):
                sizes.append(len(pairs))
                return np.divmod(pairs, base)

        monkeypatch.setattr(orders, "_BLOCK_ROWS", 20)
        monkeypatch.setattr(orders, "np", SpyNumpy())
        head = np.concatenate(list(islice(orders._secure_rank_blocks(5, allow_large_n=True), 1000)))
        want = list(islice(secure_column_ranks(5, allow_large_n=True), len(head)))
        assert len(head) >= 10_000 and max(sizes) == 20
        assert np.array_equal(head, np.array(want))

    def test_first_block_memory_at_eight_users(self):
        # the walk holds one slice of ranks per level, as int32 but for the
        # last level, whose blocks stay int64; int64 at every level rises
        # by 12.7 MiB
        tracemalloc.start()
        try:
            orders._column_choices(8)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block = next(orders._secure_rank_blocks(8, allow_large_n=True))
            rise = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert block.dtype == np.int64
        assert rise < 11 * 2**20

    @pytest.mark.parametrize("n", [1, 4, 5, 6, 7, 8])
    def test_default_blocks_hold_at_most_the_row_constant(self, n):
        blocks = islice(orders._secure_rank_blocks(n, allow_large_n=True), 50)
        assert all(0 < len(b) <= orders._BLOCK_ROWS for b in blocks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_ids_are_exact(self, n):
        # int64 holds (N!)^N only up to N = 6
        ranks = next(orders._secure_rank_blocks(n, allow_large_n=True))[:50]
        ids = orders._order_ids(ranks)
        perms = list(permutations(range(1, n + 1)))
        want = [order_id(DecodingOrder(tuple(perms[r] for r in row))) for row in ranks.tolist()]
        assert ids.dtype == (np.int64 if n <= 6 else object)
        assert ids.tolist() == want


def _percent_d(ids: np.ndarray) -> str:
    return "%d\n" * len(ids) % tuple(ids.tolist())


class TestIdText:
    # 0, each power of ten and its neighbours, and 2^63 - 1: every digit count 1..19
    EDGES = sorted({0, 2**63 - 1} | {10**k + d for k in range(19) for d in (-1, 0, 1)})

    def test_ascending_block_crosses_every_digit_count(self):
        ids = np.array(self.EDGES, dtype=np.int64)
        assert {len(str(v)) for v in self.EDGES} == set(range(1, 20))
        assert text._id_text(ids) == _percent_d(ids)

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_unsorted_block(self, values):
        ids = np.array(values, dtype=np.int64)
        assert text._id_text(ids) == _percent_d(ids)

    @pytest.mark.parametrize("values", [[], [0], [7], [2**63 - 1]])
    def test_empty_and_one_id_blocks(self, values):
        ids = np.array(values, dtype=np.int64)
        assert text._id_text(ids) == _percent_d(ids)

    def test_object_ids_past_int64(self):
        ranks = next(orders._secure_rank_blocks(7, allow_large_n=True))[:100]
        ids = orders._order_ids(ranks)
        assert ids.dtype == object
        assert text._id_text(ids) == _percent_d(ids)


class TestSelfLastTransform:
    def test_moves_self_to_end(self):
        order = DecodingOrder(columns=((1, 3, 2), (2, 1, 3), (3, 1, 2)))
        got = self_last_transform(order)
        assert got.columns[0] == (3, 2, 1)
        assert got.columns[1] == (1, 3, 2)
        assert got.columns[2] == (1, 2, 3)
        assert is_favourable(got)

    @given(st.integers(min_value=0, max_value=216 * 216))
    @settings(max_examples=100, deadline=None)
    def test_output_favourable_and_favourable_fixpoint(self, seed):
        oid = seed % total_orders(3)
        order = order_from_id(3, oid)
        out = self_last_transform(order)
        assert is_favourable(out)
        assert self_last_transform(out) == out
        if is_favourable(order):
            assert out == order

    def test_secure_input_stays_secure(self):
        for order in secure_orders(3):
            assert is_secure(self_last_transform(order))


class TestPolicyOrder:
    def test_descending_branch(self):
        assert policy_order(3, -0.5).columns == ((3, 2, 1), (3, 1, 2), (2, 1, 3))

    def test_ascending_branch(self):
        assert policy_order(3, 0.5).columns == ((2, 3, 1), (1, 3, 2), (1, 2, 3))

    def test_two_user_branches_coincide(self):
        expected = ((2, 1), (1, 2))
        assert policy_order(2, -0.9).columns == expected
        assert policy_order(2, 0.9).columns == expected

    def test_zero_beta_is_ascending(self):
        assert policy_order(3, 0.0) == policy_order_lpsu(3)

    @given(st.integers(min_value=1, max_value=7), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_always_favourable_hence_secure(self, n, beta):
        order = policy_order(n, beta)
        assert is_favourable(order)
        assert is_secure(order)

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError):
            policy_order(3, 1.5)


class TestOrderId:
    def test_id_zero_is_lexicographically_first(self):
        assert order_from_id(2, 0).columns == ((1, 2), (1, 2))

    def test_round_trip_all_n3(self):
        for oid in range(216):
            assert order_id(order_from_id(3, oid)) == oid

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            order_from_id(2, 4)  # (2!)^2
        with pytest.raises(ValueError):
            order_from_id(2, -1)

    @given(st.integers(min_value=0, max_value=331775))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_n4(self, oid):
        assert order_id(order_from_id(4, oid)) == oid

    def test_conventional_has_max_column_rank_shape(self):
        # every column (N..1) is the lexicographically last permutation
        n = 3
        oid = order_id(conventional_order(n))
        assert oid == total_orders(n) - 1
