"""Decoding-order matrices: enumeration, security predicates, and policies.

A decoding order for an N-user cell is an N x N matrix whose m-th column is
the SIC sequence followed by receiver m: entry k of column m names the user
whose signal receiver m decodes at stage k. Users are indexed 1..N from the
strongest channel down.

The secure set S is never filtered out of all (N!)^N orders: it is listed
as numpy blocks of per-column ranks by one level-wise walk of the prefix
tree of its columns (``_secure_rank_blocks``), which ``secure_orders``,
the ``filter-secure`` listing and the optimizer's secure set share, and
``count_secure`` counts it exactly from the users' own stages.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import product
from typing import Iterator

import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "DecodingOrder",
    "enumerate_orders",
    "total_orders",
    "conventional_order",
    "is_secure",
    "count_secure",
    "is_favourable",
    "self_last_transform",
    "policy_order",
    "policy_order_lpwu",
    "policy_order_lpsu",
    "order_id",
    "order_from_id",
    "secure_orders",
    "favourable_orders",
]

# (5!)^5 ~ 2.5e10 matrices makes exhaustive work intractable beyond 4 users.
ENUMERATION_CAP = 4
# rank rows per block of the secure walk, and (prefix, column) pairs per
# mask of one of its expansion steps
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class DecodingOrder:
    """Immutable N x N decoding order; column m is receiver m's SIC sequence."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        n = len(self.columns)
        expected = frozenset(range(1, n + 1))
        for col in self.columns:
            if len(col) != n or frozenset(col) != expected:
                raise ValueError(f"column {col} is not a permutation of 1..{n}")

    @property
    def n_users(self) -> int:
        return len(self.columns)

    def stage_of(self, m: int, n: int) -> int:
        """1-based SIC stage at which receiver m decodes user n's signal."""
        return self.columns[m - 1].index(n) + 1


def total_orders(n: int) -> int:
    """Number of distinct decoding orders for n users: (n!)**n."""
    return math.factorial(n) ** n


# Most users the override admits, per path. A listing first builds all N!
# columns: at N = 9 its first line comes in about 0.4 s at 140 MB peak RSS,
# and N = 10 holds ten times the columns. The count's work grows 3-4x per
# user: 2 s at N = 11, 8 s at N = 12 and 25 s at N = 13 (250 MB).
_LIST_CEILING = 9
_COUNT_CEILING = 12


def _check_cap(n: int, allow_large_n: bool | None, ceiling: int = _LIST_CEILING) -> None:
    """Refuse n < 1, n > ``ceiling`` (past which the path would not finish,
    override or not), and n > ENUMERATION_CAP unless ``allow_large_n``; None
    marks a caller without the override, which the error then leaves out."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ceiling and allow_large_n is not None:
        raise ValueError(
            f"{n} users is past the {ceiling}-user ceiling of this path, "
            "even with allow_large_n (--allow-large-n): it would not finish"
        )
    if n > ENUMERATION_CAP and not allow_large_n:
        override = "; pass allow_large_n=True (--allow-large-n) to override"
        raise ValueError(
            f"enumeration is capped at {ENUMERATION_CAP} users ((N!)^N grows too fast)"
            + ("" if allow_large_n is None else override)
        )


def enumerate_orders(n: int, allow_large_n: bool = False) -> Iterator[DecodingOrder]:
    """Stream every decoding order for n users in ascending order-id.

    Column 1 is the most significant digit of the mixed-radix id, so the
    stream advances the last column fastest. Refuses n > ENUMERATION_CAP
    unless explicitly overridden, and n > _LIST_CEILING always.
    """
    _check_cap(n, allow_large_n)
    columns = list(map(tuple, _column_table(n).tolist()))
    return (DecodingOrder(columns=cols) for cols in product(columns, repeat=n))


def conventional_order(n: int) -> DecodingOrder:
    """Every receiver decodes weakest-to-strongest: all columns (N, ..., 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    col = tuple(range(n, 0, -1))
    return DecodingOrder(columns=(col,) * n)


def is_secure(order: DecodingOrder) -> bool:
    """True iff every stronger user decodes each weaker user's signal strictly
    before that weaker user decodes its own (positive secrecy is then
    reachable for everyone with a suitable power allocation)."""
    cols = order.columns
    for n in range(2, order.n_users + 1):
        own_stage = cols[n - 1].index(n)
        for m in range(1, n):
            if cols[m - 1].index(n) >= own_stage:
                return False
    return True


def count_secure(n: int, allow_large_n: bool = False) -> int:
    """Number of secure decoding orders, summed over the users' own stages
    without building any order.

    Fix the stage s_u at which each user u decodes itself. ``is_secure``
    then asks column m to hold user m at s_m and each weaker user u before
    s_u; the m - 1 stronger users take the places left, in (m - 1)! ways.
    Taking the weaker users by ascending bound b, the i-th (from 0) has
    b - i - [s_m < b] places left, so column m's count is a product. Users
    are added from N down to 1, and the sum is kept per sorted stage tuple
    of the users added so far, on which the next column's count depends.
    Refuses n > ENUMERATION_CAP unless explicitly overridden, and
    n > _COUNT_CEILING always.
    """
    _check_cap(n, allow_large_n, _COUNT_CEILING)
    later: dict[tuple[int, ...], int] = {(): 1}
    for m in range(n, 0, -1):
        added: dict[tuple[int, ...], int] = defaultdict(int)
        for bounds, weight in later.items():
            weight *= math.factorial(m - 1)
            for own in range(n):
                ways = weight
                for i, b in enumerate(bounds):
                    free = b - i - (own < b)
                    if free <= 0:
                        break
                    ways *= free
                else:
                    added[tuple(sorted((*bounds, own)))] += ways
        later = added
    return sum(later.values())


def is_favourable(order: DecodingOrder) -> bool:
    """True iff every receiver decodes its own signal at the last SIC stage."""
    return all(col[-1] == m + 1 for m, col in enumerate(order.columns))


def self_last_transform(order: DecodingOrder) -> DecodingOrder:
    """Move each receiver's own entry to the last stage, keeping the rest in
    relative order. The result is always favourable, and no user's secrecy
    rate decreases under it."""
    cols = tuple(
        tuple(u for u in col if u != m + 1) + (m + 1,)
        for m, col in enumerate(order.columns)
    )
    return DecodingOrder(columns=cols)


def policy_order_lpwu(n: int) -> DecodingOrder:
    """Sorting policy for beta < 0: decode others weakest-to-strongest, self last."""
    cols = tuple(
        tuple(u for u in range(n, 0, -1) if u != m) + (m,) for m in range(1, n + 1)
    )
    return DecodingOrder(columns=cols)


def policy_order_lpsu(n: int) -> DecodingOrder:
    """Sorting policy for beta > 0: decode others strongest-to-weakest, self last."""
    cols = tuple(
        tuple(u for u in range(1, n + 1) if u != m) + (m,) for m in range(1, n + 1)
    )
    return DecodingOrder(columns=cols)


def policy_order(n: int, beta: float) -> DecodingOrder:
    """Low-complexity policy order for the given power-allocation exponent.

    beta < 0 selects the weakest-to-strongest branch, beta >= 0 the
    strongest-to-weakest one (the two coincide for n <= 2 anyway).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {beta}")
    if beta < 0:
        return policy_order_lpwu(n)
    return policy_order_lpsu(n)


def _perm_rank(perm: tuple[int, ...]) -> int:
    """Lexicographic rank of a permutation of 1..N (factorial number system)."""
    n = len(perm)
    rank = 0
    for i, p in enumerate(perm):
        smaller_right = sum(1 for q in perm[i + 1 :] if q < p)
        rank += smaller_right * math.factorial(n - 1 - i)
    return rank


def _perm_unrank(n: int, rank: int) -> tuple[int, ...]:
    available = list(range(1, n + 1))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        idx, rank = divmod(rank, f)
        out.append(available.pop(idx))
    return tuple(out)


def order_id(order: DecodingOrder) -> int:
    """Mixed-radix rank of an order: base N! per column, column 1 most
    significant, each column ranked lexicographically. Bijective with the
    set of decoding orders for fixed N."""
    base = math.factorial(order.n_users)
    return reduce(lambda oid, col: oid * base + _perm_rank(col), order.columns, 0)


def order_from_id(n: int, oid: int) -> DecodingOrder:
    """Inverse of ``order_id``; raises for ids outside [0, (n!)**n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= oid < total_orders(n):
        raise ValueError(f"order id {oid} out of range [0, {total_orders(n)}) for n={n}")
    base = math.factorial(n)
    ranks = []
    for _ in range(n):
        oid, r = divmod(oid, base)
        ranks.append(r)
    return DecodingOrder(columns=tuple(_perm_unrank(n, r) for r in reversed(ranks)))


@lru_cache(maxsize=8)
def _column_table(n: int) -> np.ndarray:
    """Every column for n users as an int8 array [N!, n] (an entry is at
    most n <= 9 for any listing) in lexicographic order, so that row r is
    the permutation of rank r in ``order_id``'s mixed radix. The columns of
    k users are those of k - 1 users behind each first user f, with the
    entries >= f moved up by one. The array is read-only."""
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        first = np.arange(1, k + 1, dtype=np.int8)[:, None, None]
        rest = table + (table >= first)  # [k, (k - 1)!, k - 1]
        table = np.concatenate([np.broadcast_to(first, (*rest.shape[:2], 1)), rest], axis=2)
        table = table.reshape(-1, k)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _column_choices(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per receiver m = 1..n: the ranks [C] (ascending, int32, as every rank
    is below 9!) of the columns that decode no weaker user last, and the
    0-based int8 SIC stages [C, n - m + 1] of users m..N in each. A weaker
    user decoded last by receiver m has no later stage left for that user's
    own receiver to decode itself at, so no secure order uses such a
    column. The arrays are read-only."""
    perms = _column_table(n)
    stages = np.argsort(perms, axis=1).astype(np.int8)  # [N!, n]: the stage of each user
    choices = []
    for m in range(1, n + 1):
        ranks = np.flatnonzero(perms[:, -1] <= m).astype(np.int32)
        choices.append((ranks, stages[ranks, m - 1 :]))
    for array in (a for choice in choices for a in choice):
        array.flags.writeable = False
    return tuple(choices)


def _secure_rank_blocks(n: int, allow_large_n: bool = False) -> Iterator[np.ndarray]:
    """Stream the per-column ranks of every secure order, ascending by id,
    as [k, n] int64 blocks of at most ``_BLOCK_ROWS`` rows.

    The walk expands the prefix tree of columns 1..N level by level. A
    prefix of columns 1..m - 1 carries, for users m..N, the latest stage at
    which its receivers decode them (its bound), and column m is kept only
    if receiver m decodes itself after user m's bound, as ``is_secure``
    asks. One [P, C] mask tests every (prefix, column) pair of a level, and
    its row-major nonzeros keep the ids ascending. Levels are expanded
    depth-first over slices of at most ``_BLOCK_ROWS`` pairs, and hold their
    ranks as int32 but for the last, so memory stays flat and the first
    block comes at once. Every prefix the walk keeps can still be completed
    (no user was decoded last by a stronger receiver), so it meets no dead
    ends. Refuses n > ENUMERATION_CAP unless explicitly overridden, and
    n > _LIST_CEILING always.
    """
    _check_cap(n, allow_large_n)
    choices = _column_choices(n)

    def expand(m: int, ranks: np.ndarray, bound: np.ndarray) -> Iterator[np.ndarray]:
        col_ranks, stages = choices[m]
        last = m + 1 == n
        step = max(1, _BLOCK_ROWS // len(col_ranks))
        for start in range(0, len(ranks), step):
            mask = stages[:, 0] > bound[start : start + step, :1]
            pairs = np.flatnonzero(mask)
            # one prefix has more than _BLOCK_ROWS columns only when N! does;
            # the pairs are cut before any gather, so none holds more rows
            for first in range(0, len(pairs), _BLOCK_ROWS):
                p, c = np.divmod(pairs[first : first + _BLOCK_ROWS], len(col_ranks))
                p += start
                kept = np.empty((len(p), m + 1), dtype=np.int64 if last else np.int32)
                kept[:, :m] = ranks.take(p, axis=0)
                kept[:, m] = col_ranks.take(c)
                if last:  # the last level has no later users to bound
                    yield kept
                else:
                    later = np.maximum(bound.take(p, axis=0)[:, 1:], stages.take(c, axis=0)[:, 1:])
                    yield from expand(m + 1, kept, later)

    return expand(0, np.empty((1, 0), dtype=np.int32), np.full((1, n), -1, dtype=np.int8))


def _order_ids(ranks: np.ndarray) -> np.ndarray:
    """``order_id`` of each rank row of ``ranks`` [K, N]: int64 while
    (N!)^N fits (N <= 6), exact Python ints in an object array beyond."""
    n = ranks.shape[1]
    base = math.factorial(n)
    if total_orders(n) > np.iinfo(np.int64).max:
        ranks = ranks.astype(object)
    ids = np.zeros(len(ranks), dtype=ranks.dtype)
    for column in ranks.T:
        ids = ids * base + column
    return ids


def secure_orders(n: int, allow_large_n: bool = False) -> Iterator[DecodingOrder]:
    """Stream every secure order for n users, ascending by order id, built
    column by column (see ``_secure_rank_blocks``) rather than filtered out
    of all (N!)^N orders. Refuses n > ENUMERATION_CAP unless explicitly
    overridden, and n > _LIST_CEILING always."""
    blocks = _secure_rank_blocks(n, allow_large_n)
    # the columns of S's rows, each built once per call
    column = lru_cache(maxsize=None)(partial(_perm_unrank, n))
    return (
        DecodingOrder(columns=tuple(map(column, row)))
        for block in blocks
        for row in block.tolist()
    )


def favourable_orders(n: int) -> Iterator[DecodingOrder]:
    """Stream every favourable order for n users, ascending by order id: the
    product over receivers of the columns that end with the receiver itself.
    Refuses n > ENUMERATION_CAP."""
    _check_cap(n, None)
    table = _column_table(n)
    columns = [list(map(tuple, table[table[:, -1] == m].tolist())) for m in range(1, n + 1)]
    return (DecodingOrder(columns=cols) for cols in product(*columns))
