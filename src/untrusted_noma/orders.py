"""Decoding-order matrices: enumeration, security predicates, and policies.

A decoding order for an N-user cell is an N x N matrix whose m-th column is
the SIC sequence followed by receiver m: entry k of column m names the user
whose signal receiver m decodes at stage k. Users are indexed 1..N from the
strongest channel down.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations, product
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class DecodingOrder:
    """Immutable N x N decoding order; column m is receiver m's SIC sequence."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
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


def _check_cap(n: int, allow_large_n: bool) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_CAP and not allow_large_n:
        raise ValueError(
            f"enumeration is capped at {ENUMERATION_CAP} users ((N!)^N grows too fast); "
            f"pass allow_large_n=True (--allow-large-n) to override"
        )


def enumerate_orders(n: int, allow_large_n: bool = False) -> Iterator[DecodingOrder]:
    """Stream every decoding order for n users in ascending order-id.

    Column 1 is the most significant digit of the mixed-radix id, so the
    stream advances the last column fastest. Refuses n > ENUMERATION_CAP
    unless explicitly overridden.
    """
    _check_cap(n, allow_large_n)
    perms = tuple(permutations(range(1, n + 1)))
    for cols in product(perms, repeat=n):
        yield DecodingOrder(columns=cols)


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
    """Number of secure decoding orders, counted over the column walk of
    ``secure_orders`` without visiting its leaves.

    The orders that can follow column m depend only on m and on the stage
    bounds of the users m..N (see ``_admissible``), so the count of each
    such subtree is memoised. Column m contributes only through the stages
    of users m..N, so its permutations are grouped by those. Refuses
    n > ENUMERATION_CAP unless explicitly overridden.
    """
    _check_cap(n, allow_large_n)
    grouped = [
        tuple((k, stages) for stages, k in Counter(s for _, s in choices).items())
        for choices in _column_choices(n)
    ]

    @lru_cache(maxsize=None)
    def count_from(m: int, bound: tuple[int, ...]) -> int:
        if m == n:
            return 1
        return sum(k * count_from(m + 1, later) for k, later in _admissible(grouped[m], bound))

    return count_from(0, (-1,) * n)


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
    return _rank_id(map(_perm_rank, order.columns), math.factorial(order.n_users))


def _rank_id(ranks: Iterable[int], base: int) -> int:
    """``order_id`` of an order given its per-column ranks, base = N!."""
    return reduce(lambda oid, r: oid * base + r, ranks, 0)


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
def _column_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """Every column for n users in lexicographic order, so that entry r is
    the permutation of rank r in ``order_id``'s mixed radix."""
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=8)
def _column_choices(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per receiver m = 1..n, ascending by rank: (rank, 0-based SIC stages
    of users m..N) for each column that decodes no weaker user last. A
    weaker user decoded last by receiver m has no later stage left for that
    user's own receiver to decode itself at, so no secure order uses it."""
    return tuple(
        tuple(
            (r, tuple(col.index(u) for u in range(m, n + 1)))
            for r, col in enumerate(_column_permutations(n))
            if col[-1] <= m
        )
        for m in range(1, n + 1)
    )


def _admissible(
    choices: Iterable[tuple[int, tuple[int, ...]]], bound: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The pruning rule of the secure walk, for one column m.

    ``bound`` holds, for users m..N, the latest stage at which receivers
    1..m-1 decode them. ``is_secure`` asks that receiver m decodes itself
    after its bound. Yields (key, bound of users m+1..N once this column is
    added) for each (key, stages of users m..N) in ``choices`` that does.
    """
    for key, stages in choices:
        if stages[0] > bound[0]:
            yield key, tuple(map(max, bound[1:], stages[1:]))


def _secure_column_ranks(n: int, allow_large_n: bool = False) -> Iterator[tuple[int, ...]]:
    """Stream the per-column ranks of every secure order, ascending by id.

    The walk fills columns 1..N depth-first, each in rank order, and keeps
    a column only if ``_admissible`` does. Every prefix it keeps can still
    be completed (no user was decoded last by a stronger receiver), so the
    walk meets no dead ends: O(|S| * N * N!) time. Refuses
    n > ENUMERATION_CAP unless explicitly overridden.
    """
    _check_cap(n, allow_large_n)
    choices = _column_choices(n)

    def walk(m: int, bound: tuple[int, ...], prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if m == n:
            yield prefix
            return
        for r, later in _admissible(choices[m], bound):
            yield from walk(m + 1, later, prefix + (r,))

    return walk(0, (-1,) * n, ())


def secure_orders(n: int, allow_large_n: bool = False) -> Iterator[DecodingOrder]:
    """Stream every secure order for n users, ascending by order id, built
    column by column (see ``_secure_column_ranks``) rather than filtered out
    of all (N!)^N orders. Refuses n > ENUMERATION_CAP unless explicitly
    overridden."""
    walk = _secure_column_ranks(n, allow_large_n)
    perms = _column_permutations(n)
    return (DecodingOrder(columns=tuple(perms[r] for r in ranks)) for ranks in walk)


def favourable_orders(n: int) -> Iterator[DecodingOrder]:
    """Stream every favourable order for n users, ascending by order id: the
    product over receivers of the columns that end with the receiver itself.
    Refuses n > ENUMERATION_CAP."""
    _check_cap(n, False)
    perms = _column_permutations(n)
    columns = [[col for col in perms if col[-1] == m] for m in range(1, n + 1)]
    return (DecodingOrder(columns=cols) for cols in product(*columns))
