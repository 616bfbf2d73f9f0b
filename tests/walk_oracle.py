"""Reference for the secure-order walk: a recursive generator with one
Python frame per kept prefix, yielding one tuple of column ranks per secure
order, ascending by id. It shares no pruning code with the block walk in
``untrusted_noma.orders``, so tests compare the two.
"""
from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from untrusted_noma.orders import _check_cap


def _column_choices(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per receiver m = 1..n, ascending by rank: (rank, 0-based SIC stages
    of users m..N) for each column that decodes no weaker user last. A
    weaker user decoded last by receiver m has no later stage left for that
    user's own receiver to decode itself at, so no secure order uses it."""
    return tuple(
        tuple(
            (r, tuple(col.index(u) for u in range(m, n + 1)))
            for r, col in enumerate(permutations(range(1, n + 1)))
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


def secure_column_ranks(n: int, allow_large_n: bool = False) -> Iterator[tuple[int, ...]]:
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
