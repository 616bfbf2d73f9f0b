"""Seeded Monte Carlo harness: secrecy-rate sweeps over the power-allocation
exponent, policy-vs-benchmark gain versus user count, and tabular export.

Every run is a pure function of its configuration: trial seeds are derived
from the master seed with a fixed 64-bit mix, so any single row can be
replayed in isolation and repeated runs are byte-identical.

A row is a ``ResultRecord``, a NamedTuple: it unpacks and compares equal to
the plain tuple of its six fields, and ``ResultRecord._fields`` names them.
It also carries the frozen dataclass field table it had as a dataclass, so
``dataclasses.fields``, ``replace`` and ``asdict`` still work on it. It is
the one row type the library returns, and a ``_Block`` is the one block
layout: ``_score_block`` returns its arrays from the kernel calls it cuts
the block into, ``_trial_blocks`` yields blocks of as many calls as fit in
one write batch, each with its own channel draw, and ``run_experiment``,
``sweep_all``, ``gain_vs_users`` and the writers read them. Records are
built from a block by one helper, ``_block_records``, with no Python frame
per record. ``run_experiment`` returns a read-only sequence that holds only
its blocks and builds its records each time they are read; the writers
read the blocks' columns. A request takes one form, in its
``ExperimentConfig``, before any kernel call: the grid and schemes as the
tuples ``_check_request`` checked, the betas as floats. ``gain_vs_users``
builds one per user count before any trial, ``sweep_all`` one of one trial.

The writers, ``write_csv``, ``write_json`` and ``export``, hand a run's
blocks, or else the records, to the writer body in ``text``, which spells
their bytes."""
from __future__ import annotations

import math
import operator
import os
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat
from typing import NamedTuple

import numpy as np

from . import text
from .optimizer import (
    SCHEME_BENCHMARK,
    SCHEME_POLICY_LPSU,
    SCHEME_POLICY_LPWU,
    SCHEMES,
    _block_trials,
    _check_request,
    _request_set,
    _score_block,
)
from .system import ChannelRealization, SystemParams, _as_float, _as_int, _sample_block

__all__ = [
    "DEFAULT_BETA_GRID",
    "ExperimentConfig",
    "ResultRecord",
    "GainRow",
    "derive_trial_seed",
    "run_experiment",
    "sweep_all",
    "gain_vs_users",
    "export",
]

DEFAULT_BETA_GRID: tuple[float, ...] = tuple(float(b) for b in np.linspace(-1.0, 1.0, 21))
# gain_vs_users' schemes: the policy values are columns 0 and 1 of a block,
# the benchmark's column 2
_GAIN_SCHEMES = (SCHEME_POLICY_LPWU, SCHEME_POLICY_LPSU, SCHEME_BENCHMARK)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable 64-bit mix of (master_seed, trial_index): the splitmix64 output
    function applied to master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15,
    all arithmetic modulo 2**64. O(1) per trial, safe for parallel trials."""
    z = (master_seed + (trial_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D49BBB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _trial_seeds(master_seed: int, trials: range) -> np.ndarray:
    """``derive_trial_seed(master_seed, t)`` for each trial t of the range,
    as uint64, in one array pass; uint64 arithmetic wraps modulo 2**64."""
    z = np.arange(trials.start + 1, trials.stop + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(master_seed & _MASK64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D49BBB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: physical parameters, trial count, seed, beta grid,
    and schemes to evaluate."""

    params: SystemParams
    trials: int = 1000
    master_seed: int = 0
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    schemes: tuple[str, ...] = SCHEMES

    def __post_init__(self) -> None:
        for name in ("trials", "master_seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        grid = tuple(_as_float("beta_grid", beta) for beta in self.beta_grid)
        schemes = tuple(self.schemes)
        _check_request(schemes, grid, self.params.n_users)
        object.__setattr__(self, "beta_grid", grid)
        object.__setattr__(self, "schemes", schemes)


class ResultRecord(NamedTuple):
    """One evaluated (trial, beta, scheme) row."""

    trial: int
    beta: float
    scheme: str
    order_id: int | None
    min_secrecy_rate: float
    per_user_rates: tuple[float, ...]


# the dataclass field table, frozen, on top of the tuple: dataclasses.fields,
# replace and asdict keep working on records, and the NamedTuple's own
# constructor, repr, equality and hash stay in place
dataclass(frozen=True, init=False, repr=False, eq=False)(ResultRecord)
# a record from a 6-tuple without a Python frame per record
_new_record = partial(tuple.__new__, ResultRecord)


@dataclass(frozen=True)
class GainRow:
    """Policy-vs-benchmark comparison for one user count."""

    n_users: int
    mean_policy_value: float
    mean_benchmark_value: float
    gain_percent: float


class _Block(NamedTuple):
    """A block of trials' scores, as ``_score_block`` returns them and
    ``_block_records`` reads them: the trials, the beta grid, the scheme
    names, and per (trial, scheme, beta) cell its value [T, S, B], its pick
    [T, S, B] (the index of its order in ``ids``, -1 for none) and its
    per-user rates [T, S, B, n], all C-contiguous; picks and rates are None
    in a block of values alone."""

    trials: range
    grid: tuple[float, ...]
    schemes: tuple[str, ...]
    values: np.ndarray
    picks: np.ndarray | None
    rates: np.ndarray | None
    ids: np.ndarray


def _trial_blocks(config: ExperimentConfig, values_only: bool = False) -> Iterator[_Block]:
    """The ``_Block``s of the config's schemes over its beta grid, of values
    alone when ``values_only``: as many trials each as ``_block_trials``
    fits in one write batch (``_batch_rows``). Each block derives its
    trials' seeds in one pass (``_trial_seeds``), draws their channels in
    one ``_sample_block`` call, trial t's from ``derive_trial_seed(seed,
    t)``, and scores them in one ``_score_block`` call."""
    params, schemes, grid = config.params, config.schemes, config.beta_grid
    ids = _request_set(schemes, params.n_users)[1]
    size = _block_trials(schemes, params.n_users, len(grid), text._batch_rows(params.n_users))
    for first in range(0, config.trials, size):
        trials = range(first, min(first + size, config.trials))
        gains = _sample_block(params, _trial_seeds(config.master_seed, trials).tolist())[1]
        scores = _score_block(schemes, grid, gains, params, values_only)
        yield _Block(trials, grid, schemes, *scores, ids)


def _block_records(block: _Block) -> Iterator[ResultRecord]:
    """The records of a block, by trial, then scheme, then beta, built with
    no Python frame per record."""
    trials, grid, schemes, values, picks, rates, ids = block
    return map(
        _new_record,
        zip(
            chain.from_iterable(map(repeat, trials, repeat(len(schemes) * len(grid)))),
            cycle(grid),
            cycle([scheme for scheme in schemes for _ in grid]),
            np.where(picks >= 0, ids.take(picks), None).ravel().tolist(),
            values.ravel().tolist(),
            # each record's rates as one tuple of the per-user columns
            zip(*rates.reshape(-1, rates.shape[-1]).T.tolist()),
        ),
    )


class _RunView(Sequence):
    """``run_experiment``'s records, read-only. It holds only the run's
    blocks (``_blocks``) and their row ends (``_ends``), and builds a record
    from them when it is read: an item from its block's arrays alone."""

    def __init__(self, blocks: Iterator[_Block]) -> None:
        self._blocks = tuple(blocks)
        self._ends = tuple(accumulate(block.values.size for block in self._blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[ResultRecord]:
        return chain.from_iterable(map(_block_records, self._blocks))

    def __reversed__(self) -> Iterator[ResultRecord]:
        """The records from the last, one block's at a time."""
        for block in reversed(self._blocks):
            yield from reversed(list(_block_records(block)))

    def _locate(self, row: int) -> tuple[int, int]:
        """The block that holds a row (past the last block for ``len``) and
        the row's position in it."""
        b = bisect_right(self._ends, row)
        return b, row - (self._ends[b - 1] if b else 0)

    def __getitem__(self, index):
        """A record, built from the one cell of its block, or a slice as a list."""
        if isinstance(index, slice):
            return list(self)[index]
        b, row = self._locate(range(len(self))[index])
        trials, grid, schemes, values, picks, rates, ids = self._blocks[b]
        t, s, j = np.unravel_index(row, values.shape)
        cell = np.s_[t:t + 1, s:s + 1, j:j + 1]
        one = trials[t:t + 1], grid[j:j + 1], schemes[s:s + 1], values[cell], picks[cell], rates[cell]
        return next(_block_records(_Block(*one, ids)))

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        """The first row in [start, stop) equal to ``value``, as ``list.index``
        finds it; the records are built in bulk from the block that holds
        ``start`` on, and none past the row found."""
        rows = range(len(self))[start:stop]
        b, skip = self._locate(rows.start)
        records = chain.from_iterable(map(_block_records, self._blocks[b:]))
        for row, record in zip(rows, islice(records, skip, None)):
            if record is value or record == value:
                return row
        raise ValueError(f"{value!r} is not in the run")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def run_experiment(config: ExperimentConfig) -> Sequence[ResultRecord]:
    """Run all trials; rows are ordered by trial, then scheme, then beta.

    Trial t draws its channels from ``derive_trial_seed(master_seed, t)``,
    so results are independent of how trials are scheduled and any row can
    be reproduced from (master_seed, trial) alone. The rows come as a
    read-only sequence over the run's blocks, which ``export`` writes from.
    """
    return _RunView(_trial_blocks(config))


def sweep_all(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> dict[str, list[ResultRecord]]:
    """Evaluate several schemes over a beta grid on one channel draw: per
    scheme, in request order, its records of trial 0, one per beta. The
    request is checked and stored first, as a one-trial ``ExperimentConfig``."""
    if channels.n_users != params.n_users:
        raise ValueError("channels and params disagree on the user count")
    request = ExperimentConfig(params, 1, beta_grid=beta_grid, schemes=schemes)
    schemes, grid = request.schemes, request.beta_grid
    scores = _score_block(schemes, grid, np.array([channels.gains]), params)
    ids = _request_set(schemes, params.n_users)[1]
    # one trial's records run scheme by scheme, a grid's worth each
    records = _block_records(_Block(range(1), grid, schemes, *scores, ids))
    return {scheme: list(islice(records, len(grid))) for scheme in schemes}


def gain_vs_users(config: ExperimentConfig, user_counts: Sequence[int]) -> list[GainRow]:
    """Mean policy value (better of the two policy matrices at its best grid
    beta, per trial) vs the benchmark average (mean over the beta grid),
    per user count, with the relative gain in percent.

    When the mean benchmark value is 0 (no secure order gives every user
    positive secrecy, e.g. zeta = 1), the relative gain is undefined and
    ``gain_percent`` is ``math.nan``. Every user count's request is built,
    and so checked, before any trial runs.
    """
    cells = [replace(config.params, n_users=n) for n in user_counts]
    requests = [replace(config, params=params, schemes=_GAIN_SCHEMES) for params in cells]
    rows: list[GainRow] = []
    for request in requests:
        policy_vals: list[float] = []
        bench_vals: list[float] = []
        for block in _trial_blocks(request, values_only=True):
            policy_vals += block.values[:, :2].max(axis=(1, 2)).tolist()
            bench_vals += block.values[:, 2].mean(axis=1).tolist()
        mean_policy, mean_bench = float(np.mean(policy_vals)), float(np.mean(bench_vals))
        gain = 100.0 * (mean_policy - mean_bench) / mean_bench if mean_bench else math.nan
        rows.append(GainRow(request.params.n_users, mean_policy, mean_bench, gain))
    return rows


def _runs(records: Sequence[ResultRecord]) -> Iterator[tuple]:
    """The records as runs of one per-user width, each with the distinct
    values of its trials, betas, schemes and order ids and its batches of
    rows: from the blocks of a ``run_experiment`` sequence, else from the
    records themselves."""
    if isinstance(records, _RunView):
        return map(text._block_run, records._blocks)
    return text._record_runs(records)


def write_csv(records: Sequence[ResultRecord], stream) -> None:
    """Write records as CSV (LF line endings) to an open text stream: the
    bytes of ``csv.writer`` over one row per record, numbers as
    ``format_number`` text, built a batch of equal-width records at a
    time as one row matrix of words."""
    text._write([(stream, False)], _runs(records))


def write_json(records: Sequence[ResultRecord], stream) -> None:
    """Write records as a JSON array to an open text stream: the bytes of
    ``json.dump(..., indent=2)`` over one object per record, then a newline.
    Numbers are parsed back from ``format_number``. Each batch of
    equal-width records is built as one row matrix of words."""
    text._write([(stream, True)], _runs(records))


def export(records: Sequence[ResultRecord], path: str | os.PathLike, format: str = "csv") -> None:
    """Write records to ``path`` as CSV or a structurally equivalent JSON
    array. Numeric fields carry 12 significant digits in both formats. The
    file is written whole or not at all, through ``text._output_file``."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    with text._output_file(path) as stream:
        text._write([(stream, format == "json")], _runs(records))
