"""Seeded Monte Carlo harness: secrecy-rate sweeps over the power-allocation
exponent, policy-vs-benchmark gain versus user count, and tabular export.

Every run is a pure function of its configuration: trial seeds are derived
from the master seed with a fixed 64-bit mix, so any single row can be
replayed in isolation and repeated runs are byte-identical.

A row is a ``ResultRecord``, a NamedTuple: it unpacks and compares equal to
the plain tuple of its six fields, and ``ResultRecord._fields`` names them.
It also carries the frozen dataclass field table it had as a dataclass, so
``dataclasses.fields``, ``replace`` and ``asdict`` still work on it. It is
the one row type from the kernel to the writers: ``run_experiment`` and
``sweep_all`` both build records from the block scorer's arrays with one
helper, ``_block_records``, with no Python frame per record. The public
entries check a request once, before any kernel call: ``ExperimentConfig``
for ``run_experiment``, ``gain_vs_users`` and ``sweep_all`` themselves.
The CSV and JSON writers take the records ``_WRITE_BATCH`` at a time and
format each run of equal-width records with one ``%`` template.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain, cycle, groupby, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .optimizer import (
    SCHEME_BENCHMARK,
    SCHEME_POLICY_LPSU,
    SCHEME_POLICY_LPWU,
    SCHEMES,
    _check_request,
    _score_block,
    _trials_per_block,
)
from .system import ChannelRealization, SystemParams, sample_channels

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
    "format_number",
]

DEFAULT_BETA_GRID: tuple[float, ...] = tuple(float(b) for b in np.linspace(-1.0, 1.0, 21))

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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_request(self.schemes, self.beta_grid, self.params.n_users)


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


def _trial_blocks(
    config: ExperimentConfig, params: SystemParams, schemes: Sequence[str]
) -> Iterator[tuple[range, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
    """``_score_block`` over the config's beta grid, a block of trials at a
    time, as (the block's trials, their scores). Trial t's channels are
    drawn from ``derive_trial_seed(config.master_seed, t)``."""
    size = _trials_per_block(schemes, params.n_users, len(config.beta_grid))
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        seeds = (derive_trial_seed(config.master_seed, t) for t in trials)
        channels = [sample_channels(params, seed) for seed in seeds]
        yield trials, _score_block(schemes, config.beta_grid, channels, params)


def _block_records(
    trials: range,
    grid: Sequence[float],
    scores: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Iterator[ResultRecord]:
    """The records of a ``_score_block`` result for ``trials``, by trial,
    then scheme, then beta, built with no Python frame per record."""
    # [T, S, B] arrays (users [T, S, B, n]): flat in (trial, scheme, beta) order
    values, order_ids, users = (
        np.stack([score[i] for score in scores.values()], axis=1) for i in range(3)
    )
    return map(
        _new_record,
        zip(
            chain.from_iterable(map(repeat, trials, repeat(len(scores) * len(grid)))),
            cycle(grid),
            cycle([scheme for scheme in scores for _ in grid]),
            order_ids.ravel().tolist(),
            values.ravel().tolist(),
            map(tuple, users.reshape(-1, users.shape[-1]).tolist()),
        ),
    )


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; rows are ordered by trial, then scheme, then beta.

    Trial t draws its channels from ``derive_trial_seed(master_seed, t)``,
    so results are independent of how trials are scheduled and any row can
    be reproduced from (master_seed, trial) alone.
    """
    records: list[ResultRecord] = []
    for trials, scores in _trial_blocks(config, config.params, config.schemes):
        records += _block_records(trials, config.beta_grid, scores)
    return records


def sweep_all(
    schemes: Sequence[str],
    beta_grid: Sequence[float],
    channels: ChannelRealization,
    params: SystemParams,
) -> dict[str, list[ResultRecord]]:
    """Evaluate several schemes over a beta grid on one channel draw: per
    scheme, in request order, its records of trial 0, one per beta. The
    request is checked first, as ``ExperimentConfig`` checks a run's."""
    if channels.n_users != params.n_users:
        raise ValueError("channels and params disagree on the user count")
    _check_request(schemes, beta_grid, params.n_users)
    scores = _score_block(schemes, beta_grid, [channels], params)
    # one trial's records run scheme by scheme, a grid's worth each
    records = _block_records(range(1), beta_grid, scores)
    return {scheme: list(islice(records, len(beta_grid))) for scheme in scores}


def gain_vs_users(config: ExperimentConfig, user_counts: Sequence[int]) -> list[GainRow]:
    """Mean policy value (better of the two policy matrices at its best grid
    beta, per trial) vs the benchmark average (mean over the beta grid),
    per user count, with the relative gain in percent.

    When the mean benchmark value is 0 (no secure order gives every user
    positive secrecy, e.g. zeta = 1), the relative gain is undefined and
    ``gain_percent`` is ``math.nan``. Every user count is checked against
    the enumeration cap before any trial runs.
    """
    pol_schemes = (SCHEME_POLICY_LPWU, SCHEME_POLICY_LPSU)
    schemes = pol_schemes + (SCHEME_BENCHMARK,)
    cells = [replace(config.params, n_users=n) for n in user_counts]
    for params in cells:
        _check_request(schemes, config.beta_grid, params.n_users)
    rows: list[GainRow] = []
    for params in cells:
        policy_vals: list[float] = []
        bench_vals: list[float] = []
        for _, scores in _trial_blocks(config, params, schemes):
            policy = np.maximum(*(scores[s][0] for s in pol_schemes))  # [T, B]
            policy_vals += policy.max(axis=1).tolist()
            bench_vals += scores[SCHEME_BENCHMARK][0].mean(axis=1).tolist()
        mean_policy = float(np.mean(policy_vals))
        mean_bench = float(np.mean(bench_vals))
        rows.append(
            GainRow(
                n_users=params.n_users,
                mean_policy_value=mean_policy,
                mean_benchmark_value=mean_bench,
                gain_percent=(
                    100.0 * (mean_policy - mean_bench) / mean_bench if mean_bench else math.nan
                ),
            )
        )
    return rows


def format_number(x: float) -> str:
    """Canonical 12-significant-digit decimal text used in every export."""
    return format(float(x), ".12g")


_FIXED_HEADER = tuple(name for name in ResultRecord._fields if name != "per_user_rates")
_WRITE_BATCH = 256  # records formatted into one write; larger batches raise peak RSS


def _header(records: Sequence[ResultRecord]) -> list[str]:
    cols = list(_FIXED_HEADER)
    if records:
        cols += [f"user_rate_{i + 1}" for i in range(len(records[0].per_user_rates))]
    return cols


def _runs(records: Sequence[ResultRecord]) -> Iterator[tuple[int, tuple[tuple, ...]]]:
    """The records a batch of ``_WRITE_BATCH`` at a time, each batch split
    into runs of one per-user width, as (width, the run's six field
    columns)."""
    for start in range(0, len(records), _WRITE_BATCH):
        batch = records[start:start + _WRITE_BATCH]
        keyed = zip(map(len, map(attrgetter("per_user_rates"), batch)), batch)
        for width, run in groupby(keyed, key=itemgetter(0)):
            yield width, tuple(zip(*map(itemgetter(1), run)))


@lru_cache(maxsize=64)
def _csv_text(field: str) -> str:
    """``field`` as ``csv.writer`` writes it inside a row, quoted if needed."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([field, ""])
    return line.getvalue()[:-2]


# an order id as written: None as the empty field or null, any other id as
# itself (``map(d.get, ids, ids)``)
_CSV_ID = {None: ""}
_JSON_ID = {None: "null"}


def write_csv(records: Sequence[ResultRecord], stream) -> None:
    """Write records as CSV (LF line endings) to an open text stream: the
    bytes of ``csv.writer`` over one row per record, numbers as
    ``format_number`` text, formatted one run of equal-width records at a
    time by a single ``%`` template."""
    csv.writer(stream, lineterminator="\n").writerow(_header(records))
    for width, (trials, betas, schemes, order_ids, mins, users) in _runs(records):
        row = "%s,%.12g,%s,%s,%.12g" + ",%.12g" * width + "\n"
        fields = zip(
            trials,
            betas,
            map(_csv_text, schemes),
            map(_CSV_ID.get, order_ids, order_ids),
            mins,
            *zip(*users),
        )
        stream.write(row * len(trials) % tuple(chain.from_iterable(fields)))


# json.dumps spells the non-finite floats its own way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_string = lru_cache(maxsize=64)(json.dumps)
# one record of write_json's array, led by its separator, up to the rates
_JSON_FIELDS = (
    ',\n  {\n    "trial": %s,\n    "beta": %s,\n    "scheme": %s,\n'
    '    "order_id": %s,\n    "min_secrecy_rate": %s,\n    "per_user_rates": '
)


def _json_numbers(column: tuple[float, ...]) -> list[str]:
    """``json.dumps`` text of the float that ``format_number(x)`` parses to,
    for each x of the column, all formatted by one ``%`` pass. Text without
    an exponent is kept, with ``.0`` appended to an integer; repr spells some
    exponent forms anew (``5e-324``, ``1e12`` as ``1000000000000.0``), so
    those are parsed back."""
    texts = ("%.12g\n" * len(column) % column).split("\n")
    texts.pop()
    return [t if "." in t and "e" not in t else _json_spelling(t) for t in texts]


def _json_spelling(text: str) -> str:
    """The JSON text of a ``%.12g`` text that has an exponent or no point."""
    if "e" in text:
        return repr(float(text))
    return _JSON_NONFINITE.get(text, text + ".0")


def write_json(records: Sequence[ResultRecord], stream) -> None:
    """Write records as a JSON array to an open text stream: the bytes of
    ``json.dump(..., indent=2)`` over one object per record, then a newline.
    Numbers are parsed back from ``format_number``. Each run of equal-width
    records is formatted by a single ``%`` template."""
    if not records:
        stream.write("[]\n")
        return
    stream.write("[")
    skip = 1  # the first record's separator is "\n", after the "["
    for width, (trials, betas, schemes, order_ids, mins, users) in _runs(records):
        rates = "[\n      " + ",\n      ".join(["%s"] * width) + "\n    ]" if width else "[]"
        fields = zip(
            trials,
            _json_numbers(betas),
            map(_json_string, schemes),
            map(_JSON_ID.get, order_ids, order_ids),
            _json_numbers(mins),
            *map(_json_numbers, zip(*users)),
        )
        text = (_JSON_FIELDS + rates + "\n  }") * len(trials) % tuple(chain.from_iterable(fields))
        stream.write(text[skip:])
        skip = 0
    stream.write("\n]\n")


def export(records: Sequence[ResultRecord], path: str | Path, format: str = "csv") -> None:
    """Write records to ``path`` as CSV or a structurally equivalent JSON
    array. Numeric fields carry 12 significant digits in both formats."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if format == "csv":
            write_csv(records, stream)
        else:
            write_json(records, stream)
