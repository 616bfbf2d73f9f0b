"""Seeded Monte Carlo harness: secrecy-rate sweeps over the power-allocation
exponent, policy-vs-benchmark gain versus user count, and tabular export.

Every run is a pure function of its configuration: trial seeds are derived
from the master seed with a fixed 64-bit mix, so any single row can be
replayed in isolation and repeated runs are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .optimizer import (
    SCHEME_BENCHMARK,
    SCHEME_POLICY_LPSU,
    SCHEME_POLICY_LPWU,
    SCHEMES,
    SweepPoint,
    _check_request,
    _score_block,
    _trials_per_block,
)
from .system import SystemParams, sample_channels

__all__ = [
    "DEFAULT_BETA_GRID",
    "ExperimentConfig",
    "ResultRecord",
    "GainRow",
    "derive_trial_seed",
    "run_experiment",
    "sweep_records",
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


@dataclass(frozen=True)
class ResultRecord:
    """One evaluated (trial, beta, scheme) row."""

    trial: int
    beta: float
    scheme: str
    order_id: int | None
    min_secrecy_rate: float
    per_user_rates: tuple[float, ...]


@dataclass(frozen=True)
class GainRow:
    """Policy-vs-benchmark comparison for one user count."""

    n_users: int
    mean_policy_value: float
    mean_benchmark_value: float
    gain_percent: float


def sweep_records(trial: int, sweeps: dict[str, list[SweepPoint]]) -> list[ResultRecord]:
    """The rows of one trial's ``sweep_all`` result, by scheme, then beta."""
    return [
        ResultRecord(
            trial=trial,
            beta=point.beta,
            scheme=scheme,
            order_id=point.order_id,
            min_secrecy_rate=point.value,
            per_user_rates=point.per_user_rates,
        )
        for scheme, points in sweeps.items()
        for point in points
    ]


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


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; rows are ordered by trial, then scheme, then beta.

    Trial t draws its channels from ``derive_trial_seed(master_seed, t)``,
    so results are independent of how trials are scheduled and any row can
    be reproduced from (master_seed, trial) alone.
    """
    records: list[ResultRecord] = []
    for trials, scores in _trial_blocks(config, config.params, config.schemes):
        columns = [
            (scheme, values.tolist(), order_ids.tolist(), users.tolist())
            for scheme, (values, order_ids, users) in scores.items()
        ]
        for i, trial in enumerate(trials):
            for scheme, values, order_ids, users in columns:
                records += map(
                    ResultRecord,
                    repeat(trial),
                    config.beta_grid,
                    repeat(scheme),
                    order_ids[i],
                    values[i],
                    map(tuple, users[i]),
                )
    return records


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


_FIXED_HEADER = tuple(f.name for f in fields(ResultRecord) if f.name != "per_user_rates")
_CSV_BATCH = 256  # records joined into one write; larger batches raise peak RSS


def _header(records: Sequence[ResultRecord]) -> list[str]:
    cols = list(_FIXED_HEADER)
    if records:
        cols += [f"user_rate_{i + 1}" for i in range(len(records[0].per_user_rates))]
    return cols


@lru_cache(maxsize=64)
def _csv_text(field: str) -> str:
    """``field`` as ``csv.writer`` writes it inside a row, quoted if needed."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([field, ""])
    return line.getvalue()[:-2]


def _csv_line(r: ResultRecord) -> str:
    # every number as format_number writes it, spelled inline for speed
    users = "".join([f",{float(v):.12g}" for v in r.per_user_rates])
    return (
        f"{r.trial},{float(r.beta):.12g},{_csv_text(r.scheme)},"
        f"{'' if r.order_id is None else r.order_id},{float(r.min_secrecy_rate):.12g}{users}\n"
    )


def write_csv(records: Sequence[ResultRecord], stream) -> None:
    """Write records as CSV (LF line endings) to an open text stream: the
    bytes of ``csv.writer`` over one row per record, numbers as
    ``format_number`` text, built one line per record."""
    csv.writer(stream, lineterminator="\n").writerow(_header(records))
    for start in range(0, len(records), _CSV_BATCH):
        stream.write("".join([_csv_line(r) for r in records[start:start + _CSV_BATCH]]))


# json.dumps spells the non-finite floats its own way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_string = lru_cache(maxsize=64)(json.dumps)


def _json_number(x: float) -> str:
    """``json.dumps`` text of the float that ``format_number(x)`` parses to.
    Without an exponent that is the text itself, with ``.0`` appended to an
    integer; repr spells some exponent forms anew (``5e-324``, ``1e12`` as
    ``1000000000000.0``), so those are parsed back."""
    text = f"{float(x):.12g}"
    if "e" in text:
        return repr(float(text))
    if "." in text:
        return text
    return _JSON_NONFINITE.get(text, text + ".0")


def write_json(records: Sequence[ResultRecord], stream) -> None:
    """Write records as a JSON array to an open text stream, one record at a
    time: the bytes of ``json.dump(..., indent=2)`` over one object per
    record, then a newline. Numbers are parsed back from ``format_number``."""
    if not records:
        stream.write("[]\n")
        return
    sep = "[\n"
    for r in records:
        users = ",\n      ".join(_json_number(v) for v in r.per_user_rates)
        users = f"[\n      {users}\n    ]" if users else "[]"
        stream.write(
            f"{sep}  {{\n"
            f'    "trial": {r.trial},\n'
            f'    "beta": {_json_number(r.beta)},\n'
            f'    "scheme": {_json_string(r.scheme)},\n'
            f'    "order_id": {"null" if r.order_id is None else r.order_id},\n'
            f'    "min_secrecy_rate": {_json_number(r.min_secrecy_rate)},\n'
            f'    "per_user_rates": {users}\n'
            "  }"
        )
        sep = ",\n"
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
