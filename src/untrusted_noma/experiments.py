"""Seeded Monte Carlo harness: secrecy-rate sweeps over the power-allocation
exponent, policy-vs-benchmark gain versus user count, and tabular export.

Every run is a pure function of its configuration: trial seeds are derived
from the master seed with a fixed 64-bit mix, so any single row can be
replayed in isolation and repeated runs are byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
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
    sweep_all,
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


def _trial_sweeps(
    config: ExperimentConfig, params: SystemParams, schemes: Sequence[str]
) -> Iterator[dict[str, list[SweepPoint]]]:
    """``sweep_all`` over the config's beta grid, once per trial t, on the
    channels drawn from ``derive_trial_seed(config.master_seed, t)``."""
    for trial in range(config.trials):
        channels = sample_channels(params, derive_trial_seed(config.master_seed, trial))
        yield sweep_all(schemes, config.beta_grid, channels, params)


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; rows are ordered by trial, then scheme, then beta.

    Trial t draws its channels from ``derive_trial_seed(master_seed, t)``,
    so results are independent of how trials are scheduled and any row can
    be reproduced from (master_seed, trial) alone.
    """
    sweeps = _trial_sweeps(config, config.params, config.schemes)
    return [record for trial, sweep in enumerate(sweeps) for record in sweep_records(trial, sweep)]


def gain_vs_users(
    config: ExperimentConfig,
    user_counts: Sequence[int],
    aggregate: str = "mean",
) -> list[GainRow]:
    """Mean policy value (better of the two policy matrices at its best grid
    beta, per trial) vs the benchmark average (mean over the beta grid),
    per user count, with the relative gain in percent.

    ``aggregate="median"`` swaps the across-trial statistic; fading makes the
    per-trial values heavy-tailed, so medians can be the more stable summary.
    When the benchmark statistic is 0 (no secure order gives every user
    positive secrecy, e.g. zeta = 1), the relative gain is undefined and
    ``gain_percent`` is ``math.nan``. Every user count is checked against
    the enumeration cap before any trial runs.
    """
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    stat = np.mean if aggregate == "mean" else np.median
    pol_schemes = (SCHEME_POLICY_LPWU, SCHEME_POLICY_LPSU)
    schemes = pol_schemes + (SCHEME_BENCHMARK,)
    cells = [replace(config.params, n_users=n) for n in user_counts]
    for params in cells:
        _check_request(schemes, config.beta_grid, params.n_users)
    rows: list[GainRow] = []
    for params in cells:
        policy_vals = []
        bench_vals = []
        for sweeps in _trial_sweeps(config, params, schemes):
            policy_vals.append(max(point.value for s in pol_schemes for point in sweeps[s]))
            bench_vals.append(float(np.mean([point.value for point in sweeps[SCHEME_BENCHMARK]])))
        mean_policy = float(stat(policy_vals))
        mean_bench = float(stat(bench_vals))
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


_FIXED_HEADER = ("trial", "beta", "scheme", "order_id", "min_secrecy_rate")


def _header(records: Sequence[ResultRecord]) -> list[str]:
    cols = list(_FIXED_HEADER)
    if records:
        cols += [f"user_rate_{i + 1}" for i in range(len(records[0].per_user_rates))]
    return cols


def write_csv(records: Sequence[ResultRecord], stream) -> None:
    """Write records as CSV (LF line endings) to an open text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_header(records))
    for r in records:
        writer.writerow(
            [
                r.trial,
                format_number(r.beta),
                r.scheme,
                "" if r.order_id is None else r.order_id,
                format_number(r.min_secrecy_rate),
                *(format_number(v) for v in r.per_user_rates),
            ]
        )


def _record_dict(r: ResultRecord) -> dict:
    return {
        "trial": r.trial,
        "beta": float(format_number(r.beta)),
        "scheme": r.scheme,
        "order_id": r.order_id,
        "min_secrecy_rate": float(format_number(r.min_secrecy_rate)),
        "per_user_rates": [float(format_number(v)) for v in r.per_user_rates],
    }


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
            json.dump([_record_dict(r) for r in records], stream, indent=2)
            stream.write("\n")
