"""The three workloads. Each operation is one call sequence into the
package's public API; its inputs come from the workload seed and the
operation's index, and its outputs go to ``checks``.

- beta-sweep-n4: run_experiment at N = 4, five schemes, DEFAULT_BETA_GRID,
  then export to CSV. Almost all time is optimizer arithmetic over the 3036
  secure orders.
- small-cells: run_experiment at N = 3, export to CSV and JSON, then
  gain_vs_users on N = 2 and 3. Per-trial overhead, record building and
  writing dominate; the secure set has at most 12 orders.
- orders-n4: ``cli.main`` count and filter-secure at N = 4, stdout
  captured. Nearly all time is order enumeration; no physics.
"""
from __future__ import annotations

import contextlib
import io
import os
import random

import untrusted_noma as un
from untrusted_noma import cli

import checks

ZETA = 0.1
PT_DBM = 10.0
NOISE_DBM = -90.0
INV_RHO = 10.0 ** ((NOISE_DBM - PT_DBM) / 10.0)
SAMPLE_CELLS = 4  # (trial, beta) cells per operation recomputed by the scalar formula


def system_params(n: int):
    return un.SystemParams(n_users=n, pt_dbm=PT_DBM, noise_dbm=NOISE_DBM, zeta=ZETA)


def master_seed(seed: int, index: int) -> int:
    """Master seed of operation ``index`` in a run with workload seed ``seed``."""
    return (seed * 1_000_003 + index) % (1 << 63)


def setup_argv(seed: int, out_csv: str) -> list[str]:
    """What a command-line user runs on a fresh interpreter: a one-point
    sweep at N = 4 with every scheme, which builds the secure set."""
    return ["sweep", "--users", "4", "--seed", str(seed), "--beta-grid=0", "--output", out_csv]


def run_cli(argv: list[str]) -> str:
    """``cli.main`` in-process with stdout captured; a non-zero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli {argv} exited with {code}")
    return buf.getvalue()


class _SweepWorkload:
    n_users: int
    block: int

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.seed = seed
        self.tmpdir = tmpdir

    def config(self, index: int):
        return un.ExperimentConfig(
            params=system_params(self.n_users),
            trials=self.block,
            master_seed=master_seed(self.seed, index),
            beta_grid=un.DEFAULT_BETA_GRID,
            schemes=checks.SCHEMES,
        )

    def path(self, ext: str) -> str:
        return os.path.join(self.tmpdir, f"records.{ext}")

    def check_records(self, index: int, records) -> list[str]:
        cfg = self.config(index)
        grid = tuple(cfg.beta_grid)
        rng = random.Random(cfg.master_seed)
        sample = [(rng.randrange(self.block), rng.randrange(len(grid))) for _ in range(SAMPLE_CELLS)]

        def gains_of(trial: int):
            seed = un.derive_trial_seed(cfg.master_seed, trial)
            return un.sample_channels(cfg.params, seed).gains

        return checks.check_rows(
            records, self.n_users, self.block, grid, gains_of, sample, ZETA, INV_RHO
        ) + checks.check_csv(self.path("csv"), records, self.n_users)


class BetaSweepN4(_SweepWorkload):
    n_users = 4
    block = 25

    def op(self, index: int):
        records = un.run_experiment(self.config(index))
        un.export(records, self.path("csv"), "csv")
        return records

    def check(self, index: int, records) -> list[str]:
        return self.check_records(index, records)


class SmallCells(_SweepWorkload):
    n_users = 3
    block = 120

    def op(self, index: int):
        cfg = self.config(index)
        records = un.run_experiment(cfg)
        un.export(records, self.path("csv"), "csv")
        un.export(records, self.path("json"), "json")
        gains = un.gain_vs_users(cfg, (2, 3))
        return records, gains

    def check(self, index: int, output) -> list[str]:
        records, gains = output
        grid = tuple(self.config(index).beta_grid)
        return (
            self.check_records(index, records)
            + checks.check_json(self.path("json"), records)
            + checks.check_gain(gains, records, grid)
        )


class OrdersN4:
    def __init__(self, seed: int, tmpdir: str) -> None:
        pass

    def op(self, index: int):
        return run_cli(["count", "--users", "4"]), run_cli(["filter-secure", "--users", "4"])

    def check(self, index: int, output) -> list[str]:
        counted, filtered = output
        return checks.check_count(counted, 4) + checks.check_filter_secure(filtered, 4)


WORKLOADS = {
    "beta-sweep-n4": BetaSweepN4,
    "small-cells": SmallCells,
    "orders-n4": OrdersN4,
}
