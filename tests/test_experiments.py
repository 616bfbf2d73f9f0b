import ast
import copy
import csv
import dataclasses
import gc
import io
import json
import math
import os
import pickle
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untrusted_noma import (
    DEFAULT_BETA_GRID,
    SCHEMES,
    ExperimentConfig,
    ResultRecord,
    SystemParams,
    derive_trial_seed,
    export,
    gain_vs_users,
    run_experiment,
    sample_channels,
    sweep_all,
)
from untrusted_noma import cli, experiments, optimizer
from untrusted_noma.experiments import (
    _WRITE_BYTES,
    _batch_rows,
    _number_words,
    _text_words,
    _twelve_digits,
    format_number,
    write_csv,
    write_json,
)
from untrusted_noma.optimizer import _trials_per_block

SMALL_GRID = (-0.5, 0.0, 0.5)


def small_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        params=SystemParams(n_users=3),
        trials=3,
        master_seed=77,
        beta_grid=SMALL_GRID,
        schemes=("policy-LPWU", "benchmark"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# records of two rates per write batch
WRITE_BATCH = _batch_rows(2)


def many_records(count: int) -> list[ResultRecord]:
    return [
        ResultRecord(t, 0.1 * t, "policy-LPWU", t, 1.0 / (t + 1), (0.5,)) for t in range(count)
    ]


def uniform_then_mixed_widths() -> list[ResultRecord]:
    """One write batch of width-2 records, then records whose width changes
    every one to four records (0 to 3 rates)."""
    uniform = [
        ResultRecord(t, -1.0 + t / 128, "optimal-L", None if t % 5 else t, t / 7, (t / 3, 0.0))
        for t in range(WRITE_BATCH)
    ]
    widths = (0, 0, 1, 3, 3, 3, 2, 1, 1, 1, 1)
    mixed = [
        ResultRecord(
            t,
            1e-5 * t,
            ("benchmark", 'q"uote', "a,b")[t % 3],
            None if t % 2 else 2**70,
            1.0 / t,
            tuple(t / (k + 1) for k in range(widths[t % len(widths)])),
        )
        for t in range(WRITE_BATCH, 2 * WRITE_BATCH + 40)
    ]
    assert len({len(r.per_user_rates) for r in mixed}) == 4
    return uniform + mixed


# beta columns the writers spell each distinct value of once per call: zeros
# of both signs (one dict key, two texts) in either order, NaNs, and values
# that are all distinct, each over several write batches
BETA_COLUMNS = {
    "zero-first": [0.0, -0.0, 0, 0.5] * WRITE_BATCH,
    "negative-zero-first": [-0.0, 0.0, 0.5, 0] * WRITE_BATCH,
    "nans": [math.nan, float("nan"), -math.nan, 0.25, -0.0] * WRITE_BATCH,
    "distinct": [(t - 300) / 7 for t in range(3 * WRITE_BATCH)],
}


def spelled(values, json: bool) -> list[str]:
    """Each value's text from the writers' vectorised speller."""
    pieces = _number_words(np.array([values], dtype=np.float64), [_text_words(["", "-"])], json)
    return [row.tobytes().translate(None, b"\0").decode() for row in np.hstack(pieces)]


def json_two_pass(x: float) -> str:
    """The JSON text json.dumps gives the float format_number(x) parses to."""
    text = repr(float(format_number(x)))
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def beta_records(betas) -> list[ResultRecord]:
    return [
        ResultRecord(t, beta, "optimal-O", None if t % 3 else t, t / 9, (t / 5, 1e-7))
        for t, beta in enumerate(betas)
    ]


class TestResultRecord:
    """Records are NamedTuples that keep the frozen dataclass's interface:
    keyword construction, repr text, immutability, hashing, and the
    dataclasses field table."""

    record = ResultRecord(
        trial=3,
        beta=-0.5,
        scheme="policy-LPWU",
        order_id=None,
        min_secrecy_rate=0.25,
        per_user_rates=(0.25, 1e-300),
    )

    def test_keyword_construction_and_repr(self):
        assert repr(self.record) == (
            "ResultRecord(trial=3, beta=-0.5, scheme='policy-LPWU', order_id=None, "
            "min_secrecy_rate=0.25, per_user_rates=(0.25, 1e-300))"
        )
        assert ResultRecord(3, -0.5, "policy-LPWU", None, 0.25, (0.25, 1e-300)) == self.record

    def test_immutable_and_hashable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.record.trial = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            del self.record.beta
        twin = ResultRecord(**self.record._asdict())
        assert twin is not self.record and hash(twin) == hash(self.record)
        assert len({twin, self.record, replace(self.record, trial=4)}) == 2

    def test_tuple_and_dataclass_views(self):
        trial, beta, scheme, order_id, value, rates = self.record
        assert self.record == (3, -0.5, "policy-LPWU", None, 0.25, (0.25, 1e-300))
        assert (trial, order_id, rates) == (3, None, (0.25, 1e-300))
        names = [f.name for f in dataclasses.fields(ResultRecord)]
        assert names == list(ResultRecord._fields) == list(dataclasses.asdict(self.record))
        assert replace(self.record, order_id=7) == self.record._replace(order_id=7)

    def test_experiments_build_records(self):
        cfg = small_config()
        sweeps = sweep_all(cfg.schemes, cfg.beta_grid, sample_channels(cfg.params, 1), cfg.params)
        records = [*run_experiment(cfg), *(r for rows in sweeps.values() for r in rows)]
        assert {type(r) for r in records} == {ResultRecord}


class TestSeedDerivation:
    def test_frozen_values(self):
        # splitmix64 outputs; stable across platforms and releases
        assert derive_trial_seed(0, 0) == 5231208285418120623
        assert derive_trial_seed(0, 1) == 17747945522638022132
        assert derive_trial_seed(123456789, 0) == 785322715918602873

    def test_range_and_spread(self):
        seeds = {derive_trial_seed(42, t) for t in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


class TestConfig:
    def test_rejects_bad_values(self):
        params = SystemParams(n_users=3)
        with pytest.raises(ValueError):
            ExperimentConfig(params=params, trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(params=params, beta_grid=())
        with pytest.raises(ValueError):
            ExperimentConfig(params=params, beta_grid=(2.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(params=params, schemes=("nope",))
        with pytest.raises(ValueError):
            ExperimentConfig(params=params, schemes=())

    @pytest.mark.parametrize(
        "field, value", [("trials", 2.5), ("trials", "3"), ("master_seed", 1.5), ("master_seed", None)]
    )
    def test_trials_and_seed_must_be_integers(self, field, value, monkeypatch):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {value!r}$"):
            ExperimentConfig(params=SystemParams(n_users=3), **{field: value})
        # gain_vs_users builds a request per user count from a config set
        # past the check, and refuses it before any trial runs
        cfg = small_config()
        object.__setattr__(cfg, field, value)
        monkeypatch.setattr(experiments, "_trial_blocks", None)
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            gain_vs_users(cfg, (2, 3))

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_numpy_integers_are_taken_as_ints(self, seed):
        cfg = small_config(trials=np.int32(2), master_seed=seed)
        assert type(cfg.trials) is int and type(cfg.master_seed) is int
        assert cfg == small_config(trials=2, master_seed=5)
        assert run_experiment(cfg) == run_experiment(small_config(trials=2, master_seed=5))

    def test_enumeration_schemes_capped_before_any_work(self):
        with pytest.raises(ValueError):
            ExperimentConfig(params=SystemParams(n_users=5), schemes=("benchmark",))
        # policy-only configs stay legal beyond the cap
        ExperimentConfig(params=SystemParams(n_users=5), schemes=("policy-LPWU",))

    def test_default_grid_spans_unit_interval(self):
        assert len(DEFAULT_BETA_GRID) == 21
        assert DEFAULT_BETA_GRID[0] == -1.0
        assert DEFAULT_BETA_GRID[-1] == 1.0


class TestRunExperiment:
    def test_row_accounting(self):
        cfg = small_config()
        records = run_experiment(cfg)
        assert len(records) == cfg.trials * len(cfg.beta_grid) * len(cfg.schemes)
        counted = {}
        for r in records:
            counted[(r.trial, r.scheme)] = counted.get((r.trial, r.scheme), 0) + 1
        assert set(counted.values()) == {len(cfg.beta_grid)}

    def test_benchmark_only_produces_grid_rows(self):
        cfg = small_config(trials=1, schemes=("benchmark",))
        records = run_experiment(cfg)
        assert len(records) == len(SMALL_GRID)
        assert all(r.order_id is None for r in records)

    def test_prefix_stability_across_trial_counts(self):
        one = run_experiment(small_config(trials=1))
        two = run_experiment(small_config(trials=2))
        assert two[: len(one)] == one

    def test_rerun_is_identical(self):
        assert run_experiment(small_config()) == run_experiment(small_config())

    def test_any_row_replays_from_its_trial_seed(self):
        cfg = small_config()
        records = run_experiment(cfg)
        probe = records[7]
        seed = derive_trial_seed(cfg.master_seed, probe.trial)
        channels = sample_channels(cfg.params, seed)
        sweeps = sweep_all(cfg.schemes, cfg.beta_grid, channels, cfg.params)
        point = sweeps[probe.scheme][cfg.beta_grid.index(probe.beta)]
        assert point == probe._replace(trial=0)

    def test_rates_valid(self):
        for r in run_experiment(small_config()):
            assert r.min_secrecy_rate >= 0.0
            assert all(v >= 0.0 and np.isfinite(v) for v in r.per_user_rates)


class TestTrialBlocks:
    """run_experiment scores a block of trials per kernel call; every row
    must equal the matching row of a one-trial sweep_all, bit for bit."""

    @staticmethod
    def one_trial_records(cfg):
        records = []
        for t in range(cfg.trials):
            channels = sample_channels(cfg.params, derive_trial_seed(cfg.master_seed, t))
            sweeps = sweep_all(cfg.schemes, cfg.beta_grid, channels, cfg.params)
            records += [r._replace(trial=t) for rows in sweeps.values() for r in rows]
        return records

    def assert_rows_match(self, cfg, trials, blocks_of):
        # blocks of three trials, and at least ``trials`` trials, always
        # enough to cross two block boundaries
        blocks_of(3, cfg.schemes, cfg.params.n_users, len(cfg.beta_grid))
        per_block = _trials_per_block(cfg.schemes, cfg.params.n_users, len(cfg.beta_grid))
        cfg = replace(cfg, trials=max(trials, 2 * per_block + 1))
        assert run_experiment(cfg) == self.one_trial_records(cfg)

    @pytest.mark.parametrize("n, trials", [(1, 140), (2, 140), (3, 30), (4, 7)])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_all_schemes(self, blocks_of, n, trials, zeta):
        self.assert_rows_match(
            ExperimentConfig(params=SystemParams(n_users=n, zeta=zeta), master_seed=n + 31),
            trials,
            blocks_of,
        )

    @pytest.mark.parametrize("n", [5, 12, 21])
    def test_policies_beyond_the_cap(self, blocks_of, n):
        self.assert_rows_match(
            ExperimentConfig(
                params=SystemParams(n_users=n),
                master_seed=n,
                schemes=("policy-LPWU", "policy-LPSU"),
            ),
            45,
            blocks_of,
        )


class TestChannelBatches:
    """Channels are drawn in batches of whole kernel blocks, as many as fit
    in ``_DRAW_TRIALS`` trials and one at least: every draw but the last
    covers whole blocks, every trial's gains must still be those of its own
    seed, and every record the same."""

    @pytest.mark.parametrize(
        "config, per_block",
        [
            (ExperimentConfig(SystemParams(n_users=4), trials=25, master_seed=8), 3),
            (
                ExperimentConfig(
                    SystemParams(n_users=16), trials=40, master_seed=9,
                    schemes=("policy-LPWU", "policy-LPSU"),
                ),
                11,
            ),
        ],
        ids=["N4-all-schemes", "N16-policies"],
    )
    def test_rows_do_not_depend_on_where_batches_start(self, monkeypatch, config, per_block):
        params = config.params
        assert _trials_per_block(config.schemes, params.n_users, len(config.beta_grid)) == per_block
        want = np.array([
            sample_channels(params, derive_trial_seed(config.master_seed, t)).gains
            for t in range(config.trials)
        ])
        score_block, scored = experiments._score_block, []
        sample_block, drawn = experiments._sample_block, []

        def capture(schemes, grid, gains, *args):
            scored.append(gains.copy())
            return score_block(schemes, grid, gains, *args)

        def count_draws(params, seeds):
            drawn.append(len(seeds))
            return sample_block(params, seeds)

        monkeypatch.setattr(experiments, "_score_block", capture)
        monkeypatch.setattr(experiments, "_sample_block", count_draws)
        runs = []
        for draw in (1, 7, experiments._DRAW_TRIALS):
            monkeypatch.setattr(experiments, "_DRAW_TRIALS", draw)
            scored.clear()
            drawn.clear()
            runs.append(run_experiment(config))
            blocks, rest = divmod(config.trials, per_block)
            assert [len(gains) for gains in scored] == [per_block] * blocks + [rest]
            assert np.concatenate(scored).tobytes() == want.tobytes()
            assert sum(drawn) == config.trials
            assert all(trials % per_block == 0 for trials in drawn[:-1])
        assert runs[0] == runs[1] == runs[2]


class TestOrderIds:
    """Order ids reach the records as Python ints (or None), never numpy
    scalars, whether they come from int64 or exact object arrays."""

    @pytest.mark.parametrize("n, schemes", [(3, SCHEMES), (9, ("policy-LPWU", "policy-LPSU"))])
    def test_ids_are_python_ints_or_none(self, n, schemes):
        params = SystemParams(n_users=n)
        cfg = ExperimentConfig(params=params, trials=2, master_seed=n, schemes=schemes)
        sweeps = sweep_all(schemes, DEFAULT_BETA_GRID, sample_channels(params, n), params)
        records = [*run_experiment(cfg), *(r for rows in sweeps.values() for r in rows)]
        assert {type(r.order_id) for r in records} <= {int, type(None)}
        assert any(r.order_id is not None for r in records)


class TestSweepAll:
    def test_rows_by_scheme_in_request_order(self):
        params = SystemParams(n_users=3)
        schemes = ("benchmark", "policy-LPSU", "optimal-L")
        sweeps = sweep_all(schemes, SMALL_GRID, sample_channels(params, 4), params)
        assert tuple(sweeps) == schemes
        for scheme, rows in sweeps.items():
            assert [(r.trial, r.beta, r.scheme) for r in rows] == [
                (0, beta, scheme) for beta in SMALL_GRID
            ]

    def test_rejects_channels_of_another_user_count(self):
        channels = sample_channels(SystemParams(n_users=4), 1)
        with pytest.raises(ValueError, match="disagree on the user count"):
            sweep_all(("policy-LPWU",), SMALL_GRID, channels, SystemParams(n_users=3))


class TestKernelCalls:
    """Each block of trials is scored by exactly one rate-table call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        rate_table = optimizer._rate_table

        def counting(*args):
            counted.append(len(args[1]))  # the call's cells
            return rate_table(*args)

        monkeypatch.setattr(optimizer, "_rate_table", counting)
        return counted

    @pytest.mark.parametrize("n, trials", [(3, 120), (4, 25)])
    def test_run_experiment(self, calls, blocks_of, n, trials):
        cfg = ExperimentConfig(params=SystemParams(n_users=n), trials=trials, master_seed=n)
        blocks_of(3, cfg.schemes, n, len(cfg.beta_grid))
        run_experiment(cfg)
        assert len(calls) == math.ceil(trials / 3)
        assert sum(calls) == trials * len(cfg.beta_grid)

    def test_gain_vs_users(self, calls, blocks_of):
        cfg = small_config(trials=120, beta_grid=DEFAULT_BETA_GRID)
        schemes = ("policy-LPWU", "policy-LPSU", "benchmark")
        blocks_of(3, schemes, 3, len(DEFAULT_BETA_GRID))
        gain_vs_users(cfg, (2, 3))
        assert len(calls) == sum(
            math.ceil(120 / _trials_per_block(schemes, n, len(DEFAULT_BETA_GRID))) for n in (2, 3)
        )

    def test_gain_vs_users_refuses_before_scoring(self, calls):
        # N = 2 comes first, but the N = 5 request is refused before it runs
        with pytest.raises(ValueError, match="capped at 4 users"):
            gain_vs_users(small_config(), (2, 5))
        assert calls == []

    def test_sweep_all(self, calls):
        params = SystemParams(n_users=4)
        sweep_all(SCHEMES, DEFAULT_BETA_GRID, sample_channels(params, 2), params)
        assert calls == [len(DEFAULT_BETA_GRID)]


class TestGainVsUsers:
    def test_rejects_unsupported_counts(self):
        with pytest.raises(ValueError, match="capped at 4 users"):
            gain_vs_users(small_config(), [2, 5])
        # one user: both policies and the benchmark score the only order,
        # whose rate does not depend on beta
        (row,) = gain_vs_users(small_config(trials=2), [1])
        assert row.n_users == 1
        assert row.gain_percent == pytest.approx(0.0, abs=1e-9)

    def test_two_user_gain_never_negative(self):
        # with a single secure order the policy IS the optimum over S
        rows = gain_vs_users(small_config(trials=5), [2])
        assert rows[0].gain_percent >= 0.0

    def test_row_shape(self):
        rows = gain_vs_users(small_config(trials=2), [2, 3])
        assert [r.n_users for r in rows] == [2, 3]
        for r in rows:
            assert r.mean_policy_value >= r.mean_benchmark_value > 0.0

    @pytest.mark.parametrize(
        "config",
        [
            small_config(params=SystemParams(n_users=2, zeta=1.0), trials=2),
            small_config(params=SystemParams(n_users=2), trials=1, master_seed=28,
                         beta_grid=DEFAULT_BETA_GRID),
        ],
    )
    def test_zero_benchmark_gives_nan_gain(self, config):
        (row,) = gain_vs_users(config, [2])
        assert row.mean_benchmark_value == 0.0
        assert math.isnan(row.gain_percent)

    @pytest.mark.parametrize("n, trials", [(1, 140), (2, 140), (3, 30), (4, 3)])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_rows_match_one_trial_sweeps(self, n, trials, zeta):
        cfg = ExperimentConfig(
            params=SystemParams(n_users=3, zeta=zeta), trials=trials, master_seed=n + 57
        )
        params = replace(cfg.params, n_users=n)
        policy, bench = [], []
        for t in range(trials):
            channels = sample_channels(params, derive_trial_seed(cfg.master_seed, t))
            sweeps = sweep_all(
                ("policy-LPWU", "policy-LPSU", "benchmark"), cfg.beta_grid, channels, params
            )
            policy.append(
                max(p.min_secrecy_rate for s in ("policy-LPWU", "policy-LPSU") for p in sweeps[s])
            )
            bench.append(float(np.mean([p.min_secrecy_rate for p in sweeps["benchmark"]])))
        (row,) = gain_vs_users(cfg, [n])
        pol, ben = float(np.mean(policy)), float(np.mean(bench))
        assert (row.n_users, row.mean_policy_value, row.mean_benchmark_value) == (n, pol, ben)
        if ben:
            assert row.gain_percent == 100.0 * (pol - ben) / ben
        else:
            assert math.isnan(row.gain_percent)


class TestExport:
    def test_empty_records_give_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        export([], path, "csv")
        assert path.read_bytes() == b"trial,beta,scheme,order_id,min_secrecy_rate\n"

    def test_csv_round_trips_at_12_significant_digits(self, tmp_path):
        records = run_experiment(small_config(trials=2))
        path = tmp_path / "out.csv"
        export(records, path, "csv")
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert int(row["trial"]) == rec.trial
            assert row["scheme"] == rec.scheme
            assert row["order_id"] == ("" if rec.order_id is None else str(rec.order_id))
            for text, value in [
                (row["beta"], rec.beta),
                (row["min_secrecy_rate"], rec.min_secrecy_rate),
                (row["user_rate_1"], rec.per_user_rates[0]),
                (row["user_rate_3"], rec.per_user_rates[2]),
            ]:
                parsed = float(text)
                assert format(parsed, ".12g") == text  # formatting is idempotent
                assert parsed == pytest.approx(value, rel=1e-11, abs=1e-300)

    def test_json_matches_csv_field_by_field(self, tmp_path):
        records = run_experiment(small_config(trials=2))
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        export(records, csv_path, "csv")
        export(records, json_path, "json")
        with open(csv_path, newline="") as f:
            csv_rows = list(csv.DictReader(f))
        json_rows = json.loads(json_path.read_text())
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert int(c["trial"]) == j["trial"]
            assert c["scheme"] == j["scheme"]
            assert (None if c["order_id"] == "" else int(c["order_id"])) == j["order_id"]
            assert float(c["beta"]) == j["beta"]
            assert float(c["min_secrecy_rate"]) == j["min_secrecy_rate"]
            rates = [float(c[f"user_rate_{i + 1}"]) for i in range(3)]
            assert rates == j["per_user_rates"]

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "lf.csv"
        export(run_experiment(small_config(trials=1)), path, "csv")
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_missing_directory_surfaces_os_error(self, tmp_path):
        with pytest.raises(OSError):
            export([], tmp_path / "no" / "such" / "dir.csv", "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export([], tmp_path / "x.bin", "parquet")

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export(run_experiment(small_config()), a, "csv")
        export(run_experiment(small_config()), b, "csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("held", [None, b"an earlier run\n"])
    def test_a_failed_export_leaves_the_path_as_it_was(self, tmp_path, fmt, held):
        # a whole write batch is written before the bad record is reached
        path = tmp_path / f"out.{fmt}"
        if held is not None:
            path.write_bytes(held)
        records = many_records(_batch_rows(1))
        records.append(ResultRecord(len(records), 0.0, "policy-LPWU", 1, "bad", (0.5,)))
        with pytest.raises(ValueError):
            export(records, path, fmt)
        assert os.listdir(tmp_path) == ([] if held is None else [path.name])
        if held is not None:
            assert path.read_bytes() == held

    def test_overlapping_exports_to_one_path_each_write_whole(self, tmp_path, monkeypatch):
        # each thread waits inside its first batch until the other is in its
        # own, so both files are open at once
        lists = [many_records(3 * WRITE_BATCH), many_records(5)]
        wanted = [written(write_csv, records) for records in lists]
        path, barrier, met = tmp_path / "out.csv", threading.Barrier(2, timeout=30), set()
        write_rows = experiments._write_rows

        def meet(*args, **kwargs):
            if threading.get_ident() not in met:
                met.add(threading.get_ident())
                barrier.wait()
            return write_rows(*args, **kwargs)

        monkeypatch.setattr(experiments, "_write_rows", meet)
        errors = []

        def run(records):
            try:
                export(records, path, "csv")
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=run, args=(records,)) for records in lists]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes() in wanted
        assert os.listdir(tmp_path) == [path.name]

    def test_only_the_output_helper_opens_files_for_writing(self):
        package = Path(experiments.__file__).parent
        writers = [
            (source.name, function)
            for source in sorted(package.glob("*.py"))
            for function in _functions_opening_for_writing(ast.parse(source.read_text()))
        ]
        assert writers == [("experiments.py", "_output_file")] * 2  # a temporary file or a pipe


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call is an ``open`` (builtin, ``io.open`` or a method such
    as ``Path.open``) whose mode holds w, x or a, or a ``write_text`` /
    ``write_bytes`` method call. A mode that is no string constant counts
    as writing. ``os.open``, which takes flags, is left out: the package
    uses it only to point stdout at the null device."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open" or getattr(getattr(func, "value", None), "id", None) == "os":
        return False
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "io"
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[0 if method else 1:][:1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(
        set(mode.value) & set("wxa")
    )


def _functions_opening_for_writing(tree: ast.AST) -> list:
    """The innermost enclosing function (None at module level) of each call
    in ``tree`` that opens a file for writing, in source order."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


class TestCsvWriter:
    """The batch writer must give the bytes of csv.writer over one row per
    record, numbers as format_number text."""

    @staticmethod
    def csv_writer_bytes(records) -> bytes:
        stream = io.StringIO()
        writer = csv.writer(stream, lineterminator="\n")
        header = ["trial", "beta", "scheme", "order_id", "min_secrecy_rate"]
        if records:
            header += [f"user_rate_{i + 1}" for i in range(len(records[0].per_user_rates))]
        writer.writerow(header)
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
        return stream.getvalue().encode()

    @staticmethod
    def written_bytes(records) -> bytes:
        stream = io.StringIO()
        write_csv(records, stream)
        return stream.getvalue().encode()

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_bytes_match_csv_writer(self, n):
        # benchmark rows have no order id, and at zeta = 1 with N > 1 some
        # cells have no feasible optimal-L order, which leaves that id None
        records = run_experiment(
            small_config(params=SystemParams(n_users=n, zeta=1.0), schemes=SCHEMES, trials=2)
        )
        assert (n > 1) == any(r.order_id is None for r in records if r.scheme == "optimal-L")
        assert self.written_bytes(records) == self.csv_writer_bytes(records)

    def test_empty_records(self):
        assert self.written_bytes([]) == self.csv_writer_bytes([])

    def test_edge_values_match_csv_writer(self):
        inf = float("inf")
        records = [
            ResultRecord(0, -0.0, "benchmark", None, float("nan"), (inf, -inf, 1e-300)),
            ResultRecord(7, 0.1, 'quote"d', 2**70, 123456789012345.0, ()),
            ResultRecord(8, 1, "a,b", 0, 5, (2,)),
            ResultRecord(9, 0.5, "", None, 0.25, (0.5, 1e22)),
            ResultRecord(10, 0.5, "line\nbreak\r", 3, 0.25, ()),
            ResultRecord(11, 0.5, "nul\0byte \u00ff\u20ac", 4, 0.25, ()),
        ]
        assert self.written_bytes(records) == self.csv_writer_bytes(records)

    def test_many_records_cross_write_batches(self):
        records = many_records(9000)
        assert self.written_bytes(records) == self.csv_writer_bytes(records)

    def test_uniform_batch_then_mixed_widths(self):
        records = uniform_then_mixed_widths()
        assert self.written_bytes(records) == self.csv_writer_bytes(records)

    @pytest.mark.parametrize("betas", BETA_COLUMNS.values(), ids=list(BETA_COLUMNS))
    def test_beta_spellings_match_csv_writer(self, betas):
        records = beta_records(betas)
        assert self.written_bytes(records) == self.csv_writer_bytes(records)


class TestJsonWriter:
    """The batch writer must give the bytes of json.dump over one dict per
    record, numbers parsed back from their 12-digit text."""

    @staticmethod
    def json_dump_bytes(records) -> bytes:
        def number(x):
            return float(format_number(x))

        rows = [
            {
                "trial": r.trial,
                "beta": number(r.beta),
                "scheme": r.scheme,
                "order_id": r.order_id,
                "min_secrecy_rate": number(r.min_secrecy_rate),
                "per_user_rates": [number(v) for v in r.per_user_rates],
            }
            for r in records
        ]
        return (json.dumps(rows, indent=2) + "\n").encode()

    @staticmethod
    def written_bytes(records) -> bytes:
        stream = io.StringIO()
        write_json(records, stream)
        return stream.getvalue().encode()

    @pytest.mark.parametrize("n", [1, 3])
    def test_bytes_match_json_dump(self, tmp_path, n):
        records = run_experiment(
            small_config(params=SystemParams(n_users=n), schemes=SCHEMES, trials=4)
        )
        path = tmp_path / "r.json"
        export(records, path, "json")
        assert path.read_bytes() == self.json_dump_bytes(records)

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.json"
        export([], path, "json")
        assert path.read_bytes() == b"[]\n" == self.json_dump_bytes([])

    def test_edge_values_match_json_dump(self, tmp_path):
        inf = float("inf")
        records = [
            ResultRecord(0, -0.0, "benchmark", None, float("nan"), (inf, -inf, 1e-300)),
            ResultRecord(7, 0.1, 'quote"d', 2**70, 123456789012345.0, ()),
            ResultRecord(11, 0.5, "nul\0byte \u00ff\u20ac", 4, 0.25, ()),
        ]
        path = tmp_path / "edge.json"
        export(records, path, "json")
        assert path.read_bytes() == self.json_dump_bytes(records)

    def test_many_records_cross_write_batches(self):
        records = many_records(9000)
        assert self.written_bytes(records) == self.json_dump_bytes(records)

    def test_uniform_batch_then_mixed_widths(self):
        records = uniform_then_mixed_widths()
        assert self.written_bytes(records) == self.json_dump_bytes(records)

    @pytest.mark.parametrize("betas", BETA_COLUMNS.values(), ids=list(BETA_COLUMNS))
    def test_beta_spellings_match_json_dump(self, betas):
        records = beta_records(betas)
        assert self.written_bytes(records) == self.json_dump_bytes(records)

    def test_number_text_matches_repr_of_parsed_text(self):
        # the writer's speller against the two-pass spelling json.dumps
        # gives: repr of the float that the 12-digit text parses to
        rng = np.random.default_rng(20)
        edges = [
            0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 9.99999999999e-5, 1e-5, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e11, 999999999999.5, 1e12, 123456789012345.0, 1e16,
            1.7976931348623157e308, math.inf, -math.inf, math.nan,
        ]
        values = np.concatenate([
            edges,
            rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64),
            rng.uniform(-30.0, 30.0, size=20000),
            10.0 ** rng.uniform(-20.0, 20.0, size=20000) * rng.choice([-1.0, 1.0], size=20000),
        ])
        values = tuple(values.tolist())
        assert spelled(values, json=True) == [json_two_pass(x) for x in values]


def exact_ties(e: int) -> list[float]:
    """Doubles exactly half-way between two 12-digit decimals of exponent
    e: m / 2^(j + 1) with j = 11 - e and m odd, which scales to the
    half-integer m * 5^j / 2; the first, last and a spread of the rest."""
    j = 11 - e
    low = Fraction(10) ** e * 2 ** (j + 1)
    low, high = math.ceil(low), math.ceil(10 * low)
    odd = range(low | 1, high, 2)
    picks = [*odd[:20], *odd[-20:], *odd[:: max(1, len(odd) // 200)]]
    return [m / 2 ** (j + 1) for m in picks]


def neighbours(values) -> np.ndarray:
    """Each value and its float neighbours on both sides."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


class TestNumberSpeller:
    """The writers' vectorised speller must give format_number's text, and
    json.dumps' text of its parsed float, for every double."""

    @staticmethod
    def check(values) -> None:
        values = np.concatenate([values, -np.asarray(values)]).tolist()
        assert spelled(values, json=False) == [format_number(x) for x in values]
        assert spelled(values, json=True) == [json_two_pass(x) for x in values]

    @pytest.mark.parametrize("e", range(-4, 12))
    def test_exact_ties_and_neighbours(self, e):
        ties = exact_ties(e)
        assert all(
            (abs(x) * 10 ** (11 - e)) % 1 == 0.5 and 10**e <= x < 10 ** (e + 1) for x in ties
        )
        self.check(neighbours(ties))

    @pytest.mark.parametrize("e", range(-4, 12))
    def test_nearest_doubles_to_ties(self, e):
        rng = np.random.default_rng(e + 100)
        mantissas = rng.integers(10**11, 10**12, size=400).tolist()
        self.check(neighbours([float(f"{k}5e{e - 12}") for k in mantissas]))

    def test_powers_of_ten_and_carries(self):
        powers = [10.0**k for k in range(-30, 31)]
        carries = [float(f"999999999999.5e{e - 11}") for e in range(-6, 14)]
        below = [float(f"999999999999.4999e{e - 11}") for e in range(-6, 14)]
        self.check(neighbours(powers + carries + below))

    def test_zeros_subnormals_and_non_finite(self):
        tiny = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
        self.check(np.array([0.0, math.inf, math.nan, *neighbours(tiny)]))
        # columns with no fast-path number: each text is laid on NUL words alone
        for column in ([math.nan], [math.inf], [5e-324], [1e300]):
            assert not _twelve_digits(np.abs(column))[2].any()
            self.check(column)
        assert spelled([-0.0, 0.0], json=False) == ["-0", "0"]
        assert spelled([-0.0, 0.0], json=True) == ["-0.0", "0.0"]

    def test_exponent_forms(self):
        rng = np.random.default_rng(7)
        small = 10.0 ** rng.uniform(-320.0, -4.0, size=2000)
        large = 10.0 ** rng.uniform(12.0, 308.0, size=2000)
        self.check(neighbours([*small, *large, 1e-4, 1e12, 1e16, 1.7976931348623157e308]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(23)
        self.check(rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_every_float(self, values):
        self.check(values)

    def test_fast_path_covers_ordinary_rates(self):
        # all but a sliver near a rounding half is proven, so the fast path
        # cannot quietly fall back to spelling each number on its own
        rates = np.random.default_rng(5).uniform(0.0, 40.0, size=10**5)
        exact = _twelve_digits(rates)[2]
        assert np.count_nonzero(~exact) < 0.01 * len(rates)


class _Sink:
    """A text stream that keeps nothing."""

    def write(self, text: str) -> None:
        pass


class TestWriterMemory:
    """The writers hold one batch's row matrix at a time: their traced peak
    is bounded, and flat in the record count."""

    @staticmethod
    def run(trials):
        # an N = 3 run: 5 schemes, 21 betas
        return run_experiment(
            ExperimentConfig(params=SystemParams(n_users=3), trials=trials, master_seed=5)
        )

    @pytest.fixture(scope="class")
    def records(self):
        return self.run(120)

    @pytest.fixture(scope="class")
    def longer_run(self):
        return self.run(480)

    @staticmethod
    def traced_peak(write, records) -> int:
        write(records[:10], _Sink())  # the writers' small caches
        tracemalloc.start()
        try:
            write(records, _Sink())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("write", [write_csv, write_json])
    def test_peak_is_bounded_and_flat(self, records, longer_run, write):
        # each column source against itself at four times the records: the
        # records themselves, as a plain list, and a run's block columns
        assert len(records) == 12_600
        plain = list(records)
        peak = self.traced_peak(write, plain)
        assert peak < 2 * 2**20
        assert self.traced_peak(write, plain * 4) < 1.1 * peak + 2**16
        kept = self.traced_peak(write, records)
        assert kept < 2 * 2**20
        assert len(longer_run) == 4 * len(records)
        assert self.traced_peak(write, longer_run) < 1.1 * kept + 2**16

    def test_a_run_holds_only_its_blocks(self):
        # the records are built when read: what a run holds after it returns
        # is its block arrays and a few small objects
        self.run(120)  # the secure set and the kernel's caches
        gc.collect()
        tracemalloc.start()
        try:
            records = self.run(120)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = [a for block in records._blocks for a in (block.values, block.picks, block.rates)]
        assert held <= sum(a.nbytes for a in arrays) + 2**16

    def test_simulate_peak_is_flat_in_the_trial_count(self, monkeypatch):
        # cli simulate writes each kernel block as it comes and keeps none
        monkeypatch.setattr(sys, "stdout", _Sink())

        def traced_peak(trials):
            tracemalloc.start()
            try:
                argv = ["simulate", "--users", "3", "--trials", str(trials), "--seed", "5"]
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(10)  # the secure set and the writers' small caches
        assert traced_peak(4000) < 1.1 * traced_peak(1000) + 2**16

    def test_json_peak_of_a_run(self, records):
        # the number speller's temporaries are computed in place and a
        # batch's row matrix is built a slice of rows at a time, so writing
        # a run's block columns peaks within 2.5 batch row matrices
        assert self.traced_peak(write_json, records) < 2.5 * _WRITE_BYTES


def written(write, records) -> bytes:
    stream = io.StringIO()
    write(records, stream)
    return stream.getvalue().encode()


# what csv.writer and json.dump give over one row per record
REFERENCE = {
    write_csv: TestCsvWriter.csv_writer_bytes,
    write_json: TestJsonWriter.json_dump_bytes,
}
WRITERS = pytest.mark.parametrize("write", [write_csv, write_json], ids=["csv", "json"])

# runs whose block columns the writers read: every scheme at N = 1..4, zeta = 1
# (zero rates, and optimal-L cells with no feasible order), the policies at
# N = 9 (ids past int64), and a whole 120-trial N = 3 block, several write
# batches long, that holds numbers the fast speller cannot prove
KEPT_RUNS = {
    **{
        f"n{n}": dict(params=SystemParams(n_users=n), trials=7, master_seed=40 + n)
        for n in (1, 2, 3, 4)
    },
    "zeta-1": dict(params=SystemParams(n_users=3, zeta=1.0), trials=7, master_seed=7),
    "n9-policies": dict(
        params=SystemParams(n_users=9),
        trials=4,
        master_seed=9,
        schemes=("policy-LPWU", "policy-LPSU"),
    ),
    "slow-numbers": dict(params=SystemParams(n_users=3), trials=120, master_seed=5),
}


class TestKeptColumns:
    """run_experiment returns a read-only sequence over its blocks, and the
    writers read the blocks' columns: the bytes must be those the records
    themselves give. Any other sequence is written from its records."""

    @staticmethod
    def kept_run(name, blocks_of):
        cfg = ExperimentConfig(**KEPT_RUNS[name])
        if cfg.trials < 100:
            # blocks of three trials, so a run crosses block boundaries
            blocks_of(3, cfg.schemes, cfg.params.n_users, len(cfg.beta_grid))
        return run_experiment(cfg)

    @WRITERS
    @pytest.mark.parametrize("name", list(KEPT_RUNS))
    def test_kept_columns_write_the_records_bytes(self, blocks_of, name, write):
        records = self.kept_run(name, blocks_of)
        assert written(write, records) == written(write, list(records)) == REFERENCE[write](records)

    def test_runs_hold_their_cases(self, blocks_of):
        zeta = self.kept_run("zeta-1", blocks_of)
        assert any(r.min_secrecy_rate == 0 for r in zeta)
        assert any(r.order_id is None for r in zeta if r.scheme == "optimal-L")
        assert max(r.order_id for r in self.kept_run("n9-policies", blocks_of)) >= 2**63
        slow = self.kept_run("slow-numbers", blocks_of)
        assert len(slow) > 2 * _batch_rows(3)
        numbers = np.abs([[r.min_secrecy_rate, *r.per_user_rates] for r in slow]).ravel()
        assert not _twelve_digits(numbers[numbers > 0])[2].all()

    MUTATIONS = {
        "append": lambda records: records.append(records[0]),
        "sort": lambda records: records.sort(key=lambda r: r.min_secrecy_rate),
        "reverse": lambda records: records.reverse(),
        "item": lambda records: records.__setitem__(3, records[3]._replace(min_secrecy_rate=0.5)),
        "slice": lambda records: records.__setitem__(slice(2, 5), records[4:1:-1]),
        "del": lambda records: records.__delitem__(5),
        "extend": lambda records: records.extend(records[:2]),
    }

    @WRITERS
    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
    def test_a_changed_list_is_written_from_its_records(self, mutate, write):
        # a run cannot be changed; a list of its records can
        records = list(run_experiment(small_config(schemes=SCHEMES)))
        mutate(records)
        assert written(write, records) == REFERENCE[write](records)

    def test_a_run_is_read_only(self):
        records = run_experiment(small_config(schemes=SCHEMES))
        assert not hasattr(records, "append")
        with pytest.raises(TypeError):
            records[3] = records[3]
        with pytest.raises(TypeError):
            del records[3]
        with pytest.raises(TypeError):
            records + []

    def test_reading_twice_gives_equal_records(self):
        records = run_experiment(small_config(schemes=SCHEMES))
        first, second = list(records), list(records)
        assert first == second and first[0] is not second[0]

    def test_items_and_slices_are_the_records(self, blocks_of):
        # blocks of two trials, so items are found across block boundaries
        cfg = small_config(schemes=SCHEMES, trials=5)
        blocks_of(2, cfg.schemes, cfg.params.n_users, len(cfg.beta_grid))
        records = run_experiment(cfg)
        plain = list(records)
        assert len(records._blocks) == 3 and len(records) == len(plain)
        assert [records[i] for i in range(-len(plain), len(plain))] == plain * 2
        assert records[np.int64(7)] == plain[7]
        for index in (slice(None), slice(10, 40), slice(None, None, -3), slice(50, 5, -7)):
            assert type(records[index]) is list and records[index] == plain[index]
        for index in (len(plain), -len(plain) - 1):
            with pytest.raises(IndexError):
                records[index]

    def test_equality_with_any_sequence_both_ways(self):
        records = run_experiment(small_config(schemes=SCHEMES))
        plain = list(records)
        for other in (plain, tuple(plain), run_experiment(small_config(schemes=SCHEMES))):
            assert records == other and other == records
            assert not (records != other or other != records)
        changed = [*plain[:-1], plain[-1]._replace(min_secrecy_rate=-1.0)]
        for other in (changed, plain[:-1], [], None, 3):
            assert records != other and other != records

    def test_a_grid_list_changed_after_the_run(self):
        grid = list(SMALL_GRID)
        records = run_experiment(small_config(beta_grid=grid))
        grid[0] = 0.25
        assert written(write_csv, records) == REFERENCE[write_csv](records)

    COPIES = {
        "unpack": lambda records: [*records],
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda records: pickle.loads(pickle.dumps(records)),
    }

    @WRITERS
    @pytest.mark.parametrize("copy_of", COPIES.values(), ids=list(COPIES))
    def test_copies_write_the_same_bytes(self, copy_of, write):
        records = run_experiment(small_config(schemes=SCHEMES))
        other = copy_of(records)
        assert other == records and other is not records
        # an unpacked run is a plain list; a copy is a run over copied blocks
        assert type(other) is (list if copy_of is self.COPIES["unpack"] else type(records))
        assert written(write, other) == written(write, records) == REFERENCE[write](records)


class _ClosedPipe:
    """A text stream whose reader has gone."""

    def write(self, text: str) -> None:
        raise BrokenPipeError(32, "Broken pipe")


class TestSinks:
    """One writer body feeds every sink: each gets its own format's bytes,
    and a sink whose reader has gone is dropped while the others finish."""

    @pytest.fixture(scope="class")
    def records(self):
        return run_experiment(small_config(schemes=SCHEMES, trials=30))

    def test_each_sink_gets_its_formats_bytes(self, records):
        streams = [io.StringIO() for _ in range(3)]
        sinks = list(zip(streams, (False, True, False)))
        experiments._write(sinks, experiments._runs(records))
        csv_bytes, json_bytes = REFERENCE[write_csv](records), REFERENCE[write_json](records)
        assert [s.getvalue().encode() for s in streams] == [csv_bytes, json_bytes, csv_bytes]

    @pytest.mark.parametrize("json", [False, True])
    def test_a_closed_pipe_is_dropped_and_the_others_finish(self, records, json):
        stream = io.StringIO()
        with pytest.raises(BrokenPipeError):
            experiments._write([(_ClosedPipe(), False), (stream, json)], experiments._runs(records))
        assert stream.getvalue().encode() == REFERENCE[write_json if json else write_csv](records)

    def test_no_sink_left_stops_at_once(self, records):
        many = list(records) * 20
        assert len(list(experiments._record_runs(many))) > 2
        read = []
        runs = (read.append(run) or run for run in experiments._record_runs(many))
        with pytest.raises(BrokenPipeError):
            experiments._write([(_ClosedPipe(), True), (_ClosedPipe(), False)], runs)
        assert len(read) == 1


class TestKeptColumnsAreRead:
    """With the records-to-columns path refused, a run's export and ``cli
    simulate`` still succeed: they write from block columns, a run's or
    the kernel's own, so a silent fallback cannot hide."""

    @pytest.fixture(autouse=True)
    def refuse_record_columns(self, monkeypatch):
        def refuse(records):
            raise AssertionError("records turned back into columns")

        monkeypatch.setattr(experiments, "_record_runs", refuse)
        with pytest.raises(AssertionError, match="turned back"):
            write_csv(many_records(3), io.StringIO())

    @pytest.mark.parametrize("format, write", [("csv", write_csv), ("json", write_json)])
    def test_export(self, tmp_path, format, write, monkeypatch):
        # a run and its export build no record
        def refuse(block):
            raise AssertionError("records built from a block")

        path = tmp_path / f"records.{format}"
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_block_records", refuse)
            records = run_experiment(small_config(schemes=SCHEMES, beta_grid=DEFAULT_BETA_GRID))
            export(records, path, format)
        assert path.read_bytes() == REFERENCE[write](records)

    def test_cli_simulate(self, capsys, tmp_path, monkeypatch):
        # simulate writes its kernel blocks to both sinks and builds no record
        def refuse(block):
            raise AssertionError("records built from a block")

        path = tmp_path / "records.json"
        argv = ["simulate", "--users", "3", "--trials", "2", "--seed", "1", "--output", str(path)]
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_block_records", refuse)
            assert cli.main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        records = run_experiment(
            ExperimentConfig(params=SystemParams(n_users=3), trials=2, master_seed=1)
        )
        assert out.encode() == TestCsvWriter.csv_writer_bytes(records)
        assert path.read_bytes() == TestJsonWriter.json_dump_bytes(records)
