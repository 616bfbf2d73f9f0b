import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import untrusted_noma
from untrusted_noma import (
    DEFAULT_BETA_GRID,
    SCHEMES,
    ExperimentConfig,
    SystemParams,
    cli,
    experiments,
    optimizer,
    orders,
    run_experiment,
    sample_channels,
    sweep_all,
    text,
)
from untrusted_noma.cli import CONFIG_ENV_VAR, main
from untrusted_noma.experiments import write_csv
from walk_oracle import secure_column_ranks


def subcommand_actions(subcommand: str) -> list[argparse.Action]:
    """The argparse actions of one subcommand of the CLI parser."""
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices[subcommand]._actions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_three_users(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--users", "3")
        assert code == 0
        assert out == "total=216 secure=12 favourable=8\n"

    def test_two_users(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--users", "2")
        assert code == 0
        assert out == "total=4 secure=1 favourable=1\n"

    def test_cap_named_in_error(self, capsys):
        code, out, err = run_cli(capsys, "count", "--users", "5")
        assert code == 1
        assert out == ""
        assert "capped" in err and "--allow-large-n" in err

    def test_five_users_with_override(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--users", "5", "--allow-large-n")
        assert code == 0
        assert out == "total=24883200000 secure=29638368 favourable=7962624\n"

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--users", "3", "--frobnicate")
        assert code == 1
        assert err.startswith("error:")


class TestFilterSecure:
    def test_two_users_streams_single_id(self, capsys):
        code, out, _ = run_cli(capsys, "filter-secure", "--users", "2")
        assert code == 0
        assert out == "2\n"

    def test_three_users_streams_twelve_ascending(self, capsys):
        code, out, _ = run_cli(capsys, "filter-secure", "--users", "3")
        assert code == 0
        ids = [int(line) for line in out.splitlines()]
        assert len(ids) == 12
        assert ids == sorted(ids)

    @pytest.mark.parametrize("users", ["-1", "0"])
    @pytest.mark.parametrize("subcommand", ["filter-secure", "count"])
    def test_nonpositive_users_is_one_error_line(self, capsys, subcommand, users):
        code, out, err = run_cli(capsys, subcommand, "--users", users)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n must be >= 1" in err

    def test_reader_closing_stdout_early_is_not_an_error(self):
        src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["filter-secure", "--users", "5", "--allow-large-n"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "untrusted_noma.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()  # 29.6 million ids: the writer is far from done
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first == b"6858475320\n"
        assert err == b""


def _oracle_listing(n, lines=None):
    """The ``filter-secure`` bytes for the oracle walk's first ``lines``
    orders: each rank tuple folded into its id in plain Python (mixed
    radix, base n!, column 1 most significant), one id per line."""
    base = math.factorial(n)
    out = []
    for ranks in islice(secure_column_ranks(n, allow_large_n=True), lines):
        oid = 0
        for r in ranks:
            oid = oid * base + r
        out.append(f"{oid}\n")
    return "".join(out)


class TestListingBytes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_listing_matches_oracle_walk(self, capsys, n):
        code, out, _ = run_cli(capsys, "filter-secure", "--users", str(n))
        assert code == 0
        assert out == _oracle_listing(n)

    # N = 5: the first block; N = 7: ids past int64
    @pytest.mark.parametrize("n, lines", [(5, 65_536), (7, 1_000)])
    def test_listing_head_matches_oracle_walk(self, n, lines):
        src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["filter-secure", "--users", str(n), "--allow-large-n"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "untrusted_noma.cli", *argv], stdout=subprocess.PIPE, env=env
        )
        head = b"".join(proc.stdout.readline() for _ in range(lines))
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert head.decode() == _oracle_listing(n, lines)


class TestCeilings:
    @pytest.mark.parametrize(
        "argv",
        [
            "filter-secure --users 10 --allow-large-n",
            "filter-secure --users 21 --allow-large-n",
            "filter-secure --users 21",
            "count --users 13 --allow-large-n",
            "count --users 21 --allow-large-n",
            "count --users 21",
        ],
    )
    def test_refused_with_one_error_line_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        # the column table of a listing and the count's DP
        for name in ("_column_table", "_column_choices", "defaultdict"):
            monkeypatch.setattr(orders, name, refuse)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "ceiling" in err and "would not finish" in err


class TestNoExhaustiveWalk:
    def test_count_filter_and_secure_orders_never_enumerate(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_orders called")

        monkeypatch.setattr(orders, "enumerate_orders", refuse)
        monkeypatch.setattr(cli, "enumerate_orders", refuse, raising=False)
        code, out, _ = run_cli(capsys, "count", "--users", "4")
        assert (code, out) == (0, "total=331776 secure=3036 favourable=1296\n")
        code, out, _ = run_cli(capsys, "filter-secure", "--users", "4")
        assert code == 0 and len(out.splitlines()) == 3036
        assert sum(1 for _ in orders.secure_orders(4)) == 3036


class TestPolicy:
    def test_descending_branch_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "policy", "--users", "3", "--beta", "-0.5")
        assert code == 0
        # rows are SIC stages, columns are users
        assert out == "3 3 2\n2 1 1\n1 2 3\n"

    def test_ascending_branch_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "policy", "--users", "3", "--beta", "0.5")
        assert code == 0
        assert out == "2 1 1\n3 3 2\n1 2 3\n"

    def test_bad_beta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "policy", "--users", "3", "--beta", "2.0")
        assert code == 1
        assert "beta" in err


class TestEval:
    def test_values_printed_and_exported(self, capsys, tmp_path):
        out_path = tmp_path / "eval.csv"
        code, out, _ = run_cli(
            capsys,
            "eval", "--users", "3", "--beta", "-0.3", "--seed", "42",
            "--output", str(out_path),
        )
        assert code == 0
        printed = dict(
            part.split("=") for line in out.splitlines() for part in line.split() if "=" in part
        )
        with open(out_path, newline="") as f:
            row = next(csv.DictReader(f))
        assert printed["order_id"] == row["order_id"]
        assert printed["min_secrecy_rate"] == row["min_secrecy_rate"]
        for i in (1, 2, 3):
            assert printed[f"user_rate_{i}"] == row[f"user_rate_{i}"]

    def test_rates_match_the_sweep_row_of_the_same_order(self, capsys):
        # at zeta = 1 the secrecy rate is a near-cancellation, so two
        # formulas for it disagree in the 12th digit
        system = ("--users", "4", "--seed", "5", "--zeta", "1")
        code, out, _ = run_cli(capsys, "eval", *system, "--beta", "0.5")
        assert code == 0
        printed = dict(part.split("=") for part in out.split())
        code, out, _ = run_cli(
            capsys, "sweep", *system, "--beta-grid=0.5", "--scheme", "policy-LPSU"
        )
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        swept = dict(zip(header, row))
        assert len(printed) == 7
        assert printed == {key: swept[key] for key in printed}

    def test_explicit_order_id(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--users", "2", "--beta", "0.1", "--seed", "7", "--order-id", "2"
        )
        assert code == 0
        assert "order_id=2" in out

    def test_out_of_range_order_id(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--users", "2", "--beta", "0.1", "--seed", "7", "--order-id", "4"
        )
        assert code == 1
        assert "out of range" in err


class TestExtremePhysics:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--noise-dbm", "-4000"), "transmit SNR"),
            (("--pt-dbm", "4000"), "transmit SNR"),
            (("--field-len", "1e200"), "channel gains"),
            (("--field-len", "inf"), "field_len_m"),
        ],
    )
    def test_one_error_line_and_exit_1(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "eval", "--users", "3", "--seed", "1", "--beta", "0.2", *flags
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_sinr_overflow_is_one_error_line(self, capsys, tmp_path):
        # without residual interference the last-decoded user's SINR is
        # alpha * g * rho_t, past the float range at this power and gain
        config = tmp_path / "strong.cfg"
        config.write_text("path_loss_const = 1e10\n")
        code, out, err = run_cli(
            capsys, "eval", "--users", "2", "--seed", "1", "--beta", "0", "--zeta", "0",
            "--pt-dbm", "3080", "--noise-dbm", "0", "--config", str(config),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: SINR overflows") and err.count("\n") == 1


class TestSweep:
    ARGS = (
        "sweep", "--users", "3", "--seed", "5",
        "--beta-grid=-0.5,0,0.5", "--scheme", "policy-LPWU,benchmark",
    )

    def test_stdout_is_csv_with_expected_rows(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trial,beta,scheme,order_id,min_secrecy_rate,user_rate_1,user_rate_2,user_rate_3"
        assert len(lines) == 1 + 3 * 2

    def test_stdout_bytes_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_output_file_mirrors_stdout(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--output", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, out, _ = run_cli(capsys, *self.ARGS, "--output", str(path), "--format", "json")
        assert code == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 6
        assert {r["scheme"] for r in rows} == {"policy-LPWU", "benchmark"}

    def test_unwritable_output_gives_exit_2(self, capsys, tmp_path, monkeypatch):
        # refused before any work, not after the records were printed
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(optimizer, "_rate_table", refuse)
        missing = str(tmp_path / "missing" / "out.csv")
        for argv in (
            self.ARGS,
            ("simulate", "--users", "2", "--trials", "2", "--seed", "1"),
            ("eval", "--users", "2", "--beta", "0", "--seed", "1"),
        ):
            code, out, err = run_cli(capsys, *argv, "--output", missing)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert missing in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("held", [None, "an earlier run\n"])
    @pytest.mark.parametrize("argv", [
        ("sweep", "--users", "3", "--seed", "5"),
        ("eval", "--users", "3", "--beta", "-0.3", "--seed", "42"),
    ], ids=["sweep", "eval"])
    def test_a_full_disk_leaves_the_output_path_as_it_was(
        self, capsys, monkeypatch, tmp_path, argv, held, fmt
    ):
        # the writer writes its first batch, then finds the disk full
        write_rows = text._write_rows

        def full_after_one_batch(*args, **kwargs):
            write_rows(*args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(text, "_write_rows", full_after_one_batch)
        path = tmp_path / f"out.{fmt}"
        if held is not None:
            path.write_text(held)
        code, _, err = run_cli(capsys, *argv, "--output", str(path), "--format", fmt)
        assert code == 2
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert os.listdir(tmp_path) == ([] if held is None else [path.name])
        if held is not None:
            assert path.read_text() == held

    def test_bad_beta_grid_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--users", "3", "--seed", "5", "--beta-grid=a,b")
        assert (code, out) == (1, "")
        assert err == "error: invalid beta grid 'a,b'; expected comma-separated floats\n"

    def test_bad_scheme_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--users", "3", "--seed", "5", "--scheme", "nope"
        )
        assert code == 1
        assert "scheme" in err


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--users", "3", "--beta", "0.2", "--seed", "-1"],
            ["sweep", "--users", "3", "--seed", "-1"],
        ],
    )
    def test_one_error_line_naming_the_seed(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_simulate_takes_a_negative_master_seed(self, capsys):
        # trial seeds are mixed from the master seed modulo 2**64
        code, out, _ = run_cli(capsys, "simulate", "--users", "2", "--trials", "1", "--seed", "-5")
        assert code == 0
        assert len(out.splitlines()) == 1 + len(SCHEMES) * len(DEFAULT_BETA_GRID)


class TestSimulate:
    def test_row_accounting_and_system_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--users", "2", "--trials", "2", "--seed", "9",
            "--beta-grid=-0.5,0.5", "--scheme", "policy-LPSU",
            "--zeta", "0.2", "--pt-dbm", "12", "--noise-dbm", "-85", "--field-len", "400",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 2 * 2 * 1
        assert all(line.split(",")[2] == "policy-LPSU" for line in lines[1:])

    @staticmethod
    def fail_second_block(monkeypatch) -> int:
        """Make the second block's scoring raise; returns the first block's
        trial count. 200 trials are two blocks, of one kernel call each, at
        N = 3 with every scheme."""
        first = optimizer._trials_per_block(SCHEMES, 3, len(DEFAULT_BETA_GRID))
        assert first < 200 <= 2 * first
        score_block, calls = experiments._score_block, []

        def second_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("the second block failed")
            return score_block(*args, **kwargs)

        monkeypatch.setattr(experiments, "_score_block", second_call_fails)
        return first

    def test_a_later_block_failing_keeps_the_rows_written(self, capsys, monkeypatch):
        # the first block's rows are on stdout before the second is scored
        first = self.fail_second_block(monkeypatch)
        code, out, err = run_cli(capsys, "simulate", "--users", "3", "--trials", "200", "--seed", "1")
        assert (code, err) == (1, "error: the second block failed\n")
        monkeypatch.undo()
        assert out == _csv(run_experiment(ExperimentConfig(SystemParams(3), first, 1)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("held", [None, "an earlier run\n"])
    def test_a_failed_run_leaves_the_output_path_as_it_was(
        self, capsys, monkeypatch, tmp_path, fmt, held
    ):
        path = tmp_path / f"part.{fmt}"
        if held is not None:
            path.write_text(held)
        self.fail_second_block(monkeypatch)
        argv = ["simulate", "--users", "3", "--trials", "200", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--output", str(path), "--format", fmt)
        assert (code, err) == (1, "error: the second block failed\n")
        assert out.count("\n") > 1  # the first block was written before the failure
        assert os.listdir(tmp_path) == ([] if held is None else [path.name])
        if held is not None:
            assert path.read_text() == held

    def test_a_whole_run_replaces_the_output_file(self, capsys, tmp_path):
        # through a link, the file linked to is replaced, and keeps its mode
        path, link = tmp_path / "out.csv", tmp_path / "link.csv"
        path.write_text("an earlier run\n")
        path.chmod(0o640)
        link.symlink_to(path)
        argv = ["simulate", "--users", "2", "--trials", "3", "--seed", "1", "--output", str(link)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert path.read_text() == out
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "out.csv"] and link.is_symlink()
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_a_pipe_is_written_in_place(self, capsys, tmp_path):
        # no temporary file beside a pipe or device, and nothing replaces it
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ["simulate", "--users", "2", "--trials", "3", "--seed", "1", "--output", str(fifo)]
        code, out, _ = run_cli(capsys, *argv)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0 and read == [out]
        assert os.listdir(tmp_path) == ["fifo"] and stat.S_ISFIFO(fifo.stat().st_mode)

    def test_unopenable_output_exits_2_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_sample_block", refuse)
        argv = ["simulate", "--users", "3", "--trials", "2", "--seed", "1", "--output", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def _child_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _cli_child(*argv: str) -> subprocess.Popen:
    """The CLI in a child process, its stdout and stderr piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "untrusted_noma.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )


# count, filter-secure and policy draw no channels: numpy.random, and the
# sampler's hook of its seed words into PCG64, wait for the first draw
_LAZY_SAMPLER = """
import contextlib, io, sys
from untrusted_noma import cli, system
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["count", "--users", "3"]) == 0
    assert cli.main(["filter-secure", "--users", "3"]) == 0
    assert cli.main(["policy", "--users", "3", "--beta", "0.5"]) == 0
assert "numpy.random" not in sys.modules
assert system._generators.cache_info().currsize == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--users", "3", "--beta", "0.5", "--seed", "1"]) == 0
from numpy.random.bit_generator import ISeedSequence
assert isinstance(system._Words(None), ISeedSequence)
"""


def test_commands_without_channels_never_import_numpy_random():
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_SAMPLER], capture_output=True, env=_child_env(), timeout=120
    )
    assert (done.returncode, done.stderr) == (0, b"")


def test_package_exports_exactly_each_modules_all():
    # a fresh interpreter, where no test has imported untrusted_noma.cli
    done = subprocess.run(
        [sys.executable, "-c", "import untrusted_noma; print(*dir(untrusted_noma))"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    names = ("orders", "system", "optimizer", "experiments", "text")
    exported = {n for name in names for n in getattr(untrusted_noma, name).__all__}
    assert {n for n in done.stdout.split() if not n.startswith("_")} == exported | set(names)


class TestReaderClosesStdoutEarly:
    """``simulate``, ``sweep`` and ``eval`` end quietly when their reader
    closes stdout early, and still write the whole ``--output`` file."""

    GRID = ",".join(f"{-1 + 2 * i / 999:.6f}" for i in range(1000))

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--users", "3", "--trials", "2000", "--seed", "1"],
            ["sweep", "--users", "3", "--seed", "1", f"--beta-grid={GRID}"],
        ],
        ids=["simulate", "sweep"],
    )
    def test_output_file_is_whole(self, capsys, tmp_path, argv):
        piped, plain = tmp_path / "piped.csv", tmp_path / "plain.csv"
        proc = _cli_child(*argv, "--output", str(piped))
        first = proc.stdout.readline()
        proc.stdout.close()  # megabytes of rows are still to come
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
        code, out, _ = run_cli(capsys, *argv, "--output", str(plain))
        assert code == 0
        assert len(out) > 2**18  # far more than a pipe and stdout's buffer hold
        assert first.decode() == out.splitlines(keepends=True)[0]
        assert piped.read_bytes() == plain.read_bytes()

    def test_eval_writes_its_output_file_with_no_reader(self, capsys, tmp_path):
        # stdout is a pipe whose reader is gone before the first line
        piped, plain = tmp_path / "piped.csv", tmp_path / "plain.csv"
        argv = ["eval", "--users", "3", "--beta", "-0.3", "--seed", "42", "--output"]
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "untrusted_noma.cli", *argv, str(piped)],
                stdout=write, stderr=subprocess.PIPE, env=_child_env(), timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, b"")
        assert run_cli(capsys, *argv, str(plain))[0] == 0
        assert piped.read_bytes() == plain.read_bytes()

    def test_simulate_prints_its_first_rows_promptly(self):
        # 10^11 trials: the rows must come a block at a time, not at the end
        proc = _cli_child("simulate", "--users", "3", "--trials", "100000000000", "--seed", "1")
        timer = threading.Timer(30, proc.kill)
        timer.start()
        try:
            head = [proc.stdout.readline() for _ in range(2)]
        finally:
            timer.cancel()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert head[0].startswith(b"trial,beta,scheme,order_id,")
        assert head[1].startswith(b"0,-1,optimal-L,")


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=lambda sig: sig.name)
def test_a_signal_stops_a_run_with_one_line(tmp_path, sig):
    # stopped mid-run, simulate leaves --output as it was and no temporary file
    out = tmp_path / "out.csv"
    out.write_bytes(b"kept\n")
    proc = _cli_child("simulate", "--users", "4", "--trials", "100000", "--seed", "1", "--output", str(out))
    timer = threading.Timer(60, proc.kill)  # the child never outlives the test
    timer.start()
    try:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.send_signal(sig)
        _, err = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()  # a no-op once the child has been waited for
        proc.communicate()
    assert head[1].startswith(b"0,-1,optimal-L,")
    assert proc.returncode == 128 + sig
    assert err == f"error: stopped by {sig.name}\n".encode()
    assert os.listdir(tmp_path) == ["out.csv"] and out.read_bytes() == b"kept\n"


class TestGain:
    def test_defaults_reproduce_the_readme_figures(self):
        args = cli.build_parser().parse_args(["gain"])
        assert (args.users, args.trials, args.seed) == ((2, 3, 4), 1000, 20250810)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--users", "2,x"], "user counts"),
            (["--users", "5"], "capped"),
            (["--users", "0"], "n_users"),
            (["--trials", "0"], "trials"),
        ],
    )
    def test_one_error_line_and_exit_1(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "gain", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


_NO_OUTPUT_RUNS = [
    ["eval", "--users", "3", "--beta", "0.2", "--seed", "1"],
    ["sweep", "--users", "3", "--seed", "1"],
    ["simulate", "--users", "3", "--trials", "2", "--seed", "1"],
]


class TestFormatWithoutOutput:
    # the format given by --format, then by output_format in json.cfg
    @pytest.mark.parametrize(
        "argv",
        [[*run, "--format", "json"] for run in _NO_OUTPUT_RUNS]
        + [[*run, "--config", "json.cfg"] for run in _NO_OUTPUT_RUNS],
    )
    def test_rejected_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "sample_channels", refuse)
        monkeypatch.setattr(cli, "_trial_blocks", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "json.cfg").write_text("output_format = json\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--output" in err

    def test_config_output_path_is_enough(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_path = out.json\n")
        argv = ["sweep", "--users", "2", "--seed", "1", "--config", str(cfg), "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(json.loads((tmp_path / "out.json").read_text())) == len(out.splitlines()) - 1


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n_users = 2\n"
            "zeta = 0.3  # residual interference\n"
            "trials = 2\n"
            "beta_grid = -0.5,0.5\n"
            "schemes = policy-LPWU\n"
            "master_seed = 4\n"
        )
        code, from_cfg, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert len(from_cfg.splitlines()) == 1 + 2 * 2

        code, overridden, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--trials", "1")
        assert code == 0
        assert len(overridden.splitlines()) == 1 + 1 * 2

    def test_env_var_provides_default_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("n_users = 2\ntrials = 1\nbeta_grid = 0.0\nschemes = policy-LPSU\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, _ = run_cli(capsys, "simulate")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_explicit_config_beats_env_var(self, capsys, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("n_users = 2\ntrials = 1\nbeta_grid = 0.0\nschemes = policy-LPSU\n")
        my_cfg = tmp_path / "mine.cfg"
        my_cfg.write_text("n_users = 2\ntrials = 2\nbeta_grid = 0.0\nschemes = policy-LPSU\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(my_cfg))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_users = 2\nwarp_factor = 9\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "warp_factor" in err
        cfg.write_text("n_users 3\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert err == f"error: {cfg}:1: expected 'key = value', got 'n_users 3'\n"

    @pytest.mark.parametrize("subcommand", ["simulate", "sweep"])
    def test_bad_output_format_rejected_before_any_work(self, capsys, tmp_path, monkeypatch, subcommand):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_trial_blocks", refuse)
        monkeypatch.setattr(cli, "sweep_all", refuse)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_users = 2\ntrials = 1\noutput_path = out.xml\noutput_format = xml\n")
        code, out, err = run_cli(capsys, subcommand, "--config", str(cfg), "--seed", "1")
        assert code == 1
        assert out == ""
        assert "output_format" in err

    def test_missing_users_reported(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--seed", "1")
        assert code == 1
        assert "--users" in err

    @pytest.mark.parametrize(
        "argv, trials, ignored",
        [
            (("eval", "--beta", "0.1"), 5, "beta_grid, master_seed, schemes, trials"),
            (("sweep", "--beta-grid=-0.5,0.5", "--scheme", "policy-LPWU"), 5, "master_seed, trials"),
            # a value that simulate would reject goes unchecked where it goes unused
            (("sweep", "--beta-grid=-0.5,0.5", "--scheme", "policy-LPWU"), 0, "master_seed, trials"),
        ],
        ids=["eval", "sweep", "sweep-trials-0"],
    )
    def test_unused_keys_named_in_one_warning(self, capsys, tmp_path, argv, trials, ignored):
        # eval and sweep draw their one realization from --seed alone
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"master_seed = 7\ntrials = {trials}\nbeta_grid = 0.3\nschemes = benchmark\n")
        flags = (*argv, "--users", "2", "--seed", "1")
        code, plain, err = run_cli(capsys, *flags)
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, *flags, "--config", str(cfg))
        assert code == 0
        assert out == plain
        assert err == f"warning: {argv[0]} ignores config keys {ignored}\n"

    def test_simulate_uses_every_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_users = 2\nmaster_seed = 7\ntrials = 1\nbeta_grid = 0.0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_users", "2.5"),
            ("trials", "x"),
            ("master_seed", "7e3"),
            ("beta_grid", "0,x"),
            ("output_format", "xml"),
            ("zeta", "high"),
        ],
    )
    def test_bad_value_is_one_error_line_naming_its_line(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"output_path = out.csv\n{key} = {value}\n")
        code, out, err = run_cli(capsys, "simulate", "--users", "2", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:2: bad value for {key!r}: {value!r}\n"

    @pytest.mark.parametrize("key", ["path_loss_const", "path_loss_exp"])
    def test_infinite_path_loss_is_one_error_line(self, capsys, tmp_path, key):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"{key} = inf\n")
        code, out, err = run_cli(capsys, "sweep", "--users", "2", "--seed", "1", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key} must be positive and finite") and err.count("\n") == 1


def _csv(records) -> str:
    stream = io.StringIO()
    write_csv(records, stream)
    return stream.getvalue()


class TestSettings:
    """Flags, config keys and dataclass fields are one set of names, and
    every default comes from ``SystemParams`` and ``ExperimentConfig``."""

    @pytest.fixture(autouse=True)
    def no_env_config(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)

    def test_simulate_takes_the_dataclass_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--users", "3", "--trials", "2", "--seed", "5")
        assert code == 0
        config = ExperimentConfig(SystemParams(3), trials=2, master_seed=5)
        assert out == _csv(run_experiment(config))

    def test_sweep_takes_the_dataclass_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--users", "3", "--seed", "5")
        assert code == 0
        params = SystemParams(3)
        sweeps = sweep_all(SCHEMES, DEFAULT_BETA_GRID, sample_channels(params, 5), params)
        assert out == _csv([record for rows in sweeps.values() for record in rows])

    CONFIG_VALUES = {
        "pt_dbm": 12.5,
        "noise_dbm": -85.5,
        "zeta": 0.25,
        "field_len_m": 400.0,
        "path_loss_const": 2.0,
        "path_loss_exp": 2.5,
        "min_dist_m": 2.0,
    }

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SystemParams) if f.name != "n_users"]
    )
    def test_config_field_reaches_the_sweep_params(self, capsys, tmp_path, monkeypatch, field):
        seen = []

        def capture(params, seed):
            seen.append(params)
            return sample_channels(params, seed)

        monkeypatch.setattr(cli, "sample_channels", capture)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field} = {self.CONFIG_VALUES[field]}\n")
        argv = ["sweep", "--users", "2", "--seed", "1", "--scheme", "policy-LPWU"]
        code, _, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert seen == [SystemParams(2, **{field: self.CONFIG_VALUES[field]})]

    @pytest.mark.parametrize("subcommand", ["eval", "sweep", "simulate"])
    def test_every_flag_dest_is_a_config_key(self, subcommand):
        dests = {
            a.dest for a in subcommand_actions(subcommand) if not isinstance(a, argparse._HelpAction)
        }
        assert dests - cli._CONFIG_KEYS <= {"seed", "beta", "order_id", "config"}
        # a dataclass field added without a table entry is not a config key
        for cls in (SystemParams, ExperimentConfig):
            assert {f.name for f in dataclasses.fields(cls)} - {"params"} <= cli._CONFIG_KEYS

    # a text per flagged setting, read the same from a flag and a config line
    FLAG_TEXTS = {
        "n_users": "3",
        "zeta": "0.25",
        "pt_dbm": "12.5",
        "noise_dbm": "-85.5",
        "field_len_m": "400",
        "output_path": "out.json",
        "output_format": "json",
        "trials": "4",
        "master_seed": "-7",
        "beta_grid": "-0.5,0,0.5",
        "schemes": "policy-LPWU, benchmark",
    }

    def test_a_flag_and_a_config_line_give_the_same_setting(self, tmp_path, monkeypatch):
        assert self.FLAG_TEXTS.keys() == cli._SETTINGS.keys()
        monkeypatch.chdir(tmp_path)
        flags = [f"{cli._SETTINGS[key][0]}={text}" for key, text in self.FLAG_TEXTS.items()]
        from_flags = cli._settings(cli.build_parser().parse_args(["simulate", *flags]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in self.FLAG_TEXTS.items()))
        from_config = cli._settings(cli.build_parser().parse_args(["simulate", "--config", str(cfg)]))
        assert from_flags == from_config
        assert from_flags.keys() == cli._SETTINGS.keys()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


# the three requests whose order ids pass Python's default 4300-digit limit
# for printing an int (N = 57), each valid otherwise
PAST_THE_ID_DIGIT_LIMIT = [
    ["eval", "--users", "57", "--seed", "1", "--beta", "0"],
    ["simulate", "--users", "57", "--trials", "1", "--scheme", "policy-LPWU"],
    ["sweep", "--users", "57", "--seed", "1", "--scheme", "policy-LPWU"],
]


class TestOrderIdDigitLimit:
    @pytest.mark.parametrize("argv", PAST_THE_ID_DIGIT_LIMIT, ids=lambda argv: argv[0])
    def test_refused_before_any_output(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: order ids at 57 users pass Python's 4300-digit limit for printing an int; "
            "they can be printed for at most 56 users"
        ]
        assert path.read_text() == "kept\n"

    def test_the_largest_printable_count_still_runs(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--users", "56", "--seed", "1", "--beta", "0")
        assert code == 0 and len(out.splitlines()[0]) > 4000
        code, out, _ = run_cli(capsys, "policy", "--users", "57", "--beta", "0")
        assert code == 0 and len(out.splitlines()) == 57

    def test_the_limit_is_pythons_own(self):
        # a user count passes exactly when str prints its largest order id
        def passes(n):
            try:
                optimizer._check_request(("policy-LPWU",), (0.0,), n)
            except ValueError:
                return False
            return True

        def printable(n):
            try:
                str(math.factorial(n) ** n - 1)
            except ValueError:
                return False
            return True

        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert [passes(n) for n in range(1, 31)] == [printable(n) for n in range(1, 31)]
            assert passes(25) and not passes(26)
            sys.set_int_max_str_digits(0)  # no limit
            assert passes(57) and passes(80)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_limit_changed_after_a_cached_call(self):
        # the largest printable count is kept per limit, so a check made
        # under one limit is not reused under another
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            optimizer._check_request(("policy-LPWU",), (0.0,), 56)
            sys.set_int_max_str_digits(640)
            with pytest.raises(ValueError, match="640-digit limit.* at most 25 users"):
                optimizer._check_request(("policy-LPWU",), (0.0,), 56)
            optimizer._check_request(("policy-LPWU",), (0.0,), 25)
            sys.set_int_max_str_digits(4300)
            optimizer._check_request(("policy-LPWU",), (0.0,), 56)
            with pytest.raises(ValueError, match="at most 56 users"):
                optimizer._check_request(("policy-LPWU",), (0.0,), 57)
        finally:
            sys.set_int_max_str_digits(limit)


# edge texts per flagged setting, users and trials kept small; hypothesis
# leans to the first text of a list, so a valid one leads each
FLOAT_EDGES = ["0.5", "0", "-0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "x"]
SEED_EDGES = ["7", "0", "-1", str(2**64), str(-(2**64)), str(2**64 - 1)]
SETTING_EDGES = {
    "n_users": ["3", "1", "2", "4", "0", "-1"],
    "trials": ["2", "1", "0", "-1"],
    "master_seed": SEED_EDGES,
    "beta_grid": ["-0.5,0,0.5", "0,0", "-1,1", "5e-324,-5e-324", "", ",", "nan", "inf", "1.5"],
    "schemes": ["policy-LPWU", ",".join(SCHEMES), "", ",", "benchmark,benchmark", "bogus"],
    "output_path": ["{dir}/out", "{dir}/missing/out"],
    "output_format": ["json", "csv", "xml"],
}
# the flags of eval and sweep that are not settings
OTHER_EDGES = {"--beta": FLOAT_EDGES, "--seed": SEED_EDGES, "--order-id": ["5", "0", "-1", str(2**64)]}


def flag_edges(subcommand: str) -> dict[str, list[str]]:
    """Each flag of the subcommand and its edge texts, from ``cli._SETTINGS``."""
    edges = {}
    for action in subcommand_actions(subcommand):
        if action.dest in cli._SETTINGS:
            flag, kwargs = cli._SETTINGS[action.dest]
            default = FLOAT_EDGES if kwargs.get("type") is float else None
            edges[flag] = SETTING_EDGES.get(action.dest, default)
        elif action.option_strings and action.dest not in ("help", "config"):
            edges[action.option_strings[0]] = OTHER_EDGES[action.option_strings[0]]
    return edges


# flags every invocation gives: those eval and sweep require, and --users
ALWAYS_GIVEN = ("--users", "--seed", "--beta")


@st.composite
def invocations(draw):
    """An eval, sweep or simulate argv: ``ALWAYS_GIVEN`` flags and up to
    three others, each given one of its edge texts."""
    subcommand = draw(st.sampled_from(["eval", "sweep", "simulate"]))
    edges = flag_edges(subcommand)
    optional = sorted(edges.keys() - set(ALWAYS_GIVEN))
    flags = [f for f in ALWAYS_GIVEN if f in edges]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    return [subcommand, *(f"{flag}={draw(st.sampled_from(edges[flag]))}" for flag in flags)]


class TestContract:
    """Every invocation of eval, sweep and simulate built from the settings
    table keeps the CLI contract: exit code 0, 1 or 2; a failure writes one
    ``error:`` line and no traceback; stdout is empty or whole rows."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("contract")

    def test_every_setting_has_edges(self):
        for subcommand in ("eval", "sweep", "simulate"):
            assert all(flag_edges(subcommand).values())

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(argv=invocations())
    @example(argv=PAST_THE_ID_DIGIT_LIMIT[0])
    @example(argv=PAST_THE_ID_DIGIT_LIMIT[1])
    @example(argv=PAST_THE_ID_DIGIT_LIMIT[2])
    def test_exit_codes_error_lines_and_whole_rows(self, out_dir, argv):
        argv = [arg.replace("{dir}", str(out_dir)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert out == "" or out.endswith("\n")
        if argv[0] != "eval" and out:
            rows = list(csv.reader(out.splitlines()))
            assert rows[0][:3] == ["trial", "beta", "scheme"]
            assert {len(row) for row in rows} == {len(rows[0])}
