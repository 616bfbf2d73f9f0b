"""Command-line front door: counting, secure-order filtering, single-order
evaluation, policy generation, beta sweeps, full Monte Carlo runs, and the
policy-vs-benchmark secrecy gain versus user count.

Exit codes: 0 success (also when the reader closes stdout early), 1 invalid
input, 2 runtime/I-O failure. Powers are given in dBm and distances in
meters, converted internally. A config file (flat ``key = value`` lines,
``#`` comments) supplies defaults; explicit flags override it. The default
config path may be set via the UNTRUSTED_NOMA_CONFIG environment variable.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import astuple, fields
from itertools import islice
from typing import Sequence

from .experiments import (
    DEFAULT_BETA_GRID,
    ExperimentConfig,
    ResultRecord,
    export,
    format_number,
    gain_vs_users,
    run_experiment,
    sweep_records,
    write_csv,
)
from .optimizer import (
    SCHEME_BENCHMARK,
    SCHEME_POLICY_LPSU,
    SCHEME_POLICY_LPWU,
    SCHEMES,
    secrecy_rates,
    sweep_all,
)
from .orders import (
    _rank_id,
    _secure_column_ranks,
    count_secure,
    order_from_id,
    order_id,
    policy_order,
    total_orders,
)
from .system import SystemParams, power_allocation, sample_channels

__all__ = ["main", "entry"]

CONFIG_ENV_VAR = "UNTRUSTED_NOMA_CONFIG"

_PARAM_KEYS = {f.name for f in fields(SystemParams)}
_CONFIG_KEYS = _PARAM_KEYS | {
    "trials",
    "master_seed",
    "beta_grid",
    "schemes",
    "output_path",
    "output_format",
}


class _CliError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise _CliError(message)


def _parse_beta_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _CliError(f"invalid beta grid {text!r}; expected comma-separated floats")


def _parse_schemes(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_user_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise _CliError(f"invalid user counts {text!r}; expected comma-separated integers")


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into typed values."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _CliError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise _CliError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    typed: dict = {}
    for key, value in values.items():
        try:
            if key in ("n_users", "trials", "master_seed"):
                typed[key] = int(value)
            elif key == "beta_grid":
                typed[key] = _parse_beta_grid(value)
            elif key == "schemes":
                typed[key] = _parse_schemes(value)
            elif key == "output_format":
                if value not in ("csv", "json"):
                    raise ValueError(value)
                typed[key] = value
            elif key == "output_path":
                typed[key] = value
            else:  # remaining SystemParams fields are floats
                typed[key] = float(value)
        except ValueError:
            raise _CliError(f"{path}: bad value for {key!r}: {value!r}")
    return typed


def _load_config(args: argparse.Namespace) -> dict:
    """The config file's values. Rejects --format when no output path is
    given, before any work: the format would otherwise go unused."""
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    cfg = read_config_file(path) if path else {}
    if args.format is not None and not _pick(args, cfg, "output", "output_path", None):
        raise _CliError("--format needs --output (or output_path in the config file)")
    return cfg


def _pick(args: argparse.Namespace, cfg: dict, flag: str, key: str, default):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _build_params(args: argparse.Namespace, cfg: dict) -> SystemParams:
    n_users = _pick(args, cfg, "users", "n_users", None)
    if n_users is None:
        raise _CliError("--users is required (or n_users in the config file)")
    return SystemParams(
        n_users=n_users,
        pt_dbm=_pick(args, cfg, "pt_dbm", "pt_dbm", 10.0),
        noise_dbm=_pick(args, cfg, "noise_dbm", "noise_dbm", -90.0),
        zeta=_pick(args, cfg, "zeta", "zeta", 0.1),
        field_len_m=_pick(args, cfg, "field_len", "field_len_m", 500.0),
        path_loss_const=cfg.get("path_loss_const", 1.0),
        path_loss_exp=cfg.get("path_loss_exp", 3.0),
        min_dist_m=cfg.get("min_dist_m", 1.0),
    )


def _print_matrix(order) -> None:
    """Columns are users, rows are SIC stages."""
    n = order.n_users
    for k in range(n):
        print(" ".join(str(order.columns[m][k]) for m in range(n)))


def _mirror_records(records: list[ResultRecord], args: argparse.Namespace, cfg: dict) -> None:
    """Write records to --output (or the config's output_path) when given."""
    out = _pick(args, cfg, "output", "output_path", None)
    if out:
        export(records, out, _pick(args, cfg, "format", "output_format", "csv"))


def _emit_records(records: list[ResultRecord], args: argparse.Namespace, cfg: dict) -> None:
    """Print records as CSV and mirror them to --output when given."""
    write_csv(records, sys.stdout)
    _mirror_records(records, args, cfg)


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.users
    secure = count_secure(n, bool(args.allow_large_n))
    print(f"total={total_orders(n)} secure={secure} favourable={math.factorial(n - 1) ** n}")
    return 0


def _cmd_filter_secure(args: argparse.Namespace) -> int:
    base = math.factorial(args.users)
    walk = _secure_column_ranks(args.users, bool(args.allow_large_n))
    ids = (_rank_id(row, base) for row in walk)
    while chunk := list(islice(ids, 4096)):
        sys.stdout.write("".join([f"{oid}\n" for oid in chunk]))
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    _print_matrix(policy_order(args.users, args.beta))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    params = _build_params(args, cfg)
    if args.order_id is not None:
        order = order_from_id(params.n_users, args.order_id)
    else:
        order = policy_order(params.n_users, args.beta)
    channels = sample_channels(params, args.seed)
    alpha = power_allocation(channels, args.beta)
    rates = secrecy_rates(order, channels, alpha, params)
    record = ResultRecord(
        trial=0,
        beta=args.beta,
        scheme="eval",
        order_id=order_id(order),
        min_secrecy_rate=min(rates),
        per_user_rates=rates,
    )
    print(f"beta={format_number(args.beta)} order_id={record.order_id}")
    for i, rate in enumerate(rates, start=1):
        print(f"user_rate_{i}={format_number(rate)}")
    print(f"min_secrecy_rate={format_number(record.min_secrecy_rate)}")
    _mirror_records([record], args, cfg)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    params = _build_params(args, cfg)
    grid = _pick(args, cfg, "beta_grid", "beta_grid", DEFAULT_BETA_GRID)
    schemes = _pick(args, cfg, "scheme", "schemes", SCHEMES)
    channels = sample_channels(params, args.seed)
    _emit_records(sweep_records(0, sweep_all(schemes, grid, channels, params)), args, cfg)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    config = ExperimentConfig(
        params=_build_params(args, cfg),
        trials=_pick(args, cfg, "trials", "trials", 1000),
        master_seed=_pick(args, cfg, "seed", "master_seed", 0),
        beta_grid=_pick(args, cfg, "beta_grid", "beta_grid", DEFAULT_BETA_GRID),
        schemes=_pick(args, cfg, "scheme", "schemes", SCHEMES),
    )
    _emit_records(run_experiment(config), args, cfg)
    return 0


def _cmd_gain(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        params=SystemParams(n_users=args.users[0]),
        trials=args.trials,
        master_seed=args.seed,
        schemes=(SCHEME_POLICY_LPWU, SCHEME_POLICY_LPSU, SCHEME_BENCHMARK),
    )
    rows = gain_vs_users(config, args.users)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n_users", "mean_policy_value", "mean_benchmark_value", "gain_percent"])
    for row in rows:
        n_users, *values = astuple(row)
        writer.writerow([n_users, *map(format_number, values)])
    return 0


def _add_system_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--zeta", type=float, help="residual-interference factor in [0, 1]")
    sub.add_argument("--pt-dbm", type=float, dest="pt_dbm", help="transmit power in dBm")
    sub.add_argument("--noise-dbm", type=float, dest="noise_dbm", help="noise power in dBm")
    sub.add_argument("--field-len", type=float, dest="field_len", help="square field side in meters")
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--output", help="write records to this path")
    sub.add_argument("--format", choices=("csv", "json"), help="output file format")


def build_parser() -> _Parser:
    parser = _Parser(prog="untrusted-noma", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("count", help="count total/secure/favourable orders")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--allow-large-n", action="store_true", dest="allow_large_n")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("filter-secure", help="stream secure order ids")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--allow-large-n", action="store_true", dest="allow_large_n")
    p.set_defaults(func=_cmd_filter_secure)

    p = sub.add_parser("policy", help="print the policy order matrix")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_policy)

    p = sub.add_parser("eval", help="evaluate one order on one realization")
    p.add_argument("--users", type=int)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--order-id", type=int, dest="order_id", help="defaults to the policy order")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="beta sweep on one realization")
    p.add_argument("--users", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--beta-grid", type=_parse_beta_grid, dest="beta_grid")
    p.add_argument("--scheme", type=_parse_schemes, help="comma-separated scheme list")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="full Monte Carlo experiment")
    p.add_argument("--users", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--beta-grid", type=_parse_beta_grid, dest="beta_grid")
    p.add_argument("--scheme", type=_parse_schemes, help="comma-separated scheme list")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gain", help="policy-vs-benchmark secrecy gain per user count")
    p.add_argument(
        "--users", type=_parse_user_counts, default=(2, 3, 4), help="comma-separated user counts"
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20250810, help="master seed")
    p.set_defaults(func=_cmd_gain)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early, as in `filter-secure ... | head`.
        # Point stdout at devnull so that flushing what is still buffered at
        # exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
