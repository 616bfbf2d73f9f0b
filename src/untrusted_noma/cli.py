"""Command-line front door: counting, secure-order filtering, single-order
evaluation, policy generation, beta sweeps, full Monte Carlo runs, and the
policy-vs-benchmark secrecy gain versus user count.

Exit codes: 0 success (also when the reader closes stdout early), 1 invalid
input, 2 runtime/I-O failure. Powers are given in dBm and distances in
meters, converted internally. A setting of eval, sweep or simulate has one
name as flag dest, config key and dataclass field. A config file (flat
``key = value`` lines, ``#`` comments) supplies settings, given flags
override it, and unset ones take the ``SystemParams``/``ExperimentConfig``
defaults. Config keys a subcommand does not use (``eval`` and ``sweep``
take their one channel draw from ``--seed``) are named in one warning on
stderr. The default config path may be set via the UNTRUSTED_NOMA_CONFIG
environment variable.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields
from functools import lru_cache
from typing import Sequence

from .experiments import (
    _GAIN_SCHEMES,
    ExperimentConfig,
    GainRow,
    ResultRecord,
    _trial_blocks,
    export,
    gain_vs_users,
    sweep_all,
    write_csv,
)
from .optimizer import SCHEME_POLICY_LPWU, _check_request, secrecy_rates
from .orders import (
    _order_ids,
    _secure_rank_blocks,
    count_secure,
    order_from_id,
    order_id,
    policy_order,
    total_orders,
)
from .system import SystemParams, power_allocation, sample_channels
from .text import _block_run, _id_text, _output_file, _write, format_number

__all__ = ["main", "entry"]

CONFIG_ENV_VAR = "UNTRUSTED_NOMA_CONFIG"


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


# Each flagged setting of eval, sweep and simulate, once: its name (flag dest,
# config key and dataclass field) -> its flag and the flag's argparse keywords.
# A config value is read as its flag's would be. The SystemParams fields with
# no flag (path_loss_const, path_loss_exp, min_dist_m) are floats from a file.
_SETTINGS = {
    "n_users": ("--users", {"type": int}),
    "zeta": ("--zeta", {"type": float, "help": "residual-interference factor in [0, 1]"}),
    "pt_dbm": ("--pt-dbm", {"type": float, "help": "transmit power in dBm"}),
    "noise_dbm": ("--noise-dbm", {"type": float, "help": "noise power in dBm"}),
    "field_len_m": ("--field-len", {"type": float, "help": "square field side in meters"}),
    "output_path": ("--output", {"help": "write records to this path"}),
    "output_format": ("--format", {"choices": ("csv", "json"), "help": "output file format"}),
    "trials": ("--trials", {"type": int}),
    "master_seed": ("--seed", {"type": int, "help": "master seed"}),
    "beta_grid": ("--beta-grid", {"type": _parse_beta_grid}),
    "schemes": ("--scheme", {"type": _parse_schemes, "help": "comma-separated scheme list"}),
}

_CONFIG_KEYS = frozenset(_SETTINGS) | {f.name for f in fields(SystemParams)}


def _config_value(key: str, text: str):
    """``text`` read as the flag of setting ``key`` reads it, or as a float."""
    kwargs = _SETTINGS[key][1] if key in _SETTINGS else {"type": float}
    value = kwargs.get("type", str)(text)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(text)
    return value


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
            try:
                values[key] = _config_value(key, value)
            except (ValueError, _CliError):
                raise _CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    return values


def _settings(args: argparse.Namespace) -> dict:
    """The config file's values overlaid with the flags that were given.
    Warns about config keys the subcommand does not use. Rejects --format
    when no output path is given, and an output path in a missing
    directory, before any work: the format would otherwise go unused, and
    the write would fail only after every trial ran."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    settings = read_config_file(path) if path else {}
    # a subcommand uses the system parameters and the settings it has flags for
    ignored = settings.keys() - vars(args).keys() - {f.name for f in fields(SystemParams)}
    if ignored:
        keys = ", ".join(sorted(ignored))
        print(f"warning: {args.subcommand} ignores config keys {keys}", file=sys.stderr)
    settings |= {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if args.output_format is not None and not settings.get("output_path"):
        raise _CliError("--format needs --output (or output_path in the config file)")
    if "n_users" not in settings:
        raise _CliError("--users is required (or n_users in the config file)")
    output = settings.get("output_path")
    if output and not os.path.isdir(os.path.dirname(output) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output)
    return settings


def _given(cls, settings: dict) -> dict:
    """The settings that are fields of the dataclass ``cls``."""
    return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}


def _experiment(settings: dict) -> ExperimentConfig:
    params = SystemParams(**_given(SystemParams, settings))
    return ExperimentConfig(params=params, **_given(ExperimentConfig, settings))


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.users
    secure = count_secure(n, bool(args.allow_large_n))
    print(f"total={total_orders(n)} secure={secure} favourable={math.factorial(n - 1) ** n}")
    return 0


def _cmd_filter_secure(args: argparse.Namespace) -> int:
    for ranks in _secure_rank_blocks(args.users, bool(args.allow_large_n)):  # checks n first
        sys.stdout.write(_id_text(_order_ids(ranks)))
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    order = policy_order(args.users, args.beta)
    for k in range(args.users):  # columns are users, rows are SIC stages
        print(" ".join(str(column[k]) for column in order.columns))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    settings = _settings(args)
    params = SystemParams(**_given(SystemParams, settings))
    _check_request((SCHEME_POLICY_LPWU,), (args.beta,), params.n_users)  # one order at one beta
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
    if settings.get("output_path"):  # first, so a reader closing stdout early cannot cut it
        export([record], settings["output_path"], settings.get("output_format", "csv"))
    print(f"beta={format_number(args.beta)} order_id={record.order_id}")
    for i, rate in enumerate(rates, start=1):
        print(f"user_rate_{i}={format_number(rate)}")
    print(f"min_secrecy_rate={format_number(record.min_secrecy_rate)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    config = _experiment(settings)
    channels = sample_channels(config.params, args.seed)
    sweeps = sweep_all(config.schemes, config.beta_grid, channels, config.params)
    records = [record for rows in sweeps.values() for record in rows]
    if settings.get("output_path"):  # first, so a reader closing stdout early cannot cut it
        export(records, settings["output_path"], settings.get("output_format", "csv"))
    write_csv(records, sys.stdout)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    config, path = _experiment(settings), settings.get("output_path")
    # the file is opened before any trial, and it and stdout take each block as it is scored
    with _output_file(path) if path else nullcontext() as file:
        sinks = [(sys.stdout, False), (file, settings.get("output_format") == "json")]
        _write(sinks[:2 if path else 1], map(_block_run, _trial_blocks(config)))
    return 0


def _cmd_gain(args: argparse.Namespace) -> int:
    params = SystemParams(n_users=args.users[0])
    config = ExperimentConfig(params, args.trials, args.seed, schemes=_GAIN_SCHEMES)
    rows = gain_vs_users(config, args.users)
    # no field needs CSV quoting: names, an int and format_number text
    print(",".join(f.name for f in fields(GainRow)))
    for row in rows:
        n_users, *values = astuple(row)
        print(",".join([str(n_users), *map(format_number, values)]))
    return 0


def _add_system_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Flags of the named settings, then those eval, sweep and simulate share;
    every dest but ``config`` is a config key."""

    def add(*settings: str) -> None:
        for name in settings:
            flag, kwargs = _SETTINGS[name]
            sub.add_argument(flag, dest=name, **kwargs)

    add(*names, "n_users", "zeta", "pt_dbm", "noise_dbm", "field_len_m")
    sub.add_argument("--config", help="flat key=value config file")
    add("output_path", "output_format")


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argparse parser, built once per process: parsing never mutates it."""
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
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--order-id", type=int, dest="order_id", help="defaults to the policy order")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="beta sweep on one realization")
    p.add_argument("--seed", type=int, required=True)
    _add_system_flags(p, "beta_grid", "schemes")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="full Monte Carlo experiment")
    _add_system_flags(p, "trials", "master_seed", "beta_grid", "schemes")
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
