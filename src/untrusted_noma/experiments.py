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
helper, ``_block_records``, with no Python frame per record and no list
per record: each field is one column of the block (``tolist`` once), and
the per-user tuples are zipped from the per-user columns. A request is
checked once, by ``_check_request``, before any kernel call: a run's by its
``ExperimentConfig``, which ``gain_vs_users`` builds for every user count
before the first trial, and a sweep's by ``sweep_all``.
The CSV and JSON writers are columnar. Records are taken a batch at a
time, sized by a bound on the batch's row matrix (``_WRITE_BYTES``), and
each batch is transposed once into its field columns (split into runs of
one per-user width only where a batch mixes widths). A run becomes one
matrix of native uint32 words, one row per record, whose padding bytes
are NUL; ``bytes.translate`` deletes them and the rest is the text.
Trials, schemes, order ids and betas (keyed by their float bits, so -0.0
and NaN payloads keep their own texts) are spelled once per distinct
value and gathered by code. The minimum and the per-user rates are
spelled by one vectorised, exactly rounded ``%.12g``: with e the decimal
exponent, y = |x| * 10^(11 - e) is a single rounding, as 10^k is an exact
double for k <= 22, so y is within 2^-53 * 1e12 ~ 1.1e-4 of the exact
product and its nearest integer gives the 12 digits unless y is near a
half. Digits are looked up 4 at a time in ``orders._DIGIT_WORDS``; zeros
and signs are spelled on this path too. A value the fast path cannot
prove (y within 2.5e-4 of a half, e outside [-4, 11], y within 1 of the
carry to 1e12, NaN or +-inf) is spelled by ``format_number`` (or its JSON
spelling) one at a time, so the bytes are those of ``csv.writer`` and
``json.dump`` either way.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain, cycle, islice, repeat
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
from .orders import _DIGIT_WORDS, _LEAD, _TRAIL
from .system import ChannelRealization, SystemParams, _sample_block

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


def _trial_blocks(config: ExperimentConfig, values_only: bool = False) -> Iterator[tuple[range, dict]]:
    """``_score_block`` of the config's schemes over its beta grid, a block
    of trials at a time, as (the block's trials, their scores, or their
    values alone when ``values_only``). Trial t's channels are drawn from
    ``derive_trial_seed(config.master_seed, t)``, a block's as one array."""
    params, schemes, grid = config.params, config.schemes, config.beta_grid
    size = _trials_per_block(schemes, params.n_users, len(grid))
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        seeds = [derive_trial_seed(config.master_seed, t) for t in trials]
        gains = _sample_block(params, seeds)[1]
        yield trials, _score_block(schemes, grid, gains, params, values_only)


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
            # each record's rates as one tuple of the per-user columns
            zip(*users.reshape(-1, users.shape[-1]).T.tolist()),
        ),
    )


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; rows are ordered by trial, then scheme, then beta.

    Trial t draws its channels from ``derive_trial_seed(master_seed, t)``,
    so results are independent of how trials are scheduled and any row can
    be reproduced from (master_seed, trial) alone.
    """
    records: list[ResultRecord] = []
    for trials, scores in _trial_blocks(config):
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
    request is checked first, with the check ``ExperimentConfig`` runs."""
    if channels.n_users != params.n_users:
        raise ValueError("channels and params disagree on the user count")
    _check_request(schemes, beta_grid, params.n_users)
    scores = _score_block(schemes, beta_grid, np.array([channels.gains]), params)
    # one trial's records run scheme by scheme, a grid's worth each
    records = _block_records(range(1), beta_grid, scores)
    return {scheme: list(islice(records, len(beta_grid))) for scheme in scores}


def gain_vs_users(config: ExperimentConfig, user_counts: Sequence[int]) -> list[GainRow]:
    """Mean policy value (better of the two policy matrices at its best grid
    beta, per trial) vs the benchmark average (mean over the beta grid),
    per user count, with the relative gain in percent.

    When the mean benchmark value is 0 (no secure order gives every user
    positive secrecy, e.g. zeta = 1), the relative gain is undefined and
    ``gain_percent`` is ``math.nan``. Every user count's request is built,
    and so checked, before any trial runs.
    """
    pol_schemes = (SCHEME_POLICY_LPWU, SCHEME_POLICY_LPSU)
    schemes = pol_schemes + (SCHEME_BENCHMARK,)
    cells = [replace(config.params, n_users=n) for n in user_counts]
    requests = [replace(config, params=params, schemes=schemes) for params in cells]
    rows: list[GainRow] = []
    for request in requests:
        policy_vals: list[float] = []
        bench_vals: list[float] = []
        for _, values in _trial_blocks(request, values_only=True):
            policy = np.maximum(*(values[s] for s in pol_schemes))  # [T, B]
            policy_vals += policy.max(axis=1).tolist()
            bench_vals += values[SCHEME_BENCHMARK].mean(axis=1).tolist()
        mean_policy = float(np.mean(policy_vals))
        mean_bench = float(np.mean(bench_vals))
        rows.append(
            GainRow(
                n_users=request.params.n_users,
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


def _json_number(x: float) -> str:
    """The JSON text of a number: ``json.dumps`` of the float that
    ``format_number(x)`` parses to."""
    return json.dumps(float(format_number(x)))


_FIXED_HEADER = tuple(name for name in ResultRecord._fields if name != "per_user_rates")
# row-matrix bytes a write batch is sized to; larger batches raise peak RSS
_WRITE_BYTES = 1 << 19
_SLOT_BYTES = 36  # a number's words and a one-word lead


def _header(records: Sequence[ResultRecord]) -> list[str]:
    cols = list(_FIXED_HEADER)
    if records:
        cols += [f"user_rate_{i + 1}" for i in range(len(records[0].per_user_rates))]
    return cols


def _batch_rows(width: int) -> int:
    """Records per write batch whose first record has ``width`` rates: a
    row is taken as ``width + 4`` number slots, one for each of its rates,
    its minimum and its beta, and two for its trial, scheme, order id and
    constant text."""
    return max(1, _WRITE_BYTES // (_SLOT_BYTES * (width + 4)))


def _runs(records: Sequence[ResultRecord]) -> Iterator[tuple[int, list[list]]]:
    """The records a batch of ``_batch_rows`` at a time, as (per-user
    width, the six field columns as lists) per run of one width. A batch
    is flattened into one list and its columns are sliced out of it, which
    makes no Python object per record, and it is split into runs only
    where its widths differ."""
    start = 0
    while start < len(records):
        batch = records[start:start + _batch_rows(len(records[start].per_user_rates))]
        start += len(batch)
        fields = list(chain.from_iterable(batch))
        widths = list(map(len, fields[5::6]))
        cuts = [0, len(batch)]
        if widths.count(widths[0]) < len(widths):
            cuts[1:1] = (np.flatnonzero(np.diff(widths)) + 1).tolist()
        for first, end in zip(cuts, cuts[1:]):
            yield widths[first], [fields[6 * first + i:6 * end:6] for i in range(6)]


# 10^0..10^16, each an exact double
_POW10 = 10.0 ** np.arange(17)
# 10^(11 - e), an exact double, at e + 5 for e in [-5, 11], and 1 for the
# other exponents of doubles (-324..308, wrapped), which then scale outside
# [1e11, 1e12); for the corrected exponent, e = -5 is out of range too
_SCALES = np.ones(640)
_SCALES[:17] = _POW10[::-1]
_CORRECTED_SCALES = np.concatenate([[1.0], _SCALES[1:]])
# a scaled magnitude this close to a half may round either way (see _twelve_digits)
_HALF_MARGIN = 2.5e-4


def _twelve_digits(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``%.12g`` digits of each magnitude where they are proven: (the 12
    significant digits as an integral float in [1e11, 1e12), else 0; the
    number of digits after the point, 11 - e for the decimal exponent e,
    else 0; whether both are exact).

    A magnitude a in [2^(k-1), 2^k) has e = floor((k - 1) log10 2) or one
    more, so e is corrected by one step from y = a * 10^(11 - e). As 10^j
    is an exact double for j <= 22, y is one rounding of the exact product,
    within 2^-53 * 1e12 ~ 1.1e-4 of it, and rounding y to an integer rounds
    the exact product the same way unless y is within ``_HALF_MARGIN`` of a
    half. Left unproven: 0, NaN and +-inf; e outside [-4, 11], which
    ``%.12g`` writes with an exponent; y near a half; and y within 1 of the
    carry to 1e12."""
    # 78913 / 2^18 gives floor((k - 1) log10 2) exactly for every double's k
    e = (np.frexp(magnitudes)[1] - 1) * 78913 >> 18
    with np.errstate(invalid="ignore"):  # signalling NaNs, and inf - inf
        y = magnitudes * _SCALES.take(e + 5, mode="wrap")
        e += y >= 1e12
        y = magnitudes * _CORRECTED_SCALES.take(e + 5, mode="wrap")
        digits = np.rint(y)
        exact = np.abs(y - digits) <= 0.5 - _HALF_MARGIN
    exact &= (y >= 1e11) & (y < 1e12 - 1)
    return np.where(exact, digits, 0.0), (11 - e) * exact, exact


def _group_words(values: np.ndarray, count: int, trailing: bool, out: np.ndarray) -> None:
    """Write to ``out`` [count, V] the ``_DIGIT_WORDS`` of the 4-digit
    groups, most significant first, of each integral float value below
    10^(4 * count) <= 2^53, where float division and floor are exact.
    Leading zeros are NUL in a group with no digit above it, or with
    ``trailing`` trailing zeros in a group with no digit below it."""
    rest = values
    for g in range(count):
        unit = 10.0 ** (4 * (count - 1 - g))
        group = rest
        if unit > 1:
            group = np.floor(rest / unit)
            rest = rest - group * unit
        if trailing:
            blank = _TRAIL * (rest == 0) if unit > 1 else _TRAIL
        else:
            blank = _LEAD * (values < 1e4 * unit) if g else _LEAD
        out[g] = _DIGIT_WORDS.take((group + blank).astype(np.intp))


def _words(text: bytes, count: int = 0) -> np.ndarray:
    """``text`` as native uint32 words, NUL-padded to ``count`` words or to
    the fewest that hold it."""
    return np.frombuffer(text.ljust(4 * max(count, -(-len(text) // 4)), b"\0"), dtype=np.uint32)


# the word between a number's whole and fraction digits, for an integral
# number, one with a fraction, one below 1 (no whole digits), and zero
_POINT_WORDS = {
    json: np.concatenate([_words(text, 1) for text in texts])
    for json, texts in ((False, (b"", b".", b"0.", b"0")), (True, (b".0", b".", b"0.", b"0.0")))
}


@lru_cache(maxsize=64)
def _lead_words(lead: bytes) -> np.ndarray:
    """[2, k] words: ``lead``, then ``lead`` and a minus sign, NUL-padded."""
    count = len(lead) // 4 + 1
    return np.stack([_words(lead, count), _words(lead + b"-", count)])


def _number_words(columns: np.ndarray, leads: Sequence[bytes], json: bool) -> list[np.ndarray]:
    """Per row j of ``columns`` [F, R], the words [R, k] of ``leads[j]``
    and then each number's ``format_number`` text (``_json_number`` text
    with ``json``), NUL-padded.

    Numbers proven by ``_twelve_digits``, and zeros, are spelled in fixed
    point with no Python frame per number: the 4-digit groups of the whole
    part and of the fraction, as many as the widest number needs, are
    looked up in ``_DIGIT_WORDS`` (leading whole zeros and trailing
    fraction zeros as NUL), and the point between them by case. The rest
    are spelled one at a time. A word that is NUL for every number is left
    out."""
    flat = columns.ravel()
    magnitudes = np.abs(flat)
    digits, places, exact = _twelve_digits(magnitudes)
    zero = magnitudes == 0
    scale = _POW10[places]
    whole = np.floor(digits / scale)
    top = whole.max()
    whole_groups = 1 + int(top >= 1e4) + int(top >= 1e8)
    fraction_groups = -(-int(places.max()) // 4)
    # the fraction, left-aligned in its groups
    fraction = (digits - whole * scale) * _POW10[4 * fraction_groups - places]
    del magnitudes, digits, scale  # a batch's peak memory is here
    done = exact | zero
    slow = np.flatnonzero(~done)
    # 8 words hold the longest text of a number spelled one at a time
    count = whole_groups + 1 + fraction_groups
    words = np.zeros((max(count, 8 if len(slow) else 0), len(flat)), dtype=np.uint32)
    _group_words(whole, whole_groups, False, words[:whole_groups])
    point = (fraction != 0).astype(np.intp) + (places > 11) + 3 * zero
    words[whole_groups] = _POINT_WORDS[json].take(point)
    _group_words(fraction, fraction_groups, True, words[whole_groups + 1:count])
    if len(slow):
        spell = _json_number if json else format_number
        text = b"".join(spell(x).encode().ljust(32, b"\0") for x in flat[slow].tolist())
        words[:8, slow] = np.frombuffer(text, dtype=np.uint32).reshape(-1, 8).T
    used = words.any(axis=1)
    words = (words if used.all() else words[used]).reshape(-1, *columns.shape)
    # a slow number's text carries its own sign
    signs = (np.signbit(flat) & done).astype(np.intp).reshape(columns.shape)
    pieces = []
    for lead, sign, number in zip(leads, signs, words.transpose(1, 2, 0)):
        pieces += [_lead_words(lead).take(sign, axis=0), number]
    return pieces


def _text_words(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 of each text as one row of NUL-padded words [D, k]. A NUL
    of a text itself is stored as 0xFF, a byte UTF-8 never holds, which
    ``_UNPAD`` turns back."""
    data = [text.encode("utf-8", "surrogatepass").replace(b"\0", b"\xff") for text in texts]
    count = -(-max(map(len, data)) // 4)
    padded = b"".join(d.ljust(4 * count, b"\0") for d in data)
    return np.frombuffer(padded, dtype=np.uint32).reshape(len(data), count)


def _gathered(column: Sequence, spell) -> np.ndarray:
    """The words [R, k] of ``spell(v)`` for each entry v of the column, each
    distinct value spelled once and gathered by its code."""
    distinct = dict.fromkeys(column)
    table = _text_words([spell(v) for v in distinct])
    codes = dict(zip(distinct, range(len(distinct))))
    return table.take(np.fromiter(map(codes.__getitem__, column), np.intp, len(column)), axis=0)


def _gathered_numbers(column: list, spell) -> np.ndarray:
    """The words [R, k] of ``spell(x)`` for each number x of the column,
    each distinct value spelled once and gathered by its code. Values are
    told apart by their float bits, so -0.0 and 0.0, and NaNs of other
    payloads, keep their own texts."""
    values = np.array(column, dtype=np.float64)
    _, first, codes = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    return _text_words(list(map(spell, values[first].tolist()))).take(codes, axis=0)


def _number_columns(mins: list, rates: list, width: int) -> np.ndarray:
    """The [1 + width, R] floats of a run's minima and per-user rates."""
    columns = np.empty((1 + width, len(mins)))
    columns[0] = mins
    flat = np.fromiter(chain.from_iterable(rates), np.float64, width * len(rates))
    columns[1:] = flat.reshape(len(rates), width).T
    return columns


_TEXT_ROWS = 512  # matrix rows turned into text at once
# deletes the padding, then turns 0xFF back into the NUL it stands for
_UNPAD = bytes(range(255)) + b"\0"


def _write_rows(stream, pieces: list[np.ndarray], skip: int = 0) -> None:
    """Write the row matrix of ``pieces`` (word arrays [R, k], or [1, k]
    for text every row shares) to the text stream, with its padding
    deleted by ``bytes.translate`` and its first ``skip`` bytes left out.
    The list is emptied once the matrix is built, which frees the pieces."""
    count = max(map(len, pieces))
    rows = np.concatenate(
        [p if len(p) == count else np.broadcast_to(p, (count, p.shape[1])) for p in pieces], axis=1
    )
    pieces.clear()
    # turned into text a slice at a time, so the text's copies stay small
    for first in range(0, count, _TEXT_ROWS):
        text = rows[first:first + _TEXT_ROWS].tobytes().translate(_UNPAD, b"\0")
        stream.write(text[skip:].decode("utf-8", "surrogatepass"))
        skip = 0


def _csv_text(field: str) -> str:
    """``field`` as ``csv.writer`` writes it inside a row, quoted if needed."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([field, ""])
    return line.getvalue()[:-2]


_CSV_END = _words(b"\n")[None]


def write_csv(records: Sequence[ResultRecord], stream) -> None:
    """Write records as CSV (LF line endings) to an open text stream: the
    bytes of ``csv.writer`` over one row per record, numbers as
    ``format_number`` text, built one run of equal-width records at a
    time as one row matrix of words."""
    csv.writer(stream, lineterminator="\n").writerow(_header(records))
    for width, (trials, betas, schemes, order_ids, mins, rates) in _runs(records):
        _write_rows(stream, [
            _gathered(trials, str),
            _gathered_numbers(betas, lambda beta: "," + format_number(beta)),
            _gathered(schemes, lambda scheme: "," + _csv_text(scheme)),
            _gathered(order_ids, lambda oid: "," if oid is None else f",{oid}"),
            *_number_words(_number_columns(mins, rates, width), (b",",) * (width + 1), False),
            _CSV_END,
        ])


# the text of a JSON record after its numbers, with rates and without
_JSON_ENDS = (
    _words(b',\n    "per_user_rates": []\n  }')[None],
    _words(b"\n    ]\n  }")[None],
)
# what leads each number of a JSON record: the minimum and the rates
_JSON_LEADS = (b',\n    "min_secrecy_rate": ', b',\n    "per_user_rates": [\n      ')
_JSON_RATE_LEAD = b",\n      "


def write_json(records: Sequence[ResultRecord], stream) -> None:
    """Write records as a JSON array to an open text stream: the bytes of
    ``json.dump(..., indent=2)`` over one object per record, then a newline.
    Numbers are parsed back from ``format_number``. Each run of equal-width
    records is built as one row matrix of words."""
    if not records:
        stream.write("[]\n")
        return
    stream.write("[")
    skip = 1  # the first record's separator is "\n", after the "["
    for width, (trials, betas, schemes, order_ids, mins, rates) in _runs(records):
        leads = (*_JSON_LEADS, *(_JSON_RATE_LEAD,) * (width - 1))[:width + 1]
        _write_rows(stream, [
            _gathered(trials, ',\n  {{\n    "trial": {}'.format),
            _gathered_numbers(betas, lambda beta: ',\n    "beta": ' + _json_number(beta)),
            _gathered(schemes, lambda scheme: ',\n    "scheme": ' + json.dumps(scheme)),
            _gathered(
                order_ids, lambda oid: ',\n    "order_id": %s' % ("null" if oid is None else oid)
            ),
            *_number_words(_number_columns(mins, rates, width), leads, True),
            _JSON_ENDS[width > 0],
        ], skip)
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
