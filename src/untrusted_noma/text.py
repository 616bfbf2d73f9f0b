"""Output text: the CSV and JSON records, the 12-digit number spelling and
the ``filter-secure`` id lines, spelled from plain tuples and arrays. Blocks
and records are read by their tuple layout, so this module imports nothing
of the package.

The writers are columnar, with one body, ``_write``, over two sources of
columns and any number of (stream, format) sinks. Blocks (``_block_run``),
or records taken a batch at a time (``_record_runs``, each stretch of one
per-user width transposed into field columns by ``zip``), become batches
sized by a bound on the batch's row matrix (``_WRITE_BYTES``), each spelled
once per format. A batch becomes a matrix of native uint32 words, one row
per record, whose padding bytes are NUL, built and turned into text a slice
of rows at a time; ``bytes.translate`` deletes the padding and the rest is
the text. Every text that is not digits (leads, ends, distinct values,
numbers spelled alone) becomes words through one helper, ``_text_words``.
Trials, schemes, order ids and betas (keyed by their float bits, so -0.0 and
NaN payloads keep their own texts) are spelled once per distinct value (a
block's order ids once per distinct pick, never cast to int64, which ids
past N = 6 overflow) and gathered by code. The minimum and the per-user
rates are spelled by one vectorised ``%.12g`` whose digits are proven exact
(``_twelve_digits``) and looked up 4 at a time in ``_DIGIT_WORDS``; a value
it cannot prove is spelled by ``format_number`` (or its JSON spelling) one
at a time, so the bytes are those of ``csv.writer`` and ``json.dump`` either way.
The ``filter-secure`` listing's id lines are spelled here too, from the same
digit words (``_id_text``). Every output file is opened by one helper,
``_output_file``, and written whole or not at all."""
from __future__ import annotations

import csv
import errno
import io
import json
import os
import shutil
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from functools import partial
from itertools import chain, count, groupby
from typing import TextIO

import numpy as np

__all__ = ["format_number"]


def format_number(x: float) -> str:
    """Canonical 12-significant-digit decimal text used in every export."""
    return format(float(x), ".12g")


def _json_number(x: float) -> str:
    """The JSON text of a number: ``json.dumps`` of the float that
    ``format_number(x)`` parses to."""
    return json.dumps(float(format_number(x)))


# a record's fields before its rates, named as the JSON keys below name them
_CSV_HEADER = "trial,beta,scheme,order_id,min_secrecy_rate"
# row-matrix bytes a write batch is sized to; larger batches raise peak RSS
_WRITE_BYTES = 1 << 19
_SLOT_BYTES = 36  # a number's words and a one-word lead


def _batch_rows(width: int) -> int:
    """Records per write batch whose first record has ``width`` rates: a
    row is taken as ``width + 4`` number slots, one for each of its rates,
    its minimum and its beta, and two for its trial, scheme, order id and
    constant text."""
    return max(1, _WRITE_BYTES // (_SLOT_BYTES * (width + 4)))


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
    # y is scaled in place, so a number's floats live in two arrays at most
    with np.errstate(invalid="ignore"):  # signalling NaNs, and inf - inf
        y = _SCALES.take(e + 5, mode="wrap")
        y *= magnitudes
        e += y >= 1e12
        _CORRECTED_SCALES.take(e + 5, mode="wrap", out=y)
        y *= magnitudes
        digits = np.rint(y)
        exact = (y >= 1e11) & (y < 1e12 - 1)
        y -= digits
        exact &= np.abs(y, out=y) <= 0.5 - _HALF_MARGIN
    digits[~exact] = 0.0
    return digits, (11 - e) * exact, exact


# ASCII digits of 0..9999, one native uint32 each, three ways: zero-padded
# at [0, 10000), with the leading zeros as NUL bytes at _LEAD + g, and with
# the trailing zeros as NUL bytes at _TRAIL + g (0 is all NUL in both);
# int16 and uint8 keep import RSS low
_LEAD, _TRAIL = 10_000, 20_000
_DIGIT_WORDS = np.arange(10_000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1])
_DIGIT_WORDS = (_DIGIT_WORDS % 10).astype(np.uint8)
_DIGIT_WORDS = np.concatenate([
    _DIGIT_WORDS + 48,
    # a digit is kept where some digit up to it, or from it, is not zero
    np.where(np.maximum.accumulate(_DIGIT_WORDS, axis=1), _DIGIT_WORDS + 48, 0),
    np.where(np.maximum.accumulate(_DIGIT_WORDS[:, ::-1], axis=1)[:, ::-1], _DIGIT_WORDS + 48, 0),
]).view(np.uint32).ravel()
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _id_text(ids: np.ndarray) -> str:
    """The text ``"%d\\n" * len(ids) % tuple(ids.tolist())`` of an id block;
    int64 ids are written as 4-digit byte groups, sliced past leading zeros."""
    if ids.dtype == object or not len(ids):
        return "%d\n" * len(ids) % tuple(ids.tolist())
    digits = np.searchsorted(_POWERS_OF_TEN, ids, side="right") + 1
    groups = -(-int(digits.max()) // 4)
    words = np.empty((len(ids), groups + 1), dtype=np.uint32)
    for g in range(groups - 1, -1, -1):
        high = ids // 10_000  # with the product below, faster than np.divmod
        words[:, g] = _DIGIT_WORDS.take(ids - high * 10_000)
        ids = high
    text, end = words.view(np.uint8), 4 * groups
    text[:, end] = ord("\n")
    runs = [0, *(np.flatnonzero(digits[1:] != digits[:-1]) + 1).tolist(), len(digits)]
    lines = (text[a:b, end - digits[a] : end + 1].tobytes() for a, b in zip(runs, runs[1:]))
    return b"".join(lines).decode()


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
            group = rest / unit
            np.floor(group, out=group)
            lower = group * unit
            rest = np.subtract(rest, lower, out=lower)
        index = group.astype(np.intp)
        del group
        if trailing:
            np.add(index, _TRAIL, out=index, where=True if unit == 1 else rest == 0)
        else:
            np.add(index, _LEAD, out=index, where=values < 1e4 * unit if g else True)
        _DIGIT_WORDS.take(index, out=out[g])


def _text_words(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 of each text as one row of NUL-padded words [D, k]. A NUL
    of a text itself is stored as 0xFF, a byte UTF-8 never holds, which
    ``_UNPAD`` turns back."""
    data = [text.encode("utf-8", "surrogatepass").replace(b"\0", b"\xff") for text in texts]
    count = -(-max(map(len, data), default=0) // 4)
    padded = b"".join(d.ljust(4 * count, b"\0") for d in data)
    return np.frombuffer(padded, dtype=np.uint32).reshape(len(data), count)


# the word between a number's whole and fraction digits, for an integral
# number, one with a fraction, one below 1 (no whole digits), and zero
_POINT_WORDS = {
    json: _text_words(texts).ravel()
    for json, texts in ((False, ("", ".", "0.", "0")), (True, (".0", ".", "0.", "0.0")))
}


def _number_words(columns: np.ndarray, leads: Sequence[np.ndarray], json: bool) -> list[np.ndarray]:
    """Per row j of ``columns`` [F, R], the words [R, k] of the lead before
    each number, taken from ``leads[j]`` (the ``_text_words`` [2, k] of a
    lead, then of it and a minus sign), and then each number's
    ``format_number`` text (``_json_number`` text with ``json``), NUL-padded.

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
    del magnitudes
    # the whole part and the fraction, left-aligned in its groups, computed
    # in place, so no more than three floats per number are held
    scale = _POW10.take(places)
    whole = digits / scale
    np.floor(whole, out=whole)
    top = whole.max()
    whole_groups = 1 + int(top >= 1e4) + int(top >= 1e8)
    fraction_groups = -(-int(places.max()) // 4)
    fraction = np.subtract(digits, np.multiply(whole, scale, out=scale), out=digits)
    fraction *= _POW10.take(4 * fraction_groups - places, out=scale)
    del digits, scale
    done = exact | zero
    slow = np.flatnonzero(~done)
    spell = _json_number if json else format_number
    texts = _text_words([spell(x) for x in flat[slow].tolist()])
    # the fixed-point words, or as many as the longest text spelled alone
    count = whole_groups + 1 + fraction_groups
    rows = max(count, texts.shape[1])
    words = np.zeros((rows, len(flat)), dtype=np.uint32)
    _group_words(whole, whole_groups, False, words[:whole_groups])
    del whole
    point = (fraction != 0).astype(np.intp)
    point += places > 11
    np.add(point, 3, out=point, where=zero)
    _POINT_WORDS[json].take(point, out=words[whole_groups])
    del point
    _group_words(fraction, fraction_groups, True, words[whole_groups + 1:count])
    del fraction
    # a slow number's fixed-point words are NUL but JSON's point word,
    # which a shorter text would leave in place
    words[:, slow] = 0
    words[:texts.shape[1], slow] = texts.T
    used = words.any(axis=1)
    words = (words if used.all() else words[used]).reshape(-1, *columns.shape)
    # a slow number's text carries its own sign
    signs = (np.signbit(flat) & done).reshape(columns.shape)
    pieces = []
    for lead, sign, number in zip(leads, signs, words.transpose(1, 2, 0)):
        pieces += [lead.take(sign, axis=0), number]
    return pieces


def _coded(column: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values of the column, in first-seen order, and each
    entry's index among them."""
    distinct = dict.fromkeys(column)
    codes = dict(zip(distinct, range(len(distinct))))
    return list(distinct), np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


def _record_runs(records: Sequence[tuple]) -> Iterator[tuple]:
    """The records' runs, as ``_block_run`` gives a block's, taken a batch
    of ``_batch_rows`` at a time, one run with one batch of rows per
    stretch of one per-user width (a record's field 5). Betas are told apart
    by their float bits, so -0.0 and 0.0, and NaNs of other payloads, keep
    their own texts."""
    start = 0
    while start < len(records):
        batch = records[start:start + _batch_rows(len(records[start][5]))]
        start += len(batch)
        for width, stretch in groupby(batch, lambda record: len(record[5])):
            trials, betas, schemes, order_ids, mins, rates = zip(*stretch)
            betas = np.array(betas, dtype=np.float64)
            _, distinct, beta_codes = np.unique(
                betas.view(np.int64), return_index=True, return_inverse=True
            )
            (trials, trial_codes), (schemes, scheme_codes), (order_ids, id_codes) = map(
                _coded, (trials, schemes, order_ids)
            )
            numbers = np.array([mins, *zip(*rates)], dtype=np.float64)
            rows = [trial_codes, beta_codes, scheme_codes, id_codes], numbers
            yield width, [trials, betas[distinct].tolist(), schemes, order_ids], [rows]


def _block_run(block: tuple) -> tuple:
    """A block's records as one run: (the per-user width; the distinct
    trials, betas, schemes and order ids; its batches of ``_batch_rows``
    rows, each as (each row's index among each field's distinct values,
    the [1 + width, R] floats of its minima and rates)). An order id is
    taken once per distinct pick, from the ids as they are, int64 or exact
    objects, and the rows are indexed by position in the block."""
    trials, grid, schemes, values, picks, rates, ids = block
    width = rates.shape[-1]
    # the distinct picks, and each pick's index among them, by pick + 1
    present = np.bincount(picks.ravel() + 1, minlength=len(ids) + 1) > 0
    distinct = np.flatnonzero(present) - 1
    order_ids = np.where(distinct >= 0, ids.take(distinct), None).tolist()
    codes = np.cumsum(present) - 1
    per_trial = len(schemes) * len(grid)
    values, picks, rates = values.ravel(), picks.ravel(), rates.reshape(-1, width)
    size = _batch_rows(width)

    def batches():
        for start in range(0, len(values), size):
            rows = slice(start, start + size)
            index = np.arange(start, min(start + size, len(values)))
            yield [
                index // per_trial,
                index % len(grid),
                index // len(grid) % len(schemes),
                codes.take(picks[rows] + 1),
            ], np.vstack([values[rows], rates[rows].T])

    return width, [trials, grid, schemes, order_ids], batches()



_TEXT_ROWS = 256  # matrix rows turned into text at once
# deletes the padding, then turns 0xFF back into the NUL it stands for
_UNPAD = bytes(range(255)) + b"\0"


def _write_rows(write, pieces: list[np.ndarray], skip: int = 0) -> None:
    """Write the row matrix of ``pieces`` (word arrays [R, k], or [1, k]
    for text every row shares) as text through ``write``, with its padding
    deleted by ``bytes.translate`` and its first ``skip`` bytes left out.
    The matrix is built and turned into text a slice of rows at a time, so
    neither it nor the text's copies are ever held whole."""
    count = max(map(len, pieces))
    pieces = [p if len(p) == count else np.broadcast_to(p, (count, p.shape[1])) for p in pieces]
    for first in range(0, count, _TEXT_ROWS):
        rows = np.concatenate([p[first:first + _TEXT_ROWS] for p in pieces], axis=1)
        text = rows.tobytes().translate(_UNPAD, b"\0")
        write(text[skip:].decode("utf-8", "surrogatepass"))
        skip = 0


def _csv_text(field: str) -> str:
    """``field`` as ``csv.writer`` writes it inside a row, quoted if needed."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([field, ""])
    return line.getvalue()[:-2]


_CSV_END = _text_words(["\n"])
# the CSV text of a trial, and of a beta, scheme and order id after their comma
_CSV_SPELLS = (
    str,
    lambda beta: "," + format_number(beta),
    lambda scheme: "," + _csv_text(scheme),
    lambda oid: "," if oid is None else f",{oid}",
)


# the text of a JSON record after its numbers, with rates and without
_JSON_ENDS = (
    _text_words([',\n    "per_user_rates": []\n  }']),
    _text_words(["\n    ]\n  }"]),
)
# what leads each number of a JSON record: the minimum and the rates
_JSON_LEADS = (',\n    "min_secrecy_rate": ', ',\n    "per_user_rates": [\n      ')
_JSON_RATE_LEAD = ",\n      "
# the JSON text of a record's trial, beta, scheme and order id, with what leads each
_JSON_SPELLS = (
    ',\n  {{\n    "trial": {}'.format,
    lambda beta: ',\n    "beta": ' + _json_number(beta),
    lambda scheme: ',\n    "scheme": ' + json.dumps(scheme),
    lambda oid: ',\n    "order_id": %s' % ("null" if oid is None else oid),
)


def _layout(json: bool, width: int, distinct: Sequence[Sequence]) -> tuple:
    """A format's words for a run: per field, its distinct values' words [D, k],
    spelled by the field's function; per number of a row, its lead's words
    [2, k], without and with a minus sign after it; the row's end."""
    spells, leads, end = _CSV_SPELLS, (",",) * (width + 1), _CSV_END
    if json:
        spells, end = _JSON_SPELLS, _JSON_ENDS[width > 0]
        leads = (*_JSON_LEADS, *(_JSON_RATE_LEAD,) * (width - 1))[:width + 1]
    tables = [_text_words(list(map(spell, values))) for spell, values in zip(spells, distinct)]
    return tables, [_text_words([lead, lead + "-"]) for lead in leads], end


def _write(sinks: Sequence[tuple], runs: Iterator[tuple]) -> None:
    """Write the records of ``runs`` (as ``_block_run`` and ``_record_runs``
    give them) a run at a time to each (open text stream, json) sink, as
    ``write_json`` or ``write_csv`` does, each batch's text built once per
    format. A sink whose stream raises ``BrokenPipeError`` is dropped and
    the others are written to the end; the error is then raised again, at
    once if no sink is left."""
    sinks, broken = dict(sinks), []

    def put(json: bool, text: str) -> None:
        for stream in [stream for stream, kind in sinks.items() if kind == json]:
            try:
                stream.write(text)
            except BrokenPipeError as error:
                del sinks[stream]
                broken.append(error)
        if not sinks:
            raise broken[0]

    first = next(runs, (0, (), ()))  # no records: a run of no rate columns and no rows
    put(False, _CSV_HEADER + "".join(f",user_rate_{i + 1}" for i in range(first[0])) + "\n")
    put(True, "[")
    skip = 1  # no record yet: the first JSON record's separator is "\n", after the "["
    for width, distinct, batches in chain([first], runs):
        layouts = {json: _layout(json, width, distinct) for json in set(sinks.values())}
        for codes, numbers in batches:
            for json, (tables, leads, end) in layouts.items():
                pieces = [table.take(code, axis=0) for table, code in zip(tables, codes)]
                pieces += [*_number_words(numbers, leads, json), end]
                _write_rows(partial(put, json), pieces, skip * json)
            skip = 0
    put(True, "\n]\n"[skip:])
    if broken:
        raise broken[0]


# numbers each temporary name: writes that overlap in one process never share one
_temp_names = count()


@contextmanager
def _output_file(path: str | os.PathLike) -> Iterator[TextIO]:
    """An output file open for writing text, the one place that opens one.
    A regular file is written under a temporary name unique to the call, in
    its directory, which replaces it (``os.replace``) once written whole,
    also when stdout's reader left early, and is removed if the write
    fails: the path then keeps what it held. A path that exists and is no
    regular file (a pipe or a device) is written in place."""
    path = os.fspath(path)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as file:
            yield file
        return
    if os.path.exists(target) and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_temp_names)}.tmp")
    try:
        file = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with file:
            if os.path.exists(target):
                shutil.copymode(target, temp)
            try:
                yield file
            except BrokenPipeError:  # stdout's reader left; the file was still written whole
                file.close()
                os.replace(temp, target)
                raise
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.remove(temp)

