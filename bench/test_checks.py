"""Tests of the benchmark's own output checks.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""
import math
import os
import random
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402


def test_scalar_formula_reproduces_two_user_worked_instance():
    # gains (4, 1), alphas (0.2, 0.8), zeta 0.1, 1/rho 0.1, columns (2,1)/(1,2):
    # secrecy rates log2(549/231) and log2(69/41)
    rates = checks.secrecy_rates(((2, 1), (1, 2)), (4.0, 1.0), (0.2, 0.8), 0.1, 0.1)
    assert rates[0] == pytest.approx(math.log2(549 / 231), abs=1e-12)
    assert rates[1] == pytest.approx(math.log2(69 / 41), abs=1e-12)


def test_decoder_and_predicates_reproduce_published_counts():
    for n, want in ((2, 1), (3, 12)):
        ids = range(math.factorial(n) ** n)
        assert sum(checks.is_secure_order(checks.decode_order(n, i)) for i in ids) == want
    assert len(checks.favourable_set(4)) == math.factorial(3) ** 4
    assert all(checks.is_secure_order(c) for c in checks.favourable_set(3))
    with pytest.raises(ValueError):
        checks.decode_order(2, 4)


@pytest.fixture(scope="module")
def sweep_block(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bench"))
    w = workloads.SmallCells(seed=11, tmpdir=tmp)
    w.block = 6
    output = w.op(0)
    return w, output


def test_clean_small_cells_output_passes(sweep_block):
    w, output = sweep_block
    assert w.check(0, output) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: replace(r, min_secrecy_rate=r.min_secrecy_rate + 1e-3),
        lambda r: replace(r, per_user_rates=(r.per_user_rates[0] * 1.01,) + r.per_user_rates[1:]),
        lambda r: replace(r, order_id=0),
        lambda r: replace(r, min_secrecy_rate=-1.0),
    ],
)
def test_corrupted_records_are_rejected(sweep_block, corrupt):
    w, (records, gains) = sweep_block
    # the first optimal-L row of the first sampled cell, so the scalar
    # recomputation sees it even when the properties would not
    cfg = w.config(0)
    rng = random.Random(cfg.master_seed)
    trial, bi = rng.randrange(w.block), rng.randrange(len(cfg.beta_grid))
    k = next(
        i for i, r in enumerate(records)
        if r.trial == trial and r.beta == cfg.beta_grid[bi] and r.scheme == "optimal-L"
    )
    bad = list(records)
    bad[k] = corrupt(bad[k])
    assert w.check(0, (bad, gains))


def test_dropped_row_and_corrupted_export_are_rejected(sweep_block):
    w, (records, gains) = sweep_block
    assert w.check(0, (records[:-1], gains))
    with open(w.path("csv"), "r+", encoding="utf-8") as stream:
        text = stream.read()
        stream.seek(0)
        stream.write(text.replace(",benchmark,", ",optimal-O,", 1))
    try:
        assert checks.check_csv(w.path("csv"), records, 3)
    finally:
        with open(w.path("csv"), "w", encoding="utf-8") as stream:
            stream.write(text)
    bad_gain = [replace(g, gain_percent=g.gain_percent + 1.0) for g in gains]
    assert checks.check_gain(bad_gain, records, tuple(w.config(0).beta_grid))


def test_counting_and_filtering_checks():
    assert checks.check_count("total=331776 secure=3036 favourable=1296\n", 4) == []
    assert checks.check_count("total=331776 secure=3035 favourable=1296\n", 4)
    secure = [i for i in range(216) if checks.is_secure_order(checks.decode_order(3, i))]
    assert checks.check_filter_secure("\n".join(map(str, secure)), 3) == []
    assert checks.check_filter_secure("\n".join(map(str, secure[:-1])), 3)
    insecure = next(i for i in range(216) if i not in secure)
    assert checks.check_filter_secure("\n".join(map(str, sorted(secure[1:] + [insecure]))), 3)
    assert checks.check_filter_secure("\n".join(map(str, secure[::-1])), 3)
