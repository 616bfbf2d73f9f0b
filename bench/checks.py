"""Output checks computed apart from the package under test.

Nothing here calls the package's physics, order predicates or formatting:
the secrecy-rate formula, the mixed-radix order decoder, the secure and
favourable predicates and the policy matrices are written again from the
paper's model. Each check returns a list of error strings; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from itertools import permutations, product

SCHEMES = ("optimal-L", "optimal-O", "policy-LPWU", "policy-LPSU", "benchmark")
POLICIES = ("policy-LPWU", "policy-LPSU")
# Secure-order counts published in the paper, |S(N)| for N = 1..4.
SECURE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 3036}
TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fmt(x: float) -> str:
    """The documented export format: 12 significant digits."""
    return format(float(x), ".12g")


# --------------------------------------------------------------------------
# decoding orders, from their definitions
# --------------------------------------------------------------------------
@lru_cache(maxsize=None)
def _lex_perms(n: int) -> tuple[tuple[int, ...], ...]:
    # permutations() of a sorted input come out in lexicographic order
    return tuple(permutations(range(1, n + 1)))


def decode_order(n: int, oid: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the order with mixed-radix id ``oid``: base N! per column,
    column 1 most significant, each column ranked lexicographically."""
    perms = _lex_perms(n)
    digits = []
    for _ in range(n):
        oid, r = divmod(oid, len(perms))
        digits.append(r)
    if oid:
        raise ValueError("order id out of range")
    return tuple(perms[r] for r in reversed(digits))


def is_secure_order(cols) -> bool:
    """Every stronger user m < n decodes user n strictly before n decodes
    itself."""
    n_users = len(cols)
    for n in range(2, n_users + 1):
        own_stage = cols[n - 1].index(n)
        if any(cols[m - 1].index(n) >= own_stage for m in range(1, n)):
            return False
    return True


def is_favourable_order(cols) -> bool:
    return all(col[-1] == m for m, col in enumerate(cols, start=1))


def policy_matrix(n: int, scheme: str) -> tuple[tuple[int, ...], ...]:
    """LPWU: others weakest-to-strongest, self last; LPSU: strongest first."""
    others = range(n, 0, -1) if scheme == "policy-LPWU" else range(1, n + 1)
    return tuple(tuple(u for u in others if u != m) + (m,) for m in range(1, n + 1))


@lru_cache(maxsize=None)
def favourable_set(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every favourable order, built column by column (others, then self)."""
    cols = [
        [p + (m,) for p in permutations([u for u in range(1, n + 1) if u != m])]
        for m in range(1, n + 1)
    ]
    return tuple(product(*cols))


@lru_cache(maxsize=None)
def secure_set(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every secure order by exhaustive filtering; meant for n <= 3."""
    return tuple(c for c in product(_lex_perms(n), repeat=n) if is_secure_order(c))


# --------------------------------------------------------------------------
# the paper's link model, one scalar at a time
# --------------------------------------------------------------------------
def fractional_alphas(gains, beta: float) -> list[float]:
    w = [g ** (-beta) for g in gains]
    total = sum(w)
    return [x / total for x in w]


def secrecy_rates(cols, gains, alphas, zeta: float, inv_rho: float) -> list[float]:
    """Per-user secrecy rates of one decoding order.

    Receiver m decodes user n with SINR a_n g_m / (g_m I + 1/rho), where I
    sums zeta * a_i over users decoded before n in column m and a_i over
    users decoded after n. The secrecy rate of n is its own rate minus the
    best rate any other receiver gets on n, clamped at zero.
    """
    n_users = len(gains)

    def rate(n: int, m: int) -> float:
        col = cols[m - 1]
        k = col.index(n)
        interference = zeta * sum(alphas[u - 1] for u in col[:k]) + sum(
            alphas[u - 1] for u in col[k + 1 :]
        )
        g = gains[m - 1]
        return math.log2(1.0 + alphas[n - 1] * g / (g * interference + inv_rho))

    out = []
    for n in range(1, n_users + 1):
        taps = [rate(n, m) for m in range(1, n_users + 1) if m != n]
        out.append(max(0.0, rate(n, n) - max(taps, default=0.0)))
    return out


def best_min_rate(order_set, gains, alphas, zeta: float, inv_rho: float) -> float:
    """Max-min secrecy over ``order_set`` among orders where everyone gets a
    positive rate; 0 when no order qualifies."""
    best = 0.0
    for cols in order_set:
        worst = min(secrecy_rates(cols, gains, alphas, zeta, inv_rho))
        best = max(best, worst)
    return best


# --------------------------------------------------------------------------
# experiment records
# --------------------------------------------------------------------------
def check_rows(records, n_users: int, trials: int, grid, gains_of, sample, zeta, inv_rho) -> list[str]:
    """Structure, method properties and a scalar recomputation of records.

    ``gains_of(trial)`` gives the trial's channel gains and ``sample`` is a
    list of (trial, beta index) pairs whose rows are recomputed; on the first
    of them the exhaustive optimum over the favourable set (and, when
    n_users <= 3, the secure-set benchmark) is recomputed as well.
    """
    errors: list[str] = []
    want = trials * len(SCHEMES) * len(grid)
    if len(records) != want:
        errors.append(f"row count {len(records)} != trials*schemes*grid = {want}")
    cells: dict[tuple[int, int], dict[str, object]] = {}
    beta_index = {b: i for i, b in enumerate(grid)}
    for r in records:
        if r.beta not in beta_index or r.scheme not in SCHEMES or not 0 <= r.trial < trials:
            errors.append(f"unexpected row key {(r.trial, r.beta, r.scheme)}")
            continue
        cell = cells.setdefault((r.trial, beta_index[r.beta]), {})
        if r.scheme in cell:
            errors.append(f"duplicate row {(r.trial, r.beta, r.scheme)}")
        cell[r.scheme] = r
        rates = (r.min_secrecy_rate, *r.per_user_rates)
        if len(r.per_user_rates) != n_users or not all(math.isfinite(v) and v >= 0.0 for v in rates):
            errors.append(f"rates not finite and >= 0 in {(r.trial, r.beta, r.scheme)}")
            continue
        if r.scheme == "benchmark":
            if r.order_id is not None:
                errors.append("benchmark row carries an order id")
            continue
        if r.order_id is None:
            if r.scheme in POLICIES or r.min_secrecy_rate != 0.0:
                errors.append(f"row without order id has a value {(r.trial, r.beta, r.scheme)}")
            continue
        if not close(r.min_secrecy_rate, min(r.per_user_rates), 1e-12):
            errors.append(f"min rate is not the minimum in {(r.trial, r.beta, r.scheme)}")
        cols = decode_order(n_users, r.order_id)
        if r.scheme in POLICIES and cols != policy_matrix(n_users, r.scheme):
            errors.append(f"{r.scheme} order id {r.order_id} is not the policy matrix")
        if r.scheme == "optimal-L" and not (is_favourable_order(cols) and is_secure_order(cols)):
            errors.append(f"optimal-L order {r.order_id} is not favourable and secure")
        if r.scheme == "optimal-O" and (is_favourable_order(cols) or not is_secure_order(cols)):
            errors.append(f"optimal-O order {r.order_id} is not secure and unfavourable")
    for key, cell in cells.items():
        if len(cell) != len(SCHEMES):
            errors.append(f"cell {key} has schemes {sorted(cell)}")
            continue
        v = {s: cell[s].min_secrecy_rate for s in SCHEMES}
        slack = TOL * max(1.0, *v.values())
        if any(v["optimal-L"] < v[p] - slack for p in POLICIES):
            errors.append(f"optimal-L below a policy at {key}")
        if v["optimal-L"] < v["optimal-O"] - slack:
            errors.append(f"self-last dominance broken at {key}")
        if v["benchmark"] > max(v["optimal-L"], v["optimal-O"]) + slack:
            errors.append(f"benchmark above the optimum at {key}")
    for i, (trial, bi) in enumerate(sample):
        cell = cells.get((trial, bi))
        if cell is None or len(cell) != len(SCHEMES):
            errors.append(f"sampled cell {(trial, bi)} missing")
            continue
        gains = gains_of(trial)
        alphas = fractional_alphas(gains, grid[bi])
        for scheme, r in cell.items():
            if r.order_id is None:
                continue
            want_rates = secrecy_rates(decode_order(n_users, r.order_id), gains, alphas, zeta, inv_rho)
            if not all(close(a, b) for a, b in zip(r.per_user_rates, want_rates)):
                errors.append(f"rates of {(trial, grid[bi], scheme)} differ from the scalar formula")
        if i > 0:  # the exhaustive searches below run on the first cell only
            continue
        opt_l = best_min_rate(favourable_set(n_users), gains, alphas, zeta, inv_rho)
        if not close(cell["optimal-L"].min_secrecy_rate, opt_l):
            errors.append(f"optimal-L at {(trial, grid[bi])} is not the exhaustive optimum")
        if n_users <= 3:
            mins = [min(secrecy_rates(c, gains, alphas, zeta, inv_rho)) for c in secure_set(n_users)]
            if not close(cell["benchmark"].min_secrecy_rate, math.fsum(mins) / len(mins)):
                errors.append(f"benchmark at {(trial, grid[bi])} is not the secure-set mean")
    return errors


def _expected_fields(r) -> list[str]:
    return [
        str(r.trial),
        fmt(r.beta),
        r.scheme,
        "" if r.order_id is None else str(r.order_id),
        fmt(r.min_secrecy_rate),
        *(fmt(v) for v in r.per_user_rates),
    ]


def check_csv(path, records, n_users: int) -> list[str]:
    """The CSV export parses back to the records, field by field."""
    header = ["trial", "beta", "scheme", "order_id", "min_secrecy_rate"]
    header += [f"user_rate_{i}" for i in range(1, n_users + 1)]
    with open(path, newline="", encoding="utf-8") as stream:
        rows = csv.reader(stream)
        if next(rows, None) != header:
            return [f"{path}: bad CSV header"]
        count = 0
        for count, (row, r) in enumerate(zip(rows, records), start=1):
            if row != _expected_fields(r):
                return [f"{path}: CSV row {count} {row} does not match its record"]
        if count != len(records) or next(rows, None) is not None:
            return [f"{path}: CSV row count differs from {len(records)} records"]
    return []


def check_json(path, records) -> list[str]:
    """The JSON export parses back to the records, field by field."""
    with open(path, encoding="utf-8") as stream:
        rows = json.load(stream)
    if not isinstance(rows, list) or len(rows) != len(records):
        return [f"{path}: JSON row count differs from {len(records)} records"]
    keys = {"trial", "beta", "scheme", "order_id", "min_secrecy_rate", "per_user_rates"}
    for i, (row, r) in enumerate(zip(rows, records)):
        ok = (
            isinstance(row, dict)
            and set(row) == keys
            and row["trial"] == r.trial
            and row["scheme"] == r.scheme
            and row["order_id"] == r.order_id
            and row["beta"] == float(fmt(r.beta))
            and row["min_secrecy_rate"] == float(fmt(r.min_secrecy_rate))
            and row["per_user_rates"] == [float(fmt(v)) for v in r.per_user_rates]
        )
        if not ok:
            return [f"{path}: JSON row {i} does not match its record"]
    return []


def check_gain(rows, records, grid) -> list[str]:
    """gain_vs_users over N = 2, 3: the N = 3 row recomputed from the same
    block's records; the N = 2 row, where both policies are the only secure
    order, can only gain."""
    errors: list[str] = []
    by_n = {row.n_users: row for row in rows}
    if sorted(by_n) != [2, 3]:
        return [f"gain rows for user counts {sorted(by_n)}, expected [2, 3]"]
    policy: dict[int, float] = {}
    bench: dict[int, list[float]] = {}
    for r in records:
        if r.scheme in POLICIES:
            policy[r.trial] = max(policy.get(r.trial, 0.0), r.min_secrecy_rate)
        elif r.scheme == "benchmark":
            bench.setdefault(r.trial, []).append(r.min_secrecy_rate)
    if any(len(v) != len(grid) for v in bench.values()) or sorted(policy) != sorted(bench):
        return ["records do not cover the grid for every trial"]
    mean_policy = math.fsum(policy.values()) / len(policy)
    mean_bench = math.fsum(math.fsum(v) / len(v) for v in bench.values()) / len(bench)
    got = by_n[3]
    if not (close(got.mean_policy_value, mean_policy) and close(got.mean_benchmark_value, mean_bench)):
        errors.append("gain_vs_users at N=3 disagrees with the block's records")
    elif not close(got.gain_percent, 100.0 * (mean_policy - mean_bench) / mean_bench):
        errors.append("gain_vs_users at N=3 has a wrong gain_percent")
    two = by_n[2]
    if not (two.mean_policy_value >= two.mean_benchmark_value * (1.0 - TOL) and two.mean_benchmark_value > 0.0):
        errors.append("gain_vs_users at N=2: policy below benchmark or non-positive benchmark")
    elif not close(two.gain_percent, 100.0 * (two.mean_policy_value / two.mean_benchmark_value - 1.0)):
        errors.append("gain_vs_users at N=2 has a wrong gain_percent")
    return errors


# --------------------------------------------------------------------------
# counting and filtering output of the command line
# --------------------------------------------------------------------------
def check_count(text: str, n: int) -> list[str]:
    want = (
        f"total={math.factorial(n) ** n} secure={SECURE_COUNTS[n]} "
        f"favourable={math.factorial(n - 1) ** n}"
    )
    got = text.strip()
    return [] if got == want else [f"count printed {got!r}, expected {want!r}"]


def check_filter_secure(text: str, n: int) -> list[str]:
    try:
        ids = [int(line) for line in text.split()]
    except ValueError:
        return ["filter-secure printed a non-integer id"]
    if len(ids) != SECURE_COUNTS[n]:
        return [f"filter-secure printed {len(ids)} ids, expected {SECURE_COUNTS[n]}"]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        return ["filter-secure ids are not unique and ascending"]
    try:
        bad = [oid for oid in ids if not is_secure_order(decode_order(n, oid))]
    except ValueError:
        return ["filter-secure printed an id out of range"]
    return [f"filter-secure id {bad[0]} decodes to an insecure order"] if bad else []
