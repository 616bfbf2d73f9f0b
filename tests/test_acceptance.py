"""Acceptance suite: every release gate in one module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Statistical gates use fixed seeds, so results are exactly
reproducible.
"""
import math
import time

import numpy as np
import pytest

from untrusted_noma import (
    ChannelRealization,
    DecodingOrder,
    ExperimentConfig,
    PowerAllocation,
    SystemParams,
    conventional_order,
    count_secure,
    enumerate_orders,
    export,
    gain_vs_users,
    is_favourable,
    is_secure,
    max_min_order,
    order_from_id,
    order_id,
    power_allocation,
    run_experiment,
    sample_channels,
    secrecy_rates,
    secure_orders,
    self_last_transform,
    sinr,
    sweep_all,
    total_orders,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


# --------------------------------------------------------------------------
# criterion 1: exact counting identities, full N=4 pass under 30 s
# --------------------------------------------------------------------------
def test_criterion_1_counting_identities():
    t0 = time.perf_counter()
    expected = {2: (4, 1, 1), 3: (216, 12, 8), 4: (331776, 3036, 1296)}
    ok = True
    for n, (want_total, want_secure, want_fav) in expected.items():
        total = secure = fav = fav_not_secure = 0
        for order in enumerate_orders(n):
            total += 1
            s = is_secure(order)
            f = is_favourable(order)
            secure += s
            fav += f
            fav_not_secure += f and not s
        ok &= total == want_total == total_orders(n)
        ok &= secure == want_secure == count_secure(n)
        ok &= fav == want_fav == math.factorial(n - 1) ** n
        ok &= fav_not_secure == 0  # L is a subset of S, exhaustively
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(1, "counting identities (totals, secure, favourable, L within S)", ok,
            f"elapsed {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# criterion 2: worked two-user instance against an independent scalar oracle
# --------------------------------------------------------------------------
def _oracle_two_user_rates() -> tuple[float, float]:
    """Direct arithmetic for the fixed instance, no shared machinery:
    gains (4,1), alpha (0.2,0.8), zeta 0.1, rho_t 10, columns (2,1)/(1,2)."""
    g1, g2 = 4.0, 1.0
    a1, a2 = 0.2, 0.8
    zeta, inv_rho = 0.1, 0.1
    # receiver 1 decodes user 2 first, then itself
    gamma_11 = a1 * g1 / (zeta * a2 * g1 + inv_rho)  # own signal, 2 decoded before
    gamma_21 = a2 * g1 / (a1 * g1 + inv_rho)         # tap on 2 at stage 1, 1 pending
    # receiver 2 decodes user 1 first, then itself
    gamma_22 = a2 * g2 / (zeta * a1 * g2 + inv_rho)  # own signal, 1 decoded before
    gamma_12 = a1 * g2 / (a2 * g2 + inv_rho)         # tap on 1 at stage 1, 2 pending
    rs1 = max(0.0, math.log2(1 + gamma_11) - math.log2(1 + gamma_12))
    rs2 = max(0.0, math.log2(1 + gamma_22) - math.log2(1 + gamma_21))
    return rs1, rs2


def test_criterion_2_worked_instance():
    oracle = _oracle_two_user_rates()
    # frozen oracle outputs: log2(549/231) and log2(69/41)
    assert oracle[0] == pytest.approx(1.248913297589141, abs=1e-12)
    assert oracle[1] == pytest.approx(0.7509724521600853, abs=1e-12)

    order = DecodingOrder(columns=((2, 1), (1, 2)))
    ch = ChannelRealization(distances_m=(1.0, 2.0), gains=(4.0, 1.0))
    alpha = PowerAllocation(alphas=(0.2, 0.8), beta=0.0)
    params = SystemParams(n_users=2, pt_dbm=10.0, noise_dbm=0.0, zeta=0.1)
    rates = secrecy_rates(order, ch, alpha, params)
    err = max(abs(a - b) for a, b in zip(rates, oracle))
    ok = err <= 1e-6 and len(rates) == 2
    _report(2, "worked N=2 instance vs independent scalar oracle", ok,
            f"max |err| = {err:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 3: conventional order secures exactly the strongest user
# --------------------------------------------------------------------------
def test_criterion_3_conventional_order_secures_only_strongest():
    rng = np.random.default_rng(31337)
    violations = 0
    for trial in range(1000):
        n = 2 + trial % 3
        params = SystemParams(n_users=n)
        ch = sample_channels(params, int(rng.integers(0, 2**63)))
        pa = power_allocation(ch, float(rng.uniform(-1.0, 1.0)))
        rates = secrecy_rates(conventional_order(n), ch, pa, params)
        if rates[0] <= 0.0:
            violations += 1
        if any(r != 0.0 for r in rates[1:]):
            violations += 1
    ok = violations == 0
    _report(3, "conventional order: weaker users at exactly zero, strongest positive",
            ok, f"1000 realizations, {violations} violations")
    assert ok


# --------------------------------------------------------------------------
# criterion 4: self-last dominance and optimal-over-L = optimal-over-S at N=3
# --------------------------------------------------------------------------
def test_criterion_4_self_last_dominance():
    rng = np.random.default_rng(424242)
    params = SystemParams(n_users=3)
    sec = tuple(secure_orders(3))
    worst_drop = 0.0
    worst_gap = 0.0
    fav = [o for o in sec if is_favourable(o)]
    for _ in range(100):
        ch = sample_channels(params, int(rng.integers(0, 2**63)))
        pa = power_allocation(ch, float(rng.uniform(-1.0, 1.0)))
        for order in sec:
            before = secrecy_rates(order, ch, pa, params)
            after = secrecy_rates(self_last_transform(order), ch, pa, params)
            worst_drop = max(worst_drop, max(b - a for a, b in zip(after, before)))
        over_s = max_min_order(iter(sec), ch, pa, params)
        over_l = max_min_order(iter(fav), ch, pa, params)
        worst_gap = max(worst_gap, abs(over_s.best_value - over_l.best_value))
    ok = worst_drop <= 1e-12 and worst_gap <= 1e-12
    _report(4, "self-last transform never lowers any user's rate; L attains the S optimum",
            ok, f"worst drop {worst_drop:.2e}, worst L-vs-S gap {worst_gap:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 5: policy accuracy vs exhaustive optimum over L (N=3, defaults)
# --------------------------------------------------------------------------
def test_criterion_5_policy_accuracy():
    from untrusted_noma import DEFAULT_BETA_GRID
    from untrusted_noma.experiments import derive_trial_seed

    params = SystemParams(n_users=3)
    trials = 1000
    ratios = []
    for trial in range(trials):
        ch = sample_channels(params, derive_trial_seed(20250810, trial))
        sweeps = sweep_all(
            ("optimal-L", "policy-LPWU", "policy-LPSU"), DEFAULT_BETA_GRID, ch, params
        )
        v_opt = max(p.min_secrecy_rate for p in sweeps["optimal-L"])
        v_pol = max(
            p.min_secrecy_rate for s in ("policy-LPWU", "policy-LPSU") for p in sweeps[s]
        )
        # a trial with no positive-secrecy order anywhere constrains nothing
        ratios.append(v_pol / v_opt if v_opt > 0 else 1.0)
    measured = float(np.mean(ratios))
    ok = measured >= 0.80
    _report(5, "suboptimal policy achieves >= 80% of the exhaustive optimum over L",
            ok, f"measured ratio {measured:.4f} over {trials} trials")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: policy gain over the benchmark average, degradation with N
# --------------------------------------------------------------------------
def test_criterion_6_benchmark_gain():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        params=SystemParams(n_users=2), trials=1000, master_seed=20250810
    )
    rows = gain_vs_users(config, [2, 3, 4])
    mean_gain = float(np.mean([r.gain_percent for r in rows]))
    policy_curve = [r.mean_policy_value for r in rows]
    bench_curve = [r.mean_benchmark_value for r in rows]
    monotone = all(a >= b for a, b in zip(policy_curve, policy_curve[1:])) and all(
        a >= b for a, b in zip(bench_curve, bench_curve[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = mean_gain >= 100.0 and monotone and elapsed < 600.0
    detail = ", ".join(
        f"N={r.n_users}: policy {r.mean_policy_value:.3f}, bench {r.mean_benchmark_value:.3f}, "
        f"gain {r.gain_percent:.0f}%" for r in rows
    )
    _report(6, "mean policy gain over benchmark >= 100%, min-secrecy non-increasing in N",
            ok, f"{detail}; mean gain {mean_gain:.0f}%; elapsed {elapsed:.0f}s")
    assert ok


# --------------------------------------------------------------------------
# criterion 7: standalone property suites
# --------------------------------------------------------------------------
def test_criterion_7a_power_allocation_normalization():
    rng = np.random.default_rng(7001)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        gains = np.sort(rng.uniform(1e-8, 1.0, size=n))[::-1]
        ch = ChannelRealization(
            distances_m=tuple(float(d) for d in rng.uniform(1.0, 350.0, size=n)),
            gains=tuple(float(g) for g in gains),
        )
        pa = power_allocation(ch, float(rng.uniform(-1.0, 1.0)))
        worst = max(worst, abs(sum(pa.alphas) - 1.0))
    ok = worst <= 1e-12
    _report(7, f"power allocation sums to 1 over 10^4 draws", ok, f"worst |sum-1| = {worst:.2e}")
    assert ok


def test_criterion_7b_full_sic_failure_order_invariance():
    rng = np.random.default_rng(7002)
    params = SystemParams(n_users=3, zeta=1.0)
    ch = sample_channels(params, 7002)
    pa = power_allocation(ch, 0.4)
    reference = order_from_id(3, 0)
    base = {
        (n, m): sinr(reference, ch, pa, params, n, m)
        for n in range(1, 4)
        for m in range(1, 4)
    }
    worst = 0.0
    for oid in rng.integers(0, total_orders(3), size=100):
        order = order_from_id(3, int(oid))
        for (n, m), ref in base.items():
            got = sinr(order, ch, pa, params, n, m)
            worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 1e-12
    _report(7, "all SINRs identical across 100 random orders at zeta=1", ok,
            f"worst rel diff = {worst:.2e}")
    assert ok


def test_criterion_7c_order_id_round_trip():
    ok = all(order_id(order_from_id(3, oid)) == oid for oid in range(216))
    enumerated = [order_id(o) for o in enumerate_orders(3)]
    ok &= enumerated == list(range(216))
    _report(7, "order-id round-trip over all 216 three-user orders", ok)
    assert ok


def test_criterion_7d_experiment_determinism(tmp_path):
    config = ExperimentConfig(
        params=SystemParams(n_users=3),
        trials=5,
        master_seed=99,
        beta_grid=(-1.0, -0.5, 0.0, 0.5, 1.0),
    )
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    export(run_experiment(config), path_a, "csv")
    export(run_experiment(config), path_b, "csv")
    ok = path_a.read_bytes() == path_b.read_bytes()
    _report(7, "two identical experiment runs export byte-identical files", ok,
            f"{path_a.stat().st_size} bytes")
    assert ok
