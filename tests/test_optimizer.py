from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untrusted_noma import (
    ChannelRealization,
    PowerAllocation,
    SystemParams,
    benchmark_average,
    beta_sweep,
    conventional_order,
    enumerate_orders,
    favourable_orders,
    is_favourable,
    is_secure,
    max_min_order,
    order_from_id,
    order_id,
    policy_order_lpsu,
    policy_order_lpwu,
    power_allocation,
    sample_channels,
    secure_orders,
    secrecy_rates,
    sweep_all,
    total_orders,
)
from untrusted_noma.optimizer import (
    _before_tensor,
    _best_of,
    _interference_weights,
    _rate_matrix,
    _secure_bundle,
    _secure_weights,
)

WORKED_CH = ChannelRealization(distances_m=(1.0, 2.0), gains=(4.0, 1.0))
WORKED_ALPHA = PowerAllocation(alphas=(0.2, 0.8), beta=0.0)
WORKED_PARAMS = SystemParams(n_users=2, pt_dbm=10.0, noise_dbm=0.0, zeta=0.1)
ORACLE_MIN_RATE = 0.7509724521600853  # log2(69/41), hand-derived


class TestMaxMinOrder:
    def test_single_secure_order_worked_instance(self):
        out = max_min_order(iter(secure_orders(2)), WORKED_CH, WORKED_ALPHA, WORKED_PARAMS)
        assert out.best_value == pytest.approx(ORACLE_MIN_RATE, abs=1e-9)
        assert out.feasible_count == 1
        assert out.evaluated_count == 1
        assert out.best_order_id == order_id(next(secure_orders(2)))

    def test_conventional_source_is_infeasible(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 3)
        pa = power_allocation(ch, 0.5)
        out = max_min_order(iter([conventional_order(3)]), ch, pa, params)
        assert out.best_order_id is None
        assert out.best_value == 0.0
        assert out.feasible_count == 0
        assert out.evaluated_count == 1

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_enlarging_the_source_never_hurts(self, seed, beta):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, beta)
        subset = max_min_order(islice(secure_orders(3), 4), ch, pa, params)
        full = max_min_order(iter(secure_orders(3)), ch, pa, params)
        assert full.best_value >= subset.best_value
        assert full.feasible_count >= subset.feasible_count

    def test_result_independent_of_stream_direction(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 17)
        pa = power_allocation(ch, -0.4)
        fwd = max_min_order(iter(secure_orders(3)), ch, pa, params)
        rev = max_min_order(reversed(list(secure_orders(3))), ch, pa, params)
        assert fwd == rev

    def test_tie_break_prefers_smallest_id(self):
        mins = np.array([0.5, 0.7, 0.7, 0.1])
        ids = np.array([40, 30, 20, 10])
        mask = np.ones(4, dtype=bool)
        assert _best_of(mask, mins, ids) == 2  # value 0.7 at the smaller id 20
        assert _best_of(np.array([True, False, False, True]), mins, ids) == 0
        assert _best_of(mask, np.zeros(4), ids) is None


class TestBatchEvaluator:
    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_path(self, seed, beta):
        rng = np.random.default_rng(seed)
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, beta)
        picks = [order_from_id(3, int(i)) for i in rng.integers(0, total_orders(3), size=8)]
        weights = _interference_weights(_before_tensor(picks, 3), params.zeta)
        got = _rate_matrix(
            weights, np.array(ch.gains), np.array(pa.alphas), 1.0 / params.rho_t
        )
        for k, order in enumerate(picks):
            expected = secrecy_rates(order, ch, pa, params).per_user_rates
            assert got[k] == pytest.approx(expected, abs=1e-12)

    def test_zero_power_user_has_zero_secrecy(self):
        # alpha -> 0 limit: no signal power, clamped rate is exactly zero
        order = next(secure_orders(3))
        weights = _interference_weights(_before_tensor([order], 3), 0.1)
        rates = _rate_matrix(
            weights, np.array([0.9, 0.5, 0.1]), np.array([0.0, 0.6, 0.4]), 1e-10
        )
        assert rates[0, 0] == 0.0


class TestSecureBundle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_order_construction(self, n):
        sec = [o for o in enumerate_orders(n) if is_secure(o)]
        expected = np.zeros((len(sec), n, n, n), dtype=bool)
        for k, order in enumerate(sec):
            for m in range(1, n + 1):
                for t in range(1, n + 1):
                    for i in range(1, n + 1):
                        expected[k, t - 1, m - 1, i - 1] = order.stage_of(m, i) < order.stage_of(m, t)
        ids, fav, before = _secure_bundle(n)
        assert np.array_equal(ids, np.array([order_id(o) for o in sec], dtype=np.int64))
        assert np.array_equal(fav, np.array([is_favourable(o) for o in sec]))
        assert np.array_equal(before, expected)
        assert np.array_equal(_before_tensor(sec, n), expected)
        assert (ids.dtype, fav.dtype, before.dtype) == (np.int64, bool, bool)

    def test_cached_arrays_are_read_only(self):
        ids, fav, before = _secure_bundle(3)
        assert not any(a.flags.writeable for a in (ids, fav, before))
        with pytest.raises(ValueError):
            before[0, 0, 0, 0] = True

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
    def test_weights_cached_per_zeta_and_read_only(self, zeta):
        weights = _secure_weights(3, zeta)
        assert _secure_weights(3, zeta) is weights
        assert np.array_equal(weights, _interference_weights(_secure_bundle(3)[2], zeta))
        assert not weights.flags.writeable

    def test_rate_matrix_into_buffer_matches_fresh(self):
        params = SystemParams(n_users=4)
        ch = sample_channels(params, 5)
        gains = np.asarray(ch.gains)
        weights = _secure_weights(4, params.zeta)
        buf = np.empty(weights.shape[:3])
        for beta in (-0.5, 0.0, 0.7):
            alphas = np.asarray(power_allocation(ch, beta).alphas)
            fresh = _rate_matrix(weights, gains, alphas, 1.0 / params.rho_t)
            reused = _rate_matrix(weights, gains, alphas, 1.0 / params.rho_t, out=buf)
            assert np.array_equal(fresh, reused)


class TestBenchmarkAverage:
    def test_two_users_equals_the_single_secure_order(self):
        got = benchmark_average(WORKED_CH, WORKED_ALPHA, WORKED_PARAMS)
        assert got == pytest.approx(ORACLE_MIN_RATE, abs=1e-9)

    def test_three_users_averages_twelve_orders(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 8)
        pa = power_allocation(ch, -0.2)
        expected = np.mean(
            [min(secrecy_rates(o, ch, pa, params).per_user_rates) for o in secure_orders(3)]
        )
        assert benchmark_average(ch, pa, params) == pytest.approx(float(expected), rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_mean_never_exceeds_max(self, seed, beta):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, beta)
        best = max_min_order(iter(secure_orders(3)), ch, pa, params)
        if best.feasible_count > 0:
            assert benchmark_average(ch, pa, params) <= best.best_value + 1e-12

    def test_feasible_only_switch(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 8)
        pa = power_allocation(ch, -0.2)
        including = benchmark_average(ch, pa, params)
        excluding = benchmark_average(ch, pa, params, feasible_only=True)
        assert excluding >= including

    def test_cap_enforced(self):
        params = SystemParams(n_users=5)
        ch = sample_channels(params, 1)
        pa = power_allocation(ch, 0.0)
        with pytest.raises(ValueError):
            benchmark_average(ch, pa, params)


class TestBetaSweep:
    GRID = tuple(float(b) for b in np.linspace(-1, 1, 21))

    def test_policies_coincide_at_beta_zero_two_users(self):
        params = SystemParams(n_users=2)
        ch = sample_channels(params, 4)
        lpwu = beta_sweep("policy-LPWU", [0.0], ch, params)[0]
        lpsu = beta_sweep("policy-LPSU", [0.0], ch, params)[0]
        assert lpwu.value == lpsu.value
        assert lpwu.order_id == lpsu.order_id

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_dominance_chain_over_grid(self, seed):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, seed)
        sweeps = sweep_all(
            ["optimal-L", "optimal-O", "policy-LPWU", "policy-LPSU"], self.GRID, ch, params
        )
        for pl, po, pw, ps in zip(
            sweeps["optimal-L"], sweeps["optimal-O"], sweeps["policy-LPWU"], sweeps["policy-LPSU"]
        ):
            assert pl.value >= po.value - 1e-12
            assert pl.value >= pw.value - 1e-12
            assert pl.value >= ps.value - 1e-12

    def test_policy_points_carry_policy_ids(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 9)
        sweeps = sweep_all(["policy-LPWU", "policy-LPSU"], [-0.5, 0.5], ch, params)
        assert all(p.order_id == order_id(policy_order_lpwu(3)) for p in sweeps["policy-LPWU"])
        assert all(p.order_id == order_id(policy_order_lpsu(3)) for p in sweeps["policy-LPSU"])

    def test_optimal_l_searches_favourable_set(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 11)
        pa_beta = -0.3
        point = beta_sweep("optimal-L", [pa_beta], ch, params)[0]
        expected = max_min_order(
            iter(favourable_orders(3)), ch, power_allocation(ch, pa_beta), params
        )
        assert point.value == pytest.approx(expected.best_value, rel=1e-12)
        assert point.order_id == expected.best_order_id

    def test_benchmark_points_average_per_user_rates(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 12)
        point = beta_sweep("benchmark", [0.2], ch, params)[0]
        pa = power_allocation(ch, 0.2)
        per_user = np.array(
            [secrecy_rates(o, ch, pa, params).per_user_rates for o in secure_orders(3)]
        )
        assert point.order_id is None
        assert point.per_user_rates == pytest.approx(per_user.mean(axis=0), rel=1e-10)

    def test_deterministic(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 2)
        a = sweep_all(["optimal-L", "benchmark"], self.GRID, ch, params)
        b = sweep_all(["optimal-L", "benchmark"], self.GRID, ch, params)
        assert a == b

    def test_rejects_bad_input(self):
        params = SystemParams(n_users=3)
        ch = sample_channels(params, 2)
        with pytest.raises(ValueError):
            beta_sweep("optimal-X", [0.0], ch, params)
        with pytest.raises(ValueError):
            beta_sweep("benchmark", [1.5], ch, params)
        big = SystemParams(n_users=5)
        with pytest.raises(ValueError):
            beta_sweep("benchmark", [0.0], sample_channels(big, 1), big)

    def test_policies_allowed_beyond_enumeration_cap(self):
        params = SystemParams(n_users=5)
        ch = sample_channels(params, 1)
        points = beta_sweep("policy-LPWU", [-0.5], ch, params)
        assert len(points) == 1 and points[0].value >= 0.0
