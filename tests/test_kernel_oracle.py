"""The order-major kernel against the user-major reference in
``kernel_oracle``: values, order picks and per-user rates must match bit for
bit, for every scheme, and so must the single-order entry points."""
import numpy as np
import pytest

from untrusted_noma import (
    DEFAULT_BETA_GRID,
    SCHEMES,
    benchmark_average,
    conventional_order,
    enumerate_orders,
    max_min_order,
    order_from_id,
    power_allocation,
    sample_channels,
    secrecy_rates,
    secure_orders,
    sinr,
    SystemParams,
    total_orders,
)
from untrusted_noma.optimizer import _score_block, _trials_per_block

import kernel_oracle as oracle

POLICIES = ("policy-LPWU", "policy-LPSU")


def assert_blocks_equal(got, want):
    """The kernel's C-contiguous (values [T, S, B], picks [T, S, B], rates
    [T, S, B, n]) against the oracle's per-scheme triples, stacked along the
    scheme axis in request order."""
    values, picks, users = (np.stack(arrays, axis=1) for arrays in zip(*want.values()))
    g_values, g_picks, g_users = got
    assert all(array.flags.c_contiguous for array in got)
    assert g_values.shape == values.shape and g_values.tobytes() == values.tobytes()
    assert g_picks.tolist() == picks.tolist()
    assert g_users.shape == users.shape and g_users.tobytes() == users.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
def test_all_schemes_full_grid(blocks_of, n, zeta):
    params = SystemParams(n_users=n, zeta=zeta)
    # blocks of three trials, and the trials of two and a bit blocks scored
    # in one call; test_experiments.TestTrialBlocks crosses the boundaries
    blocks_of(3, SCHEMES, n, len(DEFAULT_BETA_GRID))
    trials = 2 * _trials_per_block(SCHEMES, n, len(DEFAULT_BETA_GRID)) + 1
    channels = [sample_channels(params, 100 * n + seed) for seed in range(trials)]
    got = _score_block(SCHEMES, DEFAULT_BETA_GRID, np.array([ch.gains for ch in channels]), params)
    assert_blocks_equal(got, oracle.score_block(SCHEMES, DEFAULT_BETA_GRID, channels, params))
    if n <= 2:
        # optimal-O searches no order below three users
        values, picks, users = (array[:, SCHEMES.index("optimal-O")] for array in got)
        assert set(picks.ravel().tolist()) == {-1}
        assert not values.any() and not users.any()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("schemes", [("optimal-O", "benchmark"), ("policy-LPSU", "optimal-L")])
def test_scheme_subsets_and_order(n, schemes):
    params = SystemParams(n_users=n, zeta=0.1)
    channels = [sample_channels(params, seed) for seed in range(2)]
    got = _score_block(schemes, DEFAULT_BETA_GRID, np.array([ch.gains for ch in channels]), params)
    assert_blocks_equal(got, oracle.score_block(schemes, DEFAULT_BETA_GRID, channels, params))


@pytest.mark.parametrize("n", [5, 9, 12, 21])
def test_policies_beyond_the_cap(n):
    params = SystemParams(n_users=n, zeta=0.1)
    channels = [sample_channels(params, seed) for seed in range(3)]
    got = _score_block(POLICIES, DEFAULT_BETA_GRID, np.array([ch.gains for ch in channels]), params)
    assert_blocks_equal(got, oracle.score_block(POLICIES, DEFAULT_BETA_GRID, channels, params))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("zeta", [0.0, 0.1, 1.0])
def test_single_order_entry_points(n, zeta):
    params = SystemParams(n_users=n, zeta=zeta)
    rng = np.random.default_rng(n)
    sec = list(secure_orders(n))
    for seed in range(3):
        ch = sample_channels(params, seed)
        pa = power_allocation(ch, float(rng.uniform(-1, 1)))
        picks = [order_from_id(n, int(i)) for i in rng.integers(0, total_orders(n), size=6)]
        for order in [*picks, conventional_order(n), sec[-1]]:
            assert secrecy_rates(order, ch, pa, params) == oracle.secrecy_rates(order, ch, pa, params)
            for u in range(1, n + 1):
                for m in range(1, n + 1):
                    assert sinr(order, ch, pa, params, u, m) == oracle.sinr(order, ch, pa, params, u, m)
        for source in (picks, sec, list(enumerate_orders(n)) if n <= 3 else sec[::7], []):
            got = max_min_order(iter(source), ch, pa, params)
            assert got == oracle.max_min_order(iter(source), ch, pa, params)
        assert benchmark_average(ch, pa, params) == oracle.benchmark_average(ch, pa, params)
