import math
import random
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untrusted_noma import (
    ChannelRealization,
    DecodingOrder,
    PowerAllocation,
    SystemParams,
    dbm_to_mw,
    draw_gains,
    is_secure,
    max_min_order,
    order_from_id,
    power_allocation,
    sample_channels,
    secrecy_rates,
    sinr,
    sweep_all,
)
from untrusted_noma import system

import sampler_oracle

# one to seven 32-bit words: the pool of four, and seeds that mix in more
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**96 + 7, 2**128 - 1, 2**128, 2**200]

# Worked 2-user instance, frozen from a hand-evaluated scalar oracle
# (gains (4,1), alpha (0.2,0.8), zeta 0.1, rho_t 10):
#   gamma_22 = 20/3, gamma_21 = 32/9, gamma_11 = 40/21, gamma_12 = 2/9
#   R_s1 = log2(61/21) - log2(11/9) = log2(549/231)
#   R_s2 = log2(23/3) - log2(41/9)  = log2(69/41)
ORACLE_RS1 = 1.248913297589141
ORACLE_RS2 = 0.7509724521600853

WORKED_ORDER = DecodingOrder(columns=((2, 1), (1, 2)))
WORKED_CH = ChannelRealization(distances_m=(1.0, 2.0), gains=(4.0, 1.0))
WORKED_ALPHA = PowerAllocation(alphas=(0.2, 0.8), beta=0.0)
# pt 10 dBm over 0 dBm noise gives rho_t = 10 exactly
WORKED_PARAMS = SystemParams(n_users=2, pt_dbm=10.0, noise_dbm=0.0, zeta=0.1)


def random_channels(n: int, rng: np.random.Generator) -> ChannelRealization:
    gains = np.sort(rng.uniform(1e-8, 1.0, size=n))[::-1]
    return ChannelRealization(
        distances_m=tuple(float(d) for d in rng.uniform(1.0, 350.0, size=n)),
        gains=tuple(float(g) for g in gains),
    )


class TestSystemParams:
    def test_default_rho_t_is_1e10(self):
        assert SystemParams(n_users=4).rho_t == pytest.approx(1e10, rel=1e-12)

    def test_dbm_conversion(self):
        assert dbm_to_mw(10.0) == pytest.approx(10.0)
        assert dbm_to_mw(-90.0) == pytest.approx(1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_users": 2, "zeta": -0.1},
            {"n_users": 2, "zeta": 1.5},
            {"n_users": 2, "field_len_m": 0.0},
            {"n_users": 2, "path_loss_exp": 0.0},
            {"n_users": 2, "min_dist_m": 0.0},
            {"n_users": 2, "min_dist_m": 260.0},
            {"n_users": 2, "noise_dbm": -4000.0},
            {"n_users": 2, "noise_dbm": 4000.0},
            {"n_users": 2, "pt_dbm": 4000.0},
            {"n_users": 2, "pt_dbm": -4000.0},
            {"n_users": 2, "pt_dbm": math.inf},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("value", [2.5, "3", None])
    def test_n_users_must_be_an_int(self, value):
        with pytest.raises(TypeError, match=f"^n_users must be an int, got {value!r}$"):
            SystemParams(n_users=value)

    def test_numpy_integer_users_are_taken_as_an_int(self):
        params = SystemParams(n_users=np.int64(3))
        assert type(params.n_users) is int and params == SystemParams(n_users=3)

    @pytest.mark.parametrize(
        "field, value",
        [("zeta", "0.1"), ("pt_dbm", None), ("field_len_m", "500"), ("noise_dbm", 1j),
         ("path_loss_exp", np.complex64(3.0))],
    )
    def test_float_fields_must_be_real_numbers(self, field, value):
        match = f"^{field} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=match):
            SystemParams(n_users=2, **{field: value})

    @pytest.mark.parametrize(
        "distances, gains, match",
        [
            ((1.0,), (4.0, 1.0), "equal length"),
            ((), (), "at least one user"),
            ((1.0, 2.0), (4.0, 0.0), "positive and finite"),
            ((1.0, 0.0), (4.0, 1.0), "distances must be positive"),
            ((math.nan, 1.0), (2.0, 1.0), "distances must be positive"),
        ],
    )
    def test_invalid_realization_rejected(self, distances, gains, match):
        with pytest.raises(ValueError, match=match):
            ChannelRealization(distances_m=distances, gains=gains)

    def test_unsorted_gains_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(distances_m=(1.0, 2.0), gains=(1.0, 4.0))
        with pytest.raises(ValueError):
            ChannelRealization(distances_m=(1.0, 2.0), gains=(1.0, 1.0))


class TestSampling:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"field_len_m": 1e200},  # every gain underflows to 0
            {"path_loss_const": 1e308, "field_len_m": 1e-3, "min_dist_m": 1e-6},  # overflow
        ],
    )
    def test_degenerate_gains_raise_instead_of_redrawing(self, kwargs):
        with pytest.raises(ValueError, match="channel gains"):
            sample_channels(SystemParams(n_users=3, **kwargs), 1)

    def test_deterministic_for_fixed_seed(self):
        params = SystemParams(n_users=4)
        assert sample_channels(params, 99) == sample_channels(params, 99)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sample_channels(SystemParams(n_users=2), -1)

    def test_different_seeds_differ(self):
        params = SystemParams(n_users=4)
        assert sample_channels(params, 1) != sample_channels(params, 2)

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_gains_strictly_descending_and_distances_in_field(self, seed, n):
        params = SystemParams(n_users=n)
        ch = sample_channels(params, seed)
        assert all(a > b for a, b in zip(ch.gains, ch.gains[1:]))
        half_diag = params.field_len_m * math.sqrt(2.0) / 2.0
        assert all(params.min_dist_m <= d <= half_diag for d in ch.distances_m)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("size", [1, 3, 120, 1000])
    def test_block_matches_the_per_seed_oracle(self, n, size):
        # the edge seeds cut into batches of ``size``, the big batches filled
        # up with 64-bit seeds: seeds of one to seven 32-bit words share a batch
        params = SystemParams(n_users=n)
        fill = random.Random(size * 10 + n)
        seeds = EDGE_SEEDS + [fill.getrandbits(64) for _ in range(size - len(EDGE_SEEDS))]
        for first in range(0, len(seeds), size):
            batch = seeds[first:first + size]
            got = system._sample_block(params, batch)
            want = sampler_oracle.sample_block(params, batch)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(
        st.lists(st.integers(min_value=0, max_value=2**260), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_matches_the_oracle_on_any_seeds(self, seeds, n):
        params = SystemParams(n_users=n)
        got = system._sample_block(params, seeds)
        want = sampler_oracle.sample_block(params, seeds)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(st.lists(st.integers(min_value=0, max_value=2**260), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_seed_words_are_seed_sequence_state(self, seeds):
        seeds += EDGE_SEEDS
        words = system._seed_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        want = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
        assert words.tobytes() == np.array(want).tobytes()

    def test_numpy_integer_seeds_draw_as_ints(self):
        params = SystemParams(n_users=3)
        seeds = [0, 5, 2**64 - 1]
        got = system._sample_block(params, np.array(seeds, dtype=np.uint64))
        want = system._sample_block(params, seeds)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_block_redraws_a_collision_from_its_own_seed(self, monkeypatch):
        # gains a few hundred subnormal steps wide collide now and then;
        # each colliding draw is re-drawn from its own generator
        params = SystemParams(n_users=4, path_loss_const=1e-321, path_loss_exp=1e-9)
        seeds = []
        for seed in range(300):
            try:
                sampler_oracle.sample_block(params, [seed])
            except ValueError:
                continue
            seeds.append(seed)
        redraws = []
        draw = system.draw_gains

        def counting(*args):
            redraws.append(args)
            return draw(*args)

        monkeypatch.setattr(system, "draw_gains", counting)
        got = system._sample_block(params, seeds)
        assert redraws
        want = sampler_oracle.sample_block(params, seeds)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_block_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="got -1"):
            system._sample_block(SystemParams(n_users=2), [4, -1])

    def test_pinned_distance_mean_gain_matches_path_loss(self):
        # user fixed at 100 m: mean gain must be L_c * 100^-3 = 1e-6
        params = SystemParams(n_users=1)
        rng = np.random.default_rng(321)
        gains = draw_gains(params, np.full(100_000, 100.0), rng)
        assert gains.mean() == pytest.approx(1e-6, rel=0.03)


class TestPowerAllocation:
    def test_uniform_at_beta_zero(self):
        ch = random_channels(4, np.random.default_rng(0))
        assert power_allocation(ch, 0.0).alphas == (0.25, 0.25, 0.25, 0.25)

    def test_two_user_worked_values(self):
        assert power_allocation(WORKED_CH, 1.0).alphas == pytest.approx((0.2, 0.8), abs=1e-15)
        assert power_allocation(WORKED_CH, -1.0).alphas == pytest.approx((0.8, 0.2), abs=1e-15)

    @pytest.mark.parametrize("beta", [-1.5, 1.01, 2.0])
    def test_out_of_range_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            power_allocation(WORKED_CH, beta)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_and_monotonicity(self, n, beta, seed):
        ch = random_channels(n, np.random.default_rng(seed))
        pa = power_allocation(ch, beta)
        assert abs(sum(pa.alphas) - 1.0) <= 1e-12
        if beta < 0:  # more power to stronger (lower-index) users
            assert all(a >= b for a, b in zip(pa.alphas, pa.alphas[1:]))
        elif beta > 0:
            assert all(a <= b for a, b in zip(pa.alphas, pa.alphas[1:]))

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(alphas=(0.5, 0.6), beta=0.0)
        with pytest.raises(ValueError):
            PowerAllocation(alphas=(1.2, -0.2), beta=0.0)
        with pytest.raises(ValueError, match="beta must lie in"):
            PowerAllocation(alphas=(0.5, 0.5), beta=2.0)
        with pytest.raises(ValueError, match="^all power coefficients must be positive$"):
            PowerAllocation(alphas=(math.nan, math.nan), beta=0.0)
        # the weaker user's share underflows to zero
        extreme = ChannelRealization(distances_m=(1.0, 1.0), gains=(1e300, 1e-300))
        with pytest.raises(ValueError, match="must be positive"):
            power_allocation(extreme, 1.0)


class TestSinr:
    def test_worked_values(self):
        got = sinr(WORKED_ORDER, WORKED_CH, WORKED_ALPHA, WORKED_PARAMS, 2, 2)
        assert got == pytest.approx(20.0 / 3.0, rel=1e-12)
        got = sinr(WORKED_ORDER, WORKED_CH, WORKED_ALPHA, WORKED_PARAMS, 2, 1)
        assert got == pytest.approx(32.0 / 9.0, rel=1e-12)

    def test_invalid_indices_rejected(self):
        for n, m in [(0, 1), (1, 0), (3, 1), (1, 3)]:
            with pytest.raises(ValueError):
                sinr(WORKED_ORDER, WORKED_CH, WORKED_ALPHA, WORKED_PARAMS, n, m)
        three = ChannelRealization(distances_m=(1.0, 2.0, 3.0), gains=(4.0, 2.0, 1.0))
        with pytest.raises(ValueError, match="order size"):
            sinr(WORKED_ORDER, three, WORKED_ALPHA, SystemParams(n_users=3), 1, 1)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_full_sic_failure_makes_order_irrelevant(self, seed):
        # zeta = 1: decoded-before and pending users interfere identically
        rng = np.random.default_rng(seed)
        n = 3
        params = SystemParams(n_users=n, zeta=1.0)
        ch = random_channels(n, rng)
        pa = power_allocation(ch, float(rng.uniform(-1, 1)))
        ids = rng.integers(0, 216, size=5)
        base = order_from_id(n, int(ids[0]))
        for oid in ids[1:]:
            other = order_from_id(n, int(oid))
            for u in range(1, n + 1):
                for m in range(1, n + 1):
                    a = sinr(base, ch, pa, params, u, m)
                    b = sinr(other, ch, pa, params, u, m)
                    assert a == pytest.approx(b, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_snr_and_residual_factor(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channels(3, rng)
        pa = power_allocation(ch, float(rng.uniform(-1, 1)))
        order = order_from_id(3, int(rng.integers(0, 216)))
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lo = sinr(order, ch, pa, SystemParams(n_users=3, pt_dbm=0.0, zeta=0.5), n, m)
        hi = sinr(order, ch, pa, SystemParams(n_users=3, pt_dbm=20.0, zeta=0.5), n, m)
        assert hi > lo
        tight = sinr(order, ch, pa, SystemParams(n_users=3, zeta=0.9), n, m)
        loose = sinr(order, ch, pa, SystemParams(n_users=3, zeta=0.1), n, m)
        assert loose >= tight


class TestSecrecyRates:
    def test_worked_instance_matches_oracle(self):
        rates = secrecy_rates(WORKED_ORDER, WORKED_CH, WORKED_ALPHA, WORKED_PARAMS)
        assert rates[0] == pytest.approx(ORACLE_RS1, abs=1e-6)
        assert rates[1] == pytest.approx(ORACLE_RS2, abs=1e-6)
        assert min(rates) == pytest.approx(ORACLE_RS2, abs=1e-6)

    @given(
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_conventional_order_secures_only_the_strongest(self, n, beta, seed):
        from untrusted_noma import conventional_order

        params = SystemParams(n_users=n)
        ch = random_channels(n, np.random.default_rng(seed))
        pa = power_allocation(ch, beta)
        rates = secrecy_rates(conventional_order(n), ch, pa, params)
        assert rates[0] > 0.0
        assert all(r == 0.0 for r in rates[1:])

    def test_allocation_of_another_user_count_rejected(self):
        three = ChannelRealization(distances_m=(1.0, 2.0, 3.0), gains=(4.0, 2.0, 1.0))
        order = order_from_id(3, 0)
        with pytest.raises(ValueError, match="disagree on the user count"):
            secrecy_rates(order, three, WORKED_ALPHA, SystemParams(n_users=3))

    def test_single_user_keeps_own_rate(self):
        order = DecodingOrder(columns=((1,),))
        ch = ChannelRealization(distances_m=(10.0,), gains=(0.5,))
        pa = PowerAllocation(alphas=(1.0,), beta=0.0)
        rates = secrecy_rates(order, ch, pa, SystemParams(n_users=1))
        assert len(rates) == 1 and rates[0] > 0.0

    def test_rates_finite_and_clamped(self):
        rng = np.random.default_rng(5)
        params = SystemParams(n_users=4)
        ch = sample_channels(params, 5)
        pa = power_allocation(ch, -0.7)
        order = order_from_id(4, int(rng.integers(0, 331776)))
        rates = secrecy_rates(order, ch, pa, params)
        assert len(rates) == 4
        assert all(r >= 0.0 and math.isfinite(r) for r in rates)


def floats(values) -> bool:
    """Whether ``values`` is a tuple of Python floats."""
    return type(values) is tuple and all(type(v) is float for v in values)


class TestStoredForm:
    """A value built from lists or arrays stores what the one built from
    tuples stores: it is equal and hash-equal to it, every reader sees
    tuples and floats, and a later change to the caller's list leaves it
    as it was checked."""

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64], ids=["float64", "float32", "int64"]
    )
    def test_params_store_floats(self, dtype):
        # every value is exact in each dtype
        values = (10, -90, 0, 400, 2, 3, 1)
        given = SystemParams(np.int64(2), *np.array(values, dtype=dtype))
        want = SystemParams(2, *map(float, values))
        assert given == want and hash(given) == hash(want)
        assert [type(getattr(given, f.name)) for f in fields(given)] == [int] + [float] * 7

    @pytest.mark.parametrize("seq", [list, np.array], ids=["list", "ndarray"])
    def test_channels_store_tuples_of_floats(self, seq):
        distances, gains = seq([1.0, 2.0]), seq([4.0, 1.0])
        given = ChannelRealization(distances_m=distances, gains=gains)
        assert given == WORKED_CH and hash(given) == hash(WORKED_CH)
        assert floats(given.distances_m) and floats(given.gains)
        # the caller's gains now ascend, which the check refuses
        gains[:] = seq([1.0, 4.0])
        assert given == WORKED_CH
        schemes, params = ("policy-LPWU",), SystemParams(n_users=2)
        assert sweep_all(schemes, (0.0,), given, params) == sweep_all(
            schemes, (0.0,), WORKED_CH, params
        )

    @pytest.mark.parametrize("seq", [list, np.array], ids=["list", "ndarray"])
    def test_allocations_store_tuples_of_floats(self, seq):
        alphas = seq([0.2, 0.8])
        given = PowerAllocation(alphas=alphas, beta=np.float64(0.0))
        assert given == WORKED_ALPHA and hash(given) == hash(WORKED_ALPHA)
        assert floats(given.alphas) and type(given.beta) is float
        alphas[0] = -3.0
        assert given == WORKED_ALPHA
        assert secrecy_rates(WORKED_ORDER, WORKED_CH, given, WORKED_PARAMS) == secrecy_rates(
            WORKED_ORDER, WORKED_CH, WORKED_ALPHA, WORKED_PARAMS
        )
        allocated = power_allocation(WORKED_CH, np.float64(1.0))
        assert floats(allocated.alphas) and type(allocated.beta) is float

    @pytest.mark.parametrize(
        "build", [lambda: [[2, 1], [1, 2]], lambda: np.array([[2, 1], [1, 2]])],
        ids=["list", "ndarray"],
    )
    def test_orders_store_tuples_of_tuples(self, build):
        columns = build()
        given = DecodingOrder(columns=columns)
        assert given == WORKED_ORDER and hash(given) == hash(WORKED_ORDER)
        assert type(given.columns) is tuple and {type(c) for c in given.columns} == {tuple}
        columns[0][0], columns[0][1] = 1, 2
        assert given == WORKED_ORDER and is_secure(given)
        args = WORKED_CH, WORKED_ALPHA, WORKED_PARAMS
        assert secrecy_rates(given, *args) == secrecy_rates(WORKED_ORDER, *args)
        assert max_min_order([given], *args) == max_min_order([WORKED_ORDER], *args)
