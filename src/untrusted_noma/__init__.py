"""Secrecy-rate simulator and decoding-order search toolkit for downlink
NOMA cells where every user is a potential eavesdropper on every other."""

from .orders import (
    ENUMERATION_CAP,
    DecodingOrder,
    conventional_order,
    count_secure,
    enumerate_orders,
    favourable_orders,
    is_favourable,
    is_secure,
    order_from_id,
    order_id,
    policy_order,
    policy_order_lpsu,
    policy_order_lpwu,
    secure_orders,
    self_last_transform,
    total_orders,
)
from .system import (
    ChannelRealization,
    PowerAllocation,
    SystemParams,
    dbm_to_mw,
    draw_gains,
    power_allocation,
    sample_channels,
)
from .optimizer import (
    SCHEMES,
    SearchOutcome,
    benchmark_average,
    max_min_order,
    secrecy_rates,
    sinr,
)
from .experiments import (
    DEFAULT_BETA_GRID,
    ExperimentConfig,
    GainRow,
    ResultRecord,
    derive_trial_seed,
    export,
    gain_vs_users,
    run_experiment,
    sweep_all,
)

__version__ = "0.1.0"
