import pytest

from untrusted_noma import optimizer


@pytest.fixture
def blocks_of(monkeypatch):
    """Set the kernel's block bound so that a block of the given request
    holds ``trials`` trials: a test then crosses block boundaries with a
    few trials at any user count, as at N = 4, where a block holds three."""

    def set_block(trials, schemes, n_users, n_betas):
        floats = optimizer._cell_floats(schemes, n_users) * n_betas
        monkeypatch.setattr(optimizer, "_BLOCK_FLOATS", trials * floats)
        assert optimizer._trials_per_block(schemes, n_users, n_betas) == trials

    return set_block
