import pytest

from untrusted_noma import optimizer, text


@pytest.fixture
def blocks_of(monkeypatch):
    """Set the kernel's block bound so that a kernel call of the given
    request holds ``trials`` trials: a test then crosses call boundaries
    with a few trials at any user count, as at N = 4, where a call holds
    three."""

    def set_block(trials, schemes, n_users, n_betas):
        floats = optimizer._cell_floats(schemes, n_users) * n_betas
        monkeypatch.setattr(optimizer, "_BLOCK_FLOATS", trials * floats)
        assert optimizer._trials_per_block(schemes, n_users, n_betas) == trials

    return set_block


@pytest.fixture
def batches_of(monkeypatch):
    """Set the write bound so that a write batch of records with ``width``
    rates holds ``rows`` rows: a block of a run at N = ``width`` then holds
    the trials of as many kernel calls as fit in ``rows`` records, and one
    call's at least, and draws their channels at once."""

    def set_batch(rows, width):
        monkeypatch.setattr(text, "_WRITE_BYTES", rows * text._SLOT_BYTES * (width + 4))
        assert text._batch_rows(width) == rows

    return set_batch
