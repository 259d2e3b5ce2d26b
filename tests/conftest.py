"""Shared test set-up."""

import pytest

from noisestab import bounds, sweeps


@pytest.fixture(autouse=True)
def _fresh_memos(monkeypatch):
    # the one-entry memos of the sweep families and of Gamma start empty in
    # every test, so that no verdict depends on the tests run before it
    monkeypatch.setattr(sweeps, "_last_family", None)
    monkeypatch.setattr(bounds, "_last_gamma", None)
