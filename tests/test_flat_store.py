"""Tests for the columnar backend's selector (``resolve_store`` /
``REPRO_STORE``)."""

import pytest

pytest.importorskip("numpy")

from repro.core import flat_store
from repro.core.flat_store import resolve_store


class TestResolveStore:
    def test_default_is_tuple(self, monkeypatch):
        monkeypatch.delenv(flat_store.STORE_ENV, raising=False)
        assert resolve_store(None) == "tuple"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(flat_store.STORE_ENV, "flat")
        assert resolve_store("tuple") == "tuple"
        assert resolve_store(None) == "flat"

    def test_unknown_store_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_store("columnar")
        monkeypatch.setenv(flat_store.STORE_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_store(None)
