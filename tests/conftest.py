"""Shared test helpers: the kernel skip rule and backend restoration."""

from __future__ import annotations

import os

import pytest

from smoothmas import _kernels

# With SMOOTHMAS_REQUIRE_FAST=1 these tests run even when the kernel is
# missing, and then fail instead of skipping.
needs_fast = pytest.mark.skipif(
    _kernels._fast is None and os.environ.get("SMOOTHMAS_REQUIRE_FAST") != "1",
    reason="compiled kernel not available in this build",
)


@pytest.fixture
def restore_backend():
    """Reselect 'auto' after the test. A test that also patches the kernel
    module asks for this fixture before monkeypatch, so that the kernel is
    restored first and 'auto' then selects it again."""
    yield
    _kernels.use_backend("auto")
