"""Selection between the compiled kernel and the pure-Python path.

The kernel serves sampling (`sample_outputs`, through `fast()`) and stream-key
derivation (its `fold` and `uniform_at` twins, which every stream key and
uniform draw go through). `use_backend` is the only place that selects a
backend, and it resolves the selection once: it stores the kernel module, or
None for the pure path, which `fast()` and `active_backend()` then read, and
it binds `core._fold` and `core._uniform_at` from the same module, or to
core's own pure functions.

The compiled module is optional; when it failed to build (or is disabled via
SMOOTHMAS_BACKEND=pure) callers get None from `fast()` and run the generic
Python implementation instead. Both paths are bit-identical by contract and
tested as such.

SMOOTHMAS_BACKEND selects the backend at import, under the same rules as
`use_backend`: an unknown name, or 'fast' without a built kernel, raises.
"""

from __future__ import annotations

import os

from .. import core

try:
    from . import _fast
except ImportError:  # pragma: no cover - depends on build environment
    _fast = None  # type: ignore[assignment]

_VALID = ("auto", "fast", "pure")
_selected = None


def use_backend(mode: str) -> None:
    """Select 'fast' or 'pure', or 'auto' (the kernel when it is built).

    Raises, leaving the selection unchanged, on an unknown name or on 'fast'
    without a built kernel."""
    if mode not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}, got {mode!r}")
    if mode == "fast" and _fast is None:
        raise RuntimeError(
            "backend 'fast' needs the compiled kernel, which is not available "
            "in this build; use 'auto' or 'pure'"
        )
    global _selected
    _selected = None if mode == "pure" else _fast
    twins = core if _selected is None else _selected
    core._fold = twins.fold
    core._uniform_at = twins.uniform_at


def active_backend() -> str:
    return "pure" if _selected is None else "fast"


def fast():
    """The compiled module, or None when the pure path should be used."""
    return _selected


use_backend(os.environ.get("SMOOTHMAS_BACKEND", "auto"))
