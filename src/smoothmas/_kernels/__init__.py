"""Selection between the compiled kernel and the pure-Python path.

The kernel serves sampling (`sample_outputs`, through `fast()`) and stream-key
derivation: `use_backend` binds `core._fold` and `core._uniform_at`, which
every stream key and uniform draw go through, to the kernel's `fold` and
`uniform_at` twins when the fast backend is active, and to core's own pure
functions otherwise. It is the only place that selects a backend.

The compiled module is optional; when it failed to build (or is disabled via
SMOOTHMAS_BACKEND=pure) callers get None from `fast()` and run the generic
Python implementation instead. Both paths are bit-identical by contract and
tested as such.

SMOOTHMAS_BACKEND selects the mode at import, under the same rules as
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
_mode = "auto"


def use_backend(mode: str) -> None:
    """Force 'fast' or 'pure', or restore 'auto'. Raises if 'fast' is absent."""
    if mode not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}, got {mode!r}")
    if mode == "fast" and _fast is None:
        raise RuntimeError(
            "backend 'fast' needs the compiled kernel, which is not available "
            "in this build; use 'auto' or 'pure'"
        )
    global _mode
    _mode = mode
    twins = _fast if active_backend() == "fast" else core
    core._fold = twins.fold
    core._uniform_at = twins.uniform_at


def active_backend() -> str:
    if _mode == "pure" or _fast is None:
        return "pure"
    return "fast"


def fast():
    """The compiled module, or None when the pure path should be used."""
    return _fast if active_backend() == "fast" else None


use_backend(os.environ.get("SMOOTHMAS_BACKEND", "auto"))
