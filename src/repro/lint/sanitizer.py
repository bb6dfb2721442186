"""Runtime float-construction trap for exact LP regions.

With ``REPRO_SANITIZE=1``, entering an :func:`exact_region` replaces
``builtins.float`` with a trap whose *construction* raises
:class:`ExactnessViolation` naming the offending call site, while
``isinstance(x, float)`` / ``issubclass(cls, float)`` keep answering
against the real ``float`` type.  :func:`float_stage` re-opens the
declared float warm-start boundary inside a region (the HiGHS
candidate basis of :mod:`repro.lp.certify`).  Without the environment
switch both context managers are no-ops costing one dict lookup.

Scope and caveats:

- Only *name lookups* of ``float`` are intercepted.  C-level float
  arithmetic (and e.g. ``json``'s float parsing) is untouched — the
  trap targets exactly the failure mode the static checker polices,
  a ``float(...)`` cast reached from an exact solve.
- The trap swaps a process-wide builtin, so regions are meaningful
  per process (workers inherit ``REPRO_SANITIZE`` through the
  environment and arm their own regions).  It is not thread-safe;
  the exact solvers run on one thread per process.
"""

from __future__ import annotations

import builtins
import os
import sys

SANITIZE_ENV = "REPRO_SANITIZE"

_REAL_FLOAT = float


class ExactnessViolation(AssertionError):
    """A float was constructed inside an exact LP region."""


def sanitizer_enabled() -> bool:
    """True iff ``REPRO_SANITIZE`` is set to a non-empty, non-zero
    value (checked dynamically, so tests can flip it per case)."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


#: regions: labels of active exact regions (stack); suspended: nesting
#: depth of float_stage escapes.  The trap is armed iff regions is
#: non-empty and suspended == 0.
_STATE = {"regions": [], "suspended": 0}


def _call_site() -> str:
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - the caller always has a frame
        return "<unknown>"
    return (f"{frame.f_code.co_filename}:{frame.f_lineno} "
            f"in {frame.f_code.co_name}")


class _FloatTrapMeta(type):
    def __instancecheck__(cls, instance) -> bool:
        return isinstance(instance, _REAL_FLOAT)

    def __subclasscheck__(cls, subclass) -> bool:
        return issubclass(subclass, _REAL_FLOAT)

    def __call__(cls, *args, **kwargs):
        region = _STATE["regions"][-1] if _STATE["regions"] else "<?>"
        shown = ", ".join(repr(a) for a in args[:3])
        raise ExactnessViolation(
            f"float({shown}) constructed inside exact region "
            f"{region!r} at {_call_site()}; exact LP paths must stay on "
            "Fraction (wrap a declared float stage in float_stage())"
        )


class _FloatTrap(metaclass=_FloatTrapMeta):
    """Stand-in bound to ``builtins.float`` while a region is armed."""


def _arm() -> None:
    builtins.float = _FloatTrap


def _disarm() -> None:
    builtins.float = _REAL_FLOAT


class exact_region:
    """Context manager marking an exact LP solve; a no-op while
    ``REPRO_SANITIZE`` is unset."""

    __slots__ = ("label", "active")

    def __init__(self, label: str):
        self.label = label
        self.active = sanitizer_enabled()

    def __enter__(self) -> "exact_region":
        if self.active:
            _STATE["regions"].append(self.label)
            if len(_STATE["regions"]) == 1 and not _STATE["suspended"]:
                _arm()
        return self

    def __exit__(self, *exc) -> bool:
        if self.active:
            _STATE["regions"].pop()
            if not _STATE["regions"]:
                _disarm()
        return False


class float_stage:
    """Re-open the declared float warm-start boundary inside an exact
    region (no-op outside one).  Must wrap *complete* float-stage
    calls, never a generator that suspends mid-stage."""

    __slots__ = ("label", "_suspending")

    def __init__(self, label: str = "float-stage"):
        self.label = label
        self._suspending = False

    def __enter__(self) -> "float_stage":
        if _STATE["regions"]:
            self._suspending = True
            _STATE["suspended"] += 1
            if _STATE["suspended"] == 1:
                _disarm()
        return self

    def __exit__(self, *exc) -> bool:
        if self._suspending:
            self._suspending = False
            _STATE["suspended"] -= 1
            if not _STATE["suspended"] and _STATE["regions"]:
                _arm()
        return False


def exact_method(label: str):
    """Decorator wrapping a method in an :class:`exact_region`."""
    import functools

    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            with exact_region(label):
                return method(self, *args, **kwargs)
        return wrapper
    return decorate


def _reset() -> None:
    """Restore the real builtin unconditionally (test teardown)."""
    _STATE["regions"].clear()
    _STATE["suspended"] = 0
    _disarm()
