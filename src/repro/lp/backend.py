"""Backend protocol, registry and solver revision for LP solvers.

Backends register as named factories, so new solvers (portfolio rungs,
experimental pricing rules) plug in without touching consumers:

- ``scipy`` — floating point, ``scipy.optimize.linprog`` (HiGHS);
- ``exact`` — sparse revised simplex over rationals;
- ``exact-warm`` — HiGHS warm start with exact rational certification;
- ``exact-dense`` — the seed's dense tableau simplex (perf baseline and
  cross-check oracle).

Each factory imports its implementation module when first called.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import LPError
from repro.lp.model import LPModel
from repro.lp.solution import LPSolution

#: Bump whenever any backend's algorithm changes in a way that can
#: change its answers, pivot sequences or certificates.  The value is
#: part of every :class:`~repro.engine.jobs.AnalysisJob` cache key, so
#: results produced by an old solver are never replayed as if produced
#: by the new one.  Revision 3 is the LU/eta basis factorization, the
#: dual simplex and the incremental refutation loop; revision 2 was the
#: sparse revised-simplex core; the seed dense-only solver was 1.
LP_SOLVER_REVISION = 3


class LPBackend(Protocol):
    """Anything that can solve an :class:`LPModel`."""

    name: str

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model`` and report status, values and objective."""
        ...


_REGISTRY: dict[str, Callable[[], LPBackend]] = {}
_EXACT: set[str] = set()


def register_backend(name: str, factory: Callable[[], LPBackend], *,
                     exact: bool = False) -> None:
    """Register ``factory`` under ``name`` (re-registering overwrites).

    ``exact`` marks backends whose reported values are ``Fraction``
    (consumers use :func:`backend_is_exact` to decide whether results
    need rationalization).
    """
    _REGISTRY[name] = factory
    if exact:
        _EXACT.add(name)
    else:
        _EXACT.discard(name)


def _ensure_builtins() -> None:
    if _REGISTRY:
        return

    def scipy_factory() -> LPBackend:
        from repro.lp.scipy_backend import ScipyBackend
        return ScipyBackend()

    def exact_factory() -> LPBackend:
        from repro.lp.revised import RevisedSimplexBackend
        return RevisedSimplexBackend()

    def warm_factory() -> LPBackend:
        from repro.lp.certify import WarmStartExactBackend
        return WarmStartExactBackend()

    def dense_factory() -> LPBackend:
        from repro.lp.simplex import DenseSimplexBackend
        return DenseSimplexBackend()

    register_backend("scipy", scipy_factory)
    register_backend("exact", exact_factory, exact=True)
    register_backend("exact-warm", warm_factory, exact=True)
    register_backend("exact-dense", dense_factory, exact=True)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def backend_is_exact(name: str) -> bool:
    """True iff backend ``name`` reports exact ``Fraction`` values."""
    _ensure_builtins()
    return name in _EXACT


def get_backend(name: str) -> LPBackend:
    """Instantiate a backend by registered name."""
    _ensure_builtins()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise LPError(
            f"unknown LP backend {name!r}; available: "
            f"{sorted(_REGISTRY)}"
        )
    return factory()
