"""Backend protocol, backend table and solver revision for LP solvers.

The product ships a fixed set of backends:

- ``scipy`` — floating point, ``scipy.optimize.linprog`` (HiGHS);
- ``exact`` — sparse revised simplex over rationals;
- ``exact-warm`` — HiGHS warm start with exact rational certification.

:func:`get_backend` imports a backend's implementation module when the
backend is first instantiated.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Protocol

from repro.errors import LPError

if TYPE_CHECKING:
    from repro.lp.model import LPModel
    from repro.lp.solution import LPSolution

#: Bump whenever any backend's algorithm changes in a way that can
#: change its answers, pivot sequences or certificates.  The value is
#: part of every :class:`~repro.engine.jobs.AnalysisJob` cache key, so
#: results produced by an old solver are never replayed as if produced
#: by the new one.  Revision 4 nominates HiGHS's own optimal basis to
#: ``exact-warm`` (no Python crossover); revision 3 is the LU/eta basis
#: factorization, the dual simplex and the incremental refutation loop;
#: revision 2 was the sparse revised-simplex core; the seed dense-only
#: solver was 1.
LP_SOLVER_REVISION = 4


class LPBackend(Protocol):
    """Anything that can solve an :class:`LPModel`."""

    name: str

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model`` and report status, values and objective."""
        ...


#: name -> (implementation module, class, reports exact ``Fraction``s).
_BACKENDS: dict[str, tuple[str, str, bool]] = {
    "scipy": ("repro.lp.scipy_backend", "ScipyBackend", False),
    "exact": ("repro.lp.revised", "RevisedSimplexBackend", True),
    "exact-warm": ("repro.lp.certify", "WarmStartExactBackend", True),
}


def available_backends() -> tuple[str, ...]:
    """Backend names, in table order."""
    return tuple(_BACKENDS)


def backend_modules() -> tuple[str, ...]:
    """Each backend's implementation module, in table order."""
    return tuple(entry[0] for entry in _BACKENDS.values())


def backend_is_exact(name: str) -> bool:
    """True iff backend ``name`` reports exact ``Fraction`` values."""
    entry = _BACKENDS.get(name)
    return entry is not None and entry[2]


def get_backend(name: str) -> LPBackend:
    """Instantiate a backend by name."""
    entry = _BACKENDS.get(name)
    if entry is None:
        raise LPError(
            f"unknown LP backend {name!r}; available: "
            f"{sorted(_BACKENDS)}"
        )
    module, cls, _exact = entry
    return getattr(importlib.import_module(module), cls)()
