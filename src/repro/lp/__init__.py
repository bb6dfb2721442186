"""Linear-programming layer.

The synthesis algorithm reduces to a single LP instance (paper Step 4).
This package provides a solver-independent :class:`LPModel` plus a
fixed table of interchangeable backends:

- :class:`ScipyBackend` (``scipy``) — floating-point,
  ``scipy.optimize.linprog`` with the HiGHS method (the stand-in for
  the paper's Gurobi);
- :class:`RevisedSimplexBackend` (``exact``) — sparse revised simplex
  over exact rationals (Dantzig pricing, Bland fallback; reduced costs
  priced once per phase and kept across pivots by pivot-row updates);
- :class:`WarmStartExactBackend` (``exact-warm``) — HiGHS warm start
  whose candidate basis is refactorized and certified — or repaired —
  in exact arithmetic.

scipy (with numpy) is a required dependency: it is both the default
backend and the nominator of every ``exact-warm`` basis.  All sparse
exact solvers share one exact-only basis kernel
(:class:`~repro.lp.basis.BasisFactorization`: sparse LU + eta-file
updates with periodic refactorization), one pricing scheme (the kept
reduced costs of :mod:`repro.lp.revised`) and one dual simplex
(:mod:`repro.lp.dual`).  :class:`~repro.lp.dual.IncrementalLP` exposes
them as an incremental re-solve API — one standardization and (mostly)
one factorization across many objectives or bound tweaks — used by the
threshold-refutation loop and the diffcost threshold search.
"""

from repro.lp.model import Constraint, LPModel, Objective
from repro.lp.solution import LPSolution, LPStatus
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.basis import BasisFactorization
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.dual import IncrementalLP, exact_dual_feasible, run_dual_simplex
from repro.lp.certify import WarmStartExactBackend
from repro.lp.standard import SparseStandardForm, standardize
from repro.lp.backend import (
    LP_SOLVER_REVISION,
    LPBackend,
    available_backends,
    backend_is_exact,
    get_backend,
)

__all__ = [
    "Constraint",
    "LPModel",
    "Objective",
    "LPSolution",
    "LPStatus",
    "LPBackend",
    "LP_SOLVER_REVISION",
    "ScipyBackend",
    "RevisedSimplexBackend",
    "WarmStartExactBackend",
    "BasisFactorization",
    "IncrementalLP",
    "run_dual_simplex",
    "exact_dual_feasible",
    "SparseStandardForm",
    "standardize",
    "available_backends",
    "backend_is_exact",
    "get_backend",
]
