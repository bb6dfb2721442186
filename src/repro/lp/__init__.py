"""Linear-programming layer.

The synthesis algorithm reduces to a single LP instance (paper Step 4).
This package provides a solver-independent :class:`~repro.lp.model.LPModel`
plus a fixed table of interchangeable backends
(:mod:`repro.lp.backend`):

- :class:`~repro.lp.scipy_backend.ScipyBackend` (``scipy``) —
  floating-point, ``scipy.optimize.linprog`` with the HiGHS method (the
  stand-in for the paper's Gurobi);
- :class:`~repro.lp.revised.RevisedSimplexBackend` (``exact``) — sparse
  revised simplex over exact rationals (Dantzig pricing, Bland
  fallback; reduced costs priced once per phase and kept across pivots
  by pivot-row updates);
- :class:`~repro.lp.certify.WarmStartExactBackend` (``exact-warm``) —
  HiGHS warm start whose candidate basis is refactorized and certified
  — or repaired — in exact arithmetic.

scipy (with numpy) is still a required dependency: it is both the
default backend and the nominator of every ``exact-warm`` basis.  It
loads at the first solve: this package imports none of its modules,
so config validation and job keys, which read only
:mod:`repro.lp.backend`, load neither.  All sparse
exact solvers share one exact-only basis kernel
(:class:`~repro.lp.basis.BasisFactorization`: sparse LU + eta-file
updates with periodic refactorization), one pricing scheme (the kept
reduced costs of :mod:`repro.lp.revised`) and one dual simplex
(:mod:`repro.lp.dual`).  :class:`~repro.lp.dual.IncrementalLP` exposes
them as an incremental re-solve API — one standardization and (mostly)
one factorization across many objectives or bound tweaks — used by the
threshold-refutation loop and the diffcost threshold search.
"""
