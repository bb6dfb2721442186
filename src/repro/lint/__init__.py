"""Repo-native static analysis and runtime sanitizers (``repro.lint``).

The reproduction rests on contracts that ordinary tests only check
after the fact: bit-identical ``Fraction`` thresholds from the exact LP
core, content-addressed cache keys, byte-identical shard merges, and
fork-safe worker code.  This package enforces them *before* the fact:

- :mod:`repro.lint.engine` — AST-based analyzer (stdlib ``ast``, no
  dependencies) with three checker families driven by the
  module-contract registry in :mod:`repro.lint.contracts`:

  * **float-taint** (:mod:`repro.lint.floats`) — no float arithmetic
    leaking into declared-exact modules;
  * **determinism** (:mod:`repro.lint.determinism`) — no
    order-unstable iteration or volatile values in canonical-output /
    cache-key producing functions;
  * **fork-safety** (:mod:`repro.lint.forksafety`) — no mutable
    module globals written from worker-reachable code, no stray
    ``signal.signal`` registrations.

  Findings are suppressed line- or function-wide with
  ``# lint: allow[<family-or-rule>]`` pragmas
  (:mod:`repro.lint.pragmas`), and a ``--baseline`` file supports
  ratchet-style adoption.  Exposed as ``repro-diffcost lint``.

- :mod:`repro.lint.sanitizer` — the runtime companion: with
  ``REPRO_SANITIZE=1``, :func:`~repro.lint.sanitizer.exact_region`
  traps any ``float(...)`` construction inside exact LP solves and
  raises :class:`~repro.lint.sanitizer.ExactnessViolation` with the
  offending call site, while
  :func:`~repro.lint.sanitizer.float_stage` re-opens the declared
  float warm-start boundary: the HiGHS candidate basis in
  :mod:`repro.lp.certify`, the only float stage of the exact LP path.
"""
