"""repro — Differential cost analysis with simultaneous potentials and
anti-potentials.

A from-scratch reproduction of Žikelić, Chang, Bolignano & Raimondi,
*"Differential Cost Analysis with Simultaneous Potentials and
Anti-potentials"* (PLDI 2022), including every substrate the paper's
prototype depended on: an imperative frontend, transition systems with a
concrete interpreter, affine invariant generation, Handelman-based
constraint conversion and LP solving.

Quick start::

    from repro import load_program, analyze_diffcost

    old = load_program(OLD_SOURCE, name="join_old")
    new = load_program(NEW_SOURCE, name="join_new")
    result = analyze_diffcost(old, new)
    print(result.threshold_display)
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module it is read from.  Nothing beyond this file
#: loads until a name is first used, so a process that only keys jobs
#: or replays cached results never imports the analysis or its solvers.
_EXPORTS = {
    "AnalysisConfig": "repro.config",
    "ReproError": "repro.errors",
    "load_program": "repro.lang",
    "parse_program": "repro.lang",
    "AnalysisStatus": "repro.core",
    "DiffCostAnalyzer": "repro.core",
    "DiffCostResult": "repro.core",
    "BoundProofResult": "repro.core",
    "RefutationResult": "repro.core",
    "SingleProgramResult": "repro.core",
    "PotentialFunction": "repro.core",
    "CertificateChecker": "repro.core",
    "analyze_diffcost": "repro.core",
    "analyze_single_program": "repro.core",
    "naive_diffcost": "repro.core",
    "prove_symbolic_bound": "repro.core",
    "refute_threshold": "repro.core",
    "find_difference_witness": "repro.core",
    "Polynomial": "repro.poly",
    "parse_polynomial": "repro.poly",
    "TransitionSystem": "repro.ts",
    "Interpreter": "repro.ts",
    "CostSearch": "repro.ts",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
