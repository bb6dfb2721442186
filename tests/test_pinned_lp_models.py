"""Every Table 1 pair's threshold LP, pinned byte for byte.

``pinned_lp_models.json`` maps each pair to the sha256 of
:func:`lp_model_digest` over ``repro.bench.perf.build_lp_model(name)``:
the LP a backend reads, down to variable order, row names and exact
coefficients. Any change to invariants, constraint collection or the
Handelman encoding that moves a column, a row or a coefficient fails
here, including on ``nested``'s 15,339-column model, which the
reference-encoder tests in ``test_handelman.py`` cannot afford.

Regenerate (only for a change meant to move models, and say which):
``PYTHONPATH=src python tests/test_pinned_lp_models.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.perf import build_lp_model
from repro.bench.suite import SUITE

PINS = Path(__file__).parent / "pinned_lp_models.json"


def lp_model_digest(model) -> str:
    """sha256 over variable names and bounds in declaration order, then
    each constraint's name, sense and exact coefficients, then the
    objective."""
    lines = ["var {} {} {}".format(name, *model.bounds(name))
             for name in model.variable_names]

    def terms(expr) -> str:
        body = " ".join(f"{symbol}:{coeff}"
                        for symbol, coeff in expr.coefficients())
        return f"{body} | {expr.constant_term}"

    lines.extend(f"row {row.name} {row.sense} {terms(row.expr)}"
                 for row in model.constraints)
    objective = model.objective
    lines.append("objective " + ("none" if objective is None
                                 else terms(objective.expr)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", [pair.name for pair in SUITE])
def test_table1_lp_model_is_pinned(name):
    pins = json.loads(PINS.read_text())
    assert lp_model_digest(build_lp_model(name)) == pins[name]


def test_every_pair_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(
        pair.name for pair in SUITE)


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {pair.name: lp_model_digest(build_lp_model(pair.name))
         for pair in SUITE}, indent=1, sort_keys=True) + "\n")
