"""Tests of the benchmark suite itself: loading, ground-truth tightness
on shrunk boxes, and end-to-end shape on a fast subset.

The "Tight" column of Table 1 is determined analytically for each
reconstructed pair; here the exhaustive interpreter verifies the same
formulas on shrunk input boxes (full 100-wide boxes would be too slow to
enumerate), which validates the calibration.
"""

import pytest

from repro.bench import (
    SUITE,
    format_table,
    get_pair,
    load_pair,
    run_pair,
)
from repro.ts import CostSearch

SMALL = list(range(1, 5))


def max_diff(old_system, new_system, boxes: dict[str, list[int]]) -> int:
    """Exhaustive max of CostSup_new - CostInf_old over small boxes."""
    old_search = CostSearch(old_system)
    new_search = CostSearch(new_system)
    names = sorted(boxes)
    best = None

    def rec(index, assignment):
        nonlocal best
        if index == len(names):
            old_inputs = {v: assignment.get(v, 0)
                          for v in old_system.state_variables}
            new_inputs = {v: assignment.get(v, 0)
                          for v in new_system.state_variables}
            from repro.ts.guards import all_hold

            probe = dict(old_inputs)
            probe.update(new_inputs)
            probe["cost"] = 0
            if not all_hold(old_system.init_constraint, probe):
                return
            old_inf, _ = old_search.cost_bounds(old_inputs)
            _, new_sup = new_search.cost_bounds(new_inputs)
            diff = new_sup - old_inf
            best = diff if best is None else max(best, diff)
            return
        for value in boxes[names[index]]:
            assignment[names[index]] = value
            rec(index + 1, assignment)

    rec(0, {})
    assert best is not None
    return best


class TestSuiteRegistry:
    def test_twenty_entries(self):
        assert len(SUITE) == 20  # 19 Table 1 rows + the Fig. 1 example

    def test_all_pairs_load_and_validate(self):
        for pair in SUITE:
            old, new = load_pair(pair.name)
            assert old.system.name == f"{pair.name}_old"
            assert new.system.name == f"{pair.name}_new"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_pair("no_such_benchmark")

    def test_nested_uses_cubic_templates(self):
        pair = get_pair("nested")
        assert pair.degree == 3 and pair.max_products == 3


# Ground-truth formulas for the tight threshold of each reconstructed
# pair, as a function of the (shrunk) input box maxima; at the full
# [1, 100] boxes they give the ``tight`` field of repro.bench.suite.
@pytest.mark.parametrize("name,formula", [
    ("join", lambda hi: hi * hi),
    ("simple_single", lambda hi: hi),
    ("simple_multiple", lambda hi: hi),
    ("sequential_single", lambda hi: hi),
    ("nested_single", lambda hi: hi + 1),
    ("nested_multiple", lambda hi: hi),
    ("nested_multiple_dep", lambda hi: hi * (hi - 1)),
    ("simple_multiple_dep", lambda hi: hi * hi),
    ("dis1", lambda hi: hi),
    ("ex2", lambda hi: hi - 1),
    ("ex4", lambda hi: 2 * hi + 1),
    ("ex6", lambda hi: hi - 1),
    ("ddec", lambda hi: 0),
    ("ddec_modified", lambda hi: 0),
    ("sum", lambda hi: 0),
])
def test_tight_formula_on_shrunk_box(name, formula):
    old, new = load_pair(name)
    params = load_pair(name)[0].params
    boxes = {param: SMALL for param in params}
    observed = max_diff(old.system, new.system, boxes)
    assert observed == formula(max(SMALL))


def test_dis2_tight_formula():
    old, new = load_pair("dis2")
    boxes = {"a": [0, 1, 2, 3], "b": [1, 2, 3, 4]}
    assert max_diff(old.system, new.system, boxes) == 4  # max(b - a)


def test_ex5_ex7_tight_on_small_inputs():
    # ex5: diff = min(n, 100) -> equals n for n <= 4.
    old, new = load_pair("ex5")
    assert max_diff(old.system, new.system, {"n": SMALL}) == max(SMALL)
    # ex7: diff = min(n, 1) = 1.
    old, new = load_pair("ex7")
    assert max_diff(old.system, new.system, {"n": SMALL}) == 1


def test_nested_zero_diff_on_small_inputs():
    old, new = load_pair("nested")
    boxes = {"n": [1, 2], "m": [1, 2], "p": [1, 2]}
    assert max_diff(old.system, new.system, boxes) == 0


class TestEndToEndSubset:
    @pytest.mark.parametrize("name", ["simple_single", "ex4", "dis2"])
    def test_fast_rows_tight(self, name):
        outcome = run_pair(get_pair(name))
        assert outcome.is_tight
        assert outcome.matches_paper_shape

    def test_expected_failure_rows(self):
        outcome = run_pair(get_pair("ex7"))
        assert outcome.computed is None
        assert outcome.matches_paper_shape

    def test_formatting(self):
        outcome = run_pair(get_pair("ex4"))
        table = format_table([outcome])
        assert "ex4" in table and "201" in table
