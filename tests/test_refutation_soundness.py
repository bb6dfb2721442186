"""Refutation is a proof (Theorem 4.3), so it must never refute a true
threshold.

Each Table 1 pair's known tight value is a threshold, so refuting it
must fail on every pair, with the pair's own configuration and the
default ``lp_backend``: the best certified gap is an exact ``Fraction``
no larger than the tight value.  A refutation decided on a float
optimum refuted five of these (``ex6`` at a gap of
99.00000000000001 > 99).  ``nested`` (d = K = 3) is left out: its
refutation LP takes minutes.
"""

from fractions import Fraction

import pytest

from repro.bench.suite import SUITE, load_pair
from repro.core import refute_threshold

CHECKED = [pair for pair in SUITE if pair.name != "nested"]


@pytest.mark.parametrize("pair", CHECKED, ids=[p.name for p in CHECKED])
def test_tight_value_is_not_refuted(pair):
    old, new = load_pair(pair.name)
    result = refute_threshold(old, new, pair.tight, pair.config())
    assert not result.is_refuted, result
    gap = result.guaranteed_difference
    assert isinstance(gap, Fraction), gap
    assert gap <= pair.tight


@pytest.mark.parametrize("backend", ["scipy", "exact", "exact-warm"])
def test_gap_is_exact_whatever_the_backend(backend):
    pair = next(p for p in SUITE if p.name == "ex6")
    old, new = load_pair("ex6")
    result = refute_threshold(old, new, pair.tight, pair.config(backend))
    assert not result.is_refuted
    assert result.guaranteed_difference == pair.tight
    assert isinstance(result.guaranteed_difference, Fraction)
