"""The refutation loop against its per-witness cold reference, and the
threshold search (the ``IncrementalLP`` consumers).

The one-encoding loop must be a pure performance change: bit-identical
``Fraction`` gaps, the same best witness, valid certificates — with
measurably fewer exact factorizations than
:func:`repro.bench.perf.refute_per_witness` (one cold solve per
witness), asserted through the solver stats that ``BENCH_lp.json``
tracks.
"""

from fractions import Fraction

import pytest

import repro.core.refutation as refutation
from repro import AnalysisConfig, load_program
from repro.bench.perf import refute_per_witness
from repro.bench.suite import SUITE, load_pair
from repro.core import DiffCostAnalyzer, analyze_diffcost, refute_threshold
from repro.core.refutation import default_witnesses
from repro.errors import AnalysisError
from repro.invariants.polyhedron import Polyhedron


@pytest.fixture(scope="module")
def dis2_pair():
    return load_pair("dis2")


@pytest.fixture(scope="module")
def dis2_config():
    pair = next(p for p in SUITE if p.name == "dis2")
    return pair.config("exact-warm")


class TestIncrementalRefutationEquivalence:
    @pytest.fixture(scope="class")
    def both_runs(self, dis2_pair, dis2_config):
        old, new = dis2_pair
        incremental = refute_threshold(old, new, 0, dis2_config)
        cold = refute_per_witness(old, new, 0, dis2_config)
        return incremental, cold

    def test_gap_and_witness_bit_identical(self, both_runs):
        incremental, cold = both_runs
        assert incremental.status == cold.status
        assert isinstance(incremental.guaranteed_difference, Fraction)
        assert incremental.guaranteed_difference == cold.guaranteed_difference
        assert incremental.witness_input == cold.witness_input

    def test_certificates_certify_the_gap(self, both_runs):
        # The two paths may stop at different vertices of the optimal
        # face, so the certificates need not be syntactically equal —
        # but both must certify exactly the reported gap at the chosen
        # witness: chi(l0, w) - phi(l0, w) == gap.
        for result in both_runs:
            witness = result.witness_input
            chi = result.anti_potential_new.initial_value(witness)
            phi = result.potential_old.initial_value(witness)
            assert chi - phi == result.guaranteed_difference

    def test_incremental_does_fewer_factorizations(self, both_runs):
        incremental, cold = both_runs
        stats_inc, stats_cold = incremental.lp_stats, cold.lp_stats
        assert stats_inc["solves"] == stats_cold["solves"] >= 3
        # The reference solves every witness cold ...
        assert stats_cold["cold_solves"] == stats_cold["solves"]
        # ... the loop once, every further witness a basis re-solve.
        assert stats_inc["cold_solves"] == 1
        assert stats_inc["resolves"] == stats_inc["solves"] - 1
        # The headline: the eta-file re-solves amortize the exact
        # factorizations the cold reference pays per witness.
        assert 3 * stats_inc["factorizations"] <= stats_cold["factorizations"]

    def test_scipy_backend_shares_the_single_encoding(self, dis2_pair,
                                                      monkeypatch):
        # A scipy config changes nothing: the loop still encodes once
        # and re-solves every witness exactly, like the reference.
        old, new = dis2_pair
        encoded = []
        original = refutation.encode_implication

        def counting(constraint, *args):
            encoded.append(constraint)
            return original(constraint, *args)

        monkeypatch.setattr(refutation, "encode_implication", counting)
        result = refute_threshold(
            old, new, 0, AnalysisConfig(lp_backend="scipy")
        )
        assert result.is_refuted
        assert isinstance(result.guaranteed_difference, Fraction)
        assert result.lp_stats["solves"] >= 3
        assert result.lp_stats["cold_solves"] == 1
        # Each implication is encoded once, not once per witness.
        assert encoded and len(encoded) == len(set(map(id, encoded)))
        cold = refute_per_witness(
            old, new, 0, AnalysisConfig(lp_backend="scipy"),
        )
        assert cold.is_refuted
        assert cold.witness_input == result.witness_input
        assert cold.guaranteed_difference == result.guaranteed_difference


class TestRefutationWorkGuard:
    def test_join_certifies_each_witness_without_walking(self):
        # Deterministic work guard: HiGHS nominates each witness's
        # optimal basis and exact pricing certifies it, so the loop
        # does almost no exact pivots.  Walking the degenerate optimal
        # face from the first optimum took 874 pivots and 5
        # factorizations; the slack absorbs other HiGHS versions.
        pair = next(p for p in SUITE if p.name == "join")
        old, new = load_pair("join")
        result = refute_threshold(
            old, new, Fraction(pair.tight) - 1, pair.config("exact-warm")
        )
        stats = result.lp_stats
        assert stats["cold_solves"] == 1
        assert result.guaranteed_difference == 10000
        assert stats["pivots"] <= 50
        assert stats["factorizations"] <= 5
        # One HiGHS model serves all five witnesses: later ones only
        # change its costs.
        assert stats["float_models"] == 1


class TestWitnessDeduplication:
    def test_degenerate_box_yields_single_witness(self):
        source = """
        proc p(n) {
          assume(3 <= n && n <= 3);
          var i = 0;
          while (i < n) { tick(1); i = i + 1; }
        }
        """
        program = load_program(source, name="fixed")
        analyzer = DiffCostAnalyzer(program, program)
        theta0 = Polyhedron(analyzer.combined_theta0())
        witnesses = default_witnesses(
            analyzer.old_system, analyzer.new_system, theta0
        )
        # All corners and the center coincide on a point box: exactly
        # one candidate may survive per distinct point.
        keys = [tuple(sorted(w.items())) for w in witnesses]
        assert len(keys) == len(set(keys))
        distinct_n = {w["n"] for w in witnesses}
        assert distinct_n == {3}

    def test_partially_degenerate_box(self):
        source = """
        proc p(a, b) {
          assume(2 <= a && a <= 2);
          assume(0 <= b && b <= 4);
          var i = 0;
          while (i < b) { tick(a); i = i + 1; }
        }
        """
        program = load_program(source, name="half")
        analyzer = DiffCostAnalyzer(program, program)
        theta0 = Polyhedron(analyzer.combined_theta0())
        witnesses = default_witnesses(
            analyzer.old_system, analyzer.new_system, theta0
        )
        keys = [tuple(sorted(w.items())) for w in witnesses]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("assumption, loop, corners", [
        # Θ0 is 1/2 <= n <= 9/2: the integer corners are 1 and 4.
        ("1 <= 2 * n && 2 * n <= 9", "i < n", {1, 4}),
        # Θ0 is -9/2 <= n <= -1/2: the integer corners are -4 and -1.
        ("-9 <= 2 * n && 2 * n <= -1", "i < 0 - n", {-4, -1}),
    ])
    def test_fractional_bounds_round_inward(self, assumption, loop,
                                            corners):
        source = f"""
        proc p(n) {{
          assume({assumption});
          var i = 0;
          while ({loop}) {{ tick(1); i = i + 1; }}
        }}
        """
        program = load_program(source, name="fractional")
        analyzer = DiffCostAnalyzer(program, program)
        theta0 = Polyhedron(analyzer.combined_theta0())
        witnesses = default_witnesses(
            analyzer.old_system, analyzer.new_system, theta0
        )
        values = {w["n"] for w in witnesses}
        assert corners <= values
        # Corners plus the center, all inside Θ0.
        assert len(values) == 3
        assert all(theta0.contains_point(w) for w in witnesses)


class TestThresholdSearch:
    def test_probes_match_the_minimized_threshold(self, dis2_pair):
        old, new = dis2_pair
        analyzer = DiffCostAnalyzer(old, new, AnalysisConfig())
        reference = analyze_diffcost(
            old, new, AnalysisConfig(lp_backend="exact-warm")
        )
        assert reference.is_threshold
        threshold = reference.threshold
        search = analyzer.threshold_search(
            [threshold + 50, threshold, threshold - 1]
        )
        assert search.threshold == threshold
        assert search.feasible[Fraction(threshold) + 50] is True
        assert search.feasible[Fraction(threshold)] is True
        assert search.feasible[Fraction(threshold) - 1] is False
        assert search.tightest_feasible() == threshold
        # One encoding, one cold factorization; tighter caps ride the
        # dual simplex.
        assert search.lp_stats["cold_solves"] == 1
        assert search.lp_stats["dual_resolves"] >= 1

    def test_all_caps_below_threshold(self, dis2_pair):
        old, new = dis2_pair
        analyzer = DiffCostAnalyzer(old, new, AnalysisConfig())
        search = analyzer.threshold_search([1, 0])
        assert search.threshold is None
        assert search.feasible == {Fraction(1): False, Fraction(0): False}
        assert search.tightest_feasible() is None

    def test_requires_candidates(self, dis2_pair):
        old, new = dis2_pair
        analyzer = DiffCostAnalyzer(old, new, AnalysisConfig())
        with pytest.raises(AnalysisError, match="candidate"):
            analyzer.threshold_search([])
