"""Result dataclasses for the analysis entry points."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.potentials import PotentialFunction
from repro.poly.polynomial import Polynomial
from repro.utils.rationals import snap_to_int


class AnalysisStatus(enum.Enum):
    """Outcome of a synthesis attempt."""

    THRESHOLD = "threshold"    # a value / bound was synthesized
    PROVED = "proved"          # a given bound was verified
    REFUTED = "refuted"        # a candidate threshold was refuted
    UNKNOWN = "unknown"        # the LP was infeasible (paper's ✗)


@dataclass
class DiffCostResult:
    """Result of threshold synthesis for a program pair."""

    status: AnalysisStatus
    threshold: float | Fraction | None = None
    potential_new: PotentialFunction | None = None
    anti_potential_old: PotentialFunction | None = None
    lp_variables: int = 0
    lp_constraints: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    message: str = ""

    @property
    def is_threshold(self) -> bool:
        """True iff a threshold was computed."""
        return self.status is AnalysisStatus.THRESHOLD

    @property
    def threshold_display(self) -> float | int | Fraction | None:
        """Threshold snapped to an integer when numerically integral
        (for reporting, mirroring the paper's Table 1 values)."""
        if self.threshold is None:
            return None
        return snap_to_int(self.threshold)

    def __str__(self) -> str:
        if self.is_threshold:
            return f"threshold t = {self.threshold_display}"
        return f"{self.status.value}: {self.message}"


@dataclass
class BoundProofResult:
    """Result of proving a symbolic polynomial bound (Section 5)."""

    status: AnalysisStatus
    bound: Polynomial | None = None
    potential_new: PotentialFunction | None = None
    anti_potential_old: PotentialFunction | None = None
    message: str = ""
    #: Seconds per stage, as for threshold synthesis.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def is_proved(self) -> bool:
        """True iff the bound was verified."""
        return self.status is AnalysisStatus.PROVED


@dataclass
class RefutationResult:
    """Result of threshold refutation (Theorem 4.3)."""

    status: AnalysisStatus
    candidate: float | Fraction | None = None
    witness_input: dict[str, int] | None = None
    #: The best exactly certified gap over the witnesses.
    guaranteed_difference: Fraction | None = None
    anti_potential_new: PotentialFunction | None = None
    potential_old: PotentialFunction | None = None
    message: str = ""
    #: LP work done across the witness loop (solves, factorizations,
    #: eta/refactor counters) — what the perf harness compares against
    #: its per-witness cold reference.
    lp_stats: dict = field(default_factory=dict)
    #: Seconds per stage: ``invariants``, ``constraints``, ``encoding``
    #: and ``lp`` (the witness loop), as for threshold synthesis.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def is_refuted(self) -> bool:
        """True iff the candidate threshold was proven exceedable."""
        return self.status is AnalysisStatus.REFUTED

    def __str__(self) -> str:
        if self.is_refuted:
            return (
                f"t = {self.candidate} refuted: difference >= "
                f"{snap_to_int(self.guaranteed_difference)} on input "
                f"{self.witness_input}"
            )
        return f"{self.status.value}: {self.message}"


@dataclass
class SingleProgramResult:
    """Result of single-program bound synthesis with precision
    guarantees (Section 7, Theorem 7.1)."""

    status: AnalysisStatus
    precision: float | Fraction | None = None
    upper: PotentialFunction | None = None
    lower: PotentialFunction | None = None
    message: str = ""
    #: Seconds per stage, as for threshold synthesis (no
    #: ``invariants`` entry when the caller supplied the map).
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def is_bounded(self) -> bool:
        """True iff bounds with a precision guarantee were computed."""
        return self.status is AnalysisStatus.THRESHOLD

    def bounds_at(self, valuation: dict[str, int]) -> tuple[Fraction, Fraction]:
        """``(lower, upper)`` cost bounds for a concrete input."""
        assert self.lower is not None and self.upper is not None
        return (
            self.lower.initial_value(valuation),
            self.upper.initial_value(valuation),
        )

    def __str__(self) -> str:
        if self.is_bounded:
            return f"bounds with precision gap p = {snap_to_int(self.precision)}"
        return f"{self.status.value}: {self.message}"
