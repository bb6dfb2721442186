"""Farkas'-lemma encoding: the affine special case of Handelman.

When the consequent is affine (template degree 1), products of more than
one premise inequality can never help match monomials of degree ≥ 2
unless they cancel; the classical Farkas encoding (``K = 1``) is then
complete over nonempty polyhedra.  Exposed as the named ``K = 1`` case
of :func:`~repro.handelman.encode.encode_implication`.
"""

from __future__ import annotations

from repro.handelman.encode import (
    EncodingStats,
    ImplicationConstraint,
    encode_implication,
)
from repro.lp.model import LPModel
from repro.utils.naming import FreshNameGenerator


def encode_affine_implication(constraint: ImplicationConstraint,
                              model: LPModel,
                              fresh: FreshNameGenerator) -> EncodingStats:
    """Encode with products of at most one premise inequality."""
    return encode_implication(constraint, model, fresh, max_factors=1)
