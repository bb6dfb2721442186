"""Handelman-based positivity encoding (paper Step 3).

Converts implication constraints

    aff_1(x) >= 0 ∧ ... ∧ aff_k(x) >= 0  ⇒  poly(x) >= 0

(with ``poly`` linear in the symbolic template variables) into purely
existentially quantified *linear* constraints by requiring ``poly`` to be
a nonnegative combination of products of at most ``K`` of the ``aff_i``
(Handelman's theorem gives completeness for strictly positive ``poly``
over compact ``⟨Aff⟩``).  ``K = 1`` is the classical Farkas encoding,
complete for affine consequents over nonempty polyhedra.  The
implications of one set share a :class:`ProductTable`.
"""

from repro.handelman.products import ProductTable, generate_products
from repro.handelman.encode import ImplicationConstraint, encode_implication

__all__ = [
    "ProductTable",
    "generate_products",
    "ImplicationConstraint",
    "encode_implication",
]
