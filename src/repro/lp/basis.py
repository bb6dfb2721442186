"""Sparse LU basis factorization with product-form (eta) updates.

The revised simplex needs two linear-algebra kernels per iteration:
``ftran`` (``x = B^{-1} a``, the entering column in basis coordinates)
and ``btran`` (``y = B^{-T} c``: the simplex multipliers, or for a unit
``c`` a row of ``B^{-1}``, from which the pivot row is built).  The seed
kept ``B^{-1}`` as an explicit dense matrix and rebuilt it with
elementary row operations on every pivot — ``O(m^2)`` arithmetic (on
ever-growing ``Fraction``s) per pivot even when the basis is nearly
triangular, which Handelman bases always are.

:class:`BasisFactorization` replaces that with the classical
QSopt_ex/SoPlex scheme:

- a **sparse LU factorization** ``P B = L U`` computed by Gaussian
  elimination on row dicts, picking the sparsest eligible pivot row
  (Markowitz-lite, deterministic smallest-index tie-break).  ``L`` is
  stored as the ordered list of elimination operations, ``U`` as sparse
  rows — both solve triangular systems in ``O(nnz)``.
- a **product-form eta file**: a basis change that replaces position
  ``r`` by a column with basis coordinates ``w`` multiplies ``B`` by an
  elementary matrix ``E`` (identity with column ``r`` set to ``w``).
  Pushing ``(r, w)`` costs ``O(nnz(w))``; each subsequent ftran/btran
  applies the eta (or its transpose) in ``O(nnz(w))``.
- **periodic refactorization**: the eta file is rebuilt into a fresh LU
  when it grows past ``eta_limit`` or when eta entries blow up past
  ``eta_bit_limit`` bits, which keeps both the per-solve cost and
  rational entry sizes bounded.

All arithmetic is over ``Fraction`` and a pivot is any nonzero entry.
Callers share one ``stats`` dict so factorization/eta counters surface
in solver stats.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Eta file length that triggers a refactorization.  Empirically the
#: crossover where replaying the eta file costs as much as a fresh LU on
#: the sparse Handelman bases; small enough that exact entries stay tame.
DEFAULT_ETA_LIMIT = 64

#: Refactorize when any eta entry's numerator plus denominator exceed
#: this many bits.  A fresh LU of the (small-entry) basis columns resets
#: the growth.
DEFAULT_ETA_BIT_LIMIT = 8192

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _bit_size(value: Fraction) -> int:
    """Bits in a rational entry."""
    return value.numerator.bit_length() + value.denominator.bit_length()


class BasisFactorization:
    """LU factors of one basis matrix plus its eta updates.

    The matrix is never stored; :meth:`factorize` consumes the basis
    columns (sparse dicts ``row -> value``) and keeps only the factors.
    Vectors are plain lists: ``ftran`` input/output and ``btran`` output
    are indexed by basis *position* / constraint *row* exactly as in the
    revised simplex (positions and rows coincide dimension-wise).
    """

    def __init__(self, m: int, *,
                 eta_limit: int = DEFAULT_ETA_LIMIT,
                 eta_bit_limit: int = DEFAULT_ETA_BIT_LIMIT,
                 stats: dict | None = None):
        self.m = m
        self.eta_limit = eta_limit
        self.eta_bit_limit = eta_bit_limit
        self.stats = stats if stats is not None else {}
        for key in ("factorizations", "eta_pivots", "max_eta"):
            self.stats.setdefault(key, 0)
        # Phase timers (seconds): the linear-algebra kernels this object
        # owns.  Written into the shared dict so they surface in solver
        # stats and, from there, in the perf harness profile section.
        for key in ("time_refactor", "time_ftran", "time_btran",
                    "time_eta"):
            self.stats.setdefault(key, 0.0)
        #: position k -> original row index of U's row k (``P``).
        self.perm: list[int] = []
        #: elimination ops ``v[i] -= factor * v[p]`` in application order.
        self.l_ops: list[tuple[int, int, object]] = []
        #: sparse rows of ``U`` by position: ``{position: value}``.
        self.u_rows: list[dict[int, object]] = []
        #: eta file: ``(r, off-diagonal {i: w_i}, w_r)`` in push order.
        self.etas: list[tuple[int, dict[int, object], object]] = []
        self._blown = False

    # -- factorization -----------------------------------------------------

    def factorize(self, columns: list[dict[int, object]]) -> bool:
        """LU-factorize the basis given by ``columns``; False = singular.

        Resets the eta file: the factors describe exactly this basis.
        """
        start = perf_counter()
        try:
            return self._factorize(columns)
        finally:
            self.stats["time_refactor"] += perf_counter() - start

    def _factorize(self, columns: list[dict[int, object]]) -> bool:
        m = self.m
        self.stats["factorizations"] += 1
        self.etas = []
        self._blown = False
        rows: list[dict[int, object]] = [{} for _ in range(m)]
        for k, col in enumerate(columns):
            for i, value in col.items():
                if value:
                    rows[i][k] = value
        perm: list[int] = []
        l_ops: list[tuple[int, int, object]] = []
        placed = [False] * m
        for k in range(m):
            pivot, best_nnz = -1, None
            for i in range(m):
                if placed[i]:
                    continue
                if rows[i].get(k):
                    nnz = len(rows[i])
                    if best_nnz is None or nnz < best_nnz:
                        best_nnz, pivot = nnz, i
            if pivot < 0:
                return False
            placed[pivot] = True
            perm.append(pivot)
            prow = rows[pivot]
            pval = prow[k]
            for i in range(m):
                if placed[i]:
                    continue
                a = rows[i].get(k)
                if not a:
                    continue
                factor = a / pval
                l_ops.append((i, pivot, factor))
                row_i = rows[i]
                del row_i[k]
                for j, pv in prow.items():
                    if j == k:
                        continue
                    updated = row_i.get(j, _ZERO) - factor * pv
                    if updated:
                        row_i[j] = updated
                    elif j in row_i:
                        del row_i[j]
        self.perm = perm
        self.l_ops = l_ops
        self.u_rows = [rows[p] for p in perm]
        return True

    # -- solves ------------------------------------------------------------

    def ftran(self, col: dict[int, object]) -> list:
        """``B^{-1} a`` for a sparse column ``a`` ({row: value})."""
        start = perf_counter()
        v = [_ZERO] * self.m
        for i, value in col.items():
            v[i] = value
        try:
            return self._ftran_vector(v)
        finally:
            self.stats["time_ftran"] += perf_counter() - start

    def ftran_dense(self, vec: list) -> list:
        """``B^{-1} v`` for a dense vector (input is not modified)."""
        start = perf_counter()
        try:
            return self._ftran_vector(list(vec))
        finally:
            self.stats["time_ftran"] += perf_counter() - start

    def _ftran_vector(self, v: list) -> list:
        for i, p, factor in self.l_ops:
            vp = v[p]
            if vp:
                v[i] = v[i] - factor * vp
        z = [v[p] for p in self.perm]
        x = [_ZERO] * self.m
        for k in range(self.m - 1, -1, -1):
            u_row = self.u_rows[k]
            total = z[k]
            for j, uv in u_row.items():
                if j != k:
                    xj = x[j]
                    if xj:
                        total = total - uv * xj
            x[k] = total / u_row[k] if total else total
        for r, off, wr in self.etas:
            xr = x[r]
            if xr:
                xr = xr / wr
                for i, wi in off.items():
                    x[i] = x[i] - wi * xr
                x[r] = xr
        return x

    def btran(self, vec: list) -> list:
        """``B^{-T} c``: simplex multipliers for basic costs ``c``
        (indexed by basis position); also row extraction via a unit
        vector.  Input is not modified."""
        start = perf_counter()
        try:
            return self._btran_vector(vec)
        finally:
            self.stats["time_btran"] += perf_counter() - start

    def _btran_vector(self, vec: list) -> list:
        v = list(vec)
        for r, off, wr in reversed(self.etas):
            total = v[r]
            for i, wi in off.items():
                vi = v[i]
                if vi:
                    total = total - wi * vi
            v[r] = total / wr if total else total
        z = [_ZERO] * self.m
        for k in range(self.m):
            u_row = self.u_rows[k]
            vk = v[k]
            zk = vk / u_row[k] if vk else vk
            z[k] = zk
            if zk:
                for j, uv in u_row.items():
                    if j != k:
                        v[j] = v[j] - uv * zk
        w = [_ZERO] * self.m
        for k, p in enumerate(self.perm):
            w[p] = z[k]
        for i, p, factor in reversed(self.l_ops):
            wi = w[i]
            if wi:
                w[p] = w[p] - factor * wi
        return w

    def btran_unit(self, position: int) -> list:
        """Row ``position`` of ``B^{-1}`` (``e_r^T B^{-1}``)."""
        unit = [_ZERO] * self.m
        unit[position] = _ONE
        return self.btran(unit)

    # -- updates -----------------------------------------------------------

    def push_eta(self, position: int, w: list) -> None:
        """Record the basis change replacing ``position`` by a column
        whose basis coordinates are ``w`` (dense, ``w[position] != 0``)."""
        start = perf_counter()
        off: dict[int, object] = {}
        bits = _bit_size(w[position])
        for i, wi in enumerate(w):
            if wi and i != position:
                off[i] = wi
                size = _bit_size(wi)
                if size > bits:
                    bits = size
        self.etas.append((position, off, w[position]))
        self.stats["eta_pivots"] += 1
        if len(self.etas) > self.stats["max_eta"]:
            self.stats["max_eta"] = len(self.etas)
        if bits > self.eta_bit_limit:
            self._blown = True
        self.stats["time_eta"] += perf_counter() - start

    @property
    def eta_count(self) -> int:
        return len(self.etas)

    def needs_refactor(self) -> bool:
        """True when the eta file is long or its entries blew up."""
        return len(self.etas) >= self.eta_limit or self._blown
