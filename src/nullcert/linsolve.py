"""Exact sparse linear algebra over GF(p), with bit-packed rows for p = 2, 3.

Vectors cross the solver boundary as entries, never one slot per row or
column: a right-hand side goes in as (row, coeff) entries, a target's few
terms, which solve_multi_rhs files by row once for each eliminator to read
as it reaches the row, and a solution comes out as its nonzero (col, value)
entries, columns ascending, as the back-solve sets them.  GF(2) rows live in
Python ints relative to their lowest column (bit b = column low + b), with
the right-hand-side bits (bit j = right-hand side j) in a separate small
int, so an XOR costs what the row spans, not the column count.  GF(3) rows
are two disjoint bit-planes, plus for the +1 entries and minus for the -1
entries, laid out in reverse: with R right-hand sides, column c sits at bit
R + n_cols - 1 - c and right-hand side j at bit j.  A row's lead is then its
highest bit, found by bit_length() in O(1), and the row is only
R + n_cols - lead bits wide, so a row addition, the 7-operation bitsliced add
of Boothby & Bradshaw's GF(3), costs what the row spans from its lead to the
last column.  A row for p >= 5 is two dicts, its matrix part (column to
coefficient) and its right-hand-side part (j to value), which every pivot
reduces together.

Elimination is online: each row reduces against the pivots found so far and
either claims a new pivot at its lowest surviving column, vanishes, or
certifies an inconsistency.  The pivot rows stay an echelon basis of the
rows seen, so the pivots are the lowest columns of the row space's nonzero
vectors: the greedy column basis in column order, column c a pivot when it
is no combination of the columns before it.  A consistent b is one
combination of the pivot columns alone, the solution with every free
variable zero.  Both depend only on the row space and the column order, so
row order is free: any order of the rows gives the same pivots,
consistency and solutions, as does any row representation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.poly import FieldSpec, Record, set_field

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes
_LOW_WORD = (1 << 64) - 1
_Entries = Tuple[Tuple[int, int], ...]  # (col, value), columns ascending


class LinsolveError(ValueError):
    """Raised for malformed systems."""


class MemoryBudgetError(LinsolveError):
    """Raised when the packed elimination working set would exceed the budget."""

    def __init__(self, predicted_bytes: int, budget: int, n_rows: int, n_cols: int):
        # the rows may be a count in progress or a lower bound, never more
        super().__init__(
            f"predicted working set of at least {predicted_bytes} bytes for a system of "
            f"at least {n_rows} x {n_cols} exceeds the {budget} byte budget"
        )
        self.predicted_bytes = predicted_bytes
        self.budget = budget
        self.n_rows = n_rows
        self.n_cols = n_cols


def packed_bytes(n_rows: int, n_cols: int, p: int, n_rhs: int = 1) -> int:
    """Dense-width estimate of the eliminator working set: every row as
    bit-packed words of the full width for GF(2), an upper bound on the rows
    stored relative to their lowest column; one byte per dense-equivalent
    entry otherwise.  For GF(3) that bounds the two reversed bit-planes (two
    bits per entry) from above: a row spans at most n_cols - lead + n_rhs
    bits per plane, never more than the full width.  The memory budget is
    checked against this figure."""
    width = n_cols + n_rhs
    if p == 2:
        return n_rows * ((width + 63) // 64) * 8
    return n_rows * width


def check_budget(
    field: FieldSpec, n_rows: int, n_cols: int, memory_budget: Optional[int], n_rhs: int
) -> None:
    """Raise MemoryBudgetError if packed_bytes exceeds memory_budget (None: the default)."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    predicted = packed_bytes(n_rows, n_cols, field.p, n_rhs)
    if predicted > budget:
        raise MemoryBudgetError(predicted, budget, n_rows, n_cols)


class SparseSystem(Record):
    """The matrix A of sparse GF(p) linear systems A y = b; the right-hand
    sides b are passed to solve and solve_multi_rhs.

    rows[i] holds (col, coeff) pairs with strictly increasing columns below
    n_cols and nonzero coefficients; n_rows is len(rows).  The constructor
    checks nothing: rows are canonical by construction (nullcert.assemble).
    """

    __slots__ = ("field", "n_cols", "rows")

    def __init__(self, field: FieldSpec, n_cols: int, rows: Tuple[Tuple[Tuple[int, int], ...], ...]) -> None:
        set_field(self, "field", field)
        set_field(self, "n_cols", n_cols)
        set_field(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)


class SolveResult(Record):
    """solution: None if inconsistent, else the nonzero (col, value) entries, columns ascending."""

    __slots__ = ("solution", "pivot_cols")

    def __init__(self, solution: Optional[_Entries], pivot_cols: Tuple[int, ...]) -> None:
        set_field(self, "solution", solution)
        set_field(self, "pivot_cols", pivot_cols)

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def _eliminate_gf2(sys: SparseSystem, rhs_at: Dict[int, List[Tuple[int, int]]], R: int):
    """One elimination pass over the R right-hand sides filed in rhs_at;
    returns (pivot_cols, per-rhs solution entries or None)."""
    # pivots[c] = (row bits relative to column c, rhs bits); bit 0 is set
    pivots: Dict[int, Tuple[int, int]] = {}
    bad = 0  # OR of rhs bits left on rows whose matrix part reduced to zero
    for i, row in enumerate(sys.rows):
        rb = 0
        for j, v in rhs_at.get(i, ()):
            if v & 1:
                rb |= 1 << j
        if not row:
            bad |= rb
            continue
        low = row[0][0]
        r = 0
        for c, _ in row:
            r |= 1 << (c - low)
        while True:
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = (r, rb)
                break
            r ^= piv[0]
            rb ^= piv[1]
            if not r:
                bad |= rb
                break
            # Bit 0 cancelled; the next lowest column becomes the offset.  It
            # is nearly always in the low word, and & with a small int costs
            # O(1) where r & -r costs two passes over r.
            w = r & _LOW_WORD or r
            tz = (w & -w).bit_length() - 1
            r >>= tz
            low += tz

    pivot_cols = tuple(sorted(pivots))
    solutions: List[Optional[_Entries]] = []
    for j in range(R):
        if (bad >> j) & 1:
            solutions.append(None)
            continue
        x = 0
        entries = []
        # Descending pivot order: each pivot row's bit 0 is its own column,
        # every other bit is a higher column already decided (free columns
        # stay zero, so the row only meets pivot bits of x).
        for c in reversed(pivot_cols):
            r, rb = pivots[c]
            if ((rb >> j) & 1) ^ ((r & (x >> c)).bit_count() & 1):
                x |= 1 << c
                entries.append((c, 1))
        solutions.append(tuple(entries[::-1]))
    return pivot_cols, solutions


def _eliminate_gf3(sys: SparseSystem, rhs_at: Dict[int, List[Tuple[int, int]]], R: int):
    """GF(3) elimination on reversed bit-planes; returns (pivot_cols,
    per-rhs solution entries or None)."""
    top = R + sys.n_cols - 1  # the bit of column 0
    # pivots[L] = (plus, minus) of the row whose lead, column top + 1 - L,
    # is bit L - 1 of plus: the lead is +1
    pivots: Dict[int, Tuple[int, int]] = {}
    bad = 0  # rhs bits left on rows whose matrix part vanished
    for i, row in enumerate(sys.rows):
        P = M = 0
        for c, v in row:
            if v == 1:
                P |= 1 << (top - c)
            else:
                M |= 1 << (top - c)
        for j, v in rhs_at.get(i, ()):
            v %= 3
            if v == 1:
                P |= 1 << j
            elif v:
                M |= 1 << j
        while True:
            lp = P.bit_length()
            lm = M.bit_length()
            L = lp if lp > lm else lm
            if L <= R:
                bad |= P | M
                break
            piv = pivots.get(L)
            if piv is None:
                pivots[L] = (P, M) if lp == L else (M, P)
                break
            # Cancel the lead: add the pivot to a -1 lead, its negation (the
            # planes swapped) to a +1 lead, with the bitsliced GF(3) add.
            bP, bM = (piv[1], piv[0]) if lp == L else piv
            t = (P | bM) ^ (M | bP)
            P, M = (M | bM) ^ t, (P | bP) ^ t

    leads = sorted(pivots)
    pivot_cols = tuple(top + 1 - L for L in reversed(leads))
    solutions: List[Optional[_Entries]] = []
    for j in range(R):
        if (bad >> j) & 1:
            solutions.append(None)
            continue
        xP = xM = 0
        entries = []
        # Descending column order: the row's other matrix bits are higher
        # columns already decided, and x is zero on free columns.
        for L in leads:
            P, M = pivots[L]
            v = (
                (P >> j & 1) - (M >> j & 1)
                - (P & xP).bit_count() - (M & xM).bit_count()
                + (P & xM).bit_count() + (M & xP).bit_count()
            ) % 3
            if v:
                xP |= (v == 1) << (L - 1)
                xM |= (v == 2) << (L - 1)
                entries.append((top + 1 - L, v))
        solutions.append(tuple(entries[::-1]))
    return pivot_cols, solutions


def _eliminate_gfp(sys: SparseSystem, rhs_at: Dict[int, List[Tuple[int, int]]], R: int):
    """Elimination on dict rows, for any prime p; returns (pivot_cols,
    per-rhs solution entries or None)."""
    p = sys.field.p
    # col -> (matrix part, rhs part) of the row whose lead, column col, is 1
    pivots: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
    bad = set()  # rhs j left nonzero on rows whose matrix part vanished
    for i, row in enumerate(sys.rows):
        d = dict(row)
        b = {j: v % p for j, v in rhs_at.get(i, ()) if v % p}
        while d:
            c = min(d)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(d[c], -1, p)
                pivots[c] = ({k: v * inv % p for k, v in d.items()}, {j: v * inv % p for j, v in b.items()})
                break
            f = d[c]
            for part, piv_part in zip((d, b), piv):
                for k, v in piv_part.items():
                    nv = (part.get(k, 0) - f * v) % p
                    if nv:
                        part[k] = nv
                    else:
                        part.pop(k, None)
        else:
            bad.update(b)

    pivot_cols = tuple(sorted(pivots))
    solutions: List[Optional[_Entries]] = []
    for j in range(R):
        if j in bad:
            solutions.append(None)
            continue
        x: Dict[int, int] = {}
        # Descending column order: the row's other columns are higher ones
        # already decided, and x is zero on free columns and on the lead.
        for c in reversed(pivot_cols):
            row, b = pivots[c]
            v = (b.get(j, 0) - sum(coeff * x.get(k, 0) for k, coeff in row.items())) % p
            if v:
                x[c] = v
        solutions.append(tuple(sorted(x.items())))
    return pivot_cols, solutions


def solve_multi_rhs(
    sys: SparseSystem, rhs_list: Sequence[Sequence[Tuple[int, int]]]
) -> List[SolveResult]:
    """Solve A y = b for every b in rhs_list with a single elimination.

    Each b is a list of (row, coeff) entries, a row at most once; rows not
    listed are zero.  The entries are filed by row once, so the cost grows
    with the entries, not with rows x right-hand sides.  Each y comes out as
    its nonzero (col, value) entries, exactly as solve gives it alone.
    """
    rhs_at: Dict[int, List[Tuple[int, int]]] = {}  # row -> (j, coeff) of rhs j, j ascending
    for j, rhs in enumerate(rhs_list):
        for i, v in rhs:
            if not 0 <= i < sys.n_rows:
                raise LinsolveError(f"rhs {j} has row {i} outside 0..{sys.n_rows - 1}")
            at = rhs_at.setdefault(i, [])
            if at and at[-1][0] == j:
                raise LinsolveError(f"rhs {j} lists row {i} twice")
            at.append((j, v))
    p = sys.field.p
    eliminate = _eliminate_gf2 if p == 2 else _eliminate_gf3 if p == 3 else _eliminate_gfp
    pivot_cols, sols = eliminate(sys, rhs_at, len(rhs_list))
    return [SolveResult(x, pivot_cols) for x in sols]


def solve(sys: SparseSystem, rhs: Sequence[Tuple[int, int]]) -> SolveResult:
    """Exact Gaussian elimination for the (row, coeff) entries rhs; on
    consistency the returned solution has every free (non-pivot) variable
    equal to zero and lists its nonzero (col, value) entries, columns ascending."""
    return solve_multi_rhs(sys, [rhs])[0]


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "LinsolveError",
    "MemoryBudgetError",
    "SparseSystem",
    "SolveResult",
    "check_budget",
    "packed_bytes",
    "solve",
    "solve_multi_rhs",
]
