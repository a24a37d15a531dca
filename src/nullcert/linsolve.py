"""Exact sparse linear algebra over GF(p), with bit-packed rows for p = 2, 3.

GF(2) rows live in Python ints relative to their lowest column (bit b =
column low + b), with the right-hand-side bits (bit j = right-hand side j)
in a separate small int, so an XOR costs what the row spans, not the column
count.  GF(3) rows are two disjoint bit-planes, plus for the +1 entries and
minus for the -1 entries, with right-hand side j at bit n_cols + j, so a row
addition is a few big-int operations (after Boothby & Bradshaw's bitsliced
GF(3)).  Rows over GF(p) for p >= 5 are dicts from column to coefficient.

Elimination is online: each row reduces against the pivots found so far and
either claims a new pivot at its lowest surviving column, vanishes, or
certifies an inconsistency.  The pivot column set this produces is the
canonical column-order rank-jump set, and solutions set every free variable
to zero, so results are deterministic regardless of internal processing
order or row representation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.poly import FieldSpec, Record, set_field

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_LOW_WORD = (1 << 64) - 1


class LinsolveError(ValueError):
    """Raised for malformed systems."""


class MemoryBudgetError(LinsolveError):
    """Raised when the packed elimination working set would exceed the budget."""

    def __init__(self, predicted_bytes: int, budget: int, n_rows: int, n_cols: int):
        super().__init__(
            f"predicted working set {predicted_bytes} bytes for a "
            f"{n_rows} x {n_cols} system exceeds the {budget} byte budget"
        )
        self.predicted_bytes = predicted_bytes
        self.budget = budget
        self.n_rows = n_rows
        self.n_cols = n_cols


def packed_bytes(n_rows: int, n_cols: int, p: int, n_rhs: int = 1) -> int:
    """Dense-width estimate of the eliminator working set: every row as
    bit-packed words of the full width for GF(2), an upper bound on the rows
    stored relative to their lowest column; one byte per dense-equivalent
    entry otherwise, which for GF(3) bounds the two full-width bit-planes
    (two bits per entry) from above.  The memory budget is checked against
    this figure."""
    width = n_cols + n_rhs
    if p == 2:
        return n_rows * ((width + 63) // 64) * 8
    return n_rows * width


def _check_budget(
    field: FieldSpec, n_rows: int, n_cols: int, memory_budget: Optional[int]
) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    predicted = packed_bytes(n_rows, n_cols, field.p)
    if predicted > budget:
        raise MemoryBudgetError(predicted, budget, n_rows, n_cols)


class SparseSystem(Record):
    """A sparse GF(p) linear system A y = rhs.

    rows[i] holds (col, coeff) pairs with strictly increasing columns and
    nonzero coefficients; rhs[i] is the right-hand side residue.
    """

    __slots__ = ("field", "n_rows", "n_cols", "rows", "rhs")

    def __init__(
        self,
        field: FieldSpec,
        n_rows: int,
        n_cols: int,
        rows: Tuple[Tuple[Tuple[int, int], ...], ...],
        rhs: Tuple[int, ...],
    ) -> None:
        set_field(self, "field", field)
        set_field(self, "n_rows", n_rows)
        set_field(self, "n_cols", n_cols)
        set_field(self, "rows", rows)
        set_field(self, "rhs", rhs)

    @classmethod
    def make(
        cls,
        field: FieldSpec,
        n_rows: int,
        n_cols: int,
        rows: Sequence[Sequence[Tuple[int, int]]],
        rhs: Sequence[int],
        memory_budget: Optional[int] = None,
    ) -> "SparseSystem":
        _check_budget(field, n_rows, n_cols, memory_budget)
        if len(rows) != n_rows or len(rhs) != n_rows:
            raise LinsolveError("row or rhs count mismatch")
        p = field.p
        canon_rows = []
        for i, row in enumerate(rows):
            prev = -1
            for c, v in row:
                if not 0 <= c < n_cols:
                    raise LinsolveError(f"row {i}: column {c} out of range")
                if c <= prev:
                    raise LinsolveError(f"row {i}: columns must be strictly increasing")
                if not 0 < v < p:
                    raise LinsolveError(f"row {i}: coefficient {v} outside 1..{p - 1}")
                prev = c
            canon_rows.append(tuple((c, v) for c, v in row))
        for i, b in enumerate(rhs):
            if not 0 <= b < p:
                raise LinsolveError(f"rhs {i}: value {b} outside 0..{p - 1}")
        return cls(field, n_rows, n_cols, tuple(canon_rows), tuple(rhs))

    @classmethod
    def _unchecked(
        cls,
        field: FieldSpec,
        n_cols: int,
        rows: Sequence[Sequence[Tuple[int, int]]],
        rhs: Sequence[int],
        memory_budget: Optional[int],
    ) -> "SparseSystem":
        """make() for rows that are canonical by construction: only the
        memory budget is checked, not each entry."""
        _check_budget(field, len(rows), n_cols, memory_budget)
        return cls(field, len(rows), n_cols, tuple(map(tuple, rows)), tuple(rhs))

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)


class SolveResult(Record):
    __slots__ = ("status", "solution", "pivot_cols")

    def __init__(self, status: str, solution: Optional[Tuple[int, ...]], pivot_cols: Tuple[int, ...]) -> None:
        set_field(self, "status", status)  # "consistent" | "inconsistent"
        set_field(self, "solution", solution)
        set_field(self, "pivot_cols", pivot_cols)

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


def _bit_bytes(x: int, n: int) -> bytes:
    """Byte c is bit c of x (0 or 1), for c < n."""
    # bit c of x is character c of the reversed binary string (the slice drops
    # the lone "0" that format gives a zero width)
    return format(x, f"0{n}b")[::-1][:n].encode().translate(_BIT_VALUES)


def _trit_tuple(plus: int, minus: int, n: int) -> Tuple[int, ...]:
    """Entry c is 1, 2 or 0 as bit c is set in plus, in minus, or in neither."""
    # 0/1 bytes from each plane: plus + 2 * minus never carries between bytes
    trits = int.from_bytes(_bit_bytes(plus, n), "big") + 2 * int.from_bytes(
        _bit_bytes(minus, n), "big"
    )
    return tuple(trits.to_bytes(n, "big"))


def _eliminate_gf2(sys: SparseSystem, rhs_list: Sequence[Sequence[int]]):
    """One elimination pass; returns (pivot_cols, per-rhs solution bitset or None)."""
    # pivots[c] = (row bits relative to column c, rhs bits); bit 0 is set
    pivots: Dict[int, Tuple[int, int]] = {}
    bad = 0  # OR of rhs bits left on rows whose matrix part reduced to zero
    for i, row in enumerate(sys.rows):
        rb = 0
        for j, rhs in enumerate(rhs_list):
            if rhs[i] & 1:
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

    pivot_cols = sorted(pivots)
    solutions: List[Optional[int]] = []
    for j in range(len(rhs_list)):
        if (bad >> j) & 1:
            solutions.append(None)
            continue
        x = 0
        # Descending pivot order: each pivot row's bit 0 is its own column,
        # every other bit is a higher column already decided (free columns
        # stay zero, so the row only meets pivot bits of x).
        for c in reversed(pivot_cols):
            r, rb = pivots[c]
            if ((rb >> j) & 1) ^ ((r & (x >> c)).bit_count() & 1):
                x |= 1 << c
        solutions.append(x)
    return pivot_cols, solutions


def _eliminate_gf3(sys: SparseSystem, rhs_list: Sequence[Sequence[int]]):
    """GF(3) elimination on bit-planes; returns (pivot_cols, per-rhs
    (plus, minus) solution bitsets or None)."""
    n_cols = sys.n_cols
    # pivots[c] = (plus, minus) with bit c set in plus: the lead is +1
    pivots: Dict[int, Tuple[int, int]] = {}
    bad = 0  # rhs bits (shifted down to bit j) left on rows whose matrix part vanished
    for i, row in enumerate(sys.rows):
        P = M = 0
        for c, v in row:
            if v == 1:
                P |= 1 << c
            else:
                M |= 1 << c
        for j, rhs in enumerate(rhs_list):
            v = rhs[i] % 3
            if v == 1:
                P |= 1 << (n_cols + j)
            elif v:
                M |= 1 << (n_cols + j)
        while True:
            nz = P | M
            if not nz:
                break
            c = (nz & -nz).bit_length() - 1
            if c >= n_cols:
                bad |= nz >> n_cols
                break
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = (P, M) if (P >> c) & 1 else (M, P)
                break
            # Cancel the lead: add the pivot to a -1 lead, add its negation
            # (the planes swapped) to a +1 lead.
            u, v = piv if (M >> c) & 1 else (piv[1], piv[0])
            P, M = ((P ^ u) & ~(M | v)) | (M & v), ((M ^ v) & ~(P | u)) | (P & u)

    pivot_cols = sorted(pivots)
    solutions: List[Optional[Tuple[int, int]]] = []
    for j in range(len(rhs_list)):
        if (bad >> j) & 1:
            solutions.append(None)
            continue
        rhs_bit = n_cols + j
        xP = xM = 0
        # Descending pivot order: the row's other matrix bits are higher
        # columns already decided, and x is zero on free columns.
        for c in reversed(pivot_cols):
            P, M = pivots[c]
            v = (
                (P >> rhs_bit & 1) - (M >> rhs_bit & 1)
                - (P & xP).bit_count() - (M & xM).bit_count()
                + (P & xM).bit_count() + (M & xP).bit_count()
            ) % 3
            if v == 1:
                xP |= 1 << c
            elif v:
                xM |= 1 << c
        solutions.append((xP, xM))
    return pivot_cols, solutions


def _eliminate_gfp(sys: SparseSystem, rhs_list: Sequence[Sequence[int]]):
    p = sys.field.p
    n_cols = sys.n_cols
    shift = n_cols
    pivots: Dict[int, Dict[int, int]] = {}  # col -> row dict with leading coeff 1
    bad: List[Dict[int, int]] = []
    for i, row in enumerate(sys.rows):
        d = {c: v for c, v in row}
        for j, rhs in enumerate(rhs_list):
            v = rhs[i] % p
            if v:
                d[shift + j] = v
        while True:
            matrix_cols = [c for c in d if c < n_cols]
            if not matrix_cols:
                if d:
                    bad.append(d)
                break
            c = min(matrix_cols)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(d[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in d.items()}
                break
            f = d[c]
            for k, v in piv.items():
                nv = (d.get(k, 0) - f * v) % p
                if nv:
                    d[k] = nv
                elif k in d:
                    del d[k]

    pivot_cols = sorted(pivots)
    solutions: List[Optional[Dict[int, int]]] = []
    for j in range(len(rhs_list)):
        if any(d.get(shift + j, 0) % p for d in bad):
            solutions.append(None)
            continue
        x: Dict[int, int] = {}
        for c in reversed(pivot_cols):
            row = pivots[c]
            v = row.get(shift + j, 0)
            for k, coeff in row.items():
                if k != c and k < n_cols:
                    xv = x.get(k, 0)
                    if xv:
                        v = (v - coeff * xv) % p
            if v:
                x[c] = v
        solutions.append(x)
    return pivot_cols, solutions


def solve_multi_rhs(sys: SparseSystem, rhs_set: Sequence[Sequence[int]]) -> List[SolveResult]:
    """Solve A y = b for every b in rhs_set with a single elimination.

    Results are identical to calling solve once per right-hand side; the
    system's own rhs field is not consulted.
    """
    for b in rhs_set:
        if len(b) != sys.n_rows:
            raise LinsolveError(f"rhs length {len(b)} != n_rows {sys.n_rows}")
    n = sys.n_cols
    p = sys.field.p
    if p == 2:
        pivot_cols, raw = _eliminate_gf2(sys, rhs_set)
        sols = [None if x is None else tuple(_bit_bytes(x, n)) for x in raw]
    elif p == 3:
        pivot_cols, raw = _eliminate_gf3(sys, rhs_set)
        sols = [None if x is None else _trit_tuple(*x, n) for x in raw]
    else:
        pivot_cols, raw = _eliminate_gfp(sys, rhs_set)
        sols = [None if x is None else tuple(x.get(c, 0) for c in range(n)) for x in raw]
    pivot_tuple = tuple(pivot_cols)
    return [
        SolveResult("inconsistent" if x is None else "consistent", x, pivot_tuple)
        for x in sols
    ]


def solve(sys: SparseSystem) -> SolveResult:
    """Exact Gaussian elimination; on consistency the returned solution has
    every free (non-pivot) variable equal to zero."""
    return solve_multi_rhs(sys, [sys.rhs])[0]


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "LinsolveError",
    "MemoryBudgetError",
    "SparseSystem",
    "SolveResult",
    "packed_bytes",
    "solve",
    "solve_multi_rhs",
]
