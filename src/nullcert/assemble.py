"""Degree-d certificate search: matrix assembly, the degree loop, extraction.

The existence of an identity g = sum_i beta_i f_i with deg(beta_i) <= d is
linear in the unknown multiplier coefficients.  One column per pair
(f_i, shift monomial x^delta), one row per monomial of the expanded products;
the entry at (x^alpha, (i, delta)) is the coefficient of x^alpha in
x^delta * f_i, and the right-hand side holds g's coefficients.  Consistency
of that system is exactly certificate existence at degree d.

nulla_prove is the one degree loop.  At each degree it tries the core's
system (if any), then F's.  Given a group, each is built as its orbit
system, and assembled only when the orbit solve is inconsistent and some
orbit size is divisible by p; without one it is assembled.  An
assembled system is peeled (below) before it is solved.  Each solve gets
one DegreeStats: an assembled system's carries the rows counted of the
system built and the full system's columns and nonzeros, an orbit
system's the orbit system's own sizes.  The first consistent solve is
extracted and re-verified.

Peeling: a row monomial that is no target's and that exactly one column
produces forces that column to zero in every solution.  _peel drops such a
column, which lowers the count of its other products, and so on until no
such row is left; only the surviving columns, and the rows they or the
targets reach, are filed.  It is exact: the forced column's unit vector
lies in the row space, so that column is a pivot, and every other column is
a pivot of the peeled system exactly when it is one of the full system.
Consistency per rhs is unchanged, and so is the free-variables-zero
solution, with the peeled columns at zero, and with it the certificate.
Each row names its column through the sum of its live products' columns,
so the cascade costs what the dropped columns' products do, and no stop
rule is needed.  It runs on _count's count of the system built: the full
system, or at degree 1 for g = 1 its local columns where F has their
shapes (below).  That count is what the budget is checked on and the
degree line's rows; stats counts the full system.  On wheel:101 at degree 1 the full
25,353 x 20,605 system and its 1,112 local columns both peel to
1,012 x 1,112, the certificate's neighbourhood.

The peel keeps a fixed point.  Call a column set S closed when no
non-target row has exactly one product from S.  A union of closed sets is
closed, so every column set C has a largest closed subset T(C).  The peel
of C never drops a column of a closed subset of C: the row that drops a
column has it as its one live product, and the subset lies among the live
columns.  What it keeps is closed, so it keeps exactly T(C).  If T(C) is
inside C' and C' inside C, then T(C') = T(C): the peel of any such C'
keeps T(C), in the same column order, so the filed system, its solution
and the certificate are those of C.

Local columns: at degree 1 with the one target g = 1, take a system whose
polynomials have one variable and terms of degree 3 and 0 only (x_v^3 - 1),
or two variables u and v and exactly the terms x_u^2, x_u x_v and x_v^2
(the edge uv), no pair used twice: the shapes of a k = 3 coloring encoding
without cutters.  One of one variable gives, at any shift of degree at
most 1, only the products 1, x_v^3, x_w and x_w x_v^3.  So a row
x_u x_v x_w or x_w x_v^2, with u, v and w distinct, is produced only by
edge columns of shift degree 1, and it is no target's.  Column (uv, x_w)
is local when w is u or v, is adjacent to both, or lies on a 4-cycle
through the edge uv (u-w-z-v or u-z-w-v).  Every other column is outside
T(C) of the full column set C, in two rounds:
  - w adjacent to neither u nor v: the row x_u x_v x_w has the one product
    of (uv, x_w), since (uw, x_v) and (vw, x_u) are not columns;
  - w adjacent to u but not to v, with no neighbour but u shared with v:
    the row x_w x_v^2 has products only from the columns (vy, x_w), y a
    neighbour of v.  For y other than u, w is not adjacent to y, nor to v,
    so (vy, x_w) is of the first round; T(C) then holds at most one product
    of this row, so not (uv, x_w).  The mirror case, u and v swapped, is the
    same.
So the local columns, with every column that is not an edge column of
shift degree 1, hold T(C), and peeling them files the full system's
peeled system.  _local_shifts checks the shapes and reads the edges off
the system itself, a --system input too.  Orbit systems (below) are
walked on the local columns too.  A group that leaves F invariant permutes
its edges, so it maps the local columns, defined from them, onto
themselves.  An orbit solution lifts to a full one, which vanishes outside
T(C), so each non-local orbit column is zero in every orbit solution: its
unit vector lies in the orbit row space, and dropping it changes no pivot,
no free-variables-zero solution and no certificate.  Conclusiveness is
argued on the local system, as consistent as the full one.  Other
requests and shapes are built on every column.

Core first: given a core, a smaller system over F's variables whose
polynomials are F's input polynomials (the encoding of an induced
subgraph), the core's system comes before F's at each degree.  A
certificate for the core is one for F, so F's system is solved at a degree
only when the core's is inconsistent there.  Shifts range over the
variables that occur (_layout), so the core's system is no larger than its
own.  The certificate degree is never higher than without the core, and a
graph far too large to assemble can still be certified.

Orbit systems: a permutation group on the variables (nullcert.symmetry)
permutes the rows (monomials) and columns (shifted polynomials).  When F is
invariant under the group and every target is fixed by it, solutions may be
assumed constant on column orbits, so the system reduces to one row and
one column per orbit, entries summed over column-orbit members.  It is an
AssembledSystem keyed by its orbits' representatives, holding each
generator's images of the polys and shifts.  An orbit solution always lifts
to a full one (lift_solution walks the orbit of each nonzero column; in a
plain system, with no images, each orbit is one column), and so to a
certificate that verifies.  The converse, full consistency implying orbit
consistency, holds when every row and column orbit has size prime to p.
Take a row orbit R with representative r and a column orbit C with
representative c.  The full matrix A is invariant, so counting its entries
over R x C both ways gives |R| * sum_{c' in C} A[r, c'] = |C| * sum_{r' in
R} A[r', c], over the integers with entries in 0..p-1.  This one identity
gives both the entries and the conclusiveness rule.  The entry at (R, C) is
|C| * Y / |R| mod p, where Y sums the coefficients of c's products that lie
in R, so _orbit_system builds the orbit system from F and the group in the
one walk that finds its orbits, without the full matrix: permuting packed
monomials is additive, so orbits are walked with each generator's images of
the shifts and of F's terms.  And if y refutes the orbit system (y A_orb = 0
and y b_orb != 0), the vector equal to y_R / |R| on every row of each row
orbit R refutes the full system.  Orbit sizes divide |G|, so this holds
wherever |G| is prime to p, and beyond.  _orbit_system reports whether the
orbits it walks pass, and nulla_prove solves the full matrix of the same
degree too only after an inconsistent orbit solve that does not.  On
wheel:101 under its rim rotation the orbits of its 1,213 local columns
and 1,012 rows give 12 x 13, where the full system is 25,353 x 20,706.

Column order: _Layout numbers the columns shift-major, (shift degree,
shift, poly index), with each degree's shifts in the order
_Packing.monomials enumerates them, in every field and in orbit systems
too, whose representatives are the least full-system indices.  The
products x^delta * f_i sharing a row monomial then have nearby shifts, so
each row spans a narrow column window, and the GF(2) bitset and GF(3)
bit-plane eliminators, whose row operations cost what a row spans, run
several times faster than with the columns of each f_i together.  Rank and
consistency do not depend on the order; the certificate does, through the
free-variables-zero solution, and is deterministic for the fixed order.
Row order is free (nullcert.linsolve): rows are filed in the reverse of
the order they are first met, which is lowest column descending, and no
key is ever compared.

Inside the assembly a monomial is one int (_Packing): the total degree above
one exponent field per occurring variable, above a salt region, with fields
wide enough that the product x^delta * t is the sum of the two ints.  The
salt region holds a per-variable 64-bit salt, summed like
the exponents, so that keys of many variables hash apart in the assembly's
dicts; it is 0 bits wide when every key is below 2^61 - 1, and so already
its own hash.  On wheel:301 at degree 1 the 226,053 row keys have as many
distinct hashes, where their fields alone give a few thousand.  An
AssembledSystem keeps its keys packed; extract_certificate unpacks only the
shifts whose coefficient is nonzero.

Grading: rows are the monomials that occur in some x^delta * f_i or in a
target; any other monomial would only add a zero row.  Columns are graded
by k, the gcd of every degree spread inside each f_i (top degree minus term
degree) and of every target term degree, or 1 when that gcd is 0 (grading).
Then each f_i has all its term degrees in one class mod k, and _layout
keeps column (i, delta) iff deg(delta) + class(f_i) == 0 mod k.  Sound and
complete: every target term has degree 0 mod k, so in an identity the
products in the other classes cancel, and the kept columns alone give one
of no higher degree.  A k-coloring encoding has k = its number of colors;
with a target of degree 1, such as x1, k is 1 and every column is kept.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, combinations_with_replacement, compress, islice
from math import comb, gcd
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from nullcert.certificate import Certificate, CertEntry, verify
from nullcert.linsolve import SparseSystem, check_budget, solve_multi_rhs
from nullcert.poly import FieldSpec, Monomial, PolySystem, Polynomial, Record, set_field

if TYPE_CHECKING:  # the orbit path imports the group code as it runs
    from nullcert.symmetry import PermutationSet


class AssembleError(ValueError):
    """Raised for invalid assembly requests (bad targets or schedules)."""


# Columns counted between two memory-budget checks (_count).
_BUDGET_BLOCK = 4096


def _splitmix64(x: int) -> int:
    """One splitmix64 output for the state x: 64 well-mixed bits."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class _Packing:
    """Monomials of n_vars variables, using only the listed ones, packed
    into one int.

    The total degree sits above one field of b bits per listed variable,
    ascending from the most significant field, and a salt region of
    salt_bits bits lies below the fields; flip masks the fields.  While
    every exponent fits in b bits, a product is the sum of the packed
    factors.

    The salt is for hashing.  A Python int hashes as its value mod
    2^61 - 1, so fields whose bit offsets agree mod 61 alias, and keys of
    more than about 20 variables would walk long collision chains in every
    dict.  Each listed variable adds a fixed 64-bit salt (splitmix64 of its
    position) per unit of exponent, so the salt stays additive: the salt of
    a product is the sum of its factors'.  The region holds the salt sum of
    any monomial whose fields fit, of degree below 2^b * n with n listed
    variables, in 64 + b + n.bit_length() bits.  When n*b + b +
    n.bit_length() <= 61 every such key is below 2^61 - 1 and so is its own
    hash, and the region is 0 bits wide.
    """

    __slots__ = ("variables", "n_vars", "b", "salt_bits", "flip", "units")

    def __init__(self, variables: Sequence[int], n_vars: int, b: int) -> None:
        self.variables = tuple(variables)
        self.n_vars = n_vars
        self.b = b
        n = len(self.variables)
        width = n * b + b + n.bit_length()
        s = self.salt_bits = 0 if width <= 61 else 64 + b + n.bit_length()
        self.flip = ((1 << n * b) - 1) << s  # every exponent field set
        self.units = {
            v: (1 << n * b + s) | (1 << (n - 1 - j) * b + s) | _splitmix64(j) & ((1 << s) - 1)
            for j, v in enumerate(self.variables)
        }

    def pack(self, m: Monomial) -> int:
        return sum(e * self.units[v] for v, e in m.exponents)

    def monomials(self, degree: int) -> List[int]:
        """All packed monomials of exact degree, in graded order."""
        return [sum(c) for c in combinations_with_replacement(self.units.values(), degree)]

    def _fields(self, x: int) -> List[Tuple[int, int]]:
        """(field position, exponent) of each nonzero exponent field, highest
        field first, i.e. variables ascending."""
        b = self.b
        last = len(self.variables) - 1
        x = (x & self.flip) >> self.salt_bits
        out = []
        while x:
            shift = (x.bit_length() - 1) // b * b
            e = x >> shift  # every higher field is already cleared
            out.append((last - shift // b, e))
            x ^= e << shift
        return out

    def unpack(self, x: int) -> Monomial:
        variables = self.variables
        return Monomial(tuple((variables[j], e) for j, e in self._fields(x)), self.n_vars)

    def permute(self, positions: Sequence[int], x: int) -> int:
        """The packed monomial with field j moved to field positions[j]."""
        units, variables = self.units, self.variables
        return sum(e * units[variables[positions[j]]] for j, e in self._fields(x))


class AssembledSystem(Record):
    """The degree-d system with one right-hand side per target: rhs_list[k]
    holds the (row, coeff) entries of target k's terms.

    Keys stay packed by packing: a column is (poly index, packed shift), a
    row a packed monomial.  Wrapping ~10^5 keys per degree in Monomial costs
    more than the degrees that find nothing, so packing.unpack is applied
    only where a Monomial is needed.  packed_cols[j] is the key of system
    column j, packed_rows[k] of row k.  In nulla_prove's plain system,
    which is peeled, packed_cols are the surviving columns, in the full
    system's order, and packed_rows the rows they or a target reach, in
    _file's order.  In an orbit system, column j is the orbit of
    packed_cols[j], row k the orbit of packed_rows[k], and col_images holds
    each generator's (poly map, {shift: image shift}), which walk a column's
    orbit (lift_solution); a plain system's col_images is ().
    """

    __slots__ = ("system", "rhs_list", "packing", "packed_cols", "packed_rows", "col_images")

    def __init__(
        self,
        system: SparseSystem,
        rhs_list: List[List[Tuple[int, int]]],
        packing: _Packing,
        packed_cols: Tuple[Tuple[int, int], ...],
        packed_rows: Tuple[int, ...],
        col_images: Tuple[Tuple[Sequence[int], Dict[int, int]], ...],
    ) -> None:
        set_field(self, "system", system)
        set_field(self, "rhs_list", rhs_list)
        set_field(self, "packing", packing)
        set_field(self, "packed_cols", packed_cols)
        set_field(self, "packed_rows", packed_rows)
        set_field(self, "col_images", col_images)
        if system.n_cols != len(packed_cols):
            raise AssembleError("column key count does not match system width")
        if system.n_rows != len(packed_rows):
            raise AssembleError("row key count does not match system height")


class DegreeStats(Record):
    __slots__ = ("degree", "rows", "cols", "nnz", "status", "millis")

    def __init__(self, degree: int, rows: int, cols: int, nnz: int, status: str, millis: int) -> None:
        set_field(self, "degree", degree)
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "nnz", nnz)
        set_field(self, "status", status)
        set_field(self, "millis", millis)


class NullaOutcome(Record):
    """Result of the degree loop.

    A certificate proves F infeasible: it is verified, and degree is the one
    at which it was found.  certificate None means none exists up to degree,
    the largest degree tried; feasibility is NOT decided then.  Every degree
    in per_degree was decided, by the full matrix whenever an orbit solve
    alone could not be.
    """

    __slots__ = ("certificate", "degree", "per_degree")

    def __init__(self, certificate: Optional[Certificate], degree: int, per_degree: Tuple[DegreeStats, ...]) -> None:
        set_field(self, "certificate", certificate)
        set_field(self, "degree", degree)
        set_field(self, "per_degree", per_degree)


def _check_request(F: PolySystem, targets: Sequence[Polynomial]) -> None:
    """Check the targets of a request on F."""
    if not targets:
        raise AssembleError("need at least one target polynomial")
    for g in targets:
        if g.field != F.field or g.n_vars != F.n_vars:
            raise AssembleError("target field or n_vars mismatch")
        if g.is_zero():
            raise AssembleError("zero target gives a vacuous identity")


def grading(F: PolySystem, targets: Sequence[Polynomial]) -> int:
    """The modulus k that grades the columns of F's systems for targets
    (see "Grading" in the module docstring)."""
    k = gcd(*(m.degree for g in targets for m, _ in g.terms))
    for f in F.polys:
        top = f.degree
        k = gcd(k, *(top - m.degree for m, _ in f.terms))
    return k or 1


def _grading_name(F: PolySystem, targets: Sequence[Polynomial]) -> str:
    """The grading as stats and certificate provenance name it."""
    k = grading(F, targets)
    return f"graded:{k}" if k > 1 else "occurring"


class _Layout:
    """A degree-d request laid out: the packing, each poly's packed terms,
    each target's packed (monomial, coeff) terms and the set target_rows of
    their monomials, and per shift degree the polys that grading keeps
    (polys_at), the count of shifts (n_shifts) and, once _layout has listed
    them, the packed shifts, none at a positive degree that keeps no poly.

    It alone numbers the columns, shift-major: columns() yields them in
    order, column(j) is the j-th, and there are n_cols.  It numbers every
    column of the full system, or, when local holds the ascending full
    indices of some of them (see "Local columns" in the module docstring),
    those alone, in the same order.  full_cols and nnz are the full
    system's size in closed form: column (i, delta) holds one entry per term
    of f_i, whose monomials are distinct.
    """

    __slots__ = ("packing", "poly_terms", "target_terms", "target_rows", "polys_at", "n_shifts", "starts", "n_cols",
                 "full_cols", "nnz", "local", "shifts")

    def __init__(self, packing: _Packing, poly_terms: list, target_terms: list, polys_at: List[List[int]]) -> None:
        self.packing, self.poly_terms, self.target_terms, self.polys_at = packing, poly_terms, target_terms, polys_at
        self.target_rows = {m for terms in target_terms for m, _ in terms}
        n = len(packing.variables)
        self.n_shifts = [comb(n + deg - 1, deg) if n else int(deg == 0) for deg in range(len(polys_at))]
        self.starts = list(accumulate((len(kept) * s for kept, s in zip(polys_at, self.n_shifts)), initial=0))
        self.n_cols = self.full_cols = self.starts[-1]
        self.nnz = sum(sum(len(poly_terms[i]) for i in kept) * s for kept, s in zip(polys_at, self.n_shifts))
        self.local: Optional[List[int]] = None

    def columns(self) -> Iterator[Tuple[int, int]]:
        """Every column (poly index, packed shift), in order."""
        if self.local is not None:
            return map(self.column, range(self.n_cols))
        pairs = zip(self.polys_at, self.shifts)
        return ((i, delta) for kept, deltas in pairs if kept for delta in deltas for i in kept)

    def column(self, j: int) -> Tuple[int, int]:
        if self.local is not None:
            j = self.local[j]
        deg = bisect_right(self.starts, j) - 1
        k, r = divmod(j - self.starts[deg], len(self.polys_at[deg]))
        return self.polys_at[deg][r], self.shifts[deg][k]


def _layout(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    memory_budget: Optional[int],
    local: Optional[Dict[int, Sequence[int]]] = None,
) -> _Layout:
    """Check a degree-d request and lay it out (_Layout).

    Shifts range over the variables that occur in F or a target: setting
    any other to 0 in a certificate gives one of no higher degree without
    it.  A group that leaves F invariant and fixes the targets maps this
    list onto itself.

    local (_local_shifts), at degree 1 only, maps a poly's index to the
    variables of its shifts of degree 1 to number; all else is numbered.

    The memory budget is checked before any shift is listed, on the exact
    count of the columns numbered and a lower bound on the rows, so that a
    degree far over budget fails without enumerating its C(n+d, d) shifts,
    and before that, without local, on lower bounds in closed form."""
    if d < 0:
        raise AssembleError("degree must be >= 0")
    _check_request(F, targets)

    # No product exponent exceeds d + the top input degree; a target's own
    # monomials are rows too, so they must fit as well.
    polys = (*F.polys, *targets)
    top = max(f.degree for f in polys)
    variables = sorted({v for f in polys for m, _ in f.terms for v, _ in m.exponents})
    packing = _Packing(variables, F.n_vars, max(d + top, 1).bit_length())
    poly_terms = [tuple((packing.pack(m), c) for m, c in f.terms) for f in F.polys]
    target_terms = [[(packing.pack(m), c) for m, c in g.terms] for g in targets]

    # The grading keeps the shift degrees with deg + class(f_i) == 0 mod k.
    k = grading(F, targets)
    n = len(variables)
    if n and local is None:  # local columns are fewer, but only at degree 1
        # f_i has its top kept degree D's shifts and one at least at each of its D // k lower ones
        tops = {e: d - (d + e) % k for e in {f.degree for f in F.polys}}
        least = {e: comb(n + D - 1, D) + D // k if D >= 0 else 0 for e, D in tops.items()}
        rows = max((least[f.degree] for f in F.polys if f.terms), default=0)
        check_budget(F.field, rows, sum(least[f.degree] for f in F.polys), memory_budget, len(targets))
    # with no variable only the shift 1, of degree 0, exists
    polys_at = [[i for i, f in enumerate(F.polys) if (deg + f.degree) % k == 0] for deg in range(d + 1 if n else 1)]
    lay = _Layout(packing, poly_terms, target_terms, polys_at)
    kept_shifts = [0] * len(poly_terms)
    for kept, s in zip(polys_at, lay.n_shifts):
        for i in kept:
            kept_shifts[i] += s
    if local is not None:
        # full index of column (i, x_v): start + (v's place) * width + (i's place)
        start, width, position = lay.starts[1], len(polys_at[1]), {v: s for s, v in enumerate(variables)}
        numbered = []
        for r, i in enumerate(polys_at[1]):
            shifts = local.get(i)
            places = range(lay.n_shifts[1]) if shifts is None else [position[v] for v in shifts]
            kept_shifts[i] -= lay.n_shifts[1] - len(places)
            numbered += (start + s * width + r for s in places)
        lay.local = [*range(start), *sorted(numbered)]
        lay.n_cols = len(lay.local)
    # The shifts of one f_i times one of its terms are distinct rows.
    rows = max((c for c, terms in zip(kept_shifts, poly_terms) if terms), default=0)
    check_budget(F.field, rows, lay.n_cols, memory_budget, len(targets))
    # the shift 0 is always listed: the row walk starts each target monomial there
    lay.shifts = [packing.monomials(deg) if kept or deg == 0 else [] for deg, kept in enumerate(polys_at)]
    return lay


def _local_shifts(F: PolySystem) -> Optional[Dict[int, List[int]]]:
    """The local shift variables of each edge polynomial of F, by index;
    None when not every polynomial has a shape of "Local columns" in the
    module docstring, or none is an edge.  The 4-cycles a-w-z-b through an
    edge are listed from its endpoint a of smaller degree, by intersecting
    sets, so no hub's whole neighbourhood is scanned for each of its edges.
    """
    edges: Dict[Tuple[int, int], int] = {}  # (u, v), u < v: its poly's index
    for i, f in enumerate(F.polys):
        variables = sorted({v for m, _ in f.terms for v, _ in m.exponents})
        if len(variables) == 1 and {m.degree for m, _ in f.terms} <= {0, 3}:
            continue
        if len(variables) != 2:
            return None
        u, v = variables
        # the canonical term order is x_u^2, x_u x_v, x_v^2
        if tuple(m.exponents for m, _ in f.terms) != (((u, 2),), ((u, 1), (v, 1)), ((v, 2),)) or (u, v) in edges:
            return None
        edges[u, v] = i
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    local = {}
    for (u, v), i in edges.items():
        a, b = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        near = {u, v} | (adj[a] & adj[b])  # the edge and its triangles
        for w in adj[a] - {b}:
            z = (adj[w] & adj[b]) - {a}
            if z:
                near |= z | {w}
        local[i] = sorted(near)
    return local or None


def _count(field: FieldSpec, lay: _Layout, memory_budget: Optional[int]) -> Dict[int, int]:
    """The rows of lay's columns, counted: per row monomial, its products in
    the low 32 bits and the sum of their columns above, so that a row with
    one product names its column; a target monomial no product reaches
    counts 0.

    This is the one count of a system, for stats and peeling.  Rows
    only grow, so the budget for every target is checked on the rows
    counted so far after each _BUDGET_BLOCK columns: a degree far over
    budget fails early.  The last block is short, maybe empty, so the last
    check is on the final counts."""
    count = dict.fromkeys(lay.target_rows, 0)
    get, cols, n_cols, poly_terms = count.get, lay.columns(), lay.n_cols, lay.poly_terms
    for start in range(0, n_cols + 1, _BUDGET_BLOCK):
        for j, (i, delta) in enumerate(islice(cols, _BUDGET_BLOCK), start):
            one = j << 32 | 1
            for t, _ in poly_terms[i]:
                m = delta + t
                count[m] = get(m, 0) + one
        check_budget(field, len(count), n_cols, memory_budget, len(lay.target_terms))
    return count


def _peel(lay: _Layout, count: Dict[int, int]) -> List[Tuple[int, int]]:
    """The columns of lay that peeling leaves (see the module docstring),
    in order, cascading on count (_count's), which it uses up."""
    poly_terms, target_rows, column = lay.poly_terms, lay.target_rows, lay.column
    mask = (1 << 32) - 1
    queue = [m for m, v in count.items() if v & mask == 1 and m not in target_rows]
    live = bytearray(b"\1") * lay.n_cols
    for m in queue:  # grows while it is read
        j, left = divmod(count[m], 1 << 32)
        if left == 1:
            live[j] = 0
            i, delta = column(j)
            one = j << 32 | 1
            for t, _ in poly_terms[i]:
                m = delta + t
                left = count[m] = count[m] - one
                if left & mask == 1 and m not in target_rows:
                    queue.append(m)
    return [column(j) for j in compress(range(lay.n_cols), live)]


def _file(field: FieldSpec, lay: _Layout, cols: List[Tuple[int, int]]) -> AssembledSystem:
    """The system on lay's columns cols, in their order: its rows are their
    products and every target's monomials, so each target's terms are
    (row, coeff) entries on the same matrix.  Rows come in the reverse of
    the order filing first meets them, the target monomials last: a row is
    met at its lowest column, so lowest column descending."""
    # One pass files each product x^delta * t under its row monomial.
    # Columns are visited in order and the terms of one f_i have distinct
    # monomials, so each row's entries come out strictly increasing.  A row
    # is filed flat (j, c, j, c, ...) and paired up one row at a time below,
    # so that a row's pairs sit together in memory for the eliminator.
    rows = defaultdict(list, {m: [] for m in lay.target_rows})
    met = {m: k for k, m in enumerate(rows)}
    for j, (i, delta) in enumerate(cols):
        for t, c in lay.poly_terms[i]:
            rows[delta + t].extend((j, c))
    packed_rows = list(reversed(rows))
    rhs_list = [[(len(rows) - 1 - met[m], c) for m, c in terms] for terms in lay.target_terms]
    flats = (iter(rows[m]) for m in packed_rows)
    system = SparseSystem(field, len(cols), tuple(tuple(zip(flat, flat)) for flat in flats))
    return AssembledSystem(system, rhs_list, lay.packing, tuple(cols), tuple(packed_rows), ())


def _assemble(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    memory_budget: Optional[int],
    local: Optional[Dict[int, Sequence[int]]] = None,
) -> Tuple[AssembledSystem, Tuple[int, int, int]]:
    """The degree-d system, peeled (see "Peeling" in the module docstring),
    with one right-hand side per target, and the counted rows of the system
    built, on every column or on the local ones (_local_shifts), with the full
    system's cols and nnz.  The system built is counted (_count), and so
    the budget checked, before any column is filed."""
    lay = _layout(F, d, targets, memory_budget, local)
    count = _count(F.field, lay, memory_budget)
    sizes = len(count), lay.full_cols, lay.nnz
    cols = _peel(lay, count)
    del count  # before filing, which holds the peak
    return _file(F.field, lay, cols), sizes


def _orbit_system(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    perms: PermutationSet,
    maps: Sequence[Sequence[int]],
    memory_budget: Optional[int],
    local: Optional[Dict[int, Sequence[int]]] = None,
) -> Tuple[AssembledSystem, bool]:
    """The degree-d orbit system of F under perms, built without the full
    matrix (see "Orbit systems" in the module docstring), and whether its
    inconsistency is conclusive: whether every row and column orbit walked
    has size prime to p.  The orbits walked are those of lay's columns
    (_layout), every column or, given local (_local_shifts), the local
    ones; a local column with an image outside them raises.

    maps[k] is generator k's permutation of F's polys (check_invariant);
    renaming keeps degrees, so it permutes the columns too.  Each column
    orbit C is walked from its least column c, in column order, and each
    row orbit R from the member first met, rows filed as in _file; the
    entry at (R, C) is |C| * Y / |R| mod p, where Y sums the coefficients
    of c's products in R, and a division that is not exact raises.  The
    row walk counts the rows of lay's columns exactly, as the column orbits
    are found; the memory budget is checked every _BUDGET_BLOCK rows
    walked, and on the final counts.
    """
    lay = _layout(F, d, targets, memory_budget, local)
    packing, poly_terms, shifts = lay.packing, lay.poly_terms, lay.shifts
    # the group maps the listed variables onto themselves (see _layout)
    position = {v: j for j, v in enumerate(packing.variables)}
    # F's terms, and the target monomials, each a row as the shift 0 times itself
    row_terms = {t for terms in poly_terms for t, _ in terms} | lay.target_rows
    col_images, term_images = [], []
    for pmap, generator in zip(maps, perms.generators):
        fields = [position[generator[v]] for v in packing.variables]
        shift_image = {delta: packing.permute(fields, delta) for deltas in shifts for delta in deltas}
        col_images.append((pmap, shift_image))
        term_images.append((shift_image, {t: packing.permute(fields, t) for t in row_terms}))

    # Every row orbit holds a target monomial, the shift 0 times itself, or a
    # product of a column representative with one of its terms, and a member
    # that is none leaves the row universe.  The target rows are walked
    # first, then the rest as the column orbits are found, each from the
    # member first met, its representative.  Rows only grow, so the budget
    # is checked each time _BUDGET_BLOCK more have been walked, and at the end.
    field, p = F.field, F.field.p
    seen: Dict[int, int] = {}  # each full row walked: its orbit's walk index
    reps: List[int] = []  # per row orbit walked: its representative,
    sizes: List[int] = []  # its size,
    entries: List[List[Tuple[int, int]]] = []  # and its (column, entry) pairs
    check_at = _BUDGET_BLOCK

    def walk_row(delta: int, t: int) -> int:
        """The walk index of the new row orbit of delta + t, once walked."""
        nonlocal check_at
        rep = delta + t
        w = seen[rep] = len(reps)
        member_shifts, member_terms = [delta], [t]
        try:
            for shift, term in zip(member_shifts, member_terms):
                for shift_image, term_image in term_images:
                    image_shift, image_term = shift_image[shift], term_image[term]
                    m = image_shift + image_term
                    if m not in seen:
                        seen[m] = w
                        member_shifts.append(image_shift)
                        member_terms.append(image_term)
        except KeyError:
            from nullcert.symmetry import SymmetryError
            raise SymmetryError("row universe is not closed under the group") from None
        reps.append(rep)
        sizes.append(len(member_shifts))
        entries.append([])
        if len(seen) >= check_at:
            check_budget(field, len(seen), lay.n_cols, memory_budget, len(targets))
            check_at = len(seen) + _BUDGET_BLOCK
        return w

    for m in lay.target_rows:  # first, as _file files them
        if m not in seen:
            walk_row(0, m)
    # walked[col]: whether the orbit of lay's column col is walked; each
    # orbit's least column, first in column order, is its representative
    walked = dict.fromkeys(lay.columns(), False)
    col_reps: List[Tuple[int, int]] = []
    col_sizes = set()
    for (i, delta), done in walked.items():
        if done:
            continue
        members = _orbit(col_images, (i, delta))
        for col in members:
            if col not in walked:
                raise AssembleError("internal error: the group maps a local column outside the local columns")
            walked[col] = True
        size = len(members)
        col_sizes.add(size)
        o = len(col_reps)
        col_reps.append((i, delta))
        y: Dict[int, int] = {}  # per row orbit: Y, an integer sum
        for t, c in poly_terms[i]:
            w = seen.get(delta + t)
            if w is None:
                w = walk_row(delta, t)
            y[w] = y.get(w, 0) + c
        for w, total in y.items():
            entry, rest = divmod(size * total, sizes[w])
            if rest:
                raise AssembleError("internal error: an orbit entry |C| * Y / |R| is not an integer")
            if entry % p:
                entries[w].append((o, entry % p))
    check_budget(field, len(seen), lay.n_cols, memory_budget, len(targets))

    # rows in the reverse of the order walked, as in _file; a target is fixed
    # by the group, so its terms in one row orbit share a coefficient, kept once
    rhs_list = [list({len(reps) - 1 - seen[m]: c for m, c in terms}.items()) for terms in lay.target_terms]
    system = SparseSystem(field, len(col_reps), tuple(map(tuple, reversed(entries))))
    orb = AssembledSystem(system, rhs_list, packing, tuple(col_reps), tuple(reversed(reps)), tuple(col_images))
    return orb, all(s % p for s in (*col_sizes, *sizes))


def _orbit(col_images: Sequence[Tuple[Sequence[int], Dict[int, int]]], col: Tuple[int, int]) -> List[Tuple[int, int]]:
    """The orbit of column col = (i, delta) under the generators' (poly map,
    shift images), col first."""
    members, seen = [col], {col}
    for i, delta in members:  # grows while it is read
        for pmap, shift_image in col_images:
            image = pmap[i], shift_image[delta]
            size = len(seen)
            seen.add(image)  # hashes the image once
            if len(seen) > size:
                members.append(image)
    return members


def assemble_orbit(
    F: PolySystem,
    d: int,
    g: Polynomial,
    perms: PermutationSet,
    memory_budget: Optional[int] = None,
) -> AssembledSystem:
    """Build the degree-d orbit system of F under perms for the target g.

    Requires F invariant under every generator and g fixed by every
    generator (SymmetryError otherwise).  The full matrix is never built.
    """
    from nullcert.symmetry import check_invariant
    maps = check_invariant(F, [g], perms)
    return _orbit_system(F, d, [g], perms, maps, memory_budget)[0]


def lift_solution(asm: AssembledSystem, solution: Sequence[Tuple[int, int]]) -> List[Tuple[Tuple[int, int], int]]:
    """The nonzero full columns ((i, delta), value) of a solution of
    asm.system, given as (col, value) entries: each entry's value on every
    column of its orbit, walked from its key (a plain system's orbits are single columns)."""
    if any(not 0 <= c < asm.system.n_cols for c, _ in solution):
        raise AssembleError(f"solution has a column outside 0..{asm.system.n_cols - 1}")
    return [(col, v) for c, v in solution for col in _orbit(asm.col_images, asm.packed_cols[c])]


def stats(
    F: PolySystem,
    d: int,
    memory_budget: Optional[int] = None,
) -> dict:
    """Closed-form size predictions next to actual graded sizes, keyed by
    the names the stats command prints.

    Predictions count the unpruned system over all n_vars variables:
    n_polys * C(n+d, d) columns and one matrix entry per (input monomial,
    shift) pair.  Actuals (rows, cols, nnz) are the full system's, graded
    and with shifts over the occurring variables only, for the target
    g = 1, from _layout and _count: the matrix is not filed, and a budget
    refusal is the one nulla_prove gives where it builds the full system.
    """
    one = [Polynomial.one(F.field, F.n_vars)]
    lay = _layout(F, d, one, memory_budget)
    rows, cols, nnz = len(_count(F.field, lay, memory_budget)), lay.full_cols, lay.nnz
    shifts = comb(F.n_vars + d, d)
    monomials = sum(len(f.terms) for f in F.polys)
    return {
        "n_vars": F.n_vars,
        "polys": len(F),
        "monomials": monomials,
        "pruning": _grading_name(F, one),
        "degree": d,
        "predicted_cols": len(F) * shifts,
        "predicted_nnz": monomials * shifts,
        "rows": rows,
        "cols": cols,
        "nnz": nnz,
    }


def alt_g_candidates(n_vars: int, degree: int) -> List[Monomial]:
    """All monomials of exactly the given total degree, in global order."""
    if degree < 1:
        raise AssembleError("alternative targets must have degree >= 1")
    # Sorted index tuples in lexicographic order: the graded order of Monomial.sort_key.
    return [Monomial.make([(v, 1) for v in c], n_vars) for c in combinations_with_replacement(range(n_vars), degree)]


def extract_certificate(
    F: PolySystem,
    asm: AssembledSystem,
    solution: Sequence[Tuple[int, int]],
    target: Polynomial,
    provenance: Optional[dict] = None,
) -> Certificate:
    """Turn a solution of asm.system, as (col, value) entries, into multipliers:
    beta_i = sum y_(i,delta) x^delta over the nonzero full columns (i, delta)
    that lift_solution gives.  Only their shifts are unpacked."""
    unpack = asm.packing.unpack
    per_poly: Dict[int, List[Tuple[Monomial, int]]] = {}
    for (i, delta), v in lift_solution(asm, solution):
        per_poly.setdefault(i, []).append((unpack(delta), v))
    entries = tuple(
        CertEntry(F.tags[i], F.polys[i], Polynomial.make(F.field, F.n_vars, per_poly[i]))
        for i in sorted(per_poly)
    )
    return Certificate(F.field, F.n_vars, target, entries, dict(provenance or {}))


def nulla_prove(
    F: PolySystem,
    schedule: Sequence[int],
    g_candidates: Optional[Sequence[Polynomial]] = None,
    *,
    memory_budget: Optional[int] = None,
    provenance: Optional[dict] = None,
    perms: Optional[PermutationSet] = None,
    core: Optional[Tuple[PolySystem, dict]] = None,
    on_degree: Optional[Callable[[DegreeStats], None]] = None,
) -> NullaOutcome:
    """Search the degree schedule for a certificate; first hit wins.

    At each degree the systems are tried in one order: the core's (if
    given), then F's; every target candidate is a separate right-hand side
    of one elimination pass.  With perms, F and every target must be
    invariant under the group (SymmetryError otherwise); a system is solved
    as its orbit system, and assembled and solved in full only when that is
    inconsistent and some orbit size is divisible by p: only orbit sizes
    prime to p make an inconsistent orbit solve conclusive.  An assembled
    system is solved peeled (see the module docstring).  For the one
    target g = 1, given or by default, a system of degree 1 of the shapes
    for it is built on its local columns (_local_shifts, worked out there
    alone).  Each solve gets its own DegreeStats: for an assembled system
    the rows counted of the system built, and the full system's cols and
    nnz; for an orbit solve the orbit system's own sizes.
    on_degree, if given, is called with each DegreeStats as its solve ends.
    The first consistent solve is extracted and re-verified by expansion
    before it is returned as the outcome's certificate; failure there is a
    solver bug and raises.  g_candidates None means the one target g = 1.

    core = (F_core, note) is a smaller system over F's field and variables
    whose polynomials are polynomials of F's input (the encoding of an
    induced subgraph, say), so that a certificate for it is one for F.  It
    is solved for F's targets, and its certificate records note under
    provenance "core".  core excludes perms.
    """
    if not schedule:
        raise AssembleError("degree schedule must be nonempty")
    if isinstance(schedule, range):  # the CLI's: walking it up to --max-degree would take seconds
        ascending = schedule.step > 0 or len(schedule) == 1
    else:
        ascending = all(a < b for a, b in zip(schedule, schedule[1:]))
    if not ascending or schedule[0] < 0:
        raise AssembleError("degree schedule must be ascending and nonnegative")
    one = [Polynomial.one(F.field, F.n_vars)]
    targets = one if g_candidates is None else list(g_candidates)
    _check_request(F, targets)
    # The systems tried at each degree, in order, with the provenance each adds.
    tried = [(F, {})]
    if core is not None:
        if perms is not None:
            raise AssembleError("a core excludes a symmetry group")
        F_core, note = core
        if F_core.field != F.field or F_core.n_vars != F.n_vars:
            raise AssembleError("a core needs F's field and n_vars")
        tried.insert(0, (F_core, {"core": note}))
    if perms is not None:
        from nullcert.symmetry import check_invariant
        maps = check_invariant(F, targets, perms)
    kinds = ("full",) if perms is None else ("orbit", "full")

    per_degree: List[DegreeStats] = []
    for d in schedule:
        t0 = time.perf_counter()
        for F_s, note in tried:
            # the local columns are those of the one target g = 1 at degree 1
            local = _local_shifts(F_s) if d == 1 and targets == one else None
            for kind in kinds:
                if kind == "orbit":
                    part, conclusive = _orbit_system(F_s, d, targets, perms, maps, memory_budget, local)
                    sizes = part.system.n_rows, part.system.n_cols, part.system.nnz
                else:
                    part, sizes = _assemble(F_s, d, targets, memory_budget, local)
                results = solve_multi_rhs(part.system, part.rhs_list)
                hit = next((k for k, r in enumerate(results) if r.consistent), None)
                status = "inconsistent" if hit is None else "consistent"
                millis = int((time.perf_counter() - t0) * 1000)
                per_degree.append(DegreeStats(d, *sizes, status, millis))
                if on_degree is not None:
                    on_degree(per_degree[-1])
                t0 = time.perf_counter()
                if hit is None:
                    # only an inconclusive orbit solve has the full system built
                    if kind == "orbit" and conclusive:
                        break
                    continue
                sym_desc = [list(gen) for gen in perms.generators] if kind == "orbit" else None
                grade = _grading_name(F_s, targets)
                prov = {**(provenance or {}), "symmetry": sym_desc, "degree": d, "pruning": grade, **note}
                cert = extract_certificate(F_s, part, results[hit].solution, targets[hit], prov)
                if not verify(cert):
                    raise AssembleError("internal error: extracted certificate failed re-verification")
                return NullaOutcome(cert, d, tuple(per_degree))
    return NullaOutcome(None, schedule[-1], tuple(per_degree))


__all__ = [
    "AssembleError",
    "AssembledSystem",
    "DegreeStats",
    "NullaOutcome",
    "alt_g_candidates",
    "assemble_orbit",
    "extract_certificate",
    "grading",
    "lift_solution",
    "nulla_prove",
    "stats",
]
