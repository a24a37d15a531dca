"""Degree-d certificate search: matrix assembly, the degree loop, extraction.

The existence of an identity g = sum_i beta_i f_i with deg(beta_i) <= d is
linear in the unknown multiplier coefficients.  One column per pair
(f_i, shift monomial x^delta), one row per monomial of the expanded products;
the entry at (x^alpha, (i, delta)) is the coefficient of x^alpha in
x^delta * f_i, and the right-hand side holds g's coefficients.  Consistency
of that system is exactly certificate existence at degree d.

nulla_prove is the one degree loop.  At each degree it tries the core's
system (if any), then F's.  Given a group, each is built as its orbit
system, and assembled only when the orbit solve is inconsistent and the
group order is not known coprime to p; without one it is assembled.  An
assembled system is peeled (below) before it is solved.  Each solve gets
one DegreeStats, with the full system's sizes.  The first consistent solve
is lifted (orbit), extracted and re-verified.  A degree refuted by a root
is only counted (see below).

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
rule is needed.  The products are counted in the blocks filing uses and
the budget is checked after each block on the full counts, so every
refusal and its message are those of the full system.  On wheel:101 at
degree 1 the 25,353 x 20,605 system peels to 1,012 x 1,112, the
certificate's neighbourhood; assemble() still builds the full system.

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
one column per orbit, entries summed over column-orbit members.  An orbit
solution always lifts to a full one, and so to a certificate that verifies.
The converse, full consistency implying orbit consistency, needs |G| coprime
to p; coprime_verified records that, so an inconsistent orbit system is
conclusive only when it is true, and nulla_prove otherwise solves the full
matrix of the same degree too.  The orbit system is built from F and the
group without the full matrix (_orbit_system): permuting packed monomials
is additive, so orbits are walked with each generator's images of the
shifts and of F's terms, and a representative row sums the coefficients of
F's terms that divide it.  On wheel:101 under its rim rotation that builds
253 x 206 where the full system is 25,353 x 20,706.

Refuting every degree by a root (the weak Nullstellensatz direction the
certificates rest on): g = sum_i beta_i f_i gives g(a) = sum_i beta_i(a)
f_i(a) = 0 at every common root a of F, over any extension field.  So a
common root at which g does not vanish rules out a certificate at every
degree, under any pruning or symmetry.  Over GF(2) a proper 3-coloring
gives such a point in GF(4), x_v = omega^(c_v); nulla_prove takes it as
root, evaluates F and the targets there once, before the degree loop, and
if the point passes records every degree inconsistent without elimination.
Such a degree is counted, not assembled (_sizes), with or without a symmetry
group: its stats carry the rows, columns and nonzeros its full system would
have, checked against the memory budget.  That evaluation alone carries
soundness: a wrong coloring, or a point that is no root, fails it and the
degrees are eliminated as usual, so no verdict depends on the coloring
search or on the matrices.

Column order: columns are numbered shift-major, (shift degree, shift, poly
index), in every field and in orbit systems too, whose representatives are
the least full-system indices.  The products x^delta * f_i sharing a row
monomial then have nearby shifts, so each row spans a narrow column window,
and the GF(2) bitset and GF(3) bit-plane eliminators, whose row operations
cost what a row spans, run several times faster than with the columns of
each f_i together.  Rank and consistency do not depend on the order; the
certificate does, through the free-variables-zero solution, and is
deterministic for the fixed order.

Inside the assembly a monomial is one int (_Packing): the total degree above
one exponent field per occurring variable, with fields wide enough that the
product x^delta * t is the sum of the two ints, and packed ^ flip sorting
exactly like Monomial.sort_key, so rows keep the graded order.  An
AssembledSystem keeps its keys packed; extract_certificate unpacks only the
shifts whose coefficient is nonzero.

Pruning modes:
  "occurring"   rows are the monomials that occur in some x^delta * f_i or
                in g (default); a monomial occurring nowhere would only add
                a zero row, so this never changes consistency
  "graded:<k>"  additionally drop columns (i, delta) unless
                deg(delta) + deg-class(f_i) == 0 mod k; requires every f_i
                homogeneous modulo k and every g degree == 0 mod k.  Sound and
                complete for such systems because the identity splits by
                residue class.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import accumulate, combinations_with_replacement, compress, islice
from math import comb, gcd
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from nullcert.certificate import Certificate, CertEntry, verify
from nullcert.linsolve import SparseSystem, _check_budget, solve_multi_rhs
from nullcert.poly import FieldSpec, Monomial, PolySystem, Polynomial, Record, set_field
from nullcert.symmetry import PermutationSet, SymmetryError, check_invariant, group_order


class AssembleError(ValueError):
    """Raised for invalid assembly requests (pruning misuse, bad targets)."""


# Columns filed between two memory-budget checks during assembly.
_BUDGET_BLOCK = 4096


class _Packing:
    """Monomials of n_vars variables, using only the listed ones, packed
    into one int.

    The total degree sits above one field of b bits per listed variable,
    ascending from the most significant field.  While every exponent fits
    in b bits, a product is the sum of the packed factors.  Within one
    degree, the order of sorted index tuples is reverse numeric order on the
    exponent fields, so packed ^ flip sorts exactly like Monomial.sort_key.
    """

    __slots__ = ("variables", "n_vars", "b", "flip", "units")

    def __init__(self, variables: Sequence[int], n_vars: int, b: int) -> None:
        self.variables = tuple(variables)
        self.n_vars = n_vars
        self.b = b
        n = len(self.variables)
        self.flip = (1 << n * b) - 1  # every exponent field set
        self.units = {v: (1 << n * b) | (1 << (n - 1 - j) * b) for j, v in enumerate(self.variables)}

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
        x &= self.flip
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

    def divisors(self, x: int) -> List[int]:
        """Every packed monomial dividing x, x and 1 included."""
        units = list(self.units.values())
        out = [0]
        for j, e in self._fields(x):
            out = [y + k * units[j] for y in out for k in range(e + 1)]
        return out

    def permute(self, positions: Sequence[int], x: int) -> int:
        """The packed monomial with field j moved to field positions[j]."""
        b, last = self.b, len(self.variables) - 1
        out = x & ~self.flip
        for j, e in self._fields(x):
            out |= e << (last - positions[j]) * b
        return out


class AssembledSystem(Record):
    """The degree-d system with one right-hand side per target; system
    carries rhs_list[0], the first target's.

    Keys stay packed by packing: a column is (poly index, packed shift), a
    row a packed monomial.  Wrapping ~10^5 keys per degree in Monomial costs
    more than the degrees that find nothing, so packing.unpack is applied
    only where a Monomial is needed.  In a peeled system (nulla_prove's),
    packed_cols and packed_rows are the surviving subsets, in the full
    system's order.
    """

    __slots__ = ("system", "rhs_list", "packing", "packed_cols", "packed_rows")

    def __init__(
        self,
        system: SparseSystem,
        rhs_list: List[List[int]],
        packing: _Packing,
        packed_cols: Tuple[Tuple[int, int], ...],
        packed_rows: Tuple[int, ...],
    ) -> None:
        set_field(self, "system", system)
        set_field(self, "rhs_list", rhs_list)
        set_field(self, "packing", packing)
        set_field(self, "packed_cols", packed_cols)
        set_field(self, "packed_rows", packed_rows)
        if system.n_cols != len(packed_cols):
            raise AssembleError("column key count does not match system width")
        if system.n_rows != len(packed_rows):
            raise AssembleError("row key count does not match system height")


class OrbitSystem(Record):
    """A degree-d system reduced to one row and one column per orbit, with
    what lifting and extraction need.

    Row k is the orbit of packed_rows[k], its member first in the graded
    order; column k is the orbit of the full column col_reps[k], its member
    of least full-system index.  packed_cols lists the full system's columns
    in its order, and col_orbit_index maps each to its orbit, so a lifted
    solution is extracted like a full one.  coprime_verified: the group
    order is known and coprime to p.
    """

    __slots__ = (
        "system", "rhs_list", "packing", "packed_cols", "packed_rows", "col_reps", "col_orbit_index",
        "group_order", "coprime_verified",
    )

    def __init__(
        self,
        system: SparseSystem,
        rhs_list: List[List[int]],
        packing: _Packing,
        packed_cols: Tuple[Tuple[int, int], ...],
        packed_rows: Tuple[int, ...],
        col_reps: Tuple[int, ...],
        col_orbit_index: Tuple[int, ...],
        group_order: Optional[int],
        coprime_verified: bool,
    ) -> None:
        set_field(self, "system", system)
        set_field(self, "rhs_list", rhs_list)
        set_field(self, "packing", packing)
        set_field(self, "packed_cols", packed_cols)
        set_field(self, "packed_rows", packed_rows)
        set_field(self, "col_reps", col_reps)
        set_field(self, "col_orbit_index", col_orbit_index)
        set_field(self, "group_order", group_order)
        set_field(self, "coprime_verified", coprime_verified)


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

    verdict "infeasible" carries the verified certificate and the degree at
    which it was found; "no_certificate_up_to" carries the largest degree
    tried and no certificate.  Feasibility is NOT decided in the latter case;
    every degree in per_degree was decided, by the full matrix whenever an
    orbit solve alone could not be.
    """

    __slots__ = ("verdict", "certificate", "degree", "per_degree")

    def __init__(
        self, verdict: str, certificate: Optional[Certificate], degree: int, per_degree: Tuple[DegreeStats, ...]
    ) -> None:
        set_field(self, "verdict", verdict)
        set_field(self, "certificate", certificate)
        set_field(self, "degree", degree)
        set_field(self, "per_degree", per_degree)


def _graded_modulus(pruning: str) -> Optional[int]:
    """k for "graded:<k>", None for "occurring"."""
    if pruning == "occurring":
        return None
    if pruning.startswith("graded:"):
        text = pruning[len("graded:"):]
        if not text.isdecimal() or int(text) < 2:
            raise AssembleError(f"bad graded pruning modulus in {pruning!r}")
        return int(text)
    raise AssembleError(f"unknown pruning mode {pruning!r}")


def _degree_classes(F: PolySystem, k: int) -> List[int]:
    """Residue class mod k of each poly's term degrees; error if mixed."""
    classes = []
    for i, f in enumerate(F.polys):
        residues = {m.degree % k for m, _ in f.terms}
        if len(residues) != 1:
            raise AssembleError(
                f"graded:{k} pruning needs each polynomial homogeneous mod {k}; "
                f"{F.tags[i]} mixes degree classes {sorted(residues)}"
            )
        classes.append(residues.pop())
    return classes


def _layout(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str,
    memory_budget: Optional[int],
) -> Tuple[_Packing, List[Tuple[Tuple[int, int], ...]], List[List[int]], List[List[int]]]:
    """Check a degree-d request and lay out what both the assembly and the
    count of its sizes read: the packing, each poly's packed terms, and per
    shift degree the polys that pruning keeps and the packed shifts.

    Shifts range over the variables that occur in F or a target: setting
    any other to 0 in a certificate gives one of no higher degree without
    it.  A group that leaves F invariant and fixes the targets maps this
    list onto itself.

    The memory budget is checked before any shift is listed, on the exact
    column count and a lower bound on the rows, so that a degree far over
    budget fails without enumerating its C(n+d, d) shifts."""
    if d < 0:
        raise AssembleError("degree must be >= 0")
    if not targets:
        raise AssembleError("need at least one target polynomial")
    for g in targets:
        if g.field != F.field or g.n_vars != F.n_vars:
            raise AssembleError("target field or n_vars mismatch")
        if g.is_zero():
            raise AssembleError("zero target gives a vacuous identity")
    k = _graded_modulus(pruning)

    if k is not None:
        classes = _degree_classes(F, k)
        for g in targets:
            bad = [m for m, _ in g.terms if m.degree % k != 0]
            if bad:
                raise AssembleError(
                    f"graded:{k} pruning needs target degrees == 0 mod {k}; "
                    f"target has degree-{bad[0].degree} monomial"
                )

    # No product exponent exceeds d + the top input degree; a target's own
    # monomials are rows too, so they must fit as well.
    polys = (*F.polys, *targets)
    top = max(f.degree for f in polys)
    variables = sorted({v for f in polys for m, _ in f.terms for v, _ in m.exponents})
    packing = _Packing(variables, F.n_vars, max(d + top, 1).bit_length())
    n = len(variables)
    poly_terms = [tuple((packing.pack(m), c) for m, c in f.terms) for f in F.polys]

    # Graded pruning keeps the shift degrees with deg + class(f_i) == 0 mod k.
    polys_at = [
        [i for i in range(len(poly_terms)) if k is None or (deg + classes[i]) % k == 0]
        for deg in range(d + 1)
    ]
    kept_shifts = [0] * len(poly_terms)
    for deg, kept in enumerate(polys_at):
        for i in kept:
            kept_shifts[i] += comb(n + deg - 1, deg) if n else int(deg == 0)
    # The shifts of one f_i times one of its terms are distinct rows.
    rows = max((c for c, terms in zip(kept_shifts, poly_terms) if terms), default=0)
    _check_budget(F.field, rows, sum(kept_shifts), memory_budget)
    shifts = [packing.monomials(deg) for deg in range(d + 1)]
    return packing, poly_terms, polys_at, shifts


def _sizes(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> Tuple[int, int, int]:
    """(rows, cols, nnz) of the system assemble would build, counted
    without building it; the memory budget is checked on the counts.

    A kept column (i, delta) holds one entry per term of f_i, since the
    terms of one f_i have distinct monomials; the rows are the distinct
    products delta + t and the target monomials.
    """
    packing, poly_terms, polys_at, shifts = _layout(F, d, targets, pruning, memory_budget)
    rows = {packing.pack(m) for g in targets for m, _ in g.terms}
    cols = nnz = 0
    for kept, deltas in zip(polys_at, shifts):
        cols += len(kept) * len(deltas)
        nnz += sum(len(poly_terms[i]) for i in kept) * len(deltas)
        for t in {t for i in kept for t, _ in poly_terms[i]}:
            rows.update(map(t.__add__, deltas))
    _check_budget(F.field, len(rows), cols, memory_budget)
    return len(rows), cols, nnz


def _peel(
    field: FieldSpec,
    cols: Iterator[Tuple[int, int]],
    polys_at: List[List[int]],
    shifts: List[List[int]],
    poly_terms: List[Tuple[Tuple[int, int], ...]],
    target_rows: Set[int],
    memory_budget: Optional[int],
) -> Tuple[List[Tuple[int, int]], Tuple[int, int, int]]:
    """The columns of cols, numbered by _layout's polys_at and shifts, that
    peeling leaves (see the module docstring), and the full system's (rows,
    cols, nnz), with the budget checked where filing checks it."""
    starts = list(accumulate((len(kept) * len(deltas) for kept, deltas in zip(polys_at, shifts)), initial=0))
    n_cols = starts[-1]

    def column(j: int) -> Tuple[int, int]:
        deg = bisect_right(starts, j) - 1
        k, r = divmod(j - starts[deg], len(polys_at[deg]))
        return polys_at[deg][r], shifts[deg][k]

    # per row monomial: its live products in the low 32 bits, the sum of
    # their columns above; a row with one live product names its column
    count = dict.fromkeys(target_rows, 0)
    get = count.get
    for start in range(0, n_cols + 1, _BUDGET_BLOCK):
        for j, (i, delta) in enumerate(islice(cols, _BUDGET_BLOCK), start):
            one = j << 32 | 1
            for t, _ in poly_terms[i]:
                m = delta + t
                count[m] = get(m, 0) + one
        _check_budget(field, len(count), n_cols, memory_budget)
    nnz = sum(len(poly_terms[i]) * len(deltas) for kept, deltas in zip(polys_at, shifts) for i in kept)
    sizes = len(count), n_cols, nnz
    mask = (1 << 32) - 1
    queue = [m for m, v in count.items() if v & mask == 1 and m not in target_rows]
    live = bytearray(b"\1") * n_cols
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
    return [column(j) for j in compress(range(n_cols), live)], sizes


def _assemble(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str,
    memory_budget: Optional[int],
    peel: bool,
) -> Tuple[AssembledSystem, Tuple[int, int, int]]:
    """assemble's system, peeled if peel is set, and the full system's
    (rows, cols, nnz)."""
    packing, poly_terms, polys_at, shifts = _layout(F, d, targets, pruning, memory_budget)
    cols = ((i, delta) for kept, deltas in zip(polys_at, shifts) if kept for delta in deltas for i in kept)
    n_cols = sum(len(kept) * len(deltas) for kept, deltas in zip(polys_at, shifts))
    target_rows = {packing.pack(m) for g in targets for m, _ in g.terms}
    sizes = None
    if peel:
        live, sizes = _peel(F.field, cols, polys_at, shifts, poly_terms, target_rows, memory_budget)
        cols, n_cols = iter(live), len(live)

    # One pass files each product x^delta * t under its row monomial.
    # Columns are visited in order and the terms of one f_i have distinct
    # monomials, so each row's entries come out strictly increasing.  A row
    # is filed flat (j, c, j, c, ...) and paired up one row at a time below,
    # so that a row's pairs sit together in memory for the eliminator.
    # Rows only grow, so the budget is checked on the rows filed so far
    # after each block of columns: a degree far over budget fails early,
    # not after every product is filed.  The last block is short, maybe
    # empty, so the last check is on the final counts, with or without columns.
    rows = defaultdict(list, {m: [] for m in target_rows})
    packed_cols: List[Tuple[int, int]] = []
    for start in range(0, n_cols + 1, _BUDGET_BLOCK):
        block = list(islice(cols, _BUDGET_BLOCK))
        for j, (i, delta) in enumerate(block, start):
            for t, c in poly_terms[i]:
                rows[delta + t].extend((j, c))
        packed_cols += block
        _check_budget(F.field, len(rows), n_cols, memory_budget)
    order = packing.flip.__xor__
    packed_rows = sorted(rows, key=order)

    rhs_list: List[List[int]] = []
    for g in targets:
        b = [0] * len(packed_rows)
        for m, c in g.terms:
            b[bisect_left(packed_rows, order(packing.pack(m)), key=order)] = c
        rhs_list.append(b)

    entries = []
    for m in packed_rows:
        flat = iter(rows[m])
        entries.append(tuple(zip(flat, flat)))
    system = SparseSystem(F.field, len(packed_rows), n_cols, tuple(entries), tuple(rhs_list[0]))
    sizes = sizes or (system.n_rows, system.n_cols, system.nnz)
    return AssembledSystem(system, rhs_list, packing, tuple(packed_cols), tuple(packed_rows)), sizes


def assemble(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> AssembledSystem:
    """Build the degree-d system once, with one rhs vector per target.

    The row universe covers every target's monomials, so the rhs vectors
    are interchangeable on the same matrix.  Columns are numbered (shift
    degree, shift, poly index); see the module docstring.

    This is the full system; nulla_prove solves it peeled (see "Peeling"
    in the module docstring).
    """
    return _assemble(F, d, targets, pruning, memory_budget, False)[0]


def _orbit_system(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    perms: PermutationSet,
    maps: Sequence[Sequence[int]],
    order: Optional[int],
    pruning: str,
    memory_budget: Optional[int],
) -> OrbitSystem:
    """The degree-d orbit system of F under perms, built without the full
    matrix (see "Orbit systems" in the module docstring).

    maps[k][i] is the index of generator k's image of f_i (check_invariant);
    order is the group order, None above the cap.  The orbit walks count
    the full system's rows and columns exactly, and the memory budget is
    checked on those counts.
    """
    packing, poly_terms, polys_at, shifts = _layout(F, d, targets, pruning, memory_budget)
    # the group maps the listed variables onto themselves (see _layout)
    position = {v: j for j, v in enumerate(packing.variables)}
    all_terms = {t for terms in poly_terms for t, _ in terms}
    target_monos = {packing.pack(m) for g in targets for m, _ in g.terms}
    images = []
    for pmap, generator in zip(maps, perms.generators):
        fields = [position[generator[v]] for v in packing.variables]
        images.append((
            pmap,
            {delta: packing.permute(fields, delta) for deltas in shifts for delta in deltas},
            {t: packing.permute(fields, t) for t in all_terms},
            {m: packing.permute(fields, m) for m in target_monos},
        ))

    # orbit_of[delta][i] is the orbit of column (i, delta), -1 until walked;
    # a missing key is an image outside the column set
    packed_cols = [(i, delta) for kept, deltas in zip(polys_at, shifts) if kept for delta in deltas for i in kept]
    orbit_of = {delta: dict.fromkeys(kept, -1) for kept, deltas in zip(polys_at, shifts) for delta in deltas}
    col_reps: List[int] = []
    try:
        for j, (i, delta) in enumerate(packed_cols):
            if orbit_of[delta][i] >= 0:
                continue
            pos = orbit_of[delta][i] = len(col_reps)
            col_reps.append(j)
            members = [(i, delta)]
            for poly, shift in members:
                for pmap, shift_image, _, _ in images:
                    image = pmap[poly], shift_image[shift]
                    at = orbit_of[image[1]]
                    if at[image[0]] < 0:
                        at[image[0]] = pos
                        members.append(image)
    except KeyError:
        raise SymmetryError("column set is not closed under the group") from None

    # Every row orbit holds a product of a column representative with one of
    # its terms; any other holds target monomials only, each the shift 0
    # times itself, and a member that is none leaves the row universe.  A
    # permutation keeps the degree, so the member first in the graded
    # order is the greatest packed int.
    seen = set()
    reps: List[int] = []
    products = ((packed_cols[j][1], t) for j in col_reps for t, _ in poly_terms[packed_cols[j][0]])
    walks = (
        ([(s, t) for _, s, t, _ in images], products),
        ([(s, g) for _, s, _, g in images], ((0, m) for m in target_monos)),
    )
    for pair_images, starts in walks:
        for delta, t in starts:
            rep = delta + t
            if rep in seen:
                continue
            seen.add(rep)
            member_shifts, member_terms = [delta], [t]
            try:
                for shift, term in zip(member_shifts, member_terms):
                    for shift_image, term_image in pair_images:
                        image_shift, image_term = shift_image[shift], term_image[term]
                        m = image_shift + image_term
                        if m not in seen:
                            seen.add(m)
                            member_shifts.append(image_shift)
                            member_terms.append(image_term)
                            if m > rep:
                                rep = m
            except KeyError:
                raise SymmetryError("row universe is not closed under the group") from None
            reps.append(rep)
    field = F.field
    _check_budget(field, len(seen), len(packed_cols), memory_budget)

    p = field.p
    divides: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for i, terms in enumerate(poly_terms):
        for t, c in terms:
            divides[t].append((i, c))
    packed_rows = sorted(reps, key=packing.flip.__xor__)
    orbit_rows: List[Tuple[Tuple[int, int], ...]] = []
    for m in packed_rows:
        acc: Dict[int, int] = defaultdict(int)
        for t in packing.divisors(m):
            at = orbit_of.get(m - t)
            if at is not None:
                for i, c in divides.get(t, ()):
                    o = at.get(i)
                    if o is not None:
                        acc[o] += c
        orbit_rows.append(tuple(sorted((o, v % p) for o, v in acc.items() if v % p)))
    rhs_list = []
    for g in targets:
        coeff = {packing.pack(m): c for m, c in g.terms}
        rhs_list.append([coeff.get(m, 0) for m in packed_rows])
    system = SparseSystem(field, len(packed_rows), len(col_reps), tuple(orbit_rows), tuple(rhs_list[0]))
    coprime = order is not None and gcd(order, p) == 1
    return OrbitSystem(
        system, rhs_list, packing, tuple(packed_cols), tuple(packed_rows), tuple(col_reps),
        tuple(o for deltas in shifts for delta in deltas for o in orbit_of[delta].values()), order, coprime,
    )


def assemble_orbit(
    F: PolySystem,
    d: int,
    g: Polynomial,
    perms: PermutationSet,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> OrbitSystem:
    """Build the degree-d orbit system of F under perms for the target g.

    Requires F invariant under every generator and g fixed by every
    generator (SymmetryError otherwise).  The full matrix is never built.
    """
    maps = check_invariant(F, [g], perms)
    return _orbit_system(F, d, [g], perms, maps, group_order(perms), pruning, memory_budget)


def lift_solution(orb: OrbitSystem, ybar: Sequence[int]) -> Tuple[int, ...]:
    """Expand an orbit solution to the full column set, constant on orbits."""
    if len(ybar) != orb.system.n_cols:
        raise SymmetryError("orbit solution length does not match orbit system")
    return tuple(ybar[o] for o in orb.col_orbit_index)


def stats(
    F: PolySystem,
    d: int,
    pruning: str = "occurring",
    g: Optional[Polynomial] = None,
    memory_budget: Optional[int] = None,
) -> dict:
    """Closed-form size predictions next to actual post-pruning sizes, keyed
    by the names the stats command prints.

    Predictions count the unpruned system over all n_vars variables:
    n_polys * C(n+d, d) columns and one matrix entry per (input monomial,
    shift) pair.  Actuals (rows, cols, nnz) are counted as assemble would
    build the system, with the requested pruning and shifts over the
    occurring variables only, without assembling the matrix.
    """
    if g is None:
        g = Polynomial.one(F.field, F.n_vars)
    rows, cols, nnz = _sizes(F, d, [g], pruning, memory_budget)
    shifts = comb(F.n_vars + d, d)
    monomials = sum(len(f.terms) for f in F.polys)
    return {
        "n_vars": F.n_vars,
        "polys": len(F),
        "monomials": monomials,
        "pruning": pruning,
        "degree": d,
        "predicted_cols": len(F) * shifts,
        "predicted_nnz": monomials * shifts,
        "rows": rows,
        "cols": cols,
        "nnz": nnz,
    }


def extract_certificate(
    F: PolySystem,
    asm: Union[AssembledSystem, OrbitSystem],
    solution: Sequence[int],
    target: Polynomial,
    provenance: Optional[dict] = None,
) -> Certificate:
    """Turn a solution over the full columns asm.packed_cols (of an
    assembled system, or of an orbit system's lifted solution) into
    multipliers: beta_i = sum y_(i,delta) x^delta.  Only the shifts whose
    coefficient is nonzero are unpacked."""
    if len(asm.packed_cols) != len(solution):
        raise AssembleError("solution length does not match the system's columns")
    unpack = asm.packing.unpack
    per_poly: Dict[int, List[Tuple[Monomial, int]]] = {}
    for (i, delta), v in zip(asm.packed_cols, solution):
        if v:
            per_poly.setdefault(i, []).append((unpack(delta), v))
    entries = tuple(
        CertEntry(F.tags[i], F.polys[i], Polynomial.make(F.field, F.n_vars, per_poly[i]))
        for i in sorted(per_poly)
    )
    return Certificate(F.field, F.n_vars, target, entries, dict(provenance or {}))


def _gf4_value(f: Polynomial, root: Sequence[int]) -> Tuple[int, int]:
    """GF(2) polynomial f at x_v = omega^root[v] in GF(4), as the coordinates
    (c0, c1) of c0 + c1*omega.

    f(a) = n_0 + n_1 omega + n_2 omega^2, n_e the parity of f's terms whose
    monomial takes the value omega^e, and omega^2 = 1 + omega; so f(a) = 0
    iff n_0 = n_1 = n_2.
    """
    n = [0, 0, 0]
    for m, _ in f.terms:
        n[sum(root[v] * e for v, e in m.exponents) % 3] ^= 1
    return n[0] ^ n[2], n[1] ^ n[2]


def nulla_prove(
    F: PolySystem,
    schedule: Sequence[int],
    g_candidates: Optional[Sequence[Polynomial]] = None,
    *,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
    provenance: Optional[dict] = None,
    perms: Optional[PermutationSet] = None,
    root: Optional[Sequence[int]] = None,
    core: Optional[Tuple[PolySystem, dict]] = None,
) -> NullaOutcome:
    """Search the degree schedule for a certificate; first hit wins.

    At each degree the systems are tried in one order: the core's (if
    given), then F's; every target candidate is a separate right-hand side
    of one elimination pass.  With perms, F and every target must be
    invariant under the group (SymmetryError otherwise); a system is solved
    as its orbit system, and assembled and solved in full only when that is
    inconsistent and the group order is not known coprime to p: only a
    coprime order makes an inconsistent orbit solve conclusive.  An
    assembled system is solved peeled (see the module docstring).  Each
    solve gets its own DegreeStats, with the full system's sizes.  The
    first consistent solve is lifted onto the full columns (orbit),
    extracted and re-verified by expansion before "infeasible" is returned;
    failure there is a solver bug and raises.

    root, over GF(2) only, is a candidate common root of F with one
    exponent per variable: x_v = omega^root[v], omega a cube root of unity
    in GF(4).  If every f_i vanishes there and no target does, no degree
    has a certificate (see the module docstring), and no degree is
    assembled, with or without perms: each gets one inconsistent
    DegreeStats with the sizes of its full system, and its millis covers
    only counting them.  Otherwise the degrees are solved as without a root.

    core = (F_core, note) is a smaller system over F's field and variables
    whose polynomials are polynomials of F's input (the encoding of an
    induced subgraph, say), so that a certificate for it is one for F.  It
    is solved for F's targets, and its certificate records note under
    provenance "core".  core excludes perms and root.
    """
    schedule = list(schedule)
    if not schedule:
        raise AssembleError("degree schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 0:
        raise AssembleError("degree schedule must be ascending and nonnegative")
    targets = list(g_candidates) if g_candidates else [Polynomial.one(F.field, F.n_vars)]
    if root is not None and (F.field.p != 2 or len(root) != F.n_vars):
        raise AssembleError("root needs GF(2) and one omega exponent per variable")
    refuted = (
        root is not None
        and not any(any(_gf4_value(f, root)) for f in F.polys)
        and all(any(_gf4_value(g, root)) for g in targets)
    )
    # The systems tried at each degree, in order, with the provenance each adds.
    tried = [(F, {})]
    if core is not None:
        if perms is not None or root is not None:
            raise AssembleError("a core excludes a symmetry group and a root")
        F_core, note = core
        if F_core.field != F.field or F_core.n_vars != F.n_vars:
            raise AssembleError("a core needs F's field and n_vars")
        tried.insert(0, (F_core, {"core": note}))
    if perms is not None:
        maps = check_invariant(F, targets, perms)
        order = group_order(perms)
    kinds = ("full",) if perms is None else ("orbit", "full")

    per_degree: List[DegreeStats] = []
    for d in schedule:
        t0 = time.perf_counter()
        if refuted:
            rows, cols, nnz = _sizes(F, d, targets, pruning, memory_budget)
            millis = int((time.perf_counter() - t0) * 1000)
            per_degree.append(DegreeStats(d, rows, cols, nnz, "inconsistent", millis))
            continue
        for F_s, note in tried:
            for kind in kinds:
                if kind == "orbit":
                    part = _orbit_system(F_s, d, targets, perms, maps, order, pruning, memory_budget)
                    sizes = part.system.n_rows, part.system.n_cols, part.system.nnz
                else:
                    part, sizes = _assemble(F_s, d, targets, pruning, memory_budget, True)
                results = solve_multi_rhs(part.system, part.rhs_list)
                hit = next((k for k, r in enumerate(results) if r.consistent), None)
                status = "inconsistent" if hit is None else "consistent"
                millis = int((time.perf_counter() - t0) * 1000)
                per_degree.append(DegreeStats(d, *sizes, status, millis))
                t0 = time.perf_counter()
                if hit is None:
                    # an inconsistent orbit solve is conclusive for a coprime
                    # order; only an inconclusive one has the full system built
                    if kind == "orbit" and part.coprime_verified:
                        break
                    continue
                sol = results[hit].solution
                sym_desc = None
                if kind == "orbit":
                    sol = lift_solution(part, sol)
                    sym_desc = [list(gen) for gen in perms.generators]
                prov = {**(provenance or {}), "symmetry": sym_desc, "degree": d, "pruning": pruning, **note}
                cert = extract_certificate(F_s, part, sol, targets[hit], prov)
                if not verify(cert):
                    raise AssembleError("internal error: extracted certificate failed re-verification")
                return NullaOutcome("infeasible", cert, d, tuple(per_degree))
    return NullaOutcome("no_certificate_up_to", None, schedule[-1], tuple(per_degree))


__all__ = [
    "AssembleError",
    "AssembledSystem",
    "DegreeStats",
    "NullaOutcome",
    "OrbitSystem",
    "assemble",
    "assemble_orbit",
    "extract_certificate",
    "lift_solution",
    "nulla_prove",
    "stats",
]
