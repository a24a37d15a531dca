"""Degree-d certificate search: matrix assembly, the degree loop, extraction.

The existence of an identity g = sum_i beta_i f_i with deg(beta_i) <= d is
linear in the unknown multiplier coefficients.  One column per pair
(f_i, shift monomial x^delta), one row per monomial of the expanded products;
the entry at (x^alpha, (i, delta)) is the coefficient of x^alpha in
x^delta * f_i, and the right-hand side holds g's coefficients.  Consistency
of that system is exactly certificate existence at degree d.

nulla_prove is the one degree loop: per degree it assembles the system once
(or only counts it, when a root refutes every degree; see below),
optionally collapses it to orbits of a variable symmetry group, solves it,
lifts the solution back onto the full columns, and extracts and re-verifies
the certificate.

Core first: given a core, a smaller system whose polynomials are F's input
polynomials under a renaming of variables (the encoding of an induced
subgraph), nulla_prove solves the core's system before F's at each degree.
A certificate for the core, renamed into F's variables, is a certificate
for F, so F's system is solved at a degree only when the core's is
inconsistent there.  The certificate degree is never higher than without
the core, and a graph far too large to assemble can still be certified.

Orbit collapse: a permutation group on the variables (nullcert.symmetry)
permutes the rows (monomials) and columns (shifted polynomials).  When F is
invariant under the group and every target is fixed by it, solutions may be
assumed constant on column orbits, so the system collapses to one row and
one column per orbit, entries summed over column-orbit members.  An orbit
solution always lifts to a full one, and so to a certificate that verifies.
The converse, full consistency implying orbit consistency, needs |G| coprime
to p; coprime_verified records that, so an inconsistent orbit system is
conclusive only when it is true, and nulla_prove otherwise solves the full
matrix of the same degree too.

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

Column order: assemble() and the orbit assembly number columns poly-major
(poly index, shift degree, shift).  Over GF(2) nulla_prove numbers them
shift-major (shift degree, shift, poly index) instead: the products
x^delta * f_i sharing a row monomial then have nearby shifts, so each row
spans a narrow column window and the bitset eliminator, whose cost follows
that span, runs several times faster.  Rank and consistency do not depend
on the order; the certificate does, through the free-variables-zero
solution, and is deterministic for the fixed order.  GF(p) keeps poly-major,
where shift-major did not speed up the dict eliminator.

Inside the assembly a monomial is one int (_Packing): the total degree above
one exponent field per variable, with fields wide enough that the product
x^delta * t is the sum of the two ints, and packed ^ flip sorting exactly
like Monomial.sort_key, so rows keep the graded order.  An AssembledSystem
keeps its keys packed and unpacks them to Monomial only on first use of
col_keys or row_keys; nulla_prove unpacks only the certificate's shifts.

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
from bisect import bisect_left
from collections import defaultdict
from functools import cached_property
from itertools import combinations_with_replacement, islice
from math import comb, gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from nullcert.certificate import Certificate, CertEntry, verify
from nullcert.linsolve import SparseSystem, _check_budget, solve_multi_rhs
from nullcert.poly import Monomial, PolySystem, Polynomial, Record, set_field
from nullcert.symmetry import PermutationSet, SymmetryError, check_invariant, group_order


class AssembleError(ValueError):
    """Raised for invalid assembly requests (pruning misuse, bad targets)."""


# Columns filed between two memory-budget checks during assembly.
_BUDGET_BLOCK = 4096


class _Packing:
    """Monomials of n variables packed into one int.

    The total degree sits above n fields of b bits, one exponent each, with
    variable 0 in the most significant field.  While every exponent fits in
    b bits, a product is the sum of the packed factors.  Within one degree,
    tuple order on expanded monomials is reverse numeric order on the
    exponent fields, so packed ^ flip sorts exactly like Monomial.sort_key.
    """

    __slots__ = ("n", "b", "flip")

    def __init__(self, n: int, b: int) -> None:
        self.n = n
        self.b = b
        self.flip = (1 << n * b) - 1  # every exponent field set

    def _unit(self, v: int) -> int:
        return (1 << self.n * self.b) | (1 << (self.n - 1 - v) * self.b)

    def pack(self, m: Monomial) -> int:
        return sum(e * self._unit(v) for v, e in m.exponents)

    def monomials(self, degree: int) -> List[int]:
        """All packed monomials of exact degree, in graded order."""
        units = [self._unit(v) for v in range(self.n)]
        return [sum(c) for c in combinations_with_replacement(units, degree)]

    def _fields(self, x: int) -> List[Tuple[int, int]]:
        """(bit offset, exponent) of each nonzero exponent field, highest
        field first, i.e. variables ascending."""
        b = self.b
        x &= self.flip
        out = []
        while x:
            shift = (x.bit_length() - 1) // b * b
            e = x >> shift  # every higher field is already cleared
            out.append((shift, e))
            x ^= e << shift
        return out

    def unpack(self, x: int) -> Monomial:
        last = self.n - 1
        return Monomial(
            tuple((last - shift // self.b, e) for shift, e in self._fields(x)), self.n
        )

    def permute(self, images: Sequence[int], x: int) -> int:
        """The packed monomial with variable v renamed to images[v]."""
        b, last = self.b, self.n - 1
        out = x & ~self.flip
        for shift, e in self._fields(x):
            out |= e << (last - images[last - shift // b]) * b
        return out


class ColumnKey(Record):
    """Which multiplier coefficient a column stands for: x^shift on poly i."""

    __slots__ = ("poly_index", "shift")

    def __init__(self, poly_index: int, shift: Monomial) -> None:
        set_field(self, "poly_index", poly_index)
        set_field(self, "shift", shift)


class AssembledSystem(Record):
    """The degree-d system with one right-hand side per target; system
    carries rhs_list[0], the one of target.

    Keys stay packed by packing: a column is (poly index, packed shift), a
    row a packed monomial.  Wrapping ~10^5 keys per degree in Monomial costs
    more than the degrees that find nothing, so col_keys and row_keys unpack
    on first use, and nulla_prove never reads them.
    """

    __slots__ = ("system", "rhs_list", "packing", "packed_cols", "packed_rows", "degree", "target", "__dict__")

    def __init__(
        self,
        system: SparseSystem,
        rhs_list: List[List[int]],
        packing: _Packing,
        packed_cols: Tuple[Tuple[int, int], ...],
        packed_rows: Tuple[int, ...],
        degree: int,
        target: Polynomial,
    ) -> None:
        set_field(self, "system", system)
        set_field(self, "rhs_list", rhs_list)
        set_field(self, "packing", packing)
        set_field(self, "packed_cols", packed_cols)
        set_field(self, "packed_rows", packed_rows)
        set_field(self, "degree", degree)
        set_field(self, "target", target)
        if system.n_cols != len(packed_cols):
            raise AssembleError("column key count does not match system width")
        if system.n_rows != len(packed_rows):
            raise AssembleError("row key count does not match system height")

    @cached_property
    def col_keys(self) -> Tuple[ColumnKey, ...]:
        unpack = self.packing.unpack
        return tuple(ColumnKey(i, unpack(delta)) for i, delta in self.packed_cols)

    @cached_property
    def row_keys(self) -> Tuple[Monomial, ...]:
        return tuple(map(self.packing.unpack, self.packed_rows))


class OrbitSystem(Record):
    """An assembled system collapsed to orbits, with what lifting needs.

    Representatives are the orbit members of least full-system index, listed
    in that order; col_orbit_index maps each full column to its orbit
    position.  coprime_verified: the group order is known and coprime to p.
    """

    __slots__ = (
        "system", "rhs_list", "full", "row_reps", "col_reps", "col_orbit_index", "group_order",
        "coprime_verified", "__dict__",
    )

    def __init__(
        self,
        system: SparseSystem,
        rhs_list: List[List[int]],
        full: AssembledSystem,
        row_reps: Tuple[int, ...],
        col_reps: Tuple[int, ...],
        col_orbit_index: Tuple[int, ...],
        group_order: Optional[int],
        coprime_verified: bool,
    ) -> None:
        set_field(self, "system", system)
        set_field(self, "rhs_list", rhs_list)
        set_field(self, "full", full)
        set_field(self, "row_reps", row_reps)
        set_field(self, "col_reps", col_reps)
        set_field(self, "col_orbit_index", col_orbit_index)
        set_field(self, "group_order", group_order)
        set_field(self, "coprime_verified", coprime_verified)

    @property
    def full_col_keys(self) -> Tuple[ColumnKey, ...]:
        return self.full.col_keys

    @cached_property
    def row_orbits(self) -> Tuple[Monomial, ...]:
        return tuple(self.full.row_keys[r] for r in self.row_reps)

    @cached_property
    def col_orbits(self) -> Tuple[ColumnKey, ...]:
        return tuple(self.full_col_keys[j] for j in self.col_reps)


class SystemStats(Record):
    __slots__ = (
        "n_vars", "n_polys", "monomial_total", "degree", "predicted_cols", "predicted_nnz",
        "actual_rows", "actual_cols", "actual_nnz",
    )

    def __init__(
        self,
        n_vars: int,
        n_polys: int,
        monomial_total: int,
        degree: int,
        predicted_cols: int,
        predicted_nnz: int,
        actual_rows: int,
        actual_cols: int,
        actual_nnz: int,
    ) -> None:
        set_field(self, "n_vars", n_vars)
        set_field(self, "n_polys", n_polys)
        set_field(self, "monomial_total", monomial_total)
        set_field(self, "degree", degree)
        set_field(self, "predicted_cols", predicted_cols)
        set_field(self, "predicted_nnz", predicted_nnz)
        set_field(self, "actual_rows", actual_rows)
        set_field(self, "actual_cols", actual_cols)
        set_field(self, "actual_nnz", actual_nnz)


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
        if not text.isdigit() or int(text) < 2:
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

    The memory budget is checked before any shift is listed, on the exact
    column count and a lower bound on the rows, so that a degree far over
    budget fails without enumerating its C(n+d, d) shifts."""
    if d < 0:
        raise AssembleError("degree must be >= 0")
    if not targets:
        raise AssembleError("need at least one target polynomial")
    n = F.n_vars
    for g in targets:
        if g.field != F.field or g.n_vars != n:
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
    top = max(f.degree for f in (*F.polys, *targets))
    packing = _Packing(n, max(d + top, 1).bit_length())
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
    """(rows, cols, nnz) of the system _assemble_targets would build, counted
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


def _assemble_targets(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
    *,
    shift_major: bool = False,
) -> AssembledSystem:
    """Build the degree-d system once, with one rhs vector per target.

    The row universe covers every target's monomials, so the rhs vectors
    are interchangeable on the same matrix.  Columns are poly-major
    (poly index, shift degree, shift), the public order; shift_major orders
    them (shift degree, shift, poly index) instead, which keeps each row's
    columns close together (see nulla_prove).
    """
    packing, poly_terms, polys_at, shifts = _layout(F, d, targets, pruning, memory_budget)
    # Enumerate columns in global order, poly-major or shift-major.
    if shift_major:
        cols = (
            (i, delta)
            for deg in range(d + 1)
            if polys_at[deg]
            for delta in shifts[deg]
            for i in polys_at[deg]
        )
    else:
        cols = (
            (i, delta)
            for i in range(len(poly_terms))
            for deg in range(d + 1)
            if i in polys_at[deg]
            for delta in shifts[deg]
        )
    n_cols = sum(len(kept) * len(deltas) for kept, deltas in zip(polys_at, shifts))

    # One pass files each product x^delta * t under its row monomial.
    # Columns are visited in order and the terms of one f_i have distinct
    # monomials, so each row's entries come out strictly increasing.  A row
    # is filed flat (j, c, j, c, ...) and paired up one row at a time below,
    # so that a row's pairs sit together in memory for the eliminator.
    # Rows only grow, so the budget is checked on the rows filed so far
    # after each block of columns: a degree far over budget fails early,
    # not after every product is filed.
    rows = defaultdict(list, {packing.pack(m): [] for g in targets for m, _ in g.terms})
    col_keys: List[Tuple[int, int]] = []
    while block := list(islice(cols, _BUDGET_BLOCK)):
        for j, (i, delta) in enumerate(block, len(col_keys)):
            for t, c in poly_terms[i]:
                rows[delta + t].extend((j, c))
        col_keys += block
        _check_budget(F.field, len(rows), n_cols, memory_budget)
    order = packing.flip.__xor__
    row_keys = sorted(rows, key=order)

    rhs_list: List[List[int]] = []
    for g in targets:
        b = [0] * len(row_keys)
        for m, c in g.terms:
            b[bisect_left(row_keys, order(packing.pack(m)), key=order)] = c
        rhs_list.append(b)

    entries = []
    for m in row_keys:
        flat = iter(rows[m])
        entries.append(tuple(zip(flat, flat)))
    system = SparseSystem._unchecked(F.field, len(col_keys), entries, rhs_list[0], memory_budget)
    return AssembledSystem(
        system, rhs_list, packing, tuple(col_keys), tuple(row_keys), d, targets[0]
    )


def assemble(
    F: PolySystem,
    d: int,
    g: Polynomial,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> AssembledSystem:
    """Build the degree-d linear system for one target polynomial."""
    return _assemble_targets(F, d, [g], pruning, memory_budget)


def _find(parent: List[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: List[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return
    if rb < ra:
        ra, rb = rb, ra
    # root stays the least member, so roots double as representatives
    parent[rb] = ra


def _collapse(
    full: AssembledSystem,
    perms: PermutationSet,
    maps: Sequence[Sequence[int]],
    order: Optional[int],
    memory_budget: Optional[int],
) -> OrbitSystem:
    """Fold an assembled system to one row/column per orbit of perms.

    maps[k][i] is the index of generator k's image of f_i (check_invariant);
    order is the group order, None above the cap.  Entries are summed over
    column-orbit members at each row representative; every right-hand side
    is read at the row representatives.
    """
    n_rows, n_cols = full.system.n_rows, full.system.n_cols
    col_pos = {key: j for j, key in enumerate(full.packed_cols)}
    row_pos = {mono: r for r, mono in enumerate(full.packed_rows)}
    permute = full.packing.permute

    row_parent = list(range(n_rows))
    col_parent = list(range(n_cols))
    for gen_pos, images in enumerate(perms.generators):
        pmap = maps[gen_pos]
        for r, mono in enumerate(full.packed_rows):
            image = row_pos.get(permute(images, mono))
            if image is None:
                raise SymmetryError("row universe is not closed under the group")
            _union(row_parent, r, image)
        # many columns share a shift; permute each shift once
        shift_image = {delta: permute(images, delta) for delta in {d for _, d in full.packed_cols}}
        for j, (i, delta) in enumerate(full.packed_cols):
            image = col_pos.get((pmap[i], shift_image[delta]))
            if image is None:
                raise SymmetryError("column set is not closed under the group")
            _union(col_parent, j, image)

    row_reps = sorted({_find(row_parent, r) for r in range(n_rows)})
    col_reps = sorted({_find(col_parent, j) for j in range(n_cols)})
    col_orbit_of = {rep: pos for pos, rep in enumerate(col_reps)}
    col_orbit_index = tuple(col_orbit_of[_find(col_parent, j)] for j in range(n_cols))

    field = full.system.field
    p = field.p
    orbit_rows: List[List[Tuple[int, int]]] = []
    for rep in row_reps:
        acc: Dict[int, int] = {}
        for c, v in full.system.rows[rep]:
            oc = col_orbit_index[c]
            acc[oc] = (acc.get(oc, 0) + v) % p
        orbit_rows.append(sorted((oc, v) for oc, v in acc.items() if v))
    orbit_rhs = [[rhs[rep] for rep in row_reps] for rhs in full.rhs_list]
    system = SparseSystem._unchecked(
        field, len(col_reps), orbit_rows, orbit_rhs[0], memory_budget
    )
    coprime = order is not None and gcd(order, p) == 1
    return OrbitSystem(
        system, orbit_rhs, full, tuple(row_reps), tuple(col_reps), col_orbit_index, order, coprime
    )


def assemble_orbit(
    F: PolySystem,
    d: int,
    g: Polynomial,
    perms: PermutationSet,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> OrbitSystem:
    """Assemble the degree-d system and collapse it to orbits.

    Requires F invariant under every generator and g fixed by every
    generator (SymmetryError otherwise).  The full matrix is materialized
    first (assembly is cheap relative to elimination; the savings are in
    the solve).
    """
    maps = check_invariant(F, [g], perms)
    full = _assemble_targets(F, d, [g], pruning, memory_budget)
    return _collapse(full, perms, maps, group_order(perms), memory_budget)


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
) -> SystemStats:
    """Closed-form size predictions next to actual post-pruning sizes.

    Predictions count the unpruned system: n_polys * C(n+d, d) columns and
    one matrix entry per (input monomial, shift) pair.  Actuals are counted
    with the requested pruning, without assembling the matrix.
    """
    if g is None:
        g = Polynomial.one(F.field, F.n_vars)
    rows, cols, nnz = _sizes(F, d, [g], pruning, memory_budget)
    shifts = comb(F.n_vars + d, d)
    monomial_total = sum(len(f.terms) for f in F.polys)
    return SystemStats(
        n_vars=F.n_vars,
        n_polys=len(F),
        monomial_total=monomial_total,
        degree=d,
        predicted_cols=len(F) * shifts,
        predicted_nnz=monomial_total * shifts,
        actual_rows=rows,
        actual_cols=cols,
        actual_nnz=nnz,
    )


def _cert_from_support(
    F: PolySystem,
    support: Iterable[Tuple[int, Monomial, int]],
    target: Polynomial,
    provenance: Optional[dict],
) -> Certificate:
    """Assemble certificate entries from (poly index, shift, coefficient)."""
    per_poly: Dict[int, List[Tuple[Monomial, int]]] = {}
    for i, shift, v in support:
        per_poly.setdefault(i, []).append((shift, v))
    entries = []
    for i in sorted(per_poly):
        beta = Polynomial.make(F.field, F.n_vars, dict(per_poly[i]))
        entries.append(CertEntry(F.tags[i], F.polys[i], beta))
    return Certificate(
        field=F.field,
        n_vars=F.n_vars,
        target=target,
        entries=tuple(entries),
        provenance=dict(provenance or {}),
    )


def _extract(
    F: PolySystem, asm: AssembledSystem, sol: Sequence[int], target: Polynomial, provenance: dict
) -> Certificate:
    """extract_certificate on an assembly's packed columns, unpacking only
    the shifts that carry a nonzero coefficient."""
    support = (
        (i, asm.packing.unpack(delta), sol[j])
        for j, (i, delta) in enumerate(asm.packed_cols)
        if sol[j]
    )
    return _cert_from_support(F, support, target, provenance)


def extract_certificate(
    F: PolySystem,
    col_keys: Sequence[ColumnKey],
    solution: Sequence[int],
    target: Polynomial,
    provenance: Optional[dict] = None,
) -> Certificate:
    """Turn a solution vector into multipliers: beta_i = sum y_(i,delta) x^delta."""
    if len(col_keys) != len(solution):
        raise AssembleError("solution length does not match column keys")
    support = (
        (ck.poly_index, ck.shift, solution[j])
        for j, ck in enumerate(col_keys)
        if solution[j]
    )
    return _cert_from_support(F, support, target, provenance)


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


def _core_targets(
    F: PolySystem, F_core: PolySystem, images: Sequence[int], targets: Sequence[Polynomial]
) -> List[Polynomial]:
    """Check a core against F and rename the targets into its variables."""
    if F_core.field != F.field or len(images) != F_core.n_vars:
        raise AssembleError("core needs F's field and one image per core variable")
    if len(set(images)) != len(images) or not all(0 <= v < F.n_vars for v in images):
        raise AssembleError("core images must be distinct variables of F")
    inverse = {v: j for j, v in enumerate(images)}
    if any(v not in inverse for g in targets for m, _ in g.terms for v, _ in m.exponents):
        raise AssembleError("a target uses a variable outside the core")
    to_core = [inverse.get(v, -1) for v in range(F.n_vars)]
    return [g.renamed(to_core, F_core.n_vars) for g in targets]


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
    core: Optional[Tuple[PolySystem, Sequence[int], dict]] = None,
) -> NullaOutcome:
    """Search the degree schedule for a certificate; first hit wins.

    Each degree assembles one matrix (shift-major columns over GF(2), see
    the module docstring) and tests every target candidate as a separate
    right-hand side in one elimination pass.  With perms, F and
    every target must be invariant under the group (SymmetryError
    otherwise); the matrix is collapsed to orbits before the solve and an
    orbit solution is lifted back onto the full columns.  An inconsistent
    orbit solve is conclusive only when the group order is coprime to p;
    otherwise the full matrix already assembled at that degree is solved
    too, with its own DegreeStats entry.  An "infeasible" verdict is
    returned only after the extracted certificate re-verifies by expansion;
    failure there is a solver bug and raises.

    root, over GF(2) only, is a candidate common root of F with one
    exponent per variable: x_v = omega^root[v], omega a cube root of unity
    in GF(4).  If every f_i vanishes there and no target does, no degree
    has a certificate (see the module docstring), and no degree is
    assembled, with or without perms: each gets one inconsistent
    DegreeStats with the sizes of its full system, and its millis covers
    only counting them.  Otherwise the degrees are solved as without a root.

    core = (F_core, images, note) is a smaller system whose polynomials,
    with core variable j renamed to F's variable images[j], are
    polynomials of F's input (the encoding of an induced subgraph, say),
    so that a certificate for it is one for F.  At each degree the core's
    system is assembled and solved first, with the same pruning, budget
    and targets renamed into its variables, and gets its own DegreeStats;
    only when it is inconsistent is F's system solved, exactly as without
    a core.  A core certificate is renamed into F's variables, recorded
    with note under provenance "core", and re-verified.  Every target must
    lie in the core's variables, and core excludes perms and root.
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
    if core is not None:
        if perms is not None or root is not None:
            raise AssembleError("a core excludes a symmetry group and a root")
        F_core, images, note = core
        core_targets = _core_targets(F, F_core, images, targets)
    if perms is not None:
        maps = check_invariant(F, targets, perms)
        order = group_order(perms)
        sym_desc = [list(gen) for gen in perms.generators]
    shift_major = F.field.p == 2

    per_degree: List[DegreeStats] = []

    def solved(d: int, system: SparseSystem, rhs_set: List[List[int]], t0: float):
        """Solve one attempt and record its DegreeStats; the first
        consistent target's index and solution, or None."""
        results = solve_multi_rhs(system, rhs_set)
        hit = next((idx for idx, r in enumerate(results) if r.consistent), None)
        status = "consistent" if hit is not None else "inconsistent"
        millis = int((time.perf_counter() - t0) * 1000)
        per_degree.append(DegreeStats(d, system.n_rows, system.n_cols, system.nnz, status, millis))
        return None if hit is None else (hit, results[hit].solution)

    def proved(d: int, cert: Certificate) -> NullaOutcome:
        if not verify(cert):
            raise AssembleError("internal error: extracted certificate failed re-verification")
        return NullaOutcome("infeasible", cert, d, tuple(per_degree))

    for d in schedule:
        t0 = time.perf_counter()
        if refuted:
            rows, cols, nnz = _sizes(F, d, targets, pruning, memory_budget)
            millis = int((time.perf_counter() - t0) * 1000)
            per_degree.append(DegreeStats(d, rows, cols, nnz, "inconsistent", millis))
            continue
        prov = {**(provenance or {}), "symmetry": None, "degree": d, "pruning": pruning}
        if core is not None:
            part = _assemble_targets(F_core, d, core_targets, pruning, memory_budget, shift_major=shift_major)
            found = solved(d, part.system, part.rhs_list, t0)
            t0 = time.perf_counter()
            if found is not None:
                hit, sol = found
                on_core = _extract(F_core, part, sol, core_targets[hit], {**prov, "core": note})
                n = F.n_vars
                entries = tuple(
                    CertEntry(e.tag, e.source.renamed(images, n), e.multiplier.renamed(images, n))
                    for e in on_core.entries
                )
                return proved(d, Certificate(F.field, n, targets[hit], entries, on_core.provenance))
        full = _assemble_targets(F, d, targets, pruning, memory_budget, shift_major=shift_major)
        # (system, right-hand sides, orbit system to lift from or None)
        attempts = [(full.system, full.rhs_list, None)]
        if perms is not None:
            orb = _collapse(full, perms, maps, order, memory_budget)
            attempts = [(orb.system, orb.rhs_list, orb)]
            if not orb.coprime_verified:
                attempts.append((full.system, full.rhs_list, None))
        for system, rhs_set, lift_from in attempts:
            found = solved(d, system, rhs_set, t0)
            t0 = time.perf_counter()
            if found is None:
                continue
            hit, sol = found
            if lift_from is not None:
                sol = lift_solution(lift_from, sol)
                prov["symmetry"] = sym_desc
            return proved(d, _extract(F, full, sol, targets[hit], prov))
    return NullaOutcome("no_certificate_up_to", None, schedule[-1], tuple(per_degree))


__all__ = [
    "AssembleError",
    "AssembledSystem",
    "ColumnKey",
    "DegreeStats",
    "NullaOutcome",
    "OrbitSystem",
    "SystemStats",
    "assemble",
    "assemble_orbit",
    "extract_certificate",
    "lift_solution",
    "nulla_prove",
    "stats",
]
