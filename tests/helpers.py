"""Shared test-only oracles: monomials as index tuples, systems in graded
row order, random polynomials, polynomial product and evaluation, a reference certificate check, GF(4)
evaluation, checked hand-built linear systems, right-hand sides and
solutions, dense reference eliminators, a reference orbit fold, a
reference group order, model rotation with one coloring copy per step,
and a spy on the local-column rule.

These deliberately take different implementation routes from the package so
they can serve as independent cross-checks.  The exception is full_system,
the unpeeled system that prove peels, filed by the package's own layout,
and its ungraded reference, which keeps every poly at every shift degree.
GF3_DEGREE3 is one input system that more than one test module solves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from nullcert import assemble, linsolve
from nullcert.assemble import AssembledSystem, _file, _layout, _Layout, lift_solution
from nullcert.poly import FieldSpec, Monomial, PolyError, PolySystem, Polynomial

# ---------------------------------------------------------------------------
# Monomials as index tuples; polynomial product and evaluation over GF(p),
# term by term.


def expanded(m: Monomial) -> Tuple[int, ...]:
    """Sorted variable indices with multiplicity, e.g. (0, 0, 1) for x1^2*x2."""
    return tuple(v for v, e in m.exponents for _ in range(e))


def from_vars(variables: Sequence[int], n_vars: int) -> Monomial:
    """The monomial of a variable list with multiplicity, e.g. (0, 0, 1) = x1^2*x2."""
    pairs = tuple((v, len(list(grp))) for v, grp in itertools.groupby(sorted(variables)))
    return Monomial(pairs, n_vars)


def monomials_up_to(n_vars: int, d: int) -> List[Monomial]:
    """All monomials of total degree <= d in graded order, each degree
    listed in the order of its sorted index tuples; C(n_vars + d, d) of them."""
    if d < 0:
        raise PolyError("degree bound must be nonnegative")
    return [
        from_vars(tup, n_vars)
        for deg in range(d + 1)
        for tup in itertools.combinations_with_replacement(range(n_vars), deg)
    ]


def row_monomials(asm, indices: Optional[Iterable[int]] = None) -> List[Monomial]:
    """An AssembledSystem's row keys unpacked, or only those at indices."""
    rows = asm.packed_rows
    return [asm.packing.unpack(rows[r]) for r in (range(len(rows)) if indices is None else indices)]


def monomial_orbit(m: Monomial, perms) -> List[Monomial]:
    """The orbit of m under the group perms generates, by renaming its
    variables, m first."""
    orbit, seen = [m], {m}
    for x in orbit:  # grows while it is read
        for gen in perms.generators:
            image = Monomial.make([(gen[v], e) for v, e in x.exponents], x.n_vars)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def graded(asm, perms=None) -> AssembledSystem:
    """asm with its rows, and the right-hand sides' row indices, in graded
    order, by the unpacked Monomial.sort_key: the order the paper's tables
    print.  Given perms, asm is an orbit system under them, and each row is
    keyed by its orbit's graded-first member, as a table of orbits names it.
    Right-hand-side entries come out ascending by row."""
    keys = row_monomials(asm)
    if perms is not None:
        keys = [min(monomial_orbit(m, perms), key=Monomial.sort_key) for m in keys]
    order = sorted(range(len(keys)), key=lambda r: keys[r].sort_key())
    at = {r: k for k, r in enumerate(order)}
    system = linsolve.SparseSystem(asm.system.field, asm.system.n_cols, tuple(asm.system.rows[r] for r in order))
    rhs_list = [sorted((at[r], c) for r, c in rhs) for rhs in asm.rhs_list]
    packed_rows = tuple(asm.packing.pack(keys[r]) for r in order)
    return AssembledSystem(system, rhs_list, asm.packing, asm.packed_cols, packed_rows, asm.col_images)


def columns(asm, indices: Optional[Iterable[int]] = None) -> List[Tuple[int, Monomial]]:
    """(poly index, shift) of an AssembledSystem's packed_cols, shift
    unpacked, or only of those at indices."""
    cols = asm.packed_cols
    return [
        (cols[j][0], asm.packing.unpack(cols[j][1]))
        for j in (range(len(cols)) if indices is None else indices)
    ]


def orbit_members(asm) -> List[List[Tuple[int, int]]]:
    """Each system column of asm as the sorted full columns (poly index,
    packed shift) that lift_solution gives for its unit vector, after
    checking that it gives each at value 1."""
    out = []
    for o in range(asm.system.n_cols):
        lifted = lift_solution(asm, [(o, 1)])
        assert {v for _, v in lifted} == {1}
        out.append(sorted(col for col, _ in lifted))
    return out


def layout(F: PolySystem, d: int, targets: Sequence[Polynomial], graded: bool = True):
    """The package's degree-d _Layout, or with graded False its ungraded
    reference: every poly at every shift degree, as if the grading were 1."""
    lay = _layout(F, d, targets, None)
    if graded:
        return lay
    ref = _Layout(lay.packing, lay.poly_terms, lay.target_terms, [list(range(len(F.polys)))] * (d + 1))
    ref.shifts = [lay.packing.monomials(deg) for deg in range(d + 1)]
    return ref


def full_system(F: PolySystem, d: int, targets: Sequence[Polynomial], graded: bool = True):
    """The degree-d AssembledSystem on every column of layout(F, d, targets,
    graded), unpeeled, with one right-hand side per target."""
    lay = layout(F, d, targets, graded)
    return _file(F.field, lay, list(lay.columns()))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    terms = [(ma.mul(mb), ca * cb) for ma, ca in a.terms for mb, cb in b.terms]
    return Polynomial.make(a.field, a.n_vars, terms)


def random_poly(rng, field: FieldSpec, n_vars: int, max_degree: int) -> Polynomial:
    """Each monomial of degree <= max_degree with a uniform coefficient."""
    terms = []
    for mono in monomials_up_to(n_vars, max_degree):
        c = rng.randrange(field.p)
        if c:
            terms.append((mono, c))
    return Polynomial.make(field, n_vars, terms)


def verify_by_polynomial(cert) -> bool:
    """certificate.verify's reference: expand the identity into a
    Polynomial and compare it with the target."""
    terms = [
        (mono_m.mul(mono_s), coeff_m * coeff_s)
        for e in cert.entries
        for mono_m, coeff_m in e.multiplier.terms
        for mono_s, coeff_s in e.source.terms
    ]
    return Polynomial.make(cert.field, cert.n_vars, terms) == cert.target


def poly_eval(a: Polynomial, point: Sequence[int]) -> int:
    """Evaluate at a point given as a length-n_vars vector of residues."""
    if len(point) != a.n_vars:
        raise PolyError(f"point length {len(point)} != n_vars {a.n_vars}")
    p = a.field.p
    total = 0
    for mono, coeff in a.terms:
        v = coeff
        for var, exp in mono.exponents:
            v = (v * pow(point[var] % p, exp, p)) % p
        total = (total + v) % p
    return total

# ---------------------------------------------------------------------------
# GF(4) = GF(2)[a] / (a^2 + a + 1), elements as pairs (c0, c1) = c0 + c1*a.
# The nonzero elements ONE, ALPHA, ALPHA1 are the three cube roots of unity.

GF4_ZERO = (0, 0)
GF4_ONE = (1, 0)
GF4_ALPHA = (0, 1)
GF4_ALPHA1 = (1, 1)
GF4_ROOTS = (GF4_ONE, GF4_ALPHA, GF4_ALPHA1)


def gf4_add(x, y):
    return (x[0] ^ y[0], x[1] ^ y[1])


def gf4_mul(x, y):
    a, b = x
    c, d = y
    # (a + b*al)(c + d*al) with al^2 = al + 1
    return ((a * c ^ b * d) & 1, (a * d ^ b * c ^ b * d) & 1)


def gf4_pow(x, e):
    out = GF4_ONE
    for _ in range(e):
        out = gf4_mul(out, x)
    return out


def eval_poly_gf4(poly, point: Sequence[Tuple[int, int]]):
    """Evaluate a GF(2)-coefficient Polynomial at a GF(4) point."""
    assert poly.field.p == 2
    total = GF4_ZERO
    for mono, coeff in poly.terms:
        v = (coeff & 1, 0)
        for var, exp in mono.exponents:
            v = gf4_mul(v, gf4_pow(point[var], exp))
        total = gf4_add(total, v)
    return total


# ---------------------------------------------------------------------------
# Hand-built linear systems, held to the form assembly builds.


class SparseSystem:
    """make() builds a nullcert.linsolve.SparseSystem from hand-written
    rows, after checking that they are canonical: n_rows rows, strictly
    increasing columns in range and coefficients in 1..p-1."""

    @staticmethod
    def make(
        field: FieldSpec,
        n_rows: int,
        n_cols: int,
        rows: Sequence[Sequence[Tuple[int, int]]],
    ) -> linsolve.SparseSystem:
        if len(rows) != n_rows:
            raise ValueError("row count mismatch")
        p = field.p
        for i, row in enumerate(rows):
            cols = [c for c, _ in row]
            if cols != sorted(set(cols)) or not all(0 <= c < n_cols for c in cols):
                raise ValueError(f"row {i}: columns not strictly increasing in range")
            if not all(0 < v < p for _, v in row):
                raise ValueError(f"row {i}: coefficient outside 1..{p - 1}")
        return linsolve.SparseSystem(field, n_cols, tuple(map(tuple, rows)))


def rhs_entries(b: Sequence[int]) -> List[Tuple[int, int]]:
    """A dense right-hand side, one residue per row, as the (row, coeff)
    entries that linsolve takes: its nonzero rows."""
    return [(i, v) for i, v in enumerate(b) if v]


def is_entries(solution: Sequence[Tuple[int, int]], n: int, p: int) -> bool:
    """Whether a solution is in the form linsolve gives: (col, value)
    entries with columns strictly ascending in 0..n-1, values in 1..p-1."""
    cols = [c for c, _ in solution]
    return cols == sorted(set(cols)) and all(0 <= c < n and 0 < v < p for c, v in solution)


def dense(solution: Sequence[Tuple[int, int]], n: int) -> List[int]:
    """A solution's (col, value) entries as one residue per column."""
    y = [0] * n
    for c, v in solution:
        y[c] = v
    return y


# ---------------------------------------------------------------------------
# Dense reference elimination over GF(p): textbook RREF with explicit row
# swaps on full coefficient lists, free variables set to zero.


def ref_solve_dense(
    matrix: List[List[int]], rhs: List[int], p: int
) -> Tuple[str, Optional[List[int]], List[int]]:
    """Return (status, solution or None, pivot_cols)."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    aug = [[x % p for x in row] + [rhs[i] % p] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][c] % p != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] % p != 0:
            return "inconsistent", None, pivot_cols
    solution = [0] * n_cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = aug[row_idx][n_cols]
    return "consistent", solution, pivot_cols


# ---------------------------------------------------------------------------
# Reference orbit fold: union-find over an assembled system's rows and
# columns, renaming unpacked monomials and polynomials, never packed ints.


def orbit_fold(F: PolySystem, asm, perms) -> SimpleNamespace:
    """The orbit system of asm, the degree-d system of F, under perms: rows,
    rhs_list, row_keys (packed representative rows), col_reps,
    col_orbit_index and orbit_sizes (the set of every row and column orbit's
    size), with representatives the least full-system indices and entries
    summed over column-orbit members mod p.  A row or column whose image is
    missing raises KeyError."""
    first: Dict[Polynomial, int] = {}
    for i, f in enumerate(F.polys):
        first.setdefault(f, i)
    unpack = asm.packing.unpack
    rows = [unpack(x) for x in asm.packed_rows]
    cols = [(i, unpack(delta)) for i, delta in asm.packed_cols]
    row_at = {m: r for r, m in enumerate(rows)}
    col_at = {c: j for j, c in enumerate(cols)}
    row_parent = list(range(len(rows)))
    col_parent = list(range(len(cols)))

    def find(parent, a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(parent, a, b):
        a, b = find(parent, a), find(parent, b)
        parent[max(a, b)] = min(a, b)

    for gen in perms.generators:
        def rename(m):
            return Monomial.make([(gen[v], e) for v, e in m.exponents], m.n_vars)

        poly_image = [first[f.renamed(gen)] for f in F.polys]
        for r, m in enumerate(rows):
            union(row_parent, r, row_at[rename(m)])
        for j, (i, delta) in enumerate(cols):
            union(col_parent, j, col_at[(poly_image[i], rename(delta))])

    row_of = [find(row_parent, r) for r in range(len(rows))]
    row_reps = sorted(set(row_of))
    col_reps = sorted({find(col_parent, j) for j in range(len(cols))})
    col_orbit_index = tuple(col_reps.index(find(col_parent, j)) for j in range(len(cols)))
    p = F.field.p
    orbit_rows = []
    for r in row_reps:
        acc: Dict[int, int] = {}
        for c, v in asm.system.rows[r]:
            acc[col_orbit_index[c]] = acc.get(col_orbit_index[c], 0) + v
        orbit_rows.append(tuple(sorted((o, v % p) for o, v in acc.items() if v % p)))
    orbit_row = {r: k for k, r in enumerate(row_reps)}
    return SimpleNamespace(
        rows=tuple(orbit_rows),
        rhs_list=[[(orbit_row[r], c) for r, c in rhs if r in orbit_row] for rhs in asm.rhs_list],
        row_keys=tuple(asm.packed_rows[r] for r in row_reps),
        col_reps=tuple(col_reps),
        col_orbit_index=col_orbit_index,
        orbit_sizes={*Counter(row_of).values(), *Counter(col_orbit_index).values()},
    )


def group_order(perms) -> int:
    """The order of the group perms generates, by breadth-first closure."""
    ident = tuple(range(perms.n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in perms.generators:
                prod = tuple(g[v] for v in el)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def random_dense_system(rng, p, max_rows=20, max_cols=20, density=0.4):
    n_rows = rng.randrange(1, max_rows + 1)
    n_cols = rng.randrange(1, max_cols + 1)
    matrix = [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    rhs = [rng.randrange(p) for _ in range(n_rows)]
    return matrix, rhs


def exhaustive_colorable(g, k) -> bool:
    for assignment in itertools.product(range(k), repeat=g.n_vertices):
        if all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges):
            return True
    return False


def rotate_by_copy(adj, k, v, coloring, needed) -> None:
    """graphs._rotate's reference: the same depth-first model rotation,
    with each stacked step holding its own copy of the coloring."""
    stack = [(v, coloring)]
    while stack:
        v, coloring = stack.pop()
        if v in needed:
            continue
        needed.add(v)
        clash = [[] for _ in range(k)]
        for u in sorted(adj[v]):
            if u in coloring:
                clash[coloring[u]].append(u)
        for c, us in enumerate(clash):
            if len(us) == 1 and us[0] not in needed:
                moved = dict(coloring)
                moved[v] = c
                del moved[us[0]]
                stack.append((us[0], moved))


# gf3:0:1 of the benchmark's GF(3) systems: inconsistent at degrees 1 and 2,
# certified at degree 3
GF3_DEGREE3 = """\
e1 2*x2*x5+x2*x4+x3*x8+x3
e2 2*x3*x4
e3 1+x1*x5+x7*x8
e4 x6*x8+x1*x4+2*x2*x4+2*x2*x2+x8*x8
e5 2*x2*x2
e6 x1*x8
e7 2*x4*x7+x6*x8+x7*x8+x2*x7+x7+2*x1*x1
e8 2*x2*x5+2*x2*x8+2*x5*x6+2*x2+x8*x8
e9 2*x3*x3+x5*x7
e10 2*x1*x1+2*x2*x2
"""


def spy_local_shifts(monkeypatch) -> List[Tuple[PolySystem, Optional[Dict[int, List[int]]]]]:
    """Record each call of assemble._local_shifts as (F, what it returned)."""
    calls, local_shifts = [], assemble._local_shifts

    def spy(F):
        calls.append((F, local_shifts(F)))
        return calls[-1][1]

    monkeypatch.setattr(assemble, "_local_shifts", spy)
    return calls
