"""Orbit reduction of the certificate linear system under variable symmetry.

A permutation group acting on the variables permutes the rows (monomials) and
columns (shifted polynomials) of the assembled matrix.  When the polynomial
system is invariant under the group, solutions may be assumed constant on
column orbits, so the system collapses to one row/column per orbit with
entries summed over column-orbit members.

An orbit-system solution always lifts to a full solution (and hence to a
certificate that verifies), with no assumption on the group order.  The
converse, full consistency implying orbit consistency, needs |G| coprime to
the field characteristic; coprime_verified records whether that was checked,
so an inconsistent orbit system is conclusive only when it is true.

Invariance is checked, never assumed: a generator that maps a polynomial of
the system outside it, or moves a target, raises SymmetryError.

assemble.nulla_prove applies the collapse inside its degree loop and, when
the group order is not coprime to p, solves the full matrix after an
inconsistent orbit solve; assemble_orbit exposes one degree of the collapse
with Monomial row and column keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.assemble import ColumnKey, _RawAssembly, _assemble_targets
from nullcert.linsolve import SparseSystem
from nullcert.poly import Monomial, PolySystem, Polynomial

DEFAULT_GROUP_CAP = 10**6


class SymmetryError(ValueError):
    """Raised for bad permutations or symmetry requirements not met."""


@dataclass(frozen=True)
class PermutationSet:
    """Generators of a permutation group on variable indices 0..n-1.

    Stored as image tuples: generator g maps variable v to g[v].  Identity
    generators are dropped at construction.
    """

    n: int
    generators: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(n: int, generators: Sequence[Sequence[int]]) -> "PermutationSet":
        if n < 0:
            raise SymmetryError("ground-set size must be >= 0")
        ident = tuple(range(n))
        kept: List[Tuple[int, ...]] = []
        for gen in generators:
            images = tuple(gen)
            if len(images) != n or sorted(images) != list(ident):
                raise SymmetryError(f"not a permutation of 0..{n - 1}: {images!r}")
            if images != ident and images not in kept:
                kept.append(images)
        return PermutationSet(n, tuple(kept))


def parse_generators(text: str, n: int) -> PermutationSet:
    """Parse one permutation per line in 1-based cycle notation.

    Examples: "(2,3,4)" or "(1,2)(3,4)".  Whitespace anywhere is ignored;
    blank lines and lines starting with '#' are skipped.
    """
    gens: List[Tuple[int, ...]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = "".join(rawline.split())
        if not line or line.startswith("#"):
            continue
        images = list(range(n))
        seen: set = set()
        pos = 0
        while pos < len(line):
            if line[pos] != "(":
                raise SymmetryError(f"line {lineno}: expected '(' at {line[pos:]!r}")
            end = line.find(")", pos)
            if end < 0:
                raise SymmetryError(f"line {lineno}: unclosed cycle")
            parts = line[pos + 1 : end].split(",")
            if any(not p.isdigit() for p in parts):
                raise SymmetryError(f"line {lineno}: bad cycle {line[pos:end + 1]!r}")
            cycle = [int(p) for p in parts]
            if any(not 1 <= v <= n for v in cycle):
                raise SymmetryError(f"line {lineno}: point outside 1..{n}")
            if len(set(cycle)) != len(cycle) or seen & set(cycle):
                raise SymmetryError(f"line {lineno}: repeated point across cycles")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b - 1
            pos = end + 1
        gens.append(tuple(images))
    return PermutationSet.make(n, gens)


def _apply_poly(images: Sequence[int], f: Polynomial) -> Polynomial:
    terms = [
        (Monomial.make([(images[v], e) for v, e in m.exponents], f.n_vars), c)
        for m, c in f.terms
    ]
    return Polynomial.make(f.field, f.n_vars, terms)


def group_order(perms: PermutationSet, cap: int = DEFAULT_GROUP_CAP) -> Optional[int]:
    """Order of the generated group by breadth-first closure; None above cap."""
    if cap < 1:
        raise SymmetryError("cap must be >= 1")
    ident = tuple(range(perms.n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in perms.generators:
                prod = tuple(g[v] for v in el)
                if prod not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


@dataclass(frozen=True)
class OrbitSystem:
    """Collapsed system plus everything needed to lift solutions back.

    Representatives are the orbit members of least full-system index, listed
    in that order; col_orbit_index maps each full column to its orbit
    position, full_col_keys preserves the full column layout.
    """

    system: SparseSystem
    row_orbits: Tuple[Monomial, ...]
    col_orbits: Tuple[ColumnKey, ...]
    group_order: Optional[int]
    coprime_verified: bool
    full_col_keys: Tuple[ColumnKey, ...]
    col_orbit_index: Tuple[int, ...]


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


def _check_invariant(
    F: PolySystem, targets: Sequence[Polynomial], perms: PermutationSet
) -> List[List[int]]:
    """Per-generator map poly index -> index of its image in F.

    Raises unless every generator maps every member of F into F and fixes
    every target.  Duplicate polynomials map to their first occurrence.
    """
    if perms.n != F.n_vars:
        raise SymmetryError("permutation ground set does not match variable count")
    pool: Dict[Polynomial, int] = {}
    for i, f in enumerate(F.polys):
        pool.setdefault(f, i)
    maps: List[List[int]] = []
    for gen_pos, images in enumerate(perms.generators):
        row: List[int] = []
        for i, f in enumerate(F.polys):
            j = pool.get(_apply_poly(images, f))
            if j is None:
                raise SymmetryError(
                    f"system is not invariant: generator {gen_pos} maps {F.tags[i]} "
                    "outside the system"
                )
            row.append(j)
        maps.append(row)
        for g in targets:
            if _apply_poly(images, g) != g:
                raise SymmetryError("target polynomial is not fixed by the group")
    return maps


def _coprime(order: Optional[int], p: int) -> bool:
    return order is not None and gcd(order, p) == 1


@dataclass(frozen=True)
class _Collapsed:
    system: SparseSystem
    rhs_list: List[List[int]]
    row_reps: List[int]
    col_reps: List[int]
    col_orbit_index: Tuple[int, ...]


def _collapse(
    raw: _RawAssembly,
    rhs_list: Sequence[Sequence[int]],
    perms: PermutationSet,
    maps: Sequence[Sequence[int]],
    memory_budget: Optional[int],
) -> _Collapsed:
    """Fold an assembled system to one row/column per orbit.

    Entries are summed over column-orbit members at each row representative;
    every right-hand side is read at the row representatives.
    """
    n_rows, n_cols = raw.system.n_rows, raw.system.n_cols
    col_pos = {key: j for j, key in enumerate(raw.col_keys)}
    row_pos = {mono: r for r, mono in enumerate(raw.row_keys)}
    permute = raw.packing.permute

    row_parent = list(range(n_rows))
    col_parent = list(range(n_cols))
    for gen_pos, images in enumerate(perms.generators):
        pmap = maps[gen_pos]
        for r, mono in enumerate(raw.row_keys):
            image = row_pos.get(permute(images, mono))
            if image is None:
                raise SymmetryError("row universe is not closed under the group")
            _union(row_parent, r, image)
        # many columns share a shift; permute each shift once
        shift_image = {delta: permute(images, delta) for delta in {d for _, d in raw.col_keys}}
        for j, (i, delta) in enumerate(raw.col_keys):
            image = col_pos.get((pmap[i], shift_image[delta]))
            if image is None:
                raise SymmetryError("column set is not closed under the group")
            _union(col_parent, j, image)

    row_reps = sorted({_find(row_parent, r) for r in range(n_rows)})
    col_reps = sorted({_find(col_parent, j) for j in range(n_cols)})
    col_orbit_of = {rep: pos for pos, rep in enumerate(col_reps)}
    col_orbit_index = tuple(col_orbit_of[_find(col_parent, j)] for j in range(n_cols))

    field = raw.system.field
    p = field.p
    orbit_rows: List[List[Tuple[int, int]]] = []
    for rep in row_reps:
        acc: Dict[int, int] = {}
        for c, v in raw.system.rows[rep]:
            oc = col_orbit_index[c]
            acc[oc] = (acc.get(oc, 0) + v) % p
        orbit_rows.append(sorted((oc, v) for oc, v in acc.items() if v))
    orbit_rhs = [[rhs[rep] for rep in row_reps] for rhs in rhs_list]
    system = SparseSystem._unchecked(
        field, len(col_reps), orbit_rows, orbit_rhs[0], memory_budget
    )
    return _Collapsed(system, orbit_rhs, row_reps, col_reps, col_orbit_index)


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
    generator.  The full matrix is materialized first (assembly is cheap
    relative to elimination; the savings are in the solve).
    """
    maps = _check_invariant(F, [g], perms)
    raw, rhs_list = _assemble_targets(F, d, [g], pruning, memory_budget)
    col = _collapse(raw, rhs_list, perms, maps, memory_budget)
    order = group_order(perms)
    unpack = raw.packing.unpack
    full_col_keys = tuple(ColumnKey(i, unpack(delta)) for i, delta in raw.col_keys)
    return OrbitSystem(
        system=col.system,
        row_orbits=tuple(unpack(raw.row_keys[r]) for r in col.row_reps),
        col_orbits=tuple(full_col_keys[j] for j in col.col_reps),
        group_order=order,
        coprime_verified=_coprime(order, F.field.p),
        full_col_keys=full_col_keys,
        col_orbit_index=col.col_orbit_index,
    )


def lift_solution(orb: OrbitSystem, ybar: Sequence[int]) -> Tuple[int, ...]:
    """Expand an orbit solution to the full column set, constant on orbits."""
    if len(ybar) != orb.system.n_cols:
        raise SymmetryError("orbit solution length does not match orbit system")
    return tuple(ybar[orb.col_orbit_index[j]] for j in range(len(orb.full_col_keys)))


__all__ = [
    "DEFAULT_GROUP_CAP",
    "OrbitSystem",
    "PermutationSet",
    "SymmetryError",
    "assemble_orbit",
    "group_order",
    "lift_solution",
    "parse_generators",
]
