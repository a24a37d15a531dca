"""Permutation groups on the variables: parsing, order, and invariance.

A permutation group acting on the variables permutes the rows (monomials)
and columns (shifted polynomials) of the certificate system; nullcert.assemble
collapses that system to orbits (assemble_orbit, and nulla_prove given
perms).  This module supplies the group: generators parsed from cycle
notation, the group order (whose coprimality to p makes an inconsistent
orbit system conclusive), and the invariance check the collapse rests on.

Invariance is checked, never assumed: a generator that maps a polynomial of
the system outside it, or moves a target, raises SymmetryError.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.poly import PolySystem, Polynomial, Record, set_field

DEFAULT_GROUP_CAP = 10**6


class SymmetryError(ValueError):
    """Raised for bad permutations or symmetry requirements not met."""


class PermutationSet(Record):
    """Generators of a permutation group on variable indices 0..n-1.

    Stored as image tuples: generator g maps variable v to g[v].  Identity
    generators are dropped at construction.
    """

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: Tuple[Tuple[int, ...], ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "generators", generators)

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


def check_invariant(
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
            j = pool.get(f.renamed(images))
            if j is None:
                raise SymmetryError(
                    f"system is not invariant: generator {gen_pos} maps {F.tags[i]} "
                    "outside the system"
                )
            row.append(j)
        maps.append(row)
        for g in targets:
            if g.renamed(images) != g:
                raise SymmetryError("target polynomial is not fixed by the group")
    return maps


__all__ = [
    "DEFAULT_GROUP_CAP",
    "PermutationSet",
    "SymmetryError",
    "check_invariant",
    "group_order",
    "parse_generators",
]
