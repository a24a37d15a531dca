"""Permutation groups on the variables: parsing and invariance.

A permutation group acting on the variables permutes the rows (monomials)
and columns (shifted polynomials) of the certificate system; nullcert.assemble
builds that system's orbit system (assemble_orbit, and nulla_prove given
perms).  This module supplies the group: generators parsed from cycle
notation, and the invariance check the orbit system rests on.

Invariance is checked, never assumed: a generator that maps a polynomial of
the system outside it or onto one with another number of copies, or moves
a target, raises SymmetryError.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from nullcert.poly import PolySystem, Polynomial, Record, set_field


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
            if any(not p.isdecimal() for p in parts):
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


def check_invariant(
    F: PolySystem, targets: Sequence[Polynomial], perms: PermutationSet
) -> List[List[int]]:
    """Per-generator permutation of F's poly indices: poly index -> index
    of its image in F.

    Raises unless every generator maps every member of F into F, as many
    times as it occurs, and fixes every target.  The k-th copy of a repeated
    polynomial maps to the k-th copy of its image.
    """
    if perms.n != F.n_vars:
        raise SymmetryError("permutation ground set does not match variable count")
    copies: Dict[Polynomial, List[int]] = {}
    for i, f in enumerate(F.polys):
        copies.setdefault(f, []).append(i)
    maps: List[List[int]] = []
    for gen_pos, images in enumerate(perms.generators):
        row = [0] * len(F.polys)
        for f, mine in copies.items():
            image = copies.get(f.renamed(images), [])
            if len(image) != len(mine):
                where = f"({len(mine)} copies) to one with {len(image)}" if image else "outside the system"
                raise SymmetryError(f"system is not invariant: generator {gen_pos} maps {F.tags[mine[0]]} {where}")
            for i, j in zip(mine, image):
                row[i] = j
        maps.append(row)
        for g in targets:
            if g.renamed(images) != g:
                raise SymmetryError("target polynomial is not fixed by the group")
    return maps


__all__ = [
    "PermutationSet",
    "SymmetryError",
    "check_invariant",
    "parse_generators",
]
