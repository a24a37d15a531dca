"""Polynomial encodings of graph k-colorability over GF(p).

A graph is k-colorable iff the system {x_i^k - 1 = 0 per vertex,
sum_{t=0}^{k-1} x_u^(k-1-t) x_v^t = 0 per edge} has a common root over the
algebraic closure; this requires gcd(k, p) = 1.  Over GF(2) with k = 3 the
polynomials read x_i^3+1 and x_u^2+x_u*x_v+x_v^2.

Also provides: removal of redundant vertex polynomials (one kept per
connected component, justified by the telescoping identity
(x_u^k - 1) = (x_v^k - 1) + (x_u - x_v) * edgepoly(u, v) along spanning-tree
paths), degree-cutter polynomials (sum of x_v^(k-1) over each k-clique,
which vanishes because a proper coloring puts all k k-th roots of unity on
it), and alternative certificate targets (any nontrivial monomial works for
colorability, since a monomial root forces some x_i = 0 while roots of the
vertex polynomials are nonzero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List

from nullcert.graphs import Graph, GraphError, components, enumerate_cliques
from nullcert.poly import FieldSpec, Monomial, Polynomial, PolySystem, monomials_up_to


class EncodeError(ValueError):
    """Raised for invalid encoding options."""


_CUTTER_MODES = ("none", "triangles", "cliques")


@dataclass(frozen=True)
class EncodingOptions:
    """Options for the colorability encoding.

    cutters: "none", "triangles" (k = 3), or "cliques" (k-cliques, k != 3),
    one cutter sum_v x_v^(k-1) per clique (a triangle for k = 3).
    """

    k: int = 3
    field: FieldSpec = dc_field(default_factory=lambda: FieldSpec(2))
    preprocess: bool = False
    cutters: str = "none"

    def __post_init__(self) -> None:
        if self.k < 2:
            raise EncodeError(f"need at least 2 colors, got {self.k}")
        if math.gcd(self.k, self.field.p) != 1:
            raise EncodeError(
                f"colors k={self.k} and field characteristic p={self.field.p} "
                "must be relatively prime for the encoding to be faithful"
            )
        if self.cutters not in _CUTTER_MODES:
            raise EncodeError(f"cutters must be one of {_CUTTER_MODES}")
        if self.cutters == "triangles" and self.k != 3:
            raise EncodeError("triangle cutters apply to k=3 only; use cliques")
        if self.cutters == "cliques" and self.k == 3:
            raise EncodeError("for k=3 the k-clique cutters are the triangle cutters; use triangles")


def _vertex_poly(v: int, k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    # x_v^k - 1; over GF(2) the constant renders as +1
    return Polynomial.make(
        field,
        n_vars,
        [(Monomial.make({v - 1: k}, n_vars), 1), (Monomial.one(n_vars), field.p - 1)],
    )


def _edge_poly(u: int, v: int, k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    terms = []
    for t in range(k):
        exps = {}
        if k - 1 - t:
            exps[u - 1] = k - 1 - t
        if t:
            exps[v - 1] = exps.get(v - 1, 0) + t
        terms.append((Monomial.make(exps, n_vars), 1))
    return Polynomial.make(field, n_vars, terms)


def encode_coloring(g: Graph, opts: EncodingOptions, origin: int = 1) -> PolySystem:
    """Encode k-colorability of g as a PolySystem over opts.field.

    Ordering is deterministic: vertex polynomials by vertex index, then edge
    polynomials by (u, v), then cutters when requested.  With
    opts.preprocess, redundant vertex polynomials are removed (see
    preprocess_vertex_polys; origin selects the survivor in its component).
    """
    n = g.n_vertices
    polys: List[Polynomial] = []
    tags: List[str] = []
    for v in range(1, n + 1):
        polys.append(_vertex_poly(v, opts.k, opts.field, n))
        tags.append(f"vertex:{v}")
    for u, v in g.sorted_edges():
        polys.append(_edge_poly(u, v, opts.k, opts.field, n))
        tags.append(f"edge:{u}-{v}")
    system = PolySystem.make(opts.field, n, polys, tags)
    if opts.preprocess:
        system = preprocess_vertex_polys(system, g, origin)
    if opts.cutters != "none":
        cliques = enumerate_cliques(g, opts.k)
        cutters = [_cutter_poly(c, opts.k, opts.field, n) for c in cliques]
        ctags = ["cutter:" + "-".join(map(str, c)) for c in cliques]
        system = PolySystem.make(
            opts.field, n, list(system.polys) + cutters, list(system.tags) + ctags
        )
    return system


def preprocess_vertex_polys(sys: PolySystem, g: Graph, origin: int) -> PolySystem:
    """Drop every vertex polynomial except one per connected component.

    The survivor is origin in its own component and the smallest-index
    vertex elsewhere.  Certificate existence at any degree is unchanged:
    each dropped x_u^k - 1 equals the kept one plus a telescoping sum of
    (x_i - x_j) * edgepoly(i, j) along the spanning-tree path, so the
    removed polynomials stay inside the ideal generated by the rest.
    """
    if not 1 <= origin <= g.n_vertices:
        raise GraphError(f"origin {origin} out of range")
    keep = set()
    for comp in components(g):
        keep.add(origin if origin in comp else comp[0])
    polys = []
    tags = []
    for poly, tag in zip(sys.polys, sys.tags):
        if tag.startswith("vertex:") and int(tag.split(":", 1)[1]) not in keep:
            continue
        polys.append(poly)
        tags.append(tag)
    return PolySystem.make(sys.field, sys.n_vars, polys, tags)


def _cutter_poly(clique: tuple, k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    terms = [(Monomial.make({v - 1: k - 1}, n_vars), 1) for v in clique]
    return Polynomial.make(field, n_vars, terms)


def alt_g_candidates(n_vars: int, degree: int) -> List[Monomial]:
    """All monomials of exactly the given total degree, in global order."""
    if degree < 1:
        raise EncodeError("alternative targets must have degree >= 1")
    return [m for m in monomials_up_to(n_vars, degree) if m.degree == degree]


__all__ = [
    "EncodingOptions",
    "EncodeError",
    "encode_coloring",
    "preprocess_vertex_polys",
    "alt_g_candidates",
]
