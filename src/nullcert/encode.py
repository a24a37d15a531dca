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
from typing import List, Optional, Sequence

from nullcert.graphs import Graph, GraphError, components, enumerate_cliques
from nullcert.poly import FieldSpec, Monomial, Polynomial, PolySystem, Record, set_field


class EncodeError(ValueError):
    """Raised for invalid encoding options."""


_CUTTER_MODES = ("none", "triangles", "cliques")


class EncodingOptions(Record):
    """Options for the colorability encoding.

    cutters: "none", "triangles" (k = 3), or "cliques" (k-cliques, k >= 4),
    one cutter sum_v x_v^(k-1) per clique (a triangle for k = 3; for k = 2
    it would repeat an edge polynomial).
    """

    __slots__ = ("k", "field", "preprocess", "cutters")

    def __init__(
        self, k: int = 3, field: FieldSpec = FieldSpec(2), preprocess: bool = False, cutters: str = "none"
    ) -> None:
        set_field(self, "k", k)
        set_field(self, "field", field)
        set_field(self, "preprocess", preprocess)
        set_field(self, "cutters", cutters)
        if k < 2:
            raise EncodeError(f"need at least 2 colors, got {k}")
        if math.gcd(k, field.p) != 1:
            raise EncodeError(
                f"colors k={k} and field characteristic p={field.p} "
                "must be relatively prime for the encoding to be faithful"
            )
        if cutters not in _CUTTER_MODES:
            raise EncodeError(f"cutters must be one of {_CUTTER_MODES}")
        if cutters == "triangles" and k != 3:
            raise EncodeError("triangle cutters apply to k=3 only; use cliques")
        if cutters == "cliques" and k == 3:
            raise EncodeError("for k=3 the k-clique cutters are the triangle cutters; use triangles")
        if cutters == "cliques" and k == 2:
            raise EncodeError("for k=2 each clique cutter x_u+x_v is its edge polynomial; use none")


# The vertex and edge polynomials are built in canonical term order, which
# the Polynomial constructor checks, instead of sorted by Polynomial.make:
# encoding a large graph is otherwise most of a prove that certifies a core.


def _vertex_poly(v: int, k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    # x_v^k - 1; over GF(2) the constant renders as +1
    return Polynomial(
        field, n_vars, ((Monomial(((v - 1, k),), n_vars), 1), (Monomial((), n_vars), field.p - 1))
    )


def _edge_poly(u: int, v: int, k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    # sum over t of x_u^(k-1-t) * x_v^t, for u < v: ascending t is canonical
    a, b = u - 1, v - 1
    terms = [(Monomial(((a, k - 1),), n_vars), 1)]
    terms += [(Monomial(((a, k - 1 - t), (b, t)), n_vars), 1) for t in range(1, k - 1)]
    terms.append((Monomial(((b, k - 1),), n_vars), 1))
    return Polynomial(field, n_vars, tuple(terms))


def encode_coloring(
    g: Graph, opts: EncodingOptions, origin: int = 1, vertices: Optional[Sequence[int]] = None
) -> PolySystem:
    """Encode k-colorability of g as a PolySystem over opts.field.

    Ordering is deterministic: vertex polynomials by vertex index, then edge
    polynomials by (u, v), then cutters when requested.  With
    opts.preprocess, redundant vertex polynomials are removed (see
    preprocess_vertex_polys; origin selects the survivor in its component).

    vertices, ascending, encodes the subgraph induced on them instead, still
    over g's n_vertices variables: cutters come from the cliques inside the
    subgraph, and every polynomial is one of g's own encoding, with the same
    tag.  Preprocessing keeps g's survivors, so the origin should lie in
    vertices: a component of the subgraph without a survivor has no vertex
    polynomial.
    """
    n = g.n_vertices
    labels = range(1, n + 1) if vertices is None else list(vertices)
    if vertices is not None and (
        not labels
        or not 1 <= labels[0] <= labels[-1] <= n
        or any(b <= a for a, b in zip(labels, labels[1:]))
    ):
        raise EncodeError("vertices must be ascending vertices of the graph")
    inside = set(labels)
    polys: List[Polynomial] = []
    tags: List[str] = []
    for v in labels:
        polys.append(_vertex_poly(v, opts.k, opts.field, n))
        tags.append(f"vertex:{v}")
    for u, v in g.sorted_edges():
        if u in inside and v in inside:
            polys.append(_edge_poly(u, v, opts.k, opts.field, n))
            tags.append(f"edge:{u}-{v}")
    system = PolySystem.make(opts.field, n, polys, tags)
    if opts.preprocess:
        system = preprocess_vertex_polys(system, g, origin)
    if opts.cutters != "none":
        cliques = [c for c in enumerate_cliques(g, opts.k) if inside.issuperset(c)]
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


def _cutter_poly(clique: Sequence[int], k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    terms = [(Monomial.make({v - 1: k - 1}, n_vars), 1) for v in clique]
    return Polynomial.make(field, n_vars, terms)


def alt_g_candidates(n_vars: int, degree: int) -> List[Monomial]:
    """All monomials of exactly the given total degree, in global order."""
    if degree < 1:
        raise EncodeError("alternative targets must have degree >= 1")
    # Each exponent tuple of one degree less, in order, times each variable
    # from its last one up: the graded order of Monomial.sort_key.
    level = [()]
    for _ in range(degree):
        level = [
            pairs[:-1] + ((v, pairs[-1][1] + 1),) if pairs and v == pairs[-1][0] else pairs + ((v, 1),)
            for pairs in level
            for v in range(pairs[-1][0] if pairs else 0, n_vars)
        ]
    return [Monomial(pairs, n_vars) for pairs in level]


__all__ = [
    "EncodingOptions",
    "EncodeError",
    "encode_coloring",
    "preprocess_vertex_polys",
    "alt_g_candidates",
]
