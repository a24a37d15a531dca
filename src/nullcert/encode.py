"""Polynomial encodings of graph k-colorability over GF(p).

A graph is k-colorable iff the system {x_i^k - 1 = 0 per vertex,
sum_{t=0}^{k-1} x_u^(k-1-t) x_v^t = 0 per edge} has a common root over the
algebraic closure; this requires gcd(k, p) = 1.  Over GF(2) with k = 3 the
polynomials read x_i^3+1 and x_u^2+x_u*x_v+x_v^2.

Also provides: preprocessing, which builds one vertex polynomial per
connected component (the others lie in the ideal, by the telescoping
identity (x_u^k - 1) = (x_v^k - 1) + (x_u - x_v) * edgepoly(u, v) along
spanning-tree paths), and degree-cutter polynomials (sum of x_v^(k-1) over
each k-clique, which vanishes because a proper coloring puts all k k-th
roots of unity on it).  Any nontrivial monomial is a target for
colorability too, since a monomial root forces some x_i = 0 while roots of
the vertex polynomials are nonzero (nullcert.assemble.alt_g_candidates
lists them).  An encoding with k = 3 and no cutters has the shapes
nullcert.assemble reads local columns off.

And a common-root check: g = sum_i beta_i f_i vanishes at every common
root of F, so one where no target vanishes rules out every degree.  Over
GF(2) a 3-coloring gives a candidate in GF(4), x_v = omega^(c_v), which
common_root evaluates F and the targets at: a wrong coloring decides nothing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from nullcert.graphs import Graph, GraphError, components, enumerate_cliques
from nullcert.poly import FieldSpec, Monomial, Polynomial, PolySystem, Record, set_field


class EncodeError(ValueError):
    """Raised for invalid encoding options."""


_CUTTER_MODES = ("none", "cliques")


class EncodingOptions(Record):
    """Options for the colorability encoding.

    cutters: "none", or "cliques", one cutter sum_v x_v^(k-1) per k-clique
    (a triangle for k = 3); k >= 3, since for k = 2 a cutter would repeat an
    edge polynomial.
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
        if cutters == "cliques" and k == 2:
            raise EncodeError("for k=2 each clique cutter x_u+x_v is its edge polynomial; use none")


# The vertex, edge and cutter polynomials are built in canonical term order,
# which the Polynomial constructor checks, instead of sorted by
# Polynomial.make: encoding a large graph is otherwise most of a prove that
# certifies a core.


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


def _cutter_poly(clique: Sequence[int], k: int, field: FieldSpec, n_vars: int) -> Polynomial:
    # sum of x_v^(k-1) over an ascending clique: ascending v is canonical
    return Polynomial(field, n_vars, tuple((Monomial(((v - 1, k - 1),), n_vars), 1) for v in clique))


def encode_coloring(
    g: Graph, opts: EncodingOptions, origin: int = 1, vertices: Optional[Sequence[int]] = None
) -> PolySystem:
    """Encode k-colorability of g as a PolySystem over opts.field.

    Ordering is deterministic: vertex polynomials by vertex index, then edge
    polynomials by (u, v), then cutters when requested.  With
    opts.preprocess, only one vertex polynomial per connected component is
    built: origin's in its own component and the least vertex's elsewhere.
    Certificate existence at any degree is unchanged: each dropped
    x_u^k - 1 equals the kept one plus a telescoping sum of
    (x_i - x_j) * edgepoly(i, j) along a spanning-tree path, so it stays
    inside the ideal generated by the rest.

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
    if opts.preprocess:
        if not 1 <= origin <= n:
            raise GraphError(f"origin {origin} out of range")
        survivors = {origin if origin in comp else comp[0] for comp in components(g)}
        labels = [v for v in labels if v in survivors]
    polys = [_vertex_poly(v, opts.k, opts.field, n) for v in labels]
    tags = [f"vertex:{v}" for v in labels]
    for u, v in g.sorted_edges():
        if u in inside and v in inside:
            polys.append(_edge_poly(u, v, opts.k, opts.field, n))
            tags.append(f"edge:{u}-{v}")
    if opts.cutters != "none":
        for c in enumerate_cliques(g, opts.k):
            if inside.issuperset(c):
                polys.append(_cutter_poly(c, opts.k, opts.field, n))
                tags.append("cutter:" + "-".join(map(str, c)))
    return PolySystem.make(opts.field, n, polys, tags)


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


def common_root(F: PolySystem, targets: Optional[Sequence[Polynomial]], coloring: Sequence[int]) -> bool:
    """Whether x_v = omega^coloring[v], omega a cube root of unity in GF(4),
    is a common root of the GF(2) system F at which no target vanishes; if
    so, no degree has a certificate.  targets None means g = 1.

    Raises EncodeError unless F is over GF(2) with one color per variable.
    """
    if F.field.p != 2 or len(coloring) != F.n_vars:
        raise EncodeError("a common root needs GF(2) and one color per variable")
    if any(any(_gf4_value(f, coloring)) for f in F.polys):
        return False
    return all(any(_gf4_value(g, coloring)) for g in targets or ())


__all__ = [
    "EncodingOptions",
    "EncodeError",
    "common_root",
    "encode_coloring",
]
