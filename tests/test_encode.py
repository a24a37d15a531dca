"""Unit tests for the colorability encoding, preprocessing, cutters, targets."""

import itertools
import random

import pytest

from helpers import GF4_ROOTS, GF4_ZERO, eval_poly_gf4, exhaustive_colorable, monomials_up_to, poly_eval
from nullcert.encode import (
    EncodeError,
    EncodingOptions,
    alt_g_candidates,
    encode_coloring,
)
import nullcert.encode as encode
from nullcert.graphs import Graph, GraphError, components, gen_complete, gen_kneser, gen_random, gen_wheel
from nullcert.poly import FieldSpec, Monomial, PolyError, Polynomial, format_monomial, format_poly

F2 = FieldSpec(2)
F3 = FieldSpec(3)


class TestOptions:
    def test_gcd_requirement(self):
        with pytest.raises(EncodeError):
            EncodingOptions(k=3, field=F3)
        with pytest.raises(EncodeError):
            EncodingOptions(k=2, field=F2)
        assert EncodingOptions(k=3, field=F2).k == 3
        assert EncodingOptions(k=2, field=F3).k == 2

    def test_cutter_modes(self):
        with pytest.raises(EncodeError):
            EncodingOptions(cutters="bogus")
        with pytest.raises(EncodeError):
            EncodingOptions(cutters="triangles")
        for k, field in ((3, F2), (4, F3)):
            assert EncodingOptions(k=k, field=field, cutters="cliques").cutters == "cliques"


class TestEncodeColoring:
    def test_k4_shapes(self):
        sys_ = encode_coloring(gen_complete(4), EncodingOptions())
        assert len(sys_) == 10
        assert sys_.tags[:4] == ("vertex:1", "vertex:2", "vertex:3", "vertex:4")
        assert sys_.tags[4] == "edge:1-2"
        assert format_poly(sys_.polys[0]) == "x1^3+1"
        assert format_poly(sys_.polys[4]) == "x1^2+x1*x2+x2^2"
        assert format_poly(sys_.polys[9]) == "x3^2+x3*x4+x4^2"

    def test_single_edge(self):
        g = Graph.make(2, [(1, 2)])
        sys_ = encode_coloring(g, EncodingOptions())
        assert [format_poly(p) for p in sys_.polys] == [
            "x1^3+1", "x2^3+1", "x1^2+x1*x2+x2^2"]

    def test_k2_over_gf3(self):
        g = Graph.make(2, [(1, 2)])
        sys_ = encode_coloring(g, EncodingOptions(k=2, field=F3))
        assert [format_poly(p) for p in sys_.polys] == ["x1^2+2", "x2^2+2", "x1+x2"]

    def test_coloring_correspondence_gf4(self):
        # A proper 3-coloring maps onto cube roots of unity and kills every
        # polynomial; conversely a common GF(4) root among the cube roots
        # exists only for 3-colorable graphs.  Exhaustive for small graphs.
        rng = random.Random(11)
        graphs = [gen_complete(n) for n in (2, 3, 4)] + [
            gen_random(5, 0.5, s) for s in range(8)]
        for g in graphs:
            sys_ = encode_coloring(g, EncodingOptions())
            found = False
            for point in itertools.product(GF4_ROOTS, repeat=g.n_vertices):
                if all(eval_poly_gf4(p, point) == GF4_ZERO for p in sys_.polys):
                    found = True
                    break
            assert found == exhaustive_colorable(g, 3), g


class TestInducedEncoding:
    @pytest.mark.parametrize(
        "opts",
        [
            EncodingOptions(),
            EncodingOptions(preprocess=True, cutters="cliques"),
            EncodingOptions(k=4, field=F3, preprocess=True, cutters="cliques"),
        ],
        ids=["plain", "preprocessed-triangles", "k4-cliques"],
    )
    def test_polys_are_the_graphs_own_renamed(self, opts):
        g = gen_random(12, 0.6, 4)
        vertices = [2, 3, 5, 7, 8, 11]
        sub = encode_coloring(g, opts, origin=3, vertices=vertices)
        full = encode_coloring(g, opts, origin=3)
        whole = dict(zip(full.tags, full.polys))
        assert sub.n_vars == g.n_vertices
        inside = set(vertices)
        expected = [
            tag for tag in whole
            if all(int(v) in inside for v in tag.split(":")[1].split("-"))
        ]
        assert list(sub.tags) == expected
        for tag, f in zip(sub.tags, sub.polys):
            assert f == whole[tag], tag

    def test_vertices_must_be_ascending_vertices(self):
        g = gen_wheel(5)
        for bad in ([], [2, 1], [1, 1], [0, 2], [1, 7]):
            with pytest.raises(EncodeError):
                encode_coloring(g, EncodingOptions(), vertices=bad)


class TestPreprocess:
    def test_k4(self):
        g = gen_complete(4)
        sys_ = encode_coloring(g, EncodingOptions(preprocess=True), 1)
        assert len(sys_) == 7
        assert sys_.tags[0] == "vertex:1"
        assert all(t.startswith("edge:") for t in sys_.tags[1:])

    def test_via_options(self):
        # equal to the plain encoding minus the vertex polynomials of all
        # but origin in its component and the least vertex in each other one
        rng = random.Random(28)
        for k, p, cutters in ((3, 2, "none"), (3, 2, "cliques"), (4, 3, "cliques")):
            for seed in range(12):
                n = rng.randint(2, 11)
                g = gen_random(n, rng.choice((0.2, 0.5, 0.8)), seed)
                origin = rng.randint(1, n)
                vertices = sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) if seed % 2 else None
                survivors = {origin if origin in comp else comp[0] for comp in components(g)}
                plain = encode_coloring(g, EncodingOptions(k, FieldSpec(p), cutters=cutters), origin, vertices)
                kept = [
                    (tag, f) for tag, f in zip(plain.tags, plain.polys)
                    if not tag.startswith("vertex:") or int(tag[len("vertex:"):]) in survivors
                ]
                opts = EncodingOptions(k, FieldSpec(p), preprocess=True, cutters=cutters)
                if not kept:  # an edgeless subgraph without a survivor
                    with pytest.raises(PolyError):
                        encode_coloring(g, opts, origin, vertices)
                    continue
                sys_ = encode_coloring(g, opts, origin, vertices)
                assert list(zip(sys_.tags, sys_.polys)) == kept, (k, seed, origin, vertices)

    def test_builds_only_the_surviving_vertex_polys(self, monkeypatch):
        calls = []
        build = encode._vertex_poly
        monkeypatch.setattr(encode, "_vertex_poly", lambda v, *rest: calls.append(v) or build(v, *rest))
        g = Graph.make(4, [(1, 2), (3, 4)])
        encode_coloring(g, EncodingOptions(preprocess=True))
        assert calls == [1, 3]

    def test_single_edge(self):
        g = Graph.make(2, [(1, 2)])
        sys_ = encode_coloring(g, EncodingOptions(preprocess=True))
        assert len(sys_) == 2

    def test_one_per_component(self):
        g = Graph.make(4, [(1, 2), (3, 4)])
        sys_ = encode_coloring(g, EncodingOptions(preprocess=True))
        assert len(sys_) == 4
        assert set(sys_.tags) == {"vertex:1", "vertex:3", "edge:1-2", "edge:3-4"}

    def test_origin_choice(self):
        g = Graph.make(4, [(1, 2), (3, 4)])
        sys_ = encode_coloring(g, EncodingOptions(preprocess=True), origin=2)
        assert set(sys_.tags) == {"vertex:2", "vertex:3", "edge:1-2", "edge:3-4"}

    def test_origin_validation(self):
        g = gen_complete(3)
        with pytest.raises(GraphError):
            encode_coloring(g, EncodingOptions(preprocess=True), 9)


def cutters(g, k=3, field=F2):
    F = encode_coloring(g, EncodingOptions(k=k, field=field, cutters="cliques"))
    return [f for f, tag in zip(F.polys, F.tags) if tag.startswith("cutter:")]


def proper_colorings(g, k):
    for colors in itertools.product(range(k), repeat=g.n_vertices):
        if all(colors[u - 1] != colors[v - 1] for u, v in g.edges):
            yield colors


class TestCutters:
    def test_triangle_form(self):
        assert [format_poly(p) for p in cutters(gen_complete(3))] == ["x1^2+x2^2+x3^2"]

    def test_petersen_empty(self):
        assert cutters(gen_kneser(5, 2)) == []

    def test_k4_count(self):
        assert len(cutters(gen_complete(4))) == 4

    def test_clique_generalization(self):
        # k = 4: one cutter per 4-clique, and K4 has exactly one
        assert [format_poly(p) for p in cutters(gen_complete(4), 4, F3)] == [
            "x1^3+x2^3+x3^3+x4^3"
        ]

    def test_tags_in_encoding(self):
        sys_ = encode_coloring(gen_wheel(5), EncodingOptions(cutters="cliques"))
        cutter_tags = [t for t in sys_.tags if t.startswith("cutter:")]
        assert len(cutter_tags) == 5
        assert cutter_tags[0] == "cutter:1-2-6"

    def test_cutters_vanish_on_proper_colorings(self):
        # Map each proper 3-coloring onto the cube roots of unity; every
        # triangle cutter must evaluate to zero there.
        for g in (gen_complete(3), gen_complete(4), gen_wheel(5), gen_wheel(4)):
            for colors in proper_colorings(g, 3):
                point = [GF4_ROOTS[c] for c in colors]
                for cutter in cutters(g):
                    assert eval_poly_gf4(cutter, point) == GF4_ZERO

    @pytest.mark.parametrize(
        "k, p, generator",
        [(4, 5, 2), (5, 11, 4)],  # generator has order k in GF(p)
        ids=["k4p5", "k5p11"],
    )
    def test_clique_cutters_vanish_on_proper_colorings(self, k, p, generator):
        # color c is the k-th root of unity generator^c; a proper coloring
        # is a common root of the whole encoding, cutters included
        field = FieldSpec(p)
        assert len(cutters(gen_complete(k), k, field)) == 1
        for g in (gen_complete(k), gen_wheel(4), Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5)])):
            F = encode_coloring(g, EncodingOptions(k=k, field=field, cutters="cliques"))
            for colors in proper_colorings(g, k):
                point = [pow(generator, c, p) for c in colors]
                assert all(poly_eval(f, point) == 0 for f in F.polys), (g, colors)

    def test_k_validation(self):
        # a 2-clique cutter x_u+x_v would repeat its edge polynomial
        with pytest.raises(EncodeError):
            EncodingOptions(k=2, field=F3, cutters="cliques")


class TestCommonRoot:
    def test_gf4_value_matches_reference_evaluation(self):
        rng = random.Random(8)
        vanished = 0
        for _ in range(500):
            n = rng.randint(1, 6)
            terms = {}
            for _ in range(rng.randint(0, 8)):
                exps = {v: rng.randint(1, 5) for v in rng.sample(range(n), rng.randint(0, n))}
                terms[Monomial.make(exps.items(), n)] = 1
            f = Polynomial.make(F2, n, terms.items())
            root = [rng.randrange(3) for _ in range(n)]
            expected = eval_poly_gf4(f, [GF4_ROOTS[c] for c in root])
            assert encode._gf4_value(f, root) == expected, (f, root)
            vanished += expected == GF4_ZERO
        assert 50 < vanished < 450


class TestAltG:
    def test_counts(self):
        assert len(alt_g_candidates(12, 3)) == 364  # C(14, 3)
        assert [format_monomial(m) for m in alt_g_candidates(2, 1)] == ["x1", "x2"]
        assert len(alt_g_candidates(3, 2)) == 6

    def test_exact_degree_and_order(self):
        cands = alt_g_candidates(3, 3)
        assert all(m.degree == 3 for m in cands)
        assert sorted(cands, key=Monomial.sort_key) == cands

    def test_degree_validation(self):
        with pytest.raises(EncodeError):
            alt_g_candidates(3, 0)

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (2, 3), (4, 2), (5, 4), (9, 3)])
    def test_equals_the_filtered_monomials(self, n, d):
        # built at one degree, in the order of filtering every degree up to it
        assert alt_g_candidates(n, d) == [m for m in monomials_up_to(n, d) if m.degree == d]
