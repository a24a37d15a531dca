"""Unit tests for the graph model, DIMACS I/O, generators, and the coloring search."""

import itertools
import math
import random
import time

import pytest

from nullcert.graphs import (
    COLORING_NODE_BUDGET,
    DimacsError,
    Graph,
    GraphError,
    components,
    enumerate_cliques,
    find_coloring,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
    oracle_colorable,
    parse_dimacs,
    write_dimacs,
)
from nullcert.graphs import _dsatur


class TestGraphModel:
    def test_make_normalizes(self):
        g = Graph.make(3, [(2, 1), (1, 2), (2, 3)])
        assert g.sorted_edges() == [(1, 2), (2, 3)]
        assert g.n_edges == 2

    def test_validation(self):
        with pytest.raises(GraphError):
            Graph.make(2, [(1, 1)])
        with pytest.raises(GraphError):
            Graph.make(2, [(1, 3)])
        with pytest.raises(GraphError):
            Graph.make(0, [])


class TestDimacs:
    def test_k3(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == gen_complete(3)

    def test_k4(self):
        lines = ["p edge 4 6"] + [f"e {u} {v}" for u, v in itertools.combinations(range(1, 5), 2)]
        assert parse_dimacs("\n".join(lines)) == gen_complete(4)

    def test_comment_and_duplicates(self):
        g = parse_dimacs("c hi\np edge 2 1\ne 2 1\ne 1 2\n")
        assert g.sorted_edges() == [(1, 2)]

    def test_declared_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse_dimacs("p edge 2 5\ne 1 2\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(DimacsError, match="missing p line"):
            parse_dimacs("c nothing here\n")
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 5\n")
        with pytest.raises(DimacsError, match="line 3"):
            parse_dimacs("c x\np edge 2 1\ne one 2\n")
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("q edge 2 1\n")
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 1\np edge 2 1\n")

    def test_round_trip(self):
        for g in (gen_complete(4), gen_wheel(5), gen_random(9, 0.4, 3)):
            assert parse_dimacs(write_dimacs(g)) == g


class TestGenerators:
    def test_complete(self):
        g = gen_complete(4)
        assert g.n_vertices == 4 and g.n_edges == 6

    def test_wheel(self):
        g = gen_wheel(5)
        assert g.n_vertices == 6 and g.n_edges == 10
        with pytest.raises(GraphError):
            gen_wheel(2)

    def test_kneser_sizes(self):
        # C(t,r) vertices, C(t,r)*C(t-r,r)/2 edges
        for t, r, n, m in ((5, 2, 10, 15), (8, 3, 56, 280), (10, 4, 210, 1575)):
            g = gen_kneser(t, r)
            assert g.n_vertices == n and g.n_edges == m
            assert n == math.comb(t, r) and m == math.comb(t, r) * math.comb(t - r, r) // 2
        assert gen_kneser(3, 2).n_edges == 0  # t < 2r has no disjoint pairs
        with pytest.raises(GraphError):
            gen_kneser(2, 3)

    def test_mycielski_sizes(self):
        g2 = gen_mycielski(2)
        assert g2.n_vertices == 2 and g2.n_edges == 1
        sizes = {}
        for k in range(2, 8):
            g = gen_mycielski(k)
            sizes[k] = (g.n_vertices, g.n_edges)
        assert sizes[4] == (11, 20)  # Grotzsch graph
        assert sizes[7] == (95, 755)
        for k in range(2, 7):
            n, m = sizes[k]
            assert sizes[k + 1] == (2 * n + 1, 3 * m + n)

    def test_mycielski_triangle_free(self):
        for k in range(2, 7):
            assert enumerate_cliques(gen_mycielski(k), 3) == []

    def test_random_reproducible(self):
        a = gen_random(16, 0.27, 7)
        b = gen_random(16, 0.27, 7)
        assert a == b
        c = gen_random(16, 0.27, 8)
        assert a != c  # overwhelmingly likely under any healthy stream
        with pytest.raises(GraphError):
            gen_random(5, 1.5, 0)

    def test_random_edge_prob_extremes(self):
        assert gen_random(6, 0.0, 1).n_edges == 0
        assert gen_random(6, 1.0, 1) == gen_complete(6)


class TestTrianglesAndCliques:
    def test_triangles(self):
        assert len(enumerate_cliques(gen_complete(4), 3)) == 4
        assert enumerate_cliques(gen_kneser(5, 2), 3) == []  # Petersen, girth 5
        tris = enumerate_cliques(gen_wheel(5), 3)
        assert len(tris) == 5
        assert all(u < v < w for u, v, w in tris)

    def test_cliques(self):
        assert len(enumerate_cliques(gen_complete(4), 3)) == 4
        assert enumerate_cliques(gen_complete(4), 2) == gen_complete(4).sorted_edges()
        assert enumerate_cliques(gen_complete(5), 4) == [
            (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]
        assert enumerate_cliques(gen_wheel(5), 4) == []


class TestComponents:
    def test_components(self):
        two_edges = Graph.make(5, [(1, 2), (3, 4)])
        assert components(two_edges) == [[1, 2], [3, 4], [5]]


class TestOracle:
    def test_known_graphs(self):
        assert not oracle_colorable(gen_complete(4), 3)
        assert oracle_colorable(gen_kneser(5, 2), 3)  # Petersen is 3-chromatic
        assert not oracle_colorable(gen_wheel(5), 3)
        assert oracle_colorable(gen_wheel(4), 3)
        assert oracle_colorable(gen_complete(4), 4)
        assert not oracle_colorable(gen_complete(2), 1)

    def test_oracle_on_oracle(self):
        # Exhaustive k^n enumeration must agree for small graphs.
        def exhaustive(g, k):
            for assignment in itertools.product(range(k), repeat=g.n_vertices):
                if all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges):
                    return True
            return False

        rng = random.Random(13)
        cases = [gen_complete(n) for n in range(1, 6)] + [gen_wheel(4), gen_wheel(5)]
        cases.extend(gen_random(6, rng.choice([0.3, 0.5, 0.8]), seed) for seed in range(12))
        for g in cases:
            for k in (1, 2, 3, 4):
                assert oracle_colorable(g, k) == exhaustive(g, k), (g, k)


class TestFindColoring:
    def test_colorings_are_proper_on_random_graphs(self):
        found = 0
        for seed in range(100):
            g = gen_random(16, 0.27, seed)
            coloring = find_coloring(g, 3)
            if coloring is None:
                continue
            found += 1
            assert len(coloring) == g.n_vertices and set(coloring) <= {0, 1, 2}
            assert all(coloring[u - 1] != coloring[v - 1] for u, v in g.edges), seed
        assert found == 40

    @pytest.mark.parametrize(
        "g", [gen_complete(4), gen_kneser(8, 3), gen_mycielski(7)], ids=["K4", "kneser83", "myc7"]
    )
    def test_refutes_within_budget(self, g):
        t0 = time.perf_counter()
        coloring, nodes = _dsatur(g, 3, COLORING_NODE_BUDGET)
        elapsed = time.perf_counter() - t0
        assert coloring is None
        assert nodes <= 100  # settled, far inside the budget
        assert elapsed < 0.25, elapsed  # ~1 ms on a 2-CPU host
        assert find_coloring(g, 3) is None

    def test_budget_cuts_the_search(self):
        petersen = gen_kneser(5, 2)
        assert find_coloring(petersen, 3) is not None
        coloring, nodes = _dsatur(petersen, 3, 5)
        assert coloring is None and nodes == 6

