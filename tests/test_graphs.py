"""Unit tests for the graph model, DIMACS I/O, generators, and the coloring search."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import pytest

from helpers import rotate_by_copy
from nullcert.graphs import (
    COLORING_NODE_BUDGET,
    DimacsError,
    Graph,
    GraphError,
    components,
    enumerate_cliques,
    find_coloring,
    find_core,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
    parse_dimacs,
    write_dimacs,
)
from nullcert.graphs import _dsatur, _induced_coloring, _rotate


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

    def test_make_refuses_a_self_loop(self):
        with pytest.raises(GraphError, match=r"^self-loop at vertex 2$"):
            Graph.make(3, [(1, 2), (2, 2)])


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
        assert enumerate_cliques(gen_wheel(5), 1) == [(v,) for v in range(1, 7)]
        assert enumerate_cliques(Graph.make(3, [(1, 2)]), 1) == [(1,), (2,), (3,)]  # 3 isolated


class TestComponents:
    def test_components(self):
        two_edges = Graph.make(5, [(1, 2), (3, 4)])
        assert components(two_edges) == [[1, 2], [3, 4], [5]]


class TestOracle:
    def test_known_graphs(self):
        assert find_coloring(gen_complete(4), 3) is None
        assert find_coloring(gen_kneser(5, 2), 3) is not None  # Petersen is 3-chromatic
        assert find_coloring(gen_wheel(5), 3) is None
        assert find_coloring(gen_wheel(4), 3) is not None
        assert find_coloring(gen_complete(4), 4) is not None
        assert find_coloring(gen_complete(2), 1) is None

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
                assert (find_coloring(g, k) is not None) == exhaustive(g, k), (g, k)


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


# (coloring as a digit string, placements) of _dsatur(g, 3, budget) as the
# full-scan selection returned them; the heap selection must reproduce them.
PINNED_SWEEP = {
    0: ("1011000120012101", 16),
    1: ("1011002210011220", 16),
    6: ("2120012111022012", 23),
    10: ("2221120201100010", 25),
    12: ("0120120120201102", 16),
    15: ("1202010101121220", 16),
    17: ("1111201100022221", 22),
    23: ("0112100121022212", 16),
    24: ("2211202120011220", 16),
    27: ("2120012022101010", 24),
    29: ("0101000021211221", 16),
    30: ("0201212101220121", 16),
    34: ("2102020121001102", 16),
    35: ("0002122112101220", 16),
    38: ("1211001020222100", 16),
    40: ("0112020101212201", 16),
    43: ("2011002101021022", 16),
    45: ("0102021110021201", 16),
    49: ("1210000012201201", 16),
    51: ("1010121211002011", 16),
    53: ("1212101121020202", 16),
    55: ("1000002210011221", 16),
    57: ("0111100022121220", 16),
    60: ("2221121000201120", 19),
    61: ("0202122012210101", 16),
    63: ("0120210122121101", 16),
    68: ("1101202002010221", 16),
    70: ("1211012101210010", 16),
    74: ("1210010202212120", 16),
    75: ("0002202110201021", 16),
    82: ("1200001100022210", 16),
    85: ("2021110201022002", 16),
    86: ("1221000011222002", 16),
    87: ("1001212121000200", 16),
    88: ("1021012010102221", 16),
    92: ("1002020011112200", 16),
    93: ("0201210111201201", 16),
    95: ("0212001012211002", 16),
    96: ("0211120221220101", 16),
    99: ("2201111022021200", 16),
}


def digits(coloring):
    return None if coloring is None else "".join(map(str, coloring))


class TestDsaturSelection:
    def test_colorings_and_placements_are_pinned(self):
        for seed, pinned in PINNED_SWEEP.items():
            coloring, nodes = _dsatur(gen_random(16, 0.27, seed), 3, COLORING_NODE_BUDGET)
            assert (digits(coloring), nodes) == pinned, seed
        for g, nodes in ((gen_complete(4), 3), (gen_kneser(8, 3), 93), (gen_mycielski(7), 51)):
            assert _dsatur(g, 3, COLORING_NODE_BUDGET) == (None, nodes)
        assert _dsatur(gen_kneser(5, 2), 3, 5) == (None, 6)

    def test_long_backtracking_search_is_pinned(self):
        # 7,757 placements, most of them undone, on a 300-vertex graph
        coloring, nodes = _dsatur(gen_random(300, 4.7 / 299, 14), 3, COLORING_NODE_BUDGET)
        assert nodes == 7757
        assert hashlib.sha256(digits(coloring).encode()).hexdigest()[:16] == "c539d5e6d41e62fe"

    def test_touched_covers_the_refutation(self):
        # the odd wheel's refutation places the rim and empties the hub
        touched = set()
        coloring, _ = _dsatur(gen_wheel(101), 3, COLORING_NODE_BUDGET, touched)
        assert coloring is None and touched == set(range(1, 103))


def induced(g, vertices):
    label = {v: j for j, v in enumerate(vertices, start=1)}
    return Graph.make(len(vertices), [(label[u], label[v]) for u, v in g.edges if u in label and v in label])


class TestFindCore:
    @pytest.mark.parametrize(
        "g, size",
        [(gen_mycielski(7), (11, 20)), (gen_random(16, 0.27, 2), (8, 14)), (gen_kneser(8, 3), (16, 34))],
        ids=["myc7", "random16s2", "kneser83"],
    )
    def test_core_is_small_and_vertex_critical(self, g, size):
        core = find_core(g, 3)
        h = induced(g, core)
        assert (h.n_vertices, h.n_edges) == size
        assert core == sorted(core)
        assert find_coloring(h, 3) is None
        for v in core:
            coloring = find_coloring(induced(g, [u for u in core if u != v]), 3)
            assert coloring is not None, v

    def test_core_does_not_depend_on_how_the_edge_set_was_built(self):
        # equal frozensets built in different orders iterate in different orders
        g = gen_mycielski(9)
        edges = sorted(g.edges)
        shuffled = list(edges)
        random.Random(9).shuffle(shuffled)
        built = [frozenset(edges), frozenset(reversed(edges)), frozenset(shuffled), frozenset(set(shuffled))]
        assert all(Graph(g.n_vertices, e) == g for e in built)
        assert len({tuple(find_core(Graph(g.n_vertices, e), 3)) for e in built}) == 1

    @pytest.mark.parametrize(
        "g",
        [gen_complete(4), gen_wheel(9), gen_wheel(101), gen_random(16, 0.27, 0)],
        ids=["K4", "wheel9", "wheel101", "colorable"],
    )
    def test_no_core_when_critical_or_colorable(self, g):
        assert find_core(g, 3) is None

    def test_no_core_when_the_search_is_cut(self):
        g = gen_random(300, 4.7 / 299, 0)
        assert _dsatur(g, 3, COLORING_NODE_BUDGET)[1] > COLORING_NODE_BUDGET
        assert find_core(g, 3) is None

    def test_core_for_more_colors(self):
        # any five vertices of K6 are a K5, which has no 4-coloring
        assert len(find_core(gen_complete(6), 4)) == 5
        assert find_core(gen_complete(5), 4) is None

    def test_cores_of_random_graphs_are_vertex_critical(self):
        rng = random.Random(3)
        cores = 0
        for seed in range(150):
            g = gen_random(rng.randint(6, 22), rng.uniform(0.25, 0.6), seed)
            k = rng.choice((3, 3, 4))
            core = find_core(g, k)
            if core is None:
                continue
            cores += 1
            assert len(core) < g.n_vertices and find_coloring(induced(g, core), k) is None
            for v in core:
                coloring = find_coloring(induced(g, [u for u in core if u != v]), k)
                assert coloring is not None, (seed, v)
        assert cores >= 50

    def test_rotation_in_place_finds_the_cores_of_copies(self, monkeypatch):
        # _rotate recolors one coloring and undoes each step; copying the
        # coloring per step visits in the same order, so the cores agree
        rng = random.Random(7)
        pairs = [(16, 0.27), (20, 0.3), (24, 0.25), (30, 0.2), (40, 0.15), (60, 0.1)]
        graphs = [gen_random(n, prob, rng.randrange(10**6)) for n, prob in pairs for _ in range(12)]
        graphs += [gen_wheel(rim) for rim in range(5, 60, 6)] + [gen_wheel(301)]
        graphs += [gen_kneser(8, 3), gen_kneser(9, 3), gen_mycielski(7), gen_mycielski(8), gen_complete(5)]
        graphs += [gen_random(n, 4.0 / n, seed) for n in (30, 60, 100) for seed in range(10)]
        for g in graphs:
            # from the first vertices, on a coloring of the rest: the same
            # vertices, and the coloring is left as it was given
            adj = g.adjacency()
            for v in range(1, min(g.n_vertices, 6)):
                coloring = _induced_coloring(g.edges, 3, [u for u in adj if u != v])[0]
                if coloring is not None:
                    needed, expected, given = set(), set(), dict(coloring)
                    _rotate(adj, 3, v, coloring, needed)
                    rotate_by_copy(adj, 3, v, given, expected)
                    assert (needed, coloring) == (expected, given)
        cores = [find_core(g, 3) for g in graphs]
        monkeypatch.setattr("nullcert.graphs._rotate", rotate_by_copy)
        assert [find_core(g, 3) for g in graphs] == cores
        assert sum(core is not None for core in cores) >= 60

    def test_rotation_holds_one_coloring(self):
        # wheel:2001's rotation reaches every vertex; a coloring copy per
        # step traced 142 MB
        g = gen_wheel(2001)
        tracemalloc.start()
        try:
            core = find_core(g, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert core is None and peak < 16 << 20, peak
