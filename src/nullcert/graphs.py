"""Graph model, DIMACS .col I/O, generator families, and a bounded coloring search.

Vertices are 1-based everywhere (the DIMACS convention); the algebraic
encoding maps vertex i to variable index i-1.

The coloring search (find_coloring) also finds cores (find_core): small
induced subgraphs it proves not k-colorable, whose certificates are
certificates for the whole graph.
"""

from __future__ import annotations

import itertools
import random
import warnings
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from nullcert.poly import Record, set_field


class GraphError(ValueError):
    """Raised for malformed graphs or generator parameters."""


class DimacsError(GraphError):
    """Raised on DIMACS parse failures; message carries the line number."""


Edge = Tuple[int, int]


class Graph(Record):
    """An undirected simple graph on vertices 1..n_vertices."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: FrozenSet[Edge]) -> None:
        set_field(self, "n_vertices", n_vertices)
        set_field(self, "edges", edges)
        if n_vertices < 1:
            raise GraphError("graph needs at least one vertex")
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= n_vertices):
                raise GraphError(f"edge ({u},{v}) out of range or unordered")

    @classmethod
    def make(cls, n_vertices: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        return cls(n_vertices, frozenset((u, v) if u < v else (v, u) for u, v in edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.edges)

    def adjacency(self) -> Dict[int, set]:
        adj: Dict[int, set] = {v: set() for v in range(1, self.n_vertices + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col text: `c` comments, one `p edge <n> <m>`, `e <u> <v>` lines.

    Duplicate edges and both orientations collapse; a declared edge count
    that disagrees with the distinct-edge count warns (UserWarning; the
    command line turns it into one `note:` line) but does not fail.
    """
    n_vertices: Optional[int] = None
    declared_m: Optional[int] = None
    edges: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n_vertices is not None:
                raise DimacsError(f"line {lineno}: duplicate p line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"line {lineno}: expected `p edge <n> <m>`")
            try:
                n_vertices, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer p fields") from None
            if n_vertices < 1:
                raise DimacsError(f"line {lineno}: vertex count must be positive")
        elif fields[0] == "e":
            if n_vertices is None:
                raise DimacsError(f"line {lineno}: e line before p line")
            if len(fields) != 3:
                raise DimacsError(f"line {lineno}: expected `e <u> <v>`")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer edge endpoints") from None
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at {u}")
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise DimacsError(f"line {lineno}: endpoint out of range 1..{n_vertices}")
            edges.add((u, v) if u < v else (v, u))
        else:
            raise DimacsError(f"line {lineno}: unknown line type {fields[0]!r}")
    if n_vertices is None:
        raise DimacsError("missing p line")
    if declared_m is not None and declared_m != len(edges):
        warnings.warn(f"DIMACS header declares {declared_m} edges, found {len(edges)} distinct")
    return Graph(n_vertices, frozenset(edges))


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n_vertices} {g.n_edges}"]
    lines.extend(f"e {u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph.make(n, itertools.combinations(range(1, n + 1), 2))


def gen_wheel(rim: int) -> Graph:
    """Cycle 1..rim plus a hub vertex rim+1 adjacent to every rim vertex."""
    if rim < 3:
        raise GraphError("wheel rim must have at least 3 vertices")
    hub = rim + 1
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)]
    edges.extend((i, hub) for i in range(1, rim + 1))
    return Graph.make(hub, edges)


def gen_kneser(t: int, r: int) -> Graph:
    """Vertices are the r-subsets of {1..t} in lexicographic order, numbered
    from 1; edges join disjoint subsets."""
    if not 1 <= r <= t:
        raise GraphError("kneser requires 1 <= r <= t")
    subsets = list(itertools.combinations(range(1, t + 1), r))
    index = {s: i + 1 for i, s in enumerate(subsets)}
    edges = []
    for a, b in itertools.combinations(subsets, 2):
        if not set(a) & set(b):
            edges.append((index[a], index[b]))
    return Graph.make(len(subsets), edges)


def gen_mycielski(k: int) -> Graph:
    """Mycielski graph of order k, indexed so order 2 is a single edge (K2).

    Each step maps G on vertices 1..n to a graph on 1..2n+1: original edges,
    a shadow vertex n+i adjacent to the neighbors of i, and an apex 2n+1
    adjacent to every shadow.  Triangle-free with chromatic number k.
    """
    if k < 2:
        raise GraphError("mycielski order must be >= 2")
    g = gen_complete(2)
    for _ in range(k - 2):
        n = g.n_vertices
        apex = 2 * n + 1
        edges = list(g.edges)
        for u, v in g.edges:
            edges.append((u, n + v))
            edges.append((v, n + u))
        edges.extend((n + i, apex) for i in range(1, n + 1))
        g = Graph.make(apex, edges)
    return g


def gen_random(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) with a deterministic stream: random.Random(seed) (Mersenne
    Twister), scanning pairs (1,2), (1,3), ..., (n-1,n) in lexicographic
    order and including each independently with probability edge_prob."""
    if n < 1:
        raise GraphError("random graph needs n >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise GraphError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return Graph.make(n, edges)


def enumerate_cliques(g: Graph, size: int) -> List[Tuple[int, ...]]:
    """All cliques of the given size, vertices ascending, lexicographic order."""
    if size < 1:
        raise GraphError("clique size must be positive")
    adj = g.adjacency()
    out: List[Tuple[int, ...]] = []

    def extend(clique: Tuple[int, ...], candidates: List[int]) -> None:
        if len(clique) == size:
            out.append(clique)
            return
        for i, v in enumerate(candidates):
            extend(clique + (v,), [w for w in candidates[i + 1 :] if w in adj[v]])

    for v in range(1, g.n_vertices + 1):
        extend((v,), sorted(w for w in adj[v] if w > v))
    return out


def components(g: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    adj = g.adjacency()
    seen = set()
    out = []
    for start in range(1, g.n_vertices + 1):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for u in comp:  # comp grows as the search reaches new vertices
            for v in adj[u] - seen:
                seen.add(v)
                comp.append(v)
        out.append(sorted(comp))
    return out


# Color placements find_coloring may try before it gives up.  The prover's
# instances settle in a few hundred at most (kneser:8,3 and mycielski:7 are
# refuted in under 100); the cap keeps a hard graph from costing more than
# a fraction of a second.
COLORING_NODE_BUDGET = 10_000


def find_coloring(g: Graph, k: int, touched: Optional[Set[int]] = None) -> Optional[List[int]]:
    """A proper k-coloring, color c_v in 0..k-1 of vertex v at index v-1, or
    None when none exists or COLORING_NODE_BUDGET placements did not settle
    the question.

    DSATUR (Brelaz, CACM 1979) as a backtracking search with forward
    checking: each step colors the uncolored vertex with the fewest colors
    left (ties: most neighbors, then lowest index), and removes the color
    from its uncolored neighbors, so a neighbor left without colors fails
    the placement at once.  A vertex may open only one color beyond those in
    use, which prunes color symmetry without losing exactness.

    touched, when given, receives the vertices a refutation of g placed or
    emptied of colors, which find_core starts from; it is left empty when g
    is colored or the search is cut.
    """
    coloring, nodes = _dsatur(g, k, COLORING_NODE_BUDGET, touched)
    if touched is not None and (coloring is not None or nodes > COLORING_NODE_BUDGET):
        touched.clear()
    return coloring


def _dsatur(
    g: Graph, k: int, budget: int, touched: Optional[Set[int]] = None
) -> Tuple[Optional[List[int]], int]:
    """find_coloring's search with the number of placements it tried, which
    exceeds budget exactly when the search was cut.  touched, when given,
    receives every vertex the search placed and every vertex whose color
    domain emptied, 1-based.

    The uncolored vertices wait in one heap per number of colors left,
    keyed by their rank in the tie-break order (most neighbors, then lowest
    index).  A vertex is pushed again whenever its count changes or it is
    uncolored, and an entry whose vertex has since been colored or moved is
    dropped when it reaches the top, so each selection reads one heap top
    instead of scanning every vertex.
    """
    if k < 1:
        return None, 0
    n = g.n_vertices
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.edges):  # not the set's order, so equal graphs search alike
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    by_degree = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))
    rank = [0] * n
    for r, v in enumerate(by_degree):
        rank[v] = r
    domain = [(1 << k) - 1] * n  # bit c set: color c still allowed
    color = [-1] * n
    waiting: List[List[int]] = [[] for _ in range(k + 1)]  # colors left -> ranks
    waiting[k] = list(range(n))  # ascending, so already a heap
    # one frame per placed vertex: [vertex, colors left to try, colors in
    # use before it, neighbors that lost its color]
    frames: List[list] = []
    nodes = used = 0
    while True:
        v = -1
        for left in range(1, k + 1):
            heap = waiting[left]
            while heap:
                u = by_degree[heap[0]]
                if color[u] < 0 and domain[u].bit_count() == left:
                    v = u
                    break
                heappop(heap)
            if v >= 0:
                break
        if v < 0:
            return color, nodes
        frames.append([v, domain[v] & ((2 << min(used, k - 1)) - 1), used, []])
        while frames:
            frame = frames[-1]
            v, options, used, pruned = frame
            if color[v] >= 0:  # undo the placement this frame made last
                bit = 1 << color[v]
                for u in pruned:
                    domain[u] |= bit
                    heappush(waiting[domain[u].bit_count()], rank[u])
                pruned.clear()
                color[v] = -1
            if not options:
                heappush(waiting[domain[v].bit_count()], rank[v])
                frames.pop()
                continue
            nodes += 1
            if nodes > budget:
                return None, nodes
            bit = options & -options
            frame[1] = options ^ bit
            color[v] = bit.bit_length() - 1
            if touched is not None:
                touched.add(v + 1)
            for u in nbrs[v]:
                if color[u] < 0 and domain[u] & bit:
                    domain[u] ^= bit
                    pruned.append(u)
                    if not domain[u]:
                        if touched is not None:
                            touched.add(u + 1)
                        break
                    heappush(waiting[domain[u].bit_count()], rank[u])
            else:
                used = max(used, color[v] + 1)
                break
        else:
            return None, nodes


def _induced_coloring(
    edges: Iterable[Edge], k: int, vertices: Sequence[int]
) -> Tuple[Optional[Dict[int, int]], Optional[List[int]]]:
    """The search on the subgraph induced on vertices (ascending) among
    edges: a proper k-coloring as {vertex: color} or None, and, when the
    search refutes the subgraph, the vertices it touched, ascending.

    Every branch of a refutation fails on a vertex it touched, by colors
    of vertices it touched, so the touched vertices alone are not
    k-colorable either.
    """
    label = {v: j for j, v in enumerate(vertices, start=1)}
    h = Graph(len(vertices), frozenset((label[u], label[v]) for u, v in edges if u in label and v in label))
    touched: Set[int] = set()
    coloring, nodes = _dsatur(h, k, COLORING_NODE_BUDGET, touched)
    if coloring is not None:
        return dict(zip(vertices, coloring)), None
    if nodes > COLORING_NODE_BUDGET:
        return None, None
    return None, [vertices[j - 1] for j in sorted(touched)]


def _rotate(adj: Dict[int, set], k: int, v: int, coloring: Dict[int, int], needed: Set[int]) -> None:
    """Add v, whose removal leaves the core properly colored by coloring,
    to needed, and every vertex model rotation reaches from it.

    If some color on v clashes with exactly one neighbor u, recoloring v
    and dropping u properly colors the core without u, so u is needed too
    (model rotation, Marques-Silva and Lynce, SAT 2011).  The walk is depth
    first on the one coloring, recolored in place: the step (u, (w, c))
    gives w the color c and drops u, and pushes the record (None, (w, u,
    u's color)) that undoes it once u's subtree is walked.
    """
    stack: List[tuple] = [(v, None)]
    while stack:
        v, step = stack.pop()
        if v is None:
            w, u, color = step
            del coloring[w]
            coloring[u] = color
            continue
        if v in needed:
            continue
        if step is not None:
            w, c = step
            stack.append((None, (w, v, coloring.pop(v))))
            coloring[w] = c
        needed.add(v)
        clash: List[List[int]] = [[] for _ in range(k)]
        for u in sorted(adj[v]):
            if u in coloring:
                clash[coloring[u]].append(u)
        for c, us in enumerate(clash):
            if len(us) == 1 and us[0] not in needed:
                stack.append((us[0], (v, c)))


def find_core(g: Graph, k: int, touched: Optional[Set[int]] = None) -> Optional[List[int]]:
    """A small vertex set, ascending, whose induced subgraph the search
    proves not k-colorable; None when g is colorable, when the search on g
    was cut, or when no vertex of g could be left out.

    The core starts from the vertices the refuting search on g placed,
    together with those whose color domain emptied, or from all of g if
    the search does not refute that seed (a placed set alone can be
    colorable: the odd wheel's refutation places every rim vertex but
    empties the hub).  Vertices with fewer than k neighbors in the core are
    peeled first, since no k-critical subgraph holds one.  Then each vertex,
    ascending, is deleted while the search still refutes what is left, and
    the core shrinks to the vertices that refutation touched; a cut search
    keeps the vertex.  When no search is cut the result is vertex-critical:
    deleting any one vertex leaves a k-colorable graph, since each kept
    vertex was needed by a superset of what is left.  A vertex model
    rotation (_rotate) has shown to be needed is kept without a search.

    touched, when the caller has already run find_coloring(g, k, touched),
    is what that search filled in, so that g is not searched twice.
    """
    if touched is None:
        touched = set()
        find_coloring(g, k, touched)
    if not touched:
        return None
    members = set(range(1, g.n_vertices + 1))
    if len(touched) < g.n_vertices and _induced_coloring(g.edges, k, sorted(touched))[1]:
        members = set(touched)
    adj = g.adjacency()
    low = [v for v in members if len(adj[v] & members) < k]
    while low:
        v = low.pop()
        if v in members:
            members.discard(v)
            low.extend(u for u in adj[v] & members if len(adj[u] & members) < k)
    core = sorted(members)
    edges = [(u, v) for u, v in g.edges if u in members and v in members]
    needed: Set[int] = set()
    for v in list(core):
        if v in needed or v not in core:
            continue
        coloring, witness = _induced_coloring(edges, k, [u for u in core if u != v])
        if coloring is not None:
            _rotate(adj, k, v, coloring, needed)
        elif witness:
            core = witness
    return core if len(core) < g.n_vertices else None


__all__ = [
    "Graph",
    "GraphError",
    "DimacsError",
    "parse_dimacs",
    "write_dimacs",
    "gen_complete",
    "gen_wheel",
    "gen_kneser",
    "gen_mycielski",
    "gen_random",
    "enumerate_cliques",
    "components",
    "COLORING_NODE_BUDGET",
    "find_coloring",
    "find_core",
]
