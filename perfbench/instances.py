"""Benchmark inputs: the instance sets of each workload and the benchmark's
own yes-instance checks.

Everything here is independent of the program under test.  Graphs and
systems are generated by this file and handed to the prover only as files,
and the checks that decide whether an input is a yes-instance (a proper
3-coloring exists, or a GF(3) point satisfies every equation) share no code
with ``nullcert``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]
# One term of a polynomial: (coefficient, variables multiplied, 1-based).
Term = Tuple[int, Tuple[int, ...]]


@dataclass
class Instance:
    """One prover input and what the benchmark knows about it."""

    name: str
    args: List[str]  # prove arguments, input files included
    feasible: bool  # a yes-instance by the benchmark's own check
    must_certify: bool  # exit 10 counts as a failure
    tamper: bool = False  # smoke only: corrupt the certificate before verify
    files: Dict[str, str] = field(default_factory=dict)  # file name -> text


# --- graphs ---------------------------------------------------------------
# Generators follow the vertex labelling of ``nullcert.graphs`` so that
# ``--input`` files give the same systems as the ROADMAP's ``--gen`` specs.


def gnp(n: int, prob: float, seed: int) -> List[Edge]:
    """G(n, prob): random.Random(seed) over the pairs in lexicographic order."""
    rng = random.Random(seed)
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < prob]


def complete(n: int) -> Tuple[int, List[Edge]]:
    return n, list(itertools.combinations(range(1, n + 1), 2))


def wheel(rim: int) -> Tuple[int, List[Edge]]:
    hub = rim + 1
    return hub, [(i, i % rim + 1) for i in range(1, rim + 1)] + [(i, hub) for i in range(1, rim + 1)]


def kneser(t: int, r: int) -> Tuple[int, List[Edge]]:
    subsets = list(itertools.combinations(range(1, t + 1), r))
    index = {s: i + 1 for i, s in enumerate(subsets)}
    edges = [(index[a], index[b]) for a, b in itertools.combinations(subsets, 2) if not set(a) & set(b)]
    return len(subsets), edges


def mycielski(k: int) -> Tuple[int, List[Edge]]:
    n, edges = 2, [(1, 2)]
    for _ in range(k - 2):
        apex = 2 * n + 1
        grown = list(edges)
        for u, v in edges:
            grown += [(u, n + v), (v, n + u)]
        grown += [(n + i, apex) for i in range(1, n + 1)]
        n, edges = apex, grown
    return n, edges


def dimacs(n: int, edges: Sequence[Edge]) -> str:
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return f"p edge {n} {len(canon)}\n" + "".join(f"e {u} {v}\n" for u, v in canon)


def colorable(n: int, edges: Sequence[Edge], k: int) -> bool:
    """Exact k-coloring test: DSATUR backtracking with forward checking.

    Fast on every graph used here, including kneser:8,3 and mycielski:7,
    where plain backtracking in vertex order does not finish.
    """
    adj: List[set] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    domain = [set(range(k)) for _ in range(n + 1)]
    color: List[int] = [-1] * (n + 1)

    def search(used: int) -> bool:
        free = [v for v in range(1, n + 1) if color[v] < 0]
        if not free:
            return True
        v = min(free, key=lambda w: (len(domain[w]), -len(adj[w]), w))
        # opening a new color: only the lowest unused one (colors are symmetric)
        for c in sorted(c for c in domain[v] if c <= used + 1):
            pruned = [u for u in adj[v] if color[u] < 0 and c in domain[u]]
            for u in pruned:
                domain[u].discard(c)
            color[v] = c
            if all(domain[u] for u in pruned) and search(max(used, c)):
                return True
            color[v] = -1
            for u in pruned:
                domain[u].add(c)
        return False

    return search(-1)


def graph_instance(name: str, n: int, edges: Sequence[Edge], must_certify: bool, extra: Sequence[str] = ()) -> Instance:
    fname = name.replace(":", "_").replace(",", "_") + ".col"
    return Instance(
        name=name,
        args=["prove", "--input", fname, *extra],
        feasible=colorable(n, edges, 3),
        must_certify=must_certify,
        files={fname: dimacs(n, edges)},
    )


# --- polynomial systems over GF(p) ----------------------------------------


def format_system(eqs: Sequence[Sequence[Term]]) -> str:
    lines = []
    for i, eq in enumerate(eqs, start=1):
        terms = []
        for c, mono in eq:
            body = "*".join(f"x{v}" for v in mono)
            terms.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
        lines.append(f"e{i} " + "+".join(terms))
    return "\n".join(lines) + "\n"


def has_point(eqs: Sequence[Sequence[Term]], n_vars: int, p: int) -> bool:
    """Exhaustive search of GF(p)^n_vars for a common zero."""
    for point in itertools.product(range(p), repeat=n_vars):
        x = (1,) + point  # x[v] for 1-based v
        if all(sum(c * _prod(x, mono) for c, mono in eq) % p == 0 for eq in eqs):
            return True
    return False


def _prod(x: Sequence[int], mono: Tuple[int, ...]) -> int:
    r = 1
    for v in mono:
        r *= x[v]
    return r


GFP_VARS, GFP_EQS, GFP_TERMS, GFP_P = 8, 10, 6, 3


def random_gf3_systems(seed: int, count: int) -> List[List[List[Term]]]:
    """Overdetermined GF(3) systems with no GF(3) point.

    Each of the 10 equations in 8 variables has 1 to 6 distinct monomials of
    degree <= 2 with nonzero coefficients; systems with a GF(3) point are
    skipped, so every kept system is a candidate for a certificate.
    """
    monos = [()] + [(v,) for v in range(1, GFP_VARS + 1)]
    monos += list(itertools.combinations_with_replacement(range(1, GFP_VARS + 1), 2))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        eqs = [
            [(rng.randint(1, GFP_P - 1), m) for m in rng.sample(monos, rng.randint(1, GFP_TERMS))]
            for _ in range(GFP_EQS)
        ]
        if not has_point(eqs, GFP_VARS, GFP_P):
            out.append(eqs)
    return out


def system_instance(name: str, eqs, n_vars: int, p: int, must_certify: bool, extra: Sequence[str] = ()) -> Instance:
    fname = name.replace(":", "_") + ".txt"
    return Instance(
        name=name,
        args=["prove", "--system", fname, "--p", str(p), *extra],
        feasible=has_point(eqs, n_vars, p),
        must_certify=must_certify,
        files={fname: format_system(eqs)},
    )


# x1^2 + 2 with the three lines x1+x2, x1+x3, x2+x3: infeasible over GF(3)
QUADRIC_LINES = [[(1, (1, 1)), (2, ())], [(1, (1,)), (1, (2,))], [(1, (1,)), (1, (3,))], [(1, (2,)), (1, (3,))]]


# --- workloads -------------------------------------------------------------
# Each instance set is fixed and committed (the ROADMAP's instance set).
# The workload seed only permutes the run order: sets drawn per seed differ
# in cost by far more than any bound (see NOTES.md), so timings from
# different seeds would not be comparable.

SWEEP_SEEDS = range(20)
GFP_POOL_SEED, GFP_COUNT = 0, 12


def sweep16() -> List[Instance]:
    return [
        graph_instance(f"random:16,0.27,{s}", 16, gnp(16, 0.27, s), must_certify=False)
        for s in SWEEP_SEEDS
    ]


def certify() -> List[Instance]:
    out = [
        graph_instance(name, *graph, must_certify=True)
        for name, graph in [
            ("complete:4", complete(4)),
            ("wheel:9", wheel(9)),
            ("kneser:8,3", kneser(8, 3)),
            ("mycielski:7", mycielski(7)),
            ("wheel:101", wheel(101)),
        ]
    ]
    orbit = graph_instance("wheel:101+rotation", *wheel(101), must_certify=True, extra=["--symmetry", "rim_rotation.txt"])
    orbit.files["rim_rotation.txt"] = "(" + ",".join(str(v) for v in range(1, 102)) + ")\n"
    out.append(orbit)
    out.append(system_instance("quadric+lines", QUADRIC_LINES, 3, 3, must_certify=True))
    return out


def gfp_systems() -> List[Instance]:
    return [
        system_instance(f"gf3:{GFP_POOL_SEED}:{i}", eqs, GFP_VARS, GFP_P, must_certify=False, extra=["--max-degree", "3"])
        for i, eqs in enumerate(random_gf3_systems(GFP_POOL_SEED, GFP_COUNT))
    ]


def smoke() -> List[Instance]:
    """K4, wheel:5, complete:3 and one GF(3) system: a seconds-long check."""
    return [
        graph_instance("complete:4", *complete(4), must_certify=True),
        graph_instance("wheel:5", *wheel(5), must_certify=True),
        graph_instance("complete:3", *complete(3), must_certify=False),
        system_instance("quadric+lines", QUADRIC_LINES, 3, 3, must_certify=True),
    ]


WORKLOADS = {"sweep16": sweep16, "certify": certify, "gfp_systems": gfp_systems}


def write_files(instances: Sequence[Instance], workdir: Path) -> None:
    for inst in instances:
        for fname, text in inst.files.items():
            (workdir / fname).write_text(text)
