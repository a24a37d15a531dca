"""Certifying a small non-colorable core before the whole graph.

A certificate for an induced subgraph H of G is one for G, because H's edge
and vertex polynomials are G's.  nulla_prove solves the core's system first
at each degree and G's only when the core's is inconsistent.
"""

import time

import pytest

from nullcert.assemble import AssembleError, nulla_prove
from nullcert.certificate import verify
from nullcert.cli import build_core
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import (
    find_coloring,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
)
from nullcert.linsolve import MemoryBudgetError
from nullcert.poly import FieldSpec, Monomial, Polynomial
from nullcert.symmetry import PermutationSet

OPTS = EncodingOptions(preprocess=True)
SWEEP_NONCOLORABLE = [s for s in range(20) if find_coloring(gen_random(16, 0.27, s), 3) is None]
CERTIFY = {
    "K4": gen_complete(4),
    "wheel9": gen_wheel(9),
    "kneser83": gen_kneser(8, 3),
    "myc7": gen_mycielski(7),
    "wheel101": gen_wheel(101),
}
GRAPHS = {**{f"random16s{s}": gen_random(16, 0.27, s) for s in SWEEP_NONCOLORABLE}, **CERTIFY}


def test_thirteen_sweep_graphs_are_not_colorable():
    assert SWEEP_NONCOLORABLE == [2, 3, 4, 5, 7, 8, 9, 11, 13, 14, 16, 18, 19]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_core_never_raises_the_certificate_degree(name):
    g = GRAPHS[name]
    F = encode_coloring(g, OPTS)
    plain = nulla_prove(F, [1, 4])
    core = build_core(g, OPTS, 1, None)
    out = nulla_prove(F, [1, 4], core=core)
    assert out.certificate is not None and plain.certificate is not None
    assert out.degree <= plain.degree
    assert verify(out.certificate)
    if "core" not in out.certificate.provenance:
        assert out.certificate == plain.certificate
        return
    # every source is the polynomial of that tag in G's own encoding
    note = out.certificate.provenance["core"]
    assert note == {"vertices": core[1]["vertices"], "origin": note["origin"]}
    G = encode_coloring(g, OPTS, origin=note["origin"])
    polys = dict(zip(G.tags, G.polys))
    for e in out.certificate.entries:
        assert polys[e.tag] == e.source, e.tag
    assert out.certificate.n_vars == g.n_vertices


def test_core_lines_come_first_at_each_degree():
    g = gen_random(16, 0.27, 2)
    F = encode_coloring(g, OPTS)
    out = nulla_prove(F, [1, 4], core=build_core(g, OPTS, 1, None))
    sizes = [(s.degree, s.rows, s.cols, s.status) for s in out.per_degree]
    # the core at degree 1, then G at degree 1, then the core at degree 4;
    # at degree 1 each counts the rows of its own local columns (117 and 609
    # on every column)
    assert sizes == [
        (1, 74, 113, "inconsistent"),
        (1, 197, 529, "inconsistent"),
        (4, 1837, 4853, "consistent"),
    ]
    assert out.certificate.provenance["core"] == {
        "vertices": [9, 10, 11, 12, 13, 14, 15, 16],
        "origin": 9,
    }


def test_core_targets_pass_through_unchanged():
    g = gen_complete(5)  # its core is the K4 on vertices 1-4
    F = encode_coloring(g, OPTS)
    target = Polynomial.from_monomial(Monomial.make([(3, 3)], 5), F.field)  # x4^3
    core = build_core(g, OPTS, 1, [target])
    F_core, note = core
    assert note == {"vertices": [1, 2, 3, 4], "origin": 1}
    # the core is over G's five variables, and its polynomials are G's
    assert F_core.n_vars == F.n_vars == 5
    assert set(zip(F_core.tags, F_core.polys)) <= set(zip(F.tags, F.polys))
    out = nulla_prove(F, [1], [target], core=core)
    assert out.certificate.target is target
    assert out.certificate.provenance["core"] == note
    assert verify(out.certificate)


def test_core_argument_is_checked():
    g = gen_complete(5)
    F = encode_coloring(g, OPTS)
    core = build_core(g, OPTS, 1, None)
    x5 = Polynomial.from_monomial(Monomial.make([(4, 3)], 5), F.field)
    # a target outside the core is sound to use, and build_core skips it
    assert build_core(g, OPTS, 1, [x5]) is None
    out = nulla_prove(F, [1, 4], [x5], core=core)
    assert out.certificate is not None and verify(out.certificate)
    with pytest.raises(AssembleError, match="excludes"):
        nulla_prove(F, [1], core=core, perms=PermutationSet.make(5, [[1, 2, 3, 4, 0]]))
    F_core, note = core
    small = encode_coloring(gen_complete(4), OPTS)
    with pytest.raises(AssembleError, match="field and n_vars"):
        nulla_prove(F, [1], core=(small, note))
    other = encode_coloring(g, EncodingOptions(field=FieldSpec(5), preprocess=True), vertices=[1, 2, 3, 4])
    with pytest.raises(AssembleError, match="field and n_vars"):
        nulla_prove(F, [1], core=(other, note))


def test_whole_graph_over_budget_fails_before_filing_every_product():
    # 2,477,931 x 2,784,794 at degree 1; every product filed took minutes
    # and gigabytes before the exact row count was checked
    F = encode_coloring(gen_mycielski(9), OPTS)
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError):
        nulla_prove(F, [1])
    assert time.perf_counter() - t0 < 10
