"""Tests for linear-system assembly, the degree loop, and subgraph isolation."""

import random
import time

import pytest

from helpers import poly_mul
from nullcert.assemble import (
    AssembleError,
    assemble,
    extract_certificate,
    isolate_subgraph,
    nulla_prove,
    stats,
)
from nullcert.certificate import verify
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import Graph, gen_complete, gen_random, oracle_colorable
from nullcert.linsolve import MemoryBudgetError, solve
from nullcert.poly import (
    FieldSpec,
    Monomial,
    PolySystem,
    Polynomial,
    monomials_up_to,
    parse_poly,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def small_system():
    """Four polynomials over GF(3) in three variables with no common zero."""
    texts = ("x1^2+2", "x1+x2", "x1+x3", "x2+x3")
    return PolySystem.make(GF3, 3, [parse_poly(t, GF3, 3) for t in texts])


def occurring_row_oracle(F, d, g):
    # independent row count: expand every x^delta * f_i with poly ops
    seen = set(g.monomials())
    for f in F.polys:
        for delta in monomials_up_to(F.n_vars, d):
            shifted = poly_mul(Polynomial.from_monomial(delta, F.field), f)
            seen.update(shifted.monomials())
    return len(seen)


def test_small_system_shape_against_row_oracle():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    asys = assemble(F, 1, g)
    assert asys.system.n_cols == 16
    assert asys.system.n_rows == occurring_row_oracle(F, 1, g) == 13


def test_small_system_proof_and_runtime():
    t0 = time.perf_counter()
    out = nulla_prove(small_system(), [1])
    elapsed = time.perf_counter() - t0
    assert out.verdict == "infeasible" and out.degree == 1
    assert verify(out.certificate)
    assert out.per_degree[0].cols == 16
    assert elapsed < 1.0


def test_entry_values_match_shifted_coefficients():
    F = PolySystem.make(GF2, 2, [parse_poly("x1+x2", GF2, 2)])
    asys = assemble(F, 1, Polynomial.one(GF2, 2))
    # columns: shifts 1, x1, x2; rows sorted by degree then index
    assert [ck.shift.expanded() for ck in asys.col_keys] == [(), (0,), (1,)]
    by_row = {asys.row_keys[r].expanded(): cols for r, cols in enumerate(asys.system.rows)}
    assert by_row[(0,)] == ((0, 1),)          # x1 from shift 1
    assert by_row[(1,)] == ((0, 1),)          # x2 from shift 1
    assert by_row[(0, 0)] == ((1, 1),)        # x1^2 from shift x1
    assert by_row[(0, 1)] == ((1, 1), (2, 1)) # x1*x2 from both shifts
    assert by_row[(1, 1)] == ((2, 1),)        # x2^2 from shift x2
    # rhs carries the target coefficient on the constant row
    assert asys.system.rhs[0] == 1 and sum(asys.system.rhs) == 1


def test_row_and_column_order_is_graded():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    asys = assemble(F, 1, Polynomial.one(GF2, 4), pruning="graded:3")
    rows = [m.expanded() for m in asys.row_keys]
    assert rows == sorted(rows, key=lambda t: (len(t), t))
    cols = [(ck.poly_index, len(ck.shift.expanded()), ck.shift.expanded()) for ck in asys.col_keys]
    assert cols == sorted(cols)


def test_k4_preprocessed_graded_shape():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    asys = assemble(F, 1, Polynomial.one(GF2, 4), pruning="graded:3")
    assert (asys.system.n_rows, asys.system.n_cols) == (21, 25)
    # row universe: constant plus every degree-3 monomial in 4 variables
    degs = sorted(m.degree for m in asys.row_keys)
    assert degs == [0] + [3] * 20


def test_degenerate_constant_system():
    F = PolySystem.make(GF2, 1, [Polynomial.one(GF2, 1)])
    asys = assemble(F, 0, Polynomial.one(GF2, 1))
    assert (asys.system.n_rows, asys.system.n_cols) == (1, 1)
    res = solve(asys.system)
    assert res.status == "consistent" and res.solution == (1,)
    out = nulla_prove(F, [0])
    assert out.verdict == "infeasible" and verify(out.certificate)


def test_none_pruning_row_universe():
    F = small_system()
    asys = assemble(F, 1, Polynomial.one(GF3, 3), pruning="none")
    # all monomials of degree <= max_degree + d = 3 in three variables
    assert asys.system.n_rows == len(monomials_up_to(3, 3)) == 20
    assert asys.system.n_cols == 16
    assert solve(asys.system).consistent


def test_graded_rejects_mixed_degree_poly():
    polys = [parse_poly("x1^3+1", GF2, 2), parse_poly("x1^2+x2", GF2, 2)]
    F = PolySystem.make(GF2, 2, polys, tags=("vertex:1", "odd:one"))
    with pytest.raises(AssembleError, match="odd:one"):
        assemble(F, 1, Polynomial.one(GF2, 2), pruning="graded:3")


def test_graded_rejects_bad_target_degree():
    F = encode_coloring(gen_complete(4), EncodingOptions())
    with pytest.raises(AssembleError, match="target"):
        assemble(F, 1, parse_poly("x1", GF2, 4), pruning="graded:3")


def test_bad_pruning_strings():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    for bad in ("graded:", "graded:1", "graded:x", "gradual", ""):
        with pytest.raises(AssembleError):
            assemble(F, 1, g, pruning=bad)


def test_zero_target_rejected():
    with pytest.raises(AssembleError, match="zero target"):
        assemble(small_system(), 1, Polynomial.zero(GF3, 3))


def test_target_field_mismatch_rejected():
    with pytest.raises(AssembleError, match="mismatch"):
        assemble(small_system(), 1, Polynomial.one(GF2, 3))


def test_schedule_validation():
    F = small_system()
    for bad in ([], [2, 1], [1, 1], [-1]):
        with pytest.raises(AssembleError, match="schedule"):
            nulla_prove(F, bad)


def test_memory_budget_propagates():
    F = encode_coloring(gen_complete(6), EncodingOptions())
    with pytest.raises(MemoryBudgetError):
        assemble(F, 2, Polynomial.one(GF2, 6), memory_budget=64)


def test_stats_k4_raw_formulas():
    F = encode_coloring(gen_complete(4), EncodingOptions())
    st = stats(F, 1)
    assert (st.n_vars, st.n_polys, st.monomial_total) == (4, 10, 26)
    assert st.predicted_cols == 50 and st.predicted_nnz == 130
    assert st.actual_cols == 50 and st.actual_nnz == 130
    assert st.actual_cols <= st.predicted_cols and st.actual_nnz <= st.predicted_nnz


def test_stats_single_poly_degree_zero():
    F = PolySystem.make(GF2, 3, [parse_poly("x1", GF2, 3)])
    st = stats(F, 0)
    assert st.predicted_cols == 1 and st.actual_cols == 1


def test_stats_pruned_never_exceeds_predictions():
    rng = random.Random(7)
    for _ in range(20):
        g = gen_random(6, 0.5, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        for pruning in ("none", "occurring", "graded:3"):
            st = stats(F, 1, pruning=pruning)
            assert st.actual_cols <= st.predicted_cols
            assert st.actual_nnz <= st.predicted_nnz


def test_k3_no_certificate_up_to_four():
    F = encode_coloring(gen_complete(3), EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1, 4], pruning="graded:3")
    assert out.verdict == "no_certificate_up_to" and out.degree == 4
    assert out.certificate is None
    assert [d.status for d in out.per_degree] == ["inconsistent", "inconsistent"]
    assert [d.degree for d in out.per_degree] == [1, 4]
    assert all(d.millis >= 0 and d.nnz > 0 for d in out.per_degree)


def test_consistency_survives_degree_increase():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, 4)
    for d in (1, 4):
        assert solve(assemble(F, d, g, pruning="graded:3").system).consistent


def test_first_consistent_target_wins():
    F = PolySystem.make(GF3, 2, [parse_poly("x1+x2", GF3, 2), parse_poly("x1", GF3, 2)])
    g_x2 = parse_poly("x2", GF3, 2)
    g_x1 = parse_poly("x1", GF3, 2)
    out = nulla_prove(F, [0], [g_x2, g_x1])
    assert out.verdict == "infeasible"
    assert out.certificate.target == g_x2
    # x2 = (x1+x2) - x1 with constant multipliers
    assert {e.tag for e in out.certificate.entries} == {"user:0", "user:1"}


def test_later_target_found_when_first_fails():
    # x1^2 is not a constant combination of x1+x2 alone; x2 never is
    F = PolySystem.make(GF3, 2, [parse_poly("x1+x2", GF3, 2)])
    impossible = parse_poly("2", GF3, 2)
    reachable = parse_poly("x1+x2", GF3, 2)
    out = nulla_prove(F, [0], [impossible, reachable])
    assert out.verdict == "infeasible"
    assert out.certificate.target == reachable


def test_extract_certificate_matches_prove_path():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    asys = assemble(F, 1, g)
    res = solve(asys.system)
    cert = extract_certificate(F, asys.col_keys, res.solution, g)
    assert verify(cert)
    out = nulla_prove(F, [1])
    assert [(e.tag, e.multiplier) for e in cert.entries] == [
        (e.tag, e.multiplier) for e in out.certificate.entries
    ]


def test_extract_certificate_length_check():
    F = small_system()
    asys = assemble(F, 1, Polynomial.one(GF3, 3))
    with pytest.raises(AssembleError, match="length"):
        extract_certificate(F, asys.col_keys, (0,), asys.target)


def test_prove_provenance_recorded():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1], pruning="graded:3", provenance={"graph": "abc"})
    prov = out.certificate.provenance
    assert prov["degree"] == 1
    assert prov["pruning"] == "graded:3"
    assert prov["graph"] == "abc"
    assert prov["symmetry"] is None


def test_graded_equals_unpruned_on_coloring_systems():
    # graded pruning must not change consistency at any tested degree
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        g = gen_random(5 + rng.randrange(4), 0.55, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        target = Polynomial.one(GF2, g.n_vertices)
        full = solve(assemble(F, 1, target, pruning="occurring").system).consistent
        pruned = solve(assemble(F, 1, target, pruning="graded:3").system).consistent
        assert full == pruned
        checked += 1
    assert checked == 40


def test_preprocessing_preserves_degree_one_verdict():
    rng = random.Random(23)
    for _ in range(30):
        g = gen_random(6 + rng.randrange(4), 0.5, rng.randrange(10**6))
        raw = nulla_prove(encode_coloring(g, EncodingOptions()), [1], pruning="graded:3")
        pre = nulla_prove(
            encode_coloring(g, EncodingOptions(preprocess=True)), [1], pruning="graded:3"
        )
        assert raw.verdict == pre.verdict


def test_infeasible_implies_not_colorable_many_seeds():
    # soundness spot-check across 200 random graphs: a certificate at any
    # degree must never appear for a 3-colorable graph
    rng = random.Random(5)
    infeasible = 0
    for _ in range(200):
        n = 5 + rng.randrange(5)
        g = gen_random(n, 0.5, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        out = nulla_prove(F, [1], pruning="graded:3")
        if out.verdict == "infeasible":
            infeasible += 1
            assert verify(out.certificate)
            assert not oracle_colorable(g, 3)
    assert infeasible > 10


def test_isolate_k4_certificate():
    k4 = gen_complete(4)
    F = encode_coloring(k4, EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1], pruning="graded:3")
    sub = isolate_subgraph(out.certificate, k4)
    assert sub.edges <= k4.edges
    assert len(sub.edges) >= 1


def test_isolate_ignores_disjoint_component():
    # K4 plus a path on vertices 5-6-7; certificate support stays in the K4
    k4 = gen_complete(4)
    edges = sorted(k4.edges) + [(5, 6), (6, 7)]
    g = Graph.make(7, edges)
    F = encode_coloring(g, EncodingOptions(preprocess=True), origin=1)
    out = nulla_prove(F, [1], pruning="graded:3")
    assert out.verdict == "infeasible"
    sub = isolate_subgraph(out.certificate, g)
    assert all(v <= 4 for e in sub.edges for v in e)
    assert not oracle_colorable(sub, 3)


def test_isolate_requires_edge_tags():
    out = nulla_prove(small_system(), [1])
    with pytest.raises(AssembleError, match="edge"):
        isolate_subgraph(out.certificate, gen_complete(3))


def test_isolate_rejects_foreign_edges():
    k4 = gen_complete(4)
    F = encode_coloring(k4, EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1], pruning="graded:3")
    with pytest.raises(AssembleError, match="not an edge"):
        isolate_subgraph(out.certificate, Graph.make(4, [(1, 2)]))


def test_multi_target_row_universe_covers_all_candidates():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g1 = Polynomial.one(GF2, 4)
    g2 = parse_poly("x1*x2*x3", GF2, 4)
    out = nulla_prove(F, [1], [g2, g1], pruning="graded:3")
    assert out.verdict == "infeasible"
    assert verify(out.certificate)
    assert out.certificate.target in (g1, g2)
