"""Tests for linear-system assembly, the degree loop, and the certificate support."""

import itertools
import random
import time
import tracemalloc

import pytest

import nullcert.assemble as asm
from helpers import GF3_DEGREE3, GF4_ROOTS, GF4_ZERO, columns, eval_poly_gf4, expanded, poly_mul, row_monomials
from nullcert.assemble import (
    AssembleError,
    _Packing,
    _sizes,
    assemble,
    extract_certificate,
    nulla_prove,
    stats,
)
from nullcert.certificate import CertEntry, Certificate, verify, write_cert
from nullcert.encode import EncodingOptions, alt_g_candidates, encode_coloring
from nullcert.graphs import (
    Graph,
    find_coloring,
    gen_complete,
    gen_mycielski,
    gen_random,
    gen_wheel,
)
from nullcert.linsolve import MemoryBudgetError, packed_bytes, solve, solve_multi_rhs
from nullcert.poly import (
    FieldSpec,
    Monomial,
    PolySystem,
    Polynomial,
    monomials_up_to,
    parse_poly,
)
from nullcert.symmetry import PermutationSet, parse_generators

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def small_system():
    """Four polynomials over GF(3) in three variables with no common zero."""
    texts = ("x1^2+2", "x1+x2", "x1+x3", "x2+x3")
    return PolySystem.make(GF3, 3, [parse_poly(t, GF3, 3) for t in texts])


def occurring_row_oracle(F, d, g):
    # independent row count: expand every x^delta * f_i with poly ops
    seen = {m for m, _ in g.terms}
    for f in F.polys:
        for delta in monomials_up_to(F.n_vars, d):
            shifted = poly_mul(Polynomial.from_monomial(delta, F.field), f)
            seen.update(m for m, _ in shifted.terms)
    return len(seen)


def test_small_system_shape_against_row_oracle():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    asys = assemble(F, 1, [g])
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
    asys = assemble(F, 1, [Polynomial.one(GF2, 2)])
    # columns: shifts 1, x1, x2; rows sorted by degree then index
    assert [expanded(shift) for _, shift in columns(asys)] == [(), (0,), (1,)]
    by_row = {expanded(m): cols for m, cols in zip(row_monomials(asys), asys.system.rows)}
    assert by_row[(0,)] == ((0, 1),)          # x1 from shift 1
    assert by_row[(1,)] == ((0, 1),)          # x2 from shift 1
    assert by_row[(0, 0)] == ((1, 1),)        # x1^2 from shift x1
    assert by_row[(0, 1)] == ((1, 1), (2, 1)) # x1*x2 from both shifts
    assert by_row[(1, 1)] == ((2, 1),)        # x2^2 from shift x2
    # rhs carries the target coefficient on the constant row
    assert asys.system.rhs[0] == 1 and sum(asys.system.rhs) == 1


def test_row_and_column_order_is_graded():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    asys = assemble(F, 1, [Polynomial.one(GF2, 4)], pruning="graded:3")
    rows = [expanded(m) for m in row_monomials(asys)]
    assert rows == sorted(rows, key=lambda t: (len(t), t))
    # columns shift-major: shift degree, then shift in graded order, then poly
    cols = [(len(expanded(shift)), expanded(shift), i) for i, shift in columns(asys)]
    assert cols == sorted(cols)


def test_k4_preprocessed_graded_shape():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    asys = assemble(F, 1, [Polynomial.one(GF2, 4)], pruning="graded:3")
    assert (asys.system.n_rows, asys.system.n_cols) == (21, 25)
    # row universe: constant plus every degree-3 monomial in 4 variables
    degs = sorted(m.degree for m in row_monomials(asys))
    assert degs == [0] + [3] * 20


def test_degenerate_constant_system():
    F = PolySystem.make(GF2, 1, [Polynomial.one(GF2, 1)])
    asys = assemble(F, 0, [Polynomial.one(GF2, 1)])
    assert (asys.system.n_rows, asys.system.n_cols) == (1, 1)
    res = solve(asys.system)
    assert res.status == "consistent" and res.solution == (1,)
    out = nulla_prove(F, [0])
    assert out.verdict == "infeasible" and verify(out.certificate)


def test_graded_rejects_mixed_degree_poly():
    polys = [parse_poly("x1^3+1", GF2, 2), parse_poly("x1^2+x2", GF2, 2)]
    F = PolySystem.make(GF2, 2, polys, tags=("vertex:1", "odd:one"))
    with pytest.raises(AssembleError, match="odd:one"):
        assemble(F, 1, [Polynomial.one(GF2, 2)], pruning="graded:3")


def test_graded_rejects_bad_target_degree():
    F = encode_coloring(gen_complete(4), EncodingOptions())
    with pytest.raises(AssembleError, match="target"):
        assemble(F, 1, [parse_poly("x1", GF2, 4)], pruning="graded:3")


def test_bad_pruning_strings():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    for bad in ("graded:", "graded:1", "graded:x", "gradual", "", "none"):
        with pytest.raises(AssembleError):
            assemble(F, 1, [g], pruning=bad)


def test_zero_target_rejected():
    with pytest.raises(AssembleError, match="zero target"):
        assemble(small_system(), 1, [Polynomial.zero(GF3, 3)])


def test_target_field_mismatch_rejected():
    with pytest.raises(AssembleError, match="mismatch"):
        assemble(small_system(), 1, [Polynomial.one(GF2, 3)])


def test_schedule_validation():
    F = small_system()
    for bad in ([], [2, 1], [1, 1], [-1]):
        with pytest.raises(AssembleError, match="schedule"):
            nulla_prove(F, bad)


def test_memory_budget_propagates():
    F = encode_coloring(gen_complete(6), EncodingOptions())
    with pytest.raises(MemoryBudgetError):
        assemble(F, 2, [Polynomial.one(GF2, 6)], memory_budget=64)


def test_stats_k4_raw_formulas():
    F = encode_coloring(gen_complete(4), EncodingOptions())
    st = stats(F, 1)
    assert (st["n_vars"], st["polys"], st["monomials"]) == (4, 10, 26)
    assert st["predicted_cols"] == 50 and st["predicted_nnz"] == 130
    assert st["cols"] == 50 and st["nnz"] == 130
    assert st["cols"] <= st["predicted_cols"] and st["nnz"] <= st["predicted_nnz"]


def test_stats_single_poly_degree_zero():
    F = PolySystem.make(GF2, 3, [parse_poly("x1", GF2, 3)])
    st = stats(F, 0)
    assert st["predicted_cols"] == 1 and st["cols"] == 1


def test_stats_pruned_never_exceeds_predictions():
    rng = random.Random(7)
    for _ in range(20):
        g = gen_random(6, 0.5, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        for pruning in ("occurring", "graded:3"):
            st = stats(F, 1, pruning=pruning)
            assert st["cols"] <= st["predicted_cols"]
            assert st["nnz"] <= st["predicted_nnz"]


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
        assert solve(assemble(F, d, [g], pruning="graded:3").system).consistent


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
    asys = assemble(F, 1, [g])
    res = solve(asys.system)
    cert = extract_certificate(F, asys, res.solution, g)
    assert verify(cert)
    out = nulla_prove(F, [1])
    assert [(e.tag, e.multiplier) for e in cert.entries] == [
        (e.tag, e.multiplier) for e in out.certificate.entries
    ]


@pytest.mark.parametrize(
    "p, n_vars, texts, d",
    [
        (3, 8, [line.split()[1] for line in GF3_DEGREE3.splitlines()], 3),
        (5, 3, ["4*x1^2+2*x1", "x3^2", "4*x1*x3+1", "3*x2"], 2),
    ],
    ids=["gf3", "gf5"],
)
def test_prove_extracts_from_assembled_columns(p, n_vars, texts, d):
    # nulla_prove's certificate is the one assemble + solve + extract gives
    field = FieldSpec(p)
    F = PolySystem.make(field, n_vars, [parse_poly(t, field, n_vars) for t in texts])
    g = Polynomial.one(field, n_vars)
    out = nulla_prove(F, range(1, d + 1))
    assert out.degree == d
    asys = assemble(F, d, [g])
    res = solve(asys.system)
    cert = extract_certificate(F, asys, res.solution, g, out.certificate.provenance)
    assert write_cert(cert) == write_cert(out.certificate)


@pytest.mark.parametrize(
    "graph",
    [gen_complete(4), gen_wheel(5), gen_random(8, 0.5, 4), gen_complete(3)],
    ids=["K4", "wheel5", "random8", "K3"],
)
def test_gf2_prove_matches_assemble_and_solve(graph):
    # each degree's stats line and verdict are those of assemble + solve
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, graph.n_vertices)
    for d in (1, 4):
        asys = assemble(F, d, [g], pruning="graded:3")
        out = nulla_prove(F, [d], pruning="graded:3")
        (st,) = out.per_degree
        res = solve(asys.system)
        assert (st.rows, st.cols, st.nnz, st.status) == (
            asys.system.n_rows, asys.system.n_cols, asys.system.nnz, res.status
        )
        if res.consistent:
            assert out.verdict == "infeasible" and verify(out.certificate)
    assert (out.verdict == "infeasible") == (find_coloring(graph, 3) is None)


def test_packed_monomials_match_monomial_arithmetic():
    rng = random.Random(20)
    for trial in range(300):
        n = rng.randint(1, 20)
        # every variable in a third of the trials, a list with gaps otherwise
        listed = range(n) if trial % 3 == 0 else sorted(rng.sample(range(n), rng.randint(1, n)))
        packing = _Packing(listed, n, rng.randint(1, 7))
        top = (1 << packing.b) - 1  # the widest value a field holds

        def split(total):
            """Two monomials whose product has the given exponents."""
            a = {v: rng.randint(0, e) for v, e in total.items()}
            return (
                Monomial.make(a, n),
                Monomial.make({v: e - a[v] for v, e in total.items()}, n),
            )

        def exponents():
            return {v: rng.randint(1, top) for v in listed if rng.random() < 0.4}

        monos = [Monomial.make(exponents(), n) for _ in range(10)]
        by_packed = sorted(monos, key=lambda m: packing.pack(m) ^ packing.flip)
        assert [m.sort_key() for m in by_packed] == sorted(m.sort_key() for m in monos)

        for m in monos:
            assert packing.unpack(packing.pack(m)) == m
            # a permutation of the listed variables, fixing the others
            images = list(range(n))
            for v, w in zip(listed, rng.sample(listed, len(listed))):
                images[v] = w
            renamed = Monomial.make([(images[v], e) for v, e in m.exponents], n)
            positions = [listed.index(images[v]) for v in listed]
            assert packing.permute(positions, packing.pack(m)) == packing.pack(renamed)

        a, b = split(exponents())
        assert packing.pack(a) + packing.pack(b) == packing.pack(a.mul(b))

        # every field filled to the top: no carry into the neighbouring field
        a, b = split({v: top for v in listed})
        full = packing.unpack(packing.pack(a) + packing.pack(b))
        assert full == a.mul(b)
        assert full.exponents == tuple((v, top) for v in listed)

        # the shifts of one degree are the monomials over the listed
        # variables, in graded order, while every exponent fits a field
        deg = rng.randint(0, min(3, top))
        expected = [
            m for m in monomials_up_to(n, deg)
            if m.degree == deg and all(v in listed for v, _ in m.exponents)
        ]
        assert [packing.unpack(x) for x in packing.monomials(deg)] == expected


def test_large_exponent_assembles_in_small_memory():
    # one row key per monomial, however large its exponents: no expanded
    # variable tuple of length 2,000,000 is ever built
    F = PolySystem.make(
        GF2, 2, [parse_poly(t, GF2, 2) for t in ("x1^2000000+1", "x1+x2", "x2")]
    )
    g = Polynomial.one(GF2, 2)
    tracemalloc.start()
    try:
        asys = assemble(F, 1, [g])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    system = asys.system
    assert (system.n_rows, system.n_cols, system.nnz) == (9, 9, 15)
    assert asys.packing.unpack(asys.packed_rows[-2]) == Monomial.make({0: 2000001}, 2)
    assert peak < 1 << 20


def test_extract_certificate_length_check():
    F = small_system()
    one = Polynomial.one(GF3, 3)
    asys = assemble(F, 1, [one])
    with pytest.raises(AssembleError, match="length"):
        extract_certificate(F, asys, (0,), one)


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
        full = solve(assemble(F, 1, [target], pruning="occurring").system).consistent
        pruned = solve(assemble(F, 1, [target], pruning="graded:3").system).consistent
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
            assert find_coloring(g, 3) is None
    assert infeasible > 10


def support_subgraph(cert):
    """Graph on the edges named by the certificate's "edge:u-v" tags."""
    edges = [
        tuple(int(v) for v in e.tag[len("edge:"):].split("-"))
        for e in cert.entries
        if e.tag.startswith("edge:")
    ]
    return Graph.make(max(v for _, v in edges), edges)


def test_isolate_k4_certificate():
    k4 = gen_complete(4)
    F = encode_coloring(k4, EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1], pruning="graded:3")
    sub = support_subgraph(out.certificate)
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
    sub = support_subgraph(out.certificate)
    assert all(v <= 4 for e in sub.edges for v in e)
    assert find_coloring(sub, 3) is None


def test_multi_target_row_universe_covers_all_candidates():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g1 = Polynomial.one(GF2, 4)
    g2 = parse_poly("x1*x2*x3", GF2, 4)
    out = nulla_prove(F, [1], [g2, g1], pruning="graded:3")
    assert out.verdict == "infeasible"
    assert verify(out.certificate)
    assert out.certificate.target in (g1, g2)


def prove_counting_solves(monkeypatch, F, **kw):
    """nulla_prove on schedule [1, 4] with graded:3 pruning; also returns
    how many eliminations it ran."""
    calls = []
    real = asm.solve_multi_rhs
    monkeypatch.setattr(asm, "solve_multi_rhs", lambda *a: calls.append(1) or real(*a))
    out = nulla_prove(F, [1, 4], pruning="graded:3", **kw)
    monkeypatch.setattr(asm, "solve_multi_rhs", real)
    return out, len(calls)


def outcome_shape(out):
    stats = [(d.degree, d.rows, d.cols, d.nnz, d.status) for d in out.per_degree]
    cert = write_cert(out.certificate) if out.certificate else None
    return out.verdict, out.degree, stats, cert


@pytest.mark.parametrize(
    "graph",
    [gen_wheel(4), gen_wheel(6)] + [gen_random(12, 0.4, s) for s in (0, 3, 11)],
    ids=["wheel4", "wheel6", "random12s0", "random12s3", "random12s11"],
)
def test_root_skips_elimination_with_identical_outcome(monkeypatch, graph):
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    plain, plain_solves = prove_counting_solves(monkeypatch, F)
    rooted, rooted_solves = prove_counting_solves(monkeypatch, F, root=find_coloring(graph, 3))
    assert outcome_shape(rooted) == outcome_shape(plain)
    assert plain.verdict == "no_certificate_up_to"
    assert (plain_solves, rooted_solves) == (2, 0)


def test_root_skips_orbit_and_full_solves_under_symmetry(monkeypatch):
    graph = gen_wheel(6)
    F = encode_coloring(graph, EncodingOptions())
    perms = parse_generators("(1,2,3,4,5,6)", F.n_vars)
    plain, plain_solves = prove_counting_solves(monkeypatch, F, perms=perms)
    rooted, rooted_solves = prove_counting_solves(
        monkeypatch, F, perms=perms, root=find_coloring(graph, 3)
    )
    # order 6 is not coprime to 2: each degree has an orbit and a full entry
    assert len(plain.per_degree) == 4
    assert (plain_solves, rooted_solves) == (4, 0)
    # the root counts each degree once, at the size of its full matrix
    verdict, degree, per_degree, cert = outcome_shape(plain)
    assert outcome_shape(rooted) == (verdict, degree, per_degree[1::2], cert)


def test_bad_root_cannot_change_a_result(monkeypatch):
    # every point of {1, w, w^2}^5 on the colorable wheel:4: only proper
    # colorings skip elimination, and no point changes the outcome
    graph = gen_wheel(4)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    plain, _ = prove_counting_solves(monkeypatch, F)
    skipped = 0
    for root in itertools.product(range(3), repeat=F.n_vars):
        out, solves = prove_counting_solves(monkeypatch, F, root=root)
        assert outcome_shape(out) == outcome_shape(plain), root
        proper = all(root[u - 1] != root[v - 1] for u, v in graph.edges)
        assert solves == (0 if proper else 2), root
        skipped += proper
    assert skipped == 6  # 3 hub colors, then 2 ways to color the 4-cycle rim
    # on the non-colorable wheel:5 no point is a root; the certificate stands
    F5 = encode_coloring(gen_wheel(5), EncodingOptions(preprocess=True))
    plain5, _ = prove_counting_solves(monkeypatch, F5)
    rng = random.Random(5)
    for _ in range(40):
        root = [rng.randrange(3) for _ in range(F5.n_vars)]
        out, solves = prove_counting_solves(monkeypatch, F5, root=root)
        assert outcome_shape(out) == outcome_shape(plain5) and solves == 1


def test_gf4_value_matches_reference_evaluation():
    rng = random.Random(8)
    vanished = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = {v: rng.randint(1, 5) for v in rng.sample(range(n), rng.randint(0, n))}
            terms[Monomial.make(exps, n)] = 1
        f = Polynomial.make(GF2, n, terms)
        root = [rng.randrange(3) for _ in range(n)]
        expected = eval_poly_gf4(f, [GF4_ROOTS[c] for c in root])
        assert asm._gf4_value(f, root) == expected, (f, root)
        vanished += expected == GF4_ZERO
    assert 50 < vanished < 450


def test_root_where_a_target_vanishes_still_solves(monkeypatch):
    # x1^3+1 is the kept vertex polynomial, so it vanishes at every coloring
    # and degree 1 certifies it; the root must not skip that solve
    graph = gen_wheel(4)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    target = parse_poly("x1^3+1", GF2, F.n_vars)
    plain, plain_solves = prove_counting_solves(monkeypatch, F, g_candidates=[target])
    rooted, rooted_solves = prove_counting_solves(
        monkeypatch, F, g_candidates=[target], root=find_coloring(graph, 3)
    )
    assert outcome_shape(rooted) == outcome_shape(plain)
    assert plain.verdict == "infeasible" and plain.degree == 1
    assert (plain_solves, rooted_solves) == (1, 1)


def random_graded_system(rng, field, n, k):
    """Random polys whose term degrees agree mod k, so graded:k applies."""
    polys = []
    for _ in range(rng.randint(1, 4)):
        r = rng.randrange(k)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            deg = r + k * rng.randint(0 if r else 1, 1)
            exps = {}
            for _ in range(deg):
                v = rng.randrange(n)
                exps[v] = exps.get(v, 0) + 1
            terms[Monomial.make(exps, n)] = rng.randrange(1, field.p)
        polys.append(Polynomial.make(field, n, terms))
    return PolySystem.make(field, n, polys)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sizes_match_assembly(p):
    field = FieldSpec(p)
    rng = random.Random(p)
    for _ in range(6):
        n = rng.randint(1, 4)
        k = rng.choice([2, 3])
        F = random_graded_system(rng, field, n, k)
        top = max(f.degree for f in F.polys)
        for d in range(5):
            # x1^e lies above every product x^delta * t, so no column reaches it
            e = k * (2 + (d + top) // k)
            far = Polynomial.from_monomial(Monomial.make({0: e}, n), field)
            near = Polynomial.make(field, n, {Monomial.make({n - 1: k}, n): 1})
            targets = [Polynomial.one(field, n), near, far]
            for pruning in ("occurring", f"graded:{k}"):
                system = assemble(F, d, targets, pruning).system
                counted = _sizes(F, d, targets, pruning)
                assert counted == (system.n_rows, system.n_cols, system.nnz)
                # the unreached target monomial is one row of its own
                assert _sizes(F, d, targets[:2], pruning)[0] == counted[0] - 1


def test_sizes_keep_validation_and_budget():
    F = encode_coloring(gen_wheel(4), EncodingOptions(preprocess=True))
    x1 = parse_poly("x1", GF2, F.n_vars)
    for args in ((F, -1, [Polynomial.one(GF2, F.n_vars)]), (F, 1, []), (F, 1, [Polynomial.zero(GF2, F.n_vars)])):
        with pytest.raises(AssembleError):
            _sizes(*args)
    with pytest.raises(AssembleError, match="target has degree-1 monomial"):
        _sizes(F, 1, [x1], "graded:3")
    with pytest.raises(MemoryBudgetError) as counted:
        _sizes(F, 1, [Polynomial.one(GF2, F.n_vars)], "graded:3", 64)
    with pytest.raises(MemoryBudgetError) as assembled:
        assemble(F, 1, [Polynomial.one(GF2, F.n_vars)], "graded:3", 64)
    assert str(counted.value) == str(assembled.value)


@pytest.mark.parametrize(
    "graph, generators",
    [(gen_wheel(4), None), (gen_random(16, 0.27, 0), None), (gen_wheel(6), "(1,2,3,4,5,6)")],
    ids=["wheel4", "random16s0", "wheel6-symmetry"],
)
def test_root_counts_degrees_without_assembly(monkeypatch, graph, generators):
    # under a symmetry group as well, each degree is counted at full size
    F = encode_coloring(graph, EncodingOptions(preprocess=generators is None))
    perms = parse_generators(generators, F.n_vars) if generators else None
    plain = nulla_prove(F, [1, 4], pruning="graded:3")

    def no_assembly(*args, **kwargs):
        raise AssertionError("a refuted degree is counted, not assembled")

    monkeypatch.setattr(asm, "_assemble", no_assembly)
    rooted = nulla_prove(
        F, [1, 4], pruning="graded:3", perms=perms, root=find_coloring(graph, 3)
    )
    assert outcome_shape(rooted) == outcome_shape(plain)
    assert plain.verdict == "no_certificate_up_to"


def test_root_validation():
    F = encode_coloring(gen_wheel(4), EncodingOptions(preprocess=True))
    with pytest.raises(AssembleError):
        nulla_prove(F, [1], pruning="graded:3", root=[0, 1])
    with pytest.raises(AssembleError):
        nulla_prove(small_system(), [1], root=[0, 1, 2])



def embedded(f, images, n):
    """f with variable v renamed to images[v], over n variables."""
    terms = [(Monomial.make([(images[v], e) for v, e in m.exponents], n), c) for m, c in f.terms]
    return Polynomial.make(f.field, n, terms)


def assert_same_outcome(compact, wide, images, n):
    """The same verdict, degree and per-degree sizes, and wide's certificate
    is compact's renamed by images into n variables."""
    assert (wide.verdict, wide.degree) == (compact.verdict, compact.degree)
    assert [(s.degree, s.rows, s.cols, s.nnz, s.status) for s in wide.per_degree] == [
        (s.degree, s.rows, s.cols, s.nnz, s.status) for s in compact.per_degree
    ]
    if compact.certificate is None:
        assert wide.certificate is None
        return
    c = compact.certificate
    entries = tuple(
        CertEntry(e.tag, embedded(e.source, images, n), embedded(e.multiplier, images, n)) for e in c.entries
    )
    expected = Certificate(c.field, n, embedded(c.target, images, n), entries, wide.certificate.provenance)
    assert wide.certificate == expected and verify(wide.certificate)
    assert {**wide.certificate.provenance, "symmetry": None} == {**c.provenance, "symmetry": None}


@pytest.mark.parametrize("p", [2, 3])
def test_absent_variables_change_nothing(p):
    # a variable in no polynomial and no target gets no shift, so a system
    # embedded among unused variables is solved exactly as its compact form
    field = FieldSpec(p)
    rng = random.Random(40 + p)
    verdicts = set()
    for _ in range(16):
        n = rng.randint(2, 4)
        polys = []
        for _ in range(rng.randint(2, 5)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = {v: rng.randint(1, 2) for v in rng.sample(range(n), rng.randint(0, 2))}
                terms[Monomial.make(exps, n)] = rng.randrange(1, p)
            polys.append(Polynomial.make(field, n, terms))
        F = PolySystem.make(field, n, polys)
        targets = [Polynomial.one(field, n), Polynomial.from_monomial(Monomial.make({n - 1: 1}, n), field)]
        wide_n = n + rng.randint(1, 4)
        images = sorted(rng.sample(range(wide_n), n))
        E = PolySystem.make(field, wide_n, [embedded(f, images, wide_n) for f in F.polys], F.tags)
        compact = nulla_prove(F, [0, 1, 2], targets)
        wide = nulla_prove(E, [0, 1, 2], [embedded(g, images, wide_n) for g in targets])
        assert_same_outcome(compact, wide, images, wide_n)
        verdicts.add(compact.verdict)
    assert verdicts == {"infeasible", "no_certificate_up_to"}


@pytest.mark.parametrize("k, p, orbit_hit", [(3, 2, False), (2, 3, True)])
def test_absent_variables_fixed_by_the_group_change_nothing(k, p, orbit_hit):
    # K4 under the rotation of its vertices, embedded among three unused
    # variables that the generator fixes.  The order 4 is coprime to 3 only,
    # so over GF(2) the orbit solve misses and the full system certifies.
    F = encode_coloring(gen_complete(4), EncodingOptions(k=k, field=FieldSpec(p)))
    images, wide_n = [1, 2, 4, 6], 7
    E = PolySystem.make(F.field, wide_n, [embedded(f, images, wide_n) for f in F.polys], F.tags)
    generator = list(range(wide_n))
    for i in range(4):
        generator[images[i]] = images[(i + 1) % 4]
    compact = nulla_prove(F, [1, 2, 3], perms=PermutationSet.make(4, [[1, 2, 3, 0]]))
    wide = nulla_prove(E, [1, 2, 3], perms=PermutationSet.make(wide_n, [generator]))
    assert compact.verdict == "infeasible"
    assert_same_outcome(compact, wide, images, wide_n)
    assert wide.certificate.provenance["symmetry"] == ([generator] if orbit_hit else None)


# ---------------------------------------------------------------------------
# Peeling: nulla_prove's build drops the columns forced to zero


def assert_peel_matches_full(F, d, targets, pruning):
    """The peeled build against assemble() + solve_multi_rhs: the same full
    sizes, the same status per rhs, the same solution once the peeled
    columns are put back at zero, and the same certificate bytes.  Returns
    the peeled and the full AssembledSystem and each rhs's consistency."""
    asys = assemble(F, d, targets, pruning)
    peeled, sizes = asm._assemble(F, d, targets, pruning, None, True)
    assert sizes == (asys.system.n_rows, asys.system.n_cols, asys.system.nnz)
    at = {key: j for j, key in enumerate(asys.packed_cols)}
    kept = [at[key] for key in peeled.packed_cols]
    assert kept == sorted(set(kept))
    full = solve_multi_rhs(asys.system, asys.rhs_list)
    part = solve_multi_rhs(peeled.system, peeled.rhs_list)
    assert [r.status for r in part] == [r.status for r in full]
    for g, a, b in zip(targets, full, part):
        if a.consistent:
            padded = [0] * asys.system.n_cols
            for j, v in zip(kept, b.solution):
                padded[j] = v
            assert tuple(padded) == a.solution
            assert write_cert(extract_certificate(F, peeled, b.solution, g)) == write_cert(
                extract_certificate(F, asys, a.solution, g)
            )
    return peeled, asys, [r.consistent for r in full]


def random_system(rng, field, n, count, top):
    """count random polynomials in n variables, each with 1 to 6 distinct
    monomials of degree <= top and nonzero coefficients."""
    monos = [m for m in monomials_up_to(n, top)]
    return PolySystem.make(field, n, [
        Polynomial.make(field, n, {m: rng.randrange(1, field.p) for m in rng.sample(monos, rng.randint(1, 6))})
        for _ in range(count)
    ])


def peel_cases():
    """(id, F, degree, targets, pruning), seeded."""
    graph = EncodingOptions(preprocess=True)
    for n in range(5, 32):
        F = encode_coloring(gen_wheel(n), graph)
        yield f"wheel{n}", F, 1, [Polynomial.one(GF2, F.n_vars)], "graded:3"
    for k in (5, 6, 7):
        F = encode_coloring(gen_mycielski(k), graph)
        yield f"mycielski{k}", F, 1, [Polynomial.one(GF2, F.n_vars)], "graded:3"
    for n in range(12, 17):
        F = encode_coloring(gen_random(n, 0.27, n), graph)
        for d in (1, 4):
            yield f"gnp{n}-d{d}", F, d, [Polynomial.one(GF2, F.n_vars)], "graded:3"
    rng = random.Random(2020)
    for s in range(4):
        F = random_system(rng, GF3, 8, 10, 2)
        for d in (1, 2, 3):
            yield f"gf3-{s}-d{d}", F, d, [Polynomial.one(GF3, 8)], "occurring"
    F = PolySystem.make(GF3, 8, [parse_poly(line.split()[1], GF3, 8) for line in GF3_DEGREE3.splitlines()])
    yield "gf3-degree3", F, 3, [Polynomial.one(GF3, 8)], "occurring"
    GF5 = FieldSpec(5)
    texts = ["4*x1^2+2*x1", "x3^2", "4*x1*x3+1", "3*x2"]
    F = PolySystem.make(GF5, 3, [parse_poly(t, GF5, 3) for t in texts])
    yield "gf5", F, 2, [Polynomial.one(GF5, 3)], "occurring"
    # monomial targets, as --alt-g gives them: all of --alt-g auto:3's, and
    # 1 with a sample of them, so that other rows still peel
    for name, g in (("wheel5", gen_wheel(5)), ("wheel8", gen_wheel(8)), ("K4", gen_complete(4))):
        F = encode_coloring(g, graph)
        alts = [Polynomial.from_monomial(m, GF2) for m in alt_g_candidates(F.n_vars, 3)]
        yield f"alt-g-auto-{name}", F, 1, [Polynomial.one(GF2, F.n_vars)] + alts, "graded:3"
        yield f"alt-g-{name}", F, 1, [Polynomial.one(GF2, F.n_vars)] + rng.sample(alts, 6), "graded:3"


def test_peeled_build_matches_the_full_system():
    statuses, dropped = set(), 0
    for case, F, d, targets, pruning in peel_cases():
        try:
            peeled, asys, consistent = assert_peel_matches_full(F, d, targets, pruning)
        except AssertionError as e:
            raise AssertionError(f"case {case}") from e
        statuses.update(consistent)
        dropped += peeled.system.n_cols < asys.system.n_cols
    # both verdicts are compared, and most systems lose columns
    assert statuses == {True, False} and dropped > 40


def test_a_target_monomial_that_one_column_produces_is_kept():
    # F = {x1}, target x1*x2: the certificate is x2 * x1, the one product
    # under the target's row, while the rows x1 and x1^2 force their columns
    # 1 and x1 to zero
    F = PolySystem.make(GF2, 2, [parse_poly("x1", GF2, 2)])
    g = parse_poly("x1*x2", GF2, 2)
    peeled, asys, consistent = assert_peel_matches_full(F, 1, [g], "occurring")
    assert consistent == [True]
    assert asys.system.n_rows == 3 and asys.system.n_cols == 3
    assert columns(peeled) == [(0, Monomial.make({1: 1}, 2))]
    assert row_monomials(peeled) == [Monomial.make({0: 1, 1: 1}, 2)]


def test_wheel101_peels_to_the_certificates_neighbourhood():
    F = encode_coloring(gen_wheel(101), EncodingOptions(preprocess=True))
    peeled, sizes = asm._assemble(F, 1, [Polynomial.one(GF2, F.n_vars)], "graded:3", None, True)
    assert sizes == (25353, 20605, 61814)
    assert (peeled.system.n_rows, peeled.system.n_cols) == (1012, 1112)


@pytest.mark.parametrize("n", [31, 101])
def test_budget_between_peeled_and_full_still_refuses(n):
    # the budget is checked on the full system, block by block as filing
    # checks it: wheel:101's 20,605 columns are five blocks, and the refusal
    # comes in a middle one
    F = encode_coloring(gen_wheel(n), EncodingOptions(preprocess=True))
    one = [Polynomial.one(GF2, F.n_vars)]
    peeled, (rows, cols, _) = asm._assemble(F, 1, one, "graded:3", None, True)
    full = packed_bytes(rows, cols, 2)
    budget = full - 1 if n == 31 else 21904992
    assert packed_bytes(peeled.system.n_rows, peeled.system.n_cols, 2) < budget < full
    with pytest.raises(MemoryBudgetError) as refused:
        nulla_prove(F, [1], pruning="graded:3", memory_budget=budget)
    with pytest.raises(MemoryBudgetError) as assembled:
        assemble(F, 1, one, "graded:3", budget)
    assert str(refused.value) == str(assembled.value)
    assert refused.value.n_cols == cols
    assert nulla_prove(F, [1], pruning="graded:3", memory_budget=full).verdict == "infeasible"
