"""Tests for linear-system assembly, the degree loop, and the certificate support."""

import itertools
import random
import time
import tracemalloc

import pytest

import nullcert.assemble as asm
from helpers import (
    GF3_DEGREE3,
    columns,
    expanded,
    full_system,
    graded,
    layout,
    monomials_up_to,
    poly_mul,
    row_monomials,
    spy_local_shifts,
)
from nullcert.assemble import (
    AssembleError,
    _Packing,
    alt_g_candidates,
    assemble_orbit,
    extract_certificate,
    nulla_prove,
    stats,
)
from nullcert.certificate import CertEntry, Certificate, verify, write_cert
import nullcert.cli as cli
from nullcert.encode import (
    EncodeError,
    EncodingOptions,
    common_root,
    encode_coloring,
)
from nullcert.graphs import (
    Graph,
    find_coloring,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
)
from nullcert.linsolve import MemoryBudgetError, SparseSystem, packed_bytes, solve, solve_multi_rhs
from nullcert.poly import (
    FieldSpec,
    Monomial,
    PolySystem,
    Polynomial,
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
    asys = full_system(F, 1, [g], graded=False)
    assert asys.system.n_cols == 16
    assert asys.system.n_rows == occurring_row_oracle(F, 1, g) == 13
    # graded by 2: the quadric at the constant shift and each line at x1, x2, x3
    graded = full_system(F, 1, [g]).system
    assert (graded.n_rows, graded.n_cols) == (7, 10)


def test_small_system_proof_and_runtime():
    t0 = time.perf_counter()
    out = nulla_prove(small_system(), [1])
    elapsed = time.perf_counter() - t0
    assert out.certificate is not None and out.degree == 1
    assert verify(out.certificate)
    assert out.per_degree[0].cols == 10
    assert elapsed < 1.0


def test_entry_values_match_shifted_coefficients():
    F = PolySystem.make(GF2, 2, [parse_poly("x1+x2", GF2, 2)])
    asys = full_system(F, 1, [Polynomial.one(GF2, 2)])
    # columns: shifts 1, x1, x2; rows looked up by their monomials
    assert [expanded(shift) for _, shift in columns(asys)] == [(), (0,), (1,)]
    by_row = {expanded(m): cols for m, cols in zip(row_monomials(asys), asys.system.rows)}
    assert by_row[(0,)] == ((0, 1),)          # x1 from shift 1
    assert by_row[(1,)] == ((0, 1),)          # x2 from shift 1
    assert by_row[(0, 0)] == ((1, 1),)        # x1^2 from shift x1
    assert by_row[(0, 1)] == ((1, 1), (2, 1)) # x1*x2 from both shifts
    assert by_row[(1, 1)] == ((2, 1),)        # x2^2 from shift x2
    # rhs carries the target coefficient on the constant row
    rows = row_monomials(asys)
    assert [[(expanded(rows[r]), c) for r, c in rhs] for rhs in asys.rhs_list] == [[((), 1)]]


def test_columns_are_shift_major_and_rows_come_as_first_met_reversed():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, 4)
    asys = full_system(F, 1, [g])
    # columns shift-major: shift degree, then shift in graded order, then poly
    cols = [(len(expanded(shift)), expanded(shift), i) for i, shift in columns(asys)]
    assert cols == sorted(cols)
    # rows in the reverse of the order filing first meets them: the target's
    # monomials, then each column's products in its poly's term order
    met = dict.fromkeys(m for m, _ in g.terms)
    for i, shift in columns(asys):
        for m, _ in F.polys[i].terms:
            met.setdefault(shift.mul(m))
    assert row_monomials(asys) == list(met)[::-1]
    assert asys.rhs_list == [[(len(met) - 1, 1)]]
    # so the product rows come lowest column descending, the target's last
    lows = [row[0][0] for row in asys.system.rows[:-1]]
    assert lows == sorted(lows, reverse=True) and lows[0] > lows[-1]


def test_k4_preprocessed_graded_shape():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    asys = full_system(F, 1, [Polynomial.one(GF2, 4)])
    assert (asys.system.n_rows, asys.system.n_cols) == (21, 25)
    # row universe: constant plus every degree-3 monomial in 4 variables
    degs = sorted(m.degree for m in row_monomials(asys))
    assert degs == [0] + [3] * 20


def test_degenerate_constant_system():
    F = PolySystem.make(GF2, 1, [Polynomial.one(GF2, 1)])
    asys = full_system(F, 0, [Polynomial.one(GF2, 1)])
    assert (asys.system.n_rows, asys.system.n_cols) == (1, 1)
    res = solve(asys.system, asys.rhs_list[0])
    assert res.consistent and res.solution == ((0, 1),)
    out = nulla_prove(F, [0])
    assert out.certificate is not None and verify(out.certificate)


@pytest.mark.parametrize("k, p, cutters", [(2, 3, "none"), (3, 2, "cliques"), (4, 3, "cliques"), (5, 2, "cliques")])
def test_grading_of_a_coloring_is_its_number_of_colors(k, p, cutters):
    field = FieldSpec(p)
    for opts in (EncodingOptions(k, field), EncodingOptions(k, field, preprocess=True, cutters=cutters)):
        F = encode_coloring(gen_complete(k + 1), opts)
        assert asm.grading(F, [Polynomial.one(field, F.n_vars)]) == k
        # a target of degree 1 leaves no grading, one of degree k keeps it
        assert asm.grading(F, [parse_poly("x1", field, F.n_vars)]) == 1
        assert asm.grading(F, [parse_poly(f"x1^{k}", field, F.n_vars)]) == k


def test_grading_of_the_quadric_and_lines_is_two():
    F = small_system()
    assert asm.grading(F, [Polynomial.one(GF3, 3)]) == 2
    assert (stats(F, 1)["pruning"], stats(F, 1)["cols"]) == ("graded:2", 10)
    # a single-term system has no spread, so the grading is 1
    assert asm.grading(PolySystem.make(GF3, 3, [parse_poly("x1", GF3, 3)]), [Polynomial.one(GF3, 3)]) == 1


def test_zero_target_rejected():
    with pytest.raises(AssembleError, match="zero target"):
        full_system(small_system(), 1, [Polynomial.make(GF3, 3, [])])


def test_target_field_mismatch_rejected():
    with pytest.raises(AssembleError, match="mismatch"):
        full_system(small_system(), 1, [Polynomial.one(GF2, 3)])


def test_schedule_validation():
    F = small_system()
    for bad in ([], [2, 1], [1, 1], [-1], range(3, 0, -1), range(-1, 2), range(1, 1)):
        with pytest.raises(AssembleError, match="schedule"):
            nulla_prove(F, bad)


def test_empty_target_list_rejected():
    # only None means the one target g = 1; [] is refused
    F = small_system()
    with pytest.raises(AssembleError, match="need at least one target polynomial"):
        nulla_prove(F, [1], [])
    assert nulla_prove(F, [1], None).certificate.target == Polynomial.one(GF3, 3)


def test_memory_budget_propagates():
    F = encode_coloring(gen_complete(6), EncodingOptions())
    with pytest.raises(MemoryBudgetError):
        asm._assemble(F, 2, [Polynomial.one(GF2, 6)], 64)


def test_stats_k4_raw_formulas():
    F = encode_coloring(gen_complete(4), EncodingOptions())
    st = stats(F, 1)
    assert (st["n_vars"], st["polys"], st["monomials"]) == (4, 10, 26)
    assert st["predicted_cols"] == 50 and st["predicted_nnz"] == 130
    # the ungraded system is the predicted one; graded by 3, the vertex
    # polynomials keep the constant shift only and the edge polynomials x1..x4
    ref = layout(F, 1, [Polynomial.one(GF2, 4)], graded=False)
    assert (ref.n_cols, ref.nnz) == (50, 130)
    assert (st["pruning"], st["cols"], st["nnz"]) == ("graded:3", 28, 80)
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
        st = stats(F, 1)
        ref = layout(F, 1, [Polynomial.one(GF2, F.n_vars)], graded=False)
        assert st["pruning"] == "graded:3"
        for cols, nnz in ((st["cols"], st["nnz"]), (ref.n_cols, ref.nnz)):
            assert cols <= st["predicted_cols"]
            assert nnz <= st["predicted_nnz"]
        assert st["cols"] < ref.n_cols


def test_k3_no_certificate_up_to_four():
    F = encode_coloring(gen_complete(3), EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1, 4])
    assert out.certificate is None and out.degree == 4
    assert out.certificate is None
    assert [d.status for d in out.per_degree] == ["inconsistent", "inconsistent"]
    assert [d.degree for d in out.per_degree] == [1, 4]
    assert all(d.millis >= 0 and d.nnz > 0 for d in out.per_degree)


def test_consistency_survives_degree_increase():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, 4)
    for d in (1, 4):
        asys = full_system(F, d, [g])
        assert solve(asys.system, asys.rhs_list[0]).consistent


def test_first_consistent_target_wins():
    F = PolySystem.make(GF3, 2, [parse_poly("x1+x2", GF3, 2), parse_poly("x1", GF3, 2)])
    g_x2 = parse_poly("x2", GF3, 2)
    g_x1 = parse_poly("x1", GF3, 2)
    out = nulla_prove(F, [0], [g_x2, g_x1])
    assert out.certificate is not None
    assert out.certificate.target == g_x2
    # x2 = (x1+x2) - x1 with constant multipliers
    assert {e.tag for e in out.certificate.entries} == {"user:0", "user:1"}


def test_later_target_found_when_first_fails():
    # x1^2 is not a constant combination of x1+x2 alone; x2 never is
    F = PolySystem.make(GF3, 2, [parse_poly("x1+x2", GF3, 2)])
    impossible = parse_poly("2", GF3, 2)
    reachable = parse_poly("x1+x2", GF3, 2)
    out = nulla_prove(F, [0], [impossible, reachable])
    assert out.certificate is not None
    assert out.certificate.target == reachable


def test_extract_certificate_matches_prove_path():
    F = small_system()
    g = Polynomial.one(GF3, 3)
    asys = full_system(F, 1, [g])
    res = solve(asys.system, asys.rhs_list[0])
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
    # nulla_prove's certificate is the one the full system + solve + extract give
    field = FieldSpec(p)
    F = PolySystem.make(field, n_vars, [parse_poly(t, field, n_vars) for t in texts])
    g = Polynomial.one(field, n_vars)
    out = nulla_prove(F, range(1, d + 1))
    assert out.degree == d
    asys = full_system(F, d, [g])
    res = solve(asys.system, asys.rhs_list[0])
    cert = extract_certificate(F, asys, res.solution, g, out.certificate.provenance)
    assert write_cert(cert) == write_cert(out.certificate)


@pytest.mark.parametrize(
    "graph",
    [gen_complete(4), gen_wheel(5), gen_random(8, 0.5, 4), gen_complete(3)],
    ids=["K4", "wheel5", "random8", "K3"],
)
def test_gf2_prove_matches_assemble_and_solve(graph, monkeypatch):
    # each degree's stats line and verdict are those of the full system +
    # solve, where nulla_prove builds it on every column
    monkeypatch.setattr(asm, "_local_shifts", lambda F: None)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, graph.n_vertices)
    for d in (1, 4):
        asys = full_system(F, d, [g])
        out = nulla_prove(F, [d])
        (st,) = out.per_degree
        res = solve(asys.system, asys.rhs_list[0])
        status = "consistent" if res.consistent else "inconsistent"
        assert (st.rows, st.cols, st.nnz, st.status) == (
            asys.system.n_rows, asys.system.n_cols, asys.system.nnz, status
        )
        if res.consistent:
            assert out.certificate is not None and verify(out.certificate)
    assert (out.certificate is not None) == (find_coloring(graph, 3) is None)


def test_shuffled_rows_extract_the_same_certificate():
    # random:16,0.27,2 certifies at degree 4 on its core's 1,837 x 4,853
    # system, peeled; its rows solved in any order give the same
    # certificate bytes
    core, _ = cli.build_core(gen_random(16, 0.27, 2), EncodingOptions(preprocess=True), 1, None)
    g = Polynomial.one(GF2, core.n_vars)
    asys, sizes = asm._assemble(core, 4, [g], None)
    assert sizes == (1837, 4853, 14438)
    rows, (rhs,) = asys.system.rows, asys.rhs_list
    certs = []
    for seed in (None, 0, 1):
        order = list(range(len(rows)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        at = {r: k for k, r in enumerate(order)}
        system = SparseSystem(GF2, asys.system.n_cols, tuple(rows[r] for r in order))
        res = solve(system, [(at[r], c) for r, c in rhs])
        assert res.consistent
        certs.append(write_cert(extract_certificate(core, asys, res.solution, g)))
    assert certs[0] == certs[1] == certs[2]


def test_packed_monomials_match_monomial_arithmetic():
    rng = random.Random(20)
    for trial in range(300):
        # n <= 20 and b <= 7 draw both packings with a salt region (56 of
        # the 300) and without one (n*b + b + n.bit_length() <= 61)
        n = rng.randint(1, 20)
        # every variable in a third of the trials, a list with gaps otherwise
        listed = range(n) if trial % 3 == 0 else sorted(rng.sample(range(n), rng.randint(1, n)))
        packing = _Packing(listed, n, rng.randint(1, 7))
        top = (1 << packing.b) - 1  # the widest value a field holds

        def split(total):
            """Two monomials whose product has the given exponents."""
            a = {v: rng.randint(0, e) for v, e in total.items()}
            return (
                Monomial.make(a.items(), n),
                Monomial.make([(v, e - a[v]) for v, e in total.items()], n),
            )

        def exponents():
            return {v: rng.randint(1, top) for v in listed if rng.random() < 0.4}

        monos = [Monomial.make(exponents().items(), n) for _ in range(10)]
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


def test_packed_row_keys_hash_apart_at_scale():
    # wheel:301's degree-1 row keys, unpeeled: with their exponent fields
    # alone they would alias mod 2^61 - 1 into a few thousand hashes
    F = encode_coloring(gen_wheel(301), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, F.n_vars)
    lay = asm._layout(F, 1, [g], None)
    assert lay.packing.salt_bits > 0
    rows = asm._count(GF2, lay, None).keys()
    assert len(rows) == 226053
    assert len({hash(m) for m in rows}) == len(rows)


def test_small_packings_have_no_salt_region():
    # a G(16, 0.27) degree-4 system packs into keys below 2^61 - 1, each its
    # own hash, exactly as without a salt
    F = encode_coloring(gen_random(16, 0.27, 0), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, F.n_vars)
    packing = asm._layout(F, 4, [g], None).packing
    n, b = len(packing.variables), packing.b
    assert (n, b, packing.salt_bits) == (16, 3, 0)
    assert list(packing.units.values()) == [1 << n * b | 1 << (n - 1 - j) * b for j in range(n)]


def test_large_exponent_assembles_in_small_memory():
    # one row key per monomial, however large its exponents: no expanded
    # variable tuple of length 2,000,000 is ever built
    F = PolySystem.make(
        GF2, 2, [parse_poly(t, GF2, 2) for t in ("x1^2000000+1", "x1+x2", "x2")]
    )
    g = Polynomial.one(GF2, 2)
    tracemalloc.start()
    try:
        # ungraded: the grading by 2,000,000 would keep one column
        asys = full_system(F, 1, [g], graded=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    system = asys.system
    assert (system.n_rows, system.n_cols, system.nnz) == (9, 9, 15)
    assert row_monomials(graded(asys))[-2] == Monomial.make([(0, 2000001)], 2)
    assert peak < 1 << 20


def test_extract_certificate_column_check():
    F = small_system()
    one = Polynomial.one(GF3, 3)
    asys = full_system(F, 1, [one])
    n = asys.system.n_cols
    assert extract_certificate(F, asys, [(n - 1, 1)], one).entries
    for wrong in ([(n, 1)], [(-1, 1)]):
        with pytest.raises(AssembleError, match="column"):
            extract_certificate(F, asys, wrong, one)
    # an orbit system takes a solution on its own 9 columns, one per key,
    # and refuses a column among the 25 full columns its orbits cover
    K4 = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g = Polynomial.one(GF2, 4)
    orb = assemble_orbit(K4, 1, g, PermutationSet.make(4, [(0, 2, 3, 1)]))
    assert orb.system.n_cols == len(orb.packed_cols) == 9
    assert extract_certificate(K4, orb, (), g).entries == ()
    assert extract_certificate(K4, orb, [(8, 1)], g).entries
    for wrong in ([(9, 1)], [(0, 1), (24, 1)]):
        with pytest.raises(AssembleError, match="column"):
            extract_certificate(K4, orb, wrong, g)


def test_prove_provenance_recorded():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1], provenance={"graph": "abc"})
    prov = out.certificate.provenance
    assert prov["degree"] == 1
    assert prov["pruning"] == "graded:3"
    assert prov["graph"] == "abc"
    assert prov["symmetry"] is None


def test_graded_equals_unpruned_on_coloring_systems():
    # the grading must not change consistency at any tested degree
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        g = gen_random(5 + rng.randrange(4), 0.55, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        target = Polynomial.one(GF2, g.n_vertices)
        full, pruned = (
            solve(asys.system, asys.rhs_list[0]).consistent
            for asys in (full_system(F, 1, [target], graded=graded) for graded in (False, True))
        )
        assert full == pruned
        checked += 1
    assert checked == 40


def test_preprocessing_preserves_degree_one_verdict():
    rng = random.Random(23)
    for _ in range(30):
        g = gen_random(6 + rng.randrange(4), 0.5, rng.randrange(10**6))
        raw = nulla_prove(encode_coloring(g, EncodingOptions()), [1])
        pre = nulla_prove(
            encode_coloring(g, EncodingOptions(preprocess=True)), [1]
        )
        assert (raw.certificate is None) == (pre.certificate is None)


def test_infeasible_implies_not_colorable_many_seeds():
    # soundness spot-check across 200 random graphs: a certificate at any
    # degree must never appear for a 3-colorable graph
    rng = random.Random(5)
    infeasible = 0
    for _ in range(200):
        n = 5 + rng.randrange(5)
        g = gen_random(n, 0.5, rng.randrange(10**6))
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        out = nulla_prove(F, [1])
        if out.certificate is not None:
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
    out = nulla_prove(F, [1])
    sub = support_subgraph(out.certificate)
    assert sub.edges <= k4.edges
    assert len(sub.edges) >= 1


def test_isolate_ignores_disjoint_component():
    # K4 plus a path on vertices 5-6-7; certificate support stays in the K4
    k4 = gen_complete(4)
    edges = sorted(k4.edges) + [(5, 6), (6, 7)]
    g = Graph.make(7, edges)
    F = encode_coloring(g, EncodingOptions(preprocess=True), origin=1)
    out = nulla_prove(F, [1])
    assert out.certificate is not None
    sub = support_subgraph(out.certificate)
    assert all(v <= 4 for e in sub.edges for v in e)
    assert find_coloring(sub, 3) is None


def test_multi_target_row_universe_covers_all_candidates():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    g1 = Polynomial.one(GF2, 4)
    g2 = parse_poly("x1*x2*x3", GF2, 4)
    out = nulla_prove(F, [1], [g2, g1])
    assert out.certificate is not None
    assert verify(out.certificate)
    assert out.certificate.target in (g1, g2)


def prove_counting_solves(monkeypatch, F, **kw):
    """nulla_prove on schedule [1, 4]; also returns
    how many eliminations it ran."""
    calls = []
    real = asm.solve_multi_rhs
    monkeypatch.setattr(asm, "solve_multi_rhs", lambda *a: calls.append(1) or real(*a))
    out = nulla_prove(F, [1, 4], **kw)
    monkeypatch.setattr(asm, "solve_multi_rhs", real)
    return out, len(calls)


def build_nothing(monkeypatch):
    """Make every layout, count, build and solve of a system raise."""
    def fail(*args, **kwargs):
        raise AssertionError("a passing coloring builds no system")

    for name in ("_layout", "_assemble", "_orbit_system", "_count", "solve_multi_rhs"):
        monkeypatch.setattr(asm, name, fail)


def prove_ends_at_root(monkeypatch, capsys, tmp_path, spec, generators=None):
    """prove on schedule 1,4, with every system build raising: it must end
    at the common-root check.  Returns the coloring it prints."""
    build_nothing(monkeypatch)
    argv = ["prove", "--gen", spec, "--schedule", "1,4"]
    if generators:
        (tmp_path / "group.txt").write_text(generators + "\n")
        argv += ["--symmetry", str(tmp_path / "group.txt")]
    assert cli.main(argv) == 10
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("coloring=")
    return [int(c) for c in out[0][len("coloring="):].split(",")]


@pytest.mark.parametrize(
    "spec",
    ["wheel:4", "wheel:6"] + [f"random:12,0.4,{s}" for s in (0, 3, 11)],
    ids=["wheel4", "wheel6", "random12s0", "random12s3", "random12s11"],
)
def test_root_skips_elimination_with_identical_outcome(monkeypatch, capsys, tmp_path, spec):
    # the coloring passes the common-root check exactly where the degree
    # loop finds nothing, and prove then builds no system
    graph, _ = cli.parse_gen_spec(spec, None)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    plain = nulla_prove(F, [1, 4])
    assert plain.certificate is None
    root = find_coloring(graph, 3)
    assert common_root(F, None, root)
    assert prove_ends_at_root(monkeypatch, capsys, tmp_path, spec) == root


def test_root_skips_orbit_and_full_solves_under_symmetry(monkeypatch, capsys, tmp_path):
    graph = gen_wheel(6)
    F = encode_coloring(graph, EncodingOptions())
    perms = parse_generators("(1,2,3,4,5,6)", F.n_vars)
    plain, plain_solves = prove_counting_solves(monkeypatch, F, perms=perms)
    # the rim's orbits have size 6, even: each degree has an orbit and a full entry
    assert len(plain.per_degree) == 4 and plain_solves == 4
    assert plain.certificate is None
    root = find_coloring(graph, 3)
    assert common_root(F, None, root)
    assert prove_ends_at_root(monkeypatch, capsys, tmp_path, "wheel:6", "(1,2,3,4,5,6)") == root


def test_bad_root_cannot_change_a_result(monkeypatch):
    # every point of {1, w, w^2}^5 on the colorable wheel:4: only proper
    # colorings pass the common-root check, and there the degree loop finds
    # nothing; any other point fails it, and prove solves as usual
    graph = gen_wheel(4)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    plain, solves = prove_counting_solves(monkeypatch, F)
    assert (plain.certificate is None, solves) == (True, 2)
    skipped = 0
    for root in itertools.product(range(3), repeat=F.n_vars):
        proper = all(root[u - 1] != root[v - 1] for u, v in graph.edges)
        assert common_root(F, None, root) == proper, root
        skipped += proper
    assert skipped == 6  # 3 hub colors, then 2 ways to color the 4-cycle rim
    # on the non-colorable wheel:5 no point is a root; the certificate stands
    F5 = encode_coloring(gen_wheel(5), EncodingOptions(preprocess=True))
    plain5, solves5 = prove_counting_solves(monkeypatch, F5)
    assert (plain5.certificate is None, solves5) == (False, 1) and verify(plain5.certificate)
    rng = random.Random(5)
    for _ in range(40):
        root = [rng.randrange(3) for _ in range(F5.n_vars)]
        assert not common_root(F5, None, root), root


def test_root_where_a_target_vanishes_still_solves(monkeypatch):
    # x1^3+1 is the kept vertex polynomial, so it vanishes at every coloring
    # and degree 1 certifies it; the check must not pass for that target
    graph = gen_wheel(4)
    F = encode_coloring(graph, EncodingOptions(preprocess=True))
    target = parse_poly("x1^3+1", GF2, F.n_vars)
    root = find_coloring(graph, 3)
    assert common_root(F, None, root) and not common_root(F, [target], root)
    plain, plain_solves = prove_counting_solves(monkeypatch, F, g_candidates=[target])
    assert plain.certificate is not None and plain.degree == 1
    assert plain_solves == 1


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
            terms[Monomial.make(exps.items(), n)] = rng.randrange(1, field.p)
        polys.append(Polynomial.make(field, n, terms.items()))
    return PolySystem.make(field, n, polys)


def counted_sizes(F, d, targets, graded=True, memory_budget=None):
    """(rows, cols, nnz) of the full system, or of its ungraded reference,
    counted as stats counts them."""
    lay = asm._layout(F, d, targets, memory_budget) if graded else layout(F, d, targets, graded=False)
    return len(asm._count(F.field, lay, memory_budget)), lay.n_cols, lay.nnz


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
            far = Polynomial.from_monomial(Monomial.make([(0, e)], n), field)
            near = Polynomial.make(field, n, [(Monomial.make([(n - 1, k)], n), 1)])
            targets = [Polynomial.one(field, n), near, far]
            assert asm.grading(F, targets) % k == 0
            for graded in (False, True):
                system = full_system(F, d, targets, graded).system
                counted = counted_sizes(F, d, targets, graded)
                assert counted == (system.n_rows, system.n_cols, system.nnz)
                # the unreached target monomial is one row of its own
                assert counted_sizes(F, d, targets[:2], graded)[0] == counted[0] - 1


def test_sizes_keep_validation_and_budget():
    F = encode_coloring(gen_wheel(4), EncodingOptions(preprocess=True))
    for args in ((F, -1, [Polynomial.one(GF2, F.n_vars)]), (F, 1, []), (F, 1, [Polynomial.make(GF2, F.n_vars, [])])):
        with pytest.raises(AssembleError):
            counted_sizes(*args)
    with pytest.raises(MemoryBudgetError) as counted:
        counted_sizes(F, 1, [Polynomial.one(GF2, F.n_vars)], memory_budget=64)
    with pytest.raises(MemoryBudgetError) as assembled:
        asm._assemble(F, 1, [Polynomial.one(GF2, F.n_vars)], 64)
    assert str(counted.value) == str(assembled.value)


@pytest.mark.parametrize(
    "spec, generators",
    [("wheel:4", None), ("random:16,0.27,0", None), ("wheel:6", "(1,2,3,4,5,6)")],
    ids=["wheel4", "random16s0", "wheel6-symmetry"],
)
def test_root_counts_degrees_without_assembly(monkeypatch, capsys, tmp_path, spec, generators):
    # under a symmetry group as well, a passing coloring lays out, counts
    # and solves no degree
    graph, _ = cli.parse_gen_spec(spec, None)
    F = encode_coloring(graph, EncodingOptions(preprocess=generators is None))
    plain = nulla_prove(F, [1, 4])
    assert plain.certificate is None
    root = find_coloring(graph, 3)
    assert common_root(F, None, root)
    assert prove_ends_at_root(monkeypatch, capsys, tmp_path, spec, generators) == root


def test_root_validation():
    # the check needs GF(2) and one color per variable
    F = encode_coloring(gen_wheel(4), EncodingOptions(preprocess=True))
    with pytest.raises(EncodeError, match="one color per variable"):
        common_root(F, None, [0, 1])
    with pytest.raises(EncodeError, match="one color per variable"):
        common_root(small_system(), None, [0, 1, 2])
    assert common_root(F, None, find_coloring(gen_wheel(4), 3))


def embedded(f, images, n):
    """f with variable v renamed to images[v], over n variables."""
    terms = [(Monomial.make([(images[v], e) for v, e in m.exponents], n), c) for m, c in f.terms]
    return Polynomial.make(f.field, n, terms)


def assert_same_outcome(compact, wide, images, n):
    """The same verdict, degree and per-degree sizes, and wide's certificate
    is compact's renamed by images into n variables."""
    assert (wide.certificate is None, wide.degree) == (compact.certificate is None, compact.degree)
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
                terms[Monomial.make(exps.items(), n)] = rng.randrange(1, p)
            polys.append(Polynomial.make(field, n, terms.items()))
        F = PolySystem.make(field, n, polys)
        targets = [Polynomial.one(field, n), Polynomial.from_monomial(Monomial.make([(n - 1, 1)], n), field)]
        wide_n = n + rng.randint(1, 4)
        images = sorted(rng.sample(range(wide_n), n))
        E = PolySystem.make(field, wide_n, [embedded(f, images, wide_n) for f in F.polys], F.tags)
        compact = nulla_prove(F, [0, 1, 2], targets)
        wide = nulla_prove(E, [0, 1, 2], [embedded(g, images, wide_n) for g in targets])
        assert_same_outcome(compact, wide, images, wide_n)
        verdicts.add(compact.certificate is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("k, p, orbit_hit", [(3, 2, False), (2, 3, True)])
def test_absent_variables_fixed_by_the_group_change_nothing(k, p, orbit_hit):
    # K4 under the rotation of its vertices, embedded among three unused
    # variables that the generator fixes.  Its orbits, of sizes 1, 2 and 4,
    # are prime to 3 only, so over GF(2) the orbit solve misses and the full
    # system certifies.
    F = encode_coloring(gen_complete(4), EncodingOptions(k=k, field=FieldSpec(p)))
    images, wide_n = [1, 2, 4, 6], 7
    E = PolySystem.make(F.field, wide_n, [embedded(f, images, wide_n) for f in F.polys], F.tags)
    generator = list(range(wide_n))
    for i in range(4):
        generator[images[i]] = images[(i + 1) % 4]
    compact = nulla_prove(F, [1, 2, 3], perms=PermutationSet.make(4, [[1, 2, 3, 0]]))
    wide = nulla_prove(E, [1, 2, 3], perms=PermutationSet.make(wide_n, [generator]))
    assert compact.certificate is not None
    assert_same_outcome(compact, wide, images, wide_n)
    assert wide.certificate.provenance["symmetry"] == ([generator] if orbit_hit else None)


# ---------------------------------------------------------------------------
# Peeling: nulla_prove's build drops the columns forced to zero


def assert_peel_matches_full(F, d, targets):
    """The peeled build against full_system + solve_multi_rhs: the same full
    sizes, the full system's rows on the kept columns, the same status per
    rhs, the same solution once the peeled columns are put back at zero,
    and the same certificate bytes.  Returns the peeled and the full
    AssembledSystem and each rhs's consistency."""
    asys = full_system(F, d, targets)
    peeled, sizes = asm._assemble(F, d, targets, None)
    assert sizes == (asys.system.n_rows, asys.system.n_cols, asys.system.nnz)
    at = {key: j for j, key in enumerate(asys.packed_cols)}
    kept = [at[key] for key in peeled.packed_cols]
    assert kept == sorted(set(kept))
    # the full system's rows, dropping the unkept columns and renumbering
    # the rest, less those left empty that are no target's
    renumbered = dict(zip(kept, range(len(kept))))
    target_rows = {asys.packed_rows[r] for rhs in asys.rhs_list for r, _ in rhs}
    restricted = [
        (m, tuple((renumbered[j], c) for j, c in row if j in renumbered))
        for m, row in zip(asys.packed_rows, asys.system.rows)
    ]
    # rows are filed as met, so they are compared by key
    restricted = {m: row for m, row in restricted if row or m in target_rows}
    assert peeled.system.n_rows == len(restricted)
    assert dict(zip(peeled.packed_rows, peeled.system.rows)) == restricted

    def named(a):
        return [[(a.packed_rows[r], c) for r, c in rhs] for rhs in a.rhs_list]

    assert named(peeled) == named(asys)
    full = solve_multi_rhs(asys.system, asys.rhs_list)
    part = solve_multi_rhs(peeled.system, peeled.rhs_list)
    assert [r.consistent for r in part] == [r.consistent for r in full]
    for g, a, b in zip(targets, full, part):
        if a.consistent:
            assert tuple((kept[j], v) for j, v in b.solution) == a.solution
            assert write_cert(extract_certificate(F, peeled, b.solution, g)) == write_cert(
                extract_certificate(F, asys, a.solution, g)
            )
    return peeled, asys, [r.consistent for r in full]


def random_system(rng, field, n, count, top):
    """count random polynomials in n variables, each with 1 to 6 distinct
    monomials of degree <= top and nonzero coefficients."""
    monos = [m for m in monomials_up_to(n, top)]
    return PolySystem.make(field, n, [
        Polynomial.make(field, n, [(m, rng.randrange(1, field.p)) for m in rng.sample(monos, rng.randint(1, 6))])
        for _ in range(count)
    ])


def peel_cases():
    """(id, F, degree, targets), seeded."""
    graph = EncodingOptions(preprocess=True)
    for n in range(5, 32):
        F = encode_coloring(gen_wheel(n), graph)
        yield f"wheel{n}", F, 1, [Polynomial.one(GF2, F.n_vars)]
    for k in (5, 6, 7):
        F = encode_coloring(gen_mycielski(k), graph)
        yield f"mycielski{k}", F, 1, [Polynomial.one(GF2, F.n_vars)]
    for n in range(12, 17):
        F = encode_coloring(gen_random(n, 0.27, n), graph)
        for d in (1, 4):
            yield f"gnp{n}-d{d}", F, d, [Polynomial.one(GF2, F.n_vars)]
    rng = random.Random(2020)
    for s in range(4):
        F = random_system(rng, GF3, 8, 10, 2)
        for d in (1, 2, 3):
            yield f"gf3-{s}-d{d}", F, d, [Polynomial.one(GF3, 8)]
    F = PolySystem.make(GF3, 8, [parse_poly(line.split()[1], GF3, 8) for line in GF3_DEGREE3.splitlines()])
    yield "gf3-degree3", F, 3, [Polynomial.one(GF3, 8)]
    GF5 = FieldSpec(5)
    texts = ["4*x1^2+2*x1", "x3^2", "4*x1*x3+1", "3*x2"]
    F = PolySystem.make(GF5, 3, [parse_poly(t, GF5, 3) for t in texts])
    yield "gf5", F, 2, [Polynomial.one(GF5, 3)]
    # monomial targets, as --alt-g gives them: all of --alt-g auto:3's, and
    # 1 with a sample of them, so that other rows still peel
    for name, g in (("wheel5", gen_wheel(5)), ("wheel8", gen_wheel(8)), ("K4", gen_complete(4))):
        F = encode_coloring(g, graph)
        alts = [Polynomial.from_monomial(m, GF2) for m in alt_g_candidates(F.n_vars, 3)]
        yield f"alt-g-auto-{name}", F, 1, [Polynomial.one(GF2, F.n_vars)] + alts
        yield f"alt-g-{name}", F, 1, [Polynomial.one(GF2, F.n_vars)] + rng.sample(alts, 6)


def test_layout_numbers_columns_in_one_order():
    for case, F, d, targets in peel_cases():
        lay = asm._layout(F, d, targets, None)
        cols = list(lay.columns())
        assert len(cols) == lay.n_cols, case
        assert [lay.column(j) for j in range(lay.n_cols)] == cols, case


def test_peeled_build_matches_the_full_system():
    statuses, dropped = set(), 0
    for case, F, d, targets in peel_cases():
        try:
            peeled, asys, consistent = assert_peel_matches_full(F, d, targets)
        except AssertionError as e:
            raise AssertionError(f"case {case}") from e
        statuses.update(consistent)
        dropped += peeled.system.n_cols < asys.system.n_cols
    # both verdicts are compared, and most systems lose columns
    assert statuses == {True, False} and dropped > 40


def test_a_target_monomial_that_one_column_produces_is_kept():
    # F = {x1}, target x1*x2, graded by 2: the certificate is x2 * x1, the
    # one product under the target's row, while the row x1^2 forces the
    # column x1 to zero
    F = PolySystem.make(GF2, 2, [parse_poly("x1", GF2, 2)])
    g = parse_poly("x1*x2", GF2, 2)
    peeled, asys, consistent = assert_peel_matches_full(F, 1, [g])
    assert consistent == [True]
    assert asys.system.n_rows == 2 and asys.system.n_cols == 2
    assert columns(peeled) == [(0, Monomial.make([(1, 1)], 2))]
    assert row_monomials(peeled) == [Monomial.make([(0, 1), (1, 1)], 2)]


def test_wheel101_peels_to_the_certificates_neighbourhood():
    F = encode_coloring(gen_wheel(101), EncodingOptions(preprocess=True))
    peeled, sizes = asm._assemble(F, 1, [Polynomial.one(GF2, F.n_vars)], None)
    assert sizes == (25353, 20605, 61814)
    assert (peeled.system.n_rows, peeled.system.n_cols) == (1012, 1112)


# ---------------------------------------------------------------------------
# Local columns: degree 1 of a 3-coloring laid out from triangles and 4-cycles


LOCAL_FAMILIES = {
    **{f"K{n}": gen_complete(n) for n in range(2, 7)},
    **{f"wheel{n}": gen_wheel(n) for n in (*range(3, 13), 31)},
    **{f"kneser{t},{r}": gen_kneser(t, r) for t, r in ((5, 2), (6, 2), (7, 2), (7, 3), (8, 3))},
    **{f"mycielski{k}": gen_mycielski(k) for k in range(2, 7)},
    **{f"cycle{n}": Graph.make(n, [(v, v % n + 1) for v in range(1, n + 1)]) for n in range(3, 9)},
    "path6": Graph.make(6, [(v, v + 1) for v in range(1, 6)]),
    "K4+path": Graph.make(7, sorted(gen_complete(4).edges) + [(5, 6), (6, 7)]),
    "two-edges": Graph.make(5, [(1, 2), (3, 4)]),
    **{f"gnp16-s{s}": gen_random(16, 0.27, s) for s in range(4)},
}


def local_cases():
    """(id, F), seeded: 300 G(n, p) with n from 12 to 60 and average
    degree 3 to 10, each with preprocessing on or off and origin 1 or n, in
    turn, over GF(2), GF(5) or GF(7); every graph family of the tests, with
    preprocessing on and off; and the cores of those that have one."""
    rng = random.Random(38)
    for s in range(300):
        n = rng.randint(12, 60)
        g = gen_random(n, rng.uniform(3, 10) / (n - 1), s)
        opts = EncodingOptions(field=FieldSpec((2, 5, 7)[s % 3]), preprocess=s % 2 == 0)
        origin = (1, n)[s // 2 % 2]
        yield f"gnp{n}-s{s}", encode_coloring(g, opts, origin)
    for name, g in LOCAL_FAMILIES.items():
        for preprocess in (True, False):
            yield f"{name}-{preprocess}", encode_coloring(g, EncodingOptions(preprocess=preprocess))
        core = cli.build_core(g, EncodingOptions(preprocess=True), 1, None)
        if core is not None:
            yield f"{name}-core", core[0]


def local_by_tag(F):
    """_local_shifts of F keyed by tag, each a tuple, or None."""
    local = asm._local_shifts(F)
    return None if local is None else {F.tags[i]: tuple(shifts) for i, shifts in local.items()}


def test_local_filing_equals_the_full_peel():
    # the peel of the local columns keeps what the peel of all of them does,
    # so the filed system, its rows, entries and right-hand side, is the same
    fewer = 0
    for case, F in local_cases():
        one = [Polynomial.one(F.field, F.n_vars)]
        full, full_sizes = asm._assemble(F, 1, one, None)
        local = asm._local_shifts(F)
        assert local is not None or not any(tag.startswith("edge:") for tag in F.tags), case
        part, sizes = asm._assemble(F, 1, one, None, local)
        assert sizes[1:] == full_sizes[1:], case
        assert (part.system, part.rhs_list, part.packed_cols, part.packed_rows) == (
            full.system, full.rhs_list, full.packed_cols, full.packed_rows
        ), case
        fewer += sizes[0] < full_sizes[0]
    # most local systems count fewer rows than the full ones
    assert fewer > 300, fewer


def test_local_shifts_are_the_triangles_and_4_cycles():
    # wheel:6's rim edge 1-2 has the triangle 1-2-7 and the 4-cycles
    # 1-2-3-7 and 6-1-2-7; its spoke 1-7 the triangles 6-1-7 and 1-2-7 and
    # the 4-cycles through the hub 1-2-3-7, 1-6-5-7
    local = local_by_tag(encode_coloring(gen_wheel(6), EncodingOptions()))
    assert local["edge:1-2"] == (0, 1, 2, 5, 6)
    assert local["edge:1-7"] == (0, 1, 2, 4, 5, 6)
    assert len(local) == 12
    # K4 minus an edge: 2-3 lies on both triangles, 1-2 on a triangle and
    # the 4-cycle 1-2-4-3
    diamond = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    local = local_by_tag(encode_coloring(diamond, EncodingOptions()))
    assert local["edge:2-3"] == (0, 1, 2, 3) and local["edge:1-2"] == (0, 1, 2, 3)
    # a core gets the 4-cycles of its own subgraph
    g = Graph.make(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    assert local_by_tag(encode_coloring(g, EncodingOptions()))["edge:1-2"] == (0, 1, 2, 3)
    assert local_by_tag(encode_coloring(g, EncodingOptions(), vertices=[1, 2, 3]))["edge:1-2"] == (0, 1)
    # the shapes are the k = 3 encoding's without cutters, over any field it
    # allows, with or without preprocessing
    for opts in (EncodingOptions(field=FieldSpec(5)), EncodingOptions(preprocess=True)):
        assert local_by_tag(encode_coloring(g, opts))["edge:1-2"] == (0, 1, 2, 3)
    assert local_by_tag(encode_coloring(diamond, EncodingOptions(k=4, field=FieldSpec(3)))) is None
    assert local_by_tag(encode_coloring(diamond, EncodingOptions(cutters="cliques"))) is None


def test_local_columns_are_for_the_target_one_at_degree_1(monkeypatch):
    # the one target g = 1 is, given or by default; other target lists and
    # other degrees are built on every column, and the local shifts are
    # worked out only where they are used
    calls = spy_local_shifts(monkeypatch)
    W = encode_coloring(gen_wheel(9), EncodingOptions(preprocess=True))
    one = Polynomial.one(GF2, W.n_vars)
    cube = Polynomial.from_monomial(Monomial.make([(0, 3)], W.n_vars), GF2)
    for targets in ([one, cube], [cube, one], [one, one]):
        plain = nulla_prove(W, [1, 4], targets)
        assert [s.rows for s in plain.per_degree] == [191] and calls == []
    given = nulla_prove(W, [1, 4], [one])
    assert [s.rows for s in given.per_degree] == [92]
    assert given.certificate == nulla_prove(W, [1, 4], [one, cube]).certificate
    assert [s.rows for s in nulla_prove(W, [1]).per_degree] == [92]
    assert [s.rows for s in nulla_prove(W, [0, 1]).per_degree] == [2, 92]
    F = encode_coloring(gen_complete(4), EncodingOptions())
    full = asm._assemble(F, 4, [Polynomial.one(GF2, F.n_vars)], None)[1][0]
    assert nulla_prove(F, [4]).per_degree[0].rows == full
    assert [system for system, _ in calls] == [W, W, W]


@pytest.mark.parametrize("n", [31, 101])
def test_budget_between_peeled_and_full_still_refuses(n, monkeypatch):
    # without local shifts the budget is checked on the full system, block
    # by block as counting checks it: wheel:101's 20,605 columns are five
    # blocks, and the refusal comes in a middle one
    F = encode_coloring(gen_wheel(n), EncodingOptions(preprocess=True))
    one = [Polynomial.one(GF2, F.n_vars)]
    peeled, (rows, cols, _) = asm._assemble(F, 1, one, None)
    full = packed_bytes(rows, cols, 2)
    budget = full - 1 if n == 31 else 21904992
    assert packed_bytes(peeled.system.n_rows, peeled.system.n_cols, 2) < budget < full
    with monkeypatch.context() as patch:
        patch.setattr(asm, "_local_shifts", lambda F: None)
        with pytest.raises(MemoryBudgetError) as refused:
            nulla_prove(F, [1], memory_budget=budget)
        certified = nulla_prove(F, [1], memory_budget=full).certificate
    with pytest.raises(MemoryBudgetError) as counted:
        stats(F, 1, memory_budget=budget)
    assert str(refused.value) == str(counted.value)
    assert refused.value.n_cols == cols
    assert certified is not None
    # with them it is checked on the local system, which the budget holds
    local = nulla_prove(F, [1], memory_budget=budget)
    assert local.certificate == certified
