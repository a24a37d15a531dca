"""Tests for permutation parsing, invariance, orbit systems, and lifting."""

import itertools
import random

import pytest

from helpers import (
    columns,
    dense,
    expanded,
    full_system,
    graded,
    group_order,
    orbit_fold,
    orbit_members,
    row_monomials,
)
from nullcert.assemble import (
    AssembleError,
    _local_shifts,
    _orbit_system,
    assemble_orbit,
    extract_certificate,
    grading,
    lift_solution,
)
from nullcert.certificate import verify, write_cert
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import Graph, gen_complete, gen_kneser, gen_wheel
from nullcert.linsolve import MemoryBudgetError, packed_bytes, solve, solve_multi_rhs
from nullcert.poly import FieldSpec, PolySystem, Polynomial, parse_poly
from nullcert.symmetry import PermutationSet, SymmetryError, check_invariant, parse_generators

GF2 = FieldSpec(2)

# the 3-cycle on vertices 2,3,4 as 0-based images
ROT234 = PermutationSet.make(4, [(0, 2, 3, 1)])


def k4_full():
    return encode_coloring(gen_complete(4), EncodingOptions())


def k4_pre():
    return encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))


def test_parse_single_cycle():
    perms = parse_generators("(2,3,4)", 4)
    assert perms.generators == ((0, 2, 3, 1),)


def test_parse_product_of_cycles():
    perms = parse_generators("(1,2)(3,4)", 4)
    assert perms.generators == ((1, 0, 3, 2),)


def test_parse_whitespace_and_comments():
    text = "  ( 2 , 3 , 4 )  \n\n# a comment\n(1,2) (3,4)\n"
    perms = parse_generators(text, 4)
    assert perms.generators == ((0, 2, 3, 1), (1, 0, 3, 2))


def test_parse_identity_normalized_away():
    perms = parse_generators("(1)\n(2,3,4)", 4)
    assert perms.generators == ((0, 2, 3, 1),)
    assert PermutationSet.make(3, [(0, 1, 2)]).generators == ()


def test_parse_errors():
    with pytest.raises(SymmetryError, match="line 1"):
        parse_generators("(2,3", 4)
    with pytest.raises(SymmetryError, match="outside"):
        parse_generators("(4,5)", 4)
    with pytest.raises(SymmetryError, match="repeated"):
        parse_generators("(1,2)(2,3)", 4)
    with pytest.raises(SymmetryError, match="expected"):
        parse_generators("1,2", 4)
    with pytest.raises(SymmetryError, match="bad cycle"):
        parse_generators("(1,x)", 4)


def test_make_rejects_non_bijection():
    with pytest.raises(SymmetryError, match="not a permutation"):
        PermutationSet.make(3, [(0, 0, 1)])


def orbit(F, perms):
    return assemble_orbit(F, 1, Polynomial.one(GF2, 4), perms)


def conclusive(F, d, targets, perms):
    """The orbit build's flag: whether every orbit size is prime to p."""
    return _orbit_system(F, d, targets, perms, check_invariant(F, targets, perms), None)[1]


def test_invariance_full_k4():
    orbit(k4_full(), ROT234)


def test_invariance_broken_by_preprocessing():
    swap12 = parse_generators("(1,2)", 4)
    with pytest.raises(SymmetryError, match="not invariant"):
        orbit(k4_pre(), swap12)
    # but a group fixing the kept vertex is fine
    orbit(k4_pre(), ROT234)


def test_invariance_identity_always_true():
    orbit(k4_pre(), PermutationSet.make(4, []))


def test_invariance_ground_set_mismatch():
    with pytest.raises(SymmetryError, match="ground set"):
        orbit(k4_full(), PermutationSet.make(3, []))


def test_k4_orbit_matrix_shape_and_keys():
    orb = assemble_orbit(k4_pre(), 1, Polynomial.one(GF2, 4), ROT234)
    assert (orb.system.n_rows, orb.system.n_cols) == (9, 9)
    # the row orbits, each by its graded-first member, in graded order
    table = graded(orb, ROT234)
    assert [expanded(m) for m in row_monomials(table)] == [
        (), (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2),
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3),
    ]
    # shift-major representatives: the vertex constant, edges 1-2 and 2-3
    # times x1, then the six orbits of edge shifts by x2 (each edge times
    # x2, x3 or x4 lies in one of them)
    assert [(i, expanded(shift)) for i, shift in columns(orb)] == [
        (0, ()), (1, (0,)), (4, (0,)),
        (1, (1,)), (2, (1,)), (3, (1,)), (4, (1,)), (5, (1,)), (6, (1,)),
    ]
    # every orbit has size 1 or 3, prime to 2
    assert conclusive(k4_pre(), 1, [Polynomial.one(GF2, 4)], ROT234)
    # rhs is 1 exactly on the constant-monomial orbit
    assert table.rhs_list == [[(0, 1)]]


def test_k4_orbit_entries_are_full_matrix_sums():
    F = k4_pre()
    g = Polynomial.one(GF2, 4)
    # rows in graded order, each orbit by its graded-first member
    orb = graded(assemble_orbit(F, 1, g, ROT234), ROT234)
    full = full_system(F, 1, [g])
    full_dense = [[0] * full.system.n_cols for _ in range(full.system.n_rows)]
    for r, cols in enumerate(full.system.rows):
        for c, v in cols:
            full_dense[r][c] = v
    row_pos = {m: r for r, m in enumerate(row_monomials(full))}
    # defining sum over column-orbit members at the row representative,
    # checked over the integers, then reduced mod 2 against the orbit system
    at = {key: j for j, key in enumerate(full.packed_cols)}
    members = [[at[key] for key in orbit] for orbit in orbit_members(orb)]
    assert sorted(j for orbit in members for j in orbit) == list(range(full.system.n_cols))
    orbit_dense = [[0] * 9 for _ in range(9)]
    for r, cols in enumerate(orb.system.rows):
        for c, v in cols:
            orbit_dense[r][c] = v
    row_orbits = row_monomials(orb)
    for r_pos, rep in enumerate(row_orbits):
        full_row = full_dense[row_pos[rep]]
        for c_pos in range(9):
            integer_sum = sum(full_row[j] for j in members[c_pos])
            assert orbit_dense[r_pos][c_pos] == integer_sum % 2
    # spot values: three members hit x1^3 under c12^1 (orbit column 1),
    # two members hit x1*x2^2 under c23^1 (orbit column 2, vanishing mod 2)
    x1cubed = row_pos[row_orbits[1]]
    assert sum(full_dense[x1cubed][j] for j in members[1]) == 3
    assert orbit_dense[1][1] == 1
    x1x2sq = row_pos[row_orbits[3]]
    assert sum(full_dense[x1x2sq][j] for j in members[2]) == 2
    assert orbit_dense[3][2] == 0
    assert orbit_dense[3] == [0, 1, 0, 1, 0, 0, 0, 0, 0]


def test_k4_orbit_solution_lifts_to_certificate():
    F = k4_pre()
    g = Polynomial.one(GF2, 4)
    orb = assemble_orbit(F, 1, g, ROT234)
    res = solve(orb.system, orb.rhs_list[0])
    assert res.consistent
    lifted = lift_solution(orb, res.solution)
    # constant on orbits: each nonzero orbit column's value on every member
    # of its orbit, which together cover the 25 full columns once
    members = orbit_members(orb)
    assert sum(map(len, members)) == len(set().union(*members)) == 25
    expected = [(key, v) for orbit, v in zip(members, dense(res.solution, 9)) if v for key in orbit]
    assert sorted(lifted) == sorted(expected) and lifted
    cert = extract_certificate(F, orb, res.solution, g)
    assert verify(cert)


def test_full_encoding_orbit_system():
    # with all four vertex polynomials the fixed vertex splits off its own
    # column orbit, giving one more column than the preprocessed table
    F = k4_full()
    g = Polynomial.one(GF2, 4)
    orb = assemble_orbit(F, 1, g, ROT234)
    assert (orb.system.n_rows, orb.system.n_cols) == (9, 10)
    res = solve(orb.system, orb.rhs_list[0])
    assert res.consistent
    cert = extract_certificate(F, orb, res.solution, g)
    assert verify(cert)


def test_identity_group_gives_plain_system():
    F = k4_pre()
    g = Polynomial.one(GF2, 4)
    orb = assemble_orbit(F, 1, g, PermutationSet.make(4, []))
    plain = full_system(F, 1, [g])
    assert orb.system.rows == plain.system.rows
    assert orb.rhs_list == plain.rhs_list
    assert row_monomials(orb) == row_monomials(plain)
    assert orb.packed_cols == plain.packed_cols
    assert conclusive(F, 1, [g], PermutationSet.make(4, []))
    # each orbit is one column, so a solution lifts to itself
    ybar = tuple((c, c) for c in range(1, orb.system.n_cols))
    expected = [(plain.packed_cols[c], v) for c, v in ybar]
    assert lift_solution(orb, ybar) == lift_solution(plain, ybar) == expected


def test_orbit_matrix_well_defined_across_generator_choice():
    F = k4_pre()
    g = Polynomial.one(GF2, 4)
    a = assemble_orbit(F, 1, g, parse_generators("(2,3,4)", 4))
    b = assemble_orbit(F, 1, g, parse_generators("(2,4,3)", 4))
    assert a.system.rows == b.system.rows
    assert a.rhs_list == b.rhs_list
    assert a.packed_cols == b.packed_cols
    assert orbit_members(a) == orbit_members(b)


def test_lift_zero_is_zero():
    orb = assemble_orbit(k4_pre(), 1, Polynomial.one(GF2, 4), ROT234)
    assert lift_solution(orb, ()) == []
    for wrong in ([(9, 1)], [(-1, 1)], [(0, 1), (24, 1)]):
        with pytest.raises(AssembleError, match="column"):
            lift_solution(orb, wrong)


def test_orbit_rejects_non_invariant_system():
    with pytest.raises(SymmetryError, match="vertex:1"):
        assemble_orbit(
            k4_pre(), 1, Polynomial.one(GF2, 4), parse_generators("(1,2)", 4),
        )


def test_orbit_rejects_moving_target():
    g = parse_poly("x1^3", GF2, 4)
    with pytest.raises(SymmetryError, match="not fixed"):
        assemble_orbit(k4_full(), 1, g, parse_generators("(1,2)", 4))


def test_cycle_graph_orbit_consistency_matches_full():
    # five-cycle: 3-colorable, so both systems must be inconsistent; every
    # orbit of the rotation has size 1 or 5, odd, making the orbit verdict
    # conclusive over GF(2)
    c5 = Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    F = encode_coloring(c5, EncodingOptions())
    g = Polynomial.one(GF2, 5)
    rot = parse_generators("(1,2,3,4,5)", 5)
    orb = assemble_orbit(F, 1, g, rot)
    assert conclusive(F, 1, [g], rot)
    assert not solve(orb.system, orb.rhs_list[0]).consistent
    full = full_system(F, 1, [g])
    assert not solve(full.system, full.rhs_list[0]).consistent


def test_wheel_rim_rotation_positive_case():
    w5 = gen_wheel(5)
    F = encode_coloring(w5, EncodingOptions())
    g = Polynomial.one(GF2, 6)
    rot = parse_generators("(1,2,3,4,5)", 6)
    orb = assemble_orbit(F, 1, g, rot)
    assert orb.system.n_cols < full_system(F, 1, [g]).system.n_cols
    res = solve(orb.system, orb.rhs_list[0])
    assert res.consistent
    cert = extract_certificate(F, orb, res.solution, g)
    assert verify(cert)


def rim_rotation(rim, step):
    """Rotation of wheel:rim's rim by step places, the hub fixed."""
    return tuple((v + step) % rim for v in range(rim)) + (rim,)


def every_variable(n):
    """x1 + ... + xn over GF(2), fixed by every permutation."""
    return parse_poly("+".join(f"x{v}" for v in range(1, n + 1)), GF2, n)


def fold_cases():
    """(F, degree, targets, perms, grading k) for the orbit build's
    equivalence with the reference fold.  Each target is fixed by its group;
    x^6 terms lie beyond every product, so their rows form orbits of target
    monomials.  The sum of every variable, a target of degree 1, leaves a
    coloring encoding ungraded (k = 1).  GF(3)'s field equations and linear
    forms grade by 2 with no poly kept at shift degree 0, so the target 1 is
    no product and its row orbit starts at the shift 0 alone."""
    rng = random.Random(18)
    for rim in range(5, 16):
        F = encode_coloring(gen_wheel(rim), EncodingOptions())
        n = rim + 1
        gens = [rim_rotation(rim, rng.randrange(1, rim)) for _ in range(rng.choice((1, 2)))]
        perms = PermutationSet.make(n, gens)
        outer = " + ".join(f"x{v}^6" for v in range(1, rim + 1))
        targets = [Polynomial.one(GF2, n), parse_poly(f"x{n}^3", GF2, n), parse_poly(outer, GF2, n)]
        name = f"wheel:{rim} steps {','.join(str(gen[0]) for gen in gens)}"
        yield pytest.param(F, 1, targets, perms, 3, id=f"{name} d1 graded:3")
        yield pytest.param(F, 2, targets + [every_variable(n)], perms, 1, id=f"{name} d2 occurring")
    for n in (4, 5):
        F = encode_coloring(gen_complete(n), EncodingOptions())
        cubes = parse_poly(" + ".join(f"x{v}^3" for v in range(1, 5)), GF2, n)
        for cycle in ("(1,2)", "(1,2,3,4)"):
            perms = parse_generators(cycle, n)
            for d in (1, 2):
                for k, name in ((3, "graded:3"), (1, "occurring")):
                    targets = [Polynomial.one(GF2, n), cubes] + [every_variable(n)] * (k == 1)
                    yield pytest.param(F, d, targets, perms, k, id=f"complete:{n} {cycle} d{d} {name}")
    gf3 = FieldSpec(3)
    texts = [
        "x1^2+2", "x2^2+2", "x3^2+2", "x1+x2", "x2+x3", "x1+x3",
        "x1*x2+2*x3", "x2*x3+2*x1", "x1*x3+2*x2",
    ]
    F = PolySystem.make(gf3, 3, [parse_poly(t, gf3, 3) for t in texts])
    targets = [Polynomial.one(gf3, 3), parse_poly("2*x1*x2*x3+x1^2+x2^2+x3^2+2*x1^5+2*x2^5+2*x3^5", gf3, 3)]
    for d in (1, 2):
        perms = parse_generators("(1,2,3)", 3)
        yield pytest.param(F, d, targets, perms, 1, id=f"gf3 (1,2,3) d{d} occurring")
    texts = ["x1^3+2*x1", "x2^3+2*x2", "x3^3+2*x3", "x1+x2+x3", "2*x1+x2+x3", "x1+2*x2+x3", "x1+x2+2*x3"]
    F = PolySystem.make(gf3, 3, [parse_poly(t, gf3, 3) for t in texts])
    targets = [Polynomial.one(gf3, 3), parse_poly("x1^2+x2^2+x3^2+x1^6+x2^6+x3^6", gf3, 3)]
    for d in (1, 2, 3):
        for cycles in ("(1,2,3)", "(1,2)\n(1,2,3)"):
            perms = parse_generators(cycles, 3)
            yield pytest.param(F, d, targets, perms, 2, id=f"gf3 field+linear {cycles.replace(chr(10), chr(32))} d{d} graded:2")
    gf5 = FieldSpec(5)
    texts = ["x1^4+4", "x2^4+4", "x3^4+4", "2*x1*x2+3*x3^2", "2*x2*x3+3*x1^2", "2*x3*x1+3*x2^2",
             "x1+x2+x3", "4*x1*x2*x3+2"]
    F = PolySystem.make(gf5, 3, [parse_poly(t, gf5, 3) for t in texts])
    targets = [Polynomial.one(gf5, 3), parse_poly("3*x1^2+3*x2^2+3*x3^2+x1^8*x2^8*x3^8", gf5, 3)]
    for d in (1, 2, 3):
        for cycles in ("(1,2,3)", "(1,2)\n(1,2,3)"):
            perms = parse_generators(cycles, 3)
            yield pytest.param(F, d, targets, perms, 1, id=f"gf5 {cycles.replace(chr(10), chr(32))} d{d} occurring")
    # wheel rotations, some of order below the rim's, at degrees 3 and 4:
    # an entry's row and column orbits differ in size, and a representative
    # row has many divisors
    for rim, step in ((5, 2), (6, 2), (6, 3), (8, 2)):
        F = encode_coloring(gen_wheel(rim), EncodingOptions())
        n = rim + 1
        perms = PermutationSet.make(n, [rim_rotation(rim, step)])
        targets = [Polynomial.one(GF2, n), parse_poly(f"x{n}^3", GF2, n)]
        for d in (3, 4):
            yield pytest.param(F, d, targets, perms, 3, id=f"wheel:{rim} step {step} d{d} graded:3")


@pytest.mark.parametrize("F, d, targets, perms, k", fold_cases())
def test_orbit_build_matches_reference_fold(F, d, targets, perms, k):
    assert grading(F, targets) == k
    maps = check_invariant(F, targets, perms)
    orb, flag = _orbit_system(F, d, targets, perms, maps, None)
    # in graded row order the reference keys each row orbit by its
    # graded-first member, and so does graded
    full = graded(full_system(F, d, targets))
    ref = orbit_fold(F, full, perms)
    assert flag == all(size % F.field.p for size in ref.orbit_sizes)
    table = graded(orb, perms)
    assert table.system.rows == ref.rows
    assert table.rhs_list == ref.rhs_list
    assert table.packed_rows == ref.row_keys
    # the keys are the reference's representatives, and each unit orbit
    # vector lifts to exactly the full columns of the reference's orbit
    assert orb.packed_cols == tuple(full.packed_cols[j] for j in ref.col_reps)
    members = [[] for _ in ref.col_reps]
    for j, o in enumerate(ref.col_orbit_index):
        members[o].append(full.packed_cols[j])
    assert orbit_members(orb) == [sorted(orbit) for orbit in members]
    assert (orb.system.n_rows, orb.system.n_cols) == (len(ref.rows), len(ref.col_reps))
    # the walks count the full system exactly: a budget one byte short of
    # its working set refuses it, naming its sizes
    rows, cols = full.system.n_rows, full.system.n_cols
    need = packed_bytes(rows, cols, F.field.p, len(targets))
    _orbit_system(F, d, targets, perms, maps, need)
    with pytest.raises(MemoryBudgetError, match=f"of at least {rows} x {cols} exceeds"):
        _orbit_system(F, d, targets, perms, maps, need - 1)


def test_orbit_build_checks_closure():
    F = k4_full()
    g = Polynomial.one(GF2, 4)
    maps = check_invariant(F, [g], ROT234)
    # a repeated polynomial: its k-th copy maps to the k-th copy of its
    # image, so every poly map is a permutation and the orbit system lifts
    # to a certificate that verifies
    swap = parse_generators("(1,2)", 2)
    texts = ("x1+x2+1", "x1+x2+1", "x1+1", "x2+1")
    repeated = PolySystem.make(GF2, 2, [parse_poly(t, GF2, 2) for t in texts], tags=list("abcd"))
    assert check_invariant(repeated, [], swap) == [[0, 1, 3, 2]]
    orb = assemble_orbit(repeated, 1, Polynomial.one(GF2, 2), swap)
    result = solve(orb.system, orb.rhs_list[0])
    assert result.consistent
    assert verify(extract_certificate(repeated, orb, result.solution, Polynomial.one(GF2, 2)))
    doubled = PolySystem.make(GF2, 2, [parse_poly(t, GF2, 2) for t in texts[::-1]], tags=list("dcba"))
    assert check_invariant(doubled, [], swap) == [[1, 0, 2, 3]]
    # an image with another number of copies is refused, naming the tag
    lopsided = PolySystem.make(GF2, 2, [parse_poly(t, GF2, 2) for t in ("x1+1", "x1+1", "x2+1")], tags=list("cce"))
    with pytest.raises(SymmetryError, match=r"maps c \(2 copies\) to one with 1$"):
        check_invariant(lopsided, [], swap)
    # a target monomial beyond every product whose image is no target monomial
    moved = parse_poly("x2^6", GF2, 4)
    with pytest.raises(SymmetryError, match="row universe is not closed"):
        _orbit_system(F, 1, [moved], ROT234, maps, None)


# ---------------------------------------------------------------------------
# Conclusive orbit solves: every orbit size prime to p, not |G|

# small groups in cycle notation on the points 1..k
GROUPS = {
    "swap": ("(1,2)",),
    "3-cycle": ("(1,2,3)",),
    "4-cycle": ("(1,2,3,4)",),
    "S3": ("(1,2)", "(1,2,3)"),
    "D5": ("(1,2,3,4,5)", "(2,5)(3,4)"),
    "S4": ("(1,2)", "(1,2,3,4)"),
}


def group(name, n, relabel=None):
    """GROUPS[name] on the points 1..n, conjugated by relabel, a
    permutation of 0..n-1, when given: point v + 1 moves to relabel[v] + 1."""
    perms = parse_generators("\n".join(GROUPS[name]), n)
    if relabel is None:
        return perms
    conjugated = []
    for gen in perms.generators:
        images = [0] * n
        for v in range(n):
            images[relabel[v]] = relabel[gen[v]]
        conjugated.append(images)
    return PermutationSet.make(n, conjugated)


def cycle_graph(n):
    return Graph.make(n, [(v, v % n + 1) for v in range(1, n + 1)])


def symmetric_system(field, texts, n):
    return PolySystem.make(field, n, [parse_poly(t, field, n) for t in texts])


def conclusive_cases():
    """(F, perms) for the orbit-size rule: coloring encodings of K_n, cycles
    and wheels under graph automorphisms, and inputs symmetric under every
    permutation of their variables.  K_n and the symmetric inputs take each
    group on randomly relabeled points; a group on fewer points than there
    are variables leaves the others fixed."""
    rng = random.Random(34)
    gf3 = FieldSpec(3)

    def relabeled(name, n):
        return group(name, n, rng.sample(range(n), n))

    complete = ((3, ("swap", "3-cycle", "S3")), (4, ("swap", "4-cycle", "S3", "S4")), (5, ("4-cycle", "D5")))
    for field, k in ((GF2, 3), (gf3, 2)):
        opts = EncodingOptions(k=k, field=field)
        for n, names in complete:
            F = encode_coloring(gen_complete(n), opts)
            for name in names:
                yield pytest.param(F, relabeled(name, n), id=f"GF({field.p}) complete:{n} {name}")
        # rotations and reflections of a cycle or a wheel's rim, the hub fixed
        automorphisms = (
            ("cycle:4", cycle_graph(4), "4-cycle"),
            ("cycle:5", cycle_graph(5), "D5"),
            ("wheel:4", gen_wheel(4), "4-cycle"),
            ("wheel:5", gen_wheel(5), "D5"),
        )
        for graph_name, graph, name in automorphisms:
            perms = group(name, graph.n_vertices)
            yield pytest.param(encode_coloring(graph, opts), perms, id=f"GF({field.p}) {graph_name} {name}")
    F = symmetric_system(GF2, ["x1+x2+x3", "x1*x2*x3+1"], 3)
    for name in ("swap", "3-cycle", "S3"):
        yield pytest.param(F, relabeled(name, 3), id=f"GF(2) e1,e3+1 {name}")
    texts = ["x1^3+2*x1", "x2^3+2*x2", "x3^3+2*x3", "x4^3+2*x4", "x1+x2+x3+x4",
             "x1*x2+x1*x3+x1*x4+x2*x3+x2*x4+x3*x4+1"]
    F = symmetric_system(gf3, texts, 4)
    for name in ("swap", "3-cycle", "4-cycle", "S3", "S4"):
        yield pytest.param(F, relabeled(name, 4), id=f"GF(3) field,e1,e2+1 {name}")


@pytest.mark.parametrize("F, perms", conclusive_cases())
def test_orbit_sizes_decide_what_the_group_order_did(F, perms):
    p, n = F.field.p, F.n_vars
    targets = [Polynomial.one(F.field, n), parse_poly("+".join(f"x{v}" for v in range(1, n + 1)), F.field, n)]
    maps = check_invariant(F, targets, perms)
    for d in (0, 1, 2):
        orb, flag = _orbit_system(F, d, targets, perms, maps, None)
        # orbit sizes divide |G|, so the flag is at least as strong as the old test
        if group_order(perms) % p:
            assert flag
        full = full_system(F, d, targets)
        orbit_results = solve_multi_rhs(orb.system, orb.rhs_list)
        full_results = solve_multi_rhs(full.system, full.rhs_list)
        for mine, ref in zip(orbit_results, full_results):
            # an orbit solution always lifts; an orbit refutation when flagged
            if mine.consistent:
                assert ref.consistent
            elif flag:
                assert not ref.consistent


def test_orbit_sizes_decide_where_p_divides_the_group_order():
    # |S3| = 6 is even, yet over GF(2) these inconsistent orbit solves
    # decide alone: K4's degree-0 system under S3 on three of its vertices
    # has orbits of sizes 1 and 3, and e1, e3 + 1 grade by 3, so that their
    # degree-1 system is e3 at the shift 1, which S3 fixes
    s3 = group("S3", 3)
    e13 = symmetric_system(GF2, ["x1+x2+x3", "x1*x2*x3+1"], 3)
    cases = [
        (encode_coloring(gen_complete(4), EncodingOptions()), 0, group("S3", 4), {1, 3}),
        (e13, 1, s3, {1}),
    ]
    for F, d, perms, sizes in cases:
        assert group_order(perms) == 6
        one = [Polynomial.one(GF2, F.n_vars)]
        orb, flag = _orbit_system(F, d, one, perms, check_invariant(F, one, perms), None)
        full = full_system(F, d, one)
        assert flag and orbit_fold(F, full, perms).orbit_sizes == sizes
        assert not solve(orb.system, orb.rhs_list[0]).consistent
        assert not solve(full.system, full.rhs_list[0]).consistent
    # at degree 2, e1 times x1^2 reaches x1^2*x2, whose orbit has size 6
    one = [Polynomial.one(GF2, 3)]
    assert not conclusive(e13, 2, one, s3)


# ---------------------------------------------------------------------------
# Orbit systems on the local columns of degree 1


def local_orbit_cases():
    """(name, graph, generators as 0-based images) for 3-coloring encodings
    under graph automorphisms: wheel rotations, K_n under S_n and its
    rotation, circulants under their rotation, and Kneser graphs under the
    rotation of their ground set."""
    for rim in range(5, 41):
        yield f"wheel:{rim}", gen_wheel(rim), [rim_rotation(rim, 1)]
    for n in range(4, 8):
        cycle = tuple((v + 1) % n for v in range(n))
        swap = (1, 0, *range(2, n))
        yield f"K{n} S{n}", gen_complete(n), [swap, cycle]
        yield f"K{n} rotation", gen_complete(n), [cycle]
    for n, steps in ((7, (1, 2)), (9, (1, 3)), (11, (1, 2)), (13, (1, 5)), (16, (1, 4))):
        g = Graph.make(n, [(v, (v + s - 1) % n + 1) for v in range(1, n + 1) for s in steps])
        yield f"circulant:{n},{steps}", g, [tuple((v + 1) % n for v in range(n))]
    for t, r in ((5, 2), (6, 2), (7, 2), (7, 3)):
        subsets = list(itertools.combinations(range(t), r))
        index = {s: j for j, s in enumerate(subsets)}
        image = tuple(index[tuple(sorted((x + 1) % t for x in s))] for s in subsets)
        yield f"kneser:{t},{r}", gen_kneser(t, r), [image]


def test_local_orbit_walk_matches_the_full_walk():
    # with the local columns, every orbit solve keeps its verdict, its
    # solution on the same column keys and its certificate; an orbit size
    # divisible by p can only leave with the non-local columns, so a
    # conclusive full walk stays conclusive
    hits = 0
    for name, g, images in local_orbit_cases():
        for p in (2, 5):
            opts = EncodingOptions(field=FieldSpec(p))
            F = encode_coloring(g, opts)
            local = _local_shifts(F)
            perms = PermutationSet.make(F.n_vars, images)
            one = [Polynomial.one(F.field, F.n_vars)]
            maps = check_invariant(F, one, perms)
            full, full_flag = _orbit_system(F, 1, one, perms, maps, None)
            loc, loc_flag = _orbit_system(F, 1, one, perms, maps, None, local)
            case = name, p
            assert loc_flag or not full_flag, case
            assert set(loc.packed_cols) <= set(full.packed_cols), case
            full_result, loc_result = solve(full.system, full.rhs_list[0]), solve(loc.system, loc.rhs_list[0])
            assert full_result.consistent == loc_result.consistent, case
            if not loc_result.consistent:
                continue
            hits += 1
            assert [(full.packed_cols[c], v) for c, v in full_result.solution] == [
                (loc.packed_cols[c], v) for c, v in loc_result.solution
            ], case
            certs = [extract_certificate(F, asys, r.solution, one[0]) for asys, r in ((full, full_result), (loc, loc_result))]
            assert write_cert(certs[0]) == write_cert(certs[1]) and verify(certs[1]), case
    assert hits >= 20, hits


def test_local_columns_not_closed_under_the_group_are_refused():
    # dropping one shift of one rim edge leaves the rest of its orbit local
    g = gen_wheel(7)
    F = encode_coloring(g, EncodingOptions())
    local = _local_shifts(F)
    local[F.tags.index("edge:1-2")].pop(0)
    perms = PermutationSet.make(F.n_vars, [rim_rotation(7, 1)])
    one = [Polynomial.one(GF2, F.n_vars)]
    with pytest.raises(AssembleError, match="internal error: the group maps a local column outside"):
        _orbit_system(F, 1, one, perms, check_invariant(F, one, perms), None, local)
