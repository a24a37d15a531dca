"""Acceptance suite: nine end-to-end checks with one printed PASS/FAIL line each.

Each check prints `ACCEPTANCE <n> <PASS|FAIL>: <claim> [<elapsed>s]` straight
to the terminal (bypassing capture) and enforces its runtime budget.
"""

import ast
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from helpers import (
    SparseSystem,
    columns,
    dense,
    expanded,
    from_vars,
    full_system,
    graded,
    is_entries,
    orbit_members,
    poly_mul,
    random_dense_system,
    ref_solve_dense,
    rhs_entries,
    row_monomials,
)
import nullcert.assemble as asm
from nullcert.assemble import (
    _orbit_system,
    alt_g_candidates,
    assemble_orbit,
    extract_certificate,
    lift_solution,
    nulla_prove,
)
from nullcert.certificate import read_cert, verify
from nullcert.cli import main
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import (
    find_coloring,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
)
from nullcert.linsolve import solve
from nullcert.poly import (
    FieldSpec,
    Monomial,
    PolySystem,
    Polynomial,
    format_poly,
    parse_poly,
)
from nullcert.symmetry import PermutationSet, check_invariant

import random


@contextmanager
def criterion(capsys, num, claim, budget_s, charged_s=0.0):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        elapsed = time.perf_counter() - t0 + charged_s
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} FAIL: {claim} [{elapsed:.2f}s] ({e})")
        raise
    elapsed = time.perf_counter() - t0 + charged_s
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {verdict}: {claim} [{elapsed:.2f}s, budget {budget_s:.0f}s]")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded the {budget_s:.0f}s budget"


def dense_rows(system: SparseSystem):
    out = []
    for row in system.rows:
        vals = [0] * system.n_cols
        for col, coeff in row:
            vals[col] = coeff
        out.append(vals)
    return out


def mono_text(m: Monomial, field: FieldSpec) -> str:
    return format_poly(Polynomial.from_monomial(m, field))


# Expected degree-1 coefficient matrix for the preprocessed K4 three-coloring
# encoding over GF(2).  Rows are keyed by product monomials in graded order;
# column groups are the constant multiplier of the kept vertex polynomial,
# then the four degree-one shifts of each edge polynomial in edge order
# 1-2, 1-3, 1-4, 2-3, 2-4, 3-4.
K4_DEGREE1_ROWS = [
    ("1",        "1 0000 0000 0000 0000 0000 0000"),
    ("x1^3",     "1 1000 1000 1000 0000 0000 0000"),
    ("x1^2*x2",  "0 1100 0100 0100 0000 0000 0000"),
    ("x1^2*x3",  "0 0010 1010 0010 0000 0000 0000"),
    ("x1^2*x4",  "0 0001 0001 1001 0000 0000 0000"),
    ("x1*x2^2",  "0 1100 0000 0000 1000 1000 0000"),
    ("x1*x2*x3", "0 0010 0100 0000 1000 0000 0000"),
    ("x1*x2*x4", "0 0001 0000 0100 0000 1000 0000"),
    ("x1*x3^2",  "0 0000 1010 0000 1000 0000 1000"),
    ("x1*x3*x4", "0 0000 0001 0010 0000 0000 1000"),
    ("x1*x4^2",  "0 0000 0000 1001 0000 1000 1000"),
    ("x2^3",     "0 0100 0000 0000 0100 0100 0000"),
    ("x2^2*x3",  "0 0010 0000 0000 0110 0010 0000"),
    ("x2^2*x4",  "0 0001 0000 0000 0001 0101 0000"),
    ("x2*x3^2",  "0 0000 0100 0000 0110 0000 0100"),
    ("x2*x3*x4", "0 0000 0000 0000 0001 0010 0100"),
    ("x2*x4^2",  "0 0000 0000 0100 0000 0101 0100"),
    ("x3^3",     "0 0000 0010 0000 0010 0000 0010"),
    ("x3^2*x4",  "0 0000 0001 0000 0001 0000 0011"),
    ("x3*x4^2",  "0 0000 0000 0010 0000 0010 0011"),
    ("x4^3",     "0 0000 0000 0001 0000 0001 0001"),
]

K4_COLUMN_LABELS = ["vertex:1 1"] + [
    f"edge:{uv} x{t}"
    for uv in ("1-2", "1-3", "1-4", "2-3", "2-4", "3-4")
    for t in (1, 2, 3, 4)
]

# The same system collapsed by the rotation (2 3 4), reduced mod 2.  Rows are
# orbit representatives of the product monomials, columns are orbit
# representatives of the multiplier columns: the constant vertex column, the
# four shifts of edge 1-2 (whose orbit covers edges 1-2, 1-3, 1-4), and the
# four shifts of edge 2-3 (covering 2-3, 2-4, 3-4).
K4_ORBIT_ROWS_MOD2 = [
    ("1",        "1 0000 0000"),
    ("x1^3",     "1 1000 0000"),
    ("x1^2*x2",  "0 1111 0000"),
    ("x1*x2^2",  "0 1100 0000"),
    ("x1*x2*x3", "0 0011 1000"),
    ("x2^3",     "0 0100 0110"),
    ("x2^2*x3",  "0 0010 0111"),
    ("x2^2*x4",  "0 0001 0111"),
    ("x2*x3*x4", "0 0000 0001"),
]


def bits(text: str):
    return [int(ch) for ch in text.replace(" ", "")]


def test_criterion_1(capsys):
    claim = "preprocessed K4 degree-1 matrix matches the reference 21x25 table exactly"
    with criterion(capsys, 1, claim, budget_s=1.0):
        F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
        one = Polynomial.one(F.field, F.n_vars)
        # the table lists rows in graded order; the build files them as met
        asm = graded(full_system(F, 1, [one]))
        assert asm.system.n_rows == 21 and asm.system.n_cols == 25

        row_labels = [mono_text(m, F.field) for m in row_monomials(asm)]
        assert row_labels == [label for label, _ in K4_DEGREE1_ROWS]
        # the table lists columns poly by poly; the build numbers them
        # (shift degree, shift, poly index), read here off the labels
        tags = list(dict.fromkeys(label.split()[0] for label in K4_COLUMN_LABELS))

        def column_key(j):
            tag, shift = K4_COLUMN_LABELS[j].split()
            (m, _), = parse_poly(shift, F.field, F.n_vars).terms
            return m.degree, expanded(m), tags.index(tag)

        order = sorted(range(len(K4_COLUMN_LABELS)), key=column_key)
        col_labels = [f"{F.tags[i]} {mono_text(shift, F.field)}" for i, shift in columns(asm)]
        assert col_labels == [K4_COLUMN_LABELS[j] for j in order]

        golden = [[bits(row)[j] for j in order] for _, row in K4_DEGREE1_ROWS]
        assert dense_rows(asm.system) == golden
        # right-hand side carries the target 1 on the constant row only
        assert asm.rhs_list == [[(0, 1)]]

        res = solve(asm.system, asm.rhs_list[0])
        assert res.consistent


def test_criterion_2(capsys):
    claim = "K4 orbit system under the 3-cycle matches the reference 9x9 mod-2 table and lifts"
    with criterion(capsys, 2, claim, budget_s=1.0):
        rot = PermutationSet.make(4, [(0, 2, 3, 1)])

        # the reference table collapses the preprocessed encoding, which the
        # rotation leaves invariant because the kept vertex is fixed
        F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
        one = Polynomial.one(F.field, F.n_vars)
        # the table keys each row orbit by its graded-first member, in graded
        # order; the build keys it by the member first met
        built = assemble_orbit(F, 1, one, rot)
        orb = graded(built, rot)
        assert orb.system.n_rows == 9 and orb.system.n_cols == 9
        # every orbit has size 1 or 3, prime to 2, so an inconsistent solve would decide
        assert _orbit_system(F, 1, [one], rot, check_invariant(F, [one], rot), None)[1]

        row_labels = [mono_text(rep, F.field) for rep in row_monomials(orb)]
        assert row_labels == [label for label, _ in K4_ORBIT_ROWS_MOD2]
        # the table's columns are the orbits of these full columns; each
        # maps to the orbit column it lies in, one table column per orbit,
        # found by lifting each orbit column's unit vector
        def label(i, shift):
            return f"{F.tags[i]} {mono_text(orb.packing.unpack(shift), F.field)}"

        members = orbit_members(orb)
        orbit_of = {label(i, shift): o for o, orbit in enumerate(members) for i, shift in orbit}
        table_cols = ["vertex:1 1"] + [f"edge:{uv} x{t}" for uv in ("1-2", "2-3") for t in (1, 2, 3, 4)]
        to_orbit = [orbit_of[c] for c in table_cols]
        assert sorted(to_orbit) == list(range(9))
        # the orbits cover the 25 full columns once; each is keyed by its
        # first member among them, and numbered by that first appearance
        full_cols = [label(i, shift) for i, shift in full_system(F, 1, [one]).packed_cols]
        assert sorted(orbit_of) == sorted(full_cols) and sum(map(len, members)) == len(full_cols) == 25
        first = {}
        for j, c in enumerate(full_cols):
            first.setdefault(orbit_of[c], j)
        keys = [full_cols.index(label(i, shift)) for i, shift in orb.packed_cols]
        assert keys == [first[o] for o in range(9)] == sorted(first.values())
        matrix = dense_rows(orb.system)
        assert [[row[k] for k in to_orbit] for row in matrix] == [bits(row) for _, row in K4_ORBIT_ROWS_MOD2]
        assert orb.rhs_list == [[(0, 1)]]

        res = solve(built.system, built.rhs_list[0])
        assert res.consistent and res == solve(orb.system, orb.rhs_list[0])
        # the lift puts each orbit column's value on every member of its orbit
        lifted = sorted((label(i, shift), v) for (i, shift), v in lift_solution(built, res.solution))
        y = dense(res.solution, orb.system.n_cols)
        assert lifted == sorted((c, y[orbit_of[c]]) for c in full_cols if y[orbit_of[c]])
        cert = extract_certificate(F, built, res.solution, one)
        assert verify(cert)

        # the unpreprocessed encoding stays invariant too; its vertex columns
        # split into two orbits, and the collapsed system still certifies
        F_full = encode_coloring(gen_complete(4), EncodingOptions())
        orb_full = assemble_orbit(F_full, 1, one, rot)
        assert orb_full.system.n_rows == 9 and orb_full.system.n_cols == 10
        res_full = solve(orb_full.system, orb_full.rhs_list[0])
        assert res_full.consistent
        cert_full = extract_certificate(F_full, orb_full, res_full.solution, one)
        assert verify(cert_full)


def test_criterion_3(capsys):
    claim = "quadric-plus-lines system over GF(3): degree-1 certificate, 16 columns, row oracle"
    with criterion(capsys, 3, claim, budget_s=1.0):
        field = FieldSpec(3)
        texts = ("x1^2+2", "x1+x2", "x1+x3", "x2+x3")
        F = PolySystem.make(field, 3, [parse_poly(t, field, 3) for t in texts])
        out = nulla_prove(F, [1])
        assert out.certificate is not None and out.degree == 1
        assert verify(out.certificate)

        one = Polynomial.one(field, 3)
        asm = full_system(F, 1, [one], graded=False)
        assert asm.system.n_cols == 16  # 4 polynomials x 4 multiplier monomials

        # independent row count: distinct monomials over all shifted products
        shifts = [from_vars(t, 3) for d in (0, 1)
                  for t in combinations_with_replacement(range(3), d)]
        expected = {()}
        for f in F.polys:
            for shift in shifts:
                prod = poly_mul(Polynomial.from_monomial(shift, field), f)
                expected.update(expanded(m) for m, _ in prod.terms)
        assert asm.system.n_rows == len(expected)
        assert {expanded(m) for m in row_monomials(asm)} == expected


def test_criterion_4(capsys):
    claim = "odd wheels (rim 5,7,9) certify at degree 1; even wheels stay open and are colorable"
    with criterion(capsys, 4, claim, budget_s=5.0):
        for rim in (5, 7, 9):
            g = gen_wheel(rim)
            F = encode_coloring(g, EncodingOptions(preprocess=True))
            out = nulla_prove(F, [1, 4])
            assert out.certificate is not None and out.degree == 1, f"rim {rim}"
            assert verify(out.certificate)
        for rim in (4, 6):
            g = gen_wheel(rim)
            F = encode_coloring(g, EncodingOptions(preprocess=True))
            out = nulla_prove(F, [1, 4])
            assert out.certificate is None and out.degree == 4, f"rim {rim}"
            assert out.certificate is None
            assert find_coloring(g, 3) is not None


def test_criterion_5(capsys):
    claim = "Kneser(8,3) certifies at degree 1 with the expected 15737x15681 system"
    with criterion(capsys, 5, claim, budget_s=60.0):
        F = encode_coloring(gen_kneser(8, 3), EncodingOptions(preprocess=True))
        out = nulla_prove(F, [1])
        assert out.certificate is not None and out.degree == 1
        assert verify(out.certificate)
        # built on its local columns, it counts fewer rows of the same system
        assert out.per_degree[0].rows == 3137 and out.per_degree[0].cols == 15681
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(asm, "_local_shifts", lambda F: None)
            full = nulla_prove(F, [1])
        assert full.certificate == out.certificate
        ds = full.per_degree[0]
        assert abs(ds.rows - 15737) <= 0.10 * 15737
        assert abs(ds.cols - 15681) <= 0.10 * 15681
        assert (ds.rows, ds.cols) == (15737, 15681)


def test_criterion_6(capsys):
    claim = "Mycielski graphs m7 and m4 certify at degree 1"
    with criterion(capsys, 6, claim, budget_s=300.0):
        g7 = gen_mycielski(7)
        F7 = encode_coloring(g7, EncodingOptions(preprocess=True))
        out7 = nulla_prove(F7, [1])
        assert out7.certificate is not None and out7.degree == 1
        assert verify(out7.certificate)

        g4 = gen_mycielski(4)
        assert g4.n_vertices == 11 and len(g4.edges) == 20
        F4 = encode_coloring(g4, EncodingOptions(preprocess=True))
        out4 = nulla_prove(F4, [1])
        assert out4.certificate is not None and out4.degree == 1
        assert verify(out4.certificate)


@pytest.fixture(scope="module")
def random_trials():
    """100 seeded G(16, 0.27) graphs pushed through the degree-1/4 schedule."""
    t0 = time.perf_counter()
    results = []
    for seed in range(100):
        g = gen_random(16, 0.27, seed)
        F = encode_coloring(g, EncodingOptions(preprocess=True))
        out = nulla_prove(F, [1, 4])
        results.append((seed, g, out))
    return results, time.perf_counter() - t0


def test_criterion_7(random_trials, capsys):
    claim = "random G(16,0.27): infeasible fraction, degree-1 share, verification, oracle agreement"
    results, build_s = random_trials
    with criterion(capsys, 7, claim, budget_s=600.0, charged_s=build_s):
        infeasible = [(s, g, o) for s, g, o in results if o.certificate is not None]
        fraction = len(infeasible) / len(results)
        assert 0.33 <= fraction <= 0.63, f"infeasible fraction {fraction:.2f}"
        degree_one = [o for _, _, o in infeasible if o.degree == 1]
        share = len(degree_one) / len(infeasible)
        assert share >= 0.70, f"degree-1 share {share:.2f}"
        for _, _, o in infeasible:
            assert verify(o.certificate)
        for _, g, o in infeasible:
            assert find_coloring(g, 3) is None


def test_criterion_8(random_trials, capsys):
    claim = "degree-1 misses become degree-1 hits with triangle cutters and monomial targets"
    results, _ = random_trials
    with criterion(capsys, 8, claim, budget_s=600.0):
        hard = [(s, g) for s, g, o in results
                if o.certificate is not None and o.degree > 1]
        assert hard, "expected some instances to need degree 4 under the plain encoding"
        found = []
        for seed, g in hard:
            F = encode_coloring(g, EncodingOptions(preprocess=True, cutters="cliques"))
            targets = [Polynomial.one(F.field, F.n_vars)] + [
                Polynomial.from_monomial(m, F.field)
                for m in alt_g_candidates(F.n_vars, 3)
            ]
            out = nulla_prove(F, [1], targets)
            if out.certificate is not None:
                found.append((seed, out.certificate))
        assert found, "no degree-1 certificate found on any rerun"
        for _, cert in found:
            assert verify(cert)
        monomial_hits = [
            cert for _, cert in found
            if len(cert.target.terms) == 1
            and cert.target.terms[0][0].degree == 3
            and cert.target.terms[0][1] == 1
        ]
        assert monomial_hits, "no certificate with a degree-3 monomial target"


def test_criterion_9(tmp_path, capsys):
    claim = "1000-system solver equivalence, verifier independence, byte-identical reruns"
    with criterion(capsys, 9, claim, budget_s=120.0):
        rng = random.Random(20260814)
        mismatches = 0
        for trial in range(1000):
            p = 2 if trial % 2 == 0 else 3
            matrix, rhs = random_dense_system(rng, p, max_rows=12, max_cols=12)
            field = FieldSpec(p)
            rows = [
                [(j, v) for j, v in enumerate(row) if v] for row in matrix
            ]
            sys_ = SparseSystem.make(field, len(matrix), len(matrix[0]), rows)
            res = solve(sys_, rhs_entries(rhs))
            status, ref_sol, _ = ref_solve_dense(matrix, rhs, p)
            if res.consistent != (status == "consistent"):
                mismatches += 1
            elif status == "consistent" and not (
                is_entries(res.solution, sys_.n_cols, p) and dense(res.solution, sys_.n_cols) == ref_sol
            ):
                mismatches += 1
        assert mismatches == 0

        # the certificate checker must not share code with the solver stack
        source = Path(__file__).resolve().parents[1] / "src" / "nullcert" / "certificate.py"
        tree = ast.parse(source.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        solver_modules = {
            f"nullcert.{name}"
            for name in ("linsolve", "assemble", "symmetry", "cli", "encode", "graphs")
        }
        assert not imported & solver_modules, imported & solver_modules

        # end-to-end determinism: identical bytes across repeated runs
        for spec in ("complete:4", "random:12,0.4,7"):
            a = tmp_path / f"{spec.replace(':', '_').replace(',', '_')}-a.json"
            b = tmp_path / f"{spec.replace(':', '_').replace(',', '_')}-b.json"
            assert main(["prove", "--gen", spec, "--cert", str(a)]) == 0
            assert main(["prove", "--gen", spec, "--cert", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
            assert verify(read_cert(a.read_text()))
        capsys.readouterr()
