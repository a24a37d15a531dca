"""Unit tests for the exact GF(p) solver against a dense reference eliminator."""

import random

import pytest

from helpers import SparseSystem, dense, is_entries, random_dense_system, ref_solve_dense, rhs_entries
import nullcert.linsolve as linsolve
from nullcert.linsolve import (
    LinsolveError,
    MemoryBudgetError,
    packed_bytes,
    solve,
    solve_multi_rhs,
)
from nullcert.poly import FieldSpec

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def from_dense(field, matrix):
    rows = [
        [(c, v % field.p) for c, v in enumerate(row) if v % field.p]
        for row in matrix
    ]
    return SparseSystem.make(field, len(matrix), len(matrix[0]), rows)


def check_satisfies(sys, solution, rhs):
    """solution is well-formed entries and satisfies every row."""
    p = sys.field.p
    assert is_entries(solution, sys.n_cols, p), solution
    y = dense(solution, sys.n_cols)
    for i, row in enumerate(sys.rows):
        acc = sum(v * y[c] for c, v in row) % p
        assert acc == rhs[i] % p, f"row {i} violated"


class TestConstruction:
    def test_memory_guard(self):
        with pytest.raises(MemoryBudgetError) as exc:
            linsolve.check_budget(F2, 10**6, 10**6, 1 << 20, 1)
        assert exc.value.predicted_bytes == packed_bytes(10**6, 10**6, 2)
        assert exc.value.n_rows == 10**6
        # generous budgets admit small systems
        linsolve.check_budget(F2, 1, 1, 1 << 20, 1)

    def test_packed_bytes(self):
        assert packed_bytes(64, 63, 2) == 64 * 8  # 63 cols + 1 rhs fits one word
        assert packed_bytes(10, 4, 3) == 50


class TestSolveExamples:
    def test_one_by_one(self):
        res = solve(SparseSystem.make(F2, 1, 1, [[(0, 1)]]), [(0, 1)])
        assert res.consistent
        assert res.solution == ((0, 1),)
        assert res.pivot_cols == (0,)

    def test_empty_row_inconsistent(self):
        res = solve(SparseSystem.make(F2, 1, 1, [[]]), [(0, 1)])
        assert not res.consistent
        assert res.solution is None

    def test_all_zero_rhs(self):
        sys_ = from_dense(F3, [[1, 2], [2, 1]])
        res = solve(sys_, [])
        assert res.consistent and res.solution == ()

    def test_free_variables_are_zero(self):
        # one equation, three unknowns: y0 + y1 + y2 = 1
        sys_ = from_dense(F2, [[1, 1, 1]])
        res = solve(sys_, [(0, 1)])
        assert res.solution == ((0, 1),)
        assert res.pivot_cols == (0,)

    def test_gf3_normalization(self):
        # 2*y0 = 1 over GF(3) -> y0 = 2
        res = solve(SparseSystem.make(F3, 1, 1, [[(0, 2)]]), [(0, 1)])
        assert res.solution == ((0, 2),)


def random_windowed_system(rng, p, max_rows, max_cols, window=20):
    """Wide sparse rows: 3-6 nonzeros inside a window at a random offset,
    all ones over GF(2) and drawn from 1..p-1 otherwise.

    Narrow draws (n_cols near the window) make overdetermined systems, so
    both verdicts occur.
    """
    n_rows = rng.randrange(max_rows // 2, max_rows + 1)
    n_cols = rng.randrange(window, max_cols + 1)
    matrix = []
    for _ in range(n_rows):
        low = rng.randrange(n_cols - window + 1)
        row = [0] * n_cols
        for c in rng.sample(range(low, low + window), rng.randrange(3, 7)):
            row[c] = 1 if p == 2 else rng.randrange(1, p)
        matrix.append(row)
    return matrix, [rng.randrange(p) for _ in range(n_rows)]


class TestAgainstDenseReference:
    def run_family(self, field, n_cases, seed, max_rows, max_cols=None, make=random_dense_system):
        rng = random.Random(seed)
        statuses = set()
        for _ in range(n_cases):
            matrix, rhs = make(rng, field.p, max_rows, max_cols or max_rows)
            sys_ = from_dense(field, matrix)
            res = solve(sys_, rhs_entries(rhs))
            status, ref_sol, ref_pivots = ref_solve_dense(matrix, rhs, field.p)
            statuses.add(status)
            assert res.consistent == (status == "consistent")
            assert list(res.pivot_cols) == ref_pivots
            if status == "consistent":
                check_satisfies(sys_, res.solution, rhs)
                assert dense(res.solution, sys_.n_cols) == ref_sol
        return statuses

    def test_gf2(self):
        self.run_family(F2, 300, 1234, 24)

    def test_gf2_wide_sparse(self):
        # rows relative to their lowest column, reduced far from column 0
        self.run_family(F2, 40, 4321, 60, 300, make=random_windowed_system)

    def test_gf3_wide_sparse(self):
        # entries 1 and 2 on the two bit-planes, far from column 0
        statuses = self.run_family(F3, 40, 4322, 60, 300, make=random_windowed_system)
        assert statuses == {"consistent", "inconsistent"}

    def test_gf3(self):
        self.run_family(F3, 100, 77, 16)

    def test_gf5(self):
        self.run_family(F5, 100, 78, 16)

    @pytest.mark.parametrize("field", [F2, F3, F5])
    def test_row_order_is_free(self, field):
        # the random family of acceptance 9, each system solved with its
        # rows as given, reversed and shuffled: the pivots and the
        # free-variables-zero solution depend on the column order alone
        rng = random.Random(20260814 + field.p)
        for _ in range(200):
            matrix, rhs = random_dense_system(rng, field.p, max_rows=12, max_cols=12)
            status, ref_sol, ref_pivots = ref_solve_dense(matrix, rhs, field.p)
            shuffled = list(range(len(matrix)))
            rng.shuffle(shuffled)
            for order in (range(len(matrix)), range(len(matrix) - 1, -1, -1), shuffled):
                sys_ = from_dense(field, [matrix[i] for i in order])
                res = solve(sys_, rhs_entries([rhs[i] for i in order]))
                assert res.consistent == (status == "consistent")
                assert list(res.pivot_cols) == ref_pivots
                if res.consistent:
                    assert dense(res.solution, sys_.n_cols) == ref_sol

    def test_determinism(self):
        rng = random.Random(42)
        matrix, rhs = random_dense_system(rng, 2, 30, 30)
        sys_ = from_dense(F2, matrix)
        assert solve(sys_, rhs_entries(rhs)) == solve(sys_, rhs_entries(rhs))


class TestMultiRhs:
    def test_repeated_rhs_identical(self):
        sys_ = from_dense(F2, [[1, 0], [1, 1]])
        b = [(0, 1)]
        r1, r2 = solve_multi_rhs(sys_, [b, b])
        assert r1 == r2

    def test_matches_per_rhs_solve_gf2(self):
        rng = random.Random(9)
        matrix = [[rng.randrange(2) for _ in range(12)] for _ in range(10)]
        rhs_set = [[rng.randrange(2) for _ in range(10)] for _ in range(364)]
        sys_ = from_dense(F2, matrix)
        multi = solve_multi_rhs(sys_, [rhs_entries(b) for b in rhs_set])
        for b, res in zip(rhs_set, multi):
            single = solve(from_dense(F2, matrix), rhs_entries(b))
            assert res == single
            if res.consistent:
                check_satisfies(sys_, res.solution, b)

    def test_row_reducing_to_rhs_bits_only(self):
        # row 2 = row 0 + row 1 far from column 0: its matrix part vanishes
        # and leaves b0 + b1 + b2, zero for the first rhs and not the second.
        # The first reduction leaves a gap of 70 columns, past one 64-bit word.
        rows = [[(100, 1), (170, 1)], [(170, 1), (240, 1)], [(100, 1), (240, 1)]]
        sys_ = SparseSystem.make(F2, 3, 241, rows)
        good, bad = [1, 0, 1], [1, 0, 0]
        r_good, r_bad = solve_multi_rhs(sys_, [rhs_entries(good), rhs_entries(bad)])
        assert r_good.consistent and not r_bad.consistent
        assert r_good.pivot_cols == r_bad.pivot_cols == (100, 170)
        assert r_good.solution == ((100, 1),)
        check_satisfies(sys_, r_good.solution, good)
        assert r_bad.solution is None
        for b, res in ((good, r_good), (bad, r_bad)):
            assert res == solve(SparseSystem.make(F2, 3, 241, rows), rhs_entries(b))

    def test_matches_per_rhs_solve_gf3(self):
        rng = random.Random(10)
        matrix = [[rng.randrange(3) for _ in range(8)] for _ in range(6)]
        rhs_set = [[rng.randrange(3) for _ in range(6)] for _ in range(40)]
        sys_ = from_dense(F3, matrix)
        for b, res in zip(rhs_set, solve_multi_rhs(sys_, [rhs_entries(b) for b in rhs_set])):
            assert res == solve(from_dense(F3, matrix), rhs_entries(b))
            if res.consistent:
                check_satisfies(sys_, res.solution, b)

    def test_gf3_row_reducing_to_rhs_only(self):
        # row 2 = 2 * row 0 + row 1: its matrix part cancels and leaves
        # b2 - 2 b0 - b1, zero for the first rhs and 1 for the second.  The
        # columns lie past one 64-bit word of each bit-plane.
        rows = [[(100, 1), (170, 1)], [(170, 1), (240, 2)], [(100, 2), (240, 2)]]
        sys_ = SparseSystem.make(F3, 3, 241, rows)
        good, bad = [1, 1, 0], [1, 1, 1]
        r_good, r_bad = solve_multi_rhs(sys_, [rhs_entries(good), rhs_entries(bad)])
        assert r_good.consistent and not r_bad.consistent
        assert r_good.pivot_cols == r_bad.pivot_cols == (100, 170)
        assert r_good.solution == ((170, 1),)
        check_satisfies(sys_, r_good.solution, good)
        for b, res in ((good, r_good), (bad, r_bad)):
            assert res == solve(SparseSystem.make(F3, 3, 241, rows), rhs_entries(b))

    def test_gf3_minus_one_lead_is_normalized(self):
        # -y1 + y4 = 1 claims pivot 1 and is stored as y1 - y4 = 2; row 1
        # reduces against it and claims pivot 2.
        sys_ = SparseSystem.make(F3, 2, 5, [[(1, 2), (4, 1)], [(1, 1), (2, 1), (4, 2)]])
        res = solve(sys_, [(0, 1)])
        assert res.pivot_cols == (1, 2)
        assert res.solution == ((1, 2), (2, 1))
        check_satisfies(sys_, res.solution, [1, 0])

    def test_gf3_bit_planes_match_the_dict_eliminator(self):
        # Seeded wide sparse systems past several 64-bit words, solved on the
        # bit-planes and by the p >= 5 dict eliminator run at p = 3.  Rows
        # may lead with -1, be empty, or be a combination of earlier rows,
        # whose matrix part then reduces to zero and leaves rhs bits only.
        # The first rhs is A y for a random y, so it is consistent.
        rng = random.Random(16)
        seen = set()
        for _ in range(60):
            n_cols = rng.randrange(60, 401)
            rows = []
            for _ in range(rng.randrange(10, 50)):
                kind = rng.random()
                if kind < 0.1:
                    row = {}
                elif kind < 0.3 and len(rows) >= 2:
                    (a, b), f = rng.sample(rows, 2), rng.randrange(1, 3)
                    row = {c: (a.get(c, 0) + f * b.get(c, 0)) % 3 for c in a.keys() | b.keys()}
                else:
                    low = rng.randrange(n_cols)
                    span = range(low, min(n_cols, low + 40))
                    row = {c: rng.randrange(1, 3) for c in rng.sample(span, min(len(span), rng.randrange(1, 7)))}
                rows.append({c: v for c, v in row.items() if v})
            y = [rng.randrange(3) for _ in range(n_cols)]
            rhs_list = [[sum(v * y[c] for c, v in row.items()) % 3 for row in rows]]
            rhs_list += [[rng.randrange(3) for _ in rows] for _ in range(rng.randrange(4))]
            sys_ = SparseSystem.make(F3, len(rows), n_cols, [sorted(r.items()) for r in rows])
            rhs_at = {}  # filed by row, as solve_multi_rhs files them
            for j, b in enumerate(rhs_list):
                for i, v in rhs_entries(b):
                    rhs_at.setdefault(i, []).append((j, v))
            pivots, planes = linsolve._eliminate_gf3(sys_, rhs_at, len(rhs_list))
            ref_pivots, ref = linsolve._eliminate_gfp(sys_, rhs_at, len(rhs_list))
            assert pivots == ref_pivots
            assert planes == ref
            seen.update(x is None for x in planes)
            seen.update(("lead", r[min(r)]) for r in rows if r)
            seen.update(("empty", not r) for r in rows)
        assert seen == {True, False, ("lead", 1), ("lead", 2), ("empty", True), ("empty", False)}

    def test_gfp_right_hand_sides_match_the_dense_reference(self):
        # Seeded GF(5) and GF(7) systems, each solved for several right-hand
        # sides in one pass of the dict eliminator; each result must be the
        # dense reference's for that right-hand side alone, so no rhs is
        # decided by another's reduction.  Rows may be empty or a
        # combination of earlier rows, whose matrix part then reduces to
        # zero.  One rhs, at a random place, is A y for a random y, so it is
        # consistent.
        rng = random.Random(57)
        seen = set()
        for field in (F5, FieldSpec(7)):
            p = field.p
            for _ in range(40):
                n_cols = rng.randrange(1, 13)
                rows = []
                for _ in range(rng.randrange(1, 13)):
                    kind = rng.random()
                    if kind < 0.1:
                        row = [0] * n_cols
                    elif kind < 0.3 and len(rows) >= 2:
                        (a, b), f = rng.sample(rows, 2), rng.randrange(1, p)
                        row = [(x + f * z) % p for x, z in zip(a, b)]
                    else:
                        row = [rng.randrange(1, p) if rng.random() < 0.4 else 0 for _ in range(n_cols)]
                    rows.append(row)
                y = [rng.randrange(p) for _ in range(n_cols)]
                rhs_list = [[sum(v * x for v, x in zip(row, y)) % p for row in rows]]
                rhs_list += [[rng.randrange(p) for _ in rows] for _ in range(rng.randrange(1, 4))]
                rng.shuffle(rhs_list)
                results = solve_multi_rhs(from_dense(field, rows), [rhs_entries(b) for b in rhs_list])
                statuses = set()
                for b, res in zip(rhs_list, results):
                    status, ref_sol, ref_pivots = ref_solve_dense(rows, b, p)
                    assert res.consistent == (status == "consistent")
                    assert list(res.pivot_cols) == ref_pivots
                    if res.consistent:
                        assert is_entries(res.solution, n_cols, p)
                        assert dense(res.solution, n_cols) == ref_sol
                    statuses.add(status)
                seen |= statuses
                seen.add(("both in one pass", len(statuses) == 2))
                for i, row in enumerate(rows):
                    if not any(row):
                        seen.add("empty row")
                    else:
                        # row i adds nothing to the rank of the rows before it
                        rank = [len(ref_solve_dense(rows[:k], [0] * k, p)[2]) for k in (i, i + 1)]
                        seen.add(("reduces to zero", rank[0] == rank[1]))
        assert seen == {
            "consistent",
            "inconsistent",
            ("both in one pass", True),
            ("both in one pass", False),
            "empty row",
            ("reduces to zero", True),
            ("reduces to zero", False),
        }

    def test_field_selects_eliminator(self, monkeypatch):
        # GF(3) runs on bit-planes; p >= 5 keeps the dict eliminator
        calls = []
        for name in ("_eliminate_gf3", "_eliminate_gfp"):
            real = getattr(linsolve, name)

            def spy(sys_, rhs_at, R, real=real, name=name):
                calls.append((name, sys_.field.p))
                return real(sys_, rhs_at, R)

            monkeypatch.setattr(linsolve, name, spy)
        solve(from_dense(F3, [[1, 2]]), [(0, 1)])
        solve(from_dense(F5, [[1, 2]]), [(0, 1)])
        solve(from_dense(FieldSpec(7), [[3, 2]]), [(0, 1)])
        assert calls == [("_eliminate_gf3", 3), ("_eliminate_gfp", 5), ("_eliminate_gfp", 7)]

    def test_rhs_length_check(self):
        # a row past the system's rows: the entry form of an rhs too long
        sys_ = from_dense(F2, [[1]])
        with pytest.raises(LinsolveError, match="row 1 outside"):
            solve_multi_rhs(sys_, [[(1, 1)]])

    def test_rhs_rows_are_checked(self):
        # an entry's row must lie in the system, and one rhs lists a row once
        sys_ = from_dense(F3, [[1], [2]])
        for bad in ([(2, 1)], [(-1, 1)], [(0, 1), (1, 1), (0, 2)]):
            with pytest.raises(LinsolveError, match="row"):
                solve_multi_rhs(sys_, [[(1, 1)], bad])
        # two right-hand sides may each list the same row
        r1, r2 = solve_multi_rhs(sys_, [[(0, 1), (1, 2)], [(1, 1), (0, 2)]])
        assert (r1.solution, r2.solution) == (((0, 1),), ((0, 2),))
