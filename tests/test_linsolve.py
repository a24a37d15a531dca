"""Unit tests for the exact GF(p) solver against a dense reference eliminator."""

import random

import pytest

from helpers import random_dense_system, ref_solve_dense
from nullcert.linsolve import (
    LinsolveError,
    MemoryBudgetError,
    SparseSystem,
    packed_bytes,
    solve,
    solve_multi_rhs,
)
from nullcert.poly import FieldSpec

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def from_dense(field, matrix, rhs, **kw):
    rows = [
        [(c, v % field.p) for c, v in enumerate(row) if v % field.p]
        for row in matrix
    ]
    return SparseSystem.make(field, len(matrix), len(matrix[0]), rows, rhs, **kw)


def check_satisfies(sys, solution, rhs=None):
    rhs = sys.rhs if rhs is None else rhs
    p = sys.field.p
    for i, row in enumerate(sys.rows):
        acc = sum(v * solution[c] for c, v in row) % p
        assert acc == rhs[i] % p, f"row {i} violated"


class TestConstruction:
    def test_validation(self):
        with pytest.raises(LinsolveError):
            SparseSystem.make(F2, 1, 2, [[(2, 1)]], [0])  # column out of range
        with pytest.raises(LinsolveError):
            SparseSystem.make(F2, 1, 2, [[(1, 1), (0, 1)]], [0])  # order
        with pytest.raises(LinsolveError):
            SparseSystem.make(F3, 1, 2, [[(0, 3)]], [0])  # zero coeff mod 3
        with pytest.raises(LinsolveError):
            SparseSystem.make(F2, 1, 2, [[(0, 1)]], [2])  # rhs out of range
        with pytest.raises(LinsolveError):
            SparseSystem.make(F2, 2, 2, [[(0, 1)]], [0, 0])  # row count

    def test_memory_guard(self):
        with pytest.raises(MemoryBudgetError) as exc:
            SparseSystem.make(F2, 10**6, 10**6, [], [], memory_budget=1 << 20)
        assert exc.value.predicted_bytes == packed_bytes(10**6, 10**6, 2)
        assert exc.value.n_rows == 10**6
        # generous budgets admit small systems
        SparseSystem.make(F2, 1, 1, [[(0, 1)]], [1], memory_budget=1 << 20)

    def test_packed_bytes(self):
        assert packed_bytes(64, 63, 2) == 64 * 8  # 63 cols + 1 rhs fits one word
        assert packed_bytes(10, 4, 3) == 50


class TestSolveExamples:
    def test_one_by_one(self):
        res = solve(SparseSystem.make(F2, 1, 1, [[(0, 1)]], [1]))
        assert res.status == "consistent"
        assert res.solution == (1,)
        assert res.pivot_cols == (0,)

    def test_empty_row_inconsistent(self):
        res = solve(SparseSystem.make(F2, 1, 1, [[]], [1]))
        assert res.status == "inconsistent"
        assert res.solution is None

    def test_all_zero_rhs(self):
        sys_ = from_dense(F3, [[1, 2], [2, 1]], [0, 0])
        res = solve(sys_)
        assert res.consistent and res.solution == (0, 0)

    def test_free_variables_are_zero(self):
        # one equation, three unknowns: y0 + y1 + y2 = 1
        sys_ = from_dense(F2, [[1, 1, 1]], [1])
        res = solve(sys_)
        assert res.solution == (1, 0, 0)
        assert res.pivot_cols == (0,)

    def test_gf3_normalization(self):
        # 2*y0 = 1 over GF(3) -> y0 = 2
        res = solve(SparseSystem.make(F3, 1, 1, [[(0, 2)]], [1]))
        assert res.solution == (2,)


class TestAgainstDenseReference:
    def run_family(self, field, n_cases, seed, max_dim):
        rng = random.Random(seed)
        for _ in range(n_cases):
            matrix, rhs = random_dense_system(rng, field.p, max_dim, max_dim)
            sys_ = from_dense(field, matrix, rhs)
            res = solve(sys_)
            status, ref_sol, ref_pivots = ref_solve_dense(matrix, rhs, field.p)
            assert res.status == status
            assert list(res.pivot_cols) == ref_pivots
            if status == "consistent":
                assert list(res.solution) == ref_sol
                check_satisfies(sys_, res.solution)

    def test_gf2(self):
        self.run_family(F2, 300, 1234, 24)

    def test_gf3(self):
        self.run_family(F3, 100, 77, 16)

    def test_gf5(self):
        self.run_family(F5, 100, 78, 16)

    def test_determinism(self):
        rng = random.Random(42)
        matrix, rhs = random_dense_system(rng, 2, 30, 30)
        sys_ = from_dense(F2, matrix, rhs)
        assert solve(sys_) == solve(sys_)


class TestMultiRhs:
    def test_repeated_rhs_identical(self):
        sys_ = from_dense(F2, [[1, 0], [1, 1]], [1, 0])
        b = [1, 0]
        r1, r2 = solve_multi_rhs(sys_, [b, b])
        assert r1 == r2

    def test_matches_per_rhs_solve_gf2(self):
        rng = random.Random(9)
        matrix = [[rng.randrange(2) for _ in range(12)] for _ in range(10)]
        rhs_set = [[rng.randrange(2) for _ in range(10)] for _ in range(364)]
        sys_ = from_dense(F2, matrix, [0] * 10)
        multi = solve_multi_rhs(sys_, rhs_set)
        for b, res in zip(rhs_set, multi):
            single = solve(from_dense(F2, matrix, b))
            assert res == single
            if res.consistent:
                check_satisfies(sys_, res.solution, b)

    def test_matches_per_rhs_solve_gf3(self):
        rng = random.Random(10)
        matrix = [[rng.randrange(3) for _ in range(8)] for _ in range(6)]
        rhs_set = [[rng.randrange(3) for _ in range(6)] for _ in range(40)]
        sys_ = from_dense(F3, matrix, [0] * 6)
        for b, res in zip(rhs_set, solve_multi_rhs(sys_, rhs_set)):
            assert res == solve(from_dense(F3, matrix, b))

    def test_rhs_length_check(self):
        sys_ = from_dense(F2, [[1]], [0])
        with pytest.raises(LinsolveError):
            solve_multi_rhs(sys_, [[0, 1]])
