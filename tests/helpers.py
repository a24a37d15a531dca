"""Shared test-only oracles: polynomial product and evaluation, GF(4)
evaluation, and dense reference eliminators.

These deliberately take different implementation routes from the package so
they can serve as independent cross-checks.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.poly import PolyError, Polynomial

# ---------------------------------------------------------------------------
# Polynomial product and evaluation over GF(p), term by term.


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    p = a.field.p
    acc: Dict = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            m = ma.mul(mb)
            acc[m] = (acc.get(m, 0) + ca * cb) % p
    return Polynomial.make(a.field, a.n_vars, acc)


def poly_eval(a: Polynomial, point: Sequence[int]) -> int:
    """Evaluate at a point given as a length-n_vars vector of residues."""
    if len(point) != a.n_vars:
        raise PolyError(f"point length {len(point)} != n_vars {a.n_vars}")
    p = a.field.p
    total = 0
    for mono, coeff in a.terms:
        v = coeff
        for var, exp in mono.exponents:
            v = (v * pow(point[var] % p, exp, p)) % p
        total = (total + v) % p
    return total

# ---------------------------------------------------------------------------
# GF(4) = GF(2)[a] / (a^2 + a + 1), elements as pairs (c0, c1) = c0 + c1*a.
# The nonzero elements ONE, ALPHA, ALPHA1 are the three cube roots of unity.

GF4_ZERO = (0, 0)
GF4_ONE = (1, 0)
GF4_ALPHA = (0, 1)
GF4_ALPHA1 = (1, 1)
GF4_ROOTS = (GF4_ONE, GF4_ALPHA, GF4_ALPHA1)


def gf4_add(x, y):
    return (x[0] ^ y[0], x[1] ^ y[1])


def gf4_mul(x, y):
    a, b = x
    c, d = y
    # (a + b*al)(c + d*al) with al^2 = al + 1
    return ((a * c ^ b * d) & 1, (a * d ^ b * c ^ b * d) & 1)


def gf4_pow(x, e):
    out = GF4_ONE
    for _ in range(e):
        out = gf4_mul(out, x)
    return out


def eval_poly_gf4(poly, point: Sequence[Tuple[int, int]]):
    """Evaluate a GF(2)-coefficient Polynomial at a GF(4) point."""
    assert poly.field.p == 2
    total = GF4_ZERO
    for mono, coeff in poly.terms:
        v = (coeff & 1, 0)
        for var, exp in mono.exponents:
            v = gf4_mul(v, gf4_pow(point[var], exp))
        total = gf4_add(total, v)
    return total


# ---------------------------------------------------------------------------
# Dense reference elimination over GF(p): textbook RREF with explicit row
# swaps on full coefficient lists, free variables set to zero.


def ref_solve_dense(
    matrix: List[List[int]], rhs: List[int], p: int
) -> Tuple[str, Optional[List[int]], List[int]]:
    """Return (status, solution or None, pivot_cols)."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    aug = [[x % p for x in row] + [rhs[i] % p] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][c] % p != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] % p != 0:
            return "inconsistent", None, pivot_cols
    solution = [0] * n_cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = aug[row_idx][n_cols]
    return "consistent", solution, pivot_cols


def random_dense_system(rng, p, max_rows=20, max_cols=20, density=0.4):
    n_rows = rng.randrange(1, max_rows + 1)
    n_cols = rng.randrange(1, max_cols + 1)
    matrix = [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    rhs = [rng.randrange(p) for _ in range(n_rows)]
    return matrix, rhs


def exhaustive_colorable(g, k) -> bool:
    for assignment in itertools.product(range(k), repeat=g.n_vertices):
        if all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges):
            return True
    return False
