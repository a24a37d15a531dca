"""Degree-d certificate search: matrix assembly, the degree loop, extraction.

The existence of an identity g = sum_i beta_i f_i with deg(beta_i) <= d is
linear in the unknown multiplier coefficients.  One column per pair
(f_i, shift monomial x^delta), one row per monomial of the expanded products;
the entry at (x^alpha, (i, delta)) is the coefficient of x^alpha in
x^delta * f_i, and the right-hand side holds g's coefficients.  Consistency
of that system is exactly certificate existence at degree d.

nulla_prove is the one degree loop: per degree it assembles the system once,
optionally collapses it to orbits of a variable symmetry group (see
nullcert.symmetry), solves it, lifts the solution back onto the full
columns, and extracts and re-verifies the certificate.

Pruning modes:
  "none"        rows are all monomials of degree <= q+d (q = max input degree),
                plus any target monomials outside that range
  "occurring"   rows restricted to monomials that actually occur in some
                x^delta * f_i or in g (default; never changes consistency)
  "graded:<k>"  additionally drop columns (i, delta) unless
                deg(delta) + deg-class(f_i) == 0 mod k; requires every f_i
                homogeneous modulo k and every g degree == 0 mod k.  Sound and
                complete for such systems because the identity splits by
                residue class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from nullcert.certificate import Certificate, CertEntry, verify
from nullcert.graphs import Graph
from nullcert.linsolve import SparseSystem, solve_multi_rhs
from nullcert.poly import Monomial, PolySystem, Polynomial

if TYPE_CHECKING:
    from nullcert.symmetry import PermutationSet

_EXPANDED_CACHE: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}


class AssembleError(ValueError):
    """Raised for invalid assembly requests (pruning misuse, bad targets)."""


def _expanded_monomials(n_vars: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """All expanded-form monomials of exact degree, ascending; cached."""
    key = (n_vars, degree)
    cached = _EXPANDED_CACHE.get(key)
    if cached is None:
        from itertools import combinations_with_replacement

        cached = tuple(combinations_with_replacement(range(n_vars), degree))
        _EXPANDED_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class ColumnKey:
    """Which multiplier coefficient a column stands for: x^shift on poly i."""

    poly_index: int
    shift: Monomial


@dataclass(frozen=True)
class AssembledSystem:
    system: SparseSystem
    col_keys: Tuple[ColumnKey, ...]
    row_keys: Tuple[Monomial, ...]
    degree: int
    target: Polynomial

    def __post_init__(self) -> None:
        if self.system.n_cols != len(self.col_keys):
            raise AssembleError("column key count does not match system width")
        if self.system.n_rows != len(self.row_keys):
            raise AssembleError("row key count does not match system height")


@dataclass(frozen=True)
class SystemStats:
    n_vars: int
    n_polys: int
    monomial_total: int
    degree: int
    predicted_cols: int
    predicted_nnz: int
    actual_rows: int
    actual_cols: int
    actual_nnz: int


@dataclass(frozen=True)
class DegreeStats:
    degree: int
    rows: int
    cols: int
    nnz: int
    status: str
    millis: int


@dataclass(frozen=True)
class NullaOutcome:
    """Result of the degree loop.

    verdict "infeasible" carries the verified certificate and the degree at
    which it was found; "no_certificate_up_to" carries the largest degree
    tried and no certificate.  Feasibility is NOT decided in the latter case.
    orbit_inconclusive records an inconsistent orbit solve whose group order
    is not known coprime to p, which proves nothing at that degree.
    """

    verdict: str
    certificate: Optional[Certificate]
    degree: int
    per_degree: Tuple[DegreeStats, ...]
    orbit_inconclusive: bool = False


# Internal form: shifts and row monomials as expanded index tuples, no
# Monomial wrappers.  Wrapping ~10^5 keys per degree costs more than the
# degrees that find nothing; public APIs wrap at the boundary instead.
@dataclass(frozen=True)
class _RawAssembly:
    system: SparseSystem
    col_keys: Tuple[Tuple[int, Tuple[int, ...]], ...]
    row_keys: Tuple[Tuple[int, ...], ...]
    degree: int


def _parse_pruning(pruning: str) -> Tuple[str, Optional[int]]:
    if pruning == "none":
        return "none", None
    if pruning == "occurring":
        return "occurring", None
    if pruning.startswith("graded:"):
        text = pruning[len("graded:"):]
        if not text.isdigit() or int(text) < 2:
            raise AssembleError(f"bad graded pruning modulus in {pruning!r}")
        return "graded", int(text)
    raise AssembleError(f"unknown pruning mode {pruning!r}")


def _degree_classes(F: PolySystem, k: int) -> List[int]:
    """Residue class mod k of each poly's term degrees; error if mixed."""
    classes = []
    for i, f in enumerate(F.polys):
        residues = {m.degree % k for m, _ in f.terms}
        if len(residues) != 1:
            raise AssembleError(
                f"graded:{k} pruning needs each polynomial homogeneous mod {k}; "
                f"{F.tags[i]} mixes degree classes {sorted(residues)}"
            )
        classes.append(residues.pop())
    return classes


def _assemble_targets(
    F: PolySystem,
    d: int,
    targets: Sequence[Polynomial],
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> Tuple[_RawAssembly, List[List[int]]]:
    """Build the degree-d system once, with one rhs vector per target.

    The row universe covers every target's monomials, so the returned rhs
    vectors are interchangeable on the same matrix.
    """
    if d < 0:
        raise AssembleError("degree must be >= 0")
    if not targets:
        raise AssembleError("need at least one target polynomial")
    n = F.n_vars
    field = F.field
    for g in targets:
        if g.field != field or g.n_vars != n:
            raise AssembleError("target field or n_vars mismatch")
        if g.is_zero():
            raise AssembleError("zero target gives a vacuous identity")
    mode, k = _parse_pruning(pruning)

    classes: Optional[List[int]] = None
    if mode == "graded":
        assert k is not None
        classes = _degree_classes(F, k)
        for g in targets:
            bad = [m for m, _ in g.terms if m.degree % k != 0]
            if bad:
                raise AssembleError(
                    f"graded:{k} pruning needs target degrees == 0 mod {k}; "
                    f"target has degree-{bad[0].degree} monomial"
                )

    poly_terms = [tuple((m.expanded(), c) for m, c in f.terms) for f in F.polys]

    # Enumerate columns in global order (poly index, then shift degree, then
    # shift), expanding each product x^delta * f_i as we go.
    col_keys_raw: List[Tuple[int, Tuple[int, ...]]] = []
    col_products: List[List[Tuple[Tuple[int, ...], int]]] = []
    for i, terms in enumerate(poly_terms):
        if mode == "graded":
            assert classes is not None and k is not None
            start, step = (-classes[i]) % k, k
        else:
            start, step = 0, 1
        for deg in range(start, d + 1, step):
            for delta in _expanded_monomials(n, deg):
                col_keys_raw.append((i, delta))
                col_products.append(
                    [(tuple(sorted(delta + t)), c) for t, c in terms]
                )

    row_set = {m.expanded() for g in targets for m, _ in g.terms}
    if mode == "none":
        q = max(F.max_degree, 0)
        for deg in range(q + d + 1):
            row_set.update(_expanded_monomials(n, deg))
    else:
        for prod in col_products:
            for m, _ in prod:
                row_set.add(m)
    row_list = sorted(row_set, key=lambda t: (len(t), t))
    row_index = {m: r for r, m in enumerate(row_list)}

    row_entries: List[List[Tuple[int, int]]] = [[] for _ in row_list]
    for j, prod in enumerate(col_products):
        for m, c in prod:
            row_entries[row_index[m]].append((j, c))

    rhs_list: List[List[int]] = []
    for g in targets:
        b = [0] * len(row_list)
        for m, c in g.terms:
            b[row_index[m.expanded()]] = c
        rhs_list.append(b)

    system = SparseSystem.make(
        field,
        len(row_list),
        len(col_keys_raw),
        row_entries,
        rhs_list[0],
        memory_budget=memory_budget,
    )
    raw = _RawAssembly(
        system=system,
        col_keys=tuple(col_keys_raw),
        row_keys=tuple(row_list),
        degree=d,
    )
    return raw, rhs_list


def assemble(
    F: PolySystem,
    d: int,
    g: Polynomial,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
) -> AssembledSystem:
    """Build the degree-d linear system for one target polynomial."""
    raw, _ = _assemble_targets(F, d, [g], pruning, memory_budget)
    n = F.n_vars
    return AssembledSystem(
        system=raw.system,
        col_keys=tuple(ColumnKey(i, Monomial.from_vars(delta, n)) for i, delta in raw.col_keys),
        row_keys=tuple(Monomial.from_vars(m, n) for m in raw.row_keys),
        degree=d,
        target=g,
    )


def stats(
    F: PolySystem,
    d: int,
    pruning: str = "occurring",
    g: Optional[Polynomial] = None,
    memory_budget: Optional[int] = None,
) -> SystemStats:
    """Closed-form size predictions next to actual post-pruning sizes.

    Predictions count the unpruned system: n_polys * C(n+d, d) columns and
    one matrix entry per (input monomial, shift) pair.  Actuals come from a
    dry assembly with the requested pruning.
    """
    if d < 0:
        raise AssembleError("degree must be >= 0")
    if g is None:
        g = Polynomial.one(F.field, F.n_vars)
    raw, _ = _assemble_targets(F, d, [g], pruning, memory_budget)
    shifts = comb(F.n_vars + d, d)
    monomial_total = sum(len(f.terms) for f in F.polys)
    return SystemStats(
        n_vars=F.n_vars,
        n_polys=len(F),
        monomial_total=monomial_total,
        degree=d,
        predicted_cols=len(F) * shifts,
        predicted_nnz=monomial_total * shifts,
        actual_rows=raw.system.n_rows,
        actual_cols=raw.system.n_cols,
        actual_nnz=raw.system.nnz,
    )


def _cert_from_support(
    F: PolySystem,
    support: Iterable[Tuple[int, Monomial, int]],
    target: Polynomial,
    provenance: Optional[dict],
) -> Certificate:
    """Assemble certificate entries from (poly index, shift, coefficient)."""
    per_poly: Dict[int, List[Tuple[Monomial, int]]] = {}
    for i, shift, v in support:
        per_poly.setdefault(i, []).append((shift, v))
    entries = []
    for i in sorted(per_poly):
        beta = Polynomial.make(F.field, F.n_vars, dict(per_poly[i]))
        entries.append(CertEntry(F.tags[i], F.polys[i], beta))
    return Certificate(
        field=F.field,
        n_vars=F.n_vars,
        target=target,
        entries=tuple(entries),
        provenance=dict(provenance or {}),
    )


def extract_certificate(
    F: PolySystem,
    col_keys: Sequence[ColumnKey],
    solution: Sequence[int],
    target: Polynomial,
    provenance: Optional[dict] = None,
) -> Certificate:
    """Turn a solution vector into multipliers: beta_i = sum y_(i,delta) x^delta."""
    if len(col_keys) != len(solution):
        raise AssembleError("solution length does not match column keys")
    support = (
        (ck.poly_index, ck.shift, solution[j])
        for j, ck in enumerate(col_keys)
        if solution[j]
    )
    return _cert_from_support(F, support, target, provenance)


def nulla_prove(
    F: PolySystem,
    schedule: Sequence[int],
    g_candidates: Optional[Sequence[Polynomial]] = None,
    *,
    pruning: str = "occurring",
    memory_budget: Optional[int] = None,
    provenance: Optional[dict] = None,
    perms: Optional[PermutationSet] = None,
    fallback_full: bool = False,
) -> NullaOutcome:
    """Search the degree schedule for a certificate; first hit wins.

    Each degree assembles one matrix and tests every target candidate as a
    separate right-hand side in one elimination pass.  With perms, F and
    every target must be invariant under the group; the matrix is collapsed
    to orbits before the solve and an orbit solution is lifted back onto the
    full columns.  An inconsistent orbit solve is conclusive only when the
    group order is coprime to p; otherwise orbit_inconclusive is set and,
    with fallback_full, the full matrix of that degree is solved too.  An
    "infeasible" verdict is returned only after the extracted certificate
    re-verifies by expansion; failure there is a solver bug and raises.
    """
    schedule = list(schedule)
    if not schedule:
        raise AssembleError("degree schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 0:
        raise AssembleError("degree schedule must be ascending and nonnegative")
    targets = list(g_candidates) if g_candidates else [Polynomial.one(F.field, F.n_vars)]
    if perms is not None:
        # symmetry builds on this module, so it is imported on use
        from nullcert.symmetry import _check_invariant, _collapse, _coprime, group_order

        maps = _check_invariant(F, targets, perms)
        conclusive = _coprime(group_order(perms), F.field.p)
        sym_desc = [list(images) for images in perms.generators]

    per_degree: List[DegreeStats] = []
    inconclusive = False
    for d in schedule:
        t0 = time.perf_counter()
        raw, rhs_list = _assemble_targets(F, d, targets, pruning, memory_budget)
        # (system, right-hand sides, full column -> solved column or None)
        attempts = [(raw.system, rhs_list, None)]
        if perms is not None:
            orb = _collapse(raw, rhs_list, perms, maps, memory_budget)
            attempts = [(orb.system, orb.rhs_list, orb.col_orbit_index)]
            if fallback_full and not conclusive:
                attempts.append((raw.system, rhs_list, None))
        for system, rhs_set, col_orbit in attempts:
            results = solve_multi_rhs(system, rhs_set)
            millis = int((time.perf_counter() - t0) * 1000)
            t0 = time.perf_counter()
            hit = next((idx for idx, r in enumerate(results) if r.consistent), None)
            status = "consistent" if hit is not None else "inconsistent"
            per_degree.append(
                DegreeStats(d, system.n_rows, system.n_cols, system.nnz, status, millis)
            )
            if hit is None:
                inconclusive = inconclusive or (col_orbit is not None and not conclusive)
                continue
            sol = results[hit].solution
            assert sol is not None
            if col_orbit is not None:
                sol = tuple(sol[o] for o in col_orbit)
            prov = {
                **(provenance or {}),
                "symmetry": sym_desc if col_orbit is not None else None,
                "degree": d,
                "pruning": pruning,
            }
            n = F.n_vars
            support = (
                (i, Monomial.from_vars(delta, n), sol[j])
                for j, (i, delta) in enumerate(raw.col_keys)
                if sol[j]
            )
            cert = _cert_from_support(F, support, targets[hit], prov)
            if not verify(cert):
                raise AssembleError(
                    "internal error: extracted certificate failed re-verification"
                )
            return NullaOutcome("infeasible", cert, d, tuple(per_degree), inconclusive)
    return NullaOutcome(
        "no_certificate_up_to", None, schedule[-1], tuple(per_degree), inconclusive
    )


def isolate_subgraph(cert: Certificate, g: Graph) -> Graph:
    """Subgraph spanned by the edges whose multiplier is nonzero.

    Certificate entries are matched by their "edge:u-v" tags; the returned
    graph keeps original vertex labels (vertex count = largest endpoint).
    """
    edges = []
    for e in cert.entries:
        if not e.tag.startswith("edge:"):
            continue
        u_txt, _, v_txt = e.tag[len("edge:"):].partition("-")
        if not u_txt.isdigit() or not v_txt.isdigit():
            raise AssembleError(f"malformed edge tag {e.tag!r}")
        u, v = int(u_txt), int(v_txt)
        if not (1 <= u < v <= g.n_vertices) or (u, v) not in g.edges:
            raise AssembleError(f"certificate edge {e.tag!r} is not an edge of the graph")
        edges.append((u, v))
    if not edges:
        raise AssembleError("certificate has no edge-tagged entries to isolate")
    n = max(v for _, v in edges)
    return Graph.make(n, edges)


__all__ = [
    "AssembleError",
    "AssembledSystem",
    "ColumnKey",
    "DegreeStats",
    "NullaOutcome",
    "SystemStats",
    "assemble",
    "extract_certificate",
    "isolate_subgraph",
    "nulla_prove",
    "stats",
]
