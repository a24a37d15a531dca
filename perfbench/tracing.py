"""In-process tracing of the prover, layer by layer, from outside the code.

``Tracer.install`` replaces the public names that ``nullcert.cli``,
``nullcert.assemble`` and ``nullcert.certificate`` import with wrappers that
record a span per call: name, start, end, parent span and instance id.  The
program's files are untouched; ``Tracer.uninstall`` puts the originals back.
Spans stay in memory until ``write``.

Layer metrics are derived from the spans.  A span's self time is its
duration minus that of its direct children.  Attributes a wrapper reads off
arguments or results (sizes, rank) are computed inside a ``trace.attrs``
child span, so that bookkeeping never counts as the caller's self time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

SOLVE_SPANS = ("linsolve.solve_multi_rhs", "linsolve.solve")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "instance", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], instance: str):
        self.id = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._restore: list = []
        self.instance = ""

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.instance)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                book = self.open("trace.attrs")
                try:
                    span.attrs.update(attrs(args, kwargs, result))
                finally:
                    self.close(book)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def install(self) -> None:
        import nullcert.assemble as assemble
        import nullcert.certificate as certificate
        import nullcert.cli as cli
        from nullcert.linsolve import packed_bytes

        def solve_attrs(args, kwargs, results):
            system = args[0]
            results = results if isinstance(results, list) else [results]
            n_rhs = len(args[1]) if len(args) > 1 else 1
            return {
                "p": system.field.p,
                "rows": system.n_rows,
                "cols": system.n_cols,
                "nnz": system.nnz,
                "rank": len(results[0].pivot_cols),
                "consistent": sum(r.consistent for r in results),
                "inconsistent": sum(not r.consistent for r in results),
                "packed_bytes": packed_bytes(system.n_rows, system.n_cols, system.field.p, n_rhs),
            }

        def orbit_attrs(args, kwargs, orb):
            return {"cols": orb.system.n_cols, "full_cols": len(orb.full_col_keys)}

        def write_attrs(args, kwargs, text):
            return {"terms": sum(len(e.multiplier.terms) for e in args[0].entries), "bytes": len(text)}

        def encode_attrs(args, kwargs, system):
            return {"polys": len(system)}

        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "nulla_prove", "assemble.nulla_prove")
        self._wrap(cli, "extract_certificate", "assemble.extract_certificate")
        self._wrap(cli, "solve", "linsolve.solve", solve_attrs)
        self._wrap(cli, "assemble_orbit", "symmetry.assemble_orbit", orbit_attrs)
        self._wrap(cli, "lift_solution", "symmetry.lift_solution")
        self._wrap(cli, "parse_generators", "symmetry.parse_generators")
        self._wrap(cli, "encode_coloring", "encode.encode_coloring", encode_attrs)
        self._wrap(cli, "parse_dimacs", "graphs.parse_dimacs")
        self._wrap(cli, "parse_poly", "poly.parse_poly")
        self._wrap(cli, "verify", "certificate.verify")
        self._wrap(cli, "read_cert", "certificate.read_cert")
        self._wrap(cli, "write_cert", "certificate.write_cert", write_attrs)
        self._wrap(assemble, "solve_multi_rhs", "linsolve.solve_multi_rhs", solve_attrs)
        self._wrap(assemble, "verify", "certificate.verify")
        self._wrap(certificate, "parse_poly", "poly.parse_poly")

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "instance": s.instance, **s.attrs}
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-layer totals, divided by the number of passes over the instance set."""
    by_id = {s.id: s for s in spans}
    child_time: Dict[int, float] = {}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
            children.setdefault(s.parent, []).append(s)

    def total(name: str, self_time: bool = False) -> float:
        return sum(s.dur - (child_time.get(s.id, 0.0) if self_time else 0.0) for s in spans if s.name == name)

    def attr_sum(names, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    solves = [s for s in spans if s.name in SOLVE_SPANS]
    in_prove = lambda s: s.parent is not None and by_id[s.parent].name == "assemble.nulla_prove"
    degrees = [s for s in solves if in_prove(s)]

    # Degrees that found nothing: from the end of the previous degree (or the
    # start of nulla_prove) to the end of this degree's solve, i.e. assembly
    # plus elimination.  The tracer's own bookkeeping is skipped.
    miss_s = 0.0
    for s in spans:
        if s.name != "assemble.nulla_prove":
            continue
        boundary = s.start
        for c in children.get(s.id, []):
            if c.name == "linsolve.solve_multi_rhs" and not c.attrs.get("consistent"):
                miss_s += c.end - boundary
            if c.name in ("linsolve.solve_multi_rhs", "trace.attrs"):
                boundary = c.end

    orbit_cols = attr_sum(("symmetry.assemble_orbit",), "cols")
    m = {
        "linsolve.gf2_solve_s": sum(s.dur for s in solves if s.attrs.get("p") == 2),
        "linsolve.gfp_solve_s": sum(s.dur for s in solves if s.attrs.get("p") != 2),
        "linsolve.rank": attr_sum(SOLVE_SPANS, "rank"),
        "linsolve.consistent_solves": attr_sum(SOLVE_SPANS, "consistent"),
        "linsolve.inconsistent_solves": attr_sum(SOLVE_SPANS, "inconsistent"),
        "assemble.nulla_prove_self_s": total("assemble.nulla_prove", self_time=True),
        "assemble.rows": sum(s.attrs.get("rows", 0) for s in degrees),
        "assemble.cols": sum(s.attrs.get("cols", 0) for s in degrees),
        "assemble.nnz": sum(s.attrs.get("nnz", 0) for s in degrees),
        "assemble.degrees_tried": len(degrees),
        "assemble.miss_degree_s": miss_s,
        "symmetry.assemble_orbit_s": total("symmetry.assemble_orbit"),
        "symmetry.lift_s": total("symmetry.lift_solution"),
        "symmetry.orbit_cols": orbit_cols,
        "certificate.verify_s": total("certificate.verify"),
        "certificate.read_s": total("certificate.read_cert"),
        "certificate.write_s": total("certificate.write_cert"),
        "certificate.terms": attr_sum(("certificate.write_cert",), "terms"),
        "certificate.bytes": attr_sum(("certificate.write_cert",), "bytes"),
        "encode.encode_coloring_s": total("encode.encode_coloring"),
        "encode.polys": attr_sum(("encode.encode_coloring",), "polys"),
        "graphs.parse_dimacs_s": total("graphs.parse_dimacs"),
        "poly.parse_s": total("poly.parse_poly"),
        "cli.self_s": total("cli.main", self_time=True),
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios and peaks are not per-pass sums
    m["linsolve.packed_bytes"] = max((s.attrs.get("packed_bytes", 0) for s in solves), default=0)
    hits = sum(1 for s in degrees if s.attrs.get("consistent"))
    m["assemble.hit_ratio"] = hits / len(degrees) if degrees else 0.0
    full_cols = attr_sum(("symmetry.assemble_orbit",), "full_cols")
    m["symmetry.collapse_ratio"] = full_cols / orbit_cols if orbit_cols else 0.0
    return m
