"""Command-line front end: prove, verify, stats, encode, and graph generation.

Each subcommand reads its argparse namespace directly; prove hands the whole
search, symmetry reduction included, to one nulla_prove call.

Exit codes: 0 success (prove: infeasibility certified; verify: certificate
valid), 1 verification failure, 2 usage or input errors, 10 no certificate
up to the degree cap (feasibility stays undecided).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import List, Optional, Sequence, Tuple

from nullcert.assemble import nulla_prove, stats
from nullcert.certificate import CertificateError, read_cert, verify, write_cert
from nullcert.encode import EncodingOptions, alt_g_candidates, encode_coloring
from nullcert.graphs import (
    Graph,
    gen_complete,
    gen_kneser,
    gen_mycielski,
    gen_random,
    gen_wheel,
    parse_dimacs,
    write_dimacs,
)
from nullcert.poly import (
    FieldSpec,
    PolySystem,
    Polynomial,
    format_poly,
    parse_monomial,
    parse_poly,
)
from nullcert.symmetry import parse_generators

# unused here, but perfbench/tracing.py wraps these names on this module
from nullcert.assemble import extract_certificate
from nullcert.linsolve import solve
from nullcert.symmetry import assemble_orbit, lift_solution

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NO_CERT = 10


class CliError(ValueError):
    """Raised for bad flag combinations or malformed specs; maps to exit 2."""


def parse_gen_spec(spec: str, seed: Optional[int]) -> Tuple[Graph, str]:
    """Build a graph from "name:params"; returns (graph, canonical spec)."""
    name, _, rest = spec.strip().partition(":")
    parts = rest.split(",") if rest else []
    try:
        if name == "complete" and len(parts) == 1:
            return gen_complete(int(parts[0])), f"complete:{int(parts[0])}"
        if name == "wheel" and len(parts) == 1:
            return gen_wheel(int(parts[0])), f"wheel:{int(parts[0])}"
        if name == "kneser" and len(parts) == 2:
            t, r = int(parts[0]), int(parts[1])
            return gen_kneser(t, r), f"kneser:{t},{r}"
        if name == "mycielski" and len(parts) == 1:
            return gen_mycielski(int(parts[0])), f"mycielski:{int(parts[0])}"
        if name == "random" and len(parts) in (2, 3):
            n, prob = int(parts[0]), float(parts[1])
            s = int(parts[2]) if len(parts) == 3 else (seed if seed is not None else 0)
            return gen_random(n, prob, s), f"random:{parts[0]},{parts[1]},{s}"
    except ValueError as e:
        raise CliError(f"bad generator spec {spec!r}: {e}") from None
    raise CliError(
        f"unknown generator spec {spec!r} "
        "(use complete:N, wheel:RIM, kneser:T,R, mycielski:K, random:N,PROB[,SEED])"
    )


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_graph(args: argparse.Namespace) -> Tuple[Graph, dict]:
    if args.gen:
        graph, canon = parse_gen_spec(args.gen, args.seed)
        meta = {"kind": "gen", "spec": canon, "sha256": _fingerprint(write_dimacs(graph))}
        return graph, meta
    assert args.input is not None
    with open(args.input) as fh:
        graph = parse_dimacs(fh.read())
    return graph, {"kind": "dimacs", "sha256": _fingerprint(write_dimacs(graph))}


def load_system_file(path: str, p: int) -> Tuple[PolySystem, dict]:
    """Read a generic system: one "tag polynomial" per line, '#' comments."""
    with open(path) as fh:
        text = fh.read()
    tagged: List[Tuple[str, str]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, poly_text = line.partition(" ")
        poly_text = poly_text.strip()
        if not poly_text:
            raise CliError(f"{path}:{lineno}: expected 'tag polynomial'")
        tagged.append((tag, poly_text))
    if not tagged:
        raise CliError(f"{path}: no polynomials found")
    n_vars = 0
    for _, poly_text in tagged:
        for piece in poly_text.replace("*", " ").replace("+", " ").replace("-", " ").split():
            if piece.startswith("x"):
                idx = piece[1:].partition("^")[0]
                if idx.isdigit():
                    n_vars = max(n_vars, int(idx))
    field = FieldSpec(p)
    polys = [parse_poly(t, field, n_vars) for _, t in tagged]
    F = PolySystem.make(field, n_vars, polys, tags=[tag for tag, _ in tagged])
    canonical = "\n".join(f"{tag} {format_poly(f)}" for tag, f in zip(F.tags, F.polys))
    return F, {"kind": "system", "sha256": _fingerprint(canonical)}


def build_system(args: argparse.Namespace, default_preprocess: bool) -> Tuple[PolySystem, Optional[Graph], dict, bool]:
    """Produce the polynomial system from exactly one input source.

    Returns (system, graph or None, input fingerprint, is-coloring-encoding).
    """
    sources = [s for s in (args.gen, args.input, args.system) if s]
    if len(sources) != 1:
        raise CliError("exactly one of --gen, --input, --system is required")
    if args.system:
        F, meta = load_system_file(args.system, args.p)
        return F, None, meta, False
    graph, meta = load_graph(args)
    preprocess = args.preprocess if args.preprocess is not None else default_preprocess
    opts = EncodingOptions(
        k=args.k, field=FieldSpec(args.p), preprocess=preprocess, cutters=args.cutters
    )
    F = encode_coloring(graph, opts, origin=args.origin)
    return F, graph, meta, True


def build_targets(args: argparse.Namespace, field: FieldSpec, n_vars: int) -> Optional[List[Polynomial]]:
    if args.alt_g == "none":
        return None
    if args.alt_g.startswith("auto:"):
        digits = args.alt_g[len("auto:"):]
        if not digits.isdigit() or int(digits) < 1:
            raise CliError(f"bad --alt-g {args.alt_g!r}: expected auto:<positive degree>")
        candidates = alt_g_candidates(n_vars, int(digits))
        return [Polynomial.one(field, n_vars)] + [
            Polynomial.from_monomial(m, field) for m in candidates
        ]
    mono = parse_monomial(args.alt_g, n_vars)
    return [Polynomial.from_monomial(mono, field)]


def _parse_schedule(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"bad --schedule {text!r}: expected comma-separated integers") from None


def build_schedule(args: argparse.Namespace, coloring: bool, pruning: str) -> List[int]:
    if args.max_degree < 1:
        raise CliError("--max-degree must be >= 1")
    if coloring and pruning.startswith("graded:"):
        # under the mod-k grading only multiplier degrees == 1 mod k add columns
        return [d for d in range(1, args.max_degree + 1) if d % args.k == 1 % args.k]
    return list(range(1, args.max_degree + 1))


def _validate_prove_flags(args: argparse.Namespace) -> None:
    if args.symmetry:
        if args.preprocess is True and not args.force:
            raise CliError(
                "--symmetry with --preprocess usually breaks invariance "
                "(preprocessing singles out one vertex); pass --force to combine them"
            )
        if args.alt_g != "none":
            raise CliError("--alt-g is not supported together with --symmetry")


def cmd_prove(args: argparse.Namespace) -> int:
    explicit_schedule = _parse_schedule(args.schedule)
    _validate_prove_flags(args)
    F, graph, meta, coloring = build_system(args, default_preprocess=not args.symmetry)
    pruning = args.pruning or (f"graded:{args.k}" if coloring else "occurring")
    schedule = explicit_schedule or build_schedule(args, coloring, pruning)
    perms = None
    if args.symmetry:
        with open(args.symmetry) as fh:
            perms = parse_generators(fh.read(), F.n_vars)
    out = nulla_prove(
        F,
        schedule,
        build_targets(args, F.field, F.n_vars),
        pruning=pruning,
        memory_budget=args.memory_budget,
        provenance={"input": meta},
        perms=perms,
        fallback_full=args.fallback_full,
    )
    for ds in out.per_degree:
        print(
            f"degree={ds.degree} rows={ds.rows} cols={ds.cols} "
            f"nnz={ds.nnz} status={ds.status} millis={ds.millis}"
        )
    if out.orbit_inconclusive:
        print(
            "note: group order unknown or shares a factor with the field "
            "characteristic; an inconsistent orbit system is not conclusive"
        )
    if out.verdict != "infeasible":
        print(f"no certificate up to degree {out.degree}; feasibility not decided")
        return EXIT_NO_CERT
    print("The system of equations F is infeasible.")
    text = write_cert(out.certificate)
    if args.cert_out:
        with open(args.cert_out, "w") as fh:
            fh.write(text)
        print(f"certificate written to {args.cert_out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.cert_path) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cert = read_cert(text)
    except CertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if verify(cert):
        print("certificate verifies: expansion reproduces the target exactly")
        return EXIT_OK
    print("certificate INVALID: expansion does not reproduce the target")
    return EXIT_INVALID


def cmd_stats(args: argparse.Namespace) -> int:
    F, graph, meta, coloring = build_system(args, default_preprocess=True)
    pruning = args.pruning or (f"graded:{args.k}" if coloring else "occurring")
    st = stats(F, args.degree, pruning=pruning, memory_budget=args.memory_budget)
    print(
        f"n_vars={st.n_vars} polys={st.n_polys} monomials={st.monomial_total} "
        f"pruning={pruning}"
    )
    print(
        f"degree={st.degree} predicted_cols={st.predicted_cols} "
        f"predicted_nnz={st.predicted_nnz} rows={st.actual_rows} "
        f"cols={st.actual_cols} nnz={st.actual_nnz}"
    )
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    F, graph, meta, coloring = build_system(args, default_preprocess=False)
    for tag, poly in zip(F.tags, F.polys):
        print(f"{tag} {format_poly(poly)}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    graph, _ = parse_gen_spec(args.gen, args.seed)
    text = write_dimacs(graph)
    if args.out_path:
        with open(args.out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out_path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_input_opts(sp: argparse.ArgumentParser, with_system: bool) -> None:
    sp.add_argument("--input", metavar="FILE", help="DIMACS .col graph file")
    sp.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. complete:4 or random:16,0.27,3")
    if with_system:
        sp.add_argument(
            "--system", metavar="FILE",
            help="generic polynomial system, one 'tag polynomial' per line",
        )
    else:
        sp.set_defaults(system=None)
    sp.add_argument("--p", type=int, default=2, help="field characteristic (prime, default 2)")
    sp.add_argument("--k", type=int, default=3, help="number of colors (default 3)")
    sp.add_argument("--origin", type=int, default=1, help="vertex kept by preprocessing (default 1)")
    sp.add_argument("--seed", type=int, help="seed for random:N,PROB specs without one inline")
    sp.add_argument(
        "--cutters", choices=["none", "triangles", "cliques"], default="none",
        help="append redundant degree-lowering polynomials",
    )
    sp.add_argument(
        "--preprocess", dest="preprocess", action="store_true", default=None,
        help="drop redundant vertex polynomials (default: on for prove/stats, off with --symmetry)",
    )
    sp.add_argument("--no-preprocess", dest="preprocess", action="store_false")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcert",
        description="Linear-algebra infeasibility certificates for polynomial systems over GF(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("prove", help="search for an infeasibility certificate")
    _add_input_opts(pv, with_system=True)
    pv.add_argument("--max-degree", type=int, default=4, help="degree cap (default 4)")
    pv.add_argument("--schedule", help="comma-separated degrees overriding the default schedule")
    pv.add_argument("--pruning", help="none | occurring | graded:<k> (default depends on input)")
    pv.add_argument(
        "--alt-g", default="none",
        help="certificate target: none (g=1) | auto:<degree> | a monomial like x1*x8*x9",
    )
    pv.add_argument("--symmetry", metavar="FILE", help="permutation generators, cycle notation, one per line")
    pv.add_argument("--force", action="store_true", help="allow --symmetry together with --preprocess")
    pv.add_argument(
        "--fallback-full", action="store_true",
        help="solve the full system when an orbit solve is inconclusive",
    )
    pv.add_argument("--cert", dest="cert_out", metavar="FILE", help="write the certificate here (default: stdout)")
    pv.add_argument("--memory-budget", type=int, help="matrix memory cap in bytes")
    pv.set_defaults(run=cmd_prove)

    vf = sub.add_parser("verify", help="check a certificate file by re-expansion")
    vf.add_argument("cert_path", metavar="CERT", help="certificate JSON file")
    vf.set_defaults(run=cmd_verify)

    st = sub.add_parser("stats", help="predicted and actual system sizes")
    _add_input_opts(st, with_system=True)
    st.add_argument("--degree", type=int, default=1)
    st.add_argument("--pruning", help="none | occurring | graded:<k>")
    st.add_argument("--memory-budget", type=int)
    st.set_defaults(run=cmd_stats)

    en = sub.add_parser("encode", help="print the polynomial encoding of a graph")
    _add_input_opts(en, with_system=False)
    en.set_defaults(run=cmd_encode)

    gn = sub.add_parser("gen", help="emit a generated graph as DIMACS")
    gn.add_argument("gen", metavar="SPEC", help="complete:N | wheel:RIM | kneser:T,R | mycielski:K | random:N,PROB[,SEED]")
    gn.add_argument("--out", dest="out_path", metavar="FILE")
    gn.add_argument("--seed", type=int)
    gn.set_defaults(run=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
