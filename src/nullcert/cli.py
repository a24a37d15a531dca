"""Command-line front end: prove, verify, stats, encode, and graph generation.

Each subcommand reads its argparse namespace directly; prove checks a
3-coloring as a common root itself (common_root) and hands the search,
symmetry reduction and local columns included, to one nulla_prove call.

A process imports only what its subcommand runs: verify and --help need
argparse and nullcert.certificate (with nullcert.poly) alone; the one
function that hashes imports the interpreter's builtin sha256, not hashlib,
which loads OpenSSL.  The prove stack (assemble, linsolve, encode, graphs
and symmetry) is bound into this module's globals by _load_prover, which
each function that uses it calls first, or by the module __getattr__ when
code outside reads one of its names, e.g. cli.nulla_prove.  Those names are
module globals, not imports local to a function, because
perfbench/tracing.py wraps them on this module and tests monkeypatch them;
the commands look them up there, and _load_prover never replaces a name
that is already bound, so the wrapper or the patch is what runs.

Exit codes: 0 success (prove: infeasibility certified; verify: certificate
valid), 1 verification failure, 2 usage or input errors or memory
exhausted, each with one error: line on stderr, 10 no certificate: none up
to the degree cap (feasibility stays undecided), or none at any degree
because a printed 3-coloring is a common root of F.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, NoReturn, Optional, Sequence, Set, Tuple

from nullcert.certificate import CertificateError, read_cert, verify, write_cert
from nullcert.poly import (
    FieldSpec,
    PolySystem,
    Polynomial,
    format_poly,
    parse_monomial,
    parse_poly,
)


def _prover_names() -> dict:
    from nullcert.assemble import DegreeStats, grading, nulla_prove, stats
    from nullcert.encode import EncodingOptions, alt_g_candidates, common_root, encode_coloring
    from nullcert.graphs import (
        Graph,
        find_coloring,
        find_core,
        gen_complete,
        gen_kneser,
        gen_mycielski,
        gen_random,
        gen_wheel,
        parse_dimacs,
        write_dimacs,
    )
    from nullcert.symmetry import check_invariant, parse_generators

    # unused here, but perfbench/tracing.py wraps these names on this module
    from nullcert.assemble import assemble_orbit, extract_certificate, lift_solution
    from nullcert.linsolve import solve

    return locals()


def _load_prover() -> None:
    """Bind the prove stack's names into this module, keeping any name that
    is already bound (a tracer's wrapper or a test's patch)."""
    names = globals()
    for name, value in _prover_names().items():
        names.setdefault(name, value)


def __getattr__(name: str):
    if not name.startswith("__"):
        _load_prover()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NO_CERT = 10


class CliError(ValueError):
    """Raised for bad flag combinations or malformed specs; maps to exit 2."""


def parse_gen_spec(spec: str, seed: Optional[int]) -> Tuple[Graph, str]:
    """Build a graph from "name:params"; returns (graph, canonical spec)."""
    _load_prover()
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


def _read_text(path: str) -> str:
    """A file's contents decoded as UTF-8; bytes that are not raise CliError
    naming the file and the offset.  The parsers split lines with
    str.splitlines, so line endings need no translation."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _fingerprint(text: str) -> str:
    # the interpreter's own sha256: hashlib's would load OpenSSL
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256
    return sha256(text.encode()).hexdigest()


def load_graph(args: argparse.Namespace) -> Tuple[Graph, dict]:
    _load_prover()
    if args.gen:
        graph, canon = parse_gen_spec(args.gen, args.seed)
        meta = {"kind": "gen", "spec": canon, "sha256": _fingerprint(write_dimacs(graph))}
        return graph, meta
    assert args.input is not None
    text = _read_text(args.input)
    # parse_dimacs warns of a header edge count that disagrees with the
    # edges; the command line says so in one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = parse_dimacs(text)
    for w in caught:
        print(f"note: {args.input}: {w.message}", file=sys.stderr)
    return graph, {"kind": "dimacs", "sha256": _fingerprint(write_dimacs(graph))}


def load_system_file(path: str, p: int) -> Tuple[PolySystem, dict]:
    """Read a generic system: one "tag polynomial" per line, '#' comments."""
    text = _read_text(path)
    tagged: List[Tuple[str, str]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        tag, *poly_text = line.split(None, 1)  # any whitespace, as parse_poly ignores it
        if not poly_text:
            raise CliError(f"{path}:{lineno}: expected 'tag polynomial'")
        tagged.append((tag, poly_text[0]))
    if not tagged:
        raise CliError(f"{path}: no polynomials found")
    n_vars = 0
    for _, poly_text in tagged:
        # parse_poly ignores whitespace anywhere, so "x 3" is x3
        for piece in "".join(poly_text.split()).replace("*", " ").replace("+", " ").replace("-", " ").split():
            if piece.startswith("x"):
                idx = piece[1:].partition("^")[0]
                if idx.isdecimal():
                    n_vars = max(n_vars, int(idx))
    field = FieldSpec(p)
    polys = [parse_poly(t, field, n_vars) for _, t in tagged]
    F = PolySystem.make(field, n_vars, polys, tags=[tag for tag, _ in tagged])
    canonical = "\n".join(f"{tag} {format_poly(f)}" for tag, f in zip(F.tags, F.polys))
    return F, {"kind": "system", "sha256": _fingerprint(canonical)}


def build_system(
    args: argparse.Namespace, default_preprocess: bool
) -> Tuple[PolySystem, Optional[Graph], dict, Optional[EncodingOptions]]:
    """Produce the polynomial system from exactly one input source.

    Returns (system, graph or None, input fingerprint, the coloring
    encoding's options or None for a --system input).
    """
    _load_prover()
    sources = [s for s in (args.gen, args.input, args.system) if s]
    if len(sources) != 1:
        raise CliError("exactly one of --gen, --input, --system is required")
    if args.system:
        F, meta = load_system_file(args.system, args.p)
        return F, None, meta, None
    graph, meta = load_graph(args)
    preprocess = args.preprocess if args.preprocess is not None else default_preprocess
    opts = EncodingOptions(
        k=args.k, field=FieldSpec(args.p), preprocess=preprocess, cutters=args.cutters
    )
    F = encode_coloring(graph, opts, origin=args.origin)
    return F, graph, meta, opts


def build_core(
    graph: Graph,
    opts: EncodingOptions,
    origin: int,
    targets: Optional[List[Polynomial]],
    touched: Optional[Set[int]] = None,
) -> Optional[Tuple[PolySystem, dict]]:
    """nulla_prove's core: the encoding, over the graph's variables, of a
    small induced subgraph that the coloring search proves not k-colorable,
    with its note; or None when there is none or a target uses a vertex
    outside it (sound, but such core attempts add a solve per degree and
    were not seen to hit).  touched is passed to find_core.

    The preprocessing origin is kept if it lies in the core, else it is the
    core's least vertex, so that every core polynomial is one of the
    encoding of the whole graph from that origin.
    """
    _load_prover()
    vertices = find_core(graph, opts.k, touched)
    if vertices is None:
        return None
    inside = set(vertices)
    if any(v + 1 not in inside for g in targets or () for m, _ in g.terms for v, _ in m.exponents):
        return None
    if origin not in inside:
        origin = vertices[0]
    return encode_coloring(graph, opts, origin, vertices), {"vertices": vertices, "origin": origin}


def build_targets(args: argparse.Namespace, field: FieldSpec, n_vars: int) -> Optional[List[Polynomial]]:
    _load_prover()
    if args.alt_g == "none":
        return None
    if args.alt_g.startswith("auto:"):
        digits = args.alt_g[len("auto:"):]
        if not digits.isdecimal() or int(digits) < 1:
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
        schedule = [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"bad --schedule {text!r}: expected comma-separated integers") from None
    # nulla_prove's check, made before a common root can end the request
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 0:
        raise CliError("degree schedule must be ascending and nonnegative")
    return schedule


def build_schedule(args: argparse.Namespace, coloring: bool, k: int) -> range:
    if args.max_degree < 1:
        raise CliError("--max-degree must be >= 1")
    # Under a coloring encoding's grading k, multiplier degrees == 1 mod k
    # add edge and cutter columns, those == 0 mod k add only vertex
    # columns, and the others add none.  A range, not a list, so that a
    # large --max-degree costs no memory.
    return range(1, args.max_degree + 1, k if coloring else 1)


def _print_degree(ds: DegreeStats) -> None:
    """One stats line, printed as its degree ends, so that a later refusal
    does not lose it."""
    print(
        f"degree={ds.degree} rows={ds.rows} cols={ds.cols} "
        f"nnz={ds.nnz} status={ds.status} millis={ds.millis}",
        flush=True,
    )


def cmd_prove(args: argparse.Namespace) -> int:
    _load_prover()
    explicit_schedule = _parse_schedule(args.schedule)
    F, graph, meta, opts = build_system(args, default_preprocess=not args.symmetry)
    coloring = opts is not None
    targets = build_targets(args, F.field, F.n_vars)
    schedule = explicit_schedule or build_schedule(args, coloring, grading(F, targets or ()))
    perms = None
    if args.symmetry:
        perms = parse_generators(_read_text(args.symmetry), F.n_vars)
        # nulla_prove's check, made before a common root can end the request
        check_invariant(F, targets or (), perms)
    # A proper 3-coloring, colors read as cube roots of unity in GF(4), may
    # be a common root of the GF(2) encoding, which rules out every degree.
    # The vertices a refutation touched seed the core, so G is searched once.
    touched = None
    root = None
    if coloring and (args.k, args.p) == (3, 2):
        touched = set()
        root = find_coloring(graph, 3, touched)
        if root is not None and common_root(F, targets, root):
            print("coloring=" + ",".join(map(str, root)))
            print("F has a common root at this coloring, so no certificate exists at any degree")
            return EXIT_NO_CERT
    # A certificate for an induced subgraph is one for the graph.  A
    # colorable graph has no core, and a core need not be invariant under
    # the symmetry group.
    core = None
    if coloring and root is None and perms is None:
        core = build_core(graph, opts, args.origin, targets, touched)
    out = nulla_prove(
        F,
        schedule,
        targets,
        memory_budget=args.memory_budget,
        provenance={"input": meta},
        perms=perms,
        core=core,
        on_degree=_print_degree,
    )
    if out.certificate is None:
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
        text = _read_text(args.cert_path)
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
    _load_prover()
    F, graph, meta, opts = build_system(args, default_preprocess=True)
    st = stats(F, args.degree, memory_budget=args.memory_budget)
    for line in (
        ("n_vars", "polys", "monomials", "pruning"),
        ("degree", "predicted_cols", "predicted_nnz", "rows", "cols", "nnz"),
    ):
        print(" ".join(f"{key}={st[key]}" for key in line))
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    F, graph, meta, opts = build_system(args, default_preprocess=False)
    for tag, poly in zip(F.tags, F.polys):
        print(f"{tag} {format_poly(poly)}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    _load_prover()
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
        "--cutters", choices=["none", "cliques"], default="none",
        help="append redundant degree-lowering polynomials",
    )
    sp.add_argument(
        "--preprocess", dest="preprocess", action="store_true", default=None,
        help="drop redundant vertex polynomials (default: on for prove/stats, off with --symmetry)",
    )
    sp.add_argument("--no-preprocess", dest="preprocess", action="store_false")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise CliError, so that main
    prints them as one error: line, as it does every exit 2; subparsers
    inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nullcert",
        description="Linear-algebra infeasibility certificates for polynomial systems over GF(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("prove", help="search for an infeasibility certificate")
    _add_input_opts(pv, with_system=True)
    pv.add_argument("--max-degree", type=int, default=4, help="degree cap (default 4)")
    pv.add_argument("--schedule", help="comma-separated degrees overriding the default schedule")
    pv.add_argument(
        "--alt-g", default="none",
        help="certificate target: none (g=1) | auto:<degree> | a monomial like x1*x8*x9",
    )
    pv.add_argument("--symmetry", metavar="FILE", help="permutation generators, cycle notation, one per line")
    pv.add_argument("--cert", dest="cert_out", metavar="FILE", help="write the certificate here (default: stdout)")
    pv.add_argument("--memory-budget", type=int, help="matrix memory cap in bytes")
    pv.set_defaults(run=cmd_prove)

    vf = sub.add_parser("verify", help="check a certificate file by re-expansion")
    vf.add_argument("cert_path", metavar="CERT", help="certificate JSON file")
    vf.set_defaults(run=cmd_verify)

    st = sub.add_parser("stats", help="predicted and actual system sizes")
    _add_input_opts(st, with_system=True)
    st.add_argument("--degree", type=int, default=1)
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
    try:
        args = build_arg_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as e:  # -h
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
