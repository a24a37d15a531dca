"""End-to-end checks of the command-line interface.

Everything drives nullcert.cli.main(argv) directly so exit codes and
stdout/stderr can be asserted without spawning subprocesses.
"""

import argparse
import hashlib
import json
import re
import tracemalloc

import pytest

import nullcert.assemble as asm
from helpers import GF3_DEGREE3, expanded
import nullcert.cli as cli
import nullcert.graphs as graphs
from nullcert.certificate import CertificateError, read_cert, verify
from nullcert.cli import main
from nullcert.graphs import parse_dimacs
from nullcert.poly import FieldSpec, PolyParseError, Polynomial, format_poly, parse_poly
from nullcert.symmetry import SymmetryError, parse_generators


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- prove


def test_prove_k4_hits_at_degree_one(capsys):
    rc, out, err = run(capsys, "prove", "--gen", "complete:4", "--k", "3", "--p", "2")
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("degree=1 rows=21 cols=25 ")
    assert "status=consistent" in first
    assert "The system of equations F is infeasible." in out
    assert err == ""


def test_prove_k3_exhausts_schedule(capsys):
    rc, out, err = run(
        capsys, "prove", "--gen", "complete:3", "--k", "3", "--p", "2", "--max-degree", "4"
    )
    assert rc == 10
    lines = out.splitlines()
    # graded schedule for k=3 visits degrees 1 and 4 only
    assert lines[0].startswith("degree=1 ")
    assert lines[1].startswith("degree=4 ")
    assert "status=inconsistent" in lines[0]
    assert lines[-1] == "no certificate up to degree 4; feasibility not decided"


# perfbench/run.py reads each stats line with fullmatch on this pattern, so
# a field added to the line would turn every benchmark prove into a failure
STATS_LINE = re.compile(
    r"degree=\d+ rows=\d+ cols=\d+ nnz=\d+ status=(consistent|inconsistent) millis=\d+"
)


def test_stats_line_format(tmp_path, capsys):
    swap = tmp_path / "swap.txt"
    swap.write_text("(1,2)\n")
    system = tmp_path / "sys.txt"
    system.write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    runs = [
        ("--gen", "complete:4"),
        ("--gen", "complete:3", "--max-degree", "4"),
        ("--gen", "complete:2", "--symmetry", str(swap), "--max-degree", "1"),
        ("--system", str(system), "--p", "3"),
        # a core line at degrees 1 and 4, and G's line at degree 1
        ("--gen", "random:16,0.27,2"),
    ]
    statuses = set()
    for args in runs:
        rc, out, _ = run(capsys, "prove", *args)
        assert rc in (0, 10)
        lines = [l for l in out.splitlines() if l.startswith("degree=")]
        assert lines
        for line in lines:
            m = STATS_LINE.fullmatch(line)
            assert m, line
            statuses.add(m.group(1))
    assert statuses == {"consistent", "inconsistent"}


def test_colorable_graph_exits_10_without_elimination(capsys, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("a proper 3-coloring refutes every degree")

    monkeypatch.setattr(asm, "solve_multi_rhs", no_elimination)
    rc, out, _ = run(capsys, "prove", "--gen", "wheel:4")
    assert rc == 10
    lines = out.splitlines()
    assert [l.split(" millis=")[0] for l in lines[:2]] == [
        "degree=1 rows=36 cols=41 nnz=122 status=inconsistent",
        "degree=4 rows=246 cols=636 nnz=1872 status=inconsistent",
    ]
    assert all(STATS_LINE.fullmatch(l) for l in lines[:2])
    assert lines[2:] == ["no certificate up to degree 4; feasibility not decided"]


def no_assembly(*args, **kwargs):
    raise AssertionError("a degree refuted by a coloring is counted, not assembled")


def test_sweep_graph_refuted_degrees_are_counted(capsys, monkeypatch):
    # random:16,0.27,0 is benchmark sweep16's first graph; these are the
    # sizes of the systems the degrees would assemble
    monkeypatch.setattr(asm, "_assemble", no_assembly)
    rc, out, _ = run(capsys, "prove", "--gen", "random:16,0.27,0")
    assert rc == 10
    lines = out.splitlines()
    assert [l.split(" millis=")[0] for l in lines[:2]] == [
        "degree=1 rows=520 cols=353 nnz=1058 status=inconsistent",
        "degree=4 rows=54917 cols=86441 nnz=258506 status=inconsistent",
    ]
    assert all(STATS_LINE.fullmatch(l) for l in lines[:2])
    assert lines[2:] == ["no certificate up to degree 4; feasibility not decided"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--alt-g", "x1"),
            "error: graded:3 pruning needs target degrees == 0 mod 3; "
            "target has degree-1 monomial\n",
        ),
        (
            ("--memory-budget", "64"),
            "error: predicted working set 288 bytes for a 36 x 41 system "
            "exceeds the 64 byte budget\n",
        ),
    ],
    ids=["graded-target", "budget"],
)
def test_counted_degrees_keep_validation_and_budget(capsys, monkeypatch, argv, message):
    # wheel:4 is 3-colorable, so its degrees are counted, never assembled
    monkeypatch.setattr(asm, "_assemble", no_assembly)
    rc, out, err = run(capsys, "prove", "--gen", "wheel:4", *argv)
    assert (rc, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("--gen", "complete:5", "--k", "5", "--p", "2"),
        ("--gen", "complete:4", "--k", "4", "--p", "3", "--max-degree", "6"),
    ],
    ids=["k5", "k4"],
)
def test_clique_cutters_keep_colorable_graphs_feasible(capsys, argv):
    # K_k is k-colorable, so no certificate may exist at any degree
    rc, out, _ = run(capsys, "prove", *argv, "--cutters", "cliques")
    assert rc == 10
    assert out.splitlines()[-1].startswith("no certificate up to degree")


def test_clique_cutters_rejected_for_two_colors(capsys):
    # each 2-clique cutter x_u+x_v would repeat its edge polynomial
    for command in ("encode", "prove"):
        rc, out, err = run(
            capsys, command, "--gen", "complete:3", "--k", "2", "--p", "3", "--cutters", "cliques"
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_coloring_search_only_for_k3_over_gf2(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("no coloring search expected")

    monkeypatch.setattr(cli, "find_coloring", no_search)
    system = tmp_path / "sys.txt"
    system.write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    assert run(capsys, "prove", "--system", str(system), "--p", "3")[0] == 0
    assert run(capsys, "prove", "--gen", "wheel:4", "--k", "4", "--p", "3")[0] == 10
    assert run(capsys, "prove", "--gen", "complete:2", "--k", "2", "--p", "3")[0] == 10


def test_prove_wheel5_infeasible(capsys):
    rc, out, _ = run(capsys, "prove", "--gen", "wheel:5")
    assert rc == 0
    assert "status=consistent" in out.splitlines()[0]


def test_prove_emits_parseable_certificate_on_stdout(capsys):
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4")
    assert rc == 0
    cert_text = out[out.index("{"):]
    cert = read_cert(cert_text)
    assert verify(cert)
    assert cert.provenance["input"]["spec"] == "complete:4"
    assert cert.provenance["pruning"] == "graded:3"
    assert cert.provenance["symmetry"] is None


def test_prove_custom_schedule_and_origin(capsys):
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--schedule", "1", "--origin", "2"
    )
    assert rc == 0
    cert = read_cert(out[out.index("{"):])
    assert any(e.tag == "vertex:2" for e in cert.entries)


def test_prove_memory_budget_exhausted(capsys):
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--memory-budget", "64")
    assert rc == 2
    assert "error:" in err and "64" in err


def test_budget_refuses_a_system_without_columns(tmp_path, capsys):
    # graded:3 keeps no shift of x1*x2 at degree 0, so the only checks that
    # see the system are on its final counts: one target row, no columns
    path = tmp_path / "sys.txt"
    path.write_text("a x1*x2\n")
    argv = ["--p", "2", "--pruning", "graded:3", "--schedule", "0", "--memory-budget", "0"]
    message = "error: predicted working set 8 bytes for a 1 x 0 system exceeds the 0 byte budget\n"
    assert run(capsys, "prove", "--system", str(path), *argv) == (2, "", message)


# ------------------------------------------------------- cert files


def test_cert_file_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "k4.json"
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--cert", str(cert_path))
    assert rc == 0
    assert f"certificate written to {cert_path}" in out
    rc, out, _ = run(capsys, "verify", str(cert_path))
    assert rc == 0
    assert "verifies" in out


def test_verify_tampered_certificate(tmp_path, capsys):
    cert_path = tmp_path / "k4.json"
    run(capsys, "prove", "--gen", "complete:4", "--cert", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["entries"][1]["beta"] = "x1+x2+x3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    assert "INVALID" in out


def test_verify_unreadable_inputs(tmp_path, capsys):
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"version": 1, "field_p"')
    rc, _, err = run(capsys, "verify", str(trunc))
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize(
    "entries",
    [[], [{"tag": "e1", "f": "x1", "beta": "x1"}, {"tag": "e2", "f": "x1", "beta": "x1"}]],
    ids=["no-entries", "entries-sum-to-zero"],
)
def test_verify_refuses_zero_target(entries, tmp_path, capsys):
    # 0 = 0 holds for any system, so it certifies nothing
    doc = {"version": 1, "field_p": 2, "n_vars": 1, "target": "0", "entries": entries, "provenance": {}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path)) == (2, "", "error: zero target gives a vacuous identity\n")


def test_huge_field_modulus_is_refused(tmp_path, capsys):
    p = str(2**61 - 1)
    cert_path = tmp_path / "k4.json"
    run(capsys, "prove", "--gen", "complete:4", "--cert", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["field_p"] = 2**61 - 1
    cert_path.write_text(json.dumps(doc))
    message = f"error: field modulus must be below 2^31, got {p}\n"
    assert run(capsys, "verify", str(cert_path)) == (2, "", message)
    assert run(capsys, "prove", "--gen", "complete:3", "--k", "2", "--p", p) == (2, "", message)


def test_same_run_writes_identical_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "prove", "--gen", "random:12,0.4,7", "--cert", str(a))
    run(capsys, "prove", "--gen", "random:12,0.4,7", "--cert", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_matches_inline_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "prove", "--gen", "random:12,0.4,7", "--cert", str(a))
    run(capsys, "prove", "--gen", "random:12,0.4", "--seed", "7", "--cert", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- gen


def test_gen_wheel_dimacs(capsys):
    rc, out, _ = run(capsys, "gen", "wheel:5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p edge 6 10"
    assert sum(1 for l in lines if l.startswith("e ")) == 10


def test_gen_to_file_parses_back(tmp_path, capsys):
    out_path = tmp_path / "g.col"
    rc, _, _ = run(capsys, "gen", "kneser:5,2", "--out", str(out_path))
    assert rc == 0
    g = parse_dimacs(out_path.read_text())
    assert g.n_vertices == 10 and len(g.edges) == 15  # Petersen graph


def test_gen_random_is_seeded(capsys):
    _, out1, _ = run(capsys, "gen", "random:8,0.5,3")
    _, out2, _ = run(capsys, "gen", "random:8,0.5,3")
    _, out3, _ = run(capsys, "gen", "random:8,0.5", "--seed", "3")
    assert out1 == out2 == out3


# ------------------------------------------------------------- encode


def test_encode_k4_full_by_default(capsys):
    rc, out, _ = run(capsys, "encode", "--gen", "complete:4")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "vertex:1 x1^3+1"
    assert len(lines) == 10  # 4 vertex + 6 edge rows


def test_encode_preprocess_and_cutters(capsys):
    rc, out, _ = run(capsys, "encode", "--gen", "complete:4", "--preprocess")
    assert rc == 0 and len(out.splitlines()) == 7
    rc, out, _ = run(capsys, "encode", "--gen", "complete:4", "--cutters", "triangles")
    assert rc == 0
    assert "cutter:1-2-3 " in out


def test_dimacs_header_mismatch_is_one_note(tmp_path, capsys):
    _, dimacs, _ = run(capsys, "gen", "complete:4")
    good, bad = tmp_path / "k4.col", tmp_path / "k4-nine.col"
    good.write_text(dimacs)
    bad.write_text(dimacs.replace("p edge 4 6", "p edge 4 9"))
    rc, out, err = run(capsys, "prove", "--input", str(bad))
    assert rc == 0
    assert err == f"note: {bad}: DIMACS header declares 9 edges, found 6 distinct\n"
    assert (rc, out, "") == run(capsys, "prove", "--input", str(good))


def test_encode_from_dimacs_file_matches_gen(tmp_path, capsys):
    _, dimacs, _ = run(capsys, "gen", "complete:3")
    path = tmp_path / "k3.col"
    path.write_text(dimacs)
    _, from_file, _ = run(capsys, "encode", "--input", str(path))
    _, from_gen, _ = run(capsys, "encode", "--gen", "complete:3")
    assert from_file == from_gen


# ------------------------------------------------------------- stats


def test_stats_reports_predicted_and_actual(capsys):
    rc, out, _ = run(capsys, "stats", "--gen", "complete:4", "--degree", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n_vars=4 polys=7 monomials=20 pruning=graded:3"
    fields = dict(part.split("=") for part in lines[1].split())
    assert fields["degree"] == "1"
    assert int(fields["rows"]) == 21 and int(fields["cols"]) == 25
    assert int(fields["cols"]) <= int(fields["predicted_cols"])
    assert int(fields["nnz"]) <= int(fields["predicted_nnz"])
    # the whole line, field order included
    assert lines[1] == "degree=1 predicted_cols=35 predicted_nnz=100 rows=21 cols=25 nnz=74"


def test_stats_counts_without_assembly(capsys, monkeypatch):
    monkeypatch.setattr(asm, "_assemble", no_assembly)
    rc, out, _ = run(capsys, "stats", "--gen", "random:16,0.27,0", "--degree", "4")
    assert rc == 0
    fields = dict(part.split("=") for part in out.splitlines()[1].split())
    assert (fields["rows"], fields["cols"], fields["nnz"]) == ("54917", "86441", "258506")


def test_stats_generic_system(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    rc, out, _ = run(capsys, "stats", "--system", str(path), "--p", "3")
    assert rc == 0
    assert "pruning=occurring" in out.splitlines()[0]
    assert "cols=16" in out.splitlines()[1]


# ------------------------------------------------- generic systems


def test_prove_system_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("# quadric plus three lines over GF(3)\nq x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    cert_path = tmp_path / "c.json"
    rc, out, _ = run(
        capsys, "prove", "--system", str(path), "--p", "3", "--cert", str(cert_path)
    )
    assert rc == 0
    assert "rows=13 cols=16 " in out.splitlines()[0]
    cert = read_cert(cert_path.read_text())
    assert cert.field.p == 3
    assert cert.provenance["input"]["kind"] == "system"
    rc, _, _ = run(capsys, "verify", str(cert_path))
    assert rc == 0


def test_prove_system_with_explicit_target(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("t x1\n")
    rc, out, _ = run(capsys, "prove", "--system", str(path), "--alt-g", "x1")
    assert rc == 0
    cert = read_cert(out[out.index("{"):])
    assert expanded(cert.target.terms[0][0]) == (0,)


def test_budget_refuses_a_degree_before_listing_its_shifts(tmp_path, capsys):
    # 2000 variables, all occurring: degree 2 has about 2*10^6 shifts, each
    # a packed int of 22,000 bits, so listing them alone would take gigabytes
    path = tmp_path / "wide.txt"
    path.write_text("a " + "*".join(f"x{v}" for v in range(1, 2001)) + "+1\n")
    tracemalloc.start()
    try:
        rc, out, err = run(
            capsys, "prove", "--system", str(path), "--memory-budget", "100000000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err.startswith("error: predicted working set ") and err.count("\n") == 1
    assert peak < 64 << 20


def test_wide_system_shifts_only_the_variable_that_occurs(tmp_path, capsys):
    # x2000 is the one variable in the system, so the shifts are its powers
    path = tmp_path / "wide.txt"
    path.write_text("a x2000+1\n")
    rc, out, err = run(capsys, "prove", "--system", str(path), "--max-degree", "2")
    assert (rc, err) == (10, "")
    lines = out.splitlines()
    assert [line.partition(" status=")[0] for line in lines[:2]] == [
        "degree=1 rows=3 cols=2 nnz=4",
        "degree=2 rows=4 cols=3 nnz=6",
    ]
    assert lines[2:] == ["no certificate up to degree 2; feasibility not decided"]


def test_non_decimal_digits_raise_the_module_error(tmp_path, capsys):
    # "\u00b2" passes str.isdigit() but not int(), which would leak a bare
    # ValueError ("invalid literal for int()") past each module's own error
    two = "\u00b2"
    doc = {"version": 1, "field_p": 2, "n_vars": 1, "target": "1",
           "entries": [{"tag": "a", "f": f"x{two}", "beta": "1"}], "provenance": {}}
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    system = tmp_path / "system.txt"
    system.write_text(f"a x{two}+1\n")
    sym = tmp_path / "sym.txt"
    sym.write_text(f"(1,{two})\n")
    k4 = ("prove", "--gen", "complete:4")
    cases = [
        (lambda: read_cert(cert.read_text()), CertificateError, ("verify", str(cert))),
        (lambda: cli.load_system_file(str(system), 2), PolyParseError, ("prove", "--system", str(system))),
        (lambda: parse_generators(sym.read_text(), 4), SymmetryError, (*k4, "--symmetry", str(sym))),
        (lambda: asm.stats(cli.encode_coloring(cli.gen_complete(4), cli.EncodingOptions()), 1, f"graded:{two}"),
         asm.AssembleError, (*k4, "--pruning", f"graded:{two}")),
        (lambda: cli.build_targets(argparse.Namespace(alt_g=f"auto:{two}"), FieldSpec(2), 4), cli.CliError,
         (*k4, "--alt-g", f"auto:{two}")),
    ]
    for call, error, argv in cases:
        with pytest.raises(error) as caught:
            call()
        assert run(capsys, *argv) == (2, "", f"error: {caught.value}\n"), argv
    for text in (f"x{two}", f"{two}*x1", f"x1^{two}"):
        with pytest.raises(PolyParseError, match="bad factor"):
            parse_poly(text, FieldSpec(2), 1)


def test_system_file_errors(tmp_path, capsys):
    missing_text = tmp_path / "a.txt"
    missing_text.write_text("lonely_tag\n")
    rc, _, err = run(capsys, "prove", "--system", str(missing_text))
    assert rc == 2 and "expected 'tag polynomial'" in err
    empty = tmp_path / "b.txt"
    empty.write_text("# nothing here\n")
    rc, _, err = run(capsys, "prove", "--system", str(empty))
    assert rc == 2 and "no polynomials" in err
    bad_poly = tmp_path / "c.txt"
    bad_poly.write_text("t x1^^2\n")
    rc, _, err = run(capsys, "prove", "--system", str(bad_poly))
    assert rc == 2 and "error:" in err


# ------------------------------------------------------------ alt-g


def test_alt_g_auto_still_finds_unit_certificate(capsys):
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--alt-g", "auto:3")
    assert rc == 0
    cert = read_cert(out[out.index("{"):])
    assert cert.target == Polynomial.one(cert.field, cert.n_vars)


def test_alt_g_explicit_monomial_misses(capsys):
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:3", "--alt-g", "x1*x2*x3", "--max-degree", "1"
    )
    assert rc == 10


def test_alt_g_bad_spec(capsys):
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--alt-g", "auto:0")
    assert rc == 2 and "auto:<positive degree>" in err
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--alt-g", "x9")
    assert rc == 2


# --------------------------------------------------------- symmetry


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rot.txt"
    path.write_text("# rotate the outer triangle\n(2,3,4)\n")
    return str(path)


def test_symmetry_prove_full_encoding(rotation_file, tmp_path, capsys):
    cert_path = tmp_path / "sym.json"
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file,
        "--cert", str(cert_path),
    )
    assert rc == 0
    # orbit collapse: full 21x25 system folds to 9 rows x 10 column orbits
    assert out.splitlines()[0].startswith("degree=1 rows=9 cols=10 ")
    rc, _, _ = run(capsys, "verify", str(cert_path))
    assert rc == 0
    cert = read_cert(cert_path.read_text())
    assert cert.provenance["symmetry"] == [[0, 2, 3, 1]]


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.txt"
    path.write_text("(1,2)\n")
    return str(path)


def test_symmetry_preprocess_rejects_moved_origin(swap_file, capsys):
    # the swap moves vertex 1, the one vertex polynomial preprocessing keeps
    rc, _, err = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", swap_file, "--preprocess"
    )
    assert rc == 2
    assert err == "error: system is not invariant: generator 0 maps vertex:1 outside the system\n"


def test_symmetry_preprocess_forced(rotation_file, capsys):
    # the rotation fixes vertex 1, so the preprocessed system stays invariant
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file, "--preprocess",
    )
    assert rc == 0
    assert out.splitlines()[0].startswith("degree=1 rows=9 cols=9 ")


def test_symmetry_rejects_alt_g(rotation_file, capsys):
    # auto:3 also tries x1^2*x2, which the rotation moves
    rc, _, err = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file,
        "--alt-g", "auto:3",
    )
    assert rc == 2 and "not fixed by the group" in err


def test_symmetry_invariant_alt_g(rotation_file, tmp_path, capsys):
    cert_path = tmp_path / "g.json"
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file,
        "--alt-g", "x2*x3*x4", "--cert", str(cert_path),
    )
    assert rc == 0
    cert = read_cert(cert_path.read_text())
    assert verify(cert) and format_poly(cert.target) == "x2*x3*x4"


def test_symmetry_noncoprime_k4_falls_back_to_full(swap_file, tmp_path, capsys):
    # group order 2 equals the characteristic: the orbit system at degree 1
    # is inconsistent, but the full matrix of the same degree certifies
    cert_path = tmp_path / "k4.json"
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", swap_file,
        "--cert", str(cert_path),
    )
    assert rc == 0
    lines = out.splitlines()
    assert [l.split()[0] for l in lines[:2]] == ["degree=1", "degree=1"]
    assert "status=inconsistent" in lines[0] and "status=consistent" in lines[1]
    assert not lines[2].startswith("degree=")
    cert = read_cert(cert_path.read_text())
    assert verify(cert)
    assert cert.provenance["symmetry"] is None


def test_full_system_is_assembled_only_for_an_undecided_orbit_solve(
    rotation_file, swap_file, capsys, monkeypatch
):
    # _assemble is the build of every full system nulla_prove solves
    real, calls = asm._assemble, []

    def counted(F, d, *args, **kwargs):
        calls.append(d)
        return real(F, d, *args, **kwargs)

    monkeypatch.setattr(asm, "_assemble", counted)
    # the rotation's order 3 is coprime to 2: the orbit solve decides alone
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file)
    assert rc == 0 and calls == []
    assert [l.split(" millis=")[0] for l in out.splitlines()[:1]] == [
        "degree=1 rows=9 cols=10 nnz=26 status=consistent"
    ]
    # the swap's order 2 is not: the orbit line, then the full system's,
    # assembled once, after the orbit solve came out inconsistent
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--symmetry", swap_file)
    assert rc == 0 and calls == [1]
    assert [l.split(" millis=")[0] for l in out.splitlines()[:2]] == [
        "degree=1 rows=14 cols=17 nnz=37 status=inconsistent",
        "degree=1 rows=21 cols=28 nnz=80 status=consistent",
    ]


# The least --memory-budget each run passes, and the refusal below it, as
# printed while the orbit system was folded from the assembled full system
@pytest.mark.parametrize(
    "argv, threshold, refusals",
    [
        (
            ("--gen", "complete:4", "--symmetry", "rot.txt"),
            168,
            {0: "32 bytes for a 4 x 28", 56: "168 bytes for a 21 x 28", 167: "168 bytes for a 21 x 28"},
        ),
        (
            ("--gen", "complete:4", "--symmetry", "swap.txt"),
            168,
            {1: "32 bytes for a 4 x 28", 84: "168 bytes for a 21 x 28", 167: "168 bytes for a 21 x 28"},
        ),
        (
            ("--gen", "wheel:7", "--symmetry", "rim7.txt"),
            1824,
            {0: "128 bytes for a 8 x 120", 912: "1824 bytes for a 114 x 120", 1823: "1824 bytes for a 114 x 120"},
        ),
    ],
    ids=["rotation", "swap-fallback", "wheel7-rotation"],
)
def test_symmetry_budget_refuses_where_the_full_system_would(argv, threshold, refusals, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rot.txt").write_text("(2,3,4)\n")
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    (tmp_path / "rim7.txt").write_text("(1,2,3,4,5,6,7)\n")
    for budget, sizes in refusals.items():
        rc, out, err = run(capsys, "prove", *argv, "--memory-budget", str(budget))
        message = f"error: predicted working set {sizes} system exceeds the {budget} byte budget\n"
        assert (rc, out, err) == (2, "", message)
    rc, _, err = run(capsys, "prove", *argv, "--memory-budget", str(threshold))
    assert (rc, err) == (0, "")


def test_symmetry_noncoprime_falls_back(swap_file, capsys):
    # K2 with the swap: a 3-coloring refutes degree 1, so it is counted once
    # at full size and neither the orbit nor the full matrix is solved
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:2", "--symmetry", swap_file,
        "--max-degree", "1",
    )
    assert rc == 10
    assert sum(1 for l in out.splitlines() if l.startswith("degree=1 ")) == 1
    assert "note:" not in out


def test_symmetry_invalid_generator_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("(1,9)\n")
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--symmetry", str(bad))
    assert rc == 2 and "outside" in err


# ------------------------------------------------------- core first


def test_prove_certifies_mycielski9_on_its_core(tmp_path, capsys):
    # G's own degree-1 system is 2,477,931 x 2,784,794; its core's is tiny
    path = tmp_path / "m9.json"
    rc, out, err = run(capsys, "prove", "--gen", "mycielski:9", "--cert", str(path))
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("degree=1 rows=247 cols=221 nnz=662 status=consistent ")
    assert STATS_LINE.fullmatch(lines[0])
    assert run(capsys, "verify", str(path))[0] == 0
    cert = read_cert(path.read_text())
    assert cert.n_vars == 383
    assert len(cert.provenance["core"]["vertices"]) == 11
    assert {e.tag.partition(":")[0] for e in cert.entries} <= {"vertex", "edge"}


@pytest.fixture
def no_core(monkeypatch):
    real = cli.nulla_prove

    def prove(*args, **kwargs):
        assert kwargs["core"] is None
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "nulla_prove", prove)


def without_millis(out):
    return hashlib.sha256(re.sub(r" millis=\d+", "", out).encode()).hexdigest()


# sha256 of prove's stdout, millis removed, as printed before cores existed;
# complete:5's core is the K4 on vertices 1-4
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--symmetry", "rotation.txt"), "e51dd9e0b61664cf67e3ae5515f06d357db17f28ea48c6826d2223f2ed501581"),
        (("--alt-g", "x5^3"), "82ef436ef904036c64f8fd87077757454eb7b0a2ed3dc4f137832598f8d9ef4f"),
    ],
    ids=["symmetry", "alt-g-outside"],
)
def test_skipped_core_keeps_the_whole_graph_output(argv, digest, tmp_path, capsys, no_core, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rotation.txt").write_text("(1,2,3,4,5)\n")
    rc, out, _ = run(capsys, "prove", "--gen", "complete:5", *argv)
    assert rc == 0 and without_millis(out) == digest


# sha256 of prove's stdout, millis removed, for each kind of attempt, as
# printed while core, orbit and full solves each had their own code; the
# degree-3 GF(3) certificate is the one of shift-major columns
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (("--gen", "mycielski:7"), 0, "5e67cf935f34f815518c31aee2d057cff78d0a8ee2a950e7af58477a3ff9e05f"),
        (("--gen", "random:16,0.27,2"), 0, "707ed3607c43ec559c48f2e5af324ea43638a877d39d0b0ebf50076e6008e306"),
        (
            ("--gen", "complete:4", "--no-preprocess", "--symmetry", "swap.txt"),
            0,
            "6ea3142baac44bbf8e693912864c8d52fc4c7a6966adfdc932dfa6d48611762d",
        ),
        (
            ("--gen", "wheel:6", "--symmetry", "rim6.txt"),
            10,
            "cd3e094ef24009a6c3d9345ba3d020938b67e16ee168141568ee32efaeacf47a",
        ),
        (
            ("--gen", "wheel:7", "--symmetry", "rim7.txt"),
            0,
            "73afe63a4ffe0bbe2a9cee3eb68818049ec58768860415aa2e2c4e72e5093ebb",
        ),
        (("--system", "quadric.txt", "--p", "3"), 0, "209fc03945da1dd046626114b2b456620c23fb78b45b9e5c3b73d863d7b229a0"),
        (
            ("--system", "gf3.txt", "--p", "3", "--max-degree", "3"),
            0,
            "f6026f690171261529a4d2a4e06e582d6b8756426cb7697b47aa44334472bdb3",
        ),
    ],
    # core hit at degree 1; core, G, core hit at degree 4; (1,2) has even
    # order, so an inconsistent orbit solve falls back to the full system;
    # wheel:6 is 3-colorable, so a root refutes every degree under the
    # rotation; wheel:7's rotation has odd order, so the orbit solve hits
    ids=["core-hit", "core-G-core", "orbit-then-full", "rotation-refuted", "orbit-hit", "gf3-quadric", "gf3-degree3"],
)
def test_each_attempt_kind_keeps_its_output(argv, code, digest, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    (tmp_path / "rim6.txt").write_text("(1,2,3,4,5,6)\n")
    (tmp_path / "rim7.txt").write_text("(1,2,3,4,5,6,7)\n")
    (tmp_path / "quadric.txt").write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    (tmp_path / "gf3.txt").write_text(GF3_DEGREE3)
    rc, out, _ = run(capsys, "prove", *argv)
    assert rc == code and without_millis(out) == digest


def test_cut_search_or_critical_graph_has_no_core(capsys, no_core, monkeypatch):
    rc, out, _ = run(capsys, "prove", "--gen", "wheel:9")
    assert rc == 0
    assert without_millis(out) == "4b0f47223b6cf89f1a4cfc3f6366a7508e273a7839bcb5d43878b864ad5b5147"
    monkeypatch.setattr(graphs, "COLORING_NODE_BUDGET", 1)
    rc, out, _ = run(capsys, "prove", "--gen", "complete:5")
    assert rc == 0
    assert without_millis(out) == "363f1b3cd6315d09cfa75112e7bc54e569f23f284307a714ac5b1dcc41e04b70"


@pytest.mark.parametrize("budget", [graphs.COLORING_NODE_BUDGET, 1], ids=["refuted", "cut"])
def test_prove_searches_the_graph_once(budget, capsys, monkeypatch):
    real = graphs._dsatur
    sizes = []

    def counted(g, *args):
        sizes.append(g.n_vertices)
        return real(g, *args)

    monkeypatch.setattr(graphs, "_dsatur", counted)
    monkeypatch.setattr(graphs, "COLORING_NODE_BUDGET", budget)
    rc, out, _ = run(capsys, "prove", "--gen", "complete:5")
    assert rc == 0 and sizes.count(5) == 1
    assert ('"core"' in out) == (budget > 1)


def test_core_inside_alt_g_target(capsys):
    rc, out, _ = run(capsys, "prove", "--gen", "complete:5", "--alt-g", "x1^3")
    assert rc == 0
    assert out.startswith("degree=1 rows=21 cols=25 nnz=74 status=consistent ")
    cert = read_cert(out[out.index("{"):])
    assert verify(cert) and cert.n_vars == 5
    assert cert.provenance["core"] == {"vertices": [1, 2, 3, 4], "origin": 1}


# ------------------------------------------------------ usage errors


def test_input_source_is_required_and_exclusive(tmp_path, capsys):
    rc, _, err = run(capsys, "prove")
    assert rc == 2 and "exactly one of" in err
    rc, _, err = run(capsys, "prove", "--gen", "complete:3", "--input", "x.col")
    assert rc == 2 and "exactly one of" in err


def test_unknown_generator_spec(capsys):
    rc, _, err = run(capsys, "gen", "torus:9")
    assert rc == 2 and "unknown generator spec" in err
    rc, _, err = run(capsys, "gen", "random:8")
    assert rc == 2


def test_colors_must_be_coprime_to_field(capsys):
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--k", "2", "--p", "2")
    assert rc == 2 and "relatively prime" in err


def test_bad_schedule_and_cap(rotation_file, capsys):
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--schedule", "1,x")
    assert rc == 2
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--schedule", "2,1")
    assert rc == 2
    # the orbit path validates the schedule the same way
    rc, _, err = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file, "--schedule", "2,1"
    )
    assert rc == 2 and "ascending" in err
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--max-degree", "0")
    assert rc == 2


def test_unknown_pruning_mode(capsys):
    rc, out, err = run(capsys, "prove", "--gen", "complete:4", "--pruning", "none")
    assert rc == 2 and out == ""
    assert err == "error: unknown pruning mode 'none'\n"


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, "prove", "--input", "/nonexistent/g.col")
    assert rc == 2 and "error:" in err


def test_argparse_level_errors(capsys):
    assert main(["prove", "--bogus-flag"]) == 2
    assert main([]) == 2
    assert main(["-h"]) == 0
    capsys.readouterr()
