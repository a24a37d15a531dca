"""End-to-end checks of the command-line interface.

Everything drives nullcert.cli.main(argv) directly so exit codes and
stdout/stderr can be asserted without spawning subprocesses.
"""

import json

import pytest

from nullcert.certificate import read_cert, verify
from nullcert.cli import main
from nullcert.graphs import parse_dimacs
from nullcert.poly import Polynomial


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
    assert cert.target.terms[0][0].expanded() == (0,)


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


def test_symmetry_rejects_preprocess_without_force(rotation_file, capsys):
    rc, _, err = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file, "--preprocess"
    )
    assert rc == 2 and "--force" in err


def test_symmetry_preprocess_forced(rotation_file, capsys):
    # the rotation fixes vertex 1, so the preprocessed system stays invariant
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file,
        "--preprocess", "--force",
    )
    assert rc == 0
    assert out.splitlines()[0].startswith("degree=1 rows=9 cols=9 ")


def test_symmetry_rejects_alt_g(rotation_file, capsys):
    rc, _, err = run(
        capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file,
        "--alt-g", "auto:3",
    )
    assert rc == 2 and "--alt-g" in err


def test_symmetry_noncoprime_warns_and_falls_back(tmp_path, capsys):
    # K2 with the swap: group order 2 equals the characteristic, so an
    # inconsistent orbit solve proves nothing and the note must say so
    swap = tmp_path / "swap.txt"
    swap.write_text("(1,2)\n")
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:2", "--symmetry", str(swap),
        "--max-degree", "1",
    )
    assert rc == 10
    assert "not conclusive" in out
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:2", "--symmetry", str(swap),
        "--max-degree", "1", "--fallback-full",
    )
    assert rc == 10
    # fallback prints a second stats line for the uncollapsed solve
    assert sum(1 for l in out.splitlines() if l.startswith("degree=1 ")) == 2


def test_symmetry_invalid_generator_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("(1,9)\n")
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--symmetry", str(bad))
    assert rc == 2 and "outside" in err


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


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, "prove", "--input", "/nonexistent/g.col")
    assert rc == 2 and "error:" in err


def test_argparse_level_errors(capsys):
    assert main(["prove", "--bogus-flag"]) == 2
    assert main([]) == 2
    assert main(["-h"]) == 0
    capsys.readouterr()
