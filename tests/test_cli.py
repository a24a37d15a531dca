"""End-to-end checks of the command-line interface.

Everything but three runs under a resource limit (address space or CPU
time) drives nullcert.cli.main(argv) directly so exit codes and
stdout/stderr can be asserted without spawning subprocesses.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nullcert.assemble as asm
from helpers import GF3_DEGREE3, expanded, spy_local_shifts
import nullcert.cli as cli
import nullcert.graphs as graphs
from nullcert.certificate import CertificateError, read_cert, verify
from nullcert.cli import main
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import parse_dimacs
from nullcert.linsolve import packed_bytes
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


COMMON_ROOT_LINE = "F has a common root at this coloring, so no certificate exists at any degree"


def assert_common_root(graph, rc, out, err):
    """prove's output for a 3-colorable graph: its coloring, checked on the
    edges, and the common-root line; no degree line, nothing on stderr."""
    assert (rc, err) == (10, "")
    first, second = out.splitlines()
    assert first.startswith("coloring=") and second == COMMON_ROOT_LINE
    colors = [int(c) for c in first[len("coloring="):].split(",")]
    assert len(colors) == graph.n_vertices and set(colors) <= {0, 1, 2}
    assert all(colors[u - 1] != colors[v - 1] for u, v in graph.edges)


def test_prove_k3_exhausts_schedule(capsys):
    rc, out, err = run(
        capsys, "prove", "--gen", "complete:3", "--k", "3", "--p", "2", "--max-degree", "4"
    )
    assert_common_root(graphs.gen_complete(3), rc, out, err)


def test_default_schedule_takes_its_grading_from_pruning(capsys):
    # the degree-2 targets of auto:2 grade K5's k=4 encoding by 2, and its
    # edge polynomials then add columns at every odd degree, not only at the
    # degrees == 1 mod k
    rc, out, err = run(
        capsys, "prove", "--gen", "complete:5", "--k", "4", "--p", "3",
        "--alt-g", "auto:2", "--max-degree", "4",
    )
    assert (rc, err) == (10, "")
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["degree=1", "degree=3"]


# perfbench/run.py reads each stats line with fullmatch on this pattern, so
# a field added to the line would turn every benchmark prove into a failure
STATS_LINE = re.compile(
    r"degree=\d+ rows=\d+ cols=\d+ nnz=\d+ status=(consistent|inconsistent) millis=\d+"
)


def test_stats_line_format(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    system.write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    runs = [
        ("--gen", "complete:4"),
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
    rc, out, err = run(capsys, "prove", "--gen", "wheel:4")
    assert_common_root(graphs.gen_wheel(4), rc, out, err)


def no_assembly(*args, **kwargs):
    raise AssertionError("a proper 3-coloring ends the search before any system is built")


def test_sweep_graph_refuted_degrees_are_counted(capsys, monkeypatch):
    # random:16,0.27,0 is benchmark sweep16's first graph
    monkeypatch.setattr(asm, "_assemble", no_assembly)
    monkeypatch.setattr(asm, "_count", no_assembly)
    rc, out, err = run(capsys, "prove", "--gen", "random:16,0.27,0")
    assert_common_root(graphs.gen_random(16, 0.27, 0), rc, out, err)


@pytest.mark.parametrize("seed", [3, 13])
def test_colorable_graph_beyond_the_budget_ends_at_its_root(seed, capsys):
    # counting these graphs' degree-4 systems predicted 18.2 and 23.5 GB,
    # over the default budget, so prove used to refuse them with exit 2
    rc, out, err = run(capsys, "prove", "--gen", f"random:22,0.21,{seed}", "--schedule", "1,4")
    assert_common_root(graphs.gen_random(22, 0.21, seed), rc, out, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        # a degree-1 target leaves the encoding ungraded, and x1 is no root
        (("--alt-g", "x1"), None),
        (("--pruning", "bogus"), "error: unrecognized arguments: --pruning bogus\n"),
        # the budget bounds systems, and a passing coloring builds none
        (("--memory-budget", "64"), None),
    ],
    ids=["graded-target", "pruning", "budget"],
)
def test_counted_degrees_keep_validation_and_budget(capsys, monkeypatch, argv, message):
    # wheel:4 is 3-colorable: the request is checked, then no system is built
    monkeypatch.setattr(asm, "_assemble", no_assembly)
    rc, out, err = run(capsys, "prove", "--gen", "wheel:4", *argv)
    if message is None:
        assert_common_root(graphs.gen_wheel(4), rc, out, err)
    else:
        assert (rc, out) == (2, "") and err.endswith(message)


def test_request_is_checked_before_the_coloring(tmp_path, capsys):
    # wheel:4 is 3-colorable, but a bad schedule or a group the system is
    # not invariant under ends the request first, with one error: line
    (tmp_path / "rim4.txt").write_text("(1,2,3,4)\n")
    refusals = {
        ("--schedule", "2,1"): "error: degree schedule must be ascending and nonnegative\n",
        ("--symmetry", str(tmp_path / "rim4.txt"), "--preprocess"): (
            "error: system is not invariant: generator 0 maps vertex:1 outside the system\n"
        ),
    }
    for argv, message in refusals.items():
        assert run(capsys, "prove", "--gen", "wheel:4", *argv) == (2, "", message)


def test_each_check_still_ends_a_colorable_request_before_its_root(tmp_path, capsys):
    # random:16,0.27,0 ends at its common root; the schedule is worked out
    # only after that, but every check comes first, and in the same order
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    (tmp_path / "open.txt").write_text("(1,2\n")
    refusals = [
        (("--max-degree", "0"), "--max-degree must be >= 1"),
        (("--schedule", "2,1"), "degree schedule must be ascending and nonnegative"),
        (("--schedule", "x"), "bad --schedule 'x': expected comma-separated integers"),
        (("--alt-g", "auto:0"), "bad --alt-g 'auto:0': expected auto:<positive degree>"),
        (("--alt-g", "x99"), "variable x99 outside 1..16 in term 'x99'"),
        (("--symmetry", str(tmp_path / "swap.txt")), "system is not invariant: generator 0 maps edge:1-5 outside the system"),
        (("--symmetry", str(tmp_path / "open.txt")), "line 1: unclosed cycle"),
        (("--max-degree", "0", "--symmetry", str(tmp_path / "open.txt")), "--max-degree must be >= 1"),
    ]
    for argv, message in refusals:
        assert run(capsys, "prove", "--gen", "random:16,0.27,0", *argv) == (2, "", f"error: {message}\n")
    assert run(capsys, "prove", "--gen", "random:16,0.27,0")[0] == 10


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
    # x1^4+x1 is graded by 3 with its terms in class 1, so degree 0 keeps no
    # shift of it, and the only checks that see the system are on its final
    # counts: one target row, no columns
    path = tmp_path / "sys.txt"
    path.write_text("a x1^4+x1\n")
    argv = ["--p", "2", "--schedule", "0", "--memory-budget", "0"]
    message = (
        "error: predicted working set of at least 8 bytes for a system of at least 1 x 0 "
        "exceeds the 0 byte budget\n"
    )
    assert run(capsys, "prove", "--system", str(path), *argv) == (2, "", message)


def test_budget_counts_every_target(capsys):
    # cutters keep degree 1 on every column; wheel:9 with them is 191 x 271
    # for g = 1 (7,640 bytes) and 221 x 271 with the 221 targets of --alt-g
    # auto:3: 8,840 bytes for one rhs, 14,144 for all of them
    assert packed_bytes(191, 271, 2) < packed_bytes(221, 271, 2) < 10000 < packed_bytes(221, 271, 2, 221)
    cliques = ("--gen", "wheel:9", "--cutters", "cliques")
    rc, out, err = run(capsys, "prove", *cliques, "--alt-g", "auto:3")
    assert rc == 0 and out.startswith("degree=1 rows=221 cols=271 ")
    rc, out, err = run(capsys, "prove", *cliques, "--alt-g", "auto:3", "--memory-budget", "10000")
    assert (rc, out) == (2, "")
    assert err.startswith("error: predicted working set of at least ") and err.count("\n") == 1
    rc, out, err = run(capsys, "prove", *cliques, "--memory-budget", "10000")
    assert (rc, err) == (0, "") and out.startswith("degree=1 rows=191 cols=271 ")


# wheel:101 with cutters is built on all of its 25,353 x 30,907 degree-1
# system; the budget trips in the third block of columns, when 11,475 rows
# have been counted
MID_COUNT_REFUSAL = (
    "error: predicted working set of at least 44339400 bytes for a system of at least 11475 x 30907 "
    "exceeds the 40000000 byte budget\n"
)


def test_budget_refusal_mid_count_names_a_lower_bound(capsys):
    cliques = ("--gen", "wheel:101", "--cutters", "cliques")
    assert run(capsys, "prove", *cliques, "--memory-budget", "40000000") == (2, "", MID_COUNT_REFUSAL)
    rc, out, _ = run(capsys, "stats", *cliques, "--degree", "1")
    assert rc == 0 and " rows=25353 cols=30907 " in out
    # stats counts the full system also where prove builds the local one
    rc, out, _ = run(capsys, "stats", "--gen", "wheel:101", "--degree", "1")
    assert rc == 0 and " rows=25353 cols=20605 " in out


def test_stats_and_prove_refuse_alike(capsys):
    # on a system that prove builds in full, both count it in one place, so
    # both refuse at the same block, naming the rows counted so far
    for command in (("prove",), ("stats", "--degree", "1")):
        argv = (*command, "--gen", "wheel:101", "--cutters", "cliques", "--memory-budget", "40000000")
        assert run(capsys, *argv) == (2, "", MID_COUNT_REFUSAL)


def test_degree_lines_are_printed_as_each_degree_ends():
    # random:16,0.27,2 solves its core and G at degree 1, both inconsistent,
    # and the budget then refuses the core at degree 4, the second degree
    # of the schedule
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        rc = main(["prove", "--gen", "random:16,0.27,2", "--memory-budget", "200000"])
    assert rc == 2
    assert re.sub(r" millis=\d+", "", both.getvalue()).splitlines() == [
        "degree=1 rows=74 cols=113 nnz=338 status=inconsistent",
        "degree=1 rows=197 cols=529 nnz=1586 status=inconsistent",
        "error: predicted working set of at least 205504 bytes for a system of at least 338 x 4853 "
        "exceeds the 200000 byte budget",
    ]


def test_wheel601_certifies_on_its_local_columns(tmp_path, capsys):
    # its full degree-1 system, 723,605 columns, is over the default budget;
    # the 6,612 local columns are not
    path = tmp_path / "w601.json"
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "prove", "--gen", "wheel:601", "--cert", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, err) == (0, "")
    assert out.startswith("degree=1 rows=6012 cols=723605 nnz=2170814 status=consistent ")
    assert peak < 50 << 20, peak
    assert run(capsys, "verify", str(path))[0] == 0


def test_wheel601_rotation_certifies_on_its_local_orbits(tmp_path, capsys):
    # the rim rotation's orbits of the 7,213 local columns, not of all
    # 724,206, which the default budget refuses
    rotation, path = tmp_path / "rim601.txt", tmp_path / "w601.json"
    rotation.write_text("(" + ",".join(map(str, range(1, 602))) + ")\n")
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "prove", "--gen", "wheel:601", "--symmetry", str(rotation), "--cert", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, err) == (0, "")
    assert out.startswith("degree=1 rows=12 cols=13 nnz=35 status=consistent ")
    assert peak < 50 << 20, peak
    assert run(capsys, "verify", str(path))[0] == 0


@pytest.mark.parametrize("spec", ["kneser:8,3", "mycielski:7", "mycielski:9"])
def test_local_columns_are_read_off_the_core_alone(spec, tmp_path, capsys, monkeypatch):
    # the core certifies at degree 1, so the whole graph's edges are never
    # walked: mycielski:9 (383 vertices, 7,271 edges) traced 8.7 MB, where
    # listing the whole graph's local shifts as well took 23 MB
    calls = spy_local_shifts(monkeypatch)
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "prove", "--gen", spec, "--cert", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, err) == (0, "") and out.startswith("degree=1 ")
    note = read_cert(path.read_text()).provenance["core"]
    graph = cli.parse_gen_spec(spec, None)[0]
    assert len(note["vertices"]) < graph.n_vertices
    core = encode_coloring(graph, EncodingOptions(preprocess=True), note["origin"], note["vertices"])
    assert [system for system, _ in calls] == [core]
    assert peak < 16 << 20, peak
    assert run(capsys, "verify", str(path))[0] == 0


def rows_of(out):
    """The rows= figure of the first stats or degree line in out."""
    return int(re.search(r" rows=(\d+) ", out).group(1))


def stats_rows(capsys, *argv):
    rc, out, _ = run(capsys, "stats", *argv)
    assert rc == 0
    return rows_of(out)


@pytest.mark.parametrize("spec", ["wheel:9", "kneser:8,3"])
def test_a_system_of_the_encoding_shapes_gets_local_columns(spec, tmp_path, capsys, monkeypatch):
    # an encoding read back through --system is proved on the local columns
    # that --gen reads off the same polynomials, to the same certificate;
    # --gen is run without its core, which --system does not have
    system = tmp_path / "f.txt"
    system.write_text(run(capsys, "encode", "--gen", spec, "--preprocess")[1])
    monkeypatch.setattr(cli, "build_core", lambda *args: None)
    outs, entries = [], []
    for source in (("--system", str(system)), ("--gen", spec)):
        path = tmp_path / "cert.json"
        rc, out, err = run(capsys, "prove", *source, "--cert", str(path))
        assert (rc, err) == (0, "")
        outs.append(out.splitlines()[0].split(" millis=")[0])
        entries.append(read_cert(path.read_text()).entries)
    assert outs[0] == outs[1] and entries[0] == entries[1]
    assert rows_of(outs[0]) < stats_rows(capsys, "--system", str(system), "--degree", "1")


def test_near_misses_of_the_shapes_keep_every_column(tmp_path, capsys, monkeypatch):
    # one polynomial off the shapes, and the system is built on every
    # column: prove counts the rows stats counts.  (x1^2+x1 at the shift x_w
    # gives x_w x1^2, a row that the argument needs to come from edges only)
    calls = spy_local_shifts(monkeypatch)
    text = run(capsys, "encode", "--gen", "wheel:9", "--preprocess")[1]
    edge = next(line for line in text.splitlines() if line.startswith("edge:"))
    (tmp_path / "base").write_text(text)
    misses = {
        "cutter": run(capsys, "encode", "--gen", "wheel:9", "--preprocess", "--cutters", "cliques")[1],
        "repeated-edge": text + "again " + edge.split()[1] + "\n",
        "extra-term": text.replace(edge, edge + "+1"),
        "square": text + "square x1^2+x1\n",
    }
    for name, body in misses.items():
        (tmp_path / name).write_text(body)
    cases = [(("--system", str(tmp_path / name)), "1", [None]) for name in misses]
    cases += [
        (("--gen", "wheel:9", "--k", "4", "--p", "3"), "1", [None]),
        (("--system", str(tmp_path / "cutter"), "--alt-g", "x1"), "1", []),
        (("--gen", "wheel:9", "--p", "5", "--no-preprocess", "--alt-g", "x1*x2*x3"), "1", []),
        (("--system", str(tmp_path / "cutter")), "4", []),
    ]
    for source, degree, local in cases:
        calls.clear()
        rc, out, err = run(capsys, "prove", *source, "--schedule", degree)
        assert rc in (0, 10) and err == "" and [shifts for _, shifts in calls] == local, source
        if "--alt-g" not in source:
            assert rows_of(out) == stats_rows(capsys, *source, "--degree", degree), source
    # the system they miss is built on its local columns
    calls.clear()
    rc, out, _ = run(capsys, "prove", "--system", str(tmp_path / "base"), "--schedule", "1")
    assert rc == 0 and len(calls) == 1 and calls[0][1] is not None
    assert rows_of(out) < stats_rows(capsys, "--system", str(tmp_path / "base"))


def test_many_targets_are_solved_from_their_entries(capsys):
    # wheel:31 with --alt-g auto:3 solves 5,985 targets on a 5,985-row
    # system; one dense vector per target took about 290 MB
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "prove", "--gen", "wheel:31", "--alt-g", "auto:3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, err) == (0, "") and out.startswith("degree=1 rows=5985 cols=1985 ")
    assert peak < 64 << 20, peak


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


def test_verify_refuses_deeply_nested_json(tmp_path, capsys):
    # json.loads gives up on it with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert run(capsys, "verify", str(path)) == (2, "", "error: invalid JSON: nested too deeply\n")


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
    rc, out, _ = run(capsys, "encode", "--gen", "complete:4", "--cutters", "cliques")
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
    assert "pruning=graded:2" in out.splitlines()[0]
    assert "cols=10" in out.splitlines()[1]


# ------------------------------------------------- generic systems


def test_prove_system_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("# quadric plus three lines over GF(3)\nq x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    cert_path = tmp_path / "c.json"
    rc, out, _ = run(
        capsys, "prove", "--system", str(path), "--p", "3", "--cert", str(cert_path)
    )
    assert rc == 0
    assert "rows=7 cols=10 " in out.splitlines()[0]
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
    # a packed int of 22,000 bits, so listing them alone would take gigabytes.
    # The term x1 leaves the system ungraded, so every shift is a column.
    path = tmp_path / "wide.txt"
    path.write_text("a " + "*".join(f"x{v}" for v in range(1, 2001)) + "+x1+1\n")
    tracemalloc.start()
    try:
        rc, out, err = run(
            capsys, "prove", "--system", str(path), "--memory-budget", "100000000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # degree 1 is solved, and its line printed, before degree 2 is refused
    assert rc == 2 and re.sub(r" millis=\d+", "", out) == "degree=1 rows=6002 cols=2001 nnz=6003 status=inconsistent\n"
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


def test_system_file_counts_variables_as_parse_poly_reads_them(tmp_path, capsys):
    # parse_poly ignores whitespace anywhere, so "x 3" is x3: the system has
    # three variables, not two
    spaced, plain = tmp_path / "spaced.txt", tmp_path / "plain.txt"
    spaced.write_text("a x 3 + 1\nb x1+x2\n")
    plain.write_text("a x3+1\nb x1+x2\n")
    F, meta = cli.load_system_file(str(spaced), 3)
    assert (F, meta) == cli.load_system_file(str(plain), 3)
    assert F.n_vars == 3
    rc, out, err = run(capsys, "prove", "--system", str(spaced), "--p", "3")
    assert (rc, err) == (10, "")
    assert without_millis(out) == without_millis(run(capsys, "prove", "--system", str(plain), "--p", "3")[1])


def test_system_file_splits_the_tag_at_any_whitespace(tmp_path, capsys):
    # a tab between tag and polynomial reads as a space does
    tabbed, spaced = tmp_path / "tabbed.txt", tmp_path / "spaced.txt"
    tabbed.write_text("e1\tx1^2+2\ne2 \t x1+x2\ne3 x1+x3\ne4 x2+x3\n")
    spaced.write_text("e1 x1^2+2\ne2 x1+x2\ne3 x1+x3\ne4 x2+x3\n")
    assert cli.load_system_file(str(tabbed), 3) == cli.load_system_file(str(spaced), 3)
    rc, out, err = run(capsys, "prove", "--system", str(tabbed), "--p", "3")
    assert (rc, err) == (0, "")
    assert out.startswith("degree=1 rows=7 cols=10 nnz=20 status=consistent ")


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


def test_degree_one_target_certifies_k4_at_degree_two(tmp_path, capsys):
    # x1 has degree 1, so it leaves K4's encoding ungraded and degree 2 is
    # on the default schedule
    cert_path = tmp_path / "k4-x1.json"
    rc, out, err = run(capsys, "prove", "--gen", "complete:4", "--alt-g", "x1", "--cert", str(cert_path))
    assert (rc, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()[:2]] == ["degree=1", "degree=2"]
    cert = read_cert(cert_path.read_text())
    assert (cert.provenance["degree"], cert.provenance["pruning"]) == (2, "occurring")
    assert run(capsys, "verify", str(cert_path))[0] == 0


def test_alt_g_auto_two_certifies_k4(capsys):
    rc, out, err = run(capsys, "prove", "--gen", "complete:4", "--alt-g", "auto:2")
    assert (rc, err) == (0, "")
    assert verify(read_cert(out[out.index("{"):]))


def test_alt_g_explicit_monomial_misses(capsys):
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:3", "--alt-g", "x1*x2*x3", "--max-degree", "1"
    )
    assert rc == 10


@pytest.mark.parametrize("spec", ["wheel:101", "kneser:8,3"])
def test_alt_g_one_is_the_default_run(spec, tmp_path, capsys):
    # --alt-g 1 spells out the default target, so it takes the same local
    # columns at degree 1: the same degree lines and certificate bytes
    runs = []
    for extra in ((), ("--alt-g", "1")):
        cert_path = tmp_path / f"{len(runs)}.json"
        rc, out, err = run(capsys, "prove", "--gen", spec, *extra, "--cert", str(cert_path))
        assert (rc, err) == (0, "")
        lines = [re.sub(r"millis=\d+", "", line) for line in out.splitlines() if line.startswith("degree=")]
        runs.append((lines, cert_path.read_bytes()))
    assert runs[0] == runs[1] and runs[0][0]


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
    # the swap's orbits of size 2 are divisible by the characteristic: the
    # orbit system at degree 1 is inconsistent, but the full matrix of the
    # same degree certifies
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
    # the rotation's orbits, of sizes 1 and 3, are prime to 2: the orbit
    # solve decides alone
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--symmetry", rotation_file)
    assert rc == 0 and calls == []
    assert [l.split(" millis=")[0] for l in out.splitlines()[:1]] == [
        "degree=1 rows=9 cols=10 nnz=26 status=consistent"
    ]
    # the swap's orbits of size 2 are not: the orbit line, then the full
    # system's, assembled once, after the orbit solve came out inconsistent
    rc, out, _ = run(capsys, "prove", "--gen", "complete:4", "--symmetry", swap_file)
    assert rc == 0 and calls == [1]
    assert [l.split(" millis=")[0] for l in out.splitlines()[:2]] == [
        "degree=1 rows=14 cols=17 nnz=37 status=inconsistent",
        "degree=1 rows=21 cols=28 nnz=80 status=consistent",
    ]


# The least --memory-budget each run passes, and the refusals below it
@pytest.mark.parametrize(
    "argv, threshold, refusals",
    [
        (
            ("--gen", "complete:4", "--symmetry", "rot.txt"),
            168,
            {0: (32, "4 x 28"), 56: (168, "21 x 28"), 167: (168, "21 x 28")},
        ),
        (
            ("--gen", "complete:4", "--symmetry", "swap.txt"),
            168,
            {1: (32, "4 x 28"), 84: (168, "21 x 28"), 167: (168, "21 x 28")},
        ),
        (
            ("--gen", "wheel:7", "--symmetry", "rim7.txt"),
            1152,
            {0: (96, "6 x 85"), 576: (1152, "72 x 85"), 1151: (1152, "72 x 85")},
        ),
    ],
    ids=["rotation", "swap-fallback", "wheel7-rotation"],
)
def test_symmetry_budget_refuses_where_the_full_system_would(argv, threshold, refusals, tmp_path, capsys, monkeypatch):
    # K4's degree-1 columns are all local; wheel:7's orbit walk, like its
    # plain build, is on its 85 local columns of 120
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rot.txt").write_text("(2,3,4)\n")
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    (tmp_path / "rim7.txt").write_text("(1,2,3,4,5,6,7)\n")
    plain = (*argv[:2], "--no-preprocess")
    for budget, (nbytes, shape) in refusals.items():
        message = (
            f"error: predicted working set of at least {nbytes} bytes for a system of at least {shape} "
            f"exceeds the {budget} byte budget\n"
        )
        for command in (argv, plain):
            rc, out, err = run(capsys, "prove", *command, "--memory-budget", str(budget))
            assert (rc, out, err) == (2, "", message), command
    rc, _, err = run(capsys, "prove", *argv, "--memory-budget", str(threshold))
    assert (rc, err) == (0, "")


def test_symmetry_budget_refuses_while_the_rows_are_walked(tmp_path, capsys):
    # each walk is refused at its first check past the rows the budget
    # holds, naming the rows walked so far rather than all of them:
    # wheel:1001's local walk, 10,012 x 12,013, at 5,007 rows, and
    # wheel:101's full walk with cutters, 25,353 x 31,008, at 12,425
    cases = [(1001, (), 4500, 12013, 5007), (101, ("--cutters", "cliques"), 8451, 31008, 12425)]
    for rim, extra, held, cols, walked in cases:
        rotation = tmp_path / f"rim{rim}.txt"
        rotation.write_text("(" + ",".join(map(str, range(1, rim + 1))) + ")\n")
        budget = held * packed_bytes(1, cols, 2)
        argv = ("prove", "--gen", f"wheel:{rim}", *extra, "--symmetry", str(rotation), "--memory-budget", str(budget))
        message = (
            f"error: predicted working set of at least {packed_bytes(walked, cols, 2)} bytes for a system of "
            f"at least {walked} x {cols} exceeds the {budget} byte budget\n"
        )
        assert run(capsys, *argv) == (2, "", message)


def test_orbit_sizes_prime_to_p_decide_alone(tmp_path, capsys):
    # S3 on e1 and e3 + 1 over GF(2): |S3| = 6 is even, but e1 and e3 + 1
    # grade by 3, so the degree-1 system is e3 at the shift 1, whose orbits
    # have size 1, and its inconsistent orbit solve decides alone; at degree
    # 2 the orbit of x1^2*x2 has size 6, and the full system is solved too
    (tmp_path / "s3.txt").write_text("(1,2)\n(1,2,3)\n")
    (tmp_path / "sys.txt").write_text("e1 x1+x2+x3\ne3 x1*x2*x3+1\n")
    rc, out, err = run(
        capsys, "prove", "--system", str(tmp_path / "sys.txt"), "--symmetry", str(tmp_path / "s3.txt"),
        "--max-degree", "2",
    )
    assert (rc, err) == (10, "")
    assert [l.split(" millis=")[0] for l in out.splitlines()] == [
        "degree=1 rows=2 cols=1 nnz=2 status=inconsistent",
        "degree=2 rows=4 cols=3 nnz=6 status=inconsistent",
        "degree=2 rows=11 cols=7 nnz=20 status=inconsistent",
        "no certificate up to degree 2; feasibility not decided",
    ]


def test_symmetric_group_of_k12_runs_in_a_small_address_space(tmp_path):
    # S12, of order 12! = 479,001,600, on K12: the run walks only the orbits
    # of its systems and needs under 20 MB of address space beyond the
    # interpreter's start, where a breadth-first closure of the group fails
    # under any limit up to 192 MB; 128 MB leaves margin on both sides
    (tmp_path / "s12.txt").write_text("(1,2)\n(1,2,3,4,5,6,7,8,9,10,11,12)\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "from nullcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["prove", "--gen", "complete:12", "--symmetry", str(tmp_path / "s12.txt")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [l.split(" millis=")[0] for l in proc.stdout.splitlines()[:3]] == [
        "degree=1 rows=4 cols=3 nnz=3 status=inconsistent",
        "degree=1 rows=365 cols=804 nnz=2400 status=consistent",
        "The system of equations F is infeasible.",
    ]


def test_a_large_max_degree_runs_in_a_small_address_space():
    # K4 certifies at degree 1, so only the first degree of the schedule is
    # run.  With --max-degree 10^7 the run needs about 20 MB of address
    # space, where a schedule built as a list fails under any limit up to
    # 192 MB; 96 MB leaves margin on both sides
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))\n"
        "from nullcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["prove", "--gen", "complete:4", "--max-degree", "10000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("degree=1 rows=21 cols=25 nnz=74 status=consistent ")


def test_a_huge_max_degree_is_checked_in_constant_time():
    # The schedule up to --max-degree 10^9 is a range, checked for order by
    # its step: K4 then certifies at degree 1 in about 0.2 s of CPU time,
    # where checking the schedule pair by pair takes about 20 s; a 5 s CPU
    # limit leaves margin on both sides
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (5, 5))\n"
        "from nullcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["prove", "--gen", "complete:4", "--max-degree", "1000000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("degree=1 rows=21 cols=25 nnz=74 status=consistent ")


def run_limited(argv, limits):
    """main(argv) in a child process under the given resource limits."""
    code = (
        "import resource, sys\n"
        + "".join(f"resource.setrlimit(resource.{name}, ({v}, {v}))\n" for name, v in limits.items())
        + "from nullcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "--gen", "complete:4", "--schedule", "1000000"),
        ("prove", "--gen", "complete:4", "--schedule", "100000000"),
        ("stats", "--gen", "complete:4", "--degree", "100000000"),
        ("prove", "--system", "one-variable.txt", "--schedule", "100000000"),
        ("stats", "--system", "one-variable.txt", "--degree", "100000000"),
    ],
)
def test_a_huge_degree_is_refused_without_a_list_per_degree(argv, tmp_path, monkeypatch):
    # closed-form lower bounds on the degree's rows and columns refuse it
    # first: building the per-degree lists up to 10^6 took 18 s and 207 MB,
    # and up to 10^8 did not end in 100 s.  With one variable every degree
    # has one shift, so the bound counts the kept degrees.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one-variable.txt").write_text("a x1^3+1\nb x1^2+x1+1\n")
    proc = run_limited(argv, {"RLIMIT_AS": 256 << 20, "RLIMIT_CPU": 10})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: predicted working set of at least ") and proc.stderr.count("\n") == 1


def test_a_huge_degree_without_variables_is_laid_out_once(tmp_path):
    # with no variable only the shift 1 exists, so degree 10^8 is degree 0's
    # system, and no list is made per degree
    system = tmp_path / "constant.txt"
    system.write_text("a 1\n")
    proc = run_limited(("prove", "--system", str(system), "--schedule", "100000000"), {"RLIMIT_AS": 256 << 20, "RLIMIT_CPU": 10})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("degree=100000000 rows=1 cols=1 nnz=1 status=consistent ")


def test_symmetry_noncoprime_falls_back(swap_file, capsys):
    # K2 with the swap: a 3-coloring is a common root, so neither the orbit
    # nor the full matrix is built or solved
    rc, out, _ = run(
        capsys, "prove", "--gen", "complete:2", "--symmetry", swap_file,
        "--max-degree", "1",
    )
    assert rc == 10
    assert not any(l.startswith("degree=") for l in out.splitlines())
    assert "note:" not in out


def test_symmetry_maps_repeated_polynomials_copy_to_copy(tmp_path, capsys):
    # (1,2) swaps c and d and fixes a and b, two copies of one polynomial;
    # a + c + d = 1 certifies the system at degree 1
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    system, cert = tmp_path / "sys.txt", tmp_path / "cert.json"
    system.write_text("a x1+x2+1\nb x1+x2+1\nc x1+1\nd x2+1\n")
    argv = ("prove", "--system", str(system), "--symmetry", str(tmp_path / "swap.txt"))
    rc, out, err = run(capsys, *argv, "--cert", str(cert))
    assert (rc, err) == (0, "") and out.startswith("degree=1 ")
    assert run(capsys, "verify", str(cert))[0] == 0
    # x1, x2 = w, w^2 in GF(4) is a common root, so no degree certifies
    system.write_text("a x1+x2+1\nb x1+x2+1\nc x1*x2+1\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (10, "")
    assert out.splitlines()[-1] == "no certificate up to degree 4; feasibility not decided"


def test_symmetry_invalid_generator_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("(1,9)\n")
    rc, _, err = run(capsys, "prove", "--gen", "complete:4", "--symmetry", str(bad))
    assert rc == 2 and "outside" in err


# ------------------------------------------------------- core first


def test_prove_certifies_mycielski9_on_its_core(tmp_path, capsys):
    # G's own degree-1 system is 2,477,931 x 2,784,794; its core's is tiny,
    # 247 x 221, and its local columns reach 132 rows
    path = tmp_path / "m9.json"
    rc, out, err = run(capsys, "prove", "--gen", "mycielski:9", "--cert", str(path))
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("degree=1 rows=132 cols=221 nnz=662 status=consistent ")
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


def split_output(out):
    """prove's stdout as its lines before the certificate, millis removed,
    and the sha256 of the certificate text, or None without one."""
    head, brace, cert = out.partition("{")
    lines = re.sub(r" millis=\d+", "", head).splitlines()
    return lines, hashlib.sha256((brace + cert).encode()).hexdigest() if brace else None


INFEASIBLE = "The system of equations F is infeasible."


# prove's lines, millis removed, and the sha256 of its certificate text, for
# each kind of attempt; the certificates are those printed while core, orbit
# and full solves each had their own code, and while degree 1 was built on
# every column.  The degree-3 GF(3) certificate is the one of shift-major
# columns, rotation-refuted prints the coloring and common-root lines, and
# the quadric is graded by 2: a 7 x 10 system with the certificate of the
# ungraded 13 x 16.  A plain 3-coloring's degree-1 line counts the rows of
# its local columns, and an orbit line is the system of their orbits.
@pytest.mark.parametrize(
    "argv, code, lines, cert",
    [
        (
            ("--gen", "mycielski:7"),
            0,
            ["degree=1 rows=132 cols=221 nnz=662 status=consistent", INFEASIBLE],
            "9a7a37f56478747551bccbeac59a6c5b34601a0a61c0ffefa447ead15dc5cd5b",
        ),
        (
            ("--gen", "random:16,0.27,2"),
            0,
            [
                "degree=1 rows=74 cols=113 nnz=338 status=inconsistent",
                "degree=1 rows=197 cols=529 nnz=1586 status=inconsistent",
                "degree=4 rows=1837 cols=4853 nnz=14438 status=consistent",
                INFEASIBLE,
            ],
            "b999305e8620512cbada4b3de5d5e19dd50d3f594176b162639a17dbbfa9d5ad",
        ),
        (
            ("--gen", "complete:4", "--no-preprocess", "--symmetry", "swap.txt"),
            0,
            [
                "degree=1 rows=14 cols=17 nnz=37 status=inconsistent",
                "degree=1 rows=21 cols=28 nnz=80 status=consistent",
                INFEASIBLE,
            ],
            "9d73b58e307236734bc029113cc0278d8832e6af0dbe1017b6b6420daf75d2ac",
        ),
        (
            ("--gen", "wheel:6", "--symmetry", "rim6.txt"),
            10,
            ["coloring=1,2,1,2,1,2,0", COMMON_ROOT_LINE],
            None,
        ),
        (
            ("--gen", "wheel:7", "--symmetry", "rim7.txt"),
            0,
            ["degree=1 rows=12 cols=13 nnz=35 status=consistent", INFEASIBLE],
            "1f896f1c9b01bd6f2594a75f0afb15d0a13c5c4627e22d569ec3f009cc235b05",
        ),
        (
            ("--gen", "wheel:31", "--symmetry", "rim31.txt"),
            0,
            ["degree=1 rows=12 cols=13 nnz=35 status=consistent", INFEASIBLE],
            "fd241c0eb590d1a41e16047be1916fc2d2caedbf0a2f96898c9fa96680a2af94",
        ),
        (
            ("--system", "quadric.txt", "--p", "3"),
            0,
            ["degree=1 rows=7 cols=10 nnz=20 status=consistent", INFEASIBLE],
            "ce7fecb6615b21d967cbb43ec0d5a192f70266573278f525070453f212b84a5d",
        ),
        (
            ("--system", "gf3.txt", "--p", "3", "--max-degree", "3"),
            0,
            [
                "degree=1 rows=131 cols=90 nnz=270 status=inconsistent",
                "degree=2 rows=451 cols=450 nnz=1350 status=inconsistent",
                "degree=3 rows=1233 cols=1650 nnz=4950 status=consistent",
                INFEASIBLE,
            ],
            "30fa205ad55130daef38872cfc69ae19c3ead90eb148cfa96a6f663e3752310c",
        ),
    ],
    # core hit at degree 1; core, G, core hit at degree 4; (1,2) has even
    # order, so an inconsistent orbit solve falls back to the full system;
    # wheel:6 is 3-colorable, so its coloring ends the search under the
    # rotation before any system is built; wheel:7's rotation has odd
    # order, so the orbit solve hits, as does wheel:31's, whose certificate
    # spans many multi-column orbits
    ids=[
        "core-hit", "core-G-core", "orbit-then-full", "rotation-refuted", "orbit-hit", "orbit-hit-wheel31",
        "gf3-quadric", "gf3-degree3",
    ],
)
def test_each_attempt_kind_keeps_its_output(argv, code, lines, cert, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.txt").write_text("(1,2)\n")
    (tmp_path / "rim6.txt").write_text("(1,2,3,4,5,6)\n")
    (tmp_path / "rim7.txt").write_text("(1,2,3,4,5,6,7)\n")
    (tmp_path / "rim31.txt").write_text("(" + ",".join(map(str, range(1, 32))) + ")\n")
    (tmp_path / "quadric.txt").write_text("q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n")
    (tmp_path / "gf3.txt").write_text(GF3_DEGREE3)
    rc, out, _ = run(capsys, "prove", *argv)
    assert rc == code and split_output(out) == (lines, cert)


def test_cut_search_or_critical_graph_has_no_core(capsys, no_core, monkeypatch):
    rc, out, _ = run(capsys, "prove", "--gen", "wheel:9")
    assert rc == 0
    assert split_output(out) == (
        ["degree=1 rows=92 cols=181 nnz=542 status=consistent", INFEASIBLE],
        "79427c4147c52f4f557385d1c06a02aca5a614afc8e74d77a04e2cf30db17b8b",
    )
    monkeypatch.setattr(graphs, "COLORING_NODE_BUDGET", 1)
    rc, out, _ = run(capsys, "prove", "--gen", "complete:5")
    assert rc == 0
    assert split_output(out) == (
        ["degree=1 rows=36 cols=51 nnz=152 status=consistent", INFEASIBLE],
        "cd32e0184930cc2b1b160117765641bcf4b38069fbef4501fe1a59f7c2f538cb",
    )


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
    # the grading is derived from the input, so no command takes --pruning
    for command in ("prove", "stats"):
        rc, out, err = run(capsys, command, "--gen", "complete:4", "--pruning", "none")
        assert (rc, out) == (2, "")
        assert err == "error: unrecognized arguments: --pruning none\n"


def test_readme_names_exactly_the_parsers_options():
    # every long option of every command is documented under "Command
    # line", and every option named there exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parsers = [cli.build_arg_parser()]
    defined = set()
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            defined.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    assert named == defined


def test_a_parser_built_for_its_argv_parses_it_as_the_full_parser(capsys):
    # main builds only the subcommand argv starts with: every argv parses to
    # the same namespace, or refuses or prints help the same, as with every
    # subcommand built
    argvs = [
        ["prove", "--gen", "complete:4", "--max-degree", "2", "--cert", "c.json"],
        ["prove", "--system", "s.txt", "--p", "3", "--alt-g", "auto:2", "--memory-budget", "9"],
        ["stats", "--input", "g.col", "--degree", "3"],
        ["encode", "--gen", "wheel:5", "--no-preprocess", "--cutters", "cliques"],
        ["gen", "random:8,0.5", "--seed", "3"],
        ["verify", "c.json"], ["verify", "prove"], ["prove", "verify"], ["prove", "--bogus"],
        ["prove", "--max-degree", "x"], ["encode", "--system", "s.txt"], ["verify"], ["gen"],
        [], ["bogus"], ["bogus", "prove"], ["--bogus", "prove"], ["--", "prove"],
        ["-h"], ["-h", "prove"], ["prove", "-h"], ["stats", "--help"], ["gen", "-h"],
    ]
    for argv in argvs:
        outcomes = []
        for parser in (cli.build_arg_parser(), cli.build_arg_parser(argv)):
            try:
                outcome = vars(parser.parse_args(argv))
            except SystemExit as e:
                outcome = ("exit", e.code)
            except cli.CliError as e:
                outcome = ("refused", str(e))
            outcomes.append((outcome, capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv
    for argv, built in ((["verify", "c.json"], ["verify"]), (["-h"], ["prove", "verify", "stats", "encode", "gen"])):
        parser = cli.build_arg_parser(argv)
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == built


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, "prove", "--input", "/nonexistent/g.col")
    assert rc == 2 and "error:" in err


def test_argparse_level_errors(capsys):
    # an argument argparse refuses exits 2 with one error: line, no usage
    for argv in (["prove", "--bogus-flag"], ["prove", "--max-degree", "x"], ["verify"], []):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    rc, out, err = run(capsys, "-h")
    assert rc == 0 and out.startswith("usage: nullcert") and err == ""


def test_memory_error_exits_two_with_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "nulla_prove", exhausted)
    rc, out, err = run(capsys, "prove", "--gen", "complete:4")
    assert (rc, out, err) == (2, "", "error: out of memory\n")
