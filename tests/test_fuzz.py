"""Seeded fuzz loops over the input parsers and the command line.

Each loop mutates valid inputs with a fixed-seed random.Random: characters
deleted, inserted, replaced, swapped or duplicated, and the text cut short.
Every mutant must either parse or raise the parsing module's own error;
any other exception fails the test with the input that raised it.
"""

import json
import random
import warnings

import pytest

from helpers import GF3_DEGREE3
from nullcert.assemble import nulla_prove
from nullcert.certificate import CertificateError, read_cert, write_cert
from nullcert.cli import CliError, load_system_file, main
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import GraphError, gen_complete, gen_wheel, parse_dimacs, write_dimacs
from nullcert.poly import FieldSpec, PolyError, PolySystem, parse_monomial, parse_poly
from nullcert.symmetry import SymmetryError, parse_generators

# Pieces inserted or substituted: the grammar's own symbols, numbers too
# large for any field or index, non-ASCII digits, and control characters.
TOKENS = (
    "x", "^", "*", "+", "-", "(", ")", ",", " ", "\n", "\t", "#", "0", "1", "2", "9",
    "99999999999999999999", "-1", "1e9", "x0", "²", "٣", "é", "\x00",
    "p", "e", "c", "edge", '"', "{", "}", "[", "]", ":", "null", "true",
)

QUADRIC = "q x1^2+2\nl1 x1+x2\nl2 x1+x3\nl3 x2+x3\n"


def mutate(rng, text):
    """text with one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(TOKENS) + text[j:]
        elif op == 3:
            text = text[:i] + text[i:j] * 2 + text[j:]
        elif op == 4 and j - i >= 2:
            text = text[:i] + text[j - 1] + text[i + 1:j - 1] + text[i] + text[j:]
        else:
            text = text[:i]
    return text


def fuzz(seed, seeds, parse, errors, n):
    """Parse n mutants of the seeds; returns how many parsed and how many
    were refused with one of errors."""
    rng = random.Random(seed)
    parsed = refused = 0
    for _ in range(n):
        text = mutate(rng, rng.choice(seeds))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse(text)
        except errors:
            refused += 1
        except Exception as e:  # anything else is a parser fault
            raise AssertionError(f"{type(e).__name__} escaped on {text!r}") from e
        else:
            parsed += 1
    return parsed, refused


def certificates():
    """Certificate texts over GF(2) and GF(3), as prove writes them."""
    k4 = nulla_prove(encode_coloring(gen_complete(4), EncodingOptions(preprocess=True)), [1])
    gf3 = FieldSpec(3)
    lines = [line.split()[1] for line in QUADRIC.splitlines()]
    quadric = nulla_prove(PolySystem.make(gf3, 3, [parse_poly(t, gf3, 3) for t in lines]), [1])
    return [write_cert(k4.certificate), write_cert(quadric.certificate)]


def test_fuzz_parse_poly():
    seeds = ["x1^2+2", "2*x2*x5+x2*x4+x3*x8+x3", "-x3^4 - 2*x1 + x9", "x1*x8*x9+1", "0"]
    for seed, p in ((1, 2), (2, 3), (3, 5)):
        parsed, refused = fuzz(seed, seeds, lambda t: parse_poly(t, FieldSpec(p), 9), PolyError, 600)
        assert parsed and refused


def test_fuzz_parse_monomial():
    seeds = ["x1*x8*x9", "x2^3", "x1", "x3^2*x4"]
    parsed, refused = fuzz(4, seeds, lambda t: parse_monomial(t, 9), PolyError, 1000)
    assert parsed and refused


def test_fuzz_parse_dimacs():
    seeds = [write_dimacs(gen_wheel(5)), "c a comment\n" + write_dimacs(gen_complete(4))]
    parsed, refused = fuzz(5, seeds, parse_dimacs, GraphError, 1000)
    assert parsed and refused


def test_fuzz_parse_generators():
    seeds = ["(2,3,4)", "(1,2)(3,4)\n# a comment\n(1,2,3,4,5)", "  ( 2 , 3 )\n\n(5,6)\n"]
    parsed, refused = fuzz(6, seeds, lambda t: parse_generators(t, 6), SymmetryError, 1000)
    assert parsed and refused


def test_fuzz_read_cert():
    seeds = certificates()
    parsed, refused = fuzz(7, seeds, read_cert, CertificateError, 400)
    assert parsed and refused

    # values swapped for other JSON values, so mutants stay JSON and reach
    # the checks past the decoder
    rng = random.Random(8)
    values = [None, True, 0, -1, 2**70, 1.5, "", "x1", "x0+1", "x1^2000000", [], {}, ["x1"], {"f": "1"}]
    docs = [json.loads(text) for text in seeds]
    parsed = refused = 0
    for _ in range(400):
        doc = json.loads(json.dumps(rng.choice(docs)))
        node = doc
        if rng.random() < 0.5 and doc["entries"]:
            node = rng.choice(doc["entries"])
        key = rng.choice(sorted(node) + ["extra"])
        node[key] = rng.choice(values)
        try:
            read_cert(json.dumps(doc))
        except CertificateError:
            refused += 1
        else:
            parsed += 1
    assert parsed and refused


def test_fuzz_load_system_file(tmp_path):
    path = tmp_path / "system.txt"

    def load(text):
        path.write_text(text, encoding="utf-8")
        load_system_file(str(path), 3)

    parsed, refused = fuzz(9, [GF3_DEGREE3, QUADRIC, "# comment\n" + QUADRIC], load, (CliError, PolyError), 400)
    assert parsed and refused


@pytest.mark.parametrize(
    "command, seeds, allowed",
    [
        (["stats", "--degree", "1", "--p", "3", "--system"], [QUADRIC, GF3_DEGREE3], (0, 2)),
        (["encode", "--input"], [write_dimacs(gen_wheel(5))], (0, 2)),
        (["prove", "--gen", "wheel:5", "--symmetry"], ["(1,2,3,4,5)", "(1,5)(2,4)"], (0, 2)),
        # wheel:4 is 3-colorable: a group it accepts ends at the coloring
        (["prove", "--gen", "wheel:4", "--symmetry"], ["(1,2,3,4)", "(1,3)(2,4)"], (2, 10)),
        # many right-hand sides: a mutant may leave no certificate (exit 10)
        (["prove", "--p", "3", "--alt-g", "auto:2", "--system"], [QUADRIC, GF3_DEGREE3], (0, 2, 10)),
        (["verify"], None, (0, 1, 2)),
    ],
    ids=["stats-system", "encode-input", "prove-symmetry", "prove-symmetry-colorable", "prove-alt-g-system", "verify"],
)
def test_fuzz_command_line(command, seeds, allowed, tmp_path, capsys):
    # an exit 2 says one line on stderr; verify may also exit 1 for a
    # certificate that parses but does not reproduce its target
    path = tmp_path / "input.txt"
    seeds = seeds or certificates()
    rng = random.Random(10)
    codes = set()
    for _ in range(20):
        path.write_text(mutate(rng, rng.choice(seeds)), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main([*command, str(path)])
        err = capsys.readouterr().err
        codes.add(rc)
        assert rc in allowed, err
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
    assert 2 in codes


# Byte sequences that are not UTF-8: a byte never used, a lead byte cut
# short or followed by ASCII, a lone continuation byte, an encoded surrogate.
NOT_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")


@pytest.mark.parametrize(
    "command, seeds",
    [
        (["stats", "--degree", "1", "--p", "3", "--system"], [QUADRIC, GF3_DEGREE3]),
        (["encode", "--input"], [write_dimacs(gen_wheel(5))]),
        (["prove", "--gen", "wheel:5", "--symmetry"], ["(1,2,3,4,5)", "(1,5)(2,4)"]),
        (["verify"], None),
    ],
    ids=["stats-system", "encode-input", "prove-symmetry", "verify"],
)
def test_non_utf8_input_names_the_file(command, seeds, tmp_path, capsys):
    path = tmp_path / "input.txt"
    seeds = seeds or certificates()
    rng = random.Random(11)
    for _ in range(10):
        data = rng.choice(seeds).encode()
        i = rng.randrange(len(data) + 1)
        path.write_bytes(data[:i] + rng.choice(NOT_UTF8) + data[i:])
        rc = main([*command, str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {path}: not UTF-8 text (") and err.count("\n") == 1, err
    if command[0] == "stats":
        with pytest.raises(CliError, match="not UTF-8 text"):
            load_system_file(str(path), 3)
