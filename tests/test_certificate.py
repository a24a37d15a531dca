"""Certificate verification and serialization tests.

The frozen GF(3) identity below was expanded by hand:
    2*(x1^2+2) + 2*x1*(x1+x2) + 2*x1*(x1+x3) + x1*(x2+x3)
  = 6*x1^2 + 3*x1*x2 + 3*x1*x3 + 4  =  1   (mod 3)
"""

import ast
import pathlib
import random
import tracemalloc

import pytest

import nullcert.certificate as certificate_mod
from helpers import poly_mul, random_poly, verify_by_polynomial
from nullcert.assemble import nulla_prove
from nullcert.certificate import (
    CertEntry,
    Certificate,
    CertificateError,
    read_cert,
    verify,
    write_cert,
)
from nullcert.encode import EncodingOptions, encode_coloring
from nullcert.graphs import gen_complete
from nullcert.poly import FieldSpec, PolySystem, Polynomial, parse_poly


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def p3(text, n=3):
    return parse_poly(text, GF3, n)


def make_gf3_cert():
    return Certificate(
        field=GF3,
        n_vars=3,
        target=p3("1"),
        entries=(
            CertEntry("user:0", p3("x1^2+2"), p3("2")),
            CertEntry("user:1", p3("x1+x2"), p3("2*x1")),
            CertEntry("user:2", p3("x1+x3"), p3("2*x1")),
            CertEntry("user:3", p3("x2+x3"), p3("x1")),
        ),
        provenance={"degree": 1, "pruning": "occurring", "symmetry": None},
    )


def k4_cert():
    F = encode_coloring(gen_complete(4), EncodingOptions(preprocess=True))
    out = nulla_prove(F, [1])
    assert out.certificate is not None
    return out.certificate


def test_trivial_identity_verifies():
    one = Polynomial.one(GF2, 1)
    cert = Certificate(GF2, 1, one, (CertEntry("user:0", one, one),))
    assert verify(cert)


def test_gf3_transcription_verifies():
    assert verify(make_gf3_cert())


def test_gf3_transcription_wrong_multiplier_fails():
    cert = make_gf3_cert()
    broken = Certificate(
        cert.field,
        cert.n_vars,
        cert.target,
        cert.entries[:3] + (CertEntry("user:3", p3("x2+x3"), p3("2*x1")),),
        cert.provenance,
    )
    assert not verify(broken)


def test_perturbed_pipeline_cert_fails():
    cert = k4_cert()
    assert verify(cert)
    entry = cert.entries[-1]
    # flip the coefficient of x1 in one multiplier (0 -> 1 over GF(2))
    terms = dict(entry.multiplier.terms)
    x1 = parse_poly("x1", GF2, cert.n_vars).terms[0][0]
    terms[x1] = (terms.get(x1, 0) + 1) % 2
    perturbed = CertEntry(entry.tag, entry.source, Polynomial.make(GF2, cert.n_vars, terms.items()))
    broken = Certificate(
        cert.field, cert.n_vars, cert.target, cert.entries[:-1] + (perturbed,), cert.provenance
    )
    assert not verify(broken)


def test_verify_agrees_with_the_polynomial_comparison():
    rng = random.Random(24)
    outcomes = set()
    cancelled = 0
    for field in (GF2, GF3):
        for _ in range(150):
            n = rng.randint(1, 4)
            entries = []
            for k in range(rng.randint(1, 4)):
                source, beta = random_poly(rng, field, n, 2), random_poly(rng, field, n, 1)
                if beta.is_zero():
                    continue
                entries.append(CertEntry(f"user:{k}", source, beta))
                if rng.random() < 0.4:
                    # -beta times source plus a little: most of the last
                    # product's terms cancel mod p
                    near = Polynomial.make(field, n, source.terms + random_poly(rng, field, n, 1).terms)
                    minus = Polynomial.make(field, n, [(m, -c) for m, c in beta.terms])
                    entries.append(CertEntry(f"user:{k}", near, minus))
            products = [poly_mul(e.multiplier, e.source) for e in entries]
            expansion = Polynomial.make(field, n, [t for prod in products for t in prod.terms])
            cancelled += sum(len(prod.terms) for prod in products) > len(expansion.terms)
            # the expansion itself, or a target one term away from it, or any
            terms = dict(expansion.terms)
            m = rng.choice(random_poly(rng, field, n, 3).terms or expansion.terms)[0]
            terms[m] = (terms.get(m, 0) + rng.randrange(1, field.p)) % field.p
            nearby = Polynomial.make(field, n, terms.items())
            for target in (expansion, nearby, random_poly(rng, field, n, 2)):
                if target.is_zero():
                    continue
                cert = Certificate(field, n, target, tuple(entries))
                outcome = verify(cert)
                assert outcome == verify_by_polynomial(cert)
                outcomes.add((target == expansion, outcome))
    assert outcomes == {(True, True), (False, False)}
    assert cancelled > 20


def test_empty_entries_verify_false_for_one():
    cert = Certificate(GF3, 2, Polynomial.one(GF3, 2), ())
    assert not verify(cert)
    assert read_cert(write_cert(cert)) == cert


def test_zero_multiplier_rejected():
    with pytest.raises(CertificateError, match="zero multiplier"):
        Certificate(
            GF3, 3, p3("1"), (CertEntry("user:0", p3("x1"), Polynomial.make(GF3, 3, [])),)
        )


def test_field_mismatch_rejected():
    with pytest.raises(CertificateError, match="mismatch"):
        Certificate(
            GF2, 3, p3("1"), (CertEntry("user:0", p3("x1"), p3("1")),)
        )


def test_round_trip_structural_equality():
    for cert in (make_gf3_cert(), k4_cert()):
        text = write_cert(cert)
        assert read_cert(text) == cert
        assert text == write_cert(read_cert(text))


def test_large_exponent_round_trips_in_small_memory():
    # 1*(x1^2000000+x2+1) + 2*(x1^2000000+x2) = 1 over GF(3)
    cert = Certificate(
        GF3,
        2,
        p3("1", 2),
        (
            CertEntry("user:0", p3("x1^2000000+x2+1", 2), p3("1", 2)),
            CertEntry("user:1", p3("x1^2000000+x2", 2), p3("2", 2)),
        ),
    )
    tracemalloc.start()
    try:
        text = write_cert(cert)
        back = read_cert(text)
        verified = verify(back)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == cert and verified
    assert '"f": "x1^2000000+x2+1"' in text
    assert peak < 1 << 20


def test_written_form_is_deterministic():
    a = write_cert(make_gf3_cert())
    b = write_cert(make_gf3_cert())
    assert a == b
    assert a.endswith("\n")
    assert '"version": 1' in a


def test_read_rejects_bad_json_with_location():
    with pytest.raises(CertificateError, match=r"line 1 column"):
        read_cert("{not json")


def test_read_rejects_unknown_top_key():
    text = write_cert(make_gf3_cert()).replace('"provenance"', '"provenances"')
    with pytest.raises(CertificateError, match="unknown field 'provenances'"):
        read_cert(text)


def test_read_rejects_unknown_entry_key():
    text = write_cert(make_gf3_cert()).replace('"beta"', '"gamma"')
    with pytest.raises(CertificateError, match="unknown field 'gamma'"):
        read_cert(text)


def test_read_rejects_wrong_version():
    text = write_cert(make_gf3_cert()).replace('"version": 1', '"version": 2')
    with pytest.raises(CertificateError, match="unsupported certificate version"):
        read_cert(text)


def test_read_rejects_missing_key():
    import json

    doc = json.loads(write_cert(make_gf3_cert()))
    del doc["target"]
    with pytest.raises(CertificateError, match="missing key 'target'"):
        read_cert(json.dumps(doc))


def test_read_rejects_bad_field_p():
    import json

    doc = json.loads(write_cert(make_gf3_cert()))
    doc["field_p"] = 4
    with pytest.raises(CertificateError):
        read_cert(json.dumps(doc))
    doc["field_p"] = "3"
    with pytest.raises(CertificateError, match="field_p"):
        read_cert(json.dumps(doc))


def test_read_rejects_bad_poly_text_with_context():
    import json

    doc = json.loads(write_cert(make_gf3_cert()))
    doc["entries"][1]["beta"] = "x1^"
    with pytest.raises(CertificateError, match="entry 1 beta"):
        read_cert(json.dumps(doc))


def test_read_rejects_non_object_provenance():
    import json

    doc = json.loads(write_cert(make_gf3_cert()))
    doc["provenance"] = [1]
    with pytest.raises(CertificateError, match="provenance"):
        read_cert(json.dumps(doc))


def test_verifier_does_not_import_solver_modules():
    # structural guarantee: verification stays meaningful precisely because
    # it shares no code with the machinery that produced the certificate
    source = pathlib.Path(certificate_mod.__file__).read_text()
    banned = {"linsolve", "assemble", "symmetry", "cli", "encode", "graphs"}
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    for mod in imported:
        parts = set(mod.split("."))
        assert not (parts & banned), f"certificate module imports {mod}"
