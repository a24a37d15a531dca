"""Infeasibility certificates: data model, verification, serialization.

A certificate asserts the polynomial identity

    target = sum over entries of multiplier_i * source_i

which witnesses that {source_i = 0} has no common solution over the
algebraic closure whenever the target cannot vanish on one.  Verification
re-expands the identity with exact field arithmetic and depends only on the
poly module, never on the solver that produced the certificate.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, Tuple

from nullcert.poly import (
    FieldSpec,
    Monomial,
    PolyError,
    Polynomial,
    Record,
    format_poly,
    parse_poly,
    set_field,
)

CERT_FORMAT_VERSION = 1

_TOP_KEYS = {"version", "field_p", "n_vars", "target", "entries", "provenance"}
_ENTRY_KEYS = {"tag", "f", "beta"}


class CertificateError(ValueError):
    """Raised for malformed certificates or unparseable certificate files."""


class CertEntry(Record):
    """One certificate summand: multiplier * source, labeled by origin tag."""

    __slots__ = ("tag", "source", "multiplier")

    def __init__(self, tag: str, source: Polynomial, multiplier: Polynomial) -> None:
        set_field(self, "tag", tag)
        set_field(self, "source", source)
        set_field(self, "multiplier", multiplier)


class Certificate(Record):
    __slots__ = ("field", "n_vars", "target", "entries", "provenance")

    def __init__(
        self,
        field: FieldSpec,
        n_vars: int,
        target: Polynomial,
        entries: Tuple[CertEntry, ...],
        provenance: Optional[Mapping[str, object]] = None,
    ) -> None:
        set_field(self, "field", field)
        set_field(self, "n_vars", n_vars)
        set_field(self, "target", target)
        set_field(self, "entries", entries)
        set_field(self, "provenance", {} if provenance is None else provenance)
        for pos, e in enumerate(entries):
            if e.multiplier.is_zero():
                raise CertificateError(f"entry {pos} ({e.tag}): zero multiplier")
            for poly in (e.source, e.multiplier):
                if poly.field != field or poly.n_vars != n_vars:
                    raise CertificateError(f"entry {pos} ({e.tag}): field or n_vars mismatch")
        if target.field != field or target.n_vars != n_vars:
            raise CertificateError("target field or n_vars mismatch")
        if target.is_zero():
            raise CertificateError("zero target gives a vacuous identity")


def verify(cert: Certificate) -> bool:
    """Re-expand the certificate identity; true iff it reproduces the target
    term for term.  Exact GF(p) arithmetic throughout."""
    p = cert.field.p
    acc: Dict[Monomial, int] = {}
    for e in cert.entries:
        for mono_m, coeff_m in e.multiplier.terms:
            for mono_s, coeff_s in e.source.terms:
                m = mono_m.mul(mono_s)
                acc[m] = (acc.get(m, 0) + coeff_m * coeff_s) % p
    # Both sides are canonical term maps over one field and n_vars (the
    # Certificate checks the target's), so equal maps are equal polynomials.
    return {m: c for m, c in acc.items() if c} == dict(cert.target.terms)


def write_cert(cert: Certificate) -> str:
    """Serialize to versioned JSON with deterministic key order."""
    doc = {
        "version": CERT_FORMAT_VERSION,
        "field_p": cert.field.p,
        "n_vars": cert.n_vars,
        "target": format_poly(cert.target),
        "entries": [
            {"tag": e.tag, "f": format_poly(e.source), "beta": format_poly(e.multiplier)}
            for e in cert.entries
        ],
        "provenance": dict(cert.provenance),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise CertificateError(f"{where}: missing key {key!r}")
    return doc[key]


def read_cert(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CertificateError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise CertificateError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise CertificateError("certificate document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise CertificateError(f"unknown field {sorted(unknown)[0]!r} in certificate")
    version = _require(doc, "version", "certificate")
    if version != CERT_FORMAT_VERSION:
        raise CertificateError(f"unsupported certificate version {version!r}")
    raw_p = _require(doc, "field_p", "certificate")
    if not isinstance(raw_p, int) or isinstance(raw_p, bool):
        raise CertificateError(f"field_p must be an integer, got {raw_p!r}")
    try:
        field = FieldSpec(raw_p)
    except PolyError as e:
        raise CertificateError(str(e)) from None
    n_vars = _require(doc, "n_vars", "certificate")
    if not isinstance(n_vars, int) or isinstance(n_vars, bool) or n_vars < 0:
        raise CertificateError(f"bad n_vars {n_vars!r}")

    def poly_of(text_val, where):
        if not isinstance(text_val, str):
            raise CertificateError(f"{where}: expected polynomial text")
        try:
            return parse_poly(text_val, field, n_vars)
        except PolyError as e:
            raise CertificateError(f"{where}: {e}") from None

    target = poly_of(_require(doc, "target", "certificate"), "target")
    raw_entries = _require(doc, "entries", "certificate")
    if not isinstance(raw_entries, list):
        raise CertificateError("entries must be a list")
    entries = []
    for pos, raw in enumerate(raw_entries):
        where = f"entry {pos}"
        if not isinstance(raw, dict):
            raise CertificateError(f"{where}: expected an object")
        unknown = set(raw) - _ENTRY_KEYS
        if unknown:
            raise CertificateError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        tag = _require(raw, "tag", where)
        if not isinstance(tag, str):
            raise CertificateError(f"{where}: tag must be a string")
        entries.append(
            CertEntry(
                tag,
                poly_of(_require(raw, "f", where), f"{where} f"),
                poly_of(_require(raw, "beta", where), f"{where} beta"),
            )
        )
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise CertificateError("provenance must be an object")
    return Certificate(field, n_vars, target, tuple(entries), provenance)


__all__ = [
    "CERT_FORMAT_VERSION",
    "Certificate",
    "CertificateError",
    "CertEntry",
    "verify",
    "write_cert",
    "read_cert",
]
