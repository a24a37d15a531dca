"""Unit tests for finite-field polynomial arithmetic and monomial order."""

import math
import random
import tracemalloc

import pytest

from helpers import expanded, from_vars, monomials_up_to, poly_eval, poly_mul, random_poly
from nullcert.poly import (
    FieldSpec,
    Monomial,
    Polynomial,
    PolySystem,
    PolyError,
    PolyParseError,
    format_monomial,
    format_poly,
    parse_monomial,
    parse_poly,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


class TestFieldSpec:
    def test_prime_validation(self):
        for bad in (0, 1, 4, 6, 9, -3):
            with pytest.raises(PolyError):
                FieldSpec(bad)
        for good in (2, 3, 5, 7, 101):
            assert FieldSpec(good).p == good

    def test_modulus_below_2_pow_31(self):
        # trial division would try ~7.6*10^8 odd divisors of 2^61-1
        with pytest.raises(PolyError, match="below 2\\^31"):
            FieldSpec(2**61 - 1)
        assert FieldSpec(2**31 - 1).p == 2**31 - 1


class TestMonomial:
    def test_make_and_from_vars(self):
        m = from_vars((0, 0, 1), 3)
        assert m == Monomial.make([(0, 2), (1, 1)], 3)
        assert m.degree == 3
        assert expanded(m) == (0, 0, 1)

    def test_validation(self):
        with pytest.raises(PolyError):
            Monomial(((0, 0),), 2)  # zero exponent
        with pytest.raises(PolyError):
            Monomial(((1, 1), (0, 1)), 2)  # out of order
        with pytest.raises(PolyError):
            Monomial(((2, 1),), 2)  # index out of range

    def test_graded_lex_order(self):
        got = [format_monomial(m) for m in monomials_up_to(2, 2)]
        assert got == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]

    def test_order_is_total(self):
        ms = monomials_up_to(3, 3)
        assert sorted(ms, key=Monomial.sort_key) == ms
        for a in ms[:10]:
            for b in ms[:10]:
                ka, kb = a.sort_key(), b.sort_key()
                assert (ka < kb) + (kb < ka) + (a == b) == 1

    def test_order_matches_expanded_tuples(self):
        # monomials_up_to lists each degree in expanded-tuple order
        ms = monomials_up_to(4, 4)
        shuffled = ms[:]
        random.Random(5).shuffle(shuffled)
        assert all(a.sort_key() < b.sort_key() for a, b in zip(ms, ms[1:]))
        assert sorted(shuffled, key=Monomial.sort_key) == ms

    def test_mul(self):
        a = from_vars((0,), 2)
        b = from_vars((0, 1), 2)
        assert a.mul(b) == from_vars((0, 0, 1), 2)
        assert a.mul(Monomial.one(2)) == a


class TestPolynomial:
    def test_normalization(self):
        x1 = from_vars((0,), 2)
        p = Polynomial.make(F3, 2, [(x1, 2), (x1, 2)])  # 2+2 = 1 mod 3
        assert dict(p.terms) == {x1: 1}
        q = Polynomial.make(F2, 2, [(x1, 1), (x1, 1)])
        assert q.is_zero() and q.degree == -1

    def test_constructor_checks_and_make_sorts(self):
        # make keys each term once and sorts; the constructor checks the
        # order its caller gives, and both check every term's n_vars
        x1, x2, one = from_vars((0,), 2), from_vars((1,), 2), Monomial.one(2)
        terms = ((x2, 1), (x1, 1), (one, 1))
        with pytest.raises(PolyError, match="out of canonical order"):
            Polynomial(F2, 2, terms)
        with pytest.raises(PolyError, match="out of canonical order"):
            Polynomial(F2, 2, ((x1, 1), (x1, 1)))
        p = Polynomial.make(F2, 2, terms)
        assert p.terms == ((x1, 1), (x2, 1), (one, 1))
        assert Polynomial(F2, 2, p.terms) == p
        for make in (Polynomial, Polynomial.make):
            with pytest.raises(PolyError, match="term n_vars mismatch"):
                make(F2, 3, ((x1, 1),))

    def test_mul_examples(self):
        a = parse_poly("x1^2+x1*x2+x2^2", F2, 2)
        b = parse_poly("x1+x2", F2, 2)
        assert format_poly(poly_mul(a, b)) == "x1^3+x2^3"
        one = Polynomial.one(F2, 2)
        assert poly_mul(one, a) == a
        x1 = parse_poly("x1", F3, 1)
        assert format_poly(poly_mul(x1, x1)) == "x1^2"

    def test_mul_commutative_associative(self):
        rng = random.Random(99)
        for field in (F2, F3):
            for _ in range(60):
                a = random_poly(rng, field, 3, 2)
                b = random_poly(rng, field, 3, 2)
                c = random_poly(rng, field, 3, 2)
                assert poly_mul(a, b) == poly_mul(b, a)
                assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))

    def test_eval_examples(self):
        a = parse_poly("x1^2+x1*x2+x2^2", F2, 2)
        assert poly_eval(a, (1, 1)) == 1
        v = parse_poly("x1^3+1", F2, 1)
        assert poly_eval(v, (1,)) == 0
        with pytest.raises(PolyError):
            poly_eval(a, (1,))

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(5)
        for field in (F2, F3, F5):
            for _ in range(30):
                a = random_poly(rng, field, 3, 2)
                b = random_poly(rng, field, 3, 2)
                pt = tuple(rng.randrange(field.p) for _ in range(3))
                p = field.p
                assert poly_eval(poly_mul(a, b), pt) == poly_eval(a, pt) * poly_eval(b, pt) % p
                a_plus_b = Polynomial.make(field, 3, a.terms + b.terms)
                assert poly_eval(a_plus_b, pt) == (poly_eval(a, pt) + poly_eval(b, pt)) % p

    def test_mismatch_errors(self):
        a = parse_poly("x1", F2, 1)
        b = parse_poly("x1", F2, 2)
        with pytest.raises(PolyError):
            poly_mul(a, b)


class TestMonomialsUpTo:
    def test_counts(self):
        for n, d in ((1, 3), (2, 2), (3, 3), (4, 1), (5, 2)):
            assert len(monomials_up_to(n, d)) == math.comb(n + d, d)

    def test_examples(self):
        assert [format_monomial(m) for m in monomials_up_to(4, 1)] == ["1", "x1", "x2", "x3", "x4"]
        assert [format_monomial(m) for m in monomials_up_to(3, 0)] == ["1"]

    def test_duplicate_free(self):
        ms = monomials_up_to(3, 4)
        assert len(set(ms)) == len(ms)


class TestTextForm:
    def test_format_examples(self):
        assert format_poly(parse_poly("x1^3 + 1", F2, 1)) == "x1^3+1"
        assert format_poly(parse_poly(" x1^2+x1*x2 +x2^2", F2, 2)) == "x1^2+x1*x2+x2^2"
        assert format_poly(Polynomial.make(F2, 2, [])) == "0"
        assert parse_poly(" 0 ", F3, 2) == parse_poly("x1-x1", F3, 2) == Polynomial.make(F3, 2, [])
        assert format_poly(parse_poly("2*x1^2*x2+1", F3, 2)) == "2*x1^2*x2+1"

    def test_minus_maps_to_residue(self):
        assert format_poly(parse_poly("x1^2-1", F3, 1)) == "x1^2+2"
        assert format_poly(parse_poly("-x1", F5, 1)) == "4*x1"

    def test_round_trip(self):
        rng = random.Random(31)
        for field in (F2, F3, F5):
            for _ in range(40):
                a = random_poly(rng, field, 3, 3)
                assert parse_poly(format_poly(a), field, 3) == a

    def test_large_exponent_parses_in_small_memory(self):
        # ordering terms must not build a 2,000,000-entry expanded tuple
        tracemalloc.start()
        try:
            a = parse_poly("x1^2000000+x2+1", F3, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert format_poly(a) == "x1^2000000+x2+1"
        assert peak < 1 << 20

    def test_parse_monomial(self):
        m = parse_monomial("x1*x8*x9", 12)
        assert format_monomial(m) == "x1*x8*x9"
        with pytest.raises(PolyParseError):
            parse_monomial("2*x1", 3)

    def test_parse_errors(self):
        for bad in ("", "x1++x2", "x0", "x3", "y1", "x1^0", "x1*2", "1**x1", "x1^"):
            with pytest.raises(PolyParseError):
                parse_poly(bad, F2, 2)


class TestPolySystem:
    def test_default_tags(self):
        sys_ = PolySystem.make(F2, 1, [parse_poly("x1^3+1", F2, 1)])
        assert sys_.tags == ("user:0",)
        assert len(sys_) == 1

    def test_validation(self):
        p = parse_poly("x1", F2, 1)
        with pytest.raises(PolyError):
            PolySystem.make(F2, 1, [])
        with pytest.raises(PolyError):
            PolySystem.make(F2, 1, [p], tags=["a", "b"])
        with pytest.raises(PolyError):
            PolySystem.make(F3, 1, [p])
