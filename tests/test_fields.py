import random

import pytest

from deq.fields import (FunctionField, PrimeField, QQ, UsageError,
                        field_from_header)


def test_rationals_basic():
    k = QQ
    assert k.show(k.parse("3/4")) == "3/4"
    assert k.show(k.parse("-6/8")) == "-3/4"
    assert k.add(k.parse("1/3"), k.parse("1/6")) == k.parse("1/2")
    assert k.is_zero(k.sub(k.one, k.one))
    assert k.div(k.one, k.parse("2")) == k.parse("1/2")


def test_rationals_parse_rejects_garbage():
    with pytest.raises(UsageError):
        QQ.parse("1.5")
    with pytest.raises(UsageError):
        QQ.parse("x")


def test_prime_field_arithmetic():
    k = PrimeField(5)
    assert k.coerce(7) == 2
    assert k.add(3, 4) == 2
    assert k.mul(2, 4) == 3
    assert k.neg(2) == 3
    assert k.div(1, 2) == 3  # 2*3 = 6 = 1
    assert k.parse("-1") == 4
    assert k.show(k.parse("12")) == "2"


def test_prime_field_rejects_nonprime():
    with pytest.raises(UsageError):
        PrimeField(6)
    with pytest.raises(UsageError):
        PrimeField(1)


def test_prime_field_division_by_zero():
    k = PrimeField(3)
    with pytest.raises(UsageError):
        k.div(k.one, k.zero)


def test_field_axioms_random():
    rng = random.Random(11)
    for k in [QQ, PrimeField(7), FunctionField(["t"])]:
        for _ in range(25):
            a, b, c = (k.random(rng) for _ in range(3))
            assert k.add(a, b) == k.add(b, a)
            assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
            assert k.add(a, k.neg(a)) == k.zero
            # Matrix.mul skips terms by truth value
            assert bool(a) != k.is_zero(a) and not k.add(a, k.neg(a))
            if not k.is_zero(a):
                assert k.mul(a, k.div(k.one, a)) == k.one


def test_function_field_parse_show_round_trip():
    k = FunctionField(["a", "b", "c"])
    texts = ["a*b - 2*c", "a^2 + 1", "(a + b)/(a - b)", "-c", "3/4"]
    for text in texts:
        v = k.parse(text)
        assert k.parse(k.show(v)) == v


def test_function_field_parse_bounds_work_before_expanding():
    k = FunctionField(["a", "b", "c"])
    a, b = k.gens[0], k.gens[1]
    assert k.parse("((a+1)^4)^4") == (a + 1) ** 16
    assert k.parse("(a+b)^-3") == 1 / (a + b) ** 3
    assert k.parse("(a+b+c+1)^16").numer.degree() == 16
    for text in ["(a+1)^3000", "((a+1)^64)^64", "((a+1)^4)^5", "1/(a+1)^17",
                 "(a^2 + 1)^9", "2^4096", "1+" * 100 + "1"]:
        with pytest.raises(UsageError, match="too large|over the limit"):
            k.parse(text)
    for text in ["a^2^3", "a^(1+1)", "a^b", "a//b"]:
        with pytest.raises(UsageError, match="bad function-field literal"):
            k.parse(text)
    # degree 16 in four variables allows more than MAX_TERMS monomials
    with pytest.raises(UsageError, match="too large"):
        FunctionField(["a", "b", "c", "d"]).parse("(a+b+c+d+1)^16")


def test_function_field_rejects_unknown_symbols():
    k = FunctionField(["a"])
    with pytest.raises(UsageError):
        k.parse("a + d")
    with pytest.raises(UsageError):
        k.parse("import os")
    with pytest.raises(UsageError):
        k.parse("a.__class__")


def test_function_field_gens_and_identity():
    k = FunctionField(["q"])
    (q,) = k.gens
    assert k.show(k.mul(q, q)) == "q^2"
    assert k.sub(k.div(k.sub(k.mul(q, q), k.one), k.add(q, k.one)),
                 k.sub(q, k.one)) == k.zero  # (q^2-1)/(q+1) = q-1


def test_field_headers_round_trip():
    for k in [QQ, PrimeField(13), FunctionField(["a", "b"])]:
        assert field_from_header(k.header()) == k


def test_field_from_header_rejects_malformed():
    for text in ["R", "F x", "F", "QFUN", "Q extra"]:
        with pytest.raises(UsageError):
            field_from_header(text)


def test_sum_and_dot():
    k = PrimeField(5)
    assert k.sum([1, 2, 3]) == 1
    assert k.dot([1, 2], [3, 4]) == 1  # 3 + 8 = 11 = 1 mod 5
