import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from deq.fields import (MAX_DIGITS, MAX_LITERAL_CHARS, FunctionField, PrimeField, QQ,
                        UsageError, field_from_header, is_prime, positive_int, read_int)
from oracles import dot, random_value


def test_rationals_basic():
    k = QQ
    assert k.show(k.parse("3/4")) == "3/4"
    assert k.show(k.parse("-6/8")) == "-3/4"
    assert k.add(k.parse("1/3"), k.parse("1/6")) == k.parse("1/2")
    assert k.is_zero(k.sub(k.one, k.one))
    assert k.inv(k.parse("2")) == k.parse("1/2")


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
    assert k.inv(2) == 3  # 2*3 = 6 = 1
    assert k.parse("-1") == 4
    assert k.show(k.parse("12")) == "2"


def test_prime_field_rejects_nonprime():
    with pytest.raises(UsageError):
        PrimeField(6)
    with pytest.raises(UsageError):
        PrimeField(1)


def test_is_prime_agrees_with_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    for p in list(range(-3, 3000)) + list(range(10 ** 9, 10 ** 9 + 200)):
        assert is_prime(p) == trial(p), p
    # strong pseudoprimes to the first bases, Carmichael numbers, and primes
    for p in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 561, 41041, 825265):
        assert not is_prime(p), p
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59, 2 ** 80 - 65):
        assert is_prime(p), p
    assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))
    # the least strong pseudoprime to the bases 2..37 (OEIS A014233, a(12)),
    # caught only by the base 41, and the least one to 2..41, refused
    assert not is_prime(318665857834031151167461)
    with pytest.raises(UsageError, match="too large"):
        is_prime(3317044064679887385961981)
    # up to the bound, against sympy's test: random odd numbers and products
    # (k + 1)(2k + 1), the shape of the pseudoprimes above
    import sympy
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2 ** 64, 3317044064679887385961981) | 1
        k = rng.randrange(2 ** 30, 2 ** 40)
        for m in (n, (k + 1) * (2 * k + 1)):
            assert is_prime(m) == sympy.isprime(m), m
    with pytest.raises(UsageError, match="too large"):
        PrimeField(2 ** 89 - 1)


def test_prime_field_division_by_zero():
    k = PrimeField(3)
    with pytest.raises(UsageError):
        k.inv(k.zero)


def test_field_axioms_random():
    rng = random.Random(11)
    for k in [QQ, PrimeField(7), FunctionField(["t"])]:
        for _ in range(25):
            a, b, c = (random_value(k, rng) for _ in range(3))
            assert k.add(a, b) == k.add(b, a)
            assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
            assert k.add(a, k.neg(a)) == k.zero
            # is_zero and Matrix.mul test truth values: false exactly at zero
            assert bool(a) == (a != k.zero) and not k.add(a, k.neg(a))
            if not k.is_zero(a):
                assert k.mul(a, k.inv(a)) == k.one


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
    assert k.sub(k.mul(k.sub(k.mul(q, q), k.one), k.inv(k.add(q, k.one))),
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
    assert dot(k, [1, 2], [3, 4]) == 1  # 3 + 8 = 11 = 1 mod 5


def sympify_value(k, text):
    """The literal as sympy reads it, the oracle for FunctionField.parse;
    None when sympy's value is not a rational function."""
    import sympy
    try:
        return k.ring.from_sympy(sympy.sympify(text.replace("^", "**"), rational=True))
    except (sympy.SympifyError, ValueError, TypeError, ZeroDivisionError):
        return None


def has_zero_divisor(text):
    """Whether some divisor in the literal, the right side of a / or the base
    of a negative power, is 0 by sympy."""
    import sympy
    for node in ast.walk(ast.parse(text.replace("^", "**"), mode="eval")):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            divisor = node.right
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and ast.literal_eval(node.right) < 0):
            divisor = node.left
        else:
            continue
        if sympy.sympify(ast.unparse(divisor), rational=True) == 0:
            return True
    return False


def _literals():
    atoms = st.sampled_from(["a", "b", "0", "1", "2", "7", "12", "-3", "+5", "00"])
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(st.sampled_from(["-", "+", "(", "- "]), inner).map(
            lambda t: t[0] + t[1] + (")" if t[0] == "(" else "")),
        st.tuples(inner, st.sampled_from([" + ", "-", "*", " / ", "/"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["^0", "^1", "^2", "^3", "^-1", "^(-2)"])).map(
            lambda t: "(%s)%s" % t),
    ), max_leaves=10)


QAB = FunctionField(["a", "b"])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_literals())
def test_parse_agrees_with_sympify(text):
    try:
        got = QAB.parse(text)
    except UsageError as exc:
        # the work bounds run before either route evaluates; a zero divisor
        # is refused even where sympy's infinity cancels out later
        if "division by zero" in str(exc):
            assert has_zero_divisor(text), text
        else:
            assert "too large" in str(exc) or "degree over" in str(exc), (text, exc)
        return
    assert got == sympify_value(QAB, text), text


def test_parse_edge_cases_against_sympify():
    k = QAB
    for text in ["0^0", "(a-a)^0", "(1/0)^0", "a^0", "2/4", "-a^2", "+3", "-0", "00",
                 "--a", "a*-b", "a^-1", "b/2/a", "(a+b)^-3", "12345678901234567890"]:
        assert k.parse(text) == sympify_value(k, text), text
    for text in ["1/0", "a/(a-a)", "0^-1", "(a-a)^-2", "0/0", "1/(1/0)"]:
        with pytest.raises(UsageError, match="division by zero"):
            k.parse(text)
    with pytest.raises(UsageError, match="bad function-field literal"):
        k.parse("007")


def test_read_int_takes_ascii_digits_within_the_bound():
    assert read_int("007", "n") == 7
    assert read_int("-12", "n", signed=True) == -12
    assert read_int("+3", "n", signed=True) == 3
    assert read_int("9" * MAX_DIGITS, "n") == 10 ** MAX_DIGITS - 1
    for text in ["", "+", "-1", "1_0", "\u0661", " 1", "1.0", "0x1", "\u00b2", "\uff11"]:
        with pytest.raises(UsageError, match="bad n"):
            read_int(text, "n")
    with pytest.raises(UsageError, match="bad n"):
        read_int("--1", "n", signed=True)
    with pytest.raises(UsageError, match="over the limit of %d digits" % MAX_DIGITS):
        read_int("9" * (MAX_DIGITS + 1), "n")


def test_long_decimal_literals_and_settings_are_usage_errors():
    """Python refuses to convert more than 4300 digits with a ValueError;
    the digit bound comes first, so these are UsageErrors (exit 2)."""
    for parse in (QQ.parse, PrimeField(7).parse):
        with pytest.raises(UsageError, match="over the limit"):
            parse("5" * 5000)
    with pytest.raises(UsageError, match="over the limit"):
        QQ.parse("1/" + "5" * 5000)
    with pytest.raises(UsageError, match="over the limit"):
        positive_int("DEQ_BUDGET", "1" * 5000)
    with pytest.raises(UsageError, match="over the limit"):
        field_from_header("F " + "1" * 5000)


def test_non_ascii_digits_and_underscores_are_not_numbers():
    for text in ["\u0661", "1_0", "\u0661/2", "1/\u0662", "\uff15"]:
        with pytest.raises(UsageError, match="bad rational literal"):
            QQ.parse(text)
    for text in ["\u0661", "1_0", "-\u0663"]:
        with pytest.raises(UsageError, match="bad integer literal"):
            PrimeField(7).parse(text)
    for text in ["F 1_0_1", "F \u0667", "F +7"]:
        with pytest.raises(UsageError, match="bad prime"):
            field_from_header(text)
    for text in ["1_0", "\u0661\u0660", " 1_0 "]:
        with pytest.raises(UsageError, match="positive integer"):
            positive_int("DEQ_MAX_N", text)


def expanded_text(text):
    """The literal as sympy writes it cancelled and expanded, in the
    literal syntax; None when that is not a rational function or is longer
    than a literal may be."""
    import sympy
    try:
        expr = sympy.cancel(sympy.sympify(text.replace("^", "**"), rational=True))
    except (sympy.SympifyError, ValueError, TypeError, ZeroDivisionError):
        return None
    if expr.has(sympy.nan, sympy.zoo, sympy.oo) or not expr.is_rational_function():
        return None
    num, den = (sympy.expand(part) for part in sympy.fraction(expr))
    out = ("(%s)/(%s)" % (num, den)).replace("**", "^")
    return out if len(out) <= MAX_LITERAL_CHARS else None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_literals())
def test_equal_literals_hash_equal(text):
    """A literal and its expanded sympy form parse to equal values of equal
    hash, and so do the numerators and denominators; both hash as the value
    rebuilt from fresh coefficient dicts."""
    try:
        value = QAB.parse(text)
    except UsageError:
        return
    poly = QAB.polynomials.key
    fresh = QAB.ring.field.raw_new(poly.from_dict(dict(value.numer)),
                                   poly.from_dict(dict(value.denom)))
    assert value == fresh and hash(value) == hash(fresh), text
    assert hash(value.numer) == hash(fresh.numer) and hash(value.denom) == hash(fresh.denom)
    other = expanded_text(text)
    if other is not None:
        twin = QAB.parse(other)
        assert twin == value and hash(twin) == hash(value), (text, other)


def test_powers_hash_as_their_expansions():
    k = QAB
    for left, right in [("(a + b)^2", "a^2 + 2*a*b + b^2"),
                        ("(a + b)^(-2)", "1/(a^2 + 2*a*b + b^2)"),
                        ("(a - 1)^3/(b + 1)^2", "(a^3 - 3*a^2 + 3*a - 1)/(b^2 + 2*b + 1)")]:
        x, y = k.parse(left), k.parse(right)
        assert x == y and hash(x) == hash(y), left
        assert len({x, y}) == 1


def _coefficients(poly):
    return [(monom, str(coeff)) for monom, coeff in poly.terms()]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "div", "inv"]), _literals()),
                min_size=1, max_size=5))
def test_function_field_matches_a_separate_qq_frac_field(chain):
    """Literals and add/sub/mul/div/inv chains of them give the same
    numerator coefficients, denominator coefficients and shown text in
    FunctionField, fractions over Z[a,b], and in Q(a,b) built on its own as
    sympy's QQ.frac_field, which reads each literal through sympy."""
    import sympy
    oracle, k = sympy.QQ.frac_field("a", "b"), QAB

    def both(text):
        try:
            value = k.parse(text)
        except UsageError:
            return None
        expr = sympy.sympify(text.replace("^", "**"), rational=True)
        if expr.has(sympy.nan, sympy.zoo, sympy.oo):
            return None  # 0^0 and (1/0)^0 are 1 in a literal, not in sympy
        return value, oracle.from_sympy(expr)

    ours = theirs = None
    for op, text in chain:
        parsed = both(text)
        if parsed is None:
            continue
        x, y = parsed
        if ours is None:
            ours, theirs = x, y
        elif op == "add":
            ours, theirs = k.add(ours, x), theirs + y
        elif op == "sub":
            ours, theirs = k.sub(ours, x), theirs - y
        elif op == "mul":
            ours, theirs = k.mul(ours, x), theirs * y
        elif op == "div" and not k.is_zero(x):
            ours, theirs = k.mul(ours, k.inv(x)), theirs / y
        elif op == "inv" and not k.is_zero(ours):
            ours, theirs = k.inv(ours), 1 / theirs
        assert _coefficients(ours.numer) == _coefficients(theirs.numer), chain
        assert _coefficients(ours.denom) == _coefficients(theirs.denom), chain
        assert k.show(ours) == str(theirs).replace("**", "^"), chain
