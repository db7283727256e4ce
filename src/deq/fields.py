"""Exact scalar domains: Q, prime fields F_p, and rational function fields Q(vars).

Values are raw objects (Fraction, int residue, sympy FracElement) owned by a
field object that supplies the arithmetic. All representations are canonical,
so equality of values is representation equality. Every decimal integer of an
input, entry or setting is read by `read_int`.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction


class UsageError(ValueError):
    """Bad dimensions, mismatched fields, or invalid arguments."""


class MathError(ValueError):
    """A precondition that is a mathematical verdict failed (e.g. the input
    operator is not a solution); distinct from usage errors for exit codes."""


# The census's default candidate budget, classify's default `limit`; kept
# here so that the command line's help can show it without importing numpy.
DEFAULT_BUDGET = 1_000_000


# The most digits of a decimal integer in any input (read_int): more than
# Q(vars) coefficients may carry (MAX_BITS), and few enough that Python
# converts it (its default limit is 4300 digits).
MAX_DIGITS = 1000


def read_int(text: str, what: str, signed: bool = False) -> int:
    """The decimal integer written in `text`, a `what`: ASCII digits only,
    behind a + or - only when `signed`, and at most MAX_DIGITS of them,
    counted before any conversion. Anything else is a UsageError."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError("bad %s %r" % (what, text))
    if len(digits) > MAX_DIGITS:
        raise UsageError("%s of %d digits is over the limit of %d digits"
                         % (what, len(digits), MAX_DIGITS))
    return int(text)


def positive_int(name: str, value: str) -> int:
    """The positive integer written in `value`, the setting `name`."""
    value = value.strip()
    n = read_int(value, name) if value.isascii() and value.isdigit() else 0
    if n < 1:
        raise UsageError("%s must be a positive integer, got %r" % (name, value))
    return n


# Miller-Rabin with the first thirteen primes, 2..41, as bases decides
# primality exactly below MAX_MODULUS, the least strong pseudoprime to all
# of them (Sorenson and Webster, 2015); larger moduli are refused rather
# than guessed at. The first twelve bases alone are fooled by
# 318665857834031151167461 (OEIS A014233).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p >= MAX_MODULUS:
        raise UsageError("modulus %d is too large: primality is decided below %d"
                         % (p, MAX_MODULUS))
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Common helpers; concrete fields define zero/one and the primitive ops.

    Each field also states its integral form, the values on which plain
    Python + and * compute sums of products (linalg.Matrix.mul):
    `integral(arows, brows)` gives the rows of both factors in integral
    form, the integral zero that sums start from and the denominator of the
    product, and `from_integral(rows, denominator)` turns sums of products
    of integral values, over that denominator, back into field values. By
    default the integral form is the values themselves.
    """

    kind = "abstract"

    def integral(self, arows, brows):
        return arows, brows, self.zero, 1

    def cleared(self, values):
        """(ring, values', d) with each value v = v'/d, v' in ring and d a
        nonzero element of it: the integral form of a whole operator, cleared
        once (tensor_ops). By default the ring is the field itself and d = 1."""
        return self, values, 1

    def from_integral(self, rows, denominator):
        return rows

    def is_zero(self, a) -> bool:
        return not a  # every field's values are false exactly at zero

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def __ne__(self, other):
        return not self.__eq__(other)


class IntegralRing(Field):
    """The ring of an operator's integral form (Field.cleared), on whose
    values plain +, - and * compute: the ints, or the polynomial numerators
    (sympy PolyElement) of Q(vars). In products it is its own integral form,
    the Field default. `key` tells the rings apart: "Z" or the PolyRing."""

    kind = "Z"

    def __init__(self, key, zero, one):
        self.key, self.zero, self.one = key, zero, one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sum(self, values):
        return sum(values, self.zero)

    def __repr__(self):
        return "IntegralRing(%r)" % (self.key,)

    def __eq__(self, other):
        return isinstance(other, IntegralRing) and other.key == self.key

    def __hash__(self):
        return hash(("Z", self.key))


INTEGERS = IntegralRing("Z", 0, 1)


class RationalField(Field):
    """The rationals, values are fractions.Fraction."""

    kind = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a  # Fraction raises ZeroDivisionError on 0

    # Integral form: ints over the lcm of each factor's denominators, so that
    # a sum of products costs no gcd until its one division.
    def integral(self, arows, brows):
        (a, ascale), (b, bscale) = self._cleared(arows), self._cleared(brows)
        return a, b, 0, ascale * bscale

    @staticmethod
    def _cleared(rows):
        scale = math.lcm(*{v.denominator for row in rows for v in row if v})
        return [[v.numerator * (scale // v.denominator) if v else 0 for v in row]
                for row in rows], scale

    def cleared(self, values):
        (values,), scale = self._cleared([values])
        return INTEGERS, values, scale

    def from_integral(self, rows, denominator):
        zero = self.zero
        return [[Fraction(v, denominator) if v else zero for v in row] for row in rows]

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return self.parse(v)
        raise UsageError("not a rational value: %r" % (v,))

    def validate(self, v):
        if not isinstance(v, Fraction):
            raise UsageError("rational entries must be Fraction, got %r" % (v,))
        return v

    def parse(self, text: str):
        text = text.strip()
        # integers and integer quotients only, no decimals
        match = re.fullmatch(r"([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?", text)
        if not match:
            raise UsageError("bad rational literal %r" % text)
        num = read_int(match[1], "rational numerator", signed=True)
        den = read_int(match[2], "rational denominator") if match[2] else 1
        if not den:
            raise UsageError("bad rational literal %r: zero denominator" % text)
        return Fraction(num, den)

    def show(self, v) -> str:
        return str(v)

    def header(self) -> str:
        return "Q"

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p, values are ints in [0, p)."""

    kind = "F"

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError("modulus %r is not prime" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise UsageError("inverse of 0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    # Integral form: the residues themselves, summed unreduced and reduced
    # once per entry.
    def from_integral(self, rows, denominator):
        p = self.p
        return [[v % p for v in row] for row in rows]

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, str):
            return self.parse(v)
        raise UsageError("not an F_%d value: %r" % (self.p, v))

    def validate(self, v):
        if not isinstance(v, int) or not 0 <= v < self.p:
            raise UsageError("F_%d entries must be ints in [0,%d), got %r" % (self.p, self.p, v))
        return v

    def parse(self, text: str):
        return read_int(text.strip(), "integer literal", signed=True) % self.p

    def show(self, v) -> str:
        return str(v)

    def header(self) -> str:
        return "F %d" % self.p

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_LITERAL_CHARS = re.compile(r"^[0-9A-Za-z_+\-*/^() ]*$")

# Work bounds for one Q(vars) literal, enforced before it is evaluated.
MAX_LITERAL_CHARS = 200
MAX_DEGREE = 16    # total degree of the numerator and of the denominator
MAX_TERMS = 1000   # monomials of degree <= MAX_DEGREE in the literal's variables
MAX_BITS = 4096    # size of the coefficients, counted in bits of the integers


def _literal_bounds(node):
    """Upper bounds (numerator degree, denominator degree, coefficient bits)
    of a literal's value, read off its syntax tree without expanding it."""
    if isinstance(node, ast.Name):
        return 1, 0, 1
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return 0, 0, max(1, node.value.bit_length())
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _literal_bounds(node.operand)
    if not isinstance(node, ast.BinOp):
        raise UsageError("unsupported syntax")
    na, da, ba = _literal_bounds(node.left)
    if isinstance(node.op, ast.Pow):
        try:
            e = ast.literal_eval(node.right)
        except ValueError:
            e = None
        if type(e) is not int:
            raise UsageError("exponents must be integer literals")
        if e < 0:
            na, da = da, na
        return na * abs(e), da * abs(e), ba * abs(e)
    nb, db, bb = _literal_bounds(node.right)
    if isinstance(node.op, ast.Div):
        nb, db = db, nb
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return max(na + db, nb + da), da + db, ba + bb
    if isinstance(node.op, (ast.Mult, ast.Div)):
        return na + nb, da + db, ba + bb
    raise UsageError("unsupported operator")


class FunctionField(Field):
    """Q(vars): rational functions with sympy FracElement values, fractions
    over Z[vars] (sympy's ZZ.frac_field).

    FracElement is canonical (coprime numerator and denominator with integer
    coefficients, the denominator's lex-leading coefficient positive),
    hashable, and compares by representation, which is exactly the Scalar
    contract. Over Z[vars] each cancel runs its gcd where the coefficients
    live, with no conversion from and back to Q[vars]. A literal is
    evaluated as a (numerator, denominator) pair of polynomials and
    cancelled once.
    """

    kind = "QFUN"

    def __init__(self, names):
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise UsageError("variable names must be nonempty and distinct: %r" % (names,))
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise UsageError("bad variable name %r" % (name,))
        import sympy  # imported here: only Q(vars) needs it, and it is slow to load
        self.names = names
        self.ring = sympy.ZZ.frac_field(*names)
        poly = self.ring.field.ring
        self.polynomials = IntegralRing(poly, poly.zero, poly.one)
        self.gens = self.ring.gens
        self.zero = self.ring.zero
        self.one = self.ring.one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise UsageError("inverse of 0 in %r" % self)
        return self.one / a

    # Products run on the FracElements themselves (the Field default):
    # clearing a matrix to one polynomial denominator made the checks of an
    # n = 2 operator with 16 distinct linear denominators four times slower,
    # and, cleared anew for each product, the lifted products of operators
    # whose entries share one linear denominator 1.03-1.17 times slower.
    # Operator integral form: the numerators over the one denominator other
    # than 1 that the values have, if any. Values over two or more distinct
    # denominators stay FracElements with d = 1: the seven verdicts of an
    # n = 2 operator with 16 distinct linear denominators took 0.82 s on
    # FracElements and 1.29 s cleared to their lcm. Denominators compare by
    # ==, not by hash: sympy can hash equal polynomials apart, as the
    # denominators of parse("1/(a + b)") ** 2 and parse("1/(a^2 + 2*a*b + b^2)").
    def cleared(self, values):
        one = d = self.polynomials.one
        for v in values:
            if v.denom != one and v.denom != d:
                if d != one:
                    return self, values, 1
                d = v.denom
        return self.polynomials, [v.numer if v.denom == d else v.numer * d for v in values], d

    def coerce(self, v):
        if isinstance(v, str):
            return self.parse(v)
        try:
            return self.ring.convert(v)
        except Exception:
            raise UsageError("not a %r value: %r" % (self, v))

    def validate(self, v):
        if getattr(v, "field", None) != self.ring.field:
            raise UsageError("entries must live in %r, got %r" % (self, v))
        return v

    def parse(self, text: str):
        text = text.strip()
        if not _LITERAL_CHARS.fullmatch(text):
            raise UsageError("illegal characters in scalar literal %r" % text)
        for name in _NAME_RE.findall(text):
            if name not in self.names:
                raise UsageError("unknown variable %r in literal %r" % (name, text))
        if len(text) > MAX_LITERAL_CHARS:
            raise UsageError("function-field literal of %d characters is over the limit of %d"
                             % (len(text), MAX_LITERAL_CHARS))
        try:
            tree = ast.parse(text.replace("^", "**"), mode="eval").body
            num, den, bits = _literal_bounds(tree)
        except (SyntaxError, UsageError) as exc:
            raise UsageError("bad function-field literal %r: %s" % (text, exc))
        degree, nvars = max(num, den), len(set(_NAME_RE.findall(text)))
        if (degree > MAX_DEGREE or math.comb(degree + nvars, degree) > MAX_TERMS
                or bits > MAX_BITS):
            raise UsageError("function-field literal %r is too large: degree up to %d and "
                             "coefficients up to %d bits (limits: degree %d, %d monomials, "
                             "%d bits)" % (text, degree, bits, MAX_DEGREE, MAX_TERMS, MAX_BITS))
        try:
            num, den = self._pair(tree)
        except ZeroDivisionError:
            raise UsageError("bad function-field literal %r: division by zero" % text)
        if den != self.polynomials.one:
            num, den = num.cancel(den)
        # copies: sympy's PolyElement.square and division cache the hash of a
        # partial result, so a polynomial they return can hash apart from an
        # equal one
        value = self.ring.field.raw_new(num.copy(), den.copy())
        if max(sum(m) for p in (value.numer, value.denom) for m in p.monoms()) > MAX_DEGREE:
            raise UsageError("function-field literal %r has degree over %d" % (text, MAX_DEGREE))
        return value

    def _pair(self, node):
        """(numerator, denominator) polynomials of a literal's syntax tree,
        not cancelled; the tree is one that _literal_bounds accepted, whose
        bounds are those of this pair. A zero divisor raises
        ZeroDivisionError."""
        one = self.polynomials.one
        if isinstance(node, ast.Name):
            return self.gens[self.names.index(node.id)].numer, one
        if isinstance(node, ast.Constant):
            return one * node.value, one
        if isinstance(node, ast.UnaryOp):
            num, den = self._pair(node.operand)
            return (-num, den) if isinstance(node.op, ast.USub) else (num, den)
        if isinstance(node.op, ast.Pow):
            e = ast.literal_eval(node.right)
            if e == 0:
                return one, one  # x^0 = 1 for every x, 0 included
            num, den = self._pair(node.left)
            if e < 0:
                if not num:
                    raise ZeroDivisionError
                num, den, e = den, num, -e
            return num ** e, den ** e
        (ln, ld), (rn, rd) = self._pair(node.left), self._pair(node.right)
        if isinstance(node.op, ast.Mult):
            return ln * rn, ld * rd
        if isinstance(node.op, ast.Div):
            if not rn:
                raise ZeroDivisionError
            return ln * rd, ld * rn
        if ld != rd:
            ln, rn, ld = ln * rd, rn * ld, ld * rd
        return (ln + rn if isinstance(node.op, ast.Add) else ln - rn), ld

    def show(self, v) -> str:
        return str(v).replace("**", "^")

    def header(self) -> str:
        return "QFUN %s" % ",".join(self.names)

    def __repr__(self):
        return "FunctionField(%r)" % (self.names,)

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.names == self.names

    def __hash__(self):
        return hash(("QFUN", self.names))


QQ = RationalField()


def field_from_header(text: str) -> Field:
    """Parse the payload of a `field ...` header: Q | F <p> | QFUN <v,...>."""
    parts = text.split()
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "F":
        return PrimeField(read_int(parts[1], "prime in field header"))
    if len(parts) == 2 and parts[0] == "QFUN":
        names = [s for s in parts[1].split(",") if s]
        return FunctionField(names)
    raise UsageError("bad field header %r" % text)
