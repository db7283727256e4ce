"""The integral form R' = d R on which the verdicts of `deq check` run
(Field.cleared, tensor_ops._integral): R'/d is R, and every verdict equals
the one computed on R's field values (oracles.field_verdicts)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog
from deq.fields import INTEGERS, FunctionField, PrimeField, QQ
from deq.linalg import Matrix
from deq.tensor_ops import (EndoPair, check_d, check_equivalent_forms, check_hopf,
                            check_pentagon, check_qybe, diagonal_solution, first_violation,
                            identity_pair, product_solution, _integral)
from oracles import conjugate, field_verdicts, tau_matrix

F5 = PrimeField(5)
FQ = FunctionField(["q"])
Q_ = FQ.gens[0]
CASES = {"Q": QQ, "F5": F5, "Qq-shared": FQ, "Qq-distinct": FQ}


def verdicts(R):
    """The seven verdicts, asked in the order `deq check` asks them."""
    forms = check_equivalent_forms(R)
    return {"d": forms.d, "qybe": check_qybe(R), "hopf": check_hopf(R),
            "pentagon": check_pentagon(R), "form_t": forms.form_t,
            "form_u": forms.form_u, "form_w": forms.form_w}


def fresh(R):
    """R with no lifts, products or integral form formed yet."""
    return EndoPair.from_matrix(R.matrix())


def distinct_denominators(values):
    """The denominators other than 1 of Q(q) values, compared by == (equal
    polynomials may hash apart)."""
    found = []
    for v in values:
        if v.denom != FQ.one.denom and v.denom not in found:
            found.append(v.denom)
    return found


def in_field(k, ring, v):
    """A value of the integral ring as a value of k."""
    if ring is k:
        return v
    return Fraction(v) if ring == INTEGERS else k.ring.field.new(v)


@st.composite
def operators(draw, case, n):
    """(kind, R) over CASES[case] at n: a sparse operator, mostly a
    non-solution, or a diagonal or f (x) (c0 + c1 f) solution, from entries
    a/c over Q, a over F_5 and a + b q over Q(q). "Qq-shared" divides the
    whole operator by 1 + q, so that its entries have the one denominator
    1 + q or 1; "Qq-distinct" divides each entry by 1 + q or 2 + q, and
    adds 1/(1 + q) to its first and 1/(2 + q) to its last diagonal entry,
    which keeps only the diagonal kind a solution."""
    k = CASES[case]
    kind = draw(st.sampled_from(["sparse", "diagonal", "product"]))

    def entry(may_vanish=False):
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
        if may_vanish and draw(st.integers(0, 2)):
            return k.zero
        if k is FQ:
            return k.coerce(a) + k.coerce(b) * Q_
        return k.coerce(a) / k.coerce(c or 1) if k is QQ else k.coerce(a)

    if kind == "sparse":
        d = n * n
        R = EndoPair.from_rows(k, [[entry(True) for _ in range(d)] for _ in range(d)])
    elif kind == "diagonal":
        R = diagonal_solution(k, [[entry() for _ in range(n)] for _ in range(n)])
    else:
        f = Matrix(k, [[entry(True) for _ in range(n)] for _ in range(n)])
        g = Matrix.identity(k, n).scale(entry()).add(f.scale(entry()))
        R = product_solution(f, g)
    if case == "Qq-shared":
        R = EndoPair.from_matrix(R.matrix().scale(k.one / (k.one + Q_)))
    elif case == "Qq-distinct":
        dens = (k.one + Q_, k.coerce(2) + Q_)
        last = n * n - 1
        rows = [[v / dens[draw(st.integers(0, 1))] for v in row] for row in R.matrix().rows]
        rows[0][0] = rows[0][0] + k.one / dens[0]
        rows[last][last] = rows[last][last] + k.one / dens[1]
        R = EndoPair.from_rows(k, rows)
    return kind, R


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", list(CASES))
def test_integral_form_is_r_times_d_and_keeps_every_verdict(case, n):
    @settings(derandomize=True, deadline=None, max_examples=10 if n == 2 else 5)
    @given(operators(case, n))
    def check(drawn):
        kind, R = drawn
        k = R.field
        want = field_verdicts(fresh(R))
        assert verdicts(R) == want
        assert (first_violation(fresh(R)) is None) == want["d"]
        if kind == "diagonal" or kind == "product" and case != "Qq-distinct":
            assert want["d"] and want["qybe"] and want["form_w"]
        Ri, d = _integral(R)
        ring = Ri.field
        assert not ring.is_zero(d)
        entries = [x for row in R.matrix().rows for x in row]
        for x, v in zip(entries, (v for row in Ri.matrix().rows for v in row)):
            assert in_field(k, ring, v) == k.mul(x, in_field(k, ring, d))
        if k is QQ:
            assert ring == INTEGERS
        elif k is FQ and len(distinct_denominators(entries)) <= 1:
            assert ring == FQ.polynomials
        else:
            # F_p is its own ring; two distinct denominators other than 1
            # keep Q(q) on its fractions
            assert Ri is R and d == 1
    check()


def scaled(R, s):
    return EndoPair.from_matrix(R.matrix().scale(s))


def flipped(R):
    """tau R tau: a pentagon solution exactly when R is a Hopf solution."""
    tau = tau_matrix(R.field, R.n)
    return EndoPair.from_matrix(tau @ R.matrix() @ tau)


@pytest.mark.parametrize("k, s", [(QQ, Fraction(1, 2)), (FQ, FQ.one / (FQ.one + Q_))],
                         ids=["Q", "Qq"])
def test_hopf_and_pentagon_scale_the_shorter_word(k, s):
    """I satisfies Hopf and pentagon, and s I does not for s != 1: the words
    have 2 and 3 lifts, so their products differ by s. The integral form of
    s I is I over d = 1/s, and only the d-scaling tells the two apart."""
    for n in (2, 3):
        I = identity_pair(k, n)
        assert check_hopf(I) and check_pentagon(I)
        R = scaled(I, s)
        assert _integral(R)[0].matrix().rows == I.matrix().rows
        assert not check_hopf(R) and not check_pentagon(R)
        assert check_d(R) and check_qybe(R)
        assert verdicts(R) == field_verdicts(fresh(R))


@pytest.mark.parametrize("u", [[[1, 2], [3, 1]], [[3, 0], [1, 2]]])
def test_conjugated_hopf_and_pentagon_solutions_over_a_denominator(u):
    """Conjugating a Hopf solution, and its pentagon flip, by u (x) u with
    det u not +-1 gives rational entries, so d != 1; the verdicts are the
    solution's own."""
    u = Matrix(QQ, u)
    for R in (catalog.rq(QQ, 3), flipped(catalog.rq(QQ, 3)),
              catalog.projection_solution(QQ)):
        C = conjugate(R, u)
        assert _integral(C)[1] != 1
        assert verdicts(C) == verdicts(R) == field_verdicts(fresh(C))
    assert check_hopf(catalog.rq(QQ, 3)) and check_pentagon(flipped(catalog.rq(QQ, 3)))


def test_two_distinct_denominators_stay_on_fractions():
    """Entries over 1 + q and q + 2 are not cleared: the ring is the field
    and d = 1. One shared denominator is cleared to polynomials."""
    one = FQ.one
    a, b = one / (one + Q_), one / (FQ.coerce(2) + Q_)
    R = diagonal_solution(FQ, [[a, b], [one, a]])
    assert _integral(R) == (R, 1)
    S = diagonal_solution(FQ, [[a, Q_], [one, a * Q_]])
    Si, d = _integral(S)
    assert Si.field == FQ.polynomials and d == (one + Q_).numer
    assert verdicts(R) == field_verdicts(fresh(R))
    assert verdicts(S) == field_verdicts(fresh(S))


def test_equal_denominators_that_hash_apart_are_one_denominator():
    """parse("(a + b)^(-2)") and parse("1/(a^2 + 2*a*b + b^2)") are equal,
    and so are their denominators, but the denominators hash apart. The
    operator still clears to polynomials over the one denominator
    (a + b)^2, and its seven verdicts are those of its field values."""
    k = FunctionField(["a", "b"])
    a = k.gens[0]
    x, y = k.parse("(a + b)^(-2)"), k.parse("1/(a^2 + 2*a*b + b^2)")
    assert x == y and x.denom == y.denom
    one, zero = k.one, k.zero
    for R in (diagonal_solution(k, [[x, y], [one, a * x]]),
              EndoPair.from_rows(k, [[x, y, zero, one], [zero, one, y, zero],
                                     [one, zero, a * x, zero], [zero, zero, zero, y]])):
        Ri, d = _integral(R)
        assert Ri.field == k.polynomials and d == x.denom
        assert verdicts(R) == field_verdicts(fresh(R))
