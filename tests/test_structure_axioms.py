"""The axiom checkers of Coalgebra, FinAlgebra and FinBialgebra, Matrix
identities on the regular (co)modules, against the index loops they
replaced (tests/oracles.py).

Structure constants of comatrix(2), a grouplike coalgebra, k[Z/2] and k[S3]
over Q and F_3 are moved by a change of basis (the same one on both sides
keeps a bialgebra a bialgebra; different ones keep only the algebra and
the coalgebra) and then bumped at a few entries. The checker must accept
exactly what the loops accept, fail at the same stage, and every location
its message names must be one where the axiom fails."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog
from deq.coalg import Coalgebra, comatrix, grouplike_coalgebra
from deq.dimodule import FinAlgebra, FinBialgebra, group_bialgebra
from deq.fields import PrimeField, QQ, UsageError
from deq.linalg import Matrix, matrix_inverse

import oracles

FIELDS = [QQ, PrimeField(3)]
SMALL = st.integers(-1, 2)


def change_of_basis(draw, k, d, shear_only):
    """An invertible d x d matrix S, or None for the identity: dense, or for
    larger d a shear I + t E_xy that keeps the structure constants sparse."""
    if draw(st.booleans()):
        return None
    if shear_only:
        x, y = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        rows[x][y] = draw(st.sampled_from([-1, 1, 2]))
    else:
        rows = draw(st.lists(st.lists(SMALL, min_size=d, max_size=d), min_size=d, max_size=d))
    S = Matrix(k, rows)
    return S if matrix_inverse(S) is not None else None


def transported_coalgebra(k, mu, eps, T):
    """mu and eps in the basis f_a = sum_x T[x][a] e_x:
    M'_a = T^-1 (sum_x T[x][a] M_x) T^-T and eps' = T^t eps."""
    if T is None:
        return mu, eps
    Tinv = matrix_inverse(T)
    deltas = [Matrix(k, table) for table in mu]
    mu = [(Tinv @ oracles.linear_combination(T.col(a), deltas) @ Tinv.transpose()).rows
          for a in range(T.ncols)]
    return mu, T.transpose().apply(eps)


def transported_algebra(k, mult, unit, S):
    """mult and unit in the basis f_a = sum_x S[x][a] e_x:
    m' = S^-1 m (S (x) S), with m[c][(a,b)] = mult[a][b][c], and S^-1 unit."""
    if S is None:
        return mult, unit
    d, Sinv = S.ncols, matrix_inverse(S)
    m = Matrix(k, [row for table in mult for row in table]).transpose()
    m = Sinv @ m @ S.kron(S)
    return [[m.col(a * d + b) for b in range(d)] for a in range(d)], Sinv.apply(unit)


def bumped(draw, k, tables):
    """Copies of the nested tables with up to two entries raised by 1 or 2."""
    tables = [_copy(t) for t in tables]
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(0, len(tables) - 1))
        cell = tables[t]
        while isinstance(cell[0], list):
            cell = cell[draw(st.integers(0, len(cell) - 1))]
        i = draw(st.integers(0, len(cell) - 1))
        cell[i] = k.add(k.coerce(cell[i]), k.coerce(draw(st.sampled_from([1, 2]))))
    return tables


def _copy(table):
    return [_copy(t) for t in table] if isinstance(table, list) else table


@st.composite
def coalgebra_cases(draw):
    k = draw(st.sampled_from(FIELDS))
    C = comatrix(k, 2) if draw(st.booleans()) else grouplike_coalgebra(k, ["g", "h", "u"])
    mu, eps = transported_coalgebra(k, C.mu, C.counit,
                                    change_of_basis(draw, k, C.dim, shear_only=False))
    mu, eps = bumped(draw, k, [mu, eps])
    return k, C.labels, mu, eps


@st.composite
def bialgebra_cases(draw):
    k = draw(st.sampled_from(FIELDS))
    labels, table = (["e", "g"], [[0, 1], [1, 0]]) if draw(st.booleans()) else catalog.s3_cayley()
    H = group_bialgebra(k, labels, table)
    shear_only = H.dim > 2
    S = change_of_basis(draw, k, H.dim, shear_only)
    T = S if draw(st.booleans()) else change_of_basis(draw, k, H.dim, shear_only)
    mult, unit = transported_algebra(k, H.mult, H.unit, S)
    delta, counit = transported_coalgebra(k, H.delta, H.counit, T)
    return (k, labels) + tuple(bumped(draw, k, [mult, unit, delta, counit]))


LOCATIONS = [
    (r"not coassociative at \((\S+); (\S+),(\S+),(\S+)\)", oracles.coassociative_at, "coalg"),
    (r"counit law fails at (\S+)", oracles.counit_law_at, "coalg"),
    (r"unit law fails at (\S+)", oracles.unit_law_at, "alg"),
    (r"multiplication is not associative at \((\S+),(\S+),(\S+)\)", oracles.associative_at,
     "alg"),
    (r"counit is not multiplicative at \((\S+),(\S+)\)", oracles.counit_multiplicative_at,
     "bialg"),
    (r"counit of the unit is not 1", oracles.counit_of_unit_is_one, "bialg"),
    (r"Delta of the unit is not unit \(x\) unit", oracles.delta_of_unit_holds, "bialg"),
    (r"Delta is not multiplicative at \((\S+),(\S+)\)", oracles.delta_multiplicative_at,
     "bialg"),
]


def stage_and_location(message):
    """(stage, axiom predicate, named labels) of a checker's message."""
    for pattern, holds, stage in LOCATIONS:
        match = re.fullmatch(pattern, message)
        if match:
            return stage, holds, match.groups()
    raise AssertionError("unexpected message %r" % message)


def assert_named_location_fails(message, S):
    """The axiom the message names fails at the labels it names, in S or in
    the coalgebra of the bialgebra S."""
    stage, holds, names = stage_and_location(message)
    if stage == "coalg":
        S = getattr(S, "coalg", S)
    assert not holds(S, *[S.labels.index(name) for name in names]), message


def loop_failure(S):
    """The first failure that the index loops find in S, stage by stage."""
    if isinstance(S, Coalgebra):
        return oracles.loop_coalgebra_failure(S)
    failure = oracles.loop_algebra_failure(S)
    if failure is None and isinstance(S, FinBialgebra):
        failure = oracles.loop_coalgebra_failure(S.coalg) or oracles.loop_bialgebra_failure(S)
    return failure


def verdict(build):
    try:
        build()
    except UsageError as err:
        return str(err)
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coalgebra_cases())
def test_coalgebra_checker_accepts_what_the_loops_accept(case):
    k, labels, mu, eps = case
    C = Coalgebra(k, labels, mu, eps, check=False)
    want = loop_failure(C)
    got = verdict(lambda: Coalgebra(k, labels, mu, eps))
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert_named_location_fails(got, C)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bialgebra_cases())
def test_bialgebra_checker_accepts_what_the_loops_accept(case):
    k, labels, mult, unit, delta, counit = case
    H = FinBialgebra(k, labels, mult, unit, delta, counit, check=False)
    want = loop_failure(H)
    got = verdict(lambda: FinBialgebra(k, labels, mult, unit, delta, counit))
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert stage_and_location(got)[0] == stage_and_location(want)[0], (got, want)
        assert_named_location_fails(got, H)


Z2 = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]  # k[Z/2] on e, g
IDEMPOTENTS = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]  # k x k on p, q
E11 = [[1, 0], [0, 0]]
IDENTITY2 = [[1, 0], [0, 1]]
ODD = [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
       [[0, 0, 1], [0, 0, 1], [1, 0, 0]]]  # Delta(y) = 1(x)y + y(x)1 + x(x)y
MESSAGES = [
    ("unit law fails at e", FinAlgebra, (["e", "g"], Z2, [0, 1])),
    # x y = y: p is a left unit, and q p = p breaks the right unit law only
    ("unit law fails at q", FinAlgebra, (["p", "q"], [IDENTITY2, IDENTITY2], [1, 0])),
    # (a b) b = e b = b but a (b b) = a e = a, while (b a) b = b b = e = b (a b)
    ("multiplication is not associative at (a,b,b)", FinAlgebra,
     (["e", "a", "b"], [[[int(c == t) for c in range(3)] for t in row]
                        for row in ([0, 1, 2], [1, 0, 2], [2, 2, 0])], [1, 0, 0])),
    ("counit law fails at e", Coalgebra, (["e", "g"], IDEMPOTENTS, [2, 1])),
    ("counit law fails at b", Coalgebra, (["a", "b"], [E11, [[0, 0], [1, 0]]], [1, 0])),
    ("not coassociative at (y; x,x,y)", Coalgebra, (["1", "x", "y"], ODD, [1, 0, 0])),
    # primitive g, so eps(g g) = eps(e) = 1 but eps(g)^2 = 0
    ("counit is not multiplicative at (g,g)", FinBialgebra,
     (["e", "g"], Z2, [1, 0], [E11, [[0, 1], [1, 0]]], [1, 0])),
    # p and q grouplike: eps(p + q) = 2
    ("counit of the unit is not 1", FinBialgebra,
     (["p", "q"], IDEMPOTENTS, [1, 1], IDEMPOTENTS, [1, 1])),
    # p grouplike, q primitive: Delta(p + q) lacks q (x) q
    ("Delta of the unit is not unit (x) unit", FinBialgebra,
     (["p", "q"], IDEMPOTENTS, [1, 1], [E11, [[0, 1], [1, 0]]], [1, 0])),
    # u = p + q grouplike and q primitive: Delta(p)^2 = p(x)p + q(x)q
    ("Delta is not multiplicative at (p,p)", FinBialgebra,
     (["p", "q"], IDEMPOTENTS, [1, 1], [[[1, 0], [0, -1]], [[0, 1], [1, 2]]], [1, 0])),
]


@pytest.mark.parametrize("k", FIELDS, ids=["Q", "F3"])
@pytest.mark.parametrize("message,cls,args", MESSAGES, ids=[m[0] for m in MESSAGES])
def test_each_axiom_message_names_a_failing_location(k, message, cls, args):
    """One input for each message of the three checkers; the loops reject it
    too."""
    S = cls(k, *args, check=False)
    assert verdict(lambda: cls(k, *args)) == message
    assert_named_location_fails(message, S)
    assert loop_failure(S) is not None
