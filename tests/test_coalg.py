import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog
from deq.classify import endo_from_digits, enumerate_solutions
from deq.coalg import (BilinearForm, Coalgebra, Comodule, comatrix, convolve, counit_form,
                       grouplike_coalgebra, quotient)
from deq.dmap import convolution_inverse_of_sigma, sigma_from_r, strong_dmap_from_symmetric
from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.frt import d_bialgebra, generator_table, obstruction_coideal, obstruction_vectors
from deq.linalg import Matrix, rref
from deq.tensor_ops import diagonal_solution, identity_pair
from oracles import (coideal, comatrix_index, convolution_inverse, delta_vector, dot, lift,
                     linear_combination, project, pushforward, random_value, reduce_against,
                     section_quotient, span_and_membership, standard_comodule)


def obstruction_ideal(R):
    """I(R) in the comatrix coalgebra that obstruction_coideal builds."""
    return obstruction_coideal(generator_table(R))


def test_comatrix_axioms_and_labels():
    C = comatrix(QQ, 2)
    assert C.labels == ["c11", "c12", "c21", "c22"]
    assert C.dim == 4
    # Delta(c_jk) = sum_u c_ju (x) c_uk on basis vectors
    k = QQ
    idx = lambda j, u: comatrix_index(2, j, u)
    vec = [k.zero] * 4
    vec[idx(1, 2)] = k.one
    d = delta_vector(C, vec)
    assert d[idx(1, 1) * 4 + idx(1, 2)] == k.one
    assert d[idx(1, 2) * 4 + idx(2, 2)] == k.one
    assert sum(1 for v in d if not k.is_zero(v)) == 2


def test_comatrix_counit():
    C = comatrix(PrimeField(3), 3)
    k = C.field
    for j in range(1, 4):
        for u in range(1, 4):
            vec = [k.zero] * 9
            vec[comatrix_index(3, j, u)] = k.one
            assert dot(k, C.counit, vec) == (k.one if j == u else k.zero)


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FunctionField(["a", "b", "c"])],
                         ids=["Q", "F13", "Qabc"])
def test_built_coalgebras_take_their_values_as_built(k, monkeypatch):
    """comatrix(k, 3) and the presentation of the S3-graded solution, whose
    structure constants the field itself produced, coerce nothing."""
    R = catalog.s3_graded_solution(k)
    calls = []
    coerce = type(k).coerce
    monkeypatch.setattr(type(k), "coerce", lambda self, v: calls.append(v) or coerce(self, v))
    comatrix(k, 3)
    d_bialgebra(R)
    assert calls == []


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FunctionField(["a", "b", "c"])],
                         ids=["Q", "F13", "Qabc"])
def test_built_forms_take_their_values_as_built(k, monkeypatch):
    """sigma_R, its convolution inverse, a strong D-map, the counit form and
    a convolution, whose tables the field itself produced, coerce nothing."""
    R = catalog.triangular_solution(k, 1, 2, 2)
    calls = []
    coerce = type(k).coerce
    monkeypatch.setattr(type(k), "coerce", lambda self, v: calls.append(v) or coerce(self, v))
    dm = sigma_from_r(R)
    prime = convolution_inverse_of_sigma(dm)
    strong_dmap_from_symmetric(R)
    assert convolve(dm.sigma, prime) == counit_form(dm.coalgebra, dm.quotient)
    assert calls == []


def test_coalgebra_rejects_broken_coassociativity():
    k = QQ
    # Delta(x) = x (x) y is not coassociative with counit below
    mu = [[[k.zero] * 2 for _ in range(2)] for _ in range(2)]
    mu[0][0][1] = k.one
    with pytest.raises(UsageError):
        Coalgebra(k, ["x", "y"], mu, [k.one, k.one])


def test_grouplike_coalgebra_cocommutative():
    def cocommutative(C):
        d = C.dim
        return all(C.mu[a][b][c] == C.mu[a][c][b]
                   for a in range(d) for b in range(d) for c in range(d))
    assert cocommutative(grouplike_coalgebra(QQ, ["g", "h"]))
    assert not cocommutative(comatrix(QQ, 2))


def test_coideal_membership_and_dim():
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    I = obstruction_ideal(R)
    assert I.dim == 2
    k = QQ

    def contains(vec):
        """Membership in I: vec reduces to zero against its echelon basis."""
        return all(k.is_zero(v) for v in reduce_against(vec, I.basis, I.pivots, k))

    # c21 and c22 - c11 belong, c11 does not
    v_c21 = [k.zero] * 4
    v_c21[comatrix_index(2, 2, 1)] = k.one
    assert contains(v_c21)
    v_diff = [k.zero] * 4
    v_diff[comatrix_index(2, 2, 2)] = k.one
    v_diff[comatrix_index(2, 1, 1)] = k.neg(k.one)
    assert contains(v_diff)
    v_c11 = [k.zero] * 4
    v_c11[comatrix_index(2, 1, 1)] = k.one
    assert not contains(v_c11)


def test_is_coideal_rejects_non_coideal():
    C = comatrix(QQ, 2)
    k = QQ
    v_c11 = [k.zero] * 4
    v_c11[0] = k.one
    # counit(c11) = 1 != 0, so the span of c11 is not a coideal
    with pytest.raises(UsageError, match="counit does not vanish"):
        coideal(C, [v_c11])


def test_quotient_reproduces_relations_and_axioms():
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    I = obstruction_ideal(R)
    Q = quotient(I.parent, I)
    assert Q.dim == 2
    assert Q.labels == ["c11~", "c12~"]
    # its axioms are checked in test_quotients_of_catalog_solutions_are_coalgebras
    k = QQ
    # project(c22) = c11~, project(c21) = 0
    v = [k.zero] * 4
    v[comatrix_index(2, 2, 2)] = k.one
    assert project(Q, v) == [k.one, k.zero]
    v = [k.zero] * 4
    v[comatrix_index(2, 2, 1)] = k.one
    assert project(Q, v) == [k.zero, k.zero]


def test_quotient_section_independence():
    # two different complements give the same induced quotient structure
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    I = obstruction_ideal(R)
    C = I.parent
    k = QQ
    Q1 = quotient(C, I)  # the section: c11, c12
    # alternative section: c22, c12 (c22 = c11 mod I), built by the oracle
    alt = [comatrix_index(2, 2, 2), comatrix_index(2, 1, 2)]
    Q2, proj2 = section_quotient(C, I, alt)
    v11 = [k.zero] * 4
    v11[comatrix_index(2, 1, 1)] = k.one
    v12 = [k.zero] * 4
    v12[comatrix_index(2, 1, 2)] = k.one
    # in both quotients c11 and c22 agree and c12 maps to the second generator
    v22 = [k.zero] * 4
    v22[comatrix_index(2, 2, 2)] = k.one
    assert project(Q1, v11) == project(Q1, v22)
    assert proj2.apply(v11) == proj2.apply(v22)
    # both send c11 -> first basis vector, c12 -> second
    assert (project(Q1, v11), project(Q1, v12)) == ([k.one, k.zero], [k.zero, k.one])
    assert (proj2.apply(v11), proj2.apply(v12)) == ([k.one, k.zero], [k.zero, k.one])
    # so the structure constants agree as they stand
    assert Q1.mu == Q2.mu
    assert Q1.counit == Q2.counit


def test_quotient_rejects_exhausting_coideal():
    # the whole coalgebra is not a coideal (counit does not vanish), so build
    # a maximal proper coideal in the grouplike case: span(g - h)
    k = QQ
    C = grouplike_coalgebra(k, ["g", "h"])
    v = [k.one, k.neg(k.one)]
    I = coideal(C, [v])
    Q = quotient(C, I)
    assert Q.dim == 1


def test_comodule_axioms_and_pushforward():
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    I = obstruction_ideal(R)
    C = I.parent
    M = standard_comodule(C)
    assert M.dim == 2
    Q = quotient(C, I)
    M2 = pushforward(M, Q)
    assert M2.dim == 2
    assert M2.coalgebra is Q


def test_comodule_rejects_broken_coassociativity():
    """P_c11 = I keeps the counit law (eps is 1 on c11 and c22, 0 on c12
    and c21), and P_c12 = E_12 breaks coassociativity: P_c12 P_c11 = E_12,
    while Delta has no c12 (x) c11 term, so it should be 0."""
    C = comatrix(QQ, 2)
    k = QQ
    slices = [Matrix.zeros(k, 2, 2) for _ in range(4)]
    slices[comatrix_index(2, 1, 1)] = Matrix.identity(k, 2)
    slices[comatrix_index(2, 1, 2)] = Matrix(k, [[0, 1], [0, 0]])
    assert linear_combination(C.counit, slices) == Matrix.identity(k, 2)
    with pytest.raises(UsageError, match=r"coassociativity fails at \(c12, c11\)"):
        Comodule(C, slices)


def test_convolution_unit_and_commutativity_of_counit_form():
    C = comatrix(QQ, 2)
    k = QQ
    rng = random.Random(1)
    table = [[random_value(k, rng) for _ in range(4)] for _ in range(4)]
    phi = BilinearForm(C, C, table)
    eps = counit_form(C, C)
    assert convolve(phi, eps) == phi
    assert convolve(eps, phi) == phi


def test_convolution_associative_on_samples():
    C = comatrix(PrimeField(5), 2)
    k = C.field
    rng = random.Random(2)
    for _ in range(10):
        f, g, h = (BilinearForm(C, C, [[random_value(k, rng) for _ in range(4)]
                                       for _ in range(4)]) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolution_inverse_round_trip():
    C = comatrix(PrimeField(5), 2)
    k = C.field
    rng = random.Random(3)
    eps = counit_form(C, C)
    found = 0
    while found < 5:
        phi = BilinearForm(C, C, [[random_value(k, rng) for _ in range(4)]
                                  for _ in range(4)])
        inv = convolution_inverse(phi)
        if inv is None:
            continue
        found += 1
        assert convolve(phi, inv) == eps
        assert convolve(inv, phi) == eps


# The runtime builds comatrix and grouplike coalgebras and quotients by a
# verified coideal without checking their axioms; these tests check them.

def recheck(C):
    """Rebuild C with the full axiom check."""
    return Coalgebra(C.field, C.labels, C.mu, C.counit, check=True)


def test_constant_coalgebras_satisfy_the_axioms():
    for k in (QQ, PrimeField(13)):
        for n in (1, 2, 3):
            recheck(comatrix(k, n))
        recheck(grouplike_coalgebra(k, ["g", "h", "u"]))


def second_complement(C, I):
    """A complement of I other than its non-pivot coordinates and the
    oracle's quotient on it, or None."""
    default = [c for c in range(C.dim) if c not in I.pivots]
    for cols in itertools.combinations(range(C.dim), len(default)):
        if list(cols) != default:
            found = section_quotient(C, I, list(cols))
            if found is not None:
                return found
    return None


def assert_quotient_is_a_coalgebra(I):
    """C/I, C the parent of I, passes the axiom check, and a second section
    gives the same structure constants once its basis is matched to the
    first."""
    C = I.parent
    k = C.field
    Q1 = quotient(C, I)
    recheck(Q1)
    alt = second_complement(C, I)
    if alt is None:
        return
    Q2, proj2 = alt
    q = Q1.dim
    # images[b]: the b-th basis element of Q1 in the coordinates of Q2
    images = [proj2.apply(lift(Q1, [k.one if t == b else k.zero for t in range(q)]))
              for b in range(q)]
    for b in range(q):
        lhs = [[k.sum(k.mul(images[b][a], Q2.mu[a][s][t]) for a in range(q))
                for t in range(q)] for s in range(q)]
        rhs = [[k.sum(k.mul(Q1.mu[b][u][w], k.mul(images[u][s], images[w][t]))
                      for u in range(q) for w in range(q))
                for t in range(q)] for s in range(q)]
        assert lhs == rhs
        assert dot(k, Q2.counit, images[b]) == Q1.counit[b]


def test_quotients_of_all_f2_solutions_are_coalgebras():
    report = enumerate_solutions(2, 2)
    assert report.count == 100
    for sol in report.solutions:
        assert_quotient_is_a_coalgebra(obstruction_ideal(endo_from_digits(2, 2, sol)))


def test_quotients_of_catalog_solutions_are_coalgebras():
    k = QQ
    for R in (catalog.triangular_solution(k, 1, 2, 3), catalog.rq(k, 3),
              catalog.projection_solution(k), catalog.s3_graded_solution(k),
              identity_pair(k, 2), diagonal_solution(k, [[1, 2], [3, 4]])):
        assert_quotient_is_a_coalgebra(obstruction_ideal(R))


# The standard comodule of comatrix(n) and its pushforwards to quotients are
# the test oracles of the canonical comodule of D(R), built unchecked; these
# tests check their axioms.

def recheck_comodule(M):
    """Rebuild M with the full axiom check."""
    return Comodule(M.coalgebra, M.slices, check=True)


def test_standard_comodules_satisfy_the_axioms():
    for k in (QQ, PrimeField(5), FunctionField(["a"])):
        for n in (1, 2, 3):
            recheck_comodule(standard_comodule(comatrix(k, n)))


def test_standard_comodule_refuses_other_coalgebras():
    k = QQ
    C = comatrix(k, 2)
    # square dimensions, but not comatrix(n): grouplike, and the co-opposite
    # comatrix coalgebra Delta(c_jk) = sum_u c_uk (x) c_ju
    coopposite = Coalgebra(k, C.labels, [[[C.mu[a][c][b] for c in range(4)]
                                          for b in range(4)] for a in range(4)],
                           C.counit)
    for other in (grouplike_coalgebra(k, ["a", "b", "c", "d"]), coopposite,
                  grouplike_coalgebra(k, ["a", "b"])):
        with pytest.raises(UsageError, match="comatrix"):
            standard_comodule(other)


def test_pushforwards_of_the_standard_comodule_satisfy_the_axioms():
    fq = FunctionField(["q"])
    operators = [endo_from_digits(2, 2, sol) for sol in enumerate_solutions(2, 2).solutions]
    assert len(operators) == 100
    operators += [catalog.triangular_solution(QQ, 1, 2, 3), catalog.rq(QQ, 3),
                  catalog.projection_solution(QQ), catalog.s3_graded_solution(QQ),
                  identity_pair(QQ, 2), diagonal_solution(QQ, [[1, 2], [3, 4]]),
                  catalog.rq(fq, fq.gens[0])]
    for R in operators:
        I = obstruction_ideal(R)
        Q = quotient(I.parent, I)
        M = pushforward(standard_comodule(I.parent), Q)
        assert M.coalgebra is Q
        recheck_comodule(M)


def reference_is_coideal(C, vectors):
    """The coideal test by span membership in I (x) C + C (x) I."""
    k, d = C.field, C.dim
    basis, _ = rref([[k.coerce(x) for x in v] for v in vectors], k)
    if any(not k.is_zero(dot(k, C.counit, v)) for v in basis):
        return False
    gens = []
    for v in basis:
        for a in range(d):
            left = [k.zero] * (d * d)
            right = [k.zero] * (d * d)
            for b in range(d):
                left[b * d + a] = v[b]
                right[a * d + b] = v[b]
            gens += [left, right]
    _, inside = span_and_membership(gens, k, dim=d * d)
    return all(inside(delta_vector(C, v)) for v in basis)


F3 = PrimeField(3)
COMATRIX2 = comatrix(F3, 2)
GROUPLIKE3 = grouplike_coalgebra(F3, ["g", "h", "u"])


@st.composite
def coalgebra_and_vectors(draw):
    kind = draw(st.sampled_from(["comatrix", "kernel", "grouplike", "obstruction"]))
    C = GROUPLIKE3 if kind == "grouplike" else COMATRIX2
    if kind == "obstruction":
        digits = draw(st.lists(st.integers(0, 2), min_size=16, max_size=16))
        table = generator_table(endo_from_digits(2, 3, digits))
        vectors = [v for _, v in obstruction_vectors(table)]
    else:
        vectors = draw(st.lists(st.lists(st.integers(0, 2), min_size=C.dim, max_size=C.dim),
                                min_size=1, max_size=3))
        if kind in ("kernel", "grouplike"):
            # shift the first coordinate (a label with counit 1) so that eps(v) = 0
            for v in vectors:
                v[0] = (v[0] - sum(v[a] for a in range(C.dim) if C.counit[a])) % 3
    return C, vectors, draw(st.permutations(range(C.dim)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coalgebra_and_vectors())
def test_coideal_test_agrees_with_span_membership(case):
    C, vectors, order = case
    want = reference_is_coideal(C, vectors)
    # the default and any other column order, hence any pivots, give the same verdict
    for col_order in (None, order):
        try:
            coideal(C, vectors, col_order=col_order)
            got = True
        except UsageError:
            got = False
        assert got == want
