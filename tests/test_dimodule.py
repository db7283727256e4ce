import random

import pytest

from deq import catalog
from deq.coalg import Comodule
from deq.dimodule import (FinBialgebra, GradedModule, LongDimodule,
                          dimodule_from_grading, group_bialgebra,
                          r_from_dimodule, tensor_dimodule, trivial_module)
from deq.fields import MathError, PrimeField, QQ, UsageError
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import check_d, check_qybe, identity_pair
from oracles import (induce_from_comodule, induce_from_module, loop_multiply, matrix_sub,
                     trivial_comodule)


def z2_bialgebra(field):
    """k[Z/2] with basis e, g."""
    return group_bialgebra(field, ["e", "g"], [[0, 1], [1, 0]])


def z2_swap_pair(field):
    """(action, coaction slices) on k^2: g swaps the axes, e1 graded e, e2
    graded g. Incompatible because g moves e1 out of its component."""
    k = field
    z, o = k.zero, k.one
    action = [Matrix.identity(k, 2), Matrix(k, [[z, o], [o, z]], coerce=False)]
    slices = [Matrix(k, [[o, z], [z, z]]), Matrix(k, [[z, z], [z, o]])]
    return action, slices


def z2_eigen_grading(field, dim):
    """Graded module over k[Z/2]: g = diag(1,..,1,-1), last axis graded g."""
    k = field
    z, o = k.zero, k.one
    diag = [o] * (dim - 1) + [k.neg(o)]
    act_g = Matrix(k, [[diag[i] if i == j else z for j in range(dim)]
                       for i in range(dim)], coerce=False)
    pe = Matrix(k, [[o if (i == j and i < dim - 1) else z for j in range(dim)]
                    for i in range(dim)], coerce=False)
    pg = Matrix(k, [[o if (i == j and i == dim - 1) else z for j in range(dim)]
                    for i in range(dim)], coerce=False)
    return GradedModule(z2_bialgebra(k), [Matrix.identity(k, dim), act_g], [pe, pg])


def test_group_bialgebra_structure():
    k = PrimeField(5)
    labels, table = catalog.s3_cayley()
    H = group_bialgebra(k, labels, table)
    assert H.dim == 6
    assert H.labels[0] == "e"
    # unit is e, every basis element grouplike, counit identically 1
    assert H.unit == [k.one] + [k.zero] * 5
    for a in range(6):
        for p in range(6):
            for q in range(6):
                want = k.one if p == a and q == a else k.zero
                assert H.delta[a][p][q] == want
    assert H.counit == [k.one] * 6
    # multiplication follows the table
    e = Matrix.identity(k, 6).rows
    assert loop_multiply(H, e[1], e[2]) == e[table[1][2]]


def test_group_bialgebra_rejects_non_groups():
    k = QQ
    # no identity element
    with pytest.raises(MathError, match="no identity"):
        group_bialgebra(k, ["a", "b"], [[1, 1], [1, 1]])
    # identity present but multiplication not associative: (a.a).b != a.(a.b)
    with pytest.raises(MathError, match="associative"):
        group_bialgebra(k, ["e", "a", "b"], [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    # associative monoid with an absorbing element has no inverse for it
    with pytest.raises(MathError, match="no inverse for z"):
        group_bialgebra(k, ["e", "z"], [[0, 1], [1, 1]])
    with pytest.raises(UsageError):
        group_bialgebra(k, ["a", "b"], [[0, 1]])


def test_long_dimodule_rejects_incompatible_pair():
    k = QQ
    H = z2_bialgebra(k)
    action, slices = z2_swap_pair(k)
    comod = Comodule(H.gen_coalgebra(), slices)
    with pytest.raises(MathError, match="compatibility fails"):
        LongDimodule(H, action, comod)
    # the same verdict unchecked; the unit e is compatible, g is the first failure
    unchecked = LongDimodule(H, action, comod, check=False)
    assert not unchecked.is_compatible()
    assert unchecked.first_incompatibility()[0] == 1


def test_compatible_subalgebra_of_incompatible_pair():
    """The compatible elements of k[Z/2] for the swap pair are exactly k.e.
    Compatibility is linear in h, so the compatible elements form a subspace;
    it holds e and not g, hence not e + c.g for any c: it is k.e."""
    k = QQ
    H = z2_bialgebra(k)
    action, slices = z2_swap_pair(k)
    d = LongDimodule(H, action, Comodule(H.gen_coalgebra(), slices), check=False)
    assert all(d.pair_compatible(0, l) for l in range(d.dim))
    assert not all(d.pair_compatible(1, l) for l in range(d.dim))


def test_compatible_subalgebra_of_graded_module():
    """A genuine grading is compatible with all of k[G]: every basis element
    passes on every basis vector."""
    g = catalog.s3_graded_module(QQ)
    d = dimodule_from_grading(g)
    assert all(d.pair_compatible(a, l) for a in range(g.host.dim) for l in range(d.dim))


def test_compatible_generators_give_the_whole_bialgebra():
    """t12 and t13 generate k[S3]: when both are compatible, the compatible
    subalgebra, closed under products, is all of k[S3]."""
    g = catalog.s3_graded_module(QQ)
    H = g.host
    d = dimodule_from_grading(g)
    assert all(d.pair_compatible(a, l) for a in (1, 2) for l in range(d.dim))
    basis = Matrix.identity(H.field, H.dim).rows
    reached = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in (1, 2):
            c = basis.index(loop_multiply(H, basis[a], basis[b]))
            if c not in reached:
                reached.add(c)
                frontier.append(c)
    assert reached == set(range(H.dim))


def test_graded_module_validation():
    k = QQ
    H = z2_bialgebra(k)
    z, o = k.zero, k.one
    swap = Matrix(k, [[z, o], [o, z]], coerce=False)
    ident = Matrix.identity(k, 2)
    pe = Matrix(k, [[o, z], [z, z]], coerce=False)
    pg = Matrix(k, [[z, z], [z, o]], coerce=False)
    # coordinate components are not stable under the swap
    with pytest.raises(MathError, match="not stable"):
        GradedModule(H, [ident, swap], [pe, pg])
    # projectors must resolve the identity
    zero = Matrix.zeros(k, 2, 2)
    with pytest.raises(MathError, match="sum to the identity"):
        GradedModule(H, [ident, ident], [pe, zero])
    # the projector axioms are the comodule axiom over k[G], whose unit law,
    # sum to the identity, is checked first
    with pytest.raises(MathError, match="sum to the identity"):
        GradedModule(H, [ident, ident], [swap, zero])
    two = Matrix(k, [[2, 0], [0, 0]])
    with pytest.raises(MathError, match="projector for e is not idempotent"):
        GradedModule(H, [ident, ident], [two, matrix_sub(ident, two)])
    # g must act as an involution over k[Z/2]
    with pytest.raises(MathError, match="not multiplicative"):
        GradedModule(H, [ident, ident.scale(k.coerce(2))], [pe, pg])


def test_grading_round_trip():
    g = z2_eigen_grading(PrimeField(5), 3)
    d = dimodule_from_grading(g)
    assert d.is_compatible()
    back = d.comodule.slices
    assert back == g.projectors
    # and the rebuilt grading is again a valid graded module
    GradedModule(g.host, g.act, back)


def test_random_gradings_induce_solutions():
    """Conjugated eigenspace gradings over k[Z/2] always induce solutions."""
    k = PrimeField(5)
    rng = random.Random(20260817)
    for dim in (2, 3):
        base = z2_eigen_grading(k, dim)
        for _ in range(8):
            while True:
                S = Matrix(k, [[k.coerce(rng.randrange(5)) for _ in range(dim)]
                               for _ in range(dim)])
                Sinv = matrix_inverse(S)
                if Sinv is not None:
                    break
            act = [S @ A @ Sinv for A in base.act]
            proj = [S @ P @ Sinv for P in base.projectors]
            g = GradedModule(base.host, act, proj)
            R = r_from_dimodule(dimodule_from_grading(g))
            assert check_d(R), "graded module failed to induce a solution"


def test_s3_graded_solution_separates_equations():
    R = catalog.s3_graded_solution(QQ)
    assert R.n == 3
    assert check_d(R)
    assert not check_qybe(R)


def test_tensor_dimodule_adds_degrees():
    k = PrimeField(5)
    g = z2_eigen_grading(k, 2)
    d = dimodule_from_grading(g)
    t = tensor_dimodule(d, d)
    assert t.dim == 4
    assert t.is_compatible()
    assert check_d(r_from_dimodule(t))
    # e2 (x) e2 has degree g.g = e, e1 (x) e2 has degree g
    proj = t.comodule.slices
    vec = [k.zero] * 4
    vec[3] = k.one
    assert proj[0].apply(vec) == vec
    assert all(k.is_zero(c) for c in proj[1].apply(vec))
    vec = [k.zero] * 4
    vec[1] = k.one
    assert proj[1].apply(vec) == vec


def test_tensor_dimodule_requires_same_host():
    d1 = dimodule_from_grading(z2_eigen_grading(QQ, 2))
    d2 = dimodule_from_grading(z2_eigen_grading(QQ, 2))
    with pytest.raises(UsageError):
        tensor_dimodule(d1, d2)


def test_trivial_pair_induces_identity():
    """Trivial coaction makes R(m (x) n) = 1.m (x) n = m (x) n."""
    k = QQ
    H = catalog.s3_bialgebra(k)
    action = trivial_module(H, 2)
    comod = trivial_comodule(H, 2)
    d = LongDimodule(H, action, comod)
    assert r_from_dimodule(d) == identity_pair(k, 2)


def test_induce_from_module():
    k = PrimeField(5)
    H = z2_bialgebra(k)
    z, o = k.zero, k.one
    N = [Matrix.identity(k, 2),
         Matrix(k, [[o, z], [z, k.neg(o)]], coerce=False)]
    d = induce_from_module(N, H)
    assert d.dim == 4
    assert d.is_compatible()
    assert check_d(r_from_dimodule(d))


def test_induce_from_comodule():
    k = PrimeField(5)
    H = z2_bialgebra(k)
    z, o = k.zero, k.one
    M = Comodule(H.gen_coalgebra(), [Matrix(k, [[o, z], [z, z]]), Matrix(k, [[z, z], [z, o]])])
    d = induce_from_comodule(M, H)
    assert d.dim == 4
    assert d.is_compatible()
    assert check_d(r_from_dimodule(d))
    with pytest.raises(UsageError):
        induce_from_comodule(Comodule(z2_bialgebra(QQ).gen_coalgebra(),
                                      [Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)]), H)


# group_bialgebra and dimodule_from_grading build their results without
# run-time axiom checks; these tests rebuild them with every check on.

def cyclic_table(m):
    return [[(a + b) % m for b in range(m)] for a in range(m)]


def relabeled(labels, table, perm):
    """The same group with element a moved to position perm[a]."""
    d = len(labels)
    new_labels = [None] * d
    new_table = [[None] * d for _ in range(d)]
    for a in range(d):
        new_labels[perm[a]] = labels[a]
        for b in range(d):
            new_table[perm[a]][perm[b]] = perm[table[a][b]]
    return new_labels, new_table


def test_group_bialgebras_satisfy_the_axioms():
    s3_labels, s3_table = catalog.s3_cayley()
    groups = [(s3_labels, s3_table),
              (["g%d" % a for a in range(6)], cyclic_table(6)),
              (["e", "a", "b", "ab"], [[a ^ b for b in range(4)] for a in range(4)]),
              relabeled(s3_labels, s3_table, [3, 0, 5, 1, 4, 2])]
    for k in (QQ, PrimeField(5)):
        for labels, table in groups:
            H = group_bialgebra(k, labels, table)
            assert H.labels == labels
            FinBialgebra(k, H.labels, H.mult, H.unit, H.delta, H.counit, check=True)


def cyclic_graded_module(field, order):
    """k^3 over k[Z/order] = k[g0..], order divisible by 6: g_a acts by r^a
    on a plane (r of order 3) and by (-1)^a on a line; the plane is graded
    g(order/3), the line g(order/2)."""
    k = field
    z, o, m = k.zero, k.one, k.neg(k.one)
    H = group_bialgebra(k, ["g%d" % a for a in range(order)], cyclic_table(order))
    r = Matrix(k, [[z, m, z], [o, m, z], [z, z, m]], coerce=False)
    action = [Matrix.identity(k, 3)]
    for _ in range(order - 1):
        action.append(action[-1] @ r)
    plane = Matrix(k, [[o, z, z], [z, o, z], [z, z, z]], coerce=False)
    line = Matrix(k, [[z, z, z], [z, z, z], [z, z, o]], coerce=False)
    projectors = [Matrix.zeros(k, 3, 3)] * order
    projectors[order // 3], projectors[order // 2] = plane, line
    return GradedModule(H, action, projectors)


def conjugated(g, rows):
    """g with its action and projectors conjugated by the matrix rows."""
    S = Matrix(g.host.field, rows)
    Sinv = matrix_inverse(S)
    return GradedModule(g.host, [S @ A @ Sinv for A in g.act],
                        [S @ P @ Sinv for P in g.projectors])


def test_dimodules_from_gradings_satisfy_the_axioms():
    shear = [[1, 1, 0], [0, 1, 2], [0, 0, 1]]
    for g in (catalog.s3_graded_module(QQ), catalog.s3_graded_module(PrimeField(7)),
              cyclic_graded_module(QQ, 6), cyclic_graded_module(PrimeField(7), 6),
              conjugated(cyclic_graded_module(QQ, 6), shear),
              conjugated(catalog.s3_graded_module(PrimeField(7)), shear)):
        d = dimodule_from_grading(g)
        comod = Comodule(d.coalgebra, d.comodule.slices, check=True)
        assert LongDimodule(g.host, d.act, comod, check=True).is_compatible()
        assert check_d(r_from_dimodule(d))


def test_module_axioms_are_checked_once_for_both_makers():
    """GradedModule and LongDimodule refuse the same non-module with the
    same message."""
    k = QQ
    H = z2_bialgebra(k)
    ident = Matrix.identity(k, 2)
    doubled = ident.scale(k.coerce(2))
    z, o = k.zero, k.one
    pe = Matrix(k, [[o, z], [z, z]], coerce=False)
    pg = Matrix(k, [[z, z], [z, o]], coerce=False)
    comod = Comodule(H.gen_coalgebra(), [ident, Matrix.zeros(k, 2, 2)])
    for action in ([ident, doubled], [doubled, ident]):
        with pytest.raises(MathError) as graded:
            GradedModule(H, action, [pe, pg])
        with pytest.raises(MathError) as dimodule:
            LongDimodule(H, action, comod)
        assert str(graded.value) == str(dimodule.value)
        assert str(graded.value).startswith("not a module: ")


def test_bialgebra_axiom_enforcement():
    """A primitive element squaring to the unit breaks counit
    multiplicativity: eps(g.g) = 1 but eps(g)^2 = 0."""
    k = QQ
    z, o = k.zero, k.one
    mult = [[[o, z], [z, o]], [[z, o], [o, z]]]
    delta = [[[o, z], [z, z]], [[z, o], [o, z]]]
    with pytest.raises(UsageError, match="counit is not multiplicative"):
        FinBialgebra(k, ["e", "g"], mult, [o, z], delta, [o, z])
