import random
from fractions import Fraction

import pytest

from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.linalg import Matrix, matrix_inverse, rref
from oracles import kernel_basis, matrix_sub, random_value, solve_linear, span_and_membership


def rand_matrix(field, rng, nrows, ncols):
    return Matrix(field, [[random_value(field, rng) for _ in range(ncols)]
                          for _ in range(nrows)])


def test_matrix_basic_ops():
    k = QQ
    a = Matrix(k, [[1, 2], [3, 4]])
    b = Matrix(k, [[0, 1], [1, 0]])
    assert matrix_sub(a.add(b), b) == a
    assert a.mul(Matrix.identity(k, 2)) == a
    assert (a @ b) == Matrix(k, [[2, 1], [4, 3]])
    assert a.transpose().transpose() == a
    assert a.col(1) == [k.coerce(2), k.coerce(4)]


def test_matmul_dimension_mismatch():
    k = QQ
    a = Matrix(k, [[1, 2]])
    with pytest.raises(UsageError):
        a.mul(a)


def test_kron_mixed_product():
    # (A (x) B)(C (x) D) = AC (x) BD
    k = PrimeField(7)
    rng = random.Random(3)
    for _ in range(10):
        a, b, c, d = (rand_matrix(k, rng, 2, 2) for _ in range(4))
        assert a.kron(b).mul(c.kron(d)) == a.mul(c).kron(b.mul(d))


def reference_mul(a, b):
    """The dense triple loop, every term included."""
    k = a.field
    return [[k.sum(k.mul(a.rows[i][t], b.rows[t][j]) for t in range(a.ncols))
             for j in range(b.ncols)] for i in range(a.nrows)]


def sparse_matrix(field, rng, nrows, ncols):
    """About 70% zeros, with the first row and the last column all zero."""
    return Matrix(field, [[random_value(field, rng) if i and j < ncols - 1 and rng.random() < 0.3
                           else field.zero for j in range(ncols)] for i in range(nrows)])


def test_mul_skipping_zeros_equals_the_dense_triple_loop():
    rng = random.Random(11)
    for k in (QQ, PrimeField(13), FunctionField(["a"])):
        for _ in range(12):
            m, t, n = (rng.randint(1, 6) for _ in range(3))
            a, b = sparse_matrix(k, rng, m, t), sparse_matrix(k, rng, t, n)
            assert a.mul(b).rows == reference_mul(a, b)
        dense, sparse = rand_matrix(k, rng, 3, 4), sparse_matrix(k, rng, 4, 2)
        assert dense.mul(sparse).rows == reference_mul(dense, sparse)
        assert sparse.transpose().mul(dense.transpose()).rows == reference_mul(
            sparse.transpose(), dense.transpose())
        assert Matrix.zeros(k, 2, 3).mul(dense).is_zero()


def assert_integral_product_is_exact(a, b):
    """a.mul(b), computed on the field's integral form, equals the dense
    triple loop in field arithmetic, and every entry is a valid field value:
    Matrix.mul's results are not checked again at run time."""
    got = a.mul(b)
    assert got.rows == reference_mul(a, b)
    for row in got.rows:
        for v in row:
            assert a.field.validate(v) is v


# denominators: mixed, large primes (2^61 - 1 among them) and 1
DENOMINATORS = (1, 2, 3, 12, 97, 999_983, 1_000_003, 2 ** 61 - 1)


def rational(rng):
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(DENOMINATORS))


def test_integral_product_over_q_with_mixed_and_large_denominators():
    rng = random.Random(17)
    for _ in range(20):
        m, t, n = (rng.randint(1, 6) for _ in range(3))
        a = Matrix(QQ, [[rational(rng) if rng.random() < 0.6 else 0 for _ in range(t)]
                        for _ in range(m)])
        b = Matrix(QQ, [[rational(rng) if rng.random() < 0.6 else 0 for _ in range(n)]
                        for _ in range(t)])
        assert_integral_product_is_exact(a, b)
    # terms that cancel: x y - y x, and (x, y) against its own orthogonal
    x, y = Fraction(-3, 1_000_003), Fraction(5, 2 ** 61 - 1)
    a = Matrix(QQ, [[x, y], [y, -x]])
    b = Matrix(QQ, [[y, x], [-x, y]])
    assert_integral_product_is_exact(a, b)
    assert a.mul(b).rows[0][0] == 0 and a.mul(b).rows[1][1] == 0
    assert a.mul(b).rows[0][0] is QQ.zero


def test_integral_product_over_a_large_prime_field():
    # sums of unreduced products pass 64 bits before their one reduction
    k = PrimeField(2 ** 61 - 1)
    rng = random.Random(19)
    top = Matrix(k, [[k.p - 1 - rng.randrange(3) for _ in range(8)] for _ in range(5)])
    assert_integral_product_is_exact(top, top.transpose())
    for _ in range(10):
        a, b = rand_matrix(k, rng, 4, 6), sparse_matrix(k, rng, 6, 3)
        assert_integral_product_is_exact(a, b)


def test_integral_product_over_q_vars_with_distinct_denominators():
    k = FunctionField(["a", "b"])
    a, b = k.gens
    rng = random.Random(23)
    pool = [(i + a) / (b + j) for i in range(-2, 3) for j in range(1, 5)] + [k.zero] * 6
    for _ in range(6):
        m, t, n = (rng.randint(1, 4) for _ in range(3))
        x = Matrix(k, [[rng.choice(pool) for _ in range(t)] for _ in range(m)])
        y = Matrix(k, [[rng.choice(pool) for _ in range(n)] for _ in range(t)])
        assert_integral_product_is_exact(x, y)


def polynomial_matrix(k, rng, nrows, ncols):
    """Entries of denominator 1 over Q(a,b): small integer polynomials of
    degree up to 2, about a third of them zero."""
    a, b = k.gens
    monomials = [k.one, a, b, a * b, a * a]

    def entry():
        if rng.random() < 0.35:
            return k.zero
        return sum((k.coerce(rng.randint(-4, 4)) * m for m in monomials), k.zero)
    return Matrix(k, [[entry() for _ in range(ncols)] for _ in range(nrows)])


def assert_same_fractions(got, want):
    """Entry by entry equal, with equal hashes, to the FracElement results."""
    assert got.rows == want
    for row, wrow in zip(got.rows, want):
        for v, w in zip(row, wrow):
            assert hash(v) == hash(w)


def test_q_vars_products_of_polynomial_entries():
    """Products of two matrices whose entries all have denominator 1: each
    nonzero entry is the canonical fraction sympy's own constructor gives,
    and chains of two and three products equal the triple-loop oracle."""
    k = FunctionField(["a", "b"])
    rng = random.Random(29)
    for _ in range(8):
        m, t, n, r = (rng.randint(1, 4) for _ in range(4))
        x, y, z = (polynomial_matrix(k, rng, *shape) for shape in ((m, t), (t, n), (n, r)))
        xy = x.mul(y)
        assert_same_fractions(xy, reference_mul(x, y))
        assert_integral_product_is_exact(x, y)
        for row in xy.rows:
            for v in row:
                canonical = k.ring.field.new(v.numer, v.denom)
                assert (v.numer, v.denom) == (canonical.numer, canonical.denom)
                assert v == canonical and hash(v) == hash(canonical)
        oracle_xy = Matrix(k, reference_mul(x, y), coerce=False)
        assert_same_fractions(xy.mul(z), reference_mul(oracle_xy, z))
        oracle_xyz = Matrix(k, reference_mul(oracle_xy, z), coerce=False)
        w = polynomial_matrix(k, rng, r, 2)
        assert_same_fractions(xy.mul(z).mul(w), reference_mul(oracle_xyz, w))


def test_q_vars_product_of_a_denominator_and_a_polynomial_factor():
    """A factor with a denominator times a polynomial factor, in either
    order, equals the triple-loop oracle."""
    k = FunctionField(["a", "b"])
    a, b = k.gens
    rng = random.Random(31)
    for _ in range(6):
        m, t, n = (rng.randint(1, 4) for _ in range(3))
        poly = polynomial_matrix(k, rng, t, n)
        rows = polynomial_matrix(k, rng, m, t).rows
        rows[rng.randrange(m)][rng.randrange(t)] = (a - 1) / (b + 2)
        frac = Matrix(k, rows)
        assert_same_fractions(frac.mul(poly), reference_mul(frac, poly))
        assert_integral_product_is_exact(frac, poly)
        back = poly.transpose()
        assert_same_fractions(back.mul(frac.transpose()),
                              reference_mul(back, frac.transpose()))


def test_construction_still_checks_entries_from_outside():
    other = FunctionField(["b"])
    for k, bad in ((PrimeField(13), 13), (PrimeField(13), -1), (QQ, 1),
                   (FunctionField(["a"]), other.gens[0])):
        with pytest.raises(UsageError):
            Matrix(k, [[k.one, bad]], coerce=False)


def test_rref_is_reduced_and_idempotent():
    k = QQ
    rng = random.Random(5)
    for _ in range(20):
        rows = [[random_value(k, rng) for _ in range(4)] for _ in range(3)]
        red, pivots = rref(rows, k)
        for r, p in zip(red, pivots):
            assert r[p] == k.one
            for r2 in red:
                if r2 is not r:
                    assert k.is_zero(r2[p])
        red2, pivots2 = rref([list(r) for r in red], k)
        assert red2 == red and pivots2 == pivots


def test_rref_free_columns_give_the_kernel():
    """Each free column f of the reduced form gives the null vector with 1 at
    f, -row[f] at each pivot and 0 elsewhere (`kernel_basis`); rank-nullity
    holds."""
    k = PrimeField(5)
    rng = random.Random(9)
    for _ in range(20):
        a = rand_matrix(k, rng, 2, 4)
        _, pivots = rref([list(r) for r in a.rows], k)
        kernel = kernel_basis(a.rows, k, 4)
        assert len(pivots) + len(kernel) == 4
        for v in kernel:
            assert a.apply(v) == [k.zero] * 2


def test_rref_column_order():
    k = QQ
    rows = [[1, 1, 0], [0, 1, 1]]
    rows = [[k.coerce(v) for v in row] for row in rows]
    _, pivots_default = rref([list(r) for r in rows], k)
    _, pivots_rev = rref([list(r) for r in rows], k, col_order=[2, 1, 0])
    assert pivots_default == [0, 1]
    assert pivots_rev == [2, 1]


def test_solve_linear_consistency():
    k = PrimeField(11)
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(k, rng, 3, 3)
        x = [random_value(k, rng) for _ in range(3)]
        b = a.apply(x)
        got = solve_linear(a, b)
        assert got is not None
        assert a.apply(got) == b


def test_solve_linear_unsolvable():
    k = QQ
    a = Matrix(k, [[1, 0], [1, 0]])
    assert solve_linear(a, [k.one, k.zero]) is None


def test_matrix_inverse_round_trip():
    k = QQ
    rng = random.Random(13)
    found = 0
    while found < 10:
        a = rand_matrix(k, rng, 3, 3)
        inv = matrix_inverse(a)
        if inv is None:
            continue
        found += 1
        assert a.mul(inv) == Matrix.identity(k, 3)
        assert inv.mul(a) == Matrix.identity(k, 3)
    assert matrix_inverse(Matrix(k, [[1, 2], [2, 4]])) is None


def full_rref_inverse(a):
    """A^{-1} read off the rref of [A | I] over all of its 2n columns, or
    None: the reference for matrix_inverse, which pivots in A's columns only."""
    k, n = a.field, a.nrows
    aug = [row + irow for row, irow in zip(a.rows, Matrix.identity(k, n).rows)]
    rows, pivots = rref(aug, k)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(k, [row[n:] for row in rows])


def test_matrix_inverse_agrees_with_the_full_rref():
    """Random invertible and singular matrices (the last row a combination
    of the others) over Q, F_13 and Q(a,b): the same inverse, the same None."""
    rng = random.Random(29)
    for k in (QQ, PrimeField(13), FunctionField(["a", "b"])):
        verdicts = set()
        for trial in range(24):
            n = rng.randint(1, 3)
            rows = rand_matrix(k, rng, n, n).rows
            if trial % 2:
                combination = [k.zero] * n
                for row in rows[:-1]:
                    c = random_value(k, rng)
                    combination = [k.add(x, k.mul(c, y)) for x, y in zip(combination, row)]
                rows[-1] = combination
            a = Matrix(k, rows)
            want = full_rref_inverse(a)
            assert matrix_inverse(a) == want, (k, rows)
            verdicts.add(want is None)
        assert verdicts == {True, False}, k


def test_span_and_membership():
    k = QQ
    vectors = [[k.coerce(v) for v in row]
               for row in [[1, 0, 1], [0, 1, 1], [1, 1, 2]]]
    basis, contains = span_and_membership(vectors, k)
    assert len(basis) == 2
    assert contains([k.coerce(v) for v in [2, 3, 5]])
    assert not contains([k.coerce(v) for v in [0, 0, 1]])
