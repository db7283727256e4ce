import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from deq import catalog
from deq.classify import _equation_columns
from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import (EndoPair, check_d, check_equivalent_forms, check_hopf,
                            check_pentagon, check_qybe, diagonal_solution, first_violation,
                            identity_pair, invert, lift, product_solution)
from oracles import (conjugate, fresh_form_products, fresh_form_verdicts, random_value,
                     structured_solution, tau_matrix, x_table)


def flip_pair(field, n):
    return EndoPair.from_matrix(tau_matrix(field, n))


def rand_matrix(field, rng, n):
    return Matrix(field, [[random_value(field, rng) for _ in range(n)]
                          for _ in range(n)])


def rand_pair(field, rng, n):
    return EndoPair.from_matrix(rand_matrix(field, rng, n * n))


def test_coeff_matches_matrix_entry():
    # mat[(i-1)n + (j-1)][(v-1)n + (u-1)] = x_uv^ji
    k = PrimeField(7)
    rng = random.Random(1)
    R = rand_pair(k, rng, 2)
    m = R.matrix()
    n = 2
    for u in range(1, 3):
        for v in range(1, 3):
            for j in range(1, 3):
                for i in range(1, 3):
                    row = (i - 1) * n + (j - 1)
                    col = (v - 1) * n + (u - 1)
                    assert R.coeff(u, v, j, i) == m.rows[row][col]


def triangular_scalar_table(field, a, b, c):
    """The nine nonzero coefficients x_uv^ji of catalog.triangular_solution,
    keyed (u,v,j,i), 1-based; x_22^11 = c is recovered from the product form."""
    a, b, c = field.coerce(a), field.coerce(b), field.coerce(c)
    ab, ac = field.mul(a, b), field.mul(a, c)
    return {
        (1, 1, 1, 1): ab,
        (2, 1, 1, 1): ac,
        (2, 1, 2, 1): ab,
        (1, 2, 1, 1): b,
        (2, 2, 1, 1): c,
        (2, 2, 2, 1): b,
        (1, 2, 1, 2): ab,
        (2, 2, 1, 2): ac,
        (2, 2, 2, 2): ab,
    }


def test_triangular_scalar_table_matches_kronecker():
    k = QQ
    R = catalog.triangular_solution(k, 2, 3, 5)
    table = triangular_scalar_table(k, 2, 3, 5)
    for u in range(1, 3):
        for v in range(1, 3):
            for j in range(1, 3):
                for i in range(1, 3):
                    want = table.get((u, v, j, i), k.zero)
                    assert R.coeff(u, v, j, i) == want, (u, v, j, i)


def test_identity_and_flip():
    k = QQ
    assert check_d(identity_pair(k, 2))
    assert check_qybe(flip_pair(k, 2))
    assert not check_d(flip_pair(k, 2))


def test_triangular_solution_satisfies_d_and_qybe():
    k = FunctionField(["a", "b", "c"])
    a, b, c = k.gens
    R = catalog.triangular_solution(k, a, b, c)
    assert check_d(R)
    assert check_qybe(R)


def test_rq_satisfies_d_and_hopf():
    k = FunctionField(["q"])
    (q,) = k.gens
    R = catalog.rq(k, q)
    assert check_d(R)
    assert check_hopf(R)


def test_yang_baxter_operator_qybe_not_d():
    k = FunctionField(["q"])
    (q,) = k.gens
    R = catalog.yang_baxter_operator(k, q)
    assert check_qybe(R)
    assert not check_d(R)
    R2 = catalog.yang_baxter_operator(QQ, 2)
    assert check_qybe(R2)
    assert not check_d(R2)


def test_yang_baxter_operator_rejects_zero():
    with pytest.raises(UsageError):
        catalog.yang_baxter_operator(QQ, 0)


def test_block_family_verdicts():
    k = QQ
    assert check_d(catalog.block_family(k, 1, 1, 0, 0, 1, 1))
    assert not check_d(catalog.block_family(k, 1, 1, 1, 0, 1, 1))
    assert not check_d(catalog.block_family(k, 1, 1, 0, 1, 1, 1))


def test_product_solution_iff_commuting():
    k = PrimeField(5)
    rng = random.Random(2)
    seen_true = seen_false = 0
    for _ in range(200):
        f = rand_matrix(k, rng, 2)
        g = rand_matrix(k, rng, 2)
        want = f.mul(g) == g.mul(f)
        assert check_d(product_solution(f, g)) == want
        seen_true += want
        seen_false += not want
    assert seen_true and seen_false


def test_diagonal_solution_always_solves():
    k = PrimeField(7)
    rng = random.Random(3)
    for _ in range(20):
        a = [[random_value(k, rng) for _ in range(2)] for _ in range(2)]
        assert check_d(diagonal_solution(k, a))


def test_first_violation_matches_check():
    k = PrimeField(5)
    rng = random.Random(4)
    for _ in range(50):
        R = rand_pair(k, rng, 2)
        assert (first_violation(R) is None) == check_d(R)


def coordinate_sides(field, n, x, y, i, j, k, l, p, q):
    """Both sides of the coordinate equation at 0-based (i,j,k,l,p,q), read
    off the 4-index families: sum_v x_kv^ji y_lq^vp and sum_a x_kl^ja y_aq^ip."""
    rng = range(n)
    return (field.sum(field.mul(x[k][v][j][i], y[l][q][v][p]) for v in rng),
            field.sum(field.mul(x[k][l][j][a], y[a][q][i][p]) for a in rng))


def nested_loop_violation(field, n, x, y):
    """First 1-based label whose sides differ, by six nested loops: the
    oracle for the equation table that first_violation walks."""
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    for p in rng:
                        for q in rng:
                            lhs, rhs = coordinate_sides(field, n, x, y, i, j, k, l, p, q)
                            if lhs != rhs:
                                return (i + 1, j + 1, k + 1, l + 1, p + 1, q + 1)
    return None


def test_coordinate_equation_table_states_each_equation():
    """Every row of the census columns gives, on a pair (R, S), both sides of
    the formula at its label: the L_jk factors are read from R, the R_pq
    factors from S. Verdicts cannot see a lost equation: the n^6 equations
    are linearly dependent (rank 45 of 64 at n = 2), and the last one
    follows from those before it."""
    k = PrimeField(101)
    rng = random.Random(8)
    for n in (1, 2, 3):
        R, S = rand_pair(k, rng, n), rand_pair(k, rng, n)
        xm = [v for row in R.matrix().rows for v in row]
        ym = [v for row in S.matrix().rows for v in row]
        first, second = _equation_columns(n)
        xs, ys = x_table(R), x_table(S)
        labels = list(itertools.product(range(n), repeat=6))
        assert first.shape == second.shape == (len(labels), 2 * n)
        for label, fs, ss in zip(labels, first.tolist(), second.tolist()):
            terms = [k.mul(xm[s], ym[t]) for s, t in zip(fs, ss)]
            got = k.sum(terms[:n]), k.sum(terms[n:])
            assert got == coordinate_sides(k, n, xs, ys, *label), label


def one_entry_perturbations(R, rng, count):
    m = R.matrix()
    out = []
    for _ in range(count):
        rows = [list(row) for row in m.rows]
        r, c = rng.randrange(m.nrows), rng.randrange(m.ncols)
        rows[r][c] = R.field.add(rows[r][c], R.field.one)
        out.append(EndoPair.from_rows(R.field, rows))
    return out


def test_first_violation_labels_match_the_nested_loops():
    for k in (QQ, PrimeField(5)):
        assert first_violation(catalog.yang_baxter_operator(k, 2)) == (1, 2, 1, 1, 1, 2)
        assert first_violation(catalog.block_family(k, 1, 2, 3, 4, 0, 1)) == (1, 1, 1, 2, 2, 1)
        assert first_violation(catalog.s3_graded_solution(k)) is None
    k = PrimeField(5)
    rng = random.Random(7)
    ops = [rand_pair(k, rng, 2) for _ in range(20)] + [rand_pair(k, rng, 3) for _ in range(5)]
    for sol in (catalog.triangular_solution(k, 1, 2, 3), catalog.rq(k, 3),
                catalog.projection_solution(k), catalog.s3_graded_solution(k)):
        ops += one_entry_perturbations(sol, rng, 12)
    labels = set()
    for R in ops:
        x = x_table(R)
        want = nested_loop_violation(k, R.n, x, x)
        assert first_violation(R) == want
        labels.add(want)
    assert len(labels) > 10, "the perturbations fail at many different equations"
    # n = 4: f (x) g with g a polynomial in f, and a diagonal solution, each
    # with one entry moved
    labels = set()
    for field in (QQ, k):
        f = rand_matrix(field, rng, 4)
        g = f.mul(f).add(f.scale(field.coerce(3))).add(Matrix.identity(field, 4))
        diagonal = diagonal_solution(field, [[random_value(field, rng) for _ in range(4)]
                                             for _ in range(4)])
        for sol in (product_solution(f, g), diagonal):
            assert first_violation(sol) is None
            for R in one_entry_perturbations(sol, rng, 4):
                x = x_table(R)
                want = nested_loop_violation(field, 4, x, x)
                assert first_violation(R) == want
                labels.add(want)
    assert None not in labels and len(labels) > 10
    # n = 5, past the command line's default bound of DEQ_MAX_N
    big = identity_pair(k, 5)
    for R in [big] + one_entry_perturbations(big, rng, 3):
        assert first_violation(R) == nested_loop_violation(k, 5, x_table(R), x_table(R))
    # consecutive operators summed: more inputs, failing at other equations
    for R, S in zip(ops, ops[1:]):
        if R.n == S.n:
            T = EndoPair.from_matrix(R.matrix().add(S.matrix()))
            assert first_violation(T) == nested_loop_violation(k, T.n, x_table(T), x_table(T))


def test_check_d_is_the_commuting_check_for_lifts():
    """The D-equation is R^{23} R^{12} = R^{12} R^{23}: check_d agrees with
    the lifted product compared directly."""
    k = PrimeField(5)
    rng = random.Random(5)
    for R in [rand_pair(k, rng, 2) for _ in range(30)] + [catalog.rq(k, 2)]:
        r23, r12 = lift(R, 23), lift(R, 12)
        assert check_d(R) == (r23.mul(r12) == r12.mul(r23))


FQ = FunctionField(["q"])
# (dim V, dim W, dim U) of structured solutions, by n = dim V dim W + dim U
SHAPES = {3: [(1, 2, 1)], 4: [(2, 2, 0), (1, 3, 1)], 5: [(2, 2, 1), (1, 4, 1)]}


@st.composite
def structured_cases(draw):
    """(field, shape, terms, seed, perturbed) for structured_solution: n = 3..5
    over Q and F_13, n = 3 and 4 over Q(q), where one n = 5 operator costs
    about 5 s in the lifted products on a 2-core host."""
    k = draw(st.sampled_from([QQ, PrimeField(13), FQ]))
    n = draw(st.sampled_from([3, 4] if k is FQ else [3, 4, 5]))
    return (k, draw(st.sampled_from(SHAPES[n])), draw(st.integers(1, 3)),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()))


def test_check_d_is_the_lifted_commutator_on_structured_solutions():
    """check_d is R12 R23 == R23 R12, formed from the lifts, on solutions
    with prescribed leg algebras at n = 3..5 (one over Q(q) at n = 5) and on
    their one-entry perturbations, where first_violation names the nested
    loops' first failing equation."""
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(structured_cases())
    @example((FQ, (1, 4, 1), 1, 0, False))
    def check(case):
        k, shape, terms, seed, perturbed = case
        rng = random.Random(seed)
        R = structured_solution(k, shape, terms, rng)
        if perturbed:
            R, = one_entry_perturbations(R, rng, 1)
            x = x_table(R)
            assert first_violation(R) == nested_loop_violation(k, R.n, x, x)
        r12, r23 = lift(R, 12), lift(R, 23)
        d = check_d(R)
        assert d == (r12.mul(r23) == r23.mul(r12))
        assert d or perturbed
        seen.add((R.n, d))

    check()
    assert seen == {(n, d) for n in (3, 4, 5) for d in (True, False)}


def test_lift_13_is_conjugated_12():
    k = PrimeField(5)
    rng = random.Random(6)
    R = rand_pair(k, rng, 2)
    r12 = lift(R, 12)
    r13 = lift(R, 13)
    # swap of the last two legs conjugates 12 into 13
    n = 2
    rows = []
    for k3 in range(n ** 3):
        a, b, c = k3 // (n * n), (k3 // n) % n, k3 % n
        img = (a * n + c) * n + b
        rows.append((img, k3))
    P = Matrix.zeros(k, n ** 3, n ** 3)
    prows = [list(row) for row in P.rows]
    for img, src in rows:
        prows[img][src] = k.one
    P = Matrix(k, prows)
    assert P @ r12 @ P == r13


def dense_mul(a, b):
    """Reference product: the dense triple loop, every term included."""
    k = a.field
    return Matrix(k, [[k.sum(k.mul(a.rows[i][t], b.rows[t][j]) for t in range(a.ncols))
                       for j in range(b.ncols)] for i in range(a.nrows)])


def perm_matrix(field, size, image):
    """Reference permutation matrix sending e_t to e_image(t)."""
    rows = [[field.zero] * size for _ in range(size)]
    for t in range(size):
        rows[image(t)][t] = field.one
    return Matrix(field, rows)


def reference_lifts(R):
    """R12 = R (x) 1, R23 = 1 (x) R, and R13 = p23 (R (x) 1) p23."""
    k, n = R.field, R.n
    eye = Matrix.identity(k, n)
    p23 = perm_matrix(k, n ** 3, lambda t: (t // (n * n) * n + t % n) * n + (t // n) % n)
    r12 = R.matrix().kron(eye)
    return {12: r12, 23: eye.kron(R.matrix()), 13: dense_mul(dense_mul(p23, r12), p23)}


def reference_verdicts(R):
    """d, qybe, hopf, pentagon and the T/U/W forms from dense products."""
    k, n = R.field, R.n
    tau = perm_matrix(k, n * n, lambda t: (t % n) * n + t // n)
    t123 = perm_matrix(k, n ** 3, lambda t: ((t % n) * n + t // (n * n)) * n + (t // n) % n)
    m = R.matrix()
    ops = {"R": m, "T": dense_mul(m, tau), "U": dense_mul(tau, m),
           "W": dense_mul(dense_mul(tau, m), tau)}
    lifts = {name: reference_lifts(EndoPair.from_matrix(op)) for name, op in ops.items()}

    def word(name, *slots):
        return functools.reduce(dense_mul, [lifts[name][s] for s in slots])

    return (word("R", 12, 23) == word("R", 23, 12),
            word("R", 12, 13, 23) == word("R", 23, 13, 12),
            word("R", 12, 23) == word("R", 23, 13, 12),
            word("R", 12, 13, 23) == word("R", 23, 12),
            word("T", 12, 13) == dense_mul(word("T", 23, 13), t123),
            word("U", 13, 23) == dense_mul(t123, word("U", 13, 12)),
            word("W", 12, 23) == word("W", 23, 12))


def sparse_pair(field, rng, n):
    return EndoPair.from_matrix(Matrix(field, [
        [random_value(field, rng) if rng.random() < 0.3 else field.zero for _ in range(n * n)]
        for _ in range(n * n)]))


def test_lifts_match_kron_and_conjugation_references():
    k = PrimeField(13)
    rng = random.Random(12)
    for n in (1, 2, 3):
        for R in (rand_pair(k, rng, n), sparse_pair(k, rng, n)):
            want = reference_lifts(R)
            for slot in (12, 13, 23):
                assert lift(R, slot) == want[slot], (n, slot)
                assert lift(R, slot) is lift(R, slot)


def test_verdicts_from_shared_products_match_direct_formulas():
    rng = random.Random(13)
    k = PrimeField(5)
    ops = [catalog.triangular_solution(QQ, 1, 2, 3), catalog.rq(QQ, 3),
           catalog.projection_solution(QQ), catalog.yang_baxter_operator(QQ, 2),
           catalog.block_family(QQ, 1, 1, 1, 0, 1, 1), flip_pair(k, 2),
           catalog.s3_graded_solution(PrimeField(13))]
    ops += [sparse_pair(k, rng, 2) for _ in range(24)] + [rand_pair(k, rng, 2) for _ in range(4)]
    # F_2 operators numbered by their 16 row-major bits: Hopf or pentagon
    # solutions that fail the equation, where word order decides the verdict
    f2 = PrimeField(2)
    ops += [EndoPair.from_rows(f2, [[(serial >> (15 - 4 * r - c)) & 1 for c in range(4)]
                                    for r in range(4)]) for serial in (2, 65, 97, 130, 138)]
    seen = set()
    for R in ops:
        # the order deq check asks in, each verdict reading the shared products
        forms = check_equivalent_forms(R)
        got = (forms.d, check_qybe(R), check_hopf(R), check_pentagon(R)) + tuple(forms[1:])
        want = reference_verdicts(R)
        assert got == want, R
        assert (check_d(R), check_qybe(R)) == want[:2]
        seen.update(enumerate(want))
    assert seen == {(i, v) for i in range(7) for v in (True, False)}


def test_lift_rejects_bad_slot():
    with pytest.raises(UsageError):
        lift(identity_pair(QQ, 2), 21)


def test_equivalent_forms_agree_on_randoms():
    k = PrimeField(5)
    rng = random.Random(7)
    for _ in range(60):
        R = rand_pair(k, rng, 2)
        forms = check_equivalent_forms(R)
        assert forms.d == forms.form_t == forms.form_u == forms.form_w


def test_equivalent_forms_symbolic_triangular_solution():
    k = FunctionField(["a", "b", "c"])
    a, b, c = k.gens
    forms = check_equivalent_forms(catalog.triangular_solution(k, a, b, c))
    assert forms == (True, True, True, True)


FQ = FunctionField(["q"])
FORM_FIELDS = [PrimeField(5), PrimeField(13), QQ, FQ]


@st.composite
def form_cases(draw, k, n):
    """(kind, R) over k at n: a dense or sparse operator, mostly a
    non-solution, or a diagonal or f (x) (c0 + c1 f) solution. Over Q(q) an
    entry is a + b q, over (1 + q) only in the sparse kind and less often at
    n = 3, which keeps the products over denominators few and small."""
    kind = draw(st.sampled_from(["dense", "sparse", "diagonal", "product"]))

    def entry(may_vanish=False):
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
        if may_vanish and draw(st.integers(0, 2)):
            return k.zero
        if k is FQ:
            value = k.coerce(a) + k.coerce(b) * k.gens[0]
            over = kind == "sparse" and draw(st.integers(0, n - 1)) == 0
            return value / (k.one + k.gens[0]) if over else value
        return k.coerce(a) / k.coerce(c or 1) if k is QQ else k.coerce(a)

    if kind in ("dense", "sparse"):
        d = n * n
        return kind, EndoPair.from_rows(k, [[entry(kind == "sparse") for _ in range(d)]
                                            for _ in range(d)])
    if kind == "diagonal":
        return kind, diagonal_solution(k, [[entry() for _ in range(n)] for _ in range(n)])
    f = Matrix(k, [[entry(True) for _ in range(n)] for _ in range(n)])
    g = Matrix.identity(k, n).scale(entry()).add(f.scale(entry()))
    return kind, product_solution(f, g)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", FORM_FIELDS, ids=["F5", "F13", "Q", "Qq"])
def test_form_verdicts_equal_those_of_the_fresh_operators(k, n):
    """The T, U and W verdicts of check_equivalent_forms are the ones read
    off T12 T13, T23 T13, U13 U23, U13 U12, W12 W23 and W23 W12 formed from
    T, U and W built as operators of their own."""
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(form_cases(k, n))
    def check(case):
        kind, R = case
        forms = check_equivalent_forms(R)
        assert (forms.form_t, forms.form_u, forms.form_w) == fresh_form_verdicts(
            R.n, fresh_form_products(R))
        if kind in ("diagonal", "product"):
            assert all(forms)
    check()


@st.composite
def invertible_matrices(draw, k, n):
    """u = L U over k: L unit lower triangular with entries a + b q over Q(q),
    U upper triangular with integer entries and a nonzero diagonal. Its
    determinant is a nonzero constant, so over Q(q) the inverse has
    polynomial entries and the conjugate keeps R's denominators."""
    def entry(symbolic):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return k.coerce(a) + k.coerce(b) * k.gens[0] if symbolic and k is FQ else k.coerce(a)
    diagonal = [k.coerce(draw(st.sampled_from([-2, -1, 1, 2, 3]))) for _ in range(n)]
    low = Matrix(k, [[entry(True) if c < r else k.one if c == r else k.zero for c in range(n)]
                     for r in range(n)], coerce=False)
    up = Matrix(k, [[entry(False) if c > r else diagonal[r] if c == r else k.zero
                     for c in range(n)] for r in range(n)], coerce=False)
    return low.mul(up)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", FORM_FIELDS, ids=["F5", "F13", "Q", "Qq"])
def test_conjugation_and_flips_preserve_verdict(k, n):
    """check_d is invariant under R -> (u (x) u) R (u (x) u)^-1 for invertible
    u and under R -> W = tau R tau, W built as an operator. Dense products
    of polynomials over Q(q) at n = 3 take about a second, so fewer cases
    run there."""
    tau = tau_matrix(k, n)

    @settings(derandomize=True, deadline=None, max_examples=4 if (k, n) == (FQ, 3) else 10)
    @given(form_cases(k, n), invertible_matrices(k, n))
    def check(case, u):
        _, R = case
        want = check_d(R)
        assert check_d(conjugate(R, u)) == want
        assert check_d(EndoPair.from_matrix(tau.mul(R.matrix()).mul(tau))) == want
    check()


def test_conjugate_rejects_singular():
    k = QQ
    with pytest.raises(UsageError):
        conjugate(identity_pair(k, 2), Matrix(k, [[1, 1], [1, 1]]))


def test_invert_is_inverse_or_none():
    k = PrimeField(5)
    rng = random.Random(9)
    seen = 0
    for _ in range(40):
        R = rand_pair(k, rng, 2)
        S = invert(R)
        if S is None:
            assert matrix_inverse(R.matrix()) is None
            continue
        seen += 1
        assert R.matrix().mul(S.matrix()) == Matrix.identity(k, 4)
    assert seen


def test_pentagon_flip_of_hopf():
    # W = tau R tau satisfies the pentagon equation iff R satisfies Hopf
    k = PrimeField(5)
    rng = random.Random(10)
    for _ in range(30):
        R = rand_pair(k, rng, 2)
        tau = tau_matrix(k, 2)
        W = EndoPair.from_matrix(tau @ R.matrix() @ tau)
        assert check_pentagon(W) == check_hopf(R)


def test_verdicts_answer_past_the_command_line_size_bound(monkeypatch):
    """DEQ_MAX_N is the command line's bound (deq.cli.guard_n): with it set
    to 2, every verdict still answers at n = 5, from its argument alone."""
    monkeypatch.setenv("DEQ_MAX_N", "2")
    R = identity_pair(QQ, 5)
    assert lift(R, 12).nrows == 125
    for check in (check_d, check_qybe, check_hopf, check_pentagon):
        assert check(R)


def test_from_rows_and_field_mismatch():
    k = QQ
    R = EndoPair.from_rows(k, [[1, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    assert R == identity_pair(k, 2)
    with pytest.raises(UsageError):
        EndoPair.from_rows(k, [[1, 0], [0, 1], [0, 0]])
