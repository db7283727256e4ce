"""The dimodule and D-map formulas in matrix form against their index-loop
forms.

Each `loop_*` function below is the coordinate loop that the library
replaced by products, Kronecker products and linear combinations of the
comodule's slices; it reads the coaction as the nested table
rho[l][w][a], the coefficient of m_w (x) e_a in rho(m_l). The two forms
must agree exactly over Q, F_13 and Q(q), on the canonical dimodules of
the catalog solutions and of all 100 solutions at (n, p) = (2, 2), on
group gradings, and on inputs that fail each condition."""

import pytest

from deq import catalog
from deq.classify import endo_from_digits, enumerate_solutions
from deq.coalg import BilinearForm, Comodule, convolve, counit_form, grouplike_coalgebra
from deq.dimodule import (FinBialgebra, LongDimodule, dimodule_from_grading,
                          r_from_dimodule, tensor_dimodule, trivial_module)
from deq.dmap import is_dmap, sigma_from_r, strong_dmap_from_symmetric
from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.frt import d_bialgebra
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import diagonal_solution, identity_pair

from oracles import (conjugate, endo_from_table, induce_from_comodule, induce_from_module,
                     kron_r_from_dimodule, loop_compat_tables, matrix_sub, pushforward,
                     r_sigma, rho_of, standard_comodule, trivial_comodule)
from test_dimodule import conjugated, cyclic_graded_module, z2_eigen_grading


def loop_r_from_dimodule(d):
    k, n, rho = d.field, d.dim, rho_of(d.comodule)
    x = [[[[k.sum(k.mul(rho[u][j][a], d.act[a].rows[i][v]) for a in range(len(d.act)))
            for i in range(n)] for j in range(n)] for v in range(n)] for u in range(n)]
    return endo_from_table(k, n, x)


def loop_r_sigma(comodule, dm):
    k, n, d = dm.coalgebra.field, comodule.dim, dm.coalgebra.dim
    Q = dm.quotient
    pulled = dm.sigma.table if Q is None else \
        Matrix(k, dm.sigma.table, coerce=False).mul(Q.proj).rows
    rho = rho_of(comodule)
    x = [[[[k.zero for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    acc = k.zero
                    for a in range(d):
                        ra = rho[v][i][a]
                        if k.is_zero(ra):
                            continue
                        for b in range(d):
                            rb = rho[u][j][b]
                            if not k.is_zero(rb):
                                acc = k.add(acc, k.mul(k.mul(ra, rb), pulled[a][b]))
                    x[u][v][j][i] = acc
    return endo_from_table(k, n, x)


def loop_convolve(phi, psi):
    C, D, k = phi.left, phi.right, phi.left.field
    out = [[k.zero] * D.dim for _ in range(C.dim)]
    for a in range(C.dim):
        for b in range(D.dim):
            acc = k.zero
            for a1 in range(C.dim):
                for a2 in range(C.dim):
                    ma = C.mu[a][a1][a2]
                    if k.is_zero(ma):
                        continue
                    for b1 in range(D.dim):
                        for b2 in range(D.dim):
                            mb = D.mu[b][b1][b2]
                            if not k.is_zero(mb):
                                term = k.mul(k.mul(ma, mb),
                                             k.mul(phi.table[a1][b1], psi.table[a2][b2]))
                                acc = k.add(acc, term)
            out[a][b] = acc
    return out


def loop_is_dmap(C, Q, table):
    k = C.field
    qdim = C.dim if Q is None else Q.dim
    pi = (Matrix.identity(k, C.dim) if Q is None else Q.proj.transpose()).rows
    for a in range(C.dim):
        row = C.mu[a]
        for b in range(qdim):
            lhs = [k.zero] * qdim
            rhs = [k.zero] * qdim
            for a1 in range(C.dim):
                for a2 in range(C.dim):
                    m = row[a1][a2]
                    if k.is_zero(m):
                        continue
                    c1 = k.mul(m, table[a1][b])
                    if not k.is_zero(c1):
                        lhs = [k.add(lhs[t], k.mul(c1, pi[a2][t])) for t in range(qdim)]
                    c2 = k.mul(m, table[a2][b])
                    if not k.is_zero(c2):
                        rhs = [k.add(rhs[t], k.mul(c2, pi[a1][t])) for t in range(qdim)]
            if lhs != rhs:
                return False
    return True


def loop_comodule_failure(C, m, rho):
    """The first failing comodule axiom, or None."""
    k, d = C.field, C.dim
    for l in range(m):
        for w in range(m):
            want = k.one if w == l else k.zero
            if k.sum(k.mul(rho[l][w][a], C.counit[a]) for a in range(d)) != want:
                return "counit"
    for l in range(m):
        for w2 in range(m):
            for b in range(d):
                for a in range(d):
                    lhs = k.sum(k.mul(rho[l][w][a], rho[w][w2][b]) for w in range(m))
                    rhs = k.sum(k.mul(rho[l][w2][c], C.mu[c][b][a]) for c in range(d))
                    if lhs != rhs:
                        return "coassociativity"
    return None


def loop_tensor(M, N):
    """(action rows, rho) of M (x) N."""
    H = M.host
    k, dH = H.field, H.dim
    dm, dn = M.dim, N.dim
    dim = dm * dn
    action = []
    for a in range(dH):
        rows = [[k.zero] * dim for _ in range(dim)]
        for p in range(dH):
            for q in range(dH):
                c = H.delta[a][p][q]
                if k.is_zero(c):
                    continue
                AP, AQ = M.act[p], N.act[q]
                for i in range(dm):
                    for l in range(dm):
                        m1 = AP.rows[i][l]
                        if k.is_zero(m1):
                            continue
                        for j in range(dn):
                            for w in range(dn):
                                m2 = AQ.rows[j][w]
                                if not k.is_zero(m2):
                                    rows[i * dn + j][l * dn + w] = k.add(
                                        rows[i * dn + j][l * dn + w],
                                        k.mul(c, k.mul(m1, m2)))
        action.append(rows)
    mrho, nrho = rho_of(M.comodule), rho_of(N.comodule)
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for l in range(dm):
        for w in range(dn):
            for i in range(dm):
                for j in range(dn):
                    for a in range(dH):
                        ra = mrho[l][i][a]
                        if k.is_zero(ra):
                            continue
                        for b in range(dH):
                            rb = nrho[w][j][b]
                            if k.is_zero(rb):
                                continue
                            w2 = k.mul(ra, rb)
                            for c in range(dH):
                                m = H.mult[a][b][c]
                                if not k.is_zero(m):
                                    rho[l * dn + w][i * dn + j][c] = k.add(
                                        rho[l * dn + w][i * dn + j][c], k.mul(w2, m))
    return action, rho


def loop_induce_from_module(N_action, H):
    k, dH = H.field, H.dim
    dn = N_action[0].nrows
    dim = dn * dH
    action = []
    for a in range(dH):
        rows = [[k.zero] * dim for _ in range(dim)]
        for i in range(dn):
            for j in range(dn):
                for b in range(dH):
                    rows[i * dH + b][j * dH + b] = N_action[a].rows[i][j]
        action.append(rows)
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for j in range(dn):
        for b in range(dH):
            for p in range(dH):
                for q in range(dH):
                    rho[j * dH + b][j * dH + p][q] = k.add(
                        rho[j * dH + b][j * dH + p][q], H.delta[b][p][q])
    return action, rho


def loop_induce_from_comodule(M, H):
    k, dH = H.field, H.dim
    dm = M.dim
    dim = dH * dm
    action = []
    for a in range(dH):
        rows = [[k.zero] * dim for _ in range(dim)]
        for c in range(dH):
            for b in range(dH):
                for i in range(dm):
                    rows[b * dm + i][c * dm + i] = H.mult[a][c][b]
        action.append(rows)
    mrho = rho_of(M)
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for c in range(dH):
        for l in range(dm):
            for w in range(dm):
                for a in range(dH):
                    rho[c * dm + l][c * dm + w][a] = mrho[l][w][a]
    return action, rho


FQ = FunctionField(["q"])
FIELDS = [(QQ, QQ.coerce(3)), (PrimeField(13), 3), (FQ, FQ.gens[0])]


def catalog_solutions(k, q):
    """Catalog solutions with a parameter q, plus a conjugated diagonal one."""
    shear = Matrix(k, [[1, 1], [0, 1]])
    return [catalog.triangular_solution(k, q, 1, 2), catalog.rq(k, q),
            catalog.projection_solution(k, q, 2), catalog.s3_graded_solution(k),
            identity_pair(k, 2), diagonal_solution(k, [[1, q], [2, 3]]),
            conjugate(diagonal_solution(k, [[1, 2], [q, 4]]), shear)]


def s3_function_bialgebra(k):
    """k^S3, the dual of k[S3]: the delta functions multiply as orthogonal
    idempotents and Delta(d_g) = sum over ab = g of d_a (x) d_b, which is not
    cocommutative."""
    labels, table = catalog.s3_cayley()
    rng = range(len(labels))
    z, o = k.zero, k.one
    mult = [[[o if a == b == c else z for c in rng] for b in rng] for a in rng]
    delta = [[[o if table[a][b] == g else z for b in rng] for a in rng] for g in rng]
    return FinBialgebra(k, ["d_" + s for s in labels], mult, [o] * len(labels), delta,
                        [o if g == 0 else z for g in rng])


def f2_solutions():
    return [endo_from_digits(2, 2, sol) for sol in enumerate_solutions(2, 2).solutions]


def gradings(k):
    shear = [[1, 1, 0], [0, 1, 2], [0, 0, 1]]
    return [catalog.s3_graded_module(k), cyclic_graded_module(k, 6),
            conjugated(catalog.s3_graded_module(k), shear), z2_eigen_grading(k, 3)]


def assert_dimodule_forms_agree(d):
    """r_from_dimodule against its loop and sum_a A_a (x) P_a, and the
    compatibility tables, every (a, l) verdict and the comodule axioms
    against their loops."""
    assert r_from_dimodule(d) == loop_r_from_dimodule(d) == kron_r_from_dimodule(d)
    rho = rho_of(d.comodule)
    for a in range(len(d.act)):
        for l in range(d.dim):
            lhs, rhs = loop_compat_tables(d.act[a], rho, l)
            assert d.pair_compatible(a, l) == (lhs == rhs)
    assert loop_comodule_failure(d.coalgebra, d.dim, rho) is None
    Comodule(d.coalgebra, d.comodule.slices, check=True)


def assert_dmap_forms_agree(R):
    """r_sigma, is_dmap and convolve against their loops for sigma_from_r(R)."""
    dm = sigma_from_r(R)
    C, Q, table = dm.coalgebra, dm.quotient, dm.sigma.table
    std = standard_comodule(C)
    assert r_sigma(std, dm) == loop_r_sigma(std, dm) == R
    assert is_dmap(C, Q, dm.sigma) and loop_is_dmap(C, Q, table)
    unit = counit_form(C, Q)
    for phi, psi in ((dm.sigma, unit), (unit, dm.sigma), (dm.sigma, dm.sigma)):
        assert convolve(phi, psi).table == loop_convolve(phi, psi)
    return dm


@pytest.mark.parametrize("k,q", FIELDS, ids=["Q", "F13", "Qq"])
def test_canonical_dimodules_of_catalog_solutions(k, q):
    for R in catalog_solutions(k, q):
        d = d_bialgebra(R).canonical_dimodule()
        assert_dimodule_forms_agree(d)
        assert r_from_dimodule(d) == R
        assert_dmap_forms_agree(R)


def test_canonical_dimodules_of_all_f2_solutions():
    solutions = f2_solutions()
    assert len(solutions) == 100
    for R in solutions:
        assert_dimodule_forms_agree(d_bialgebra(R).canonical_dimodule())
        assert_dmap_forms_agree(R)


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FQ], ids=["Q", "F13", "Qq"])
def test_gradings_tensor_products_and_inductions(k):
    for g in gradings(k):
        d = dimodule_from_grading(g)
        assert_dimodule_forms_agree(d)
    d = dimodule_from_grading(z2_eigen_grading(k, 2))
    H = d.host
    for made, (action, rho) in ((tensor_dimodule(d, d), loop_tensor(d, d)),
                                (induce_from_module(d.act, H), loop_induce_from_module(d.act, H)),
                                (induce_from_comodule(d.comodule, H),
                                 loop_induce_from_comodule(d.comodule, H))):
        assert [A.rows for A in made.act] == action
        assert rho_of(made.comodule) == rho
        assert_dimodule_forms_agree(made)
    s3 = dimodule_from_grading(catalog.s3_graded_module(k))
    made = tensor_dimodule(s3, s3)
    action, rho = loop_tensor(s3, s3)
    assert [A.rows for A in made.act] == action and rho_of(made.comodule) == rho
    # k[S3] is not commutative and k^S3 not cocommutative: index order shows
    for H in (catalog.s3_bialgebra(k), s3_function_bialgebra(k)):
        trivial = LongDimodule(H, trivial_module(H, 1), trivial_comodule(H, 1))
        induced = induce_from_module(trivial.act, H)
        for made, (action, rho) in (
                (induced, loop_induce_from_module(trivial.act, H)),
                (induce_from_comodule(trivial.comodule, H),
                 loop_induce_from_comodule(trivial.comodule, H)),
                (tensor_dimodule(induced, trivial), loop_tensor(induced, trivial)),
                (tensor_dimodule(trivial, induced), loop_tensor(trivial, induced))):
            assert [A.rows for A in made.act] == action
            assert rho_of(made.comodule) == rho
            assert_dimodule_forms_agree(made)
    # two nontrivial factors over the non-cocommutative host
    made = tensor_dimodule(induced, induced)
    action, rho = loop_tensor(induced, induced)
    assert [A.rows for A in made.act] == action and rho_of(made.comodule) == rho


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FQ], ids=["Q", "F13", "Qq"])
def test_incompatible_pairs_agree_pair_by_pair(k):
    """The S3 grading with its action conjugated by a shear and its
    projectors kept: some (a, l) pairs fail, and each verdict agrees with
    the loops."""
    g = catalog.s3_graded_module(k)
    S = Matrix(k, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    Sinv = matrix_inverse(S)
    action = [S @ A @ Sinv for A in g.act]
    comod = Comodule(g.host.gen_coalgebra(), g.projectors)
    d = LongDimodule(g.host, action, comod, check=False)
    rho = rho_of(comod)
    verdicts = []
    for a in range(len(action)):
        for l in range(d.dim):
            lhs, rhs = loop_compat_tables(action[a], rho, l)
            verdicts.append(lhs == rhs)
            assert d.pair_compatible(a, l) == (lhs == rhs)
    assert not all(verdicts) and any(verdicts)
    assert not d.is_compatible()


@pytest.mark.parametrize("k,q", FIELDS, ids=["Q", "F13", "Qq"])
def test_perturbed_sigma_agrees_with_the_loop(k, q):
    """Adding 1 to one entry of sigma: is_dmap and the loop agree on every
    such perturbation, and some of them are not D-maps."""
    verdicts = []
    for R in (catalog.triangular_solution(k, q, 1, 2), catalog.rq(k, q),
              diagonal_solution(k, [[1, q], [2, 3]])):
        dm = sigma_from_r(R)
        C, Q = dm.coalgebra, dm.quotient
        for a in range(C.dim):
            for b in range(Q.dim):
                table = [list(row) for row in dm.sigma.table]
                table[a][b] = k.add(table[a][b], k.one)
                verdict = is_dmap(C, Q, BilinearForm(C, Q, table))
                assert verdict == loop_is_dmap(C, Q, table)
                verdicts.append(verdict)
    assert not all(verdicts)


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FQ], ids=["Q", "F13", "Qq"])
def test_strong_dmaps_regenerate_through_pushforwards(k):
    R = catalog.triangular_solution(k, 1, 2, 2)
    Q, dm = strong_dmap_from_symmetric(R)
    std = pushforward(standard_comodule(Q.parent), Q)
    assert r_sigma(std, dm) == loop_r_sigma(std, dm) == R


@pytest.mark.parametrize("k", [QQ, PrimeField(13), FQ], ids=["Q", "F13", "Qq"])
def test_broken_coactions_are_refused_as_the_loop_refuses_them(k):
    """Over k[Z/2] with grouplike e, g: a nilpotent P_g keeps the counit law
    (P_e + P_g = I) and breaks coassociativity (P_g P_g != P_g); P_e = 0
    breaks the counit law."""
    C = grouplike_coalgebra(k, ["e", "g"])
    nil = Matrix(k, [[0, 1], [0, 0]])
    cases = {"coassociativity": [matrix_sub(Matrix.identity(k, 2), nil), nil],
             "counit": [Matrix.zeros(k, 2, 2), matrix_sub(Matrix.identity(k, 2), nil)]}
    for failure, slices in cases.items():
        assert loop_comodule_failure(C, 2, rho_of(Comodule(C, slices, check=False))) == failure
        with pytest.raises(UsageError, match=failure):
            Comodule(C, slices)
