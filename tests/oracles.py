"""Independent constructions that the package no longer runs: the quotient of
a coalgebra through an explicit inverse, for any section, the generic
convolution inverse by one linear solve, and the index loops over the
4-index family x_uv^ji that the operator's readers replaced by index maps on
its matrix. The tests compare the package's closed forms with them."""

from deq.coalg import BilinearForm, Coalgebra, convolve, counit_form
from deq.linalg import Matrix, matrix_inverse, solve_linear
from deq.tensor_ops import EndoPair


def section_quotient(C, I, complement):
    """(C/I, pi) on the classes of the basis elements in `complement`, or
    None when they do not complement I: with B the matrix whose columns are
    I's basis and the unit vectors of `complement`, pi is the last rows of
    B^-1 and Delta-bar(e_c~) = (pi (x) pi) Delta(e_c). The coalgebra is
    built with the full axiom check."""
    k, d, rank = C.field, C.dim, I.dim
    if len(complement) != d - rank or rank == d:
        return None
    cols = [list(v) for v in I.basis] + \
           [[k.one if a == c else k.zero for a in range(d)] for c in complement]
    Binv = matrix_inverse(Matrix(k, cols, coerce=False).transpose())
    if Binv is None:
        return None
    proj = Matrix(k, Binv.rows[rank:], coerce=False)
    proj_t = proj.transpose()
    mu = [proj.mul(C.delta_matrix(c)).mul(proj_t).rows for c in complement]
    Q = Coalgebra(k, [C.labels[c] + "~" for c in complement], mu,
                  [C.counit[c] for c in complement])
    return Q, proj


def project(Q, vec):
    """The quotient map of Q applied to a parent coefficient vector."""
    return Q.proj.apply([Q.field.coerce(v) for v in vec])


def lift(Q, qvec):
    """Q's section: quotient coefficients back to parent coordinates."""
    k = Q.field
    out = [k.zero] * Q.parent.dim
    for b, c in enumerate(Q.section_cols):
        out[c] = k.coerce(qvec[b])
    return out


def convolution_inverse(phi: BilinearForm):
    """Two-sided convolution inverse of phi, or None; found by one exact
    linear solve over the nC * nD table entries."""
    C, D, k = phi.left, phi.right, phi.left.field
    nC, nD = C.dim, D.dim
    unknowns = nC * nD
    rows = []
    rhs = []
    for a in range(nC):
        for b in range(nD):
            row = [k.zero] * unknowns
            for a1 in range(nC):
                for c in range(nC):
                    ma = C.mu[a][a1][c]
                    if k.is_zero(ma):
                        continue
                    for b1 in range(nD):
                        for e in range(nD):
                            mb = D.mu[b][b1][e]
                            if k.is_zero(mb):
                                continue
                            coeff = k.mul(k.mul(ma, mb), phi.table[a1][b1])
                            if not k.is_zero(coeff):
                                row[c * nD + e] = k.add(row[c * nD + e], coeff)
            rows.append(row)
            rhs.append(k.mul(C.counit[a], D.counit[b]))
    sol = solve_linear(Matrix(k, rows, coerce=False), rhs)
    if sol is None:
        return None
    psi = BilinearForm(C, D, [[sol[c * nD + e] for e in range(nD)] for c in range(nC)])
    unit = counit_form(C, D)
    if convolve(phi, psi) != unit or convolve(psi, phi) != unit:
        raise AssertionError("one-sided convolution inverse is not two-sided")
    return psi


def x_table(R):
    """The 4-index family of R, 0-based: x[u][v][j][i] is x_uv^ji."""
    rng = range(1, R.n + 1)
    return [[[[R.coeff(u, v, j, i) for i in rng] for j in rng] for v in rng] for u in rng]


def endo_from_table(field, n, x):
    """The operator with 4-index family x[u][v][j][i]: x_uv^ji at row (i, j),
    column (v, u) of its matrix. The entries are validated, not coerced."""
    rng = range(n)
    rows = [[x[u][v][j][i] for v in rng for u in rng] for i in rng for j in rng]
    return EndoPair.from_matrix(Matrix(field, rows, coerce=False))


def loop_generator_action(R):
    """A(c_ju)[i][v] = x_uv^ji, one matrix per generator c_ju in row-major order."""
    n, k, x = R.n, R.field, x_table(R)
    return [Matrix._computed(k, [[x[u][v][j][i] for v in range(n)] for i in range(n)])
            for j in range(n) for u in range(n)]


def loop_obstruction_vectors(R):
    """o(i,j,k,l) = sum_v x_kv^ji c_vl - sum_a x_kl^ja c_ia by its 1-based label."""
    n, k, x = R.n, R.field, x_table(R)
    vectors = {}
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                for l in range(n):
                    vec = [k.zero] * (n * n)
                    for v in range(n):
                        vec[v * n + l] = k.add(vec[v * n + l], x[kk][v][j][i])
                    for a in range(n):
                        vec[i * n + a] = k.sub(vec[i * n + a], x[kk][l][j][a])
                    vectors[(i + 1, j + 1, kk + 1, l + 1)] = vec
    return vectors


def defect_pairing(R, j, k, l):
    """sum c_jk.(m_l)_0 (x) (m_l)_1 - rho(c_jk.m_l) as an M x C table, from
    the module and comodule sides (1-based j, k, l): row i is the coefficient
    vector of m_i. It equals sum_i m_i (x) o(i,j,k,l) for every R."""
    n, f, x = R.n, R.field, x_table(R)
    j0, k0, l0 = j - 1, k - 1, l - 1
    table = [[f.zero] * (n * n) for _ in range(n)]
    for v in range(n):
        for i in range(n):
            c = x[k0][v][j0][i]
            if not f.is_zero(c):
                table[i][v * n + l0] = f.add(table[i][v * n + l0], c)
    for i in range(n):
        c = x[k0][l0][j0][i]
        if f.is_zero(c):
            continue
        for w in range(n):
            table[w][w * n + i] = f.sub(table[w][w * n + i], c)
    return table


def loop_sigma0_table(R):
    """sigma0(c_iv (x) c_ju) = x_uv^ji on full C (x) C."""
    n, k, x = R.n, R.field, x_table(R)
    d = n * n
    table = [[k.zero] * d for _ in range(d)]
    for i in range(n):
        for v in range(n):
            for j in range(n):
                for u in range(n):
                    table[i * n + v][j * n + u] = x[u][v][j][i]
    return table


def loop_first_symmetry_violation(R):
    """First (u,v,j,i), 1-based, with x_uv^ji != x_vu^ij, or None."""
    n, x = R.n, x_table(R)
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    if x[u][v][j][i] != x[v][u][i][j]:
                        return (u + 1, v + 1, j + 1, i + 1)
    return None
