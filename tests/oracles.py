"""Independent constructions that the package no longer runs: the quotient of
a coalgebra through an explicit inverse, for any section, and the generic
convolution inverse by one linear solve. The tests compare the package's
closed forms with them."""

from deq.coalg import BilinearForm, Coalgebra, convolve, counit_form
from deq.linalg import Matrix, matrix_inverse, solve_linear


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
