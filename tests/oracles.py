"""Independent constructions that the package no longer runs: the quotient of
a coalgebra through an explicit inverse, for any section, the generic
convolution inverse by one linear solve, the index loops over the 4-index
family x_uv^ji that the operator's readers replaced by index maps on its
matrix, and the index-loop axiom checkers of coalgebras, algebras and
bialgebras that the regular (co)module identities replaced, Delta of a
coefficient vector flattened to one vector, and the T, U and W forms of
the D-equation built as operators of their own, exactly and mod p, and the
seven verdicts of `deq check` on an operator's field values, one exact
linear solve, a kernel read off rref's free columns, a span with its
membership test, the span of vectors as a coideal with its conditions
checked (the oracle of frt.obstruction_coideal), the flip tau as an index
map and as a matrix, the whole-block sieve of the census, the n^6 table of coordinate equations
that tensor_ops.leg_blocks replaced, the standard comodule of comatrix(n)
with its pushforward to a quotient, and the module axiom, Long
compatibility, graded stability and R = sum_a A_a (x) P_a one pair at a
time, as the block products replaced them, the universal property of D(R)
on a generator assignment, solutions with prescribed leg algebras, and the
Yetter-Drinfeld condition with the conjugation modules of k[G]. The tests compare the package's
closed forms with them. The statements of the paper that no command runs
are built here as well: the generator assignment of the universal map of
D(R), the dimodules induced from a module and from a comodule, the
trivial comodule, the D-maps sigma_f and delta_ij a, R_sigma of a
comodule and a D-map, and conjugation by u (x) u. Small random field
values, the dot product of two vectors, linear combinations of matrices,
the difference of two matrices and equality of coalgebra structures,
which only the tests use, live here too."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from deq.classify import (_digit_dtype, _equation_columns, _equation_mask, _holds,
                          _rows_equal, _words, block_matrices)
from deq.coalg import (BilinearForm, Coalgebra, Comodule, _first_difference, comatrix,
                       convolve, counit_form)
from deq.dimodule import LongDimodule, r_from_dimodule
from deq.fields import PrimeField, RationalField, UsageError
from deq.frt import _combo_text, d_bialgebra
from deq.linalg import Matrix, matrix_inverse, rref
from deq.tensor_ops import EQUATIONS, EndoPair, _product


def random_value(k, rng):
    """A small random value of k: over Q a fraction with numerator in -9..9
    and denominator in 1..9, over F_p any residue, over Q(vars) a linear
    numerator over 1, 1 + the first variable, or 2."""
    if isinstance(k, RationalField):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(k, PrimeField):
        return rng.randrange(k.p)
    num = k.coerce(rng.randint(-3, 3))
    for g in k.gens:
        num = num + k.coerce(rng.randint(-2, 2)) * g
    dens = [k.one, k.one + k.gens[0], k.coerce(2)]
    return num / dens[rng.randrange(len(dens))]


def dot(k, xs, ys):
    """sum_i xs[i] ys[i] in k."""
    return k.sum(k.mul(x, y) for x, y in zip(xs, ys))


def matrix_sub(A: Matrix, B: Matrix) -> Matrix:
    """A - B, entry by entry."""
    k = A.field
    return Matrix._computed(k, [[k.sub(a, b) for a, b in zip(ra, rb)]
                                for ra, rb in zip(A.rows, B.rows)])


def linear_combination(coeffs, mats):
    """sum_a coeffs[a] mats[a] for a nonempty list of matrices of one field
    and shape; zero coefficients cost nothing."""
    k = mats[0].field
    terms = [m.scale(c) for c, m in zip(coeffs, mats) if not k.is_zero(c)]
    if not terms:
        return Matrix.zeros(k, mats[0].nrows, mats[0].ncols)
    return functools.reduce(Matrix.add, terms)


def same_structure(C: Coalgebra, D: Coalgebra) -> bool:
    """Equal field, comultiplication and counit, basis by basis."""
    return C.field == D.field and C.mu == D.mu and C.counit == D.counit


def flip_index(n):
    """tau on M (x) M as an index map: m_a (x) m_b -> m_b (x) m_a; an involution."""
    return tuple((k % n) * n + k // n for k in range(n * n))


def permuted(A: Matrix, rows=None, cols=None) -> Matrix:
    """A[rows[r]][cols[c]] at (r, c), None meaning unpermuted. With P e_k =
    e_image(k), P^-1 A takes rows from image and A P takes cols from image."""
    rows = range(A.nrows) if rows is None else rows
    cols = range(A.ncols) if cols is None else cols
    return Matrix._computed(A.field, [[A.rows[r][c] for c in cols] for r in rows])


def solve_linear(A: Matrix, b):
    """Some exact solution of A x = b (free variables set to 0), or None."""
    if len(b) != A.nrows:
        raise UsageError("rhs length %d does not match %d rows" % (len(b), A.nrows))
    k = A.field
    b = [k.coerce(v) for v in b]
    aug = [row + [rv] for row, rv in zip(A.rows, b)]
    rows, pivots = rref(aug, k)
    if A.ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [k.zero] * A.ncols
    for row, p in zip(rows, pivots):
        x[p] = row[A.ncols]
    return x


def kernel_basis(rows, k, ncols):
    """A basis of {y : row . y = 0 for every row}, one vector per free
    column of the rows' reduced echelon form."""
    basis, pivots = rref(rows, k)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        y = [k.zero] * ncols
        y[f] = k.one
        for row, p in zip(basis, pivots):
            y[p] = k.neg(row[f])
        out.append(y)
    return out


def reduce_against(v, basis_rows, pivots, field):
    """Subtract the span of reduced-echelon rows from v; zero iff v is in the span."""
    v = list(v)
    for row, p in zip(basis_rows, pivots):
        if not field.is_zero(v[p]):
            f = v[p]
            v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, row)]
    return v


def span_and_membership(vectors, field, dim=None):
    """Reduced-echelon basis of a span plus an exact membership test."""
    if vectors:
        dim = len(vectors[0])
        for v in vectors:
            if len(v) != dim:
                raise UsageError("vectors of mixed dimension")
    elif dim is None:
        raise UsageError("dim is required for an empty vector list")
    coerced = [[field.coerce(x) for x in v] for v in vectors]
    basis, pivots = rref(coerced, field)

    def contains(v):
        if len(v) != dim:
            raise UsageError("vector of wrong dimension")
        v = [field.coerce(x) for x in v]
        return all(field.is_zero(x) for x in reduce_against(v, basis, pivots, field))

    return basis, contains


def _coideal_failure(C: Coalgebra, basis, pivots):
    """None when span(basis) is a coideal, else a reason string.

    basis is reduced echelon with the given pivots, so reducing against it
    is the projection pi along I onto the non-pivot coordinates S. As
    C (x) C = (I (x) C + C (x) I) (+) (S (x) S), Delta(v) lies in
    I (x) C + C (x) I iff (pi (x) pi) Delta(v) = 0: reduce the rows of the
    d x d table of Delta(v), then its columns, and require zero."""
    k, deltas = C.field, [C.delta_matrix(a) for a in range(C.dim)]
    for v in basis:
        if not k.is_zero(dot(k, C.counit, v)):
            return "counit does not vanish on %s" % _show_combo(C, v)
    for v in basis:
        table = linear_combination(v, deltas).rows
        rows = [reduce_against(row, basis, pivots, k) for row in table]
        for col in zip(*rows):
            if not all(k.is_zero(x) for x in reduce_against(col, basis, pivots, k)):
                return "Delta(%s) leaves I(x)C + C(x)I" % _show_combo(C, v)
    return None


def coideal(C: Coalgebra, vectors, col_order=None):
    """Span the vectors, verify the coideal conditions of C, return rref's
    (basis, pivots) of the span."""
    k = C.field
    vecs = [[k.coerce(x) for x in v] for v in vectors]
    basis, pivots = rref(vecs, k, col_order=col_order)
    reason = _coideal_failure(C, basis, pivots)
    if reason is not None:
        raise UsageError("not a coideal: %s" % reason)
    return basis, pivots


def _show_combo(C: Coalgebra, vec) -> str:
    """Render a coefficient vector over C's labels."""
    k = C.field
    return _combo_text(k, [(v, C.labels[a]) for a, v in enumerate(vec) if not k.is_zero(v)])


def tau_matrix(field, n) -> Matrix:
    """Flip on M (x) M: m_a (x) m_b -> m_b (x) m_a."""
    return permuted(Matrix.identity(field, n * n), rows=flip_index(n))


def comatrix_index(n, j, k) -> int:
    """Basis position of c_jk (1-based j, k) in comatrix(n)."""
    return (j - 1) * n + (k - 1)


def standard_comodule(C: Coalgebra) -> Comodule:
    """rho(m_l) = sum_v m_v (x) c_vl on a comatrix coalgebra C, unchecked:
    slice c_wl is the matrix unit E_wl. Any other C is refused."""
    n = math.isqrt(C.dim)
    if n * n != C.dim or not same_structure(C, comatrix(C.field, n)):
        raise UsageError("standard comodule needs a comatrix coalgebra")
    k = C.field
    slices = [Matrix._computed(k, [[k.one if (i, j) == (w, l) else k.zero for j in range(n)]
                                   for i in range(n)]) for w in range(n) for l in range(n)]
    return Comodule(C, slices, check=False)


def pushforward(M: Comodule, Q) -> Comodule:
    """(I (x) pi) rho: the comodule induced over the quotient Q = C/I, with
    slices sum_a proj[q][a] P_a, unchecked. M may live on any copy of C."""
    if not same_structure(Q.parent, M.coalgebra):
        raise UsageError("quotient of a different coalgebra")
    return Comodule(Q, [linear_combination(row, M.slices) for row in Q.proj.rows], check=False)


def section_quotient(Q, complement):
    """(C/I, pi) for the quotient Q = C/I(R) on the classes of the basis
    elements in `complement`, or None when they do not complement I: with B
    the matrix whose columns are I's basis and the unit vectors of
    `complement`, pi is the last rows of B^-1 and
    Delta-bar(e_c~) = (pi (x) pi) Delta(e_c). The coalgebra is built with
    the full axiom check."""
    C = Q.parent
    k, d, rank = C.field, C.dim, len(Q.basis)
    if len(complement) != d - rank:
        return None
    cols = [list(v) for v in Q.basis] + \
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


def coordinate_equation_table(n):
    """The n^6 coordinate equations sum_v x_kv^ji y_lq^vp = sum_a x_kl^ja y_aq^ip
    of R^{23} R^{12} = R^{12} R^{23}, x and y both R's entries (x the factor
    from R^{23}, y the one from R^{12}), in (i,j,k,l,p,q) order: (label, lhs,
    rhs) with the 1-based label and, per side, the (s, t) pairs of row-major
    R.matrix() entries whose products x[s] y[t] it sums. x_uv^ji is the entry
    at row (i, j), column (v, u)."""
    def at(u, v, j, i):
        return (i * n + j) * n * n + v * n + u
    rng = range(n)
    for i, j, k, l, p, q in itertools.product(rng, repeat=6):
        yield ((i + 1, j + 1, k + 1, l + 1, p + 1, q + 1),
               tuple((at(k, v, j, i), at(l, q, v, p)) for v in rng),
               tuple((at(k, l, j, a), at(a, q, i, p)) for a in rng))


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


# Structure axioms by index loops over the structure constants, one location
# at a time. Each loop_*_failure walks the locations in the order of the
# checker it replaced and returns that checker's message, or None.

def coassociative_at(C, a, r, s, t):
    """(Delta (x) id) Delta(e_a) and (id (x) Delta) Delta(e_a) agree at e_r (x) e_s (x) e_t."""
    k, mu, rng = C.field, C.mu, range(C.dim)
    lhs = k.sum(k.mul(mu[a][b][t], mu[b][r][s]) for b in rng)
    rhs = k.sum(k.mul(mu[a][r][c], mu[c][s][t]) for c in rng)
    return lhs == rhs


def counit_law_at(C, a):
    """(eps (x) id) Delta(e_a) = e_a = (id (x) eps) Delta(e_a)."""
    k, mu, eps, rng = C.field, C.mu, C.counit, range(C.dim)
    for c in rng:
        want = k.one if a == c else k.zero
        left = k.sum(k.mul(mu[a][b][c], eps[b]) for b in rng)
        right = k.sum(k.mul(mu[a][c][b], eps[b]) for b in rng)
        if left != want or right != want:
            return False
    return True


def loop_coalgebra_failure(C):
    labels = C.labels
    for a, r, s, t in itertools.product(range(C.dim), repeat=4):
        if not coassociative_at(C, a, r, s, t):
            return ("not coassociative at (%s; %s,%s,%s)"
                    % (labels[a], labels[r], labels[s], labels[t]))
    for a in range(C.dim):
        if not counit_law_at(C, a):
            return "counit law fails at %s" % labels[a]
    return None


def basis_vector(A, a):
    return [A.field.one if i == a else A.field.zero for i in range(A.dim)]


def loop_multiply(A, u, v):
    """u v in the algebra A, summed over the nonzero products of coefficients."""
    k, d = A.field, A.dim
    out = [k.zero] * d
    for a, ua in enumerate(u):
        for b, vb in enumerate(v):
            if k.is_zero(ua) or k.is_zero(vb):
                continue
            w = k.mul(ua, vb)
            for c, m in enumerate(A.mult[a][b]):
                if not k.is_zero(m):
                    out[c] = k.add(out[c], k.mul(w, m))
    return out


def unit_law_at(A, a):
    e = basis_vector(A, a)
    return loop_multiply(A, A.unit, e) == e and loop_multiply(A, e, A.unit) == e


def associative_at(A, a, b, c):
    ea, eb, ec = basis_vector(A, a), basis_vector(A, b), basis_vector(A, c)
    return (loop_multiply(A, loop_multiply(A, ea, eb), ec)
            == loop_multiply(A, ea, loop_multiply(A, eb, ec)))


def loop_algebra_failure(A):
    labels = A.labels
    for a in range(A.dim):
        if not unit_law_at(A, a):
            return "unit law fails at %s" % labels[a]
    for a, b, c in itertools.product(range(A.dim), repeat=3):
        if not associative_at(A, a, b, c):
            return ("multiplication is not associative at (%s,%s,%s)"
                    % (labels[a], labels[b], labels[c]))
    return None


def counit_multiplicative_at(H, a, b):
    k = H.field
    prod = loop_multiply(H, basis_vector(H, a), basis_vector(H, b))
    return dot(k, H.counit, prod) == k.mul(H.counit[a], H.counit[b])


def counit_of_unit_is_one(H):
    return dot(H.field, H.counit, H.unit) == H.field.one


def delta_table(H, vec):
    """Delta(sum_a vec[a] e_a) as its d x d coefficient table."""
    k, d, dl = H.field, H.dim, H.delta
    out = [[k.zero] * d for _ in range(d)]
    for a, va in enumerate(vec):
        for p, q in itertools.product(range(d), repeat=2):
            if not k.is_zero(va) and not k.is_zero(dl[a][p][q]):
                out[p][q] = k.add(out[p][q], k.mul(va, dl[a][p][q]))
    return out


def delta_of_unit_holds(H):
    k = H.field
    return delta_table(H, H.unit) == [[k.mul(x, y) for y in H.unit] for x in H.unit]


def delta_multiplicative_at(H, a, b):
    """Delta(e_a e_b) = Delta(e_a) Delta(e_b), the right side multiplied out
    term by term in H (x) H."""
    k, d, dl, mu = H.field, H.dim, H.delta, H.mult
    lhs = delta_table(H, loop_multiply(H, basis_vector(H, a), basis_vector(H, b)))
    rhs = [[k.zero] * d for _ in range(d)]
    pairs = list(itertools.product(range(d), repeat=2))
    for (p1, p2), (q1, q2) in itertools.product(pairs, repeat=2):
        w = k.mul(dl[a][p1][p2], dl[b][q1][q2])
        if k.is_zero(w):
            continue
        for p, q in pairs:
            m = k.mul(mu[p1][q1][p], mu[p2][q2][q])
            if not k.is_zero(m):
                rhs[p][q] = k.add(rhs[p][q], k.mul(w, m))
    return lhs == rhs


def loop_bialgebra_failure(H):
    labels, rng = H.labels, range(H.dim)
    for a, b in itertools.product(rng, repeat=2):
        if not counit_multiplicative_at(H, a, b):
            return "counit is not multiplicative at (%s,%s)" % (labels[a], labels[b])
    if not counit_of_unit_is_one(H):
        return "counit of the unit is not 1"
    if not delta_of_unit_holds(H):
        return "Delta of the unit is not unit (x) unit"
    for a, b in itertools.product(rng, repeat=2):
        if not delta_multiplicative_at(H, a, b):
            return "Delta is not multiplicative at (%s,%s)" % (labels[a], labels[b])
    return None


# The module axiom, Long compatibility, stability and R = sum_a A_a (x) P_a
# one pair at a time, the loops that the block products replaced.

def loop_action_failure(unit, product, act):
    """`coalg._action_failure` by one product, scale and sum per pair (a, b)."""
    k, n = act[0].field, act[0].nrows
    where = _first_difference(linear_combination(unit, act), Matrix.identity(k, n))
    if where is not None:
        return None, where
    for a, b in itertools.product(range(len(act)), repeat=2):
        where = _first_difference(act[a] @ act[b], linear_combination(product(a, b), act))
        if where is not None:
            return (a, b), where
    return None


def rho_of(comodule):
    """The nested coaction table rho[l][w][a] = P_a[w][l]."""
    P, m = comodule.slices, comodule.dim
    return [[[P[a].rows[w][l] for a in range(len(P))] for w in range(m)] for l in range(m)]


def loop_compat_tables(A, rho, l):
    """Tables [w][b] of the coefficients of m_w (x) e_b in rho(h . m_l) and
    in sum h . (m_l)_0 (x) (m_l)_1, for h acting by A."""
    k, dim, dC = A.field, A.nrows, len(rho[l][0])
    lhs = [[k.zero] * dC for _ in range(dim)]
    for i in range(dim):
        c = A.rows[i][l]
        if k.is_zero(c):
            continue
        for w in range(dim):
            for b in range(dC):
                r = rho[i][w][b]
                if not k.is_zero(r):
                    lhs[w][b] = k.add(lhs[w][b], k.mul(c, r))
    rhs = [[k.zero] * dC for _ in range(dim)]
    for w in range(dim):
        for b in range(dC):
            r = rho[l][w][b]
            if k.is_zero(r):
                continue
            for w2 in range(dim):
                c = A.rows[w2][w]
                if not k.is_zero(c):
                    rhs[w2][b] = k.add(rhs[w2][b], k.mul(r, c))
    return lhs, rhs


def loop_first_incompatibility(act, comodule):
    """First (a, l) whose compatibility tables differ, or None."""
    rho = rho_of(comodule)
    for a, l in itertools.product(range(len(act)), range(comodule.dim)):
        lhs, rhs = loop_compat_tables(act[a], rho, l)
        if lhs != rhs:
            return a, l
    return None


def loop_first_unstable(act, projectors):
    """First (s, a) with P_s A_a P_s != A_a P_s, or None."""
    for s, a in itertools.product(range(len(projectors)), range(len(act))):
        img = act[a] @ projectors[s]
        if projectors[s] @ img != img:
            return s, a
    return None


def kron_r_from_dimodule(d):
    """sum_a A_a (x) P_a by Kronecker products."""
    return graded_operator(d.act, d.comodule.slices)


def delta_vector(C, vec):
    """Delta applied to a coefficient vector, flattened to length dim^2:
    the rows of sum_a vec[a] M_a."""
    m = linear_combination(vec, [C.delta_matrix(a) for a in range(C.dim)])
    return [v for row in m.rows for v in row]


# The T and U forms as two slot words each, equal up to a tau123 factor:
# T12 T13 = T23 T13 tau123 and U13 U23 = tau123 U13 U12.
FORM_EQUATIONS = {
    "form_t": ((12, 13), (23, 13)),
    "form_u": ((13, 23), (13, 12)),
}


def tau123_index(n):
    """tau123 on M (x) M (x) M as an index map: m_a (x) m_b (x) m_c -> m_c (x) m_a (x) m_b."""
    return tuple((c * n + a) * n + b for a, b, c in itertools.product(range(n), repeat=3))


def fresh_form_products(R):
    """(T12 T13, T23 T13), (U13 U23, U13 U12) and (W12 W23, W23 W12), with
    T = R tau, U = tau R and W = tau R tau built as operators and each
    product formed from the form's own lifts."""
    m, flip = R.matrix(), flip_index(R.n)
    T = EndoPair.from_matrix(permuted(m, cols=flip))
    U = EndoPair.from_matrix(permuted(m, rows=flip))
    W = EndoPair.from_matrix(permuted(m, rows=flip, cols=flip))
    return [[_product(T, *word) for word in FORM_EQUATIONS["form_t"]],
            [_product(U, *word) for word in FORM_EQUATIONS["form_u"]],
            [_product(W, *word) for word in EQUATIONS["d"]]]


def fresh_form_verdicts(n, products):
    """The verdicts of the T, U and W forms, read off fresh_form_products."""
    (tl, tr), (ul, ur), (wl, wr) = products
    t123 = tau123_index(n)
    return tl == permuted(tr, cols=t123), permuted(ul, rows=t123) == ur, wl == wr


def digits_of(x: np.ndarray) -> np.ndarray:
    """Serialized row-major matrix entries of an x block, as (N, n^4)."""
    count, n = x.shape[0], x.shape[1]
    return block_matrices(x).reshape(count, n ** 4)


def coordinate_mask(x: np.ndarray, p: int) -> np.ndarray:
    """check_d by the coordinate equations, as a sieve over a whole block:
    each equation, in first_violation's order, is evaluated mod p on the
    candidates that passed the ones before it. With candidate_block it is
    the oracle for the prefix-pruned scan enumerate_range."""
    count, n = x.shape[0], x.shape[1]
    entries = digits_of(x).astype(_digit_dtype(n, p), copy=False)
    alive = np.arange(count)
    for first, second in zip(*_equation_columns(n)):
        keep = _holds(entries, first, second, p)
        if not keep.all():
            entries, alive = entries[keep], alive[keep]
            if not len(alive):
                break
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def forms_masks(x: np.ndarray, p: int):
    """(d, form_t, form_u, form_w) verdict arrays for a block laid out as
    deq.classify lays out its candidates, each form built mod p."""
    mat = block_matrices(x)
    flip = np.array(flip_index(x.shape[1]))
    t123 = np.array(tau123_index(x.shape[1]))
    tl, tr = _words(mat[:, :, flip], p, *FORM_EQUATIONS["form_t"])
    ul, ur = _words(mat[:, flip, :], p, *FORM_EQUATIONS["form_u"])
    return (coordinate_mask(x, p), _rows_equal(tl, tr[:, :, t123]),
            _rows_equal(ul[:, t123, :], ur), _equation_mask(mat[:, flip][:, :, flip], p, "d"))


def field_verdicts(R):
    """The seven verdicts of `deq check` computed on R's field values: each
    equation's two words multiplied out from R's own lifts, and the forms
    read off fresh_form_products. R's integral form is not used."""
    verdicts = {name: _product(R, *left) == _product(R, *right)
                for name, (left, right) in EQUATIONS.items()}
    forms = fresh_form_verdicts(R.n, fresh_form_products(R))
    return dict(verdicts, **dict(zip(("form_t", "form_u", "form_w"), forms)))


def universal_map_failure(R, H, assignment):
    """The first universal property of D(R) that the generator assignment
    of `universal_map` (c_ij -> the vector c'_ij over H's basis) breaks, or
    None. From a fresh presentation of R: the reduced relations of I(R)
    vanish on the images; the images factor through the quotient, the image
    of c_ij being that of its class; and on each generator b with images
    G[b], Delta and eps hold: sum_a G[b][a] M^H_a = G^T M^Q_b G and
    eps_H(G[b]) = eps_Q(b)."""
    n, k = R.n, R.field
    images = Matrix._computed(k, [assignment[(i + 1, j + 1)]
                                  for i in range(n) for j in range(n)])
    pres = d_bialgebra(R)
    relations = pres.quotient.basis
    if relations and not Matrix._computed(k, relations).mul(images).is_zero():
        return "obstruction image nonzero in host"
    Q, HC = pres.quotient, H.gen_coalgebra()
    G = Matrix._computed(k, [images.rows[c] for c in Q.section_cols])
    if Q.proj.transpose().mul(G) != images:
        return "assignment does not match the coaction"
    host_deltas = [HC.delta_matrix(a) for a in range(HC.dim)]
    for b in range(Q.dim):
        if linear_combination(G.rows[b], host_deltas) != G.transpose().mul(
                Q.delta_matrix(b)).mul(G):
            return "comultiplication not respected on generators"
        if dot(k, HC.counit, G.rows[b]) != Q.counit[b]:
            return "counit not respected on generators"
    return None


def small_value(k, rng):
    """An integer in -3..3 over Q and F_p, c q + d with c, d in -3..3 over
    Q(q): polynomial entries, so products stay cheap over Q(vars)."""
    value = k.coerce(rng.randint(-3, 3))
    if isinstance(k, (RationalField, PrimeField)):
        return value
    return value + k.coerce(rng.randint(-3, 3)) * k.gens[0]


def unit_triangular(k, m, rng) -> Matrix:
    """L U with L and U unit triangular m x m, off-diagonal integers in -3..3."""
    def entry(r, c, upper):
        if r == c:
            return k.one
        return k.coerce(rng.randint(-3, 3)) if (c > r) == upper else k.zero

    def triangle(upper):
        return Matrix._computed(k, [[entry(r, c, upper) for c in range(m)] for r in range(m)])
    return triangle(False).mul(triangle(True))


def structured_solution(k, shape, terms, rng) -> EndoPair:
    """A D-equation solution with prescribed leg algebras (ROADMAP F12). With
    shape (v, w, u), M = (V (x) W) (+) U of dimension n = v w + u. R is a sum
    of `terms` products a (x) b, a in End(V) (x) 1_W (+) k 1_U and b in
    1_V (x) End(W) (+) End(U). Every such a commutes with every such b, so
    R12 R23 = sum a (x) b a' (x) b' = R23 R12. R is then conjugated by u (x) u
    for a unit-triangular u, which keeps every verdict."""
    v, w, u = shape
    z = k.zero

    def square(m):
        return Matrix._computed(k, [[small_value(k, rng) for _ in range(m)] for _ in range(m)])

    def direct_sum(top, bottom):
        """top (+) bottom, from a (v w)-square Matrix and a u-square row list."""
        return Matrix._computed(k, [row + [z] * u for row in top.rows]
                                + [[z] * (v * w) + row for row in bottom])

    R = None
    for _ in range(terms):
        c = small_value(k, rng)
        a = direct_sum(square(v).kron(Matrix.identity(k, w)),
                       [[c if r == s else z for s in range(u)] for r in range(u)])
        b = direct_sum(Matrix.identity(k, v).kron(square(w)), square(u).rows if u else [])
        R = a.kron(b) if R is None else R.add(a.kron(b))
    return conjugate(EndoPair.from_matrix(R), unit_triangular(k, v * w + u, rng))


def inverses(table):
    """inv[g], the index of g^-1, from a Cayley table."""
    e = next(a for a in range(len(table)) if table[a][a] == a)
    return [row.index(e) for row in table]


def yetter_drinfeld_failure(table, act, projectors):
    """First (g, h) with A_g P_h != P_(g h g^-1) A_g, or None: the
    Yetter-Drinfeld condition of a k[G]-module graded by the projectors P_h,
    read from the Cayley table. For abelian G it is stability, A_g P_h =
    P_h A_g."""
    inv = inverses(table)
    for g, A in enumerate(act):
        for h, P in enumerate(projectors):
            if A @ P != projectors[table[table[g][h]][inv[g]]] @ A:
                return g, h
    return None


def conjugation_module(k, table, classes, rng):
    """(action, projectors) of a Yetter-Drinfeld module over k[G]: the direct
    sum, over the list classes, of k[G] acting by conjugation on the span of
    the elements of each class (a union of conjugacy classes), e_x graded by
    x, A_g e_x = e_(g x g^-1); then conjugated by a unit-triangular matrix."""
    inv = inverses(table)
    basis = [(c, x) for c, cls in enumerate(classes) for x in cls]  # e_x of summand c
    m, d = len(basis), len(table)

    def image(g, col):
        c, x = basis[col]
        return basis.index((c, table[table[g][x]][inv[g]]))

    act = [Matrix._computed(k, [[k.one if image(g, col) == row else k.zero for col in range(m)]
                                for row in range(m)]) for g in range(d)]
    projectors = [Matrix._computed(k, [[k.one if r == s and basis[r][1] == h else k.zero
                                        for s in range(m)] for r in range(m)]) for h in range(d)]
    S = unit_triangular(k, m, rng)
    S_inv = matrix_inverse(S)
    return [S @ A @ S_inv for A in act], [S @ P @ S_inv for P in projectors]


def graded_operator(act, projectors) -> EndoPair:
    """R = sum_h A_h (x) P_h, the formula of r_from_dimodule, for any graded
    module, Long or not."""
    return EndoPair.from_matrix(functools.reduce(
        Matrix.add, [A.kron(P) for A, P in zip(act, projectors)]))


def conjugate(R: EndoPair, u: Matrix) -> EndoPair:
    """(u (x) u) R (u (x) u)^{-1}; preserves every check_d verdict."""
    if u.nrows != R.n or u.ncols != R.n:
        raise UsageError("conjugating matrix must be %d x %d" % (R.n, R.n))
    uu = u.kron(u)
    uu_inv = matrix_inverse(uu)
    if uu_inv is None:
        raise UsageError("conjugating matrix is singular")
    return EndoPair.from_matrix(uu.mul(R.matrix()).mul(uu_inv))


def universal_map(R: EndoPair, H, realization):
    """Generator assignment c~_ij -> c'_ij of the unique bialgebra map
    D(R) -> H induced by a realization of R as a dimodule over H, or None
    when the realization does not reproduce R. c'_ij is the vector of the
    (i, j) entries of the realization's slices. By the universal property
    of D(R), the assignment kills I(R), factors through the quotient and
    respects Delta and eps; `universal_map_failure` checks that."""
    n = R.n
    if realization.dim != n:
        raise UsageError("realization dimension does not match the operator")
    if not same_structure(realization.coalgebra, H.gen_coalgebra()):
        raise UsageError("realization does not live over the given host")
    if r_from_dimodule(realization) != R:
        return None
    slices = realization.comodule.slices
    return {(i + 1, j + 1): [P.rows[i][j] for P in slices] for i in range(n) for j in range(n)}


def trivial_comodule(H, dim: int) -> Comodule:
    """rho(m) = m (x) 1 over the bialgebra H: the slices are unit[a] I."""
    ident = Matrix.identity(H.field, dim)
    return Comodule(H.gen_coalgebra(), [ident.scale(u) for u in H.unit])


def induce_from_module(N_action, H) -> LongDimodule:
    """N (x) H with h.(n (x) l) = h.n (x) l and coaction I (x) Delta: the
    action of e_a is A_a (x) I and slice q is I (x) P_q, with P_q the
    regular slice of H's coalgebra, P_q[p][b] = Delta[b][p][q]."""
    ident_h = Matrix.identity(H.field, H.dim)
    ident_n = Matrix.identity(H.field, N_action[0].nrows)
    action = [A.kron(ident_h) for A in N_action]
    coaction = [ident_n.kron(P) for P in H.gen_coalgebra()._regular_slices()]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))


def induce_from_comodule(M: Comodule, H) -> LongDimodule:
    """H (x) M with h.(l (x) m) = hl (x) m and coaction l (x) m_0 (x) m_1:
    the action of e_a is L_a (x) I with L_a the left-regular matrix of e_a,
    and slice a is I (x) P^M_a."""
    if M.coalgebra is not H.gen_coalgebra():
        raise UsageError("comodule is not over the host's coalgebra")
    ident_h = Matrix.identity(H.field, H.dim)
    ident_m = Matrix.identity(H.field, M.dim)
    action = [L.kron(ident_m) for L in H._left_regular]
    coaction = [ident_h.kron(P) for P in M.slices]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))


def sigma_form(C: Coalgebra, f_values, right: Coalgebra = None) -> BilinearForm:
    """sigma_f(c (x) d~) = eps(c) f(d~): a D-map for every linear f on C/I;
    `right` is the quotient (default C itself, i.e. I = 0)."""
    k = C.field
    if right is None:
        right = C
    if len(f_values) != right.dim:
        raise UsageError("f must be a functional on the right coalgebra")
    table = [[k.mul(C.counit[a], k.coerce(f_values[b])) for b in range(right.dim)]
             for a in range(C.dim)]
    return BilinearForm(C, right, table)


def delta_form(C: Coalgebra, n: int, a_value) -> BilinearForm:
    """sigma(c_ij (x) c_pq) = delta_ij a on comatrix(n); a strong D-map."""
    k = C.field
    if C.dim != n * n:
        raise UsageError("coalgebra is not comatrix(n)")
    a_value = k.coerce(a_value)
    table = [[a_value if (i // n) == (i % n) else k.zero for _ in range(C.dim)]
             for i in range(C.dim)]
    return BilinearForm(C, C, table)


def r_sigma(comodule: Comodule, dm) -> EndoPair:
    """R_sigma(m (x) n) = sum sigma(m_1 (x) n_1~) m_0 (x) n_0 for a comodule
    and a D-map, that is R = sum_a P_a (x) (sum_b sigma-bar[a][b] P_b) with
    sigma-bar the table pulled back to C (x) C. It solves the equation for
    every comodule and D-map, a theorem of the paper that the tests check."""
    if comodule.coalgebra is not dm.coalgebra:
        raise UsageError("comodule is not over the D-map's coalgebra")
    k = dm.coalgebra.field
    Q = dm.quotient
    # sigma with the right leg pulled back to C
    pulled = dm.sigma.table if Q is None else \
        Matrix(k, dm.sigma.table, coerce=False).mul(Q.proj).rows
    P = comodule.slices
    return EndoPair.from_matrix(functools.reduce(
        Matrix.add, (Pa.kron(linear_combination(row, P)) for Pa, row in zip(P, pulled))))
