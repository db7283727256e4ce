"""Obstruction elements of an operator R, the coideal I(R), and the
presented universal bialgebra D(R) with its canonical dimodule.

o(i,j,k,l) = sum_v x_kv^ji c_vl - sum_a x_kl^ja c_ia lives in the comatrix
coalgebra. Read as the n x n matrix of its coefficients (c_ab at (a, b)), it
is the commutator [A(c_jk)^T, E_il] = A(c_jk)^T E_il - E_il A(c_jk)^T, where
A(c_jk) is the action of c_jk on M, row (j, k) of the generator table read
as an n x n matrix, and E_il a matrix unit. The span of all o's is a
coideal I(R), and D(R) is the free algebra on a basis of comatrix(n)/I(R)
with the quotient comultiplication. M = k^n is a Long D(R)-dimodule with
rho(m_l) = sum_v m_v (x) c~_vl, so its comodule slice at the generator q is
row q of the quotient map pi read as an n x n matrix.

I(R) is the annihilator of the commutant A' = {Y : [A(c), Y] = 0 for all c}
under <c_ab, Y> = Y[a][b], for every R, solution or not. Proof: with
L = A(c_jk), <Y, [L^T, E_il]> = tr(Y^T [L^T, E_il]) = tr([Y^T, L^T] E_il),
which is entry (i, l) of [L, Y]. So Y lies in I(R)^perp iff it commutes
with every A(c_jk): I(R)^perp = A'.

The obstructions, the solution gate, the canonical dimodule and the sigma_R
of `deq.dmap` all read one n^2 x n^2 table of R's entries,
`generator_table`.
"""

from __future__ import annotations

import functools
import itertools
import math

from .coalg import Coalgebra, Coideal, Comodule, _combo_text, comatrix, quotient
from .fields import MathError
from .linalg import Matrix, rref
from .tensor_ops import EndoPair, _entries, first_violation, leg_blocks


class NotASolutionError(MathError):
    """The operation needs a D-equation solution and R is not one."""

    def __init__(self, where):
        self.where = where
        i, j, k, l, p, q = where
        msg = ("not a D-equation solution: coordinate equation at "
               "(i,j,k,l,p,q)=(%d,%d,%d,%d,%d,%d) fails: "
               "sum_v x_%dv^%d%d x_%d%d^v%d != sum_a x_%d%d^%da x_a%d^%d%d"
               % (i, j, k, l, p, q, k, j, i, l, q, p, k, l, j, q, i, p))
        super().__init__(msg)


def require_solution(R: EndoPair, table: Matrix, basis):
    """Raise NotASolutionError unless R solves the equation.

    By the FRT-type theorem, R is a solution exactly when every obstruction
    acts as zero on M: entry (p, q) of A(o(i,j,k,l)) is the difference of
    the two sides of coordinate equation (i,j,k,l,p,q). A is linear, so it
    is decided on the reduced basis of I(R): the basis, stacked, times the
    generator table must be zero. The equation that fails is named by
    `first_violation`, which runs only after a no."""
    if basis and not Matrix._computed(R.field, basis).mul(table).is_zero():
        where = first_violation(R)
        if where is None:
            raise RuntimeError("annihilation gate and coordinate equations disagree")
        raise NotASolutionError(where)


def obstruction_vectors(table: Matrix):
    """(label, o(i,j,k,l)) for every 1-based label, in label order, each a
    coefficient vector in comatrix(n): with A = A(c_jk), row (j, k) of the
    generator table read as an n x n matrix, it is [A^T, E_il]."""
    k, n = table.field, math.isqrt(table.nrows)
    # neg_cols[jk][l] is minus column l of A(c_jk)
    neg_cols = [[[k.neg(x) for x in row[l::n]] for l in range(n)] for row in table.rows]
    out = []
    for i, jk, l in itertools.product(range(n), range(n * n), range(n)):
        row, col = table.rows[jk], neg_cols[jk][l]
        vec = [k.zero] * (n * n)
        vec[l::n] = row[i * n:i * n + n]  # A^T E_il: column l is row i of A
        vec[i * n:i * n + n] = col  # -E_il A^T: row i is -column l of A
        vec[i * n + l] = k.add(row[i * n + i], col[l])  # where both meet
        out.append(((i + 1, jk // n + 1, jk % n + 1, l + 1), vec))
    return out


def frt_col_order(n: int):
    """Pivot preference for I(R): off-diagonal labels row-major, then
    diagonal labels in reverse, so relations eliminate c_jk (j != k) and
    high-index diagonals first."""
    off = [j * n + k for j in range(n) for k in range(n) if j != k]
    diag = [j * n + j for j in reversed(range(n))]
    return off + diag


def obstruction_coideal(table: Matrix) -> Coideal:
    """span{o(i,j,k,l)} of the operator with this generator table, as a
    coideal of comatrix(n), from its reduced echelon form in `frt_col_order`.

    It is not checked at run time: the comultiplication identity
    Delta(o(i,j,k,l)) = sum_u o(i,j,k,u) (x) c_ul + c_iu (x) o(u,j,k,l)
    makes it a coideal of comatrix(n) for every R, solution or not, and the
    tests check that identity and the coideal conditions themselves on the
    census and the catalog."""
    n = math.isqrt(table.nrows)
    C = comatrix(table.field, n)  # refuses n >= 10 before the rref
    rows = [vec for _, vec in obstruction_vectors(table)]
    basis, pivots = rref(rows, table.field, col_order=frt_col_order(n))
    return Coideal(C, basis, pivots)


def generator_table(R: EndoPair) -> Matrix:
    """The n^2 x n^2 table of R's entries that D(R) and sigma_R read: row
    (j, u) is A(c_ju) = L_ju of tensor_ops.leg_blocks flattened, so entry
    (i, v) of it is x_uv^ji, the entry ((i, j), (v, u)) of R.matrix()."""
    x = _entries(R)
    return Matrix._computed(R.field, [[x[s] for row in block for s in row]
                                      for block in leg_blocks(R.n)[0]])


def relation_strings(I: Coideal):
    """One line per reduced relation: pivot term first, the rest in
    row-major label order, '= 0' suffix."""
    C, k = I.parent, I.parent.field
    lines = []
    for row, piv in zip(I.basis, I.pivots):
        order = [piv] + [a for a in range(C.dim)
                         if a != piv and not k.is_zero(row[a])]
        pairs = [(row[a], C.labels[a]) for a in order]
        lines.append(_combo_text(k, pairs) + " = 0")
    return lines


def delta_string(Q: Coalgebra, b: int) -> str:
    """Sweedler-style text for Delta of the b-th basis element of Q."""
    k = Q.field
    pairs = []
    for p in range(Q.dim):
        for q in range(Q.dim):
            c = Q.mu[b][p][q]
            if not k.is_zero(c):
                pairs.append((c, "%s(x)%s" % (Q.labels[p], Q.labels[q])))
    return "Delta(%s) = %s" % (Q.labels[b], _combo_text(k, pairs))


class FrtPresentation:
    """D(R) presented as the free algebra on a basis of comatrix(n)/I(R).

    It keeps R as its generator table and nothing else. Building it is the
    solution gate: `require_solution` on the reduced basis of I(R)."""

    def __init__(self, R: EndoPair):
        self.endo = R
        self.field = R.field
        self.n = R.n
        self.table = generator_table(R)
        self.ideal = obstruction_coideal(self.table)
        require_solution(R, self.table, self.ideal.basis)
        self.coalgebra = self.ideal.parent
        self.quotient = quotient(self.coalgebra, self.ideal)

    @functools.cached_property
    def relations(self):
        """`relation_strings` of I(R), rendered on first read."""
        return relation_strings(self.ideal)

    @property
    def generators(self):
        return self.quotient.labels

    def gen_coalgebra(self) -> Coalgebra:
        """The coalgebra of generators, comatrix(n)/I(R)."""
        return self.quotient

    def generator_lines(self):
        """Delta and eps of every generator, as text."""
        Q = self.quotient
        lines = []
        for b in range(Q.dim):
            lines.append(delta_string(Q, b))
            lines.append("eps(%s) = %s" % (Q.labels[b], Q.field.show(Q.counit[b])))
        return lines

    def canonical_dimodule(self):
        """The standard module and comodule on M, as a Long dimodule over
        this presentation. The quotient-basis generator c~ is the class of
        its section column c, and acts as A(c), row c of the generator table
        read as an n x n matrix. rho(m_l) = sum_v m_v (x) c~_vl puts pi(c_wl)
        at (w, l), so slice q is row q of the quotient map, entry (w, l) at
        proj[q][w n + l]. It is built unchecked: R is a solution, so by the
        FRT-type theorem it is compatible; the tests check that."""
        from .dimodule import LongDimodule
        n, k = self.n, self.field

        def square(row):
            return Matrix._computed(k, [row[w * n:w * n + n] for w in range(n)])
        act = [square(self.table.rows[c]) for c in self.quotient.section_cols]
        slices = [square(row) for row in self.quotient.proj.rows]
        return LongDimodule(self, act, Comodule(self.quotient, slices, check=False),
                            check=False)

    def __repr__(self):
        return ("FrtPresentation(n=%d, dim I=%d, generators=%s)"
                % (self.n, self.ideal.dim, ",".join(self.generators)))


def d_bialgebra(R: EndoPair) -> FrtPresentation:
    """The universal bialgebra presentation for a D-equation solution."""
    return FrtPresentation(R)
