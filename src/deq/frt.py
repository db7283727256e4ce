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
import types

from .coalg import Coalgebra, Comodule, comatrix
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


def obstruction_coideal(table: Matrix):
    """span{o(i,j,k,l)} of the operator with this generator table, a coideal
    I(R) of comatrix(n), as `rref`'s (basis, pivots) in `frt_col_order`.

    It is not checked at run time: the comultiplication identity
    Delta(o(i,j,k,l)) = sum_u o(i,j,k,u) (x) c_ul + c_iu (x) o(u,j,k,l)
    makes it a coideal of comatrix(n) for every R, solution or not, and the
    tests check that identity and the coideal conditions themselves on the
    census and the catalog."""
    rows = [vec for _, vec in obstruction_vectors(table)]
    return rref(rows, table.field, col_order=frt_col_order(math.isqrt(table.nrows)))


def generator_table(R: EndoPair) -> Matrix:
    """The n^2 x n^2 table of R's entries that D(R) and sigma_R read: row
    (j, u) is A(c_ju) = L_ju of tensor_ops.leg_blocks flattened, so entry
    (i, v) of it is x_uv^ji, the entry ((i, j), (v, u)) of R.matrix()."""
    x = _entries(R)
    return Matrix._computed(R.field, [[x[s] for row in block for s in row]
                                      for block in leg_blocks(R.n)[0]])


def _combo_text(field, pairs):
    """Signed sum of (coeff, label) terms, "0" for none: a coefficient 1 is
    left out, and one with an inner sign or space is parenthesised."""
    out = ""
    for coeff, label in pairs:
        mag = field.show(coeff)
        sign = "-" if mag.startswith("-") else "+"
        mag = mag.removeprefix("-")
        if mag != "1":
            wrap = "(%s)" if any(ch in mag for ch in " +-") else "%s"
            label = wrap % mag + "*" + label
        if out:
            out += " %s %s" % (sign, label)
        else:
            out = label if sign == "+" else "-" + label
    return out or "0"


class QuotientCoalgebra(Coalgebra):
    """comatrix(n)/I(R) for the operator with this generator table, on the
    non-pivot coordinates of I(R)'s reduced basis. Built from a table alone,
    it is always a quotient by a coideal (`obstruction_coideal`), so its
    axioms hold; the tests check them. It keeps a generator: I(R) = (A')^perp
    and A' holds the identity, so c_11 is not in I(R).

    The quotient map is read off the echelon form: pi(e_s) = e_s on a
    non-pivot column s, and e_p + sum_s basis[r][s] e_s lies in I for the
    pivot p of row r, so pi(e_p) = -sum_s basis[r][s] e_s. The tests check
    that this equals the last rows of B^-1 for B = [basis | section], and
    that another section gives the same coalgebra."""

    def __init__(self, table: Matrix):
        parent = comatrix(table.field, math.isqrt(table.nrows))  # refuses n >= 10 before the rref
        basis, pivots = obstruction_coideal(table)
        k, d = parent.field, parent.dim
        section = [c for c in range(d) if c not in pivots]
        proj = [[k.zero] * d for _ in section]
        for b, s in enumerate(section):
            proj[b][s] = k.one
            for row, p in zip(basis, pivots):
                proj[b][p] = k.neg(row[s])
        self.parent, self.basis, self.pivots = parent, basis, pivots
        self.proj = Matrix._computed(k, proj)
        self.section_cols = section
        # Coalgebra's fields but mu, which is formed on first read
        self.field, self.dim = k, len(section)
        self.labels = [parent.labels[c] + "~" for c in section]
        self.counit = [parent.counit[c] for c in section]

    @functools.cached_property
    def mu(self):
        """Delta-bar(e_c~) = (pi (x) pi) Delta(e_c): the table P mu[c] P^t
        for each section column c."""
        proj_t = self.proj.transpose()
        return [self.proj.mul(self.parent.delta_matrix(c)).mul(proj_t).rows
                for c in self.section_cols]


def relation_strings(Q: QuotientCoalgebra):
    """One line per reduced relation of I(R): pivot term first, the rest in
    row-major label order, '= 0' suffix."""
    C, k = Q.parent, Q.field
    lines = []
    for row, piv in zip(Q.basis, Q.pivots):
        order = [piv] + [a for a in range(C.dim)
                         if a != piv and not k.is_zero(row[a])]
        pairs = [(row[a], C.labels[a]) for a in order]
        lines.append(_combo_text(k, pairs) + " = 0")
    return lines


class FrtPresentation:
    """D(R) presented as the free algebra on a basis of comatrix(n)/I(R).

    It keeps R as its generator table, and comatrix(n)/I(R), which holds
    the reduced basis of I(R), as its `quotient`. Building it is the
    solution gate: `require_solution` on that basis."""

    def __init__(self, R: EndoPair):
        self.endo = R
        self.field = R.field
        self.n = R.n
        self.table = generator_table(R)
        self.quotient = QuotientCoalgebra(self.table)
        require_solution(R, self.table, self.quotient.basis)

    @functools.cached_property
    def relations(self):
        """`relation_strings` of I(R), rendered on first read."""
        return relation_strings(self.quotient)

    @property
    def ideal(self):
        """I(R) by its dimension, `ideal.dim`, which perfbench reads."""
        return types.SimpleNamespace(dim=len(self.quotient.pivots))

    @property
    def generators(self):
        return self.quotient.labels

    def gen_coalgebra(self) -> Coalgebra:
        """The coalgebra of generators, comatrix(n)/I(R)."""
        return self.quotient

    def generator_lines(self):
        """Delta, Sweedler-style, and eps of every generator, as text."""
        Q, k = self.quotient, self.field
        lines = []
        for label, table, eps in zip(Q.labels, Q.mu, Q.counit):
            pairs = [(c, "%s(x)%s" % (Q.labels[p], Q.labels[q])) for p, row in enumerate(table)
                     for q, c in enumerate(row) if not k.is_zero(c)]
            lines.append("Delta(%s) = %s" % (label, _combo_text(k, pairs)))
            lines.append("eps(%s) = %s" % (label, k.show(eps)))
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
                % (self.n, len(self.quotient.pivots), ",".join(self.generators)))


def d_bialgebra(R: EndoPair) -> FrtPresentation:
    """The universal bialgebra presentation for a D-equation solution."""
    return FrtPresentation(R)
