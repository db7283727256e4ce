"""Finite-dimensional coalgebras by structure constants, comodules, and the
convolution algebra of scalar bilinear forms. The one quotient coalgebra
the package builds, comatrix(n)/I(R), is `deq.frt.QuotientCoalgebra`.

Delta(e_a) = sum_{b,c} mu[a][b][c] e_b (x) e_c, counit eps[a]. Tensor-square
coordinates are flattened as (b, c) -> b*d + c.
"""

from __future__ import annotations

import itertools

from .fields import Field, UsageError
from .linalg import Matrix, module_defects


def _first_difference(X: Matrix, Y: Matrix):
    """First (row, column) where two matrices of one shape differ, or None."""
    if X == Y:
        return None
    return next((i, j) for i, (rx, ry) in enumerate(zip(X.rows, Y.rows))
                for j, (x, y) in enumerate(zip(rx, ry)) if x != y)


def _action_failure(unit, product, act):
    """Where the n x n matrices act[a] fail to be a module over the algebra
    with unit sum_a unit[a] e_a and e_a e_b = sum_c product(a, b)[c] e_c, or
    None: (None, (i, j)) when sum_a unit[a] act[a] differs from the identity
    at entry (i, j), else ((a, b), (i, j)) for the first pair with
    act[a] act[b] != sum_c product(a, b)[c] act[c], pairs and entries in
    row-major order.

    This is the module axiom, and also the comodule axiom: the slices of a
    right C-comodule are a module over the dual algebra C*, with unit eps
    and e^b e^a = sum_c mu[c][b][a] e^c (Sweedler 1969, Hopf Algebras, 2.1).
    Block products form the sides, a band of pairs at a time
    (`module_defects`); the scan stops at the first band that fails."""
    n, d = act[0].nrows, len(act)
    rows = module_defects(act, unit, [product(a, b) for a in range(d) for b in range(d)])
    for pair, row in zip(itertools.chain([None], itertools.product(range(d), repeat=2)), rows):
        if any(row):
            return pair, divmod(next(t for t, v in enumerate(row) if v), n)
    return None


def _require_module(unit, product, act, labels, error, unit_message, pair_message):
    """Raise error(unit_message), or error(pair_message) naming the labels of
    the pair, where `_action_failure` finds the module axiom failing."""
    bad = _action_failure(unit, product, act)
    if bad is not None:
        pair = bad[0]
        raise error(unit_message if pair is None
                    else pair_message % (labels[pair[0]], labels[pair[1]]))


class Coalgebra:
    """Structure-constant coalgebra; entries are coerced into the field and
    the axioms verified at construction unless check=False, which is for
    coalgebras by construction (comatrix, grouplike, k[G]): their values
    come from the field and are taken as built, and their axioms the tests
    check."""

    def __init__(self, field: Field, labels, delta, counit, check: bool = True):
        d = len(labels)
        if d < 1:
            raise UsageError("coalgebra dimension must be positive")
        self.field = field
        self.labels = list(labels)
        self.dim = d
        if check:
            delta = [[[field.coerce(delta[a][b][c]) for c in range(d)] for b in range(d)]
                     for a in range(d)]
            counit = [field.coerce(counit[a]) for a in range(d)]
        self.mu = delta
        self.counit = counit
        if check:
            self._check_axioms()

    def _check_axioms(self):
        """Coassociativity and the right counit law are the comodule axioms
        of Delta on C itself, with the regular slices
        P_a[w][l] = mu[l][w][a]; the left counit law is eps^T P_c = e_c^T."""
        labels, P = self.labels, self._regular_slices()
        bad = _action_failure(self.counit, self._dual_product, P)
        if bad is not None:
            pair, (w, l) = bad
            if pair is None:
                raise UsageError("counit law fails at %s" % labels[l])
            raise UsageError("not coassociative at (%s; %s,%s,%s)"
                             % (labels[l], labels[w], labels[pair[0]], labels[pair[1]]))
        left = Matrix._computed(self.field, [Pc.transpose().apply(self.counit) for Pc in P])
        where = _first_difference(left, Matrix.identity(self.field, self.dim))
        if where is not None:
            raise UsageError("counit law fails at %s" % labels[where[1]])

    def _regular_slices(self):
        """The slices of Delta as a right comodule over C itself:
        P_a[w][l] = mu[l][w][a], column l of P_a is column a of M_l."""
        deltas = [self.delta_matrix(l) for l in range(self.dim)]
        return [Matrix._computed(self.field, [M.col(a) for M in deltas]).transpose()
                for a in range(self.dim)]

    def _dual_product(self, b, a):
        """Coefficients of e^b e^a = sum_c mu[c][b][a] e^c in the dual algebra C*."""
        return [self.mu[c][b][a] for c in range(self.dim)]

    def delta_matrix(self, a) -> Matrix:
        """M_a, the Matrix of mu[a]: Delta(e_a) = sum M_a[b][c] e_b (x) e_c."""
        return Matrix._computed(self.field, self.mu[a])

    def __repr__(self):
        return "Coalgebra(dim=%d, %r)" % (self.dim, self.field)


def comatrix(field, n: int) -> Coalgebra:
    """The comatrix coalgebra of order n: Delta(c_jk) = sum_u c_ju (x) c_uk."""
    if not 1 <= n <= 9:
        raise UsageError("comatrix order must be in 1..9 (labels are two digits)")
    d = n * n
    labels = ["c%d%d" % (j + 1, k + 1) for j in range(n) for k in range(n)]
    z, o = field.zero, field.one
    e = [[o if i == c else z for i in range(d)] for c in range(d)]
    # row c_ju of Delta(c_jk) is the unit vector of c_uk, the other rows are zero
    mu = [[e[b % n * n + k] if b // n == j else [z] * d for b in range(d)]
          for j in range(n) for k in range(n)]
    eps = [o if j == k else z for j in range(n) for k in range(n)]
    return Coalgebra(field, labels, mu, eps, check=False)


def grouplike_coalgebra(field, labels) -> Coalgebra:
    """k[X]: every basis label is grouplike."""
    labels = list(labels)
    if not labels:
        raise UsageError("label set must be nonempty")
    d = len(labels)
    z, o = field.zero, field.one
    mu = [[[o if c == a else z for c in range(d)] if b == a else [z] * d for b in range(d)]
          for a in range(d)]
    return Coalgebra(field, labels, mu, [o] * d, check=False)


class Comodule:
    """Right C-comodule on k^dim, stored as its slices: one dim x dim Matrix
    P_a per basis element e_a of C, with P_a[w][l] the coefficient of
    m_w (x) e_a in rho(m_l). The slices are the action of the dual basis of
    the algebra C* (Sweedler 1969, Hopf Algebras, 2.1), so the axioms read
    sum_a eps(e_a) P_a = I and P_b P_a = sum_c mu[c][b][a] P_c.

    The axioms are verified at construction unless check=False, which is for
    comodules by construction, whose axioms the tests check: the comodule
    of the canonical dimodule of D(R), which is the standard comodule of
    comatrix(n) pushed along the quotient map, a coalgebra map; the
    coaction of a graded module (`dimodule_from_grading`), whose projectors
    are orthogonal idempotents that sum to the identity; and the coaction of
    a tensor product of dimodules (`tensor_dimodule`)."""

    def __init__(self, C: Coalgebra, slices, check: bool = True):
        if len(slices) != C.dim:
            raise UsageError("one slice per coalgebra basis element required")
        dim = slices[0].nrows
        for P in slices:
            if P.field != C.field or P.nrows != dim or P.ncols != dim:
                raise UsageError("comodule slice has wrong shape or field")
        self.coalgebra = C
        self.dim = dim
        self.slices = list(slices)
        if check:
            self._check_axioms()

    def _check_axioms(self):
        C = self.coalgebra
        _require_module(C.counit, C._dual_product, self.slices, C.labels, UsageError,
                        "comodule counit law fails", "comodule coassociativity fails at (%s, %s)")


class BilinearForm:
    """Scalar table phi[a][b] on C (x) D basis pairs; D may be a quotient.
    The entries are field values, taken as built: the field's own operations
    produced them, or the caller coerced them (Field.coerce)."""

    def __init__(self, left: Coalgebra, right: Coalgebra, table):
        if right.field != left.field:
            raise UsageError("mixed fields in a bilinear form")
        self.left = left
        self.right = right
        self.table = table

    def __call__(self, a, b):
        return self.table[a][b]

    def __eq__(self, other):
        return (isinstance(other, BilinearForm) and self.left is other.left
                and self.right is other.right and self.table == other.table)


def counit_form(left: Coalgebra, right: Coalgebra) -> BilinearForm:
    """The convolution unit eps (x) eps."""
    k = left.field
    return BilinearForm(left, right, [[k.mul(ea, eb) for eb in right.counit]
                                      for ea in left.counit])


def convolve(phi: BilinearForm, psi: BilinearForm) -> BilinearForm:
    """(phi * psi)(c (x) d) = sum phi(c1 (x) d1) psi(c2 (x) d2): with
    W_b = phi M^D_b psi^T, out[a][b] is the sum of M^C_a[a1][a2] W_b[a1][a2],
    one product of the flattened M^C_a with the flattened W_b."""
    if phi.left is not psi.left or phi.right is not psi.right:
        raise UsageError("convolution needs forms on the same coalgebra pair")
    C, D, k = phi.left, phi.right, phi.left.field
    phi_m = Matrix._computed(k, phi.table)
    psi_t = Matrix._computed(k, psi.table).transpose()
    w = [[v for row in phi_m.mul(D.delta_matrix(b)).mul(psi_t).rows for v in row]
         for b in range(D.dim)]
    mc = Matrix._computed(k, [list(itertools.chain(*table)) for table in C.mu])
    return BilinearForm(C, D, mc.mul(Matrix._computed(k, w).transpose()).rows)
