"""D-maps on coalgebras: the balance condition on bilinear forms, the map
sigma attached to a solution R, strong D-maps from symmetric solutions,
and convolution inverses.

A D-map is sigma: C (x) C/I -> k with
sum sigma(c_1 (x) d~) c_2~ = sum sigma(c_2 (x) d~) c_1~ in C/I; it is
strong when I = 0.
"""

from __future__ import annotations

import itertools

from .coalg import BilinearForm, Coalgebra
from .fields import MathError, UsageError
from .frt import d_bialgebra, generator_table
from .linalg import Matrix
from .tensor_ops import EndoPair, invert


class DMap:
    """sigma: C (x) C/I -> k satisfying the balance condition; `endo` is the
    solution R it was built from, if any."""

    def __init__(self, C: Coalgebra, I, Q, sigma: BilinearForm, endo: EndoPair = None):
        self.coalgebra = C
        self.ideal = I
        self.quotient = Q
        self.sigma = sigma
        self.endo = endo

    @property
    def is_strong(self) -> bool:
        return self.ideal is None or self.ideal.dim == 0

    def __repr__(self):
        kind = "strong " if self.is_strong else ""
        return "DMap(%sdim C=%d)" % (kind, self.coalgebra.dim)


def is_dmap(C: Coalgebra, Q, sigma) -> bool:
    """Balance condition, exactly, on all basis pairs: with M_a the matrix
    of Delta(e_a), sigma^T M_a pi = sigma^T M_a^T pi for every a.

    `Q` is the quotient C/I, or None for I = 0; `sigma` a BilinearForm (or
    raw table) on C (x) C/I, where C/I means C itself when Q is None."""
    k = C.field
    table = sigma.table if isinstance(sigma, BilinearForm) else sigma
    qdim = C.dim if Q is None else Q.dim
    if len(table) != C.dim or any(len(row) != qdim for row in table):
        raise UsageError("sigma table has wrong shape")
    # pi: row a is the image of basis element a in C/I
    pi = Matrix.identity(k, C.dim) if Q is None else Q.proj.transpose()
    sigma_t = Matrix(k, table).transpose()
    for a in range(C.dim):
        M = C.delta_matrix(a)
        if sigma_t.mul(M).mul(pi) != sigma_t.mul(M.transpose()).mul(pi):
            return False
    return True


def _sigma_table(table: Matrix, Q):
    """sigma(c_iv (x) c_ju~) = x_uv^ji on C (x) C/I: the generator table of
    R transposed, read on the section columns of Q."""
    return [list(col) for col in zip(*(table.rows[c] for c in Q.section_cols))]


def sigma_from_r(R: EndoPair) -> DMap:
    """The unique D-map with sigma(c_iv (x) c_ju~) = x_uv^ji for a solution R.

    Building the presentation checks at run time that R is a solution.
    The rest are theorems, checked in the tests rather than on every call:
    sigma0, the generator table transposed, vanishes on C (x) I(R) (row
    (i, v) of sigma0 paired with w in I(R) is entry (i, v) of A(w), zero by
    the solution gate), so reading it on the section columns is well
    defined; and sigma is a D-map, the balance condition of the paper's last
    section."""
    pres = d_bialgebra(R)
    C, I, Q = pres.coalgebra, pres.ideal, pres.quotient
    return DMap(C, I, Q, BilinearForm(C, Q, _sigma_table(pres.table, Q)), endo=R)


def first_symmetry_violation(R: EndoPair):
    """First (u,v,j,i), 1-based, with x_uv^ji != x_vu^ij, or None: R commutes
    with tau exactly when its generator table, entry x_uv^ji at ((j, u),
    (i, v)), is symmetric."""
    table = generator_table(R)
    if table == table.transpose():
        return None
    return next(t for t in itertools.product(range(1, R.n + 1), repeat=4)
                if R.coeff(*t) != R.coeff(t[1], t[0], t[3], t[2]))


def strong_dmap_from_symmetric(R: EndoPair):
    """(C(R), strong D-map) for a solution with R tau = tau R; sigma then
    factors through I(R) on both legs.

    Symmetry is checked at run time. Then sigma0 is a symmetric table, so it
    vanishes on I (x) C as on C (x) I, and sigma is the rows of sigma_R at
    the section columns; that the result is a strong D-map and that R_sigma
    (tests/oracles.py, r_sigma) regenerates R from it are theorems the
    tests check."""
    pres = d_bialgebra(R)
    bad = first_symmetry_violation(R)
    if bad is not None:
        u, v, j, i = bad
        raise MathError(
            "R tau != tau R: x_%d%d^%d%d != x_%d%d^%d%d" % (u, v, j, i, v, u, i, j))
    Q = pres.quotient
    sigma = _sigma_table(pres.table, Q)
    return Q, DMap(Q, None, None, BilinearForm(Q, Q, [sigma[a] for a in Q.section_cols]))


def convolution_inverse_of_sigma(dm: DMap) -> BilinearForm:
    """sigma' with sigma * sigma' = sigma' * sigma = eps (x) eps~ for the
    D-map `sigma_from_r(R)`: sigma_(R^-1), read on the section columns.

    Bijectivity of R is decided at run time by `invert`. The rest is a
    theorem the tests check: on comatrix(n) the forms on C (x) C are
    End(M (x) M), sigma_R is R and convolution is the matrix product; the
    forms on C (x) C/I are the unital subalgebra M_n (x) I^perp, which holds
    the inverse of each of its invertible elements. So sigma_(R^-1) vanishes
    on C (x) I and is the two-sided convolution inverse."""
    if dm.endo is None:
        raise UsageError("the D-map was not built from an operator")
    Rinv = invert(dm.endo)
    if Rinv is None:
        raise MathError("operator is not bijective; sigma has no convolution inverse")
    return BilinearForm(dm.coalgebra, dm.quotient,
                        _sigma_table(generator_table(Rinv), dm.quotient))
