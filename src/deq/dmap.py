"""D-maps on coalgebras: the balance condition on bilinear forms, the map
sigma attached to a solution R, regeneration of R from a comodule and a
D-map, strong D-maps from symmetric solutions, and convolution inverses.

A D-map is sigma: C (x) C/I -> k with
sum sigma(c_1 (x) d~) c_2~ = sum sigma(c_2 (x) d~) c_1~ in C/I; it is
strong when I = 0.
"""

from __future__ import annotations

import functools

from .coalg import BilinearForm, Coalgebra, Coideal, Comodule, convolve, counit_form
from .fields import MathError, UsageError
from .frt import d_bialgebra, standard_comodule
from .linalg import Matrix, linear_combination
from .tensor_ops import EndoPair, first_violation, invert


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


def _sigma0_table(R: EndoPair):
    """sigma0(c_iv (x) c_ju) = x_uv^ji on full C (x) C."""
    n, k = R.n, R.field
    d = n * n
    table = [[k.zero] * d for _ in range(d)]
    for i in range(n):
        for v in range(n):
            for j in range(n):
                for u in range(n):
                    table[i * n + v][j * n + u] = R.x[u][v][j][i]
    return table


def _check_kills_right(table, I: Coideal, what: str):
    """sigma0(C (x) I) = 0, reporting the offending pair."""
    k = I.parent.field
    for r, w in enumerate(I.basis):
        for a in range(I.parent.dim):
            s = k.sum(k.mul(w[m], table[a][m]) for m in range(len(w)))
            if not k.is_zero(s):
                raise RuntimeError(
                    "%s does not vanish on %s (x) relation %d"
                    % (what, I.parent.labels[a], r + 1))


def _sigma_table(R: EndoPair, I: Coideal, Q, what: str):
    """sigma0 of R on C (x) C/I: checked to vanish on C (x) I, then read on
    the section columns of Q."""
    table0 = _sigma0_table(R)
    _check_kills_right(table0, I, what)
    return [[row[c] for c in Q.section_cols] for row in table0]


def sigma_from_r(R: EndoPair) -> DMap:
    """The unique D-map with sigma(c_iv (x) c_ju~) = x_uv^ji for a solution R."""
    pres = d_bialgebra(R)
    C, I, Q = pres.coalgebra, pres.ideal, pres.quotient
    sigma = BilinearForm(C, Q, _sigma_table(R, I, Q, "sigma"))
    if not is_dmap(C, Q, sigma):
        raise RuntimeError("balance condition failed for a solution")
    return DMap(C, I, Q, sigma, endo=R)


def r_sigma(comodule: Comodule, dm: DMap) -> EndoPair:
    """R_sigma(m (x) n) = sum sigma(m_1 (x) n_1~) m_0 (x) n_0, that is
    R = sum_a P_a (x) (sum_b sigma-bar[a][b] P_b) with sigma-bar the table
    pulled back to C (x) C."""
    if comodule.coalgebra is not dm.coalgebra:
        raise UsageError("comodule is not over the D-map's coalgebra")
    k = dm.coalgebra.field
    Q = dm.quotient
    # sigma with the right leg pulled back to C
    pulled = dm.sigma.table if Q is None else \
        Matrix(k, dm.sigma.table, coerce=False).mul(Q.proj).rows
    P = comodule.slices
    out = EndoPair.from_matrix(functools.reduce(
        Matrix.add, (Pa.kron(linear_combination(row, P)) for Pa, row in zip(P, pulled))))
    if first_violation(out) is not None:
        raise RuntimeError("operator from a D-map fails the equation")
    return out


def first_symmetry_violation(R: EndoPair):
    """First (u,v,j,i), 1-based, with x_uv^ji != x_vu^ij, or None."""
    n = R.n
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    if R.x[u][v][j][i] != R.x[v][u][i][j]:
                        return (u + 1, v + 1, j + 1, i + 1)
    return None


def strong_dmap_from_symmetric(R: EndoPair):
    """(C(R), strong D-map) for a solution with R tau = tau R; sigma then
    factors through I(R) on both legs."""
    pres = d_bialgebra(R)
    bad = first_symmetry_violation(R)
    if bad is not None:
        u, v, j, i = bad
        raise MathError(
            "R tau != tau R: x_%d%d^%d%d != x_%d%d^%d%d" % (u, v, j, i, v, u, i, j))
    C, I, Q = pres.coalgebra, pres.ideal, pres.quotient
    table0 = _sigma0_table(R)
    _check_kills_right(table0, I, "sigma")
    # symmetry makes the left leg factor as well
    left = [[table0[a][b] for a in range(C.dim)] for b in range(C.dim)]
    _check_kills_right(left, I, "sigma (left leg)")
    table = [[table0[a][b] for b in Q.section_cols] for a in Q.section_cols]
    sigma = BilinearForm(Q, Q, table)
    dm = DMap(Q, None, None, sigma)
    if not is_dmap(Q, None, sigma):
        raise RuntimeError("balance condition failed for a symmetric solution")
    std = standard_comodule(C).pushforward(Q)
    back = r_sigma(std, dm)
    if back != R:
        raise RuntimeError("strong D-map does not regenerate R")
    return Q, dm


def convolution_inverse_of_sigma(dm: DMap) -> BilinearForm:
    """sigma' with sigma * sigma' = sigma' * sigma = eps (x) eps~ for the
    D-map `sigma_from_r(R)`, built from the coefficients of R^{-1}."""
    if dm.endo is None:
        raise UsageError("the D-map was not built from an operator")
    Rinv = invert(dm.endo)
    if Rinv is None:
        raise MathError("operator is not bijective; sigma has no convolution inverse")
    C, Q = dm.coalgebra, dm.quotient
    prime = BilinearForm(C, Q, _sigma_table(Rinv, dm.ideal, Q, "sigma'"))
    unit = counit_form(C, Q)
    if convolve(dm.sigma, prime) != unit or convolve(prime, dm.sigma) != unit:
        raise RuntimeError("convolution identities failed for sigma'")
    return prime
