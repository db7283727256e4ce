"""Worked example operators and groups: the two-parameter triangular family,
the rank-one family R_q, the plane-projection solution, the two-dimensional
Yang-Baxter operator, the block family, and the S3 graded module.
"""

from __future__ import annotations

from .dimodule import FinBialgebra, GradedModule, group_bialgebra
from .fields import Field, UsageError
from .linalg import Matrix
from .tensor_ops import EndoPair, product_solution


def triangular_solution(field: Field, a, b, c) -> EndoPair:
    """f (x) g for f=[[a,1],[0,a]], g=[[b,c],[0,b]]; solves both the
    D-equation and QYBE (f and g commute)."""
    a, b, c = field.coerce(a), field.coerce(b), field.coerce(c)
    f = Matrix(field, [[a, field.one], [field.zero, a]], coerce=False)
    g = Matrix(field, [[b, c], [field.zero, b]], coerce=False)
    return product_solution(f, g)


def rq(field: Field, q) -> EndoPair:
    """[[0,-q,0,-q^2],[0,1,0,q],[0,0,0,0],[0,0,0,0]]; a D-equation and Hopf
    equation solution f (x) g for f=[[1,q],[0,0]], g=[[0,-q],[0,1]], with
    fg = gf = 0."""
    q = field.coerce(q)
    z, o = field.zero, field.one
    f = Matrix(field, [[o, q], [z, z]], coerce=False)
    g = Matrix(field, [[z, field.neg(q)], [z, o]], coerce=False)
    return product_solution(f, g)


def projection_solution(field: Field, a=2, b=3) -> EndoPair:
    """f (x) g for f the projection onto the first axis and g=diag(a,b)."""
    a, b = field.coerce(a), field.coerce(b)
    z, o = field.zero, field.one
    f = Matrix(field, [[o, z], [z, z]], coerce=False)
    g = Matrix(field, [[a, z], [z, b]], coerce=False)
    return product_solution(f, g)


def yang_baxter_operator(field: Field, q) -> EndoPair:
    """[[q,0,0,0],[0,1,q-1/q,0],[0,0,1,0],[0,0,0,q]]: solves QYBE, fails the
    D-equation (q != 0)."""
    q = field.coerce(q)
    if field.is_zero(q):
        raise UsageError("q must be nonzero")
    z, o = field.zero, field.one
    mid = field.sub(q, field.inv(q))
    rows = [[q, z, z, z],
            [z, o, mid, z],
            [z, z, o, z],
            [z, z, z, q]]
    return EndoPair.from_matrix(Matrix(field, rows, coerce=False))


def block_family(field: Field, a, b, c, d, e, f) -> EndoPair:
    """[[a,0,0,0],[0,b,c,0],[0,d,e,0],[0,0,0,f]]; a D-equation solution
    exactly when c = d = 0."""
    a, b, c = field.coerce(a), field.coerce(b), field.coerce(c)
    d, e, f = field.coerce(d), field.coerce(e), field.coerce(f)
    z = field.zero
    rows = [[a, z, z, z],
            [z, b, c, z],
            [z, d, e, z],
            [z, z, z, f]]
    return EndoPair.from_matrix(Matrix(field, rows, coerce=False))


S3_LABELS = ["e", "t12", "t13", "t23", "c123", "c132"]

_S3_PERMS = {
    "e": (1, 2, 3),
    "t12": (2, 1, 3),
    "t13": (3, 2, 1),
    "t23": (1, 3, 2),
    "c123": (2, 3, 1),
    "c132": (3, 1, 2),
}


def s3_cayley():
    """(labels, table) with table[a][b] = index of perm_a composed after
    perm_b."""
    perms = [_S3_PERMS[lab] for lab in S3_LABELS]
    index = {perm: i for i, perm in enumerate(perms)}
    table = []
    for s in perms:
        row = []
        for t in perms:
            st = tuple(s[t[i] - 1] for i in range(3))
            row.append(index[st])
        table.append(row)
    return list(S3_LABELS), table


def s3_bialgebra(field: Field) -> FinBialgebra:
    labels, table = s3_cayley()
    return group_bialgebra(field, labels, table)


def _s3_plane_rep(field: Field):
    """Exact 2x2 matrices of the standard representation on the sum-zero
    plane, basis v1 = e1-e2, v2 = e2-e3."""
    k = field
    o, z = k.one, k.zero
    m = k.neg(o)
    return {
        "e": [[o, z], [z, o]],
        "t12": [[m, o], [z, o]],
        "t13": [[z, m], [m, z]],
        "t23": [[o, z], [o, m]],
        "c123": [[z, m], [o, m]],
        "c132": [[m, o], [m, z]],
    }


def s3_graded_module(field: Field) -> GradedModule:
    """3-dimensional module over k[S3]: the sum-zero plane graded by t12 and
    a trivial line graded by t13; component degrees do not commute."""
    H = s3_bialgebra(field)
    rep = _s3_plane_rep(field)
    k = field
    z, o = k.zero, k.one
    action = []
    for lab in S3_LABELS:
        r = rep[lab]
        action.append(Matrix(k, [[r[0][0], r[0][1], z],
                                 [r[1][0], r[1][1], z],
                                 [z, z, o]], coerce=False))
    zero = Matrix.zeros(k, 3, 3)
    projectors = []
    for lab in S3_LABELS:
        if lab == "t12":
            projectors.append(Matrix(k, [[o, z, z], [z, o, z], [z, z, z]],
                                     coerce=False))
        elif lab == "t13":
            projectors.append(Matrix(k, [[z, z, z], [z, z, z], [z, z, o]],
                                     coerce=False))
        else:
            projectors.append(zero)
    return GradedModule(H, action, projectors)


def s3_graded_solution(field: Field) -> EndoPair:
    """The 9x9 operator of the S3-graded module: solves the D-equation but
    not QYBE."""
    from .dimodule import dimodule_from_grading, r_from_dimodule
    return r_from_dimodule(dimodule_from_grading(s3_graded_module(field)))
