"""Group gradings as dimodules: the S3 example whose induced operator fails
QYBE, and a Z/2 eigenspace grading whose tensor square adds degrees."""

from deq import catalog
from deq.dimodule import (GradedModule, dimodule_from_grading, group_bialgebra,
                          r_from_dimodule, tensor_dimodule)
from deq.fields import QQ
from deq.linalg import Matrix
from deq.tensor_ops import check_d, check_qybe


def main():
    print("== a non-abelian grading ==")
    graded = catalog.s3_graded_module(QQ)
    labels = graded.host.labels
    for i, label in enumerate(labels):
        if not graded.projectors[i].is_zero():
            dim = sum(1 for r in range(3)
                      if any(not QQ.is_zero(v) for v in graded.projectors[i].rows[r]))
            print("component of degree %s has dimension %d" % (label, dim))
    d = dimodule_from_grading(graded)
    print("compatible as a dimodule: %s" % d.is_compatible())
    R = r_from_dimodule(d)
    print("induced 9 x 9 operator: d %s, qybe %s" % (check_d(R), check_qybe(R)))
    print("(degrees t12 and t13 do not commute, and QYBE notices)")

    print()
    print("== a Z/2 eigenspace grading ==")
    k = QQ
    H = group_bialgebra(k, ["e", "g"], [[0, 1], [1, 0]])
    z, o = k.zero, k.one
    act_g = Matrix(k, [[o, z], [z, k.neg(o)]], coerce=False)
    pe = Matrix(k, [[o, z], [z, z]], coerce=False)
    pg = Matrix(k, [[z, z], [z, o]], coerce=False)
    graded = GradedModule(H, [Matrix.identity(k, 2), act_g], [pe, pg])
    d = dimodule_from_grading(graded)
    R = r_from_dimodule(d)
    print("induced operator solves the equation: %s" % check_d(R))

    t = tensor_dimodule(d, d)
    print("tensor square is again a dimodule of dimension %d" % t.dim)
    proj = t.comodule.slices
    vec = [z, z, z, o]
    even = proj[0].apply(vec) == vec
    print("degree of m2 (x) m2 is g.g = e: %s" % even)
    print("its operator solves the equation: %s" % check_d(r_from_dimodule(t)))


if __name__ == "__main__":
    main()
