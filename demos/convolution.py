"""The bilinear map attached to a solution: its table, the balance condition,
strongness for symmetric solutions, and convolution inverses for bijective
ones."""

from deq import catalog
from deq.coalg import BilinearForm, convolve, counit_form
from deq.dmap import (convolution_inverse_of_sigma, is_dmap, sigma_from_r,
                      strong_dmap_from_symmetric)
from deq.fields import MathError, QQ
from deq.frt import relation_strings
from deq.tensor_ops import diagonal_solution


def show_table(form, field):
    for a, lab in enumerate(form.left.labels):
        for b, lab2 in enumerate(form.right.labels):
            v = form.table[a][b]
            if not field.is_zero(v):
                print("  sigma(%s, %s) = %s" % (lab, lab2, field.show(v)))


def main():
    R = diagonal_solution(QQ, [[1, 2], [3, 4]])
    print("operator: diagonal with weights 1 2 / 3 4")
    dm = sigma_from_r(R)
    print("relations: %s" % ", ".join(relation_strings(dm.quotient)))
    print("sigma lives on C (x) C/I with quotient dimension %d:" % dm.sigma.right.dim)
    show_table(dm.sigma, QQ)
    print("balance condition holds: %s" % is_dmap(dm.coalgebra, dm.quotient, dm.sigma))

    prime = convolution_inverse_of_sigma(dm)
    print()
    print("the operator is bijective, so sigma has a convolution inverse:")
    show_table(prime, QQ)
    sigma = BilinearForm(prime.left, prime.right, dm.sigma.table)
    unit = counit_form(prime.left, prime.right)
    print("sigma * sigma' == sigma' * sigma == eps (x) eps~: %s"
          % (convolve(sigma, prime) == unit and convolve(prime, sigma) == unit))

    print()
    R = catalog.rq(QQ, 2)
    print("the rank-one family is not bijective:")
    try:
        convolution_inverse_of_sigma(sigma_from_r(R))
    except MathError as exc:
        print("  %s" % exc)

    print()
    R = catalog.triangular_solution(QQ, 1, 2, 2)
    print("a symmetric solution (R tau = tau R) factors through the quotient")
    print("on both legs, giving a strong map there:")
    Q, dm = strong_dmap_from_symmetric(R)
    print("  both legs have dimension %d" % Q.dim)
    show_table(dm.sigma, QQ)
    print("  strong: %s" % dm.is_strong)


if __name__ == "__main__":
    main()
