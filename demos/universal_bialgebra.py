"""From one solution to its universal bialgebra: obstructions, the coideal
they span, the quotient presentation, and the round trip back to R."""

from deq import catalog
from deq.dimodule import r_from_dimodule
from deq.fields import QQ
from deq.frt import d_bialgebra, generator_table, obstruction_vectors
from deq.tensor_ops import identity_pair


def show_vector(labels, vec, field):
    terms = []
    for lab, v in zip(labels, vec):
        if field.is_zero(v):
            continue
        if v == field.one:
            terms.append(lab)
        else:
            terms.append("%s*%s" % (field.show(v), lab))
    return " + ".join(terms) if terms else "0"


def main():
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    print("operator: triangular family at a = b = c = 1")
    for row in R.matrix().rows:
        print("  " + " ".join(QQ.show(v) for v in row))

    labels = ["c11", "c12", "c21", "c22"]
    print()
    print("obstruction vectors o(i,j,k,l), the nonzero ones:")
    for key, vec in obstruction_vectors(generator_table(R)):
        if any(not QQ.is_zero(v) for v in vec):
            print("  o%s = %s" % (key, show_vector(labels, vec, QQ)))

    pres = d_bialgebra(R)
    print()
    print("they span a %d-dimensional coideal; the quotient has dimension %d"
          % (len(pres.quotient.pivots), pres.quotient.dim))
    for rel in pres.relations:
        print("  relation: %s" % rel)
    print("generators: %s" % " ".join(pres.generators))
    for line in pres.generator_lines():
        print("  " + line)

    regen = r_from_dimodule(pres.canonical_dimodule())
    print()
    print("round trip through the canonical dimodule returns R: %s"
          % (regen == R))

    print()
    print("the identity operator imposes no relations at all:")
    pres = d_bialgebra(identity_pair(QQ, 2))
    print("  ideal dimension %d, quotient dimension %d, %d relations"
          % (len(pres.quotient.pivots), pres.quotient.dim, len(pres.relations)))


if __name__ == "__main__":
    main()
