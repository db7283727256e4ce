"""The theorems `deq frt` and `deq dmap` rely on instead of re-checking them
on every run, and the universal property of D(R), each checked on every
(2, 2) and (2, 3) solution, on the catalog over Q, F_13 and Q(q), and on
seeded solutions with prescribed leg algebras at n = 3 and 4 over Q and
F_13 and n = 3 over Q(q)."""

import functools
import math
import random

import pytest

from deq import catalog
from deq.classify import endo_from_digits
from deq.coalg import BilinearForm, Comodule, comatrix, convolve, counit_form, quotient
from deq.dimodule import LongDimodule, r_from_dimodule
from deq.dmap import (DMap, convolution_inverse_of_sigma, first_symmetry_violation, is_dmap,
                      sigma_from_r, strong_dmap_from_symmetric)
from deq.fields import MathError, QQ
from deq.frt import (NotASolutionError, d_bialgebra, frt_col_order, generator_table,
                     obstruction_coideal, obstruction_vectors, require_solution)
from deq.linalg import Matrix, rref
from deq.tensor_ops import EndoPair, first_violation, invert
from oracles import (coideal, convolution_inverse, delta_form, kernel_basis, pushforward,
                     r_sigma, random_value, same_structure, section_quotient, sigma_form,
                     standard_comodule, structured_solution, universal_map,
                     universal_map_failure, x_table)
from test_classify import census
from test_matrix_forms import FIELDS, catalog_solutions
from test_tensor_ops import nested_loop_violation, one_entry_perturbations

FIELD_IDS = ["Q", "F13", "Qq"]
CATALOG = dict(zip(FIELD_IDS, FIELDS))
# Seeded structured_solution sources, "<field>-n<n>": (field, n, most terms).
# Each gives one operator for each shape (dim V, dim W, dim U) of SHAPES[n],
# n = dim V dim W + dim U, and each number of terms 1..most; one term over
# Q(q), where the convolution-inverse oracle takes seconds for two.
STRUCTURED = {"%s-n%d" % (name, n): (k, n, 1 if name == "Qq" else 2)
              for name, (k, _) in CATALOG.items() for n in ((3,) if name == "Qq" else (3, 4))}
SHAPES = {3: [(1, 1, 2), (3, 1, 0)], 4: [(2, 2, 0), (1, 3, 1)]}


@functools.lru_cache(maxsize=None)
def census_solutions():
    """Every solution over F_2 and F_3 at n = 2: 100 and 1,017."""
    out = []
    for p, count in ((2, 100), (3, 1017)):
        report = census(2, p)
        assert report.count == count
        out += [endo_from_digits(2, p, sol) for sol in report.solutions]
    return out


def each_solution(source):
    """The solutions of a source: the census, the catalog over a field, or
    seeded structured solutions over a field at one n, one for each shape
    and number of terms."""
    if source == "census":
        return census_solutions()
    if source in CATALOG:
        return catalog_solutions(*CATALOG[source])
    k, n, most = STRUCTURED[source]
    rng = random.Random(n)
    return [structured_solution(k, shape, terms, rng)
            for shape in SHAPES[n] for terms in range(1, most + 1)]


SOURCES = ["census"] + FIELD_IDS + list(STRUCTURED)


def perturbations(R):
    """R with one entry raised by 1, for every entry in row-major order."""
    rows = R.matrix().rows
    k = R.field
    for r in range(len(rows)):
        for c in range(len(rows)):
            bumped = [list(row) for row in rows]
            bumped[r][c] = k.add(bumped[r][c], k.one)
            yield EndoPair.from_matrix(Matrix._computed(k, bumped))


def sigma0_table(R):
    """sigma0(c_iv (x) c_ju) = x_uv^ji on full C (x) C: the generator table
    of R transposed."""
    return generator_table(R).transpose().rows


def vanishes_on_right(table, I):
    """The form with this table on C (x) C is zero on C (x) I."""
    if not I.basis:
        return True
    k = I.parent.field
    return Matrix._computed(k, table).mul(Matrix._computed(k, I.basis).transpose()).is_zero()


@pytest.mark.parametrize("k_q", [FIELDS[0], FIELDS[1], FIELDS[2]], ids=FIELD_IDS)
def test_obstruction_span_is_a_coideal_for_every_operator(k_q):
    """span{o(i,j,k,l)} passes the coideal check, and equals the unchecked
    obstruction_coideal, for catalog solutions, their one-entry
    perturbations and the Yang-Baxter operator."""
    k, q = k_q
    operators = [catalog.yang_baxter_operator(k, q)]
    for R in catalog_solutions(k, q):
        operators.append(R)
        if R.n == 2:
            operators += list(perturbations(R))
    solutions = 0
    for R in operators:
        table = generator_table(R)
        built = obstruction_coideal(table)
        assert same_structure(built.parent, comatrix(k, R.n))
        vectors = [v for _, v in obstruction_vectors(table)]
        checked = coideal(built.parent, vectors, col_order=frt_col_order(R.n))
        assert (built.basis, built.pivots) == (checked.basis, checked.pivots)
        solutions += first_violation(R) is None
    assert 0 < solutions < len(operators)


def test_obstruction_span_is_a_coideal_on_the_census_and_beyond():
    rng = random.Random(21)
    census_ops = census_solutions()
    operators = census_ops + [next(iter(perturbations(R))) for R in census_ops[::7]]
    for R in operators:
        table = generator_table(R)
        vectors = [v for _, v in obstruction_vectors(table)]
        built = obstruction_coideal(table)
        checked = coideal(built.parent, vectors, col_order=frt_col_order(2))
        assert (built.basis, built.pivots) == (checked.basis, checked.pivots)
    # random operators over F_3, nearly all of them non-solutions
    k = census_ops[-1].field
    for _ in range(100):
        R = EndoPair.from_matrix(Matrix(k, [[rng.randrange(3) for _ in range(4)]
                                            for _ in range(4)]))
        coideal(comatrix(k, 2), [v for _, v in obstruction_vectors(generator_table(R))])


@pytest.mark.parametrize("source", SOURCES)
def test_closed_form_quotient_map_is_the_inverse_rows(source):
    """pi read off the echelon form equals the last rows of B^-1, and the
    quotient coalgebras agree."""
    for R in each_solution(source):
        I = obstruction_coideal(generator_table(R))
        C = I.parent
        Q = quotient(C, I)
        oracle, proj = section_quotient(C, I, Q.section_cols)
        assert Q.proj == proj
        assert (Q.mu, Q.counit) == (oracle.mu, oracle.counit)


@pytest.mark.parametrize("source", SOURCES)
def test_sigma_from_r_is_a_dmap(source):
    for R in each_solution(source):
        dm = sigma_from_r(R)
        assert is_dmap(dm.coalgebra, dm.quotient, dm.sigma)


@pytest.mark.parametrize("source", SOURCES)
def test_sigma_vanishes_on_c_tensor_the_ideal(source):
    """sigma0 of R, and of R^-1 when R is bijective, vanishes on C (x) I(R);
    for a symmetric R sigma0 vanishes on I(R) (x) C as well."""
    inverses = symmetric = 0
    for R in each_solution(source):
        I = obstruction_coideal(generator_table(R))
        table = sigma0_table(R)
        assert vanishes_on_right(table, I)
        Rinv = invert(R)
        if Rinv is not None:
            inverses += 1
            assert vanishes_on_right(sigma0_table(Rinv), I)
        if first_symmetry_violation(R) is None:
            symmetric += 1
            assert vanishes_on_right([list(col) for col in zip(*table)], I)
    assert inverses and (source != "census" or symmetric)


@pytest.mark.parametrize("source", SOURCES)
def test_canonical_dimodule_is_compatible(source):
    for R in each_solution(source):
        pres = d_bialgebra(R)
        d = pres.canonical_dimodule()
        assert d.is_compatible()
        LongDimodule(pres, d.act, d.comodule, check=True)


@pytest.mark.parametrize("source", SOURCES)
def test_canonical_dimodule_gives_back_r(source):
    """The FRT-type theorem, which `deq frt` prints as its round trip
    without re-deriving it: R = R_(M,.,rho) for the canonical Long
    D(R)-dimodule."""
    for R in each_solution(source):
        assert r_from_dimodule(d_bialgebra(R).canonical_dimodule()) == R


@pytest.mark.parametrize("source", SOURCES)
def test_universal_map_is_a_bialgebra_map(source):
    """The universal property of D(R), which universal_map does not re-check:
    the assignment it reads off the canonical dimodule kills I(R), factors
    through the quotient and respects Delta and eps."""
    for R in each_solution(source):
        pres = d_bialgebra(R)
        assignment = universal_map(R, pres, pres.canonical_dimodule())
        assert universal_map_failure(R, pres, assignment) is None


@pytest.mark.parametrize("source", SOURCES)
def test_canonical_comodule_is_the_pushforward_of_the_standard_one(source):
    """Slice q of the canonical comodule, row q of the quotient map read as
    an n x n matrix, is the standard comodule of a fresh comatrix(n) pushed
    to C/I(R); it satisfies the comodule axioms."""
    for R in each_solution(source):
        pres = d_bialgebra(R)
        got = pres.canonical_dimodule().comodule
        want = pushforward(standard_comodule(comatrix(R.field, R.n)), pres.quotient)
        assert got.coalgebra is pres.quotient
        assert got.slices == want.slices
        Comodule(got.coalgebra, got.slices, check=True)


def sigma_as_matrix(R):
    """Entry ((i, j), (v, u)) of the table of sigma0(c_iv (x) c_ju)."""
    n, table = R.n, sigma0_table(R)
    return Matrix._computed(R.field, [[table[i * n + v][j * n + u]
                                       for v in range(n) for u in range(n)]
                                      for i in range(n) for j in range(n)])


@pytest.mark.parametrize("source", SOURCES)
def test_sigma_is_r_and_convolution_is_the_matrix_product(source):
    """On comatrix(n), sigma0 of R is R.matrix() re-indexed, convolving
    sigma0 of R and S gives sigma0 of RS, and sigma_(R^-1) is the two-sided
    convolution inverse of sigma_R, as the generic solve finds it."""
    solutions = each_solution(source)
    found = 0
    for R, S in zip(solutions, solutions[1:] + solutions[:1]):
        if (R.n, R.field) != (S.n, S.field):
            continue
        assert sigma_as_matrix(R) == R.matrix()
        C = comatrix(R.field, R.n)
        form = lambda T: BilinearForm(C, C, sigma0_table(T))
        RS = EndoPair.from_matrix(R.matrix().mul(S.matrix()))
        assert convolve(form(R), form(S)) == form(RS)
        dm = sigma_from_r(R)
        unit = counit_form(dm.coalgebra, dm.quotient)
        try:
            prime = convolution_inverse_of_sigma(dm)
        except MathError:
            assert invert(R) is None
            assert convolution_inverse(dm.sigma) is None
            continue
        found += 1
        assert convolve(dm.sigma, prime) == unit and convolve(prime, dm.sigma) == unit
        assert convolution_inverse(dm.sigma) == prime
    assert found


@pytest.mark.parametrize("source", SOURCES)
def test_r_sigma_solves_the_equation(source):
    """r_sigma of the standard comodule gives back R for sigma_from_r(R),
    and a solution for the D-maps sigma_f and delta_form."""
    rng = random.Random(22)
    for R in each_solution(source):
        dm = sigma_from_r(R)
        std = standard_comodule(dm.coalgebra)
        assert r_sigma(std, dm) == R
    k = R.field
    for n in (2, 3):
        C = comatrix(k, n)
        std = standard_comodule(C)
        for form in (sigma_form(C, [random_value(k, rng) for _ in range(C.dim)]),
                     delta_form(C, n, random_value(k, rng))):
            assert first_violation(r_sigma(std, DMap(C, None, None, form))) is None


@pytest.mark.parametrize("source", SOURCES)
def test_full_rank_is_bijectivity(source):
    """deq dmap prints its convolution inverse line from the number of
    pivots of rref(R): there are n^2 exactly when invert finds R^-1, on every
    solution of the source and on its one-entry perturbations, all of them
    at n = 2 and eight seeded ones above."""
    rng = random.Random(46)
    for R in each_solution(source):
        bumped = perturbations(R) if R.n == 2 else one_entry_perturbations(R, rng, 8)
        for S in [R, *bumped]:
            _, pivots = rref(S.matrix().rows, S.field)
            assert (len(pivots) == S.n ** 2) == (invert(S) is not None)


@pytest.mark.parametrize("source", ["census"] + FIELD_IDS)
def test_strong_dmaps_are_dmaps_and_regenerate(source):
    """On the symmetric solutions; no structured solution is symmetric."""
    symmetric = 0
    for R in each_solution(source):
        if first_symmetry_violation(R) is not None:
            continue
        symmetric += 1
        Q, dm = strong_dmap_from_symmetric(R)
        assert dm.is_strong and is_dmap(Q, None, dm.sigma)
        assert r_sigma(pushforward(standard_comodule(Q.parent), Q), dm) == R
    assert symmetric


@pytest.mark.parametrize("k_q", FIELDS, ids=FIELD_IDS)
def test_gate_agrees_with_the_coordinate_equations_on_perturbations(k_q):
    """On every one-entry perturbation of the catalog solutions the
    annihilation gate says yes exactly when first_violation finds nothing,
    and a no names that equation."""
    seen = set()
    for R in catalog_solutions(*k_q):
        for S in perturbations(R):
            where = first_violation(S)
            table = generator_table(S)
            try:
                require_solution(S, table, obstruction_coideal(table).basis)
                gate = True
            except NotASolutionError as exc:
                gate = False
                assert exc.where == where
            assert gate == (where is None)
            seen.add(gate)
            if not gate:
                with pytest.raises(NotASolutionError) as info:
                    d_bialgebra(S)
                assert info.value.where == where
    assert seen == {True, False}


@pytest.mark.parametrize("source", [name for name in STRUCTURED if not name.startswith("Qq")])
def test_gate_names_the_nested_loops_equation_beyond_n_2(source):
    """On seeded structured solutions at n = 3 and 4 over Q and F_13 and on
    seeded one-entry perturbations of them, first_violation names the
    nested loops' first failing equation, and d_bialgebra raises
    NotASolutionError with that label exactly when the loops find one."""
    rng = random.Random(31)
    seen = set()
    for R in each_solution(source):
        for S in [R] + one_entry_perturbations(R, rng, 3):
            x = x_table(S)
            where = nested_loop_violation(S.field, S.n, x, x)
            assert first_violation(S) == where
            if where is None:
                d_bialgebra(S)
            else:
                with pytest.raises(NotASolutionError) as info:
                    d_bialgebra(S)
                assert info.value.where == where
            seen.add(where is None)
    assert seen == {True, False}


def commutant(table):
    """A' = {Y : [A(c), Y] = 0 for every generator c}, as flattened Y, with
    A = A(c) a row of the generator table read as an n x n matrix: entry
    (p, q) of [A, Y] has coefficient A[p][r] [s = q] - [p = r] A[s][q] at
    Y[r][s]."""
    n, k = math.isqrt(table.nrows), table.field
    rng = range(n)
    rows = []
    for A in table.rows:
        for p in rng:
            for q in rng:
                row = [k.zero] * (n * n)
                for r in rng:
                    row[r * n + q] = k.add(row[r * n + q], A[p * n + r])
                    row[p * n + r] = k.sub(row[p * n + r], A[r * n + q])
                rows.append(row)
    return kernel_basis(rows, k, n * n)


def random_non_solutions():
    """30 random operators over Q at n = 2 and 30 at n = 3 that fail the
    equation."""
    rng = random.Random(29)
    out = []
    for n in (2, 3):
        found = 0
        while found < 30:
            rows = [[random_value(QQ, rng) for _ in range(n * n)] for _ in range(n * n)]
            R = EndoPair.from_matrix(Matrix(QQ, rows))
            if first_violation(R) is not None:
                out.append(R)
                found += 1
    return out


@pytest.mark.parametrize("source", SOURCES + ["random"])
def test_obstruction_coideal_is_the_annihilator_of_the_commutant(source):
    """F3: I(R) = (A')^perp for every R, solution or not. The reduced basis
    of (A')^perp in frt_col_order is that of obstruction_coideal, basis and
    pivots."""
    operators = random_non_solutions() if source == "random" else each_solution(source)
    dims = set()
    for R in operators:
        table = generator_table(R)
        k, d = R.field, R.n * R.n
        perp = kernel_basis(commutant(table), k, d)
        I = obstruction_coideal(table)
        assert rref(perp, k, col_order=frt_col_order(R.n)) == (I.basis, I.pivots)
        dims.add(I.dim)
    assert len(dims) > 1


@pytest.mark.parametrize("source", SOURCES)
def test_d_has_as_many_generators_as_the_commutant_has_dimensions(source):
    """F3: D(R) is generated by a basis of comatrix(n)/I(R), and I(R) is
    (A')^perp in the n^2 labels, so it has dim A' generators."""
    for R in each_solution(source):
        pres = d_bialgebra(R)
        assert len(pres.generators) == len(commutant(pres.table))
