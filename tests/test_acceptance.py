"""Twelve timed end-to-end checks, one pass/fail line each, exact arithmetic."""

import random
import time

from deq import catalog
from deq.classify import (candidate_block, endo_from_digits, enumerate_solutions,
                          operator_count, orbit_reduce)
from deq.coalg import BilinearForm, convolve, counit_form
from deq.dimodule import r_from_dimodule
from deq.dmap import convolution_inverse_of_sigma, is_dmap, sigma_from_r
from deq.fields import FunctionField, PrimeField, QQ
from deq.frt import d_bialgebra
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import check_d, check_qybe, diagonal_solution, product_solution
from deq.coalg import comatrix
from identity_masks import (annihilation_mask, defect_identity_mask, delta_identity_mask,
                            random_block)
from oracles import (conjugate, coordinate_mask, delta_form, forms_masks, r_sigma, random_value,
                     sigma_form, standard_comodule)


def report(num, ok, elapsed, budget=None):
    verdict = "pass" if ok else "FAIL"
    if budget is None:
        print("criterion %d: %s (%.2fs)" % (num, verdict, elapsed))
    else:
        print("criterion %d: %s (%.2fs, budget %.0fs)" % (num, verdict, elapsed, budget))
    assert ok, "criterion %d failed" % num
    if budget is not None:
        assert elapsed < budget, "criterion %d over budget: %.2fs" % (num, elapsed)


def test_criterion_01_symbolic_family():
    """The triangular two-parameter family solves both equations symbolically."""
    start = time.monotonic()
    k = FunctionField(["a", "b", "c"])
    a, b, c = k.gens
    R = catalog.triangular_solution(k, a, b, c)
    ok = check_d(R) and check_qybe(R)
    report(1, ok, time.monotonic() - start, budget=5.0)


def test_criterion_02_block_family_and_yb_operator():
    """Block family solves exactly at c = d = 0; the Yang-Baxter operator
    solves QYBE but never the first equation."""
    start = time.monotonic()
    ok = check_d(catalog.block_family(QQ, 1, 1, 0, 0, 1, 1))
    ok = ok and not check_d(catalog.block_family(QQ, 1, 1, 1, 0, 1, 1))
    ok = ok and not check_d(catalog.block_family(QQ, 1, 1, 0, 1, 1, 1))
    kq = FunctionField(["q"])
    (q,) = kq.gens
    for R in (catalog.yang_baxter_operator(kq, q),
              catalog.yang_baxter_operator(QQ, 2)):
        ok = ok and check_qybe(R) and not check_d(R)
    report(2, ok, time.monotonic() - start, budget=1.0)


def test_criterion_03_product_law():
    """f (x) g solves the equation exactly when f and g commute; 500 pairs."""
    start = time.monotonic()
    k = PrimeField(5)
    rng = random.Random(100)
    ok = True
    seen = [0, 0]
    for _ in range(500):
        f = Matrix(k, [[random_value(k, rng) for _ in range(2)] for _ in range(2)])
        g = Matrix(k, [[random_value(k, rng) for _ in range(2)] for _ in range(2)])
        commute = f @ g == g @ f
        seen[1 if commute else 0] += 1
        ok = ok and check_d(product_solution(f, g)) == commute
    ok = ok and seen[0] > 0 and seen[1] > 0
    report(3, ok, time.monotonic() - start)


def test_criterion_04_golden_presentations():
    """Three worked presentations match their published relations exactly."""
    start = time.monotonic()
    pres = d_bialgebra(catalog.triangular_solution(QQ, 1, 1, 1))
    ok = pres.relations == ["c21 = 0", "c22 - c11 = 0"]
    ok = ok and pres.generators == ["c11~", "c12~"]
    lines = pres.generator_lines()
    ok = ok and "Delta(c11~) = c11~(x)c11~" in lines
    ok = ok and "Delta(c12~) = c11~(x)c12~ + c12~(x)c11~" in lines
    mid = time.monotonic()
    ok = ok and mid - start < 1.0

    pres = d_bialgebra(catalog.rq(QQ, 3))
    ok = ok and pres.relations == ["c12 - 3*c11 + 3*c22 = 0", "c21 = 0"]
    lines = pres.generator_lines()
    ok = ok and "Delta(c11~) = c11~(x)c11~" in lines
    ok = ok and "Delta(c22~) = c22~(x)c22~" in lines
    mid2 = time.monotonic()
    ok = ok and mid2 - mid < 1.0

    pres = d_bialgebra(catalog.projection_solution(QQ))
    ok = ok and pres.relations == ["c12 = 0", "c21 = 0"]
    report(4, ok, time.monotonic() - start, budget=3.0)


def test_criterion_05_coefficient_identities():
    """Both obstruction identities hold for 1,000 random operators over F5
    at n = 2 and n = 3 and for all 65,536 operators over F2."""
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        x = random_block(n, 5, 1000, seed=41 + n)
        ok = ok and bool(delta_identity_mask(x, 5).all())
        ok = ok and bool(defect_identity_mask(x, 5).all())
    x = candidate_block(2, 2, 0, 65536)
    ok = ok and bool(delta_identity_mask(x, 2).all())
    ok = ok and bool(defect_identity_mask(x, 2).all())
    report(5, ok, time.monotonic() - start, budget=60.0)


def test_criterion_06_equivalent_forms():
    """All four transformed equations agree on every operator over F2."""
    start = time.monotonic()
    x = candidate_block(2, 2, 0, 65536)
    d, ft, fu, fw = forms_masks(x, 2)
    ok = bool((d == ft).all() and (d == fu).all() and (d == fw).all())
    ok = ok and int(d.sum()) == 100
    report(6, ok, time.monotonic() - start, budget=60.0)


def test_criterion_07_round_trips():
    """Every solution over F2 returns from its universal bialgebra dimodule
    and from its induced bilinear map."""
    start = time.monotonic()
    report11 = enumerate_solutions(2, 2)
    ok = True
    for sol in report11.solutions:
        R = endo_from_digits(2, 2, sol)
        pres = d_bialgebra(R)
        ok = ok and r_from_dimodule(pres.canonical_dimodule()) == R
        dm = sigma_from_r(R)
        ok = ok and r_sigma(standard_comodule(dm.coalgebra), dm) == R
        if not ok:
            break
    report(7, ok, time.monotonic() - start, budget=120.0)


def test_criterion_08_annihilation_equivalence():
    """Acting by zero on every obstruction is exactly the solution property,
    over all operators over F2."""
    start = time.monotonic()
    x = candidate_block(2, 2, 0, 65536)
    ok = bool((annihilation_mask(x, 2) == coordinate_mask(x, 2)).all())
    report(8, ok, time.monotonic() - start)


def test_criterion_09_nonabelian_grading():
    """The S3-graded module built from its Cayley table induces a solution
    of the first equation that fails QYBE."""
    start = time.monotonic()
    R = catalog.s3_graded_solution(QQ)
    ok = check_d(R) and not check_qybe(R)
    report(9, ok, time.monotonic() - start, budget=1.0)


def test_criterion_10_convolution_inverses():
    """sigma * sigma' = sigma' * sigma = eps (x) eps~ for 50 random bijective
    solutions over F5 and one diagonal example over Q."""
    start = time.monotonic()
    k = PrimeField(5)
    rng = random.Random(101)
    cases = []
    while len(cases) < 25:
        f = Matrix(k, [[random_value(k, rng) for _ in range(2)] for _ in range(2)])
        if matrix_inverse(f) is None:
            continue
        g = Matrix.identity(k, 2).scale(random_value(k, rng)).add(f.scale(random_value(k, rng)))
        if matrix_inverse(g) is not None:
            cases.append(product_solution(f, g))
    while len(cases) < 50:
        entries = [[rng.randrange(1, 5) for _ in range(2)] for _ in range(2)]
        base = diagonal_solution(k, entries)
        s = Matrix(k, [[random_value(k, rng) for _ in range(2)] for _ in range(2)])
        if matrix_inverse(s) is not None:
            cases.append(conjugate(base, s))
    cases.append(diagonal_solution(QQ, [[1, 2], [3, 4]]))
    ok = True
    for R in cases:
        prime = convolution_inverse_of_sigma(sigma_from_r(R))
        sigma = BilinearForm(prime.left, prime.right, sigma_from_r(R).sigma.table)
        unit = counit_form(prime.left, prime.right)
        ok = ok and convolve(sigma, prime) == unit
        ok = ok and convolve(prime, sigma) == unit
        if not ok:
            break
    report(10, ok, time.monotonic() - start)


def test_criterion_11_census_regression():
    """Two independent scans agree on the F2 census; the orbit decomposition
    partitions it."""
    start = time.monotonic()
    report11 = enumerate_solutions(2, 2)
    ok = report11.count == 100
    ok = ok and operator_count(2, 2) == 100
    ok = ok and report11.bijective == 30 and report11.symmetric == 44
    ok = ok and report11.qybe == 100
    orbits = orbit_reduce(report11.solutions, 2, 2)
    ok = ok and len(orbits) == 32
    ok = ok and sum(size for _, size in orbits) == 100
    report(11, ok, time.monotonic() - start)


def test_criterion_12_dmap_examples():
    """Counit-scaled functionals and the diagonal comatrix map satisfy the
    balance condition for n in {2,3}, 20 random draws each."""
    start = time.monotonic()
    rng = random.Random(102)
    k = PrimeField(5)
    ok = True
    for n in (2, 3):
        C = comatrix(k, n)
        for _ in range(20):
            f = [random_value(k, rng) for _ in range(C.dim)]
            ok = ok and is_dmap(C, None, sigma_form(C, f))
            ok = ok and is_dmap(C, None, delta_form(C, n, random_value(k, rng)))
        if not ok:
            break
    report(12, ok, time.monotonic() - start)
