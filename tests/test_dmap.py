import random

import pytest

from deq import catalog
from deq.coalg import BilinearForm, comatrix, convolve, counit_form, quotient
from deq.dmap import (convolution_inverse_of_sigma, first_symmetry_violation, is_dmap,
                      sigma_from_r, strong_dmap_from_symmetric)
from deq.fields import MathError, PrimeField, QQ, UsageError
from deq.frt import NotASolutionError, generator_table, obstruction_coideal
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import diagonal_solution, identity_pair, product_solution
from oracles import delta_form, r_sigma, random_value, sigma_form, standard_comodule


def random_bijective_solution(field, n, rng):
    """f (x) g with f invertible and g = aI + bf invertible; fg = gf."""
    k = field
    while True:
        f = Matrix(k, [[random_value(k, rng) for _ in range(n)] for _ in range(n)])
        if matrix_inverse(f) is None:
            continue
        a, b = random_value(k, rng), random_value(k, rng)
        g = Matrix.identity(k, n).scale(a).add(f.scale(b))
        if matrix_inverse(g) is not None:
            return product_solution(f, g)


def test_sigma_from_r_balance():
    k = PrimeField(5)
    for R in (catalog.triangular_solution(k, 1, 2, 3), catalog.rq(k, 2),
              catalog.projection_solution(k), identity_pair(k, 2),
              catalog.s3_graded_solution(QQ)):
        dm = sigma_from_r(R)
        assert is_dmap(dm.coalgebra, dm.quotient, dm.sigma)


def test_sigma_from_r_rejects_non_solutions():
    k = PrimeField(5)
    with pytest.raises(NotASolutionError) as info:
        sigma_from_r(catalog.yang_baxter_operator(k, 2))
    assert len(info.value.where) == 6


def test_strongness_tracks_the_obstruction_coideal():
    k = QQ
    dm = sigma_from_r(identity_pair(k, 2))
    assert dm.is_strong, "identity imposes no relations"
    assert "strong" in repr(dm)
    dm = sigma_from_r(catalog.triangular_solution(k, 1, 2, 3))
    assert not dm.is_strong
    assert dm.ideal.dim == 2


def test_r_sigma_regenerates_the_operator():
    k = PrimeField(5)
    rng = random.Random(11)
    cases = [catalog.triangular_solution(k, 1, 2, 3), catalog.rq(k, 2),
             catalog.projection_solution(k), diagonal_solution(k, [[1, 2], [3, 4]])]
    cases += [random_bijective_solution(k, 2, rng) for _ in range(5)]
    for R in cases:
        dm = sigma_from_r(R)
        std = standard_comodule(dm.coalgebra)
        assert r_sigma(std, dm) == R


def test_r_sigma_rejects_foreign_comodule():
    k = QQ
    dm = sigma_from_r(identity_pair(k, 2))
    other = standard_comodule(comatrix(k, 3))
    with pytest.raises(UsageError):
        r_sigma(other, dm)


def test_is_dmap_rejects_bad_shape():
    C = comatrix(QQ, 2)
    with pytest.raises(UsageError):
        is_dmap(C, None, [[QQ.zero] * 3 for _ in range(4)])


def test_sigma_form_is_always_balanced():
    """sigma_f(c (x) d) = eps(c) f(d) passes the balance condition for
    every functional f."""
    rng = random.Random(12)
    k = PrimeField(5)
    for n in (2, 3):
        C = comatrix(k, n)
        for _ in range(10):
            f = [random_value(k, rng) for _ in range(C.dim)]
            assert is_dmap(C, None, sigma_form(C, f))
    # and with a genuine nonzero coideal on the right leg
    I = obstruction_coideal(generator_table(catalog.triangular_solution(QQ, 1, 2, 3)))
    C = I.parent
    Q = quotient(C, I)
    f = [QQ.coerce(3), QQ.coerce(-1)]
    assert is_dmap(C, Q, sigma_form(C, f, right=Q))
    with pytest.raises(UsageError):
        sigma_form(C, f)


def test_delta_form_is_balanced_and_diagonal():
    k = PrimeField(7)
    for n in (2, 3):
        C = comatrix(k, n)
        form = delta_form(C, n, 3)
        assert is_dmap(C, None, form)
    # delta_form is sigma_f for the constant functional f = a
    C = comatrix(k, 2)
    assert delta_form(C, 2, 3).table == sigma_form(C, [k.coerce(3)] * 4).table
    with pytest.raises(UsageError):
        delta_form(comatrix(k, 2), 3, 1)


def test_first_symmetry_violation():
    k = QQ
    assert first_symmetry_violation(identity_pair(k, 2)) is None
    # triangular_solution is symmetric exactly when b = a c
    assert first_symmetry_violation(catalog.triangular_solution(k, 1, 2, 2)) is None
    where = first_symmetry_violation(catalog.triangular_solution(k, 1, 2, 3))
    assert where is not None
    u, v, j, i = where
    R = catalog.triangular_solution(k, 1, 2, 3)
    assert R.coeff(u, v, j, i) != R.coeff(v, u, i, j)


def test_strong_dmap_from_symmetric_solutions():
    k = QQ
    for R in (identity_pair(k, 2), catalog.triangular_solution(k, 1, 2, 2),
              diagonal_solution(k, [[1, 2], [2, 5]])):
        Q, dm = strong_dmap_from_symmetric(R)
        assert dm.is_strong
        assert is_dmap(Q, None, dm.sigma)
        assert dm.sigma.left is Q and dm.sigma.right is Q
    with pytest.raises(MathError, match="tau"):
        strong_dmap_from_symmetric(catalog.triangular_solution(k, 1, 2, 3))


def test_convolution_inverse_of_sigma():
    k = PrimeField(5)
    rng = random.Random(13)
    cases = [identity_pair(k, 2), diagonal_solution(k, [[1, 2], [3, 4]])]
    cases += [random_bijective_solution(k, 2, rng) for _ in range(8)]
    for R in cases:
        prime = convolution_inverse_of_sigma(sigma_from_r(R))
        assert isinstance(prime, BilinearForm)
        # rebuild sigma on the same coalgebra objects prime lives on
        sigma = BilinearForm(prime.left, prime.right, sigma_from_r(R).sigma.table)
        unit = counit_form(prime.left, prime.right)
        assert convolve(sigma, prime) == unit
        assert convolve(prime, sigma) == unit


def test_convolution_inverse_requires_bijectivity():
    k = QQ
    for R in (catalog.rq(k, 2), catalog.projection_solution(k)):
        with pytest.raises(MathError, match="not bijective"):
            convolution_inverse_of_sigma(sigma_from_r(R))
