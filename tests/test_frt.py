import functools
import itertools
import random

import pytest

from deq import catalog
from deq.coalg import comatrix, grouplike_coalgebra
from deq.fields import FunctionField, PrimeField, QQ, UsageError
from deq.frt import (NotASolutionError, d_bialgebra, frt_col_order, generator_table,
                     obstruction_coideal, obstruction_vectors, relation_strings,
                     require_solution)
from deq.linalg import Matrix
from deq.tensor_ops import EndoPair, check_d, first_violation, identity_pair
from deq.dimodule import r_from_dimodule
from oracles import (comatrix_index, defect_pairing, dot, linear_combination,
                     loop_generator_action, random_value, same_structure, universal_map,
                     universal_map_failure)


def rand_pair(field, rng, n):
    rows = [[random_value(field, rng) for _ in range(n * n)] for _ in range(n * n)]
    return EndoPair.from_matrix(Matrix(field, rows))


def obstructions(R):
    """o(i,j,k,l) by its 1-based label."""
    return dict(obstruction_vectors(generator_table(R)))


def test_obstruction_definition_against_direct_sum():
    # o(i,j,k,l) = sum_v x_kv^ji c_vl - sum_a x_kl^ja c_ia
    k = PrimeField(7)
    rng = random.Random(1)
    R = rand_pair(k, rng, 2)
    obs = obstructions(R)
    n = 2
    for i in range(1, 3):
        for j in range(1, 3):
            for kk in range(1, 3):
                for l in range(1, 3):
                    want = [k.zero] * 4
                    for v in range(1, 3):
                        want[comatrix_index(n, v, l)] = k.add(
                            want[comatrix_index(n, v, l)], R.coeff(kk, v, j, i))
                    for a in range(1, 3):
                        want[comatrix_index(n, i, a)] = k.sub(
                            want[comatrix_index(n, i, a)], R.coeff(kk, l, j, a))
                    assert obs[(i, j, kk, l)] == want


def test_obstructions_counit_free():
    # eps(o(i,j,k,l)) = 0 always, solution or not
    k = PrimeField(5)
    rng = random.Random(2)
    C = comatrix(k, 2)
    for _ in range(20):
        R = rand_pair(k, rng, 2)
        obs = obstructions(R)
        for _, vec in obs.items():
            assert dot(k, C.counit, vec) == k.zero


def delta_identity_holds(R):
    """Delta(o(i,j,k,l)) == sum_u ( o(i,j,k,u)(x)c_ul + c_iu(x)o(u,j,k,l) ) for
    every label of R's obstructions, as d x d tables in comatrix(n): the
    left side is sum_a o[a] M_a, and v (x) c_a is the outer product of v
    with the unit vector of c_a."""
    obs, n, k = obstructions(R), R.n, R.field
    C = comatrix(k, n)
    deltas = [C.delta_matrix(a) for a in range(C.dim)]
    e = Matrix.identity(k, C.dim).rows

    def outer(u, v):
        return Matrix._computed(k, [u]).transpose().mul(Matrix._computed(k, [v]))

    for (i, j, kk, l), vec in obs.items():
        rhs = [term for u in range(1, n + 1)
               for term in (outer(obs[(i, j, kk, u)], e[comatrix_index(n, u, l)]),
                            outer(e[comatrix_index(n, i, u)], obs[(u, j, kk, l)]))]
        if linear_combination(vec, deltas) != functools.reduce(Matrix.add, rhs):
            return False
    return True


def test_obstruction_comultiplication_identity_all_r():
    # Delta(o(i,j,k,l)) = sum_u o(i,j,k,u) (x) c_ul + c_iu (x) o(u,j,k,l)
    k = PrimeField(5)
    rng = random.Random(3)
    for _ in range(40):
        R = rand_pair(k, rng, 2)
        assert delta_identity_holds(R)
    for _ in range(5):
        R = rand_pair(k, rng, 3)
        assert delta_identity_holds(R)


def test_defect_pairing_identity_all_r():
    # sum c_jk.(m_l)_0 (x) (m_l)_1 - rho(c_jk.m_l) = sum_i m_i (x) o(i,j,k,l)
    k = PrimeField(5)
    rng = random.Random(4)
    for n, count in ((2, 25), (3, 5)):
        for _ in range(count):
            R = rand_pair(k, rng, n)
            obs = obstructions(R)
            labels = range(1, n + 1)
            for j, kk, l in itertools.product(labels, repeat=3):
                assert defect_pairing(R, j, kk, l) == [obs[(i, j, kk, l)] for i in labels]


def test_action_kills_obstructions_iff_solution():
    # solutions do not make the obstructions vanish as coalgebra elements
    # (triangular_solution has a 2-dimensional ideal); they make the action kill them
    k = PrimeField(5)
    rng = random.Random(5)
    cases = [rand_pair(k, rng, 2) for _ in range(40)]
    cases += [catalog.triangular_solution(k, 1, 2, 3), catalog.projection_solution(k),
              identity_pair(k, 2)]
    zero = Matrix.zeros(k, 2, 2)
    seen = [0, 0]
    for R in cases:
        action = loop_generator_action(R)
        killed = all(linear_combination(vec, action) == zero
                     for _, vec in obstructions(R).items())
        assert killed == check_d(R)
        seen[int(killed)] += 1
    assert seen[0] and seen[1]
    # a genuine solution with nonvanishing obstruction vectors exists, and
    # the identity imposes no relations at all
    obs = obstructions(catalog.triangular_solution(k, 1, 2, 3))
    assert any(any(not k.is_zero(v) for v in vec) for _, vec in obs.items())
    obs_id = obstructions(identity_pair(k, 2))
    assert all(all(k.is_zero(v) for v in vec) for _, vec in obs_id.items())


def test_obstructions_live_in_comatrix_only():
    """The obstruction API takes the generator table alone and builds
    comatrix(n) itself: no coalgebra of dimension n^2 can be passed in, as a
    grouplike one once could, with a "coideal" on which eps does not
    vanish."""
    R = catalog.triangular_solution(QQ, 1, 2, 3)
    table = generator_table(R)
    I = obstruction_coideal(table)
    assert same_structure(I.parent, comatrix(QQ, 2)) and I.dim == 2
    grouplike = grouplike_coalgebra(QQ, ["g1", "g2", "g3", "g4"])
    with pytest.raises(TypeError):
        obstruction_coideal(table, grouplike)
    with pytest.raises(TypeError):
        obstruction_vectors(table, grouplike)


def test_annihilation_equivalence_random():
    """The gate on all obstructions and on the reduced basis of I(R) agree
    with check_d, and a no names first_violation's equation."""
    k = PrimeField(5)
    rng = random.Random(6)
    cases = [rand_pair(k, rng, 2) for _ in range(60)]
    cases += [catalog.triangular_solution(k, 1, 2, 3), catalog.projection_solution(k)]
    seen = set()
    for R in cases:
        table = generator_table(R)
        want = check_d(R)
        seen.add(want)
        for vectors in ([v for _, v in obstruction_vectors(table)],
                        obstruction_coideal(table).basis):
            if want:
                require_solution(R, table, vectors)
            else:
                with pytest.raises(NotASolutionError) as info:
                    require_solution(R, table, vectors)
                assert info.value.where == first_violation(R)
    assert seen == {True, False}


def test_frt_col_order():
    assert frt_col_order(2) == [1, 2, 3, 0]
    assert frt_col_order(3) == [1, 2, 3, 5, 6, 7, 8, 4, 0]


def test_presentation_triangular_solution():
    P = d_bialgebra(catalog.triangular_solution(QQ, 1, 1, 1))
    assert P.relations == ["c21 = 0", "c22 - c11 = 0"]
    assert P.generators == ["c11~", "c12~"]
    lines = P.generator_lines()
    assert "Delta(c11~) = c11~(x)c11~" in lines
    assert "Delta(c12~) = c11~(x)c12~ + c12~(x)c11~" in lines
    assert "eps(c11~) = 1" in lines
    assert "eps(c12~) = 0" in lines


def test_presentation_rq_q3():
    P = d_bialgebra(catalog.rq(QQ, 3))
    assert P.relations == ["c12 - 3*c11 + 3*c22 = 0", "c21 = 0"]
    assert P.generators == ["c11~", "c22~"]
    lines = P.generator_lines()
    assert "Delta(c11~) = c11~(x)c11~" in lines
    assert "Delta(c22~) = c22~(x)c22~" in lines


def test_presentation_projection():
    P = d_bialgebra(catalog.projection_solution(QQ))
    assert P.relations == ["c12 = 0", "c21 = 0"]
    assert P.generators == ["c11~", "c22~"]


def test_presentation_symbolic_rq():
    k = FunctionField(["q"])
    (q,) = k.gens
    P = d_bialgebra(catalog.rq(k, q))
    assert P.relations == ["c12 - q*c11 + q*c22 = 0", "c21 = 0"]


def test_presentation_rejects_non_solution():
    with pytest.raises(NotASolutionError) as info:
        d_bialgebra(catalog.yang_baxter_operator(QQ, 2))
    assert len(info.value.where) == 6
    R = catalog.yang_baxter_operator(QQ, 2)
    table = generator_table(R)
    with pytest.raises(NotASolutionError) as again:
        require_solution(R, table, obstruction_coideal(table).basis)
    assert again.value.where == info.value.where


def test_generator_action_is_the_coefficient_table():
    # row (j, u), entry (i, v) is A(c_ju)[i][v] = x_uv^ji
    k = PrimeField(7)
    rng = random.Random(7)
    R = rand_pair(k, rng, 2)
    table = generator_table(R)
    for j in range(1, 3):
        for u in range(1, 3):
            row = table.rows[(j - 1) * 2 + (u - 1)]
            for i in range(1, 3):
                for v in range(1, 3):
                    assert row[(i - 1) * 2 + (v - 1)] == R.coeff(u, v, j, i)


def test_identity_presentation_round_trip():
    R = identity_pair(QQ, 2)
    P = d_bialgebra(R)
    regen = r_from_dimodule(P.canonical_dimodule())
    assert regen.matrix() == R.matrix()


def test_presentation_round_trip_on_catalog():
    for R in [catalog.triangular_solution(QQ, 1, 1, 1), catalog.rq(QQ, 3),
              catalog.projection_solution(QQ)]:
        P = d_bialgebra(R)
        regen = r_from_dimodule(P.canonical_dimodule())
        assert regen.matrix() == R.matrix()


def test_universal_map_identity_realization():
    # the canonical dimodule realizes R through the presentation itself
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    P = d_bialgebra(R)
    dmod = P.canonical_dimodule()
    assignment = universal_map(R, P, dmod)
    assert assignment is not None
    assert universal_map_failure(R, P, assignment) is None
    k = QQ
    # c11 and c22 map to the first quotient generator, c21 to zero
    assert assignment[(1, 1)] == [k.one, k.zero]
    assert assignment[(2, 2)] == [k.one, k.zero]
    assert assignment[(2, 1)] == [k.zero, k.zero]
    assert assignment[(1, 2)] == [k.zero, k.one]


def test_universal_map_builds_no_second_presentation(monkeypatch):
    """universal_map reads the assignment off the slices: it builds no
    presentation, whatever the host; the oracle checks what it returns."""
    from deq import frt
    from deq.dimodule import dimodule_from_grading
    counts = {"d_bialgebra": 0, "obstruction_coideal": 0, "quotient": 0}

    def counting(name):
        fn = getattr(frt, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    R = catalog.triangular_solution(QQ, 1, 1, 1)
    P = d_bialgebra(R)
    S = catalog.s3_graded_solution(QQ)
    H = catalog.s3_bialgebra(QQ)
    cases = [(R, P, P.canonical_dimodule()),
             (S, H, dimodule_from_grading(catalog.s3_graded_module(QQ)))]
    for name in counts:
        monkeypatch.setattr(frt, name, counting(name))
    assignments = [universal_map(*case) for case in cases]
    assert counts == dict.fromkeys(counts, 0)
    monkeypatch.undo()
    for (R, H, _), assignment in zip(cases, assignments):
        assert universal_map_failure(R, H, assignment) is None


def test_universal_property_oracle_catches_a_moved_image():
    """The oracle has teeth: moving one coefficient of one image breaks the
    universal property, on the presentation host and on k[S3]."""
    from deq.dimodule import dimodule_from_grading
    R = catalog.s3_graded_solution(QQ)
    P = d_bialgebra(R)
    H = catalog.s3_bialgebra(QQ)
    for host, dmod in ((P, P.canonical_dimodule()),
                       (H, dimodule_from_grading(catalog.s3_graded_module(QQ)))):
        assignment = universal_map(R, host, dmod)
        failures = set()
        for key in assignment:
            for b in range(len(assignment[key])):
                moved = dict(assignment)
                moved[key] = list(moved[key])
                moved[key][b] = QQ.add(moved[key][b], QQ.one)
                failures.add(universal_map_failure(R, host, moved))
        assert None not in failures and len(failures) > 1


def test_universal_map_to_group_bialgebra():
    # S3-graded solution realized over k[S3]; the universal map lands there
    k = QQ
    R = catalog.s3_graded_solution(k)
    H = catalog.s3_bialgebra(k)
    from deq.dimodule import dimodule_from_grading
    dmod = dimodule_from_grading(catalog.s3_graded_module(k))
    assignment = universal_map(R, H, dmod)
    assert assignment is not None
    assert universal_map_failure(R, H, assignment) is None
    # image coefficients: c_ij maps into the group algebra basis
    labels = catalog.S3_LABELS
    t12 = labels.index("t12")
    t13 = labels.index("t13")
    # m1, m2 graded by t12; m3 by t13: diagonal generators map to grouplikes
    assert assignment[(1, 1)][t12] == k.one
    assert assignment[(3, 3)][t13] == k.one


def test_universal_map_refuses_a_host_of_another_coalgebra():
    """The quotient of the triangular solution and k[Z/2] have the same
    dimension but different comultiplications: a usage error, not an
    internal one."""
    from deq.dimodule import group_bialgebra
    R = catalog.triangular_solution(QQ, 1, 1, 1)
    dmod = d_bialgebra(R).canonical_dimodule()
    H = group_bialgebra(QQ, ["e", "g"], [[0, 1], [1, 0]])
    assert dmod.coalgebra.dim == H.dim
    with pytest.raises(UsageError, match="does not live over the given host"):
        universal_map(R, H, dmod)


def test_universal_map_rejects_wrong_realization():
    # feeding a dimodule that does not realize R must return None
    k = QQ
    R = catalog.triangular_solution(k, 1, 1, 1)
    other = catalog.projection_solution(k)
    P2 = d_bialgebra(other)
    wrong = P2.canonical_dimodule()
    assert universal_map(R, P2, wrong) is None
    assert universal_map_failure(other, P2, universal_map(other, P2, wrong)) is None


def test_relation_strings_pivot_first():
    R = catalog.rq(QQ, 3)
    I = obstruction_coideal(generator_table(R))
    lines = relation_strings(I)
    assert lines[0].startswith("c12")
    assert all(line.endswith(" = 0") for line in lines)
