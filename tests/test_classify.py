import functools
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog, classify
from deq.classify import (CHUNK, block_matrices, block_of, candidate_block, endo_from_digits,
                          enumerate_range, enumerate_solutions, inverse_mod_p, operator_count,
                          operator_mask, orbit_reduce, qybe_mask, symmetric_mask, unit_group)
from deq.dmap import first_symmetry_violation
from deq.fields import PrimeField, UsageError
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import (EndoPair, check_d, check_equivalent_forms, check_qybe,
                            diagonal_solution, product_solution)
from identity_masks import (annihilation_mask, defect_identity_mask, delta_identity_mask,
                            random_block)
from oracles import (conjugate, coordinate_equation_table, coordinate_mask, digits_of,
                     forms_masks)


def digits_from_endo(R: EndoPair):
    return tuple(int(v) for row in R.matrix().rows for v in row)


def gl_matrices(n, p):
    """All invertible n x n matrices over F_p, ascending serialization, by
    one exact matrix_inverse each: the oracle for unit_group."""
    field = PrimeField(p)
    out = []
    for code in range(p ** (n * n)):
        digits = []
        for _ in range(n * n):
            code, digit = divmod(code, p)
            digits.append(digit)
        digits.reverse()
        m = Matrix(field, [digits[r * n:(r + 1) * n] for r in range(n)])
        if matrix_inverse(m) is not None:
            out.append(m)
    return out


def exact_orbit_reduce(solutions, n, p):
    """orbit_reduce by one exact conjugate per orbit representative and unit:
    the oracle for the batched orbit_reduce."""
    pool = set(tuple(sol) for sol in solutions)
    seen = set()
    orbits = []
    for sol in sorted(pool):
        if sol in seen:
            continue
        R = endo_from_digits(n, p, sol)
        orbit = set()
        for u in units(n, p):
            img = digits_from_endo(conjugate(R, u))
            if img not in pool:
                raise UsageError("conjugate of a solution missing from input")
            orbit.add(img)
        seen |= orbit
        orbits.append((min(orbit), len(orbit)))
    return orbits


@functools.lru_cache(maxsize=None)
def census(n, p):
    return enumerate_solutions(n, p, limit=p ** (n ** 4))


def block_from_digit_rows(rows, n, p):
    """Stack serialized operators into a candidate-style x block."""
    xs = np.array([list(r) for r in rows], dtype=np.int64) % p
    return xs.reshape(len(rows), n, n, n, n).transpose(0, 4, 3, 2, 1)


def test_candidate_block_serialization():
    x = candidate_block(2, 2, 5, 6)
    # serial 5 in base 2 over 16 big-endian digits
    want = [0] * 12 + [0, 1, 0, 1]
    assert digits_of(x)[0].tolist() == want
    R = endo_from_digits(2, 2, want)
    assert digits_from_endo(R) == tuple(want)
    # block matrices equal the exact operator matrix entry by entry
    mat = block_matrices(x)[0]
    exact = R.matrix()
    k = R.field
    for r in range(4):
        for c in range(4):
            assert k.coerce(int(mat[r][c])) == exact.rows[r][c]


def python_digits(serial, n, p):
    """Big-endian base-p digits of a serial, with Python integers."""
    out = []
    for _ in range(n ** 4):
        serial, digit = divmod(serial, p)
        out.append(digit)
    return out[::-1]


def test_candidate_block_digits_beyond_int64_weights():
    """At n = 3 the weight p^(n^4 - 1) does not fit in int64; the digits
    must still match Python integer arithmetic."""
    x = candidate_block(3, 2, 0, 3)
    assert x.shape == (3, 3, 3, 3, 3)
    assert digits_of(x).tolist() == [python_digits(s, 3, 2) for s in range(3)]
    lo = 2 ** 62 - 3
    x = candidate_block(3, 3, lo, lo + 6)
    assert x.shape[0] == 6
    assert digits_of(x).tolist() == [python_digits(s, 3, 3) for s in range(lo, lo + 6)]
    assert candidate_block(3, 2, 2 ** 63 - 1, 2 ** 63).shape[0] == 1
    with pytest.raises(UsageError):
        candidate_block(3, 2, 2 ** 63 - 1, 2 ** 63 + 1)


def test_candidate_digits_across_digit_table_groups():
    """Digits are looked up k at a time, p^k <= CHUNK; windows that cross
    the boundaries of those groups match Python integer digits."""
    for n, p, k in ((2, 2, 16), (2, 3, 10), (3, 2, 16), (3, 3, 10), (2, 13, 4), (1, 65537, 1)):
        for lo in {p ** k - 5, 2 * p ** k - 3, p ** (2 * k) - 2, 2 ** 63 - 8}:
            hi = min(lo + 10, 2 ** 63, p ** (n ** 4))
            if lo >= hi:
                continue
            got = digits_of(candidate_block(n, p, lo, hi)).tolist()
            assert got == [python_digits(s, n, p) for s in range(lo, hi)], (n, p, lo)


def test_digits_gather_rows_without_copying_the_table():
    """_digits matches Python base-p digits at every width of one lookup
    and across lookups, on the table path and past CHUNK (p = 65537), and a
    small lookup does not copy the cached p^k-row table."""
    rng = random.Random(25)
    for p, dtype in ((2, np.int16), (3, np.int16), (13, np.int16), (65537, np.int64)):
        k = classify._run_length(p)
        for width in range(1, 2 * k + 2):
            top = p ** width
            values = sorted({0, 1 % top, top - 1} | {rng.randrange(top) for _ in range(50)})
            want = []
            for value in values:
                digits = []
                for _ in range(width):
                    value, digit = divmod(value, p)
                    digits.append(digit)
                want.append(digits[::-1])
            got = classify._digits(np.array(values, dtype=np.int64), width, p, dtype)
            assert got.dtype == dtype and got.tolist() == want, (p, width)
    values = np.arange(512)
    classify._digits(values, 9, 2, np.int16)  # the 65,536 x 16 table is cached
    tracemalloc.start()
    try:
        classify._digits(values, 9, 2, np.int16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_candidate_blocks_are_lexicographic():
    x = candidate_block(2, 3, 100, 140)
    d = digits_of(x)
    for t in range(d.shape[0] - 1):
        assert tuple(d[t]) < tuple(d[t + 1])


def test_masks_agree_with_scalar_checks():
    k = PrimeField(5)
    rng = random.Random(20260817)
    rows = [[rng.randrange(5) for _ in range(16)] for _ in range(30)]
    rows.append(list(digits_from_endo(catalog.triangular_solution(k, 1, 2, 3))))
    rows.append(list(digits_from_endo(catalog.yang_baxter_operator(k, 2))))
    rows.append(list(digits_from_endo(catalog.triangular_solution(k, 1, 2, 2))))
    x = block_from_digit_rows(rows, 2, 5)
    co = coordinate_mask(x, 5)
    sy = symmetric_mask(x)
    for t, row in enumerate(rows):
        R = endo_from_digits(2, 5, row)
        assert bool(co[t]) == check_d(R)
        assert bool(sy[t]) == (first_symmetry_violation(R) is None)
    qy = [qybe for _, qybe, *_ in assert_operator_masks_exact(rows, 2, 5)]
    # the embedded cases exercise all verdict shapes
    assert co[-3] and qy[-3], "triangular_solution solves both equations"
    assert not co[-2] and qy[-2], "yb operator is qybe only"
    assert sy[-1] and not sy[-2]
    # n = 3, where the leg maps of the three slots all differ: random
    # operators, and over F_13 the S3-graded solution with one-entry
    # perturbations of it, so that both verdicts occur
    for p in (2, 3, 13):
        rows = [[rng.randrange(p) for _ in range(81)] for _ in range(8)]
        if p == 13:
            sol = list(digits_from_endo(catalog.s3_graded_solution(PrimeField(p))))
            rows.append(sol)
            for t in rng.sample(range(81), 4):
                rows.append(sol[:t] + [(sol[t] + 1) % p] + sol[t + 1:])
        verdicts = assert_operator_masks_exact(rows, 3, p)
        if p == 13:
            assert verdicts[8][0] and not all(v[0] for v in verdicts)


def test_equation_columns_match_the_coordinate_equation_table():
    """The sieve's columns, read off leg_blocks, are the n^6-entry table of
    coordinate equations: per label, the (L_jk, R_pq) index pairs of the
    lhs terms, then of the rhs terms."""
    for n in (1, 2, 3):
        pairs = np.array([lhs + rhs for _, lhs, rhs in coordinate_equation_table(n)],
                         dtype=np.intp).reshape(-1, 2 * n, 2)
        first, second = classify._equation_columns(n)
        assert first.dtype == second.dtype == np.intp
        assert np.array_equal(first, pairs[:, :, 0]) and np.array_equal(second, pairs[:, :, 1])


def dense_coordinate_mask(x, p):
    """The coordinate equations as two dense einsums over every candidate, in
    int64: the oracle for the sieve in coordinate_mask."""
    x = x.astype(np.int64)
    lhs = np.einsum('nkvji,nlqvp->nijklpq', x, x) % p
    rhs = np.einsum('nklja,naqip->nijklpq', x, x) % p
    return (lhs == rhs).all(axis=tuple(range(1, 7)))


def assert_sieve_matches_dense(x, p):
    got = coordinate_mask(x, p)
    assert got.dtype == bool and got.shape == (x.shape[0],)
    assert (got == dense_coordinate_mask(x, p)).all()
    return got


def test_sieve_matches_dense_oracle_on_census_windows():
    assert assert_sieve_matches_dense(candidate_block(2, 2, 0, 2 ** 16), 2).sum() == 100
    total = 3 ** 16
    for lo in (0, (total - CHUNK) // 2, total - CHUNK):
        assert_sieve_matches_dense(candidate_block(2, 3, lo, lo + CHUNK), 3)


def test_sieve_matches_dense_oracle_on_random_and_edge_blocks():
    for n, p, count in ((2, 5, 4000), (3, 2, 1000), (3, 3, 1000), (2, 13, 4000)):
        assert_sieve_matches_dense(random_block(n, p, count, seed=n * p), p)
    assert assert_sieve_matches_dense(random_block(2, 2, 0, seed=0), 2).shape == (0,)
    solutions = enumerate_range(2, 2, 0, 2 ** 16)
    assert len(solutions) == 100
    assert assert_sieve_matches_dense(block_of(solutions, 2), 2).all(), "every row survives"
    sol = list(digits_from_endo(catalog.s3_graded_solution(PrimeField(13))))
    rows = [sol] + [sol[:t] + [(sol[t] + d) % 13] + sol[t + 1:]
                    for t in range(81) for d in (1, 5)]
    got = assert_sieve_matches_dense(block_of(rows, 3), 13)
    assert got[0] and not got.all()


def test_sieve_dtype_boundary_matches_dense_oracle():
    """n (p-1)^2 is 31,752 at (2, 127), held by int16, and 33,800 at
    (2, 131), which is not; the all-(p-1) solution reaches that sum."""
    for p, dtype in ((127, np.int16), (131, np.int64)):
        x = candidate_block(2, p, 0, CHUNK)
        assert x.dtype == dtype
        assert 0 < assert_sieve_matches_dense(x, p).sum() < CHUNK
        top = [p - 1] * 16  # (p-1) j (x) j with j the all-ones matrix: f g = g f
        rows = [top] + [top[:t] + [(top[t] + d) % p] + top[t + 1:]
                        for t in range(16) for d in (1, p - 2)]
        got = assert_sieve_matches_dense(block_from_digit_rows(rows, 2, p), p)
        assert got[0] and not got[1:].all()
        assert check_d(endo_from_digits(2, p, top))


def legs_commute(digits, n, p):
    """The commuting-legs criterion mod p: every left-leg piece L_bd, with
    L_bd[a][c] = R[(a,b),(c,d)], commutes with every right-leg block
    R[(a,.),(c,.)]."""
    r = np.asarray(digits, dtype=np.int64).reshape(n, n, n, n)  # r[a, b, c, d]
    left = r.transpose(1, 3, 0, 2).reshape(-1, n, n)
    right = r.transpose(0, 2, 1, 3).reshape(-1, n, n)
    return all(not ((L @ B - B @ L) % p).any() for L in left for B in right)


@functools.lru_cache(maxsize=None)
def units(n, p):
    return gl_matrices(n, p)


@st.composite
def operators_over_fp(draw):
    """(n, p, kind, R): a random operator, f (x) g with g a polynomial in f
    (so fg = gf), or a conjugate of a diagonal solution; the last two solve."""
    n, p = draw(st.sampled_from([(2, 2), (2, 3), (2, 5), (3, 2)]))
    k = PrimeField(p)

    def square():
        entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        return [entries[r * n:(r + 1) * n] for r in range(n)]

    kind = draw(st.sampled_from(["random", "product", "diagonal"]))
    if kind == "random":
        digits = draw(st.lists(st.integers(0, p - 1), min_size=n ** 4, max_size=n ** 4))
        return n, p, kind, endo_from_digits(n, p, digits)
    if kind == "product":
        f = Matrix(k, square())
        c0, c1, c2 = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
        g = Matrix.identity(k, n).scale(k.coerce(c0)).add(
            f.scale(k.coerce(c1))).add(f.mul(f).scale(k.coerce(c2)))
        return n, p, kind, product_solution(f, g)
    u = draw(st.sampled_from(units(n, p)))
    return n, p, kind, conjugate(diagonal_solution(k, square()), u)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(operators_over_fp())
def test_sieve_check_d_and_commuting_legs_agree(case):
    n, p, kind, R = case
    digits = digits_from_endo(R)
    verdict = bool(coordinate_mask(block_of([digits], n), p)[0])
    assert verdict == check_d(R) == legs_commute(digits, n, p)
    if kind != "random":
        assert verdict, kind


def assert_operator_masks_exact(rows, n, p):
    """operator_mask, qybe_mask and forms_masks against the exact checks;
    returns the exact (d, qybe, form_t, form_u, form_w) per row."""
    x = block_from_digit_rows(rows, n, p)
    got = zip(operator_mask(x, p), qybe_mask(x, p), *forms_masks(x, p))
    verdicts = []
    for t, (op, qy, d, ft, fu, fw) in enumerate(got):
        R = endo_from_digits(n, p, rows[t])
        forms = check_equivalent_forms(R)
        want = (check_d(R), check_qybe(R), forms.form_t, forms.form_u, forms.form_w)
        assert (op, qy, ft, fu, fw) == want and d == forms.d, (n, p, t)
        verdicts.append(want)
    return verdicts


def test_obstruction_identities_hold_for_all_operators():
    """The delta and defect identities hold for the comatrix coefficients of
    every operator; annihilation is the solution criterion."""
    for n, p, count in ((2, 5, 200), (3, 3, 40)):
        x = random_block(n, p, count, seed=7)
        assert delta_identity_mask(x, p).all()
        assert defect_identity_mask(x, p).all()
    x = random_block(2, 5, 300, seed=8)
    ann = annihilation_mask(x, 5)
    co = coordinate_mask(x, 5)
    assert (ann == co).all()


def test_random_block_determinism():
    a = random_block(2, 5, 20, seed=3)
    b = random_block(2, 5, 20, seed=3)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < 5


def test_census_counts_over_f2():
    report = enumerate_solutions(2, 2)
    assert report.total == 65536
    assert report.count == 100
    assert report.bijective == 30
    assert report.symmetric == 44
    assert report.qybe == 100
    kv = dict(report.to_kv())
    assert kv["field"] == "F 2" and kv["solutions"] == "100"
    text = report.to_text()
    assert text.count("\nsolution ") == 100
    # solutions come out ascending and are genuine
    sols = report.solutions
    assert sols == sorted(sols)
    assert check_d(endo_from_digits(2, 2, sols[37]))


def test_census_over_f3_is_frozen():
    """The full (2, 3) scan: counts, orbits under GL_2(F_3) and the digest of
    the sorted serials, checked together."""
    report = census(2, 3)
    assert (report.count, report.bijective, report.symmetric, report.qybe) == (1017, 480, 315, 1017)
    assert len(orbit_reduce(report.solutions, 2, 3)) == 129
    serials = "".join(report.serial(sol) + "\n" for sol in sorted(report.solutions))
    assert hashlib.sha256(serials.encode()).hexdigest() == (
        "1cc0d7243370b9406e4e15d3b30dcf3c47a9bfd9679b8a476c08382530862a5c")


def test_two_path_agreement():
    """Coordinate equations and operator composition count the same set."""
    assert operator_count(2, 2) == 100


def test_budget_refusal():
    with pytest.raises(UsageError, match="budget"):
        enumerate_solutions(2, 3)
    with pytest.raises(UsageError, match="budget"):
        enumerate_solutions(3, 2)
    with pytest.raises(UsageError, match="budget"):
        enumerate_solutions(2, 2, limit=1000)
    with pytest.raises(UsageError):
        enumerate_solutions(2, 4)


def test_operator_count_refuses_before_any_block(monkeypatch):
    """operator_count takes the limit of enumerate_solutions: 2^81
    candidates are refused before one block is formed."""
    def no_block(*args):
        raise AssertionError("candidate block formed")
    monkeypatch.setattr(classify, "candidate_block", no_block)
    with pytest.raises(UsageError, match="budget"):
        operator_count(3, 2)
    with pytest.raises(UsageError, match="budget"):
        operator_count(2, 3)
    with pytest.raises(UsageError, match="prime"):
        operator_count(2, 4)


def test_orbit_reduce_refuses_before_any_unit(monkeypatch):
    """orbit_reduce forms |pool| |GL_n(F_p)| conjugate images, and refuses
    before the unit group is formed when they exceed the budget: 600 at
    (2, 2), 65,537 x 65,536 at n = 1 over F_65537."""
    solutions = census(2, 2).solutions
    want = orbit_reduce(solutions, 2, 2, limit=600)

    def no_units(*args):
        raise AssertionError("unit group formed")
    monkeypatch.setattr(classify, "unit_group", no_units)
    with pytest.raises(UsageError, match="600 conjugate images, over the budget of 599"):
        orbit_reduce(solutions, 2, 2, limit=599)
    with pytest.raises(UsageError, match="budget of 1000000"):
        orbit_reduce([(v,) for v in range(65537)], 1, 65537)
    monkeypatch.undo()
    # DEQ_BUDGET is the command line's setting (test_cli); the library reads none
    monkeypatch.setenv("DEQ_BUDGET", "599")
    assert orbit_reduce(solutions, 2, 2) == want


def test_enumerate_range_split_and_merge():
    full = enumerate_range(2, 2, 0, 65536)
    lo = enumerate_range(2, 2, 0, 30000)
    hi = enumerate_range(2, 2, 30000, 65536)
    assert lo + hi == full
    assert len(full) == 100


def sieved_range(n, p, start, stop):
    """Solutions in [start, stop) by the whole-block path: every candidate
    from candidate_block, sieved by coordinate_mask. The oracle for the
    prefix sieve in enumerate_range."""
    found = []
    for lo in range(start, stop, CHUNK):
        x = candidate_block(n, p, lo, min(lo + CHUNK, stop))
        found.extend(map(tuple, digits_of(x[coordinate_mask(x, p)]).tolist()))
    return found


def serial_of(digits, p):
    value = 0
    for d in digits:
        value = value * p + d
    return value


def assert_range_matches_sieve(n, p, start, stop):
    got = enumerate_range(n, p, start, stop)
    assert got == sieved_range(n, p, start, stop), (n, p, start, stop)
    return got


def test_enumerate_range_matches_the_whole_block_sieve():
    assert len(assert_range_matches_sieve(2, 2, 0, 2 ** 16)) == 100
    total, found = 3 ** 16, 0
    # windows at the start, middle and end, and windows not aligned to any
    # power of 3 that cross the boundaries of digit runs
    for lo, hi in ((0, CHUNK), ((total - CHUNK) // 2, (total + CHUNK) // 2),
                   (total - CHUNK, total), (3 ** 10 - 7, 3 ** 10 + 59_000),
                   (12_345_678, 12_445_677), (2 * 3 ** 12 + 1, 2 * 3 ** 12 + 3 ** 9 - 1)):
        found += len(assert_range_matches_sieve(2, 3, lo, hi))
    assert found > 0
    assert enumerate_range(2, 3, 500, 500) == [] == enumerate_range(2, 3, 9, 3)
    sol = catalog.triangular_solution(PrimeField(3), 1, 2, 2)
    serial = serial_of(digits_from_endo(sol), 3)
    assert enumerate_range(2, 3, serial, serial + 1) == [digits_from_endo(sol)]
    assert assert_range_matches_sieve(2, 3, serial + 1, serial + 2) == []
    # random windows over F_5 and F_13, half of them around a solution
    # f (x) g with g a polynomial in f, so that solutions occur
    rng = random.Random(20261018)
    for p in (5, 13):
        k, found = PrimeField(p), 0
        for t in range(6):
            if t % 2:
                centre = rng.randrange(p ** 16 - CHUNK)
            else:
                f = Matrix(k, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
                g = Matrix.identity(k, 2).add(f.scale(k.coerce(rng.randrange(p))))
                centre = serial_of(digits_from_endo(product_solution(f, g)), p)
            lo = max(centre - rng.randrange(CHUNK // 2), 0)
            found += len(assert_range_matches_sieve(2, p, lo, lo + rng.randrange(1, CHUNK)))
        assert found > 0, p
    # n = 1, also with p > CHUNK, where a stage extends by one digit
    assert len(assert_range_matches_sieve(1, 5, 0, 5)) == 5
    assert len(assert_range_matches_sieve(1, 7, 2, 5)) == 3
    assert len(assert_range_matches_sieve(1, 65537, 100, 65_537)) == 65_437
    # n = 3, where the first equation needs 55 digits; one window ends at 2^63
    assert len(assert_range_matches_sieve(3, 2, 0, 4000)) > 0
    assert_range_matches_sieve(3, 3, 2 ** 62, 2 ** 62 + 3000)
    assert_range_matches_sieve(3, 2, 2 ** 63 - 5000, 2 ** 63)
    for scan in (candidate_block, enumerate_range):
        with pytest.raises(UsageError, match=r"below 2\^63"):
            scan(3, 2, 2 ** 63 - 1, 2 ** 63 + 1)


def test_enumerate_range_holds_at_most_chunk_rows(monkeypatch):
    """With CHUNK at 64 the frontier is cut into many small blocks; the
    solutions do not change, and no block passed to the equations is
    larger than CHUNK."""
    want = {(2, 2): sieved_range(2, 2, 0, 2 ** 16),
            (2, 3): sieved_range(2, 3, 3 ** 12 - 50, 3 ** 12 + 20_000)}
    sizes = []
    holds = classify._holds

    def counted(entries, *args):
        sizes.append(len(entries))
        return holds(entries, *args)

    monkeypatch.setattr(classify, "_holds", counted)
    monkeypatch.setattr(classify, "CHUNK", 64)
    assert enumerate_range(2, 2, 0, 2 ** 16) == want[2, 2]
    assert enumerate_range(2, 3, 3 ** 12 - 50, 3 ** 12 + 20_000) == want[2, 3]
    assert len(want[2, 2]) == 100 and want[2, 3]
    assert max(sizes) == 64


def test_census_count_matches_the_closed_form():
    """A second method for the count: at n = 2 the solutions are the rank-r
    tensors in A (x) B over the pairs of commuting r-dimensional subspaces,
    N(2, p) = p^4 + (p^2+p+1) p^2 (p^2-1)."""
    for p, want in ((2, 100), (3, 1017), (5, 19_225)):
        assert p ** 4 + (p * p + p + 1) * p * p * (p * p - 1) == want
        assert len(enumerate_range(2, p, 0, p ** 16)) == want


def test_gl_matrices_order():
    assert len(gl_matrices(2, 2)) == 6
    assert len(gl_matrices(2, 3)) == 48
    for n, p in ((1, 5), (2, 2), (2, 3), (3, 2)):
        units, inverses = unit_group(n, p)
        assert [u.tolist() for u in units] == [m.rows for m in gl_matrices(n, p)]
        assert (np.einsum("uij,ujk->uik", units, inverses) % p == np.eye(n, dtype=int)).all()


def assert_inverses_exact(mats, p):
    invertible, inverses = inverse_mod_p(np.asarray(mats), p)
    field = PrimeField(p)
    for mat, ok, inv in zip(mats, invertible, inverses):
        want = matrix_inverse(Matrix(field, [[int(v) for v in row] for row in mat]))
        assert bool(ok) == (want is not None)
        if ok:
            assert inv.tolist() == want.rows
    return invertible


def test_inverse_mod_p_matches_matrix_inverse():
    for n, p, bijective in ((2, 2, 30), (2, 3, 480)):
        report = census(n, p)
        mats = block_matrices(block_of(report.solutions, n))
        assert assert_inverses_exact(mats, p).sum() == bijective == report.bijective
    rng = np.random.default_rng(20261018)
    for m in (4, 9):
        for p in (2, 3, 5, 13):
            mats = rng.integers(0, p, size=(60, m, m))
            # singular by construction: a repeated row, a zero column, a
            # row that is a combination of two others
            mats[:10, 1] = mats[:10, 0]
            mats[10:20, :, 2] = 0
            mats[20:30, 3] = (mats[20:30, 0] + 2 * mats[20:30, 1]) % p
            invertible = assert_inverses_exact(mats, p)
            assert not invertible[:30].any() and invertible[30:].any(), (m, p)


def test_orbit_reduce_matches_the_exact_oracle(monkeypatch):
    want = {}
    for n, p in ((2, 2), (2, 3)):
        solutions = census(n, p).solutions
        want[n, p] = exact_orbit_reduce(solutions, n, p)
        assert orbit_reduce(solutions, n, p) == want[n, p]
    # small blocks: at (2, 2) a block holds 4 of the 6 units' images of one
    # solution, at (2, 3) all 48 images of each of 2 solutions; the digit
    # tables are already cached, so they keep their size
    for n, p, chunk in ((2, 2, 4), (2, 3, 100)):
        monkeypatch.setattr(classify, "CHUNK", chunk)
        solutions = census(n, p).solutions
        assert orbit_reduce(solutions[::-1] + solutions[:40], n, p) == want[n, p]
    assert orbit_reduce([], 2, 3) == []


def test_orbit_partition_of_the_census():
    report = enumerate_solutions(2, 2)
    orbits = orbit_reduce(report.solutions, 2, 2)
    assert len(orbits) == 32
    assert sum(size for _, size in orbits) == 100
    reps = [rep for rep, _ in orbits]
    assert reps == sorted(reps)
    pool = set(report.solutions)
    for rep, size in orbits:
        assert rep in pool
        assert 1 <= size <= 6


def test_orbit_reduce_rejects_non_closed_input():
    k = PrimeField(2)
    sol = digits_from_endo(catalog.triangular_solution(k, 1, 1, 1))
    with pytest.raises(UsageError, match="missing"):
        orbit_reduce([sol], 2, 2)
