"""Long dimodules against Yetter-Drinfeld modules, the source paper's
contrast. A k[G]-module graded by projectors P_h is a Long dimodule when
every component is stable, A_g P_h = P_h A_g, and a Yetter-Drinfeld module
when A_g P_h = P_(g h g^-1) A_g. For abelian G the two conditions are one
formula; over S3 the conjugation module is Yetter-Drinfeld and not Long.
The operator R = sum_h A_h (x) P_h of a Long dimodule solves the D-equation,
the theorem `deq dimodule` reports instead of re-checking it."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog, fileio
from deq.cli import main
from deq.dimodule import GradedModule, dimodule_from_grading, group_bialgebra, r_from_dimodule
from deq.fields import MathError, PrimeField, QQ
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import check_d, check_qybe
from oracles import (conjugation_module, graded_operator, unit_triangular,
                     yetter_drinfeld_failure)
from test_dimodule import cyclic_table

FIELDS = [QQ, PrimeField(13)]
# x^m + c_(m-1) x^(m-1) + ... + c_0 as [c_0, ..., c_(m-1)]: the cyclotomic
# polynomial of each order whose degree is at most 4; its companion matrix
# generates a representation of Z/order
CYCLOTOMIC = {3: [1, 1], 4: [1, 0], 5: [1, 1, 1, 1], 6: [1, -1]}
MAX_DIM = 4  # the default DEQ_MAX_N, so deq dimodule takes every module


def companion(k, coeffs):
    m = len(coeffs)
    return Matrix(k, [[1 if r == c + 1 else 0 for c in range(m - 1)] + [-coeffs[r]]
                      for r in range(m)])


def cyclic_blocks(k, order):
    """Representations of Z/order, each as its generator's matrix: the
    trivial and (even order) sign lines, the regular representations of the
    quotients Z/m up to m = 4, and the cyclotomic companion matrix."""
    gens = [Matrix(k, [[1]])] + ([Matrix(k, [[-1]])] if order % 2 == 0 else [])
    for m in range(2, 5):
        if order % m == 0:
            gens.append(companion(k, [-1] + [0] * (m - 1)))
    if order in CYCLOTOMIC:
        gens.append(companion(k, CYCLOTOMIC[order]))
    blocks = []
    for B in gens:
        powers = [Matrix.identity(k, B.nrows)]
        for _ in range(order - 1):
            powers.append(powers[-1] @ B)
        blocks.append(powers)
    return blocks


def s3_blocks(k):
    """Representations of S3 in catalog order: trivial, sign, the plane."""
    labels, table = catalog.s3_cayley()
    odd = [table[a][a] == 0 and a != 0 for a in range(len(labels))]
    plane = catalog._s3_plane_rep(k)
    return [[Matrix(k, [[1]]) for _ in labels], [Matrix(k, [[-1 if o else 1]]) for o in odd],
            [Matrix(k, plane[label]) for label in labels]]


def groups():
    """(name, labels, Cayley table, abelian, blocks per field) for Z/2..Z/6 and S3."""
    out = [("Z%d" % n, ["g%d" % a for a in range(n)], cyclic_table(n), True,
            lambda k, n=n: cyclic_blocks(k, n)) for n in range(2, 7)]
    labels, table = catalog.s3_cayley()
    return out + [("S3", labels, table, False, s3_blocks)]


GROUPS = groups()


def block_diagonal(k, mats):
    m = sum(A.nrows for A in mats)
    rows, at = [], 0
    for A in mats:
        rows += [[k.zero] * at + row + [k.zero] * (m - at - A.nrows) for row in A.rows]
        at += A.nrows
    return Matrix._computed(k, rows)


@st.composite
def gradings(draw, abelian_only=False, aligned=None):
    """(group, field, action, projectors, aligned): a module of dimension at
    most MAX_DIM that is a direct sum of drawn blocks, conjugated by a
    unit-triangular matrix. Aligned, each block is one component of a drawn
    grade, so the grading is valid; otherwise each basis vector of a block
    gets its own grade, and the components need not be stable."""
    group = draw(st.sampled_from([g for g in GROUPS if g[3] or not abelian_only]))
    _, labels, _, _, blocks_of = group
    k = draw(st.sampled_from(FIELDS))
    blocks = blocks_of(k)
    chosen = []
    for index in draw(st.lists(st.integers(0, len(blocks) - 1), min_size=1, max_size=MAX_DIM)):
        if sum(blocks[c][0].nrows for c in chosen) + blocks[index][0].nrows <= MAX_DIM:
            chosen.append(index)
    aligned = draw(st.booleans()) if aligned is None else aligned
    grades = []
    for c in chosen:
        size = blocks[c][0].nrows
        grade = draw(st.integers(0, len(labels) - 1))
        grades += [grade] * size if aligned else [draw(st.integers(0, len(labels) - 1))
                                                  for _ in range(size)]
    m = len(grades)
    S = unit_triangular(k, m, random.Random(draw(st.integers(0, 2 ** 16))))
    S_inv = matrix_inverse(S)
    act = [S @ block_diagonal(k, [blocks[c][g] for c in chosen]) @ S_inv
           for g in range(len(labels))]
    projectors = [S @ Matrix._computed(k, [[k.one if r == s and grades[r] == h else k.zero
                                            for s in range(m)] for r in range(m)]) @ S_inv
                  for h in range(len(labels))]
    return group, k, act, projectors, aligned


def graded_module(group, k, act, projectors):
    _, labels, table, _, _ = group
    return GradedModule(group_bialgebra(k, labels, table), act, projectors)


def dimodule_report(group, k, act, projectors):
    """(exit code, report) of deq dimodule on the module, through files."""
    _, labels, table, _, _ = group
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("g.txt", "m.txt", "out.txt")]
        fileio.write_cayley(paths[0], labels, table)
        fileio.write_graded_module(paths[1], labels, k, dict(zip(labels, act)),
                                   dict(zip(labels, projectors)))
        code = main(["dimodule", paths[0], paths[1], "--out", paths[2]])
        report = open(paths[2]).read() if os.path.exists(paths[2]) else ""
    return code, report


def test_long_gradings_regenerate_solutions():
    """R = sum_h A_h (x) P_h of every valid grading solves the D-equation,
    and deq dimodule reports it, over Z/2..Z/6 and S3, over Q and F_13."""
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(gradings(aligned=True))
    def check(case):
        group, k, act, projectors, _ = case
        g = graded_module(group, k, act, projectors)
        assert check_d(r_from_dimodule(dimodule_from_grading(g)))
        code, report = dimodule_report(group, k, act, projectors)
        assert code == 0
        assert ("regenerated operator n: %d\nregenerated d: true\n" % g.dim) in report

    check()


def test_abelian_stability_is_the_yetter_drinfeld_condition():
    """Over abelian G, GradedModule accepts a grading exactly when the
    Yetter-Drinfeld oracle does; both verdicts occur."""
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(gradings(abelian_only=True))
    def check(case):
        group, k, act, projectors, aligned = case
        _, _, table, _, _ = group
        try:
            graded_module(group, k, act, projectors)
            stable = True
        except MathError as exc:
            assert "is not stable under" in str(exc)
            stable = False
        assert stable == (yetter_drinfeld_failure(table, act, projectors) is None)
        assert stable or not aligned
        seen.add(stable)

    check()
    assert seen == {True, False}


S3_CLASSES = {"e": [0], "transpositions": [1, 2, 3], "3-cycles": [4, 5]}


def test_s3_conjugation_modules_are_yetter_drinfeld_and_not_long(monkeypatch):
    """k[S3] acting by conjugation on a union of conjugacy classes that holds
    the transpositions, graded by the element: the Yetter-Drinfeld oracle
    accepts it, GradedModule and deq dimodule refuse it (exit 1), and its
    R = sum_h A_h (x) P_h satisfies QYBE and not the D-equation."""
    monkeypatch.setenv("DEQ_MAX_N", "5")
    labels, table = catalog.s3_cayley()
    group = next(g for g in GROUPS if g[0] == "S3")

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.sampled_from(FIELDS),
           st.lists(st.sampled_from(["e", "3-cycles"]), max_size=1),
           st.integers(0, 2 ** 16))
    def check(k, others, seed):
        classes = [S3_CLASSES[name] for name in ["transpositions"] + others]
        act, projectors = conjugation_module(k, table, classes, random.Random(seed))
        assert yetter_drinfeld_failure(table, act, projectors) is None
        with pytest.raises(MathError, match="is not stable under"):
            graded_module(group, k, act, projectors)
        assert dimodule_report(group, k, act, projectors) == (1, "")
        R = graded_operator(act, projectors)
        assert check_qybe(R) and not check_d(R)

    check()
