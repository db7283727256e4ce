"""The readers of x_uv^ji as index maps on R.matrix() against the 4-deep
loops over the 4-index family that they replaced (tests/oracles.py): the
generator table read as the generator action, the obstruction vectors in
label order, the sigma0 table (the generator table transposed) and the
first symmetry violation.

These identities hold for every R, so they are checked on the census
solutions at (n, p) = (2, 2) and (2, 3), on the catalog over Q, F_13 and
Q(q), and on random operators over F_5 at n = 2 and 3, which are
non-solutions, some of them symmetric up to one entry."""

import random

import pytest

from deq.dmap import first_symmetry_violation, strong_dmap_from_symmetric
from deq.fields import MathError, PrimeField
from deq.frt import generator_table, obstruction_vectors
from deq.linalg import Matrix
from deq.tensor_ops import EndoPair
from oracles import (flip_index, loop_first_symmetry_violation, loop_generator_action,
                     loop_obstruction_vectors, loop_sigma0_table, random_value)
from test_matrix_forms import FIELDS, catalog_solutions
from test_theorems import census_solutions


def random_operators():
    """Random operators over F_5, and for each one its flip-symmetrized form
    with one entry raised by 1, so that it breaks symmetry at a random place."""
    k = PrimeField(5)
    rng = random.Random(13)
    out = []
    for n, count in ((2, 30), (3, 30)):
        d = n * n
        flip = flip_index(n)
        for _ in range(count):
            rows = [[random_value(k, rng) for _ in range(d)] for _ in range(d)]
            out.append(EndoPair.from_matrix(Matrix(k, rows)))
            sym = [[k.add(rows[r][c], rows[flip[r]][flip[c]]) for c in range(d)]
                   for r in range(d)]
            r, c = rng.randrange(d), rng.randrange(d)
            sym[r][c] = k.add(sym[r][c], k.one)
            out.append(EndoPair.from_matrix(Matrix(k, sym)))
    return out


SOURCES = ["census", *FIELDS, "random"]
SOURCE_IDS = ["census", "Q", "F13", "Qq", "random"]


def operators(source):
    if source == "census":
        return census_solutions()
    if source == "random":
        return random_operators()
    return catalog_solutions(*source)


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_index_maps_equal_the_loops(source):
    symmetric = broken = 0
    for R in operators(source):
        n, table = R.n, generator_table(R)
        assert [Matrix._computed(R.field, [row[i * n:i * n + n] for i in range(n)])
                for row in table.rows] == loop_generator_action(R)
        assert obstruction_vectors(table) == sorted(loop_obstruction_vectors(R).items())
        assert table.transpose().rows == loop_sigma0_table(R)
        where = loop_first_symmetry_violation(R)
        assert first_symmetry_violation(R) == where
        symmetric += where is None
        broken += where is not None
    assert broken and (symmetric or source == "random")


@pytest.mark.parametrize("source", ["census", *FIELDS], ids=SOURCE_IDS[:4])
def test_symmetry_refusal_names_the_loops_first_violation(source):
    """strong_dmap_from_symmetric refuses a non-symmetric solution with the
    text built from the loop's first (u,v,j,i)."""
    refused = 0
    for R in operators(source):
        where = loop_first_symmetry_violation(R)
        if where is None:
            continue
        u, v, j, i = where
        with pytest.raises(MathError) as info:
            strong_dmap_from_symmetric(R)
        assert str(info.value) == "R tau != tau R: x_%d%d^%d%d != x_%d%d^%d%d" % (
            u, v, j, i, v, u, i, j)
        refused += 1
    assert refused
