"""The module axiom, graded stability and Long compatibility, checked by
block products, against the per-pair loops they replaced
(tests/oracles.py).

Valid structures over Q, F_13 and Q(q) get one entry moved, an amount
shifted between two of their matrices, or nothing: the algebras k[Z/2],
k[Z/3], k[S3] and k^S3; bialgebras from the algebra and the coalgebra of
k[Z/2] and k^(Z/2), and the bialgebra inputs of test_structure_axioms;
comatrix, grouplike and function coalgebras; the standard comodule of
comatrix(2); the S3, Z/6 and Z/2 gradings, or those with the action
conjugated by a shear; Long dimodules over k[G] and over D(R). The checks
and the loops must give the same verdict, the same first failing pair and
entry, and the same error text."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from deq import catalog, coalg, dimodule
from deq.coalg import Coalgebra, Comodule, _action_failure, comatrix, grouplike_coalgebra
from deq.dimodule import (FinAlgebra, FinBialgebra, GradedModule, LongDimodule,
                          _kron_combination, group_bialgebra, trivial_module)
from deq.fields import FunctionField, MathError, PrimeField, QQ, UsageError
from deq.frt import d_bialgebra
from deq import linalg
from deq.linalg import Matrix, matrix_inverse
from deq.tensor_ops import diagonal_solution

import oracles
from test_dimodule import cyclic_graded_module, cyclic_table, z2_eigen_grading
from test_matrix_forms import s3_function_bialgebra
from test_structure_axioms import MESSAGES

FQ = FunctionField(["q"])
FIELDS = [QQ, PrimeField(13), FQ]


def steps(k):
    """What a perturbation adds to an entry."""
    return [k.one, k.coerce(2)] + ([k.parse("q")] if k is FQ else [])


def perturbed(draw, k, mats):
    """Copies of the matrices, in one draw of three as they are, else with
    one entry of one of them moved, or with an amount moved from an entry
    of one to the same entry of another, which keeps their sum."""
    rows = [[list(r) for r in M.rows] for M in mats]
    mode = draw(st.sampled_from(["keep", "move", "shift"]))
    if mode != "keep":
        t = draw(st.integers(0, len(rows) - 1))
        i = draw(st.integers(0, len(rows[t]) - 1))
        j = draw(st.integers(0, len(rows[t][i]) - 1))
        step = draw(st.sampled_from(steps(k)))
        rows[t][i][j] = k.add(rows[t][i][j], step)
        alike = [u for u, M in enumerate(mats) if u != t and M.nrows == mats[t].nrows]
        if mode == "shift" and alike:
            u = draw(st.sampled_from(alike))
            rows[u][i][j] = k.sub(rows[u][i][j], step)
    return [Matrix._computed(k, r) for r in rows]


def tables(k, nested):
    return [Matrix._computed(k, t) for t in nested]


def z2_function_bialgebra(k):
    """k^(Z/2) on the delta functions d_e, d_g."""
    z, o = k.zero, k.one
    mult = [[[o, z], [z, z]], [[z, z], [z, o]]]
    delta = [[[o, z], [z, o]], [[z, o], [o, z]]]
    return FinBialgebra(k, ["d_e", "d_g"], mult, [o, o], delta, [o, z])


def algebras(k):
    return [group_bialgebra(k, ["e", "g"], cyclic_table(2)),
            group_bialgebra(k, ["e", "a", "b"], cyclic_table(3)),
            catalog.s3_bialgebra(k), s3_function_bialgebra(k)]


def field_values(k, table):
    return [field_values(k, t) for t in table] if isinstance(table, list) else k.coerce(table)


def bialgebras(k):
    """(labels, mult, unit, delta, counit) of k[Z/2] and k^(Z/2), of the
    algebra of each with the coalgebra of the other, and of the inputs of
    test_structure_axioms that fail only the bialgebra axioms."""
    group, function = group_bialgebra(k, ["e", "g"], cyclic_table(2)), z2_function_bialgebra(k)
    made = [(A.labels, A.mult, A.unit, C.delta, C.counit)
            for A in (group, function) for C in (group, function)]
    return made + [(args[0],) + tuple(field_values(k, t) for t in args[1:])
                   for _, cls, args in MESSAGES if cls is FinBialgebra]


def gradings(k):
    """(host, action, projectors) of the S3, Z/6 and Z/2 gradings."""
    return [(g.host, g.act, g.projectors) for g in
            (catalog.s3_graded_module(k), cyclic_graded_module(k, 6), z2_eigen_grading(k, 3))]


@st.composite
def graded_inputs(draw, k):
    """A grading perturbed, or with its action conjugated by a shear
    I + t E_xy and its projectors kept: a module that some components may
    not keep."""
    H, act, proj = draw(st.sampled_from(gradings(k)))
    if draw(st.booleans()):
        mats = perturbed(draw, k, act + proj)
        return H, mats[:H.dim], mats[H.dim:]
    n = act[0].nrows
    x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    S = Matrix.identity(k, n)
    S.rows[x][y] = draw(st.sampled_from(steps(k)))
    Sinv = matrix_inverse(S)
    return H, [S @ A @ Sinv for A in act], proj


@st.composite
def algebra_case(draw, k):
    H = draw(st.sampled_from(algebras(k)))
    *mult, unit = perturbed(draw, k, tables(k, H.mult) + [Matrix._computed(k, [H.unit])])
    return (k, H.labels, [M.rows for M in mult], unit.rows[0]), FinAlgebra


@st.composite
def bialgebra_case(draw, k):
    labels, mult, unit, delta, counit = draw(st.sampled_from(bialgebras(k)))
    mats = perturbed(draw, k, tables(k, mult) + tables(k, delta)
                     + [Matrix._computed(k, [unit, counit])])
    d, ends = len(labels), mats[-1].rows
    return (k, labels, [M.rows for M in mats[:d]], ends[0], [M.rows for M in mats[d:-1]],
            ends[1]), FinBialgebra


@st.composite
def coalgebra_case(draw, k):
    C = draw(st.sampled_from([comatrix(k, 2), grouplike_coalgebra(k, ["g", "h", "u"]),
                              s3_function_bialgebra(k).coalg]))
    *mu, counit = perturbed(draw, k, tables(k, C.mu) + [Matrix._computed(k, [C.counit])])
    return (k, C.labels, [M.rows for M in mu], counit.rows[0]), Coalgebra


@st.composite
def comodule_case(draw, k):
    C = comatrix(k, 2)
    return (C, perturbed(draw, k, oracles.standard_comodule(C).slices)), Comodule


@st.composite
def graded_case(draw, k):
    return draw(graded_inputs(k)), GradedModule


@st.composite
def dimodule_case(draw, k):
    if draw(st.booleans()):
        H, act, slices = draw(graded_inputs(k))
    else:
        R = draw(st.sampled_from([catalog.s3_graded_solution(k), catalog.rq(k, 3),
                                  diagonal_solution(k, [[1, 2], [3, 4]])]))
        d = d_bialgebra(R).canonical_dimodule()
        H, n = d.host, len(d.act)
        mats = perturbed(draw, k, d.act + d.comodule.slices)
        act, slices = mats[:n], mats[n:]
    return (H, act, Comodule(H.gen_coalgebra(), slices, check=False)), LongDimodule


CASES = [algebra_case, bialgebra_case, coalgebra_case, comodule_case, graded_case,
         dimodule_case]


def module_axioms(cls, args):
    """The (unit, product, act) triples that the checks of cls(*args) hand
    to `_action_failure`, in their order."""
    if cls is Coalgebra:
        C = Coalgebra(*args, check=False)
        return [(C.counit, C._dual_product, C._regular_slices())]
    if cls is Comodule:
        C, slices = args
        return [(C.counit, C._dual_product, slices)]
    if cls in (FinAlgebra, FinBialgebra):
        H = cls(*args, check=False)
        product, L = (lambda a, b: H.mult[a][b]), H._left_regular
        triples = [(H.unit, product, L)]
        if cls is FinBialgebra:
            C = H.coalg
            triples += [(C.counit, C._dual_product, C._regular_slices()),
                        (H.unit, product, trivial_module(H, 1))]
            # a Delta(e_a) = 0 fails the counit law before H (x) H is formed
            if all(any(itertools.chain(*t)) for t in H.delta):
                triples.append((H.unit, product, [_kron_combination(t, L, L) for t in H.delta]))
        return triples
    H, act = args[0], args[1]
    triples = []
    if isinstance(H, FinBialgebra):
        triples.append((H.unit, lambda a, b: H.mult[a][b], act))
    if cls is GradedModule:
        G = grouplike_coalgebra(H.field, H.labels)
        triples.append((G.counit, G._dual_product, args[2]))
    return triples


def error_text(cls, args):
    try:
        cls(*args)
    except (UsageError, MathError) as err:
        return str(err)
    return None


def loop_error_text(cls, args):
    """The error text of cls(*args) with the module axiom, stability and
    compatibility each checked one pair at a time."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (coalg, dimodule):
            patch.setattr(module, "_action_failure", oracles.loop_action_failure)
        text = error_text(cls, args)
    if cls is GradedModule and (text is None or text.startswith("component ")):
        H, act, proj = args
        bad = oracles.loop_first_unstable(act, proj)
        return bad and "component %s is not stable under %s" % (H.labels[bad[0]],
                                                                H.labels[bad[1]])
    if cls is LongDimodule and (text is None or text.startswith("not a Long dimodule")):
        bad = oracles.loop_first_incompatibility(args[1], args[2])
        return bad and ("not a Long dimodule: compatibility fails for basis element %d "
                        "acting on m_%d" % (bad[0] + 1, bad[1] + 1))
    return text


@pytest.mark.parametrize("band", [None, 1], ids=["one_band", "band_per_matrix"])
@pytest.mark.parametrize("make", CASES, ids=[make.__name__ for make in CASES])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_block_product_checks_equal_the_pair_loops(make, band, data):
    """With the kernels' default band budget every input here is one band;
    with a budget of one entry each X[a] is a band of its own."""
    k = data.draw(st.sampled_from(FIELDS))
    args, cls = data.draw(make(k))
    with pytest.MonkeyPatch.context() as patch:
        if band is not None:
            patch.setattr(linalg, "_BAND_ENTRIES", band)
        check_against_the_loops(cls, args)


def check_against_the_loops(cls, args):
    for unit, product, act in module_axioms(cls, args):
        assert _action_failure(unit, product, act) == \
            oracles.loop_action_failure(unit, product, act)
    if cls is LongDimodule:
        d = LongDimodule(*args, check=False)
        assert d.first_incompatibility() == oracles.loop_first_incompatibility(args[1], args[2])
        rho = oracles.rho_of(args[2])
        loops = (oracles.loop_compat_tables(A, rho, l) for A in d.act for l in range(d.dim))
        assert [d.pair_compatible(a, l) for a in range(len(d.act)) for l in range(d.dim)] == \
            [lhs == rhs for lhs, rhs in loops]
    assert error_text(cls, args) == loop_error_text(cls, args)


def test_large_families_are_formed_in_bands(monkeypatch):
    """The k[S3] (x) k[S3] module check of FinBialgebra(k[S3]) has 36 x 36
    matrices: no product it forms holds more than the band budget and the
    unit row the first band carries, and a unit law that fails stops the
    check before the second band."""
    H = catalog.s3_bialgebra(QQ)
    args = [QQ, H.labels, H.mult, H.unit, H.delta, H.counit]
    sizes = []
    integral_mul = Matrix._integral_mul

    def counted_mul(self, other):
        sizes.append(self.nrows * other.ncols)
        return integral_mul(self, other)

    monkeypatch.setattr(Matrix, "_integral_mul", counted_mul)
    FinBialgebra(*args)
    assert max(sizes) <= linalg._BAND_ENTRIES + 36 * 36
    assert linalg._BAND_ENTRIES < 6 * 6 * 36 * 36
    act = [_kron_combination(t, H._left_regular, H._left_regular) for t in H.delta]
    sizes.clear()
    assert _action_failure([QQ.zero] * 6, lambda a, b: H.mult[a][b], act) == (None, (0, 0))
    assert len(sizes) == 2
