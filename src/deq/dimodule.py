"""Long dimodules over structure-constant bialgebras and over presented
universal bialgebras: compatibility checks, constructions (gradings and tensor
products), and regeneration of the operator R.

A Long dimodule is a module and comodule over the same bialgebra with
rho(h.m) = sum h.m_0 (x) m_1. The induced operator is
R(m (x) n) = sum n_1 . m (x) n_0, that is R = sum_a A_a (x) P_a for the
action matrices A_a and the comodule's slices P_a.
"""

from __future__ import annotations

import functools

from .coalg import (Coalgebra, Comodule, _action_failure, _first_difference,
                    _require_module, grouplike_coalgebra)
from .fields import MathError, UsageError
from .frt import FrtPresentation
from .linalg import Matrix, commutator_columns
from .tensor_ops import EndoPair


class FinAlgebra:
    """Structure-constant associative unital algebra. Associativity and the
    left unit law are the module axiom (`_action_failure`) on its
    left-regular matrices L_a; the right unit law is L_a unit = e_a."""

    def __init__(self, field, labels, mult, unit, check: bool = True):
        d = len(labels)
        if d < 1:
            raise UsageError("algebra dimension must be positive")
        self.field = field
        self.labels = list(labels)
        self.dim = d
        self.mult = [[[field.coerce(mult[a][b][c]) for c in range(d)] for b in range(d)]
                     for a in range(d)]
        self.unit = [field.coerce(unit[a]) for a in range(d)]
        if check:
            self._check_algebra()

    @functools.cached_property
    def _left_regular(self):
        """L_a with L_a e_b = e_a e_b, that is L_a[c][b] = mult[a][b][c]."""
        return [Matrix._computed(self.field, table).transpose() for table in self.mult]

    def _check_algebra(self):
        labels, L = self.labels, self._left_regular
        right = Matrix._computed(self.field, [La.apply(self.unit) for La in L])
        where = _first_difference(right, Matrix.identity(self.field, self.dim))
        if where is not None:
            raise UsageError("unit law fails at %s" % labels[where[0]])
        bad = _action_failure(self.unit, lambda a, b: self.mult[a][b], L)
        if bad is not None:
            pair, (_, c) = bad
            if pair is None:
                raise UsageError("unit law fails at %s" % labels[c])
            raise UsageError("multiplication is not associative at (%s,%s,%s)"
                             % (labels[pair[0]], labels[pair[1]], labels[c]))


class FinBialgebra(FinAlgebra):
    """Algebra plus coalgebra with Delta and eps algebra maps.

    The axioms are verified at construction unless check=False, which only
    `group_bialgebra` passes: once its Cayley table has passed the group
    checks, k[G] with grouplike basis is a bialgebra; the tests check it."""

    def __init__(self, field, labels, mult, unit, delta, counit, check: bool = True):
        super().__init__(field, labels, mult, unit, check=check)
        self.coalg = Coalgebra(field, labels, delta, counit, check=check)
        if check:
            self._check_bialgebra()

    def gen_coalgebra(self) -> Coalgebra:
        return self.coalg

    @property
    def delta(self):
        return self.coalg.mu

    @property
    def counit(self):
        return self.coalg.counit

    def _check_bialgebra(self):
        """eps and Delta are algebra maps exactly when they make k and H (x) H
        into H-modules: the trivial module, where e_a acts by eps(e_a), and
        the tensor square of the left-regular module, where e_a acts by
        sum_{p,q} Delta[a][p][q] L_p (x) L_q. The regular module of the
        unital algebra H (x) H is faithful, so these products compare those
        of H (x) H."""
        product, L = lambda a, b: self.mult[a][b], self._left_regular
        _require_module(self.unit, product, trivial_module(self, 1), self.labels, UsageError,
                        "counit of the unit is not 1", "counit is not multiplicative at (%s,%s)")
        _require_module(self.unit, product, [_kron_combination(t, L, L) for t in self.delta],
                        self.labels, UsageError, "Delta of the unit is not unit (x) unit",
                        "Delta is not multiplicative at (%s,%s)")

    def __repr__(self):
        return "FinBialgebra(dim=%d)" % self.dim


def group_bialgebra(field, labels, table) -> FinBialgebra:
    """k[G] from a Cayley table table[a][b] = index of product; every basis
    element grouplike. The table is checked as a group (range, identity,
    associativity, inverses); k[G] is then a bialgebra by construction and
    is built without re-checking its axioms."""
    d = len(labels)
    if any(len(row) != d for row in table) or len(table) != d:
        raise UsageError("Cayley table is not square")
    for row in table:
        for v in row:
            if not 0 <= v < d:
                raise UsageError("Cayley table entry out of range")
    ident = None
    for e in range(d):
        if all(table[e][a] == a and table[a][e] == a for a in range(d)):
            ident = e
            break
    if ident is None:
        raise MathError("not a group: no identity element")
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise MathError(
                        "not a group: multiplication is not associative at "
                        "(%s,%s,%s)" % (labels[a], labels[b], labels[c]))
    for a in range(d):
        if all(table[a][b] != ident for b in range(d)):
            raise MathError("not a group: no inverse for %s" % labels[a])
    z, o = field.zero, field.one
    e = [[o if i == c else z for i in range(d)] for c in range(d)]
    delta = [[e[a] if b == a else [z] * d for b in range(d)] for a in range(d)]
    return FinBialgebra(field, labels, [[e[c] for c in row] for row in table], e[ident],
                        delta, [o] * d, check=False)


def _host_parts(host):
    """(coalgebra of generators, is_presentation) of a bialgebra or presentation."""
    if not isinstance(host, (FinBialgebra, FrtPresentation)):
        raise UsageError("host must be a bialgebra or a presentation")
    return host.gen_coalgebra(), not isinstance(host, FinBialgebra)


def _check_module(H: FinAlgebra, act):
    """Raise MathError unless act (one matrix per basis element of H) is an
    H-module: the unit acts as the identity and the action is
    multiplicative."""
    _require_module(H.unit, lambda a, b: H.mult[a][b], act, H.labels, MathError,
                    "not a module: unit does not act as identity",
                    "not a module: action not multiplicative at (%s,%s)")


def _incompatible_columns(table):
    """For each A_a, the sorted l where column l of some [A_a, P_b] is
    nonzero, from the `commutator_columns` table of the A's and the P's:
    P_b (A_a e_l) != A_a (P_b e_l), so compatibility fails on m_l."""
    return [sorted(set().union(*row)) for row in table]


class LongDimodule:
    """Module and comodule over a host with rho(h.m) = sum h.m_0 (x) m_1.

    `action` is one matrix A_a per host basis element (per generator for a
    presentation host, where words act by products in word order), and the
    comodule is its slices P_b. Compatibility says that every A_a commutes
    with every P_b; it is the invariant every LongDimodule keeps, so
    `r_from_dimodule` does not check it again. It is verified at
    construction, with the module axioms over a bialgebra host, unless
    check=False, which `dimodule_from_grading` and
    `FrtPresentation.canonical_dimodule` pass: there both hold by
    construction (for the canonical dimodule, by the FRT-type theorem), and
    the tests check them."""

    def __init__(self, host, action, comodule: Comodule, check: bool = True):
        HC, presented = _host_parts(host)
        if comodule.coalgebra is not HC:
            raise UsageError("comodule is not over the host's coalgebra")
        if len(action) != HC.dim:
            raise UsageError("one action matrix per host basis element required")
        self.host = host
        self.field = field = host.field
        self.coalgebra = HC
        self.dim = comodule.dim
        self.act = list(action)
        for m in self.act:
            if m.field != field or m.nrows != self.dim or m.ncols != self.dim:
                raise UsageError("action matrix has wrong shape or field")
        self.comodule = comodule
        self.presented = presented
        if check:
            if not presented:
                _check_module(host, self.act)
            bad = self.first_incompatibility()
            if bad is not None:
                a, l = bad
                raise MathError(
                    "not a Long dimodule: compatibility fails for basis "
                    "element %d acting on m_%d" % (a + 1, l + 1))

    @functools.cached_property
    def _incompatible(self):
        """For each A_a, the sorted l with rho(h . m_l) != sum h . (m_l)_0 (x)
        (m_l)_1 for h acting by A_a. One table for every pair."""
        return _incompatible_columns(commutator_columns(self.act, self.comodule.slices))

    def first_incompatibility(self):
        """First (basis index, module index) violating compatibility, or None."""
        return next(((a, cols[0]) for a, cols in enumerate(self._incompatible) if cols), None)

    def pair_compatible(self, a, l) -> bool:
        """Compatibility verdict for one basis element acting on one m_l."""
        return l not in self._incompatible[a]

    def is_compatible(self) -> bool:
        return self.first_incompatibility() is None

    def __repr__(self):
        return "LongDimodule(dim=%d over %r)" % (self.dim, self.host)


class GradedModule:
    """Module over k[G] with a decomposition into group-indexed components
    given by projectors; every component is stable under the action."""

    def __init__(self, H: FinBialgebra, action, projectors):
        self.host = H
        self.act = list(action)
        self.projectors = list(projectors)
        if len(self.act) != H.dim or len(self.projectors) != H.dim:
            raise UsageError("need one action matrix and one projector per group element")
        self.dim = self.act[0].nrows
        self._check()

    def _check(self):
        H, k, d = self.host, self.host.field, self.dim
        for a in range(H.dim):
            if self.act[a].nrows != d or self.act[a].ncols != d:
                raise UsageError("action matrix has wrong shape")
        _check_module(H, self.act)
        # projectors that sum to the identity and are orthogonal idempotents
        # are the comodule axiom over the grouplike coalgebra k[G]
        G = grouplike_coalgebra(k, H.labels)
        bad = _action_failure(G.counit, G._dual_product, self.projectors)
        if bad is not None:
            pair = bad[0]
            if pair is None:
                raise MathError("projectors do not sum to the identity")
            s, t = pair
            if s == t:
                raise MathError("projector for %s is not idempotent" % H.labels[s])
            raise MathError("projectors for %s and %s are not orthogonal"
                            % (H.labels[s], H.labels[t]))
        # stability: act maps each component into itself, P A P = A P. As
        # P^2 = P, P A P - A P = [P, A] P, so only pairs with [A, P] != 0 can fail
        commutators = commutator_columns(self.act, self.projectors)
        for s, P in enumerate(self.projectors):
            for a in range(H.dim):
                if commutators[a][s]:
                    img = self.act[a] @ P
                    if P @ img != img:
                        raise MathError("component %s is not stable under %s"
                                        % (H.labels[s], H.labels[a]))


def dimodule_from_grading(g: GradedModule) -> LongDimodule:
    """Coaction rho(m_sigma) = m_sigma (x) sigma on homogeneous components:
    the slices are the projectors.

    Built unchecked: GradedModule has verified the module axioms, and its
    orthogonal idempotent projectors summing to 1 give the comodule axioms;
    stability of each component gives P_sigma h = h P_sigma, which is
    exactly Long compatibility."""
    comod = Comodule(g.host.gen_coalgebra(), g.projectors, check=False)
    d = LongDimodule(g.host, g.act, comod, check=False)
    # no pair fails: with sum_t P_t = 1 and P_s P_t = 0 for s != t, stability
    # gives P_s A_a = P_s A_a P_s = A_a P_s
    d._incompatible = [[] for _ in g.act]
    return d


def r_from_dimodule(d: LongDimodule) -> EndoPair:
    """R(m (x) n) = sum n_1 . m (x) n_0, that is R = sum_a A_a (x) P_a; a
    D-equation solution for every Long dimodule (compatibility is
    LongDimodule's invariant). One product of the flattened actions, row
    (i, k) holding A_a[i][k] over a, with the flattened slices, row a
    holding P_a: its entry ((i, k), (j, l)) is R[(i, j)][(k, l)]."""
    k, m = d.field, d.dim
    acts = Matrix._computed(k, [list(col) for col in zip(
        *([v for row in A.rows for v in row] for A in d.act))])
    slices = Matrix._computed(k, [[v for row in P.rows for v in row] for P in d.comodule.slices])
    t = acts.mul(slices).rows
    return EndoPair.from_matrix(Matrix._computed(
        k, [[t[i * m + c][j * m + l] for c in range(m) for l in range(m)]
            for i in range(m) for j in range(m)]))


def trivial_module(H: FinBialgebra, dim: int):
    """h.m = eps(h) m."""
    k = H.field
    return [Matrix.identity(k, dim).scale(H.counit[a]) for a in range(H.dim)]


def _kron_combination(table, left, right) -> Matrix:
    """sum_{p,q} table[p][q] left[p] (x) right[q], forming only the terms
    with a nonzero coefficient; table has one at least (a counit law for
    Delta(e_a), the unit law for the coefficients of e_c)."""
    k = left[0].field
    terms = [left[p].kron(right[q]).scale(c) for p, row in enumerate(table)
             for q, c in enumerate(row) if not k.is_zero(c)]
    return functools.reduce(Matrix.add, terms)


def tensor_dimodule(M: LongDimodule, N: LongDimodule) -> LongDimodule:
    """M (x) N with h.(m (x) n) = sum h_1.m (x) h_2.n and coaction
    m_0 (x) n_0 (x) m_1 n_1: the action of e_a is
    sum_{p,q} Delta[a][p][q] A^M_p (x) A^N_q, and slice c is
    sum_{a,b} mult[a][b][c] P^M_a (x) P^N_b."""
    if M.host is not N.host:
        raise UsageError("tensor product needs the same host bialgebra")
    if M.presented:
        raise UsageError("tensor products over a free presentation are unsupported")
    H = M.host
    action = [_kron_combination(H.delta[a], M.act, N.act) for a in range(H.dim)]
    # mult[a][b][c] = L_a[c][b]: row c of every left-regular matrix
    coaction = [_kron_combination([L.rows[c] for L in H._left_regular],
                                  M.comodule.slices, N.comodule.slices) for c in range(H.dim)]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))
