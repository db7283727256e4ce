"""Long dimodules over structure-constant bialgebras and over presented
universal bialgebras: compatibility checks, constructions (gradings, tensor
products, induction), and regeneration of the operator R.

A Long dimodule is a module and comodule over the same bialgebra with
rho(h.m) = sum h.m_0 (x) m_1. The induced operator is
R(m (x) n) = sum n_1 . m (x) n_0, that is R = sum_a A_a (x) P_a for the
action matrices A_a and the comodule's slices P_a.
"""

from __future__ import annotations

import functools

from .coalg import Coalgebra, Comodule
from .fields import MathError, UsageError
from .frt import FrtPresentation
from .linalg import Matrix, kernel_basis, linear_combination, span_and_membership
from .tensor_ops import EndoPair


class FinAlgebra:
    """Structure-constant associative unital algebra."""

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

    def multiply(self, u, v):
        k, d = self.field, self.dim
        out = [k.zero] * d
        for a, ua in enumerate(u):
            if k.is_zero(ua):
                continue
            for b, vb in enumerate(v):
                if k.is_zero(vb):
                    continue
                w = k.mul(ua, vb)
                row = self.mult[a][b]
                for c in range(d):
                    if not k.is_zero(row[c]):
                        out[c] = k.add(out[c], k.mul(w, row[c]))
        return out

    def basis_vector(self, a):
        k = self.field
        return [k.one if i == a else k.zero for i in range(self.dim)]

    def _check_algebra(self):
        k, d = self.field, self.dim
        for a in range(d):
            e = self.basis_vector(a)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                raise UsageError("unit law fails at %s" % self.labels[a])
        for a in range(d):
            for b in range(d):
                ab = self.multiply(self.basis_vector(a), self.basis_vector(b))
                for c in range(d):
                    lhs = self.multiply(ab, self.basis_vector(c))
                    bc = self.multiply(self.basis_vector(b), self.basis_vector(c))
                    rhs = self.multiply(self.basis_vector(a), bc)
                    if lhs != rhs:
                        raise UsageError(
                            "multiplication is not associative at (%s,%s,%s)"
                            % (self.labels[a], self.labels[b], self.labels[c]))


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
        k, d = self.field, self.dim
        mu, dl, eps = self.mult, self.coalg.mu, self.coalg.counit
        # eps
        for a in range(d):
            for b in range(d):
                prod = self.multiply(self.basis_vector(a), self.basis_vector(b))
                if k.dot(eps, prod) != k.mul(eps[a], eps[b]):
                    raise UsageError("counit is not multiplicative at (%s,%s)"
                                     % (self.labels[a], self.labels[b]))
        if k.dot(eps, self.unit) != k.one:
            raise UsageError("counit of the unit is not 1")
        # Delta(1) = 1 (x) 1
        du = [[k.zero] * d for _ in range(d)]
        for a, ua in enumerate(self.unit):
            if k.is_zero(ua):
                continue
            for p in range(d):
                for q in range(d):
                    if not k.is_zero(dl[a][p][q]):
                        du[p][q] = k.add(du[p][q], k.mul(ua, dl[a][p][q]))
        want = [[k.mul(self.unit[p], self.unit[q]) for q in range(d)] for p in range(d)]
        if du != want:
            raise UsageError("Delta of the unit is not unit (x) unit")
        # Delta multiplicative
        for a in range(d):
            for b in range(d):
                lhs = [[k.zero] * d for _ in range(d)]
                prod = self.multiply(self.basis_vector(a), self.basis_vector(b))
                for c, pc in enumerate(prod):
                    if k.is_zero(pc):
                        continue
                    for p in range(d):
                        for q in range(d):
                            if not k.is_zero(dl[c][p][q]):
                                lhs[p][q] = k.add(lhs[p][q], k.mul(pc, dl[c][p][q]))
                rhs = [[k.zero] * d for _ in range(d)]
                for p1 in range(d):
                    for p2 in range(d):
                        da = dl[a][p1][p2]
                        if k.is_zero(da):
                            continue
                        for q1 in range(d):
                            for q2 in range(d):
                                db = dl[b][q1][q2]
                                if k.is_zero(db):
                                    continue
                                w = k.mul(da, db)
                                for p in range(d):
                                    m1 = mu[p1][q1][p]
                                    if k.is_zero(m1):
                                        continue
                                    for q in range(d):
                                        m2 = mu[p2][q2][q]
                                        if not k.is_zero(m2):
                                            rhs[p][q] = k.add(
                                                rhs[p][q],
                                                k.mul(w, k.mul(m1, m2)))
                if lhs != rhs:
                    raise UsageError("Delta is not multiplicative at (%s,%s)"
                                     % (self.labels[a], self.labels[b]))

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
    k = field
    z, o = k.zero, k.one
    mult = [[[o if c == table[a][b] else z for c in range(d)] for b in range(d)]
            for a in range(d)]
    unit = [o if a == ident else z for a in range(d)]
    delta = [[[o if (b == a and c == a) else z for c in range(d)] for b in range(d)]
             for a in range(d)]
    return FinBialgebra(k, labels, mult, unit, delta, [o] * d, check=False)


def _host_parts(host):
    """(coalgebra of generators, is_presentation) of a bialgebra or presentation."""
    if not isinstance(host, (FinBialgebra, FrtPresentation)):
        raise UsageError("host must be a bialgebra or a presentation")
    return host.gen_coalgebra(), not isinstance(host, FinBialgebra)


def _check_module(H: FinAlgebra, act, dim):
    """Raise MathError unless act (one dim x dim matrix per basis element of
    H) is an H-module: the unit acts as the identity and the action is
    multiplicative."""
    if linear_combination(H.unit, act) != Matrix.identity(H.field, dim):
        raise MathError("not a module: unit does not act as identity")
    for a in range(H.dim):
        for b in range(H.dim):
            if act[a] @ act[b] != linear_combination(H.mult[a][b], act):
                raise MathError("not a module: action not multiplicative at (%s,%s)"
                                % (H.labels[a], H.labels[b]))


def _compat_tables(A: Matrix, comodule: Comodule, l):
    """(lhs, rhs) of rho(h . m_l) = sum h . (m_l)_0 (x) (m_l)_1 for h acting
    by A: per slice P_b, the columns P_b (A e_l) and A (P_b e_l). They agree
    for every l exactly when [A, P_b] = 0."""
    col = A.col(l)
    return ([P.apply(col) for P in comodule.slices],
            [A.apply(P.col(l)) for P in comodule.slices])


class LongDimodule:
    """Module and comodule over a host with rho(h.m) = sum h.m_0 (x) m_1.

    `action` is one matrix A_a per host basis element (per generator for a
    presentation host, where words act by products in word order), and the
    comodule is its slices P_b. Compatibility says that every A_a commutes
    with every P_b; it is the invariant every LongDimodule keeps, so
    `r_from_dimodule` does not check it again. It is verified at
    construction, with the module axioms over a bialgebra host, unless
    check=False, which only `dimodule_from_grading` passes: there both
    hold by construction, and the tests check them."""

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
                _check_module(host, self.act, self.dim)
            bad = self.first_incompatibility()
            if bad is not None:
                a, l = bad
                raise MathError(
                    "not a Long dimodule: compatibility fails for basis "
                    "element %d acting on m_%d" % (a + 1, l + 1))

    def first_incompatibility(self):
        """First (basis index, module index) violating compatibility, or None."""
        for a in range(len(self.act)):
            for l in range(self.dim):
                if not self.pair_compatible(a, l):
                    return (a, l)
        return None

    def pair_compatible(self, a, l) -> bool:
        """Compatibility verdict for one basis element acting on one m_l."""
        lhs, rhs = _compat_tables(self.act[a], self.comodule, l)
        return lhs == rhs

    def is_compatible(self) -> bool:
        return self.first_incompatibility() is None

    def __repr__(self):
        return "LongDimodule(dim=%d over %r)" % (self.dim, self.host)


def check_long_compat(algebra, action, comodule: Comodule, generators=None) -> bool:
    """Exact verdict on rho(a.m) = sum a.m_0 (x) m_1 over all basis pairs of
    an algebra/coalgebra pair; `generators` restricts the algebra side to a
    generating set (enough for a bialgebra by the compatible-subalgebra
    lemma)."""
    if comodule.coalgebra.field != algebra.field:
        raise UsageError("algebra and coalgebra fields differ")
    if action[0].nrows != comodule.dim:
        raise UsageError("action and coaction dimensions differ")
    indices = range(len(action)) if generators is None else generators
    for a in indices:
        for l in range(comodule.dim):
            lhs, rhs = _compat_tables(action[a], comodule, l)
            if lhs != rhs:
                return False
    return True


def compatible_subalgebra(H: FinBialgebra, action, comodule: Comodule):
    """Basis of {h in H : rho(h.m) = sum h.m_0 (x) m_1 for all m}; the span
    is closed under multiplication and contains the unit (asserted)."""
    k, dH = H.field, H.dim
    rows = []
    for l in range(comodule.dim):
        tables = [_compat_tables(action[a], comodule, l) for a in range(dH)]
        for b in range(len(comodule.slices)):
            for w in range(comodule.dim):
                rows.append([k.sub(lhs[b][w], rhs[b][w]) for lhs, rhs in tables])
    basis = kernel_basis(Matrix(k, rows, coerce=False))
    span, contains = span_and_membership(basis, k, dim=dH)
    if not contains(H.unit):
        raise RuntimeError("compatible set does not contain the unit")
    for u in basis:
        for v in basis:
            if not contains(H.multiply(u, v)):
                raise RuntimeError("compatible set is not closed under product")
    return basis


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
        _check_module(H, self.act, d)
        # projector family
        total = Matrix.zeros(k, d, d)
        for s, P in enumerate(self.projectors):
            if P @ P != P:
                raise MathError("projector for %s is not idempotent" % H.labels[s])
            total = total.add(P)
            for t, Q in enumerate(self.projectors):
                if t != s and not (P @ Q).is_zero():
                    raise MathError("projectors for %s and %s are not orthogonal"
                                    % (H.labels[s], H.labels[t]))
        if total != Matrix.identity(k, d):
            raise MathError("projectors do not sum to the identity")
        # stability: act maps each component into itself
        for s, P in enumerate(self.projectors):
            for a in range(H.dim):
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
    return LongDimodule(g.host, g.act, comod, check=False)


def grading_from_dimodule(d: LongDimodule):
    """Projectors P_sigma = (I (x) eval_sigma) rho for a k[G]-dimodule whose
    coaction lands in single group components: its slices."""
    return list(d.comodule.slices)


def r_from_dimodule(d: LongDimodule) -> EndoPair:
    """R(m (x) n) = sum n_1 . m (x) n_0, that is R = sum_a A_a (x) P_a; a
    D-equation solution for every Long dimodule (compatibility is
    LongDimodule's invariant)."""
    terms = [A.kron(P) for A, P in zip(d.act, d.comodule.slices)]
    return EndoPair.from_matrix(functools.reduce(Matrix.add, terms))


def trivial_module(H: FinBialgebra, dim: int):
    """h.m = eps(h) m."""
    k = H.field
    return [Matrix.identity(k, dim).scale(H.counit[a]) for a in range(H.dim)]


def trivial_comodule(H: FinBialgebra, dim: int) -> Comodule:
    """rho(m) = m (x) 1: the slices are unit[a] I."""
    ident = Matrix.identity(H.field, dim)
    return Comodule(H.gen_coalgebra(), [ident.scale(u) for u in H.unit])


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
    rng = range(H.dim)
    action = [_kron_combination(H.delta[a], M.act, N.act) for a in rng]
    coaction = [_kron_combination([[H.mult[a][b][c] for b in rng] for a in rng],
                                  M.comodule.slices, N.comodule.slices) for c in rng]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))


def induce_from_module(N_action, H: FinBialgebra) -> LongDimodule:
    """N (x) H with h.(n (x) l) = h.n (x) l and coaction I (x) Delta: the
    action of e_a is A_a (x) I and slice q is I (x) D_q with
    D_q[p][b] = Delta[b][p][q]."""
    k, rng = H.field, range(H.dim)
    ident_h = Matrix.identity(k, H.dim)
    ident_n = Matrix.identity(k, N_action[0].nrows)
    action = [A.kron(ident_h) for A in N_action]
    coaction = [ident_n.kron(Matrix._computed(k, [[H.delta[b][p][q] for b in rng] for p in rng]))
                for q in rng]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))


def induce_from_comodule(M: Comodule, H: FinBialgebra) -> LongDimodule:
    """H (x) M with h.(l (x) m) = hl (x) m and coaction l (x) m_0 (x) m_1:
    the action of e_a is L_a (x) I with L_a[b][c] = mult[a][c][b], and
    slice a is I (x) P^M_a."""
    if M.coalgebra is not H.gen_coalgebra():
        raise UsageError("comodule is not over the host's coalgebra")
    k, rng = H.field, range(H.dim)
    ident_h = Matrix.identity(k, H.dim)
    ident_m = Matrix.identity(k, M.dim)
    action = [Matrix._computed(k, [[H.mult[a][c][b] for c in rng] for b in rng]).kron(ident_m)
              for a in rng]
    coaction = [ident_h.kron(P) for P in M.slices]
    return LongDimodule(H, action, Comodule(H.gen_coalgebra(), coaction))
