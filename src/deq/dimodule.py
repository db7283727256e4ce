"""Long dimodules over structure-constant bialgebras and over presented
universal bialgebras: compatibility checks, constructions (gradings, tensor
products, induction), and regeneration of the operator R.

A Long dimodule is a module and comodule over the same bialgebra with
rho(h.m) = sum h.m_0 (x) m_1. The induced operator is
R(m (x) n) = sum n_1 . m (x) n_0.
"""

from __future__ import annotations

from .coalg import Coalgebra, Comodule
from .fields import MathError, UsageError
from .frt import FrtPresentation
from .linalg import Matrix, kernel_basis, span_and_membership
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


def _act_rows(k, vec, act, dim):
    """Rows of sum_a vec[a] act[a]: the action of an element given by its
    coefficients."""
    rows = [[k.zero] * dim for _ in range(dim)]
    for a, c in enumerate(vec):
        if k.is_zero(c):
            continue
        for out, row in zip(rows, act[a].rows):
            for j, v in enumerate(row):
                if not k.is_zero(v):
                    out[j] = k.add(out[j], k.mul(c, v))
    return rows


def _check_module(H: FinAlgebra, act, dim):
    """Raise MathError unless act (one dim x dim matrix per basis element of
    H) is an H-module: the unit acts as the identity and the action is
    multiplicative."""
    k = H.field
    if _act_rows(k, H.unit, act, dim) != Matrix.identity(k, dim).rows:
        raise MathError("not a module: unit does not act as identity")
    for a in range(H.dim):
        for b in range(H.dim):
            if (act[a] @ act[b]).rows != _act_rows(k, H.mult[a][b], act, dim):
                raise MathError("not a module: action not multiplicative at (%s,%s)"
                                % (H.labels[a], H.labels[b]))


def _compat_tables(A: Matrix, rho, l):
    """(lhs, rhs) of rho(h . m_l) = sum h . (m_l)_0 (x) (m_l)_1 for h acting
    by A, as tables [w][b] of the coefficients of m_w (x) e_b; rho[l][w][b]
    is the coefficient of m_w (x) e_b in rho(m_l)."""
    k, dim, dC = A.field, A.nrows, len(rho[l][0])
    lhs = [[k.zero] * dC for _ in range(dim)]
    for i in range(dim):
        c = A.rows[i][l]
        if k.is_zero(c):
            continue
        for w in range(dim):
            for b in range(dC):
                r = rho[i][w][b]
                if not k.is_zero(r):
                    lhs[w][b] = k.add(lhs[w][b], k.mul(c, r))
    rhs = [[k.zero] * dC for _ in range(dim)]
    for w in range(dim):
        for b in range(dC):
            r = rho[l][w][b]
            if k.is_zero(r):
                continue
            for w2 in range(dim):
                c = A.rows[w2][w]
                if not k.is_zero(c):
                    rhs[w2][b] = k.add(rhs[w2][b], k.mul(r, c))
    return lhs, rhs


class LongDimodule:
    """Module and comodule over a host with rho(h.m) = sum h.m_0 (x) m_1.

    `action` is one matrix per host basis element (per generator for a
    presentation host, where words act by products in word order).
    Compatibility is the invariant every LongDimodule keeps, so
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
        self.rho = comodule.rho
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
        lhs, rhs = _compat_tables(self.act[a], self.rho, l)
        return lhs == rhs

    def is_compatible(self) -> bool:
        return self.first_incompatibility() is None

    def __repr__(self):
        return "LongDimodule(dim=%d over %r)" % (self.dim, self.host)


def check_long_compat(algebra, coalgebra, action, coaction, generators=None) -> bool:
    """Exact verdict on rho(a.m) = sum a.m_0 (x) m_1 over all basis pairs of
    an algebra/coalgebra pair; `generators` restricts the algebra side to a
    generating set (enough for a bialgebra by the compatible-subalgebra
    lemma)."""
    k = algebra.field
    if coalgebra.field != k:
        raise UsageError("algebra and coalgebra fields differ")
    dim = action[0].nrows if action else 0
    if len(coaction) != dim:
        raise UsageError("action and coaction dimensions differ")
    rho = Comodule(coalgebra, dim, coaction, check=False).rho
    indices = range(len(action)) if generators is None else generators
    for a in indices:
        for l in range(dim):
            lhs, rhs = _compat_tables(action[a], rho, l)
            if lhs != rhs:
                return False
    return True


def compatible_subalgebra(H: FinBialgebra, action, coaction):
    """Basis of {h in H : rho(h.m) = sum h.m_0 (x) m_1 for all m}; the span
    is closed under multiplication and contains the unit (asserted)."""
    k, dH = H.field, H.dim
    dim = len(coaction)
    rho = Comodule(H.gen_coalgebra(), dim, coaction, check=False).rho
    rows = []
    for l in range(dim):
        tables = [_compat_tables(action[a], rho, l) for a in range(dH)]
        for w in range(dim):
            for b in range(H.coalg.dim):
                rows.append([k.sub(lhs[w][b], rhs[w][b]) for lhs, rhs in tables])
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
    """Coaction rho(m_sigma) = m_sigma (x) sigma on homogeneous components.

    Built unchecked: GradedModule has verified the module axioms, and its
    orthogonal idempotent projectors summing to 1 give the comodule axioms;
    stability of each component gives P_sigma h = h P_sigma, which is
    exactly Long compatibility."""
    H, k = g.host, g.host.field
    rho = [[[k.zero] * H.dim for _ in range(g.dim)] for _ in range(g.dim)]
    for s, P in enumerate(g.projectors):
        for l in range(g.dim):
            for w in range(g.dim):
                c = P.rows[w][l]
                if not k.is_zero(c):
                    rho[l][w][s] = k.add(rho[l][w][s], c)
    comod = Comodule(H.gen_coalgebra(), g.dim, rho, check=False)
    return LongDimodule(H, g.act, comod, check=False)


def grading_from_dimodule(d: LongDimodule):
    """Projectors P_sigma = (I (x) eval_sigma) rho for a k[G]-dimodule whose
    coaction lands in single group components."""
    k = d.field
    return [Matrix(k, [[d.rho[l][w][s] for l in range(d.dim)] for w in range(d.dim)])
            for s in range(d.coalgebra.dim)]


def r_from_dimodule(d: LongDimodule) -> EndoPair:
    """R(m (x) n) = sum n_1 . m (x) n_0; a D-equation solution for every
    Long dimodule (compatibility is LongDimodule's invariant)."""
    k, n = d.field, d.dim
    x = [[[[k.zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    x[u][v][j][i] = k.sum(
                        k.mul(d.rho[u][j][a], d.act[a].rows[i][v])
                        for a in range(len(d.act)))
    return EndoPair(k, n, x, coerce=False)


def trivial_module(H: FinBialgebra, dim: int):
    """h.m = eps(h) m."""
    k = H.field
    return [Matrix.identity(k, dim).scale(H.counit[a]) for a in range(H.dim)]


def trivial_comodule(H: FinBialgebra, dim: int) -> Comodule:
    """rho(m) = m (x) 1."""
    k = H.field
    rho = [[[H.unit[a] if w == l else k.zero for a in range(H.dim)]
            for w in range(dim)] for l in range(dim)]
    return Comodule(H.gen_coalgebra(), dim, rho)


def tensor_dimodule(M: LongDimodule, N: LongDimodule) -> LongDimodule:
    """M (x) N with h.(m (x) n) = sum h_1.m (x) h_2.n and coaction
    m_0 (x) n_0 (x) m_1 n_1."""
    if M.host is not N.host:
        raise UsageError("tensor product needs the same host bialgebra")
    if M.presented:
        raise UsageError("tensor products over a free presentation are unsupported")
    H = M.host
    k, dH = H.field, H.dim
    dm, dn = M.dim, N.dim
    dim = dm * dn
    action = []
    for a in range(dH):
        rows = [[k.zero] * dim for _ in range(dim)]
        for p in range(dH):
            for q in range(dH):
                c = H.delta[a][p][q]
                if k.is_zero(c):
                    continue
                AP, AQ = M.act[p], N.act[q]
                for i in range(dm):
                    for l in range(dm):
                        m1 = AP.rows[i][l]
                        if k.is_zero(m1):
                            continue
                        for j in range(dn):
                            for w in range(dn):
                                m2 = AQ.rows[j][w]
                                if not k.is_zero(m2):
                                    rows[i * dn + j][l * dn + w] = k.add(
                                        rows[i * dn + j][l * dn + w],
                                        k.mul(c, k.mul(m1, m2)))
        action.append(Matrix(k, rows, coerce=False))
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for l in range(dm):
        for w in range(dn):
            for i in range(dm):
                for j in range(dn):
                    for a in range(dH):
                        ra = M.rho[l][i][a]
                        if k.is_zero(ra):
                            continue
                        for b in range(dH):
                            rb = N.rho[w][j][b]
                            if k.is_zero(rb):
                                continue
                            w2 = k.mul(ra, rb)
                            for c in range(dH):
                                m = H.mult[a][b][c]
                                if not k.is_zero(m):
                                    rho[l * dn + w][i * dn + j][c] = k.add(
                                        rho[l * dn + w][i * dn + j][c],
                                        k.mul(w2, m))
    comod = Comodule(H.gen_coalgebra(), dim, rho)
    return LongDimodule(H, action, comod)


def induce_from_module(N_action, H: FinBialgebra) -> LongDimodule:
    """N (x) H with h.(n (x) l) = h.n (x) l and coaction I (x) Delta."""
    k, dH = H.field, H.dim
    dn = N_action[0].nrows if N_action else 0
    dim = dn * dH
    action = []
    for a in range(dH):
        A = N_action[a]
        rows = [[k.zero] * dim for _ in range(dim)]
        for i in range(dn):
            for j in range(dn):
                c = A.rows[i][j]
                if k.is_zero(c):
                    continue
                for b in range(dH):
                    rows[i * dH + b][j * dH + b] = c
        action.append(Matrix(k, rows, coerce=False))
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for j in range(dn):
        for b in range(dH):
            for p in range(dH):
                for q in range(dH):
                    c = H.delta[b][p][q]
                    if not k.is_zero(c):
                        rho[j * dH + b][j * dH + p][q] = k.add(
                            rho[j * dH + b][j * dH + p][q], c)
    comod = Comodule(H.gen_coalgebra(), dim, rho)
    return LongDimodule(H, action, comod)


def induce_from_comodule(M: Comodule, H: FinBialgebra) -> LongDimodule:
    """H (x) M with h.(l (x) m) = hl (x) m and coaction l (x) m_0 (x) m_1."""
    if M.coalgebra is not H.gen_coalgebra():
        raise UsageError("comodule is not over the host's coalgebra")
    k, dH = H.field, H.dim
    dm = M.dim
    dim = dH * dm
    action = []
    for a in range(dH):
        rows = [[k.zero] * dim for _ in range(dim)]
        for c in range(dH):
            for b in range(dH):
                m = H.mult[a][c][b]
                if k.is_zero(m):
                    continue
                for i in range(dm):
                    rows[b * dm + i][c * dm + i] = m
        action.append(Matrix(k, rows, coerce=False))
    rho = [[[k.zero] * dH for _ in range(dim)] for _ in range(dim)]
    for c in range(dH):
        for l in range(dm):
            for w in range(dm):
                for a in range(dH):
                    r = M.rho[l][w][a]
                    if not k.is_zero(r):
                        rho[c * dm + l][c * dm + w][a] = r
    comod = Comodule(H.gen_coalgebra(), dim, rho)
    return LongDimodule(H, action, comod)
