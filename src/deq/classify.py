"""Exhaustive classification of D-equation solutions at low dimension over
small prime fields, with conjugation-orbit reduction.

Candidates are serialized row-major over the n^2 x n^2 operator matrix and
scanned as base-p digit blocks with vectorized coordinate equations; the
independent operator-composition path and batched identity checks share the
same candidate layout.
"""

from __future__ import annotations

import random

import numpy as np

from .fields import PrimeField, UsageError, env_positive_int, is_prime
from .linalg import Matrix, matrix_inverse
from .tensor_ops import EndoPair, check_d

DEFAULT_BUDGET = 1_000_000


def budget() -> int:
    return env_positive_int("DEQ_BUDGET", DEFAULT_BUDGET)


def candidate_block(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Candidates start..stop-1 as an (N, n, n, n, n) array x[t, u, v, j, i];
    digit order is big-endian row-major, so lexicographic order of serialized
    matrices equals integer order."""
    count = stop - start
    t = n ** 4
    ids = np.arange(start, stop, dtype=np.int64)
    weights = p ** np.arange(t - 1, -1, -1, dtype=np.int64)
    digits = (ids[:, None] // weights[None, :]) % p
    mats = digits.reshape(count, n * n, n * n)
    return mats.reshape(count, n, n, n, n).transpose(0, 4, 3, 2, 1)


def block_matrices(x: np.ndarray) -> np.ndarray:
    """(N, n^2, n^2) operator matrices for an x block."""
    count, n = x.shape[0], x.shape[1]
    return x.transpose(0, 4, 3, 2, 1).reshape(count, n * n, n * n)


def digits_of(x: np.ndarray) -> np.ndarray:
    """Serialized row-major matrix entries of an x block, as (N, n^4)."""
    count = x.shape[0]
    return block_matrices(x).reshape(count, -1)


def coordinate_mask(x: np.ndarray, p: int) -> np.ndarray:
    """check_d by the coordinate equations, vectorized."""
    lhs = np.einsum('nkvji,nlqvp->nijklpq', x, x) % p
    rhs = np.einsum('nklja,naqip->nijklpq', x, x) % p
    return (lhs == rhs).reshape(x.shape[0], -1).all(axis=1)


def _lift_blocks(mat: np.ndarray, n: int):
    """(r12, r23) for a batch of n^2 x n^2 matrices."""
    eye = np.eye(n, dtype=np.int64)
    count = mat.shape[0]
    r12 = np.einsum('nac,bd->nabcd', mat, eye).reshape(count, n ** 3, n ** 3)
    r23 = np.einsum('ac,nbd->nabcd', eye, mat).reshape(count, n ** 3, n ** 3)
    return r12, r23


def _perm13(n: int) -> np.ndarray:
    """Index map of the (2 3) leg swap on M (x) M (x) M."""
    out = np.empty(n ** 3, dtype=np.int64)
    for k in range(n ** 3):
        a, b, c = k // (n * n), (k // n) % n, k % n
        out[k] = (a * n + c) * n + b
    return out


def _perm123(n: int) -> np.ndarray:
    """Index map of l (x) m (x) p -> p (x) l (x) m."""
    out = np.empty(n ** 3, dtype=np.int64)
    for k in range(n ** 3):
        a, b, c = k // (n * n), (k // n) % n, k % n
        out[k] = (c * n + a) * n + b
    return out


def operator_mask(x: np.ndarray, p: int) -> np.ndarray:
    """check_d by composing lifted operators, vectorized; the independent
    path cross-validating coordinate_mask."""
    n = x.shape[1]
    mat = block_matrices(x)
    r12, r23 = _lift_blocks(mat, n)
    return ((r12 @ r23) % p == (r23 @ r12) % p).reshape(x.shape[0], -1).all(axis=1)


def qybe_mask(x: np.ndarray, p: int) -> np.ndarray:
    n = x.shape[1]
    mat = block_matrices(x)
    r12, r23 = _lift_blocks(mat, n)
    s = _perm13(n)
    r13 = r12[:, s][:, :, s]
    lhs = (((r12 @ r13) % p) @ r23) % p
    rhs = (((r23 @ r13) % p) @ r12) % p
    return (lhs == rhs).reshape(x.shape[0], -1).all(axis=1)


def symmetric_mask(x: np.ndarray) -> np.ndarray:
    """R tau = tau R, i.e. x_uv^ji = x_vu^ij."""
    flipped = x.transpose(0, 2, 1, 4, 3)
    return (x == flipped).reshape(x.shape[0], -1).all(axis=1)


def forms_masks(x: np.ndarray, p: int):
    """(d, form_t, form_u, form_w) verdict arrays for a block."""
    n = x.shape[1]
    count = x.shape[0]
    mat = block_matrices(x)
    tau = np.empty(n * n, dtype=np.int64)
    for k in range(n * n):
        tau[k] = (k % n) * n + k // n
    s23 = _perm13(n)
    im = _perm123(n)
    inv = np.argsort(im)

    def lifts(m):
        a12, a23 = _lift_blocks(m, n)
        a13 = a12[:, s23][:, :, s23]
        return a12, a13, a23

    tmat = mat[:, :, tau]
    umat = mat[:, tau, :]
    wmat = mat[:, tau][:, :, tau]
    t12, t13, t23 = lifts(tmat)
    u12, u13, u23 = lifts(umat)
    w12, _, w23 = lifts(wmat)
    d = coordinate_mask(x, p)
    ft = ((t12 @ t13) % p == ((t23 @ t13) % p)[:, :, im]).reshape(count, -1).all(axis=1)
    fu = ((u13 @ u23) % p == ((u13 @ u12) % p)[:, inv, :]).reshape(count, -1).all(axis=1)
    fw = ((w12 @ w23) % p == (w23 @ w12) % p).reshape(count, -1).all(axis=1)
    return d, ft, fu, fw


def obstruction_block(x: np.ndarray, p: int) -> np.ndarray:
    """o(i,j,k,l) for a block, shape (N, n, n, n, n, n^2)."""
    n = x.shape[1]
    count = x.shape[0]
    eye = np.eye(n, dtype=np.int64)
    term1 = np.einsum('nkvji,lw->nijklvw', x, eye).reshape(
        count, n, n, n, n, n * n)
    term2 = np.einsum('nklja,vi->nijklva', x, eye).reshape(
        count, n, n, n, n, n * n)
    return (term1 - term2) % p


def action_block(x: np.ndarray) -> np.ndarray:
    """Generator action matrices, shape (N, n^2, n, n): A[c_ju][i][v]."""
    count, n = x.shape[0], x.shape[1]
    return x.transpose(0, 3, 1, 4, 2).reshape(count, n * n, n, n)


def delta_identity_mask(x: np.ndarray, p: int) -> np.ndarray:
    """Comultiplication identity for obstructions, vectorized; true rows
    satisfy it (expected: all, for every R)."""
    n = x.shape[1]
    d = n * n
    obs = obstruction_block(x, p)
    mu = np.zeros((d, d, d), dtype=np.int64)
    for j in range(n):
        for k in range(n):
            for u in range(n):
                mu[j * n + k][j * n + u][u * n + k] = 1
    left = np.einsum('nijklm,mbc->nijklbc', obs, mu) % p
    e1 = np.zeros((n, n, d), dtype=np.int64)
    e2 = np.zeros((n, n, d), dtype=np.int64)
    for u in range(n):
        for l in range(n):
            e1[u, l, u * n + l] = 1
            e2[l, u, l * n + u] = 1
    rhs = np.einsum('nijkub,ulc->nijklbc', obs, e1)
    rhs = rhs + np.einsum('iub,nujklc->nijklbc', e2, obs)
    rhs = rhs % p
    return (left == rhs).reshape(x.shape[0], -1).all(axis=1)


def defect_identity_mask(x: np.ndarray, p: int) -> np.ndarray:
    """Second defect identity (R23 R12 - R12 R23 against acting obstructions),
    vectorized; true rows satisfy it (expected: all, for every R)."""
    n = x.shape[1]
    count = x.shape[0]
    mat = block_matrices(x)
    r12, r23 = _lift_blocks(mat, n)
    diff = ((r23 @ r12) - (r12 @ r23)) % p
    lhs = diff.reshape(count, n, n, n, n, n, n)
    obs = obstruction_block(x, p)
    act = action_block(x)
    rhs = np.einsum('nrsjkm,nmxw->nxrswkj', obs, act) % p
    return (lhs == rhs).reshape(count, -1).all(axis=1)


def annihilation_mask(x: np.ndarray, p: int) -> np.ndarray:
    """True where every obstruction acts as zero."""
    obs = obstruction_block(x, p)
    act = action_block(x)
    img = np.einsum('nijklm,nmxw->nijklxw', obs, act) % p
    return (img == 0).reshape(x.shape[0], -1).all(axis=1)


def random_block(n: int, p: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(count, n, n, n, n), dtype=np.int64)


class CensusReport:
    """Counts and solution list of one enumeration; merge-friendly."""

    def __init__(self, n, p, total, solutions, bijective, symmetric, qybe,
                 orbits=None):
        self.n = n
        self.p = p
        self.total = total
        self.solutions = solutions
        self.count = len(solutions)
        self.bijective = bijective
        self.symmetric = symmetric
        self.qybe = qybe
        self.orbits = orbits

    def serial(self, sol) -> str:
        return "".join(str(d) for d in sol)

    def to_kv(self):
        kv = [("field", "F %d" % self.p), ("n", str(self.n)),
              ("total", str(self.total)), ("solutions", str(self.count)),
              ("bijective", str(self.bijective)),
              ("symmetric", str(self.symmetric)), ("qybe", str(self.qybe))]
        if self.orbits is not None:
            kv.append(("orbits", str(len(self.orbits))))
        return kv

    def to_text(self, listed=None, filter_name="all"):
        lines = ["deq classify"]
        for key, value in self.to_kv():
            lines.append("%s: %s" % (key, value))
        lines.append("filter: %s" % filter_name)
        if self.orbits is not None:
            for rep, size in self.orbits:
                lines.append("orbit %s size %d" % (self.serial(rep), size))
        for sol in (self.solutions if listed is None else listed):
            lines.append("solution %s" % self.serial(sol))
        return "\n".join(lines) + "\n"


def enumerate_range(n: int, p: int, start: int, stop: int, chunk: int = 65536):
    """Solutions with serial number in [start, stop), ascending."""
    found = []
    lo = start
    while lo < stop:
        hi = min(lo + chunk, stop)
        x = candidate_block(n, p, lo, hi)
        mask = coordinate_mask(x, p)
        if mask.any():
            for row in digits_of(x[mask]):
                found.append(tuple(int(v) for v in row))
        lo = hi
    return found


def merge_ranges(parts):
    """Deterministic merge of per-range solution lists (already disjoint and
    ascending)."""
    out = []
    for part in parts:
        out.extend(part)
    return sorted(out)


def endo_from_digits(n: int, p: int, digits) -> EndoPair:
    field = PrimeField(p)
    rows = [[int(v) for v in digits[r * n * n:(r + 1) * n * n]]
            for r in range(n * n)]
    return EndoPair.from_matrix(Matrix(field, rows))


def digits_from_endo(R: EndoPair):
    return tuple(int(v) for row in R.matrix().rows for v in row)


def enumerate_solutions(n: int, p: int, limit: int = None, seed: int = 0,
                        workers: int = 1, chunk: int = 65536) -> CensusReport:
    """Full scan; refuses when the candidate count exceeds the budget."""
    if not is_prime(p):
        raise UsageError("p must be prime")
    if n < 1:
        raise UsageError("n must be positive")
    total = p ** (n ** 4)
    cap = limit if limit is not None else budget()
    if total > cap:
        raise UsageError(
            "candidate space has %d operators, over the budget of %d; "
            "raise the budget to opt in" % (total, cap))
    if workers < 1:
        raise UsageError("workers must be positive")
    bounds = [total * w // workers for w in range(workers + 1)]
    parts = [enumerate_range(n, p, bounds[w], bounds[w + 1], chunk=chunk)
             for w in range(workers)]
    solutions = merge_ranges(parts)
    if solutions:
        xs = np.array([list(sol) for sol in solutions], dtype=np.int64)
        xs = xs.reshape(len(solutions), n, n, n, n).transpose(0, 4, 3, 2, 1)
        sym = int(symmetric_mask(xs).sum())
        qyb = int(qybe_mask(xs, p).sum())
    else:
        sym = qyb = 0
    bij = 0
    for sol in solutions:
        R = endo_from_digits(n, p, sol)
        if matrix_inverse(R.matrix()) is not None:
            bij += 1
    # re-verify a 1% sample through the scalar dual-path oracle
    if solutions:
        rng = random.Random(seed)
        k = max(1, len(solutions) // 100)
        for idx in sorted(rng.sample(range(len(solutions)), min(k, len(solutions)))):
            if not check_d(endo_from_digits(n, p, solutions[idx])):
                raise RuntimeError("sample re-verification failed at %d" % idx)
    return CensusReport(n, p, total, solutions, bij, sym, qyb)


def operator_count(n: int, p: int, chunk: int = 65536) -> int:
    """Solution count by the operator-composition path alone."""
    total = p ** (n ** 4)
    count = 0
    lo = 0
    while lo < total:
        hi = min(lo + chunk, total)
        count += int(operator_mask(candidate_block(n, p, lo, hi), p).sum())
        lo = hi
    return count


def gl_matrices(n: int, p: int):
    """All invertible n x n matrices over F_p, ascending serialization."""
    field = PrimeField(p)
    total = p ** (n * n)
    out = []
    for code in range(total):
        digits = []
        rem = code
        for _ in range(n * n):
            digits.append(rem % p)
            rem //= p
        digits.reverse()
        rows = [digits[r * n:(r + 1) * n] for r in range(n)]
        m = Matrix(field, rows)
        if matrix_inverse(m) is not None:
            out.append(m)
    return out


def orbit_reduce(solutions, n: int, p: int):
    """Partition into GL_n(F_p)-conjugation orbits; canonical representative
    is the lexicographically least serialization; orbits sorted by it."""
    from .tensor_ops import conjugate
    pool = set(tuple(sol) for sol in solutions)
    units = gl_matrices(n, p)
    seen = set()
    orbits = []
    for sol in sorted(pool):
        if sol in seen:
            continue
        R = endo_from_digits(n, p, sol)
        orbit = set()
        for u in units:
            img = digits_from_endo(conjugate(R, u))
            if img not in pool:
                raise UsageError("conjugate of a solution missing from input")
            orbit.add(img)
        seen |= orbit
        orbits.append((min(orbit), len(orbit)))
    return orbits
