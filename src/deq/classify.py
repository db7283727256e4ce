"""Exhaustive classification of D-equation solutions at low dimension over
small prime fields, with conjugation-orbit reduction.

Candidates are serialized row-major over the n^2 x n^2 operator matrix and
scanned as base-p digit blocks, sieved through the coordinate equations of
tensor_ops.coordinate_equations. The independent operator-composition path
evaluates the leg maps and the equation table of tensor_ops on the same
candidate layout.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .fields import PrimeField, UsageError, env_positive_int, is_prime
from .linalg import Matrix, matrix_inverse
from .tensor_ops import (EQUATIONS, EndoPair, check_d, coordinate_equations,
                         flip_index, leg_map, tau123_index)

DEFAULT_BUDGET = 1_000_000
CHUNK = 65536  # candidates per vectorized block


def budget() -> int:
    return env_positive_int("DEQ_BUDGET", DEFAULT_BUDGET)


def candidate_block(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Candidates start..stop-1 as an (N, n, n, n, n) array x[t, u, v, j, i];
    digit order is big-endian row-major, so lexicographic order of serialized
    matrices equals integer order."""
    if stop > 2 ** 63:
        raise UsageError("candidate serials must be below 2^63")
    t = n ** 4
    ids = start + np.arange(stop - start, dtype=np.int64)
    digits = np.empty((len(ids), t), dtype=np.int64)
    for pos in range(t - 1, -1, -1):  # least significant digit first, no weights
        ids, digits[:, pos] = np.divmod(ids, p)
    return block_of(digits, n)


def block_of(solutions, n: int) -> np.ndarray:
    """The x block of serialized operators (sequences of n^4 digits)."""
    digits = np.asarray(solutions, dtype=np.int64)
    return digits.reshape(len(digits), n, n, n, n).transpose(0, 4, 3, 2, 1)


def block_matrices(x: np.ndarray) -> np.ndarray:
    """(N, n^2, n^2) operator matrices for an x block."""
    count, n = x.shape[0], x.shape[1]
    return x.transpose(0, 4, 3, 2, 1).reshape(count, n * n, n * n)


def digits_of(x: np.ndarray) -> np.ndarray:
    """Serialized row-major matrix entries of an x block, as (N, n^4)."""
    count, n = x.shape[0], x.shape[1]
    return block_matrices(x).reshape(count, n ** 4)


def _rows_equal(a: np.ndarray, b) -> np.ndarray:
    """Per candidate: whether all entries of a equal those of b."""
    return (a == b).reshape(a.shape[0], -1).all(axis=1)


@functools.lru_cache(maxsize=None)
def _equation_columns(n: int):
    """tensor_ops.coordinate_equations(n) as two (n^6, 2n) arrays of entry
    indices: the first and the second factors of the lhs terms, then rhs."""
    pairs = np.array([lhs + rhs for _, lhs, rhs in coordinate_equations(n)],
                     dtype=np.intp).reshape(-1, 2 * n, 2)
    pairs.flags.writeable = False  # cached: shared by every caller
    return pairs[:, :, 0], pairs[:, :, 1]


def coordinate_mask(x: np.ndarray, p: int) -> np.ndarray:
    """check_d by the coordinate equations, as a sieve: each equation, in
    first_violation's order, is evaluated mod p on the candidates that passed
    the ones before it. Entries lie in [0, p), so |lhs - rhs| < n p^2 is exact
    in int64."""
    count, n = x.shape[0], x.shape[1]
    entries = digits_of(x)
    alive = np.arange(count)
    for first, second in zip(*_equation_columns(n)):
        terms = entries[:, first] * entries[:, second]
        keep = (terms[:, :n].sum(axis=1) - terms[:, n:].sum(axis=1)) % p == 0
        if not keep.all():
            entries, alive = entries[keep], alive[keep]
            if not len(alive):
                break
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def _lift_block(mat: np.ndarray, slot: int) -> np.ndarray:
    """R^slot for a batch of n^2 x n^2 matrices, gathered by tensor_ops.leg_map."""
    count, n = mat.shape[0], round(mat.shape[1] ** 0.5)
    dst, src = np.array(leg_map(n, slot)).T
    out = np.zeros((count, n ** 6), dtype=np.int64)
    out[:, dst] = mat.reshape(count, -1)[:, src]
    return out.reshape(count, n ** 3, n ** 3)


def _words(mat: np.ndarray, p: int, *words):
    """The mod-p lifted product of each slot word, each lift gathered once."""
    lifts = {}
    out = []
    for word in words:
        prod = None
        for slot in word:
            if slot not in lifts:
                lifts[slot] = _lift_block(mat, slot)
            prod = lifts[slot] if prod is None else (prod @ lifts[slot]) % p
        out.append(prod)
    return out


def _equation_mask(mat: np.ndarray, p: int, name: str) -> np.ndarray:
    """Verdicts of tensor_ops.EQUATIONS[name] for a batch of operator matrices."""
    return _rows_equal(*_words(mat, p, *EQUATIONS[name]))


def operator_mask(x: np.ndarray, p: int) -> np.ndarray:
    """check_d by composing lifted operators, vectorized; the independent
    path cross-validating coordinate_mask."""
    return _equation_mask(block_matrices(x), p, "d")


def qybe_mask(x: np.ndarray, p: int) -> np.ndarray:
    return _equation_mask(block_matrices(x), p, "qybe")


def symmetric_mask(x: np.ndarray) -> np.ndarray:
    """R tau = tau R, i.e. x_uv^ji = x_vu^ij."""
    return _rows_equal(x, x.transpose(0, 2, 1, 4, 3))


def forms_masks(x: np.ndarray, p: int):
    """(d, form_t, form_u, form_w) verdict arrays for a block."""
    mat = block_matrices(x)
    flip = np.array(flip_index(x.shape[1]))
    t123 = np.array(tau123_index(x.shape[1]))
    tl, tr = _words(mat[:, :, flip], p, *EQUATIONS["form_t"])
    ul, ur = _words(mat[:, flip, :], p, *EQUATIONS["form_u"])
    return (coordinate_mask(x, p), _rows_equal(tl, tr[:, :, t123]),
            _rows_equal(ul[:, t123, :], ur), _equation_mask(mat[:, flip][:, :, flip], p, "d"))


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
    return _rows_equal(left, rhs % p)


def defect_identity_mask(x: np.ndarray, p: int) -> np.ndarray:
    """Second defect identity (R23 R12 - R12 R23 against acting obstructions),
    vectorized; true rows satisfy it (expected: all, for every R)."""
    count, n = x.shape[0], x.shape[1]
    r12r23, r23r12 = _words(block_matrices(x), p, *EQUATIONS["d"])
    lhs = ((r23r12 - r12r23) % p).reshape(count, n, n, n, n, n, n)
    obs = obstruction_block(x, p)
    act = action_block(x)
    return _rows_equal(lhs, np.einsum('nrsjkm,nmxw->nxrswkj', obs, act) % p)


def annihilation_mask(x: np.ndarray, p: int) -> np.ndarray:
    """True where every obstruction acts as zero."""
    obs = obstruction_block(x, p)
    act = action_block(x)
    return _rows_equal(np.einsum('nijklm,nmxw->nijklxw', obs, act) % p, 0)


def random_block(n: int, p: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(count, n, n, n, n), dtype=np.int64)


class CensusReport:
    """Counts, solution list and per-solution flags of one enumeration."""

    def __init__(self, n, p, total, solutions, flags, orbits=None):
        self.n = n
        self.p = p
        self.total = total
        self.solutions = solutions
        self.count = len(solutions)
        self.flags = flags  # bijective, symmetric, qybe: one bool per solution
        self.bijective = sum(flags["bijective"])
        self.symmetric = sum(flags["symmetric"])
        self.qybe = sum(flags["qybe"])
        self.orbits = orbits

    def listed(self, filter_name="all"):
        """The solutions a filter keeps: all of them, or those with its flag."""
        if filter_name == "all":
            return self.solutions
        return [sol for sol, keep in zip(self.solutions, self.flags[filter_name]) if keep]

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

    def to_text(self, filter_name="all"):
        lines = ["deq classify"]
        for key, value in self.to_kv():
            lines.append("%s: %s" % (key, value))
        lines.append("filter: %s" % filter_name)
        if self.orbits is not None:
            for rep, size in self.orbits:
                lines.append("orbit %s size %d" % (self.serial(rep), size))
        for sol in self.listed(filter_name):
            lines.append("solution %s" % self.serial(sol))
        return "\n".join(lines) + "\n"


def enumerate_range(n: int, p: int, start: int, stop: int):
    """Solutions with serial number in [start, stop), ascending."""
    found = []
    for lo in range(start, stop, CHUNK):
        x = candidate_block(n, p, lo, min(lo + CHUNK, stop))
        mask = coordinate_mask(x, p)
        if mask.any():
            for row in digits_of(x[mask]):
                found.append(tuple(int(v) for v in row))
    return found


def endo_from_digits(n: int, p: int, digits) -> EndoPair:
    field = PrimeField(p)
    rows = [[int(v) for v in digits[r * n * n:(r + 1) * n * n]]
            for r in range(n * n)]
    return EndoPair.from_matrix(Matrix(field, rows))


def digits_from_endo(R: EndoPair):
    return tuple(int(v) for row in R.matrix().rows for v in row)


def enumerate_solutions(n: int, p: int, limit: int = None, seed: int = 0) -> CensusReport:
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
    solutions = enumerate_range(n, p, 0, total)  # never empty: R = 0 solves
    xs = block_of(solutions, n)
    flags = {"bijective": [matrix_inverse(endo_from_digits(n, p, sol).matrix()) is not None
                           for sol in solutions],
             "symmetric": symmetric_mask(xs).tolist(),
             "qybe": qybe_mask(xs, p).tolist()}
    # re-verify a 1% sample through the scalar dual-path oracle
    rng = random.Random(seed)
    for idx in sorted(rng.sample(range(len(solutions)), max(1, len(solutions) // 100))):
        if not check_d(endo_from_digits(n, p, solutions[idx])):
            raise RuntimeError("sample re-verification failed at %d" % idx)
    return CensusReport(n, p, total, solutions, flags)


def operator_count(n: int, p: int) -> int:
    """Solution count by the operator-composition path alone."""
    total = p ** (n ** 4)
    return sum(int(operator_mask(candidate_block(n, p, lo, min(lo + CHUNK, total)), p).sum())
               for lo in range(0, total, CHUNK))


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
