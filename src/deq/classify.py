"""Exhaustive classification of D-equation solutions at low dimension over
small prime fields, with conjugation-orbit reduction.

Candidates are serialized row-major over the n^2 x n^2 operator matrix, as
big-endian base-p digits. The scan (enumerate_range) is a prefix-pruned
sieve: it fixes the digits left to right and checks each coordinate
equation, entry (i, l) of L_jk R_pq = R_pq L_jk for the blocks of
tensor_ops.leg_blocks, as soon as its last digit is fixed, so almost every
candidate dies as a short prefix. The independent operator-composition path
evaluates the leg maps and the slot words of tensor_ops on whole candidate
blocks (candidate_block). Flags and orbits are computed mod p in numpy as
well; a sample of the solutions is re-verified by the exact check_d."""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .fields import DEFAULT_BUDGET, PrimeField, UsageError, is_prime
from .linalg import Matrix
from .tensor_ops import EQUATIONS, EndoPair, check_d, leg_blocks, leg_map

CHUNK = 65536  # rows per vectorized block: candidates, scan prefixes or conjugate images


def _digit_dtype(n: int, p: int):
    """int16 when it holds every coordinate-equation sum n(p-1)^2 of the
    sieve, else int64."""
    return np.int16 if n * (p - 1) ** 2 <= np.iinfo(np.int16).max else np.int64


def _run_length(p: int) -> int:
    """The largest k with p^k <= CHUNK, and 1 when p > CHUNK."""
    k = 1
    while p ** (k + 1) <= CHUNK:
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _digit_table(p: int, dtype):
    """Row s is the k big-endian base-p digits of s, for s < p^k and
    k = _run_length(p)."""
    k = _run_length(p)
    table = np.empty((p ** k, k), dtype=dtype)
    values = np.arange(p ** k)
    for pos in range(k - 1, -1, -1):
        values, table[:, pos] = np.divmod(values, p)
    table.flags.writeable = False  # cached: shared by every caller
    return table


def _guard_serials(stop: int):
    if stop > 2 ** 63:
        raise UsageError("candidate serials must be below 2^63")


def _digits(values: np.ndarray, width: int, p: int, dtype) -> np.ndarray:
    """Big-endian base-p digits of int64 values, as (N, width): one divmod
    and one _digit_table lookup per k digits. Each lookup gathers whole rows
    of the contiguous table and slices the columns afterwards: a gather from
    a column slice of the table would first copy all p^k rows of it."""
    table = _digit_table(p, dtype) if p <= CHUNK else None  # no table past CHUNK rows
    k = 1 if table is None else table.shape[1]
    out = np.empty((len(values), width), dtype=dtype)
    for hi in range(width, 0, -k):
        lo = max(hi - k, 0)
        values, low = np.divmod(values, p ** k)
        out[:, lo:hi] = (low[:, None] if table is None
                         else np.take(table, low, axis=0)[:, k - hi + lo:])
    return out


def _serial_digits(width: int, p: int, start: int, stop: int, dtype) -> np.ndarray:
    """Big-endian base-p digits of the serials start..stop-1, as (N, width)."""
    _guard_serials(stop)
    return _digits(start + np.arange(stop - start, dtype=np.int64), width, p, dtype)


def candidate_block(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Candidates start..stop-1 as an (N, n, n, n, n) array x[t, u, v, j, i];
    digit order is big-endian row-major, so lexicographic order of serialized
    matrices equals integer order. The digits are int16 whenever the sieve's
    sums fit in it."""
    return block_of(_serial_digits(n ** 4, p, start, stop, _digit_dtype(n, p)), n)


def block_of(solutions, n: int) -> np.ndarray:
    """The x block of serialized operators: an (N, n^4) digit array, kept in
    its dtype, or a sequence of n^4-digit sequences, stored as int64."""
    digits = np.asarray(solutions, dtype=getattr(solutions, "dtype", np.int64))
    return digits.reshape(len(digits), n, n, n, n).transpose(0, 4, 3, 2, 1)


def block_matrices(x: np.ndarray) -> np.ndarray:
    """(N, n^2, n^2) operator matrices for an x block."""
    count, n = x.shape[0], x.shape[1]
    return x.transpose(0, 4, 3, 2, 1).reshape(count, n * n, n * n)


def _rows_equal(a: np.ndarray, b) -> np.ndarray:
    """Per candidate: whether all entries of a equal those of b."""
    return (a == b).reshape(a.shape[0], -1).all(axis=1)


@functools.lru_cache(maxsize=None)
def _equation_columns(n: int):
    """The coordinate equations, in label order, as two (n^6, 2n) arrays of
    entry indices from tensor_ops.leg_blocks: the L_jk and the R_pq factors
    of the terms of entry (i, l) of L_jk R_pq, then of R_pq L_jk."""
    left, right = (np.array(blocks, dtype=np.intp).reshape((n,) * 4) for blocks in leg_blocks(n))
    i, j, k, l, p, q, t = np.indices((n,) * 7)  # t runs over the terms of a side
    first, second = (np.concatenate(sides, axis=-1).reshape(n ** 6, 2 * n) for sides in
                     ((left[j, k, i, t], left[j, k, t, l]), (right[p, q, t, l], right[p, q, i, t])))
    first.flags.writeable = second.flags.writeable = False  # cached: shared by every caller
    return first, second


def _holds(entries: np.ndarray, first: np.ndarray, second: np.ndarray, p: int) -> np.ndarray:
    """Per row of entries (serial digits, or a prefix of them, in
    _digit_dtype), whether coordinate equations hold mod p: first and
    second are (..., 2n) entry columns of the factors of the lhs terms, then
    the rhs. Entries lie in [0, p), so each side's sum is at most n (p-1)^2
    and is exact in that dtype."""
    terms = entries[:, first] * entries[:, second]
    n, dtype = first.shape[-1] // 2, entries.dtype
    return (terms[..., :n].sum(axis=-1, dtype=dtype)
            - terms[..., n:].sum(axis=-1, dtype=dtype)) % p == 0


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
    path cross-validating the scan."""
    return _equation_mask(block_matrices(x), p, "d")


def qybe_mask(x: np.ndarray, p: int) -> np.ndarray:
    return _equation_mask(block_matrices(x), p, "qybe")


def symmetric_mask(x: np.ndarray) -> np.ndarray:
    """R tau = tau R, i.e. x_uv^ji = x_vu^ij."""
    return _rows_equal(x, x.transpose(0, 2, 1, 4, 3))


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


@functools.lru_cache(maxsize=None)
def _stages(n: int, k: int):
    """The prefix sieve's plan: (lo, hi, first, second) per stage, which
    fixes serial digits lo..hi-1, at most k of them, and then checks the
    coordinate equations whose highest entry index is hi - 1, given by
    their (g, 2n) factor columns."""
    first, second = _equation_columns(n)
    last = np.maximum(first.max(axis=1), second.max(axis=1))
    stages, lo = [], 0
    for end in sorted(set(last.tolist())):  # the last is n^4 - 1
        while lo <= end:
            hi = min(end + 1, lo + k)
            columns = first[last == hi - 1], second[last == hi - 1]
            for cols in columns:
                cols.flags.writeable = False  # cached: shared by every caller
            stages.append((lo, hi) + columns)
            lo = hi
    return tuple(stages)


def enumerate_range(n: int, p: int, start: int, stop: int):
    """Solutions with serial number in [start, stop), ascending, by a
    prefix-pruned sieve. The big-endian serial digits are fixed left to
    right, stage by stage (_stages), and each coordinate equation is checked
    as soon as its last digit is fixed, so a prefix that fails one is never
    extended. Prefixes whose serial interval misses [start, stop) are never
    made: only the first and the last prefix can reach past a bound. The
    frontier is expanded depth-first, at most CHUNK (prefix, extension) rows
    at a time, so no stage holds more than CHUNK rows, and survivors come
    out in serial order."""
    _guard_serials(stop)
    width = n ** 4
    start, stop = max(start, 0), min(stop, p ** width)
    if start >= stop:
        return []
    stages, dtype = _stages(n, _run_length(p)), _digit_dtype(n, p)
    found = []

    def descend(prefixes, at_start, at_stop, depth):
        # at_start / at_stop: the first / last prefix is the one of start /
        # of stop - 1, whose extensions are clipped to the window
        lo, hi, first, second = stages[depth]
        size, shift = p ** (hi - lo), p ** (width - hi)
        begin = start // shift % size if at_start else 0
        end = ((len(prefixes) - 1) * size + (stop - 1) // shift % size + 1 if at_stop
               else len(prefixes) * size)
        for b0 in range(begin, end, CHUNK):
            b1 = min(b0 + CHUNK, end)
            ids = np.arange(b0, b1, dtype=np.int64)  # prefix ids // size, extension % size
            rows = np.concatenate([prefixes[ids // size],
                                   _digits(ids % size, hi - lo, p, dtype)], axis=1)
            keep = _holds(rows, first, second, p).all(axis=1)
            if not keep.any():
                continue
            if hi == width:
                found.extend(map(tuple, rows[keep].tolist()))
            else:  # rows 0 and -1 of the block may be the window's bounds
                descend(rows[keep], at_start and b0 == begin and keep[0],
                        at_stop and b1 == end and keep[-1], depth + 1)

    descend(np.empty((1, 0), dtype=dtype), True, True, 0)
    return found


def endo_from_digits(n: int, p: int, digits) -> EndoPair:
    field = PrimeField(p)
    rows = [[int(v) for v in digits[r * n * n:(r + 1) * n * n]]
            for r in range(n * n)]
    return EndoPair.from_matrix(Matrix(field, rows))


def inverse_mod_p(mats: np.ndarray, p: int):
    """(invertible, inverses) for a batch of m x m matrices over F_p: one
    Gauss-Jordan elimination of [A | I] mod p for the whole batch. The
    inverse of a singular matrix is left unspecified."""
    count, m = mats.shape[0], mats.shape[1]
    aug = np.zeros((count, m, 2 * m), dtype=np.int64)
    aug[:, :, :m] = mats % p
    aug[:, np.arange(m), m + np.arange(m)] = 1
    batch = np.arange(count)
    invertible = np.ones(count, dtype=bool)
    for c in range(m):
        nonzero = aug[:, c:, c] != 0
        invertible &= nonzero.any(axis=1)
        r = c + nonzero.argmax(axis=1)  # first pivot candidate; c when there is none
        pivot = aug[batch, r]
        aug[batch, r] = aug[:, c]
        # pivot^(p-2) is its inverse mod p; entries stay below p, products below p^2
        inv, base, e = np.ones(count, dtype=np.int64), pivot[:, c], p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base, e = base * base % p, e >> 1
        aug[:, c] = pivot * inv[:, None] % p
        factors = aug[:, :, c:c + 1].copy()
        factors[:, c] = 0
        aug = (aug - factors * aug[:, None, c]) % p
    return invertible, aug[:, :, m:]


def unit_group(n: int, p: int):
    """GL_n(F_p) in ascending serialization, with the inverses, as two
    (U, n, n) int64 arrays; found by inverse_mod_p, CHUNK matrices at a time.
    The digits are read from the candidates' digit table."""
    total = p ** (n * n)
    units, inverses = [], []
    for lo in range(0, total, CHUNK):
        mats = _serial_digits(n * n, p, lo, min(lo + CHUNK, total), _digit_dtype(n, p))
        invertible, inv = inverse_mod_p(mats.reshape(-1, n, n), p)
        units.append(mats[invertible].reshape(-1, n, n))
        inverses.append(inv[invertible])
    return np.concatenate(units, dtype=np.int64), np.concatenate(inverses)


def _candidate_total(n: int, p: int, limit: int) -> int:
    """p^(n^4), the number of candidates of a full scan; refused unless p is
    prime, n positive and the count within the budget, limit."""
    if not is_prime(p):
        raise UsageError("p must be prime")
    if n < 1:
        raise UsageError("n must be positive")
    # multiplied up only while it is within the limit
    total = 1
    for _ in range(n ** 4):
        total *= p
        if total > limit:
            raise UsageError(
                "candidate space has %d^(%d^4) operators, over the budget of %d; "
                "raise the budget to opt in" % (p, n, limit))
    return total


def enumerate_solutions(n: int, p: int, limit: int = DEFAULT_BUDGET,
                        seed: int = 0) -> CensusReport:
    """Full scan; refuses when the candidate count exceeds the budget."""
    total = _candidate_total(n, p, limit)
    solutions = enumerate_range(n, p, 0, total)  # never empty: R = 0 solves
    xs = block_of(solutions, n)
    mats = block_matrices(xs)
    bijective = np.concatenate([inverse_mod_p(mats[lo:lo + CHUNK], p)[0]
                                for lo in range(0, len(mats), CHUNK)])
    flags = {"bijective": bijective.tolist(),
             "symmetric": symmetric_mask(xs).tolist(),
             "qybe": qybe_mask(xs, p).tolist()}
    # re-verify a 1% sample by the exact coordinate walk of check_d
    rng = random.Random(seed)
    for idx in sorted(rng.sample(range(len(solutions)), max(1, len(solutions) // 100))):
        if not check_d(endo_from_digits(n, p, solutions[idx])):
            raise RuntimeError("sample re-verification failed at %d" % idx)
    return CensusReport(n, p, total, solutions, flags)


def operator_count(n: int, p: int, limit: int = DEFAULT_BUDGET) -> int:
    """Solution count by the operator-composition path alone, within the
    same budget as enumerate_solutions."""
    total = _candidate_total(n, p, limit)
    return sum(int(operator_mask(candidate_block(n, p, lo, min(lo + CHUNK, total)), p).sum())
               for lo in range(0, total, CHUNK))


def _serial_keys(digits: np.ndarray, p: int) -> np.ndarray:
    """Keys of (N, t) digit rows that sort as their serials do: the base-p
    values of consecutive runs of at most k digits, p^k <= 2^63, one int64
    field each."""
    k = 1
    while p ** (k + 1) <= 2 ** 63:
        k += 1
    starts = range(0, digits.shape[1], k)
    keys = np.empty(len(digits), dtype=[("l%d" % i, np.int64) for i in range(len(starts))])
    for i, lo in enumerate(starts):
        run = digits[:, lo:lo + k]
        keys["l%d" % i] = run @ p ** np.arange(run.shape[1] - 1, -1, -1, dtype=np.int64)
    return keys


def orbit_reduce(solutions, n: int, p: int, limit: int = DEFAULT_BUDGET):
    """Partition into GL_n(F_p)-conjugation orbits; canonical representative
    is the lexicographically least serialization; orbits sorted by it. Every
    solution is conjugated by every unit mod p, at most CHUNK images at a
    time; each solution's orbit is named by its least image in the pool.
    Refused before any unit is formed when the |pool| |GL_n(F_p)| images
    exceed the budget, limit."""
    pool = sorted(set(tuple(int(v) for v in sol) for sol in solutions))
    if not pool:
        return []
    images = len(pool) * math.prod(p ** n - p ** i for i in range(n))  # |GL_n(F_p)|
    if images > limit:
        raise UsageError("orbit reduction forms %d conjugate images, over the budget "
                         "of %d; raise the budget to opt in" % (images, limit))
    digits = np.array(pool, dtype=np.int64)
    keys = _serial_keys(digits, p)
    mats = digits.reshape(len(pool), 1, n * n, n * n)
    # u (x) u and its inverse u^-1 (x) u^-1, as (U, n^2, n^2)
    left, right = (np.einsum("uij,ukl->uikjl", u, u).reshape(-1, n * n, n * n)
                   for u in unit_group(n, p))
    least = np.arange(len(pool))  # the identity is a unit
    ustep = min(len(left), CHUNK)
    step = max(1, CHUNK // ustep)
    for lo in range(0, len(pool), step):
        block = mats[lo:lo + step]
        for ulo in range(0, len(left), ustep):
            images = (left[ulo:ulo + ustep] @ block % p) @ right[ulo:ulo + ustep] % p
            found = _serial_keys(images.reshape(-1, n ** 4), p)
            idx = np.minimum(np.searchsorted(keys, found), len(pool) - 1)
            if (keys[idx] != found).any():
                raise UsageError("conjugate of a solution missing from input")
            least[lo:lo + step] = np.minimum(least[lo:lo + step],
                                             idx.reshape(len(block), -1).min(axis=1))
    reps, sizes = np.unique(least, return_counts=True)
    return [(pool[r], int(size)) for r, size in zip(reps.tolist(), sizes.tolist())]
