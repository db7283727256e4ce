"""The benchmark's own truth: exact arithmetic that never imports deq.

Operators are n^2 x n^2 lists of entries (int, Fraction) in the kron
convention of deq's file format: row i*n+j, column v*n+u holds x_uv^ji.
Over F_p the entries are plain integers and every comparison is made mod p.
Over Q(vars) callers evaluate at rational points; an identity that fails at
a point fails symbolically, and one that holds at two seeded points is
taken to hold (Schwartz-Zippel).
"""

import hashlib
from fractions import Fraction

VERDICTS = ("d", "qybe", "hopf", "pentagon", "form_t", "form_u", "form_w")


def matmul(A, B):
    """Dense product that skips zero entries of A."""
    cols = len(B[0])
    out = []
    for row in A:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                brow = B[k]
                for j in range(cols):
                    b = brow[j]
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def chain(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = matmul(out, m)
    return out


def same(A, B, p=None):
    for ra, rb in zip(A, B):
        for a, b in zip(ra, rb):
            diff = a - b
            if (diff % p if p else diff) != 0:
                return False
    return True


def perm(size, image):
    """Permutation matrix sending e_k to e_image(k)."""
    rows = [[0] * size for _ in range(size)]
    for k in range(size):
        rows[image(k)][k] = 1
    return rows


def legs(M, n):
    """(R12, R13, R23) on M (x) M (x) M, written entrywise."""
    size = n ** 3
    r12 = [[0] * size for _ in range(size)]
    r13 = [[0] * size for _ in range(size)]
    r23 = [[0] * size for _ in range(size)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = (a * n + b) * n + c
                for a2 in range(n):
                    for b2 in range(n):
                        for c2 in range(n):
                            col = (a2 * n + b2) * n + c2
                            if c == c2:
                                r12[row][col] = M[a * n + b][a2 * n + b2]
                            if b == b2:
                                r13[row][col] = M[a * n + c][a2 * n + c2]
                            if a == a2:
                                r23[row][col] = M[b * n + c][b2 * n + c2]
    return r12, r13, r23


def verdicts(M, n, p=None):
    """The seven report verdicts of `deq check`, from their definitions."""
    r12, r13, r23 = legs(M, n)
    tau = perm(n * n, lambda k: (k % n) * n + k // n)
    t123 = perm(n ** 3, lambda k: ((k % n) * n + k // (n * n)) * n + (k // n) % n)
    t12, t13, t23 = legs(matmul(M, tau), n)
    u12, u13, u23 = legs(matmul(tau, M), n)
    w12, _, w23 = legs(chain(tau, M, tau), n)
    return {
        "d": same(matmul(r12, r23), matmul(r23, r12), p),
        "qybe": same(chain(r12, r13, r23), chain(r23, r13, r12), p),
        "hopf": same(matmul(r12, r23), chain(r23, r13, r12), p),
        "pentagon": same(chain(r12, r13, r23), matmul(r23, r12), p),
        "form_t": same(matmul(t12, t13), chain(t23, t13, t123), p),
        "form_u": same(matmul(u13, u23), chain(t123, u13, u12), p),
        "form_w": same(matmul(w12, w23), matmul(w23, w12), p),
    }


def rank(rows, p=None):
    """Rank by Gaussian elimination over Q (p=None) or F_p."""
    work = [[(v % p) if p else Fraction(v) for v in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p) if p else 1 / work[r][c]
        work[r] = [(v * inv) % p if p else v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [((a - f * b) % p) if p else a - f * b
                           for a, b in zip(work[i], work[r])]
        r += 1
    return r


def ideal_dim(M, n, p=None):
    """dim I(R): the span of o(i,j,k,l) = sum_v x_kv^ji c_vl - sum_a x_kl^ja c_ia
    in the comatrix coalgebra, with c_ab at index a*n+b."""
    def x(u, v, j, i):
        return M[i * n + j][v * n + u]
    vectors = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    vec = [0] * (n * n)
                    for v in range(n):
                        vec[v * n + l] += x(k, v, j, i)
                    for a in range(n):
                        vec[i * n + a] -= x(k, l, j, a)
                    vectors.append(vec)
    return rank(vectors, p)


def inverse(u):
    """Exact inverse of a square matrix over Q (None when singular)."""
    n = len(u)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(u)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def lines_digest(lines):
    """sha256 of the sorted lines, one per line with a trailing newline."""
    return hashlib.sha256(("\n".join(sorted(lines)) + "\n").encode()).hexdigest()


def check_report(expect, rc, text):
    """Problems with one op's exit code and report; empty when it is right.

    expect keys: rc; text (the whole report); lines (lines that must appear
    in this order); counts {prefix: number of lines}; digests {prefix:
    lines_digest of the payloads of the lines with that prefix}.
    """
    problems = []
    if rc != expect["rc"]:
        problems.append("exit code %r, expected %r" % (rc, expect["rc"]))
    if text is None:
        return problems + ["no report"]
    if "text" in expect and text != expect["text"]:
        problems.append("report differs from the expected text")
    got = text.splitlines()
    pos = 0
    for line in expect.get("lines", ()):
        try:
            pos = got.index(line, pos) + 1
        except ValueError:
            problems.append("missing line %r" % line)
    for prefix, count in expect.get("counts", {}).items():
        have = sum(1 for line in got if line.startswith(prefix))
        if have != count:
            problems.append("%d lines start with %r, expected %d" % (have, prefix, count))
    for prefix, digest in expect.get("digests", {}).items():
        payloads = [line[len(prefix):] for line in got if line.startswith(prefix)]
        if lines_digest(payloads) != digest:
            problems.append("lines starting with %r differ from the frozen set" % prefix)
    return problems
