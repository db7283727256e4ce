"""Seeded inputs for the benchmark's three workloads, made before any timing.

    PYTHONPATH=src python3 perfbench/workloads.py --workload check --seed 1 \
        --dir WORK --rounds 12

writes the input files under WORK and WORK/manifest.json: a list of rounds,
each a list of ops with their argv and the outcome the oracle expects. Every
round of a workload has the same composition (field, n, verdict, subcommand),
so a run of whole rounds has the same mix whatever the seed. No op repeats an
operator value; inputs of a round share their fields and n.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle
from deq import catalog, fileio
from deq.fields import QQ, FunctionField, PrimeField
from deq.linalg import Matrix
from deq.tensor_ops import EndoPair

P = 13
VARS = ("a", "b", "c")
FIELD_NAMES = {"Q": "Q", "F": "F_p", "QV": "Q(vars)"}
CENSUS_FILTERS = (["--filter", "all"], ["--orbits"], ["--filter", "bijective"],
                  ["--filter", "symmetric"], ["--filter", "qybe"])
WINDOW = 65536
SPACE_23 = 3 ** 16

# s3_graded_solution from the catalog, an n = 3 solution over Z
S3_SOLUTION = [
    [-1, 0, 0, 1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1]]

# One round of each workload: (subcommand, field kind, n, family) slots.
# Each slot keeps its family in every round, so rounds cost alike. In
# `check` a slot's op is a solution when round + slot is even, so half of
# every round's ops are solutions and each slot alternates.
N2 = ("triangular", "rq", "projection", "diagonal", "poly")
N2_QV = ("rq", "projection", "diagonal")
N3 = ("s3", "poly")
# `check` repeats its block of cheaper slots three times per round around one
# n = 3 op over Q, the costliest, so that a run holds fewer of those than
# the 10 samples beyond op_tail_s even when the host runs fast.
CHECK_ROUND = [("check", kind, n, f) for _ in range(3)
               for kind, n, fams in (("Q", 2, N2), ("F", 2, N2), ("QV", 2, N2_QV),
                                     ("F", 3, N3 * 2))
               for f in fams] + [("check", "Q", 3, "s3")]
# `present` repeats its block of frt and dmap slots three times per round so
# that its one dimodule op, the costliest, stays a small share of the ops.
PRESENT_ROUND = [(cmd, kind, n, f) for _ in range(3) for cmd in ("frt", "dmap")
                 for kind, n, fams in (("Q", 2, N2), ("QV", 2, N2_QV),
                                       ("F", 2, ("triangular", "diagonal")), ("F", 3, N3))
                 for f in fams] + [("dimodule", "Q", 3, None)]
ROUNDS = {"check": CHECK_ROUND, "present": PRESENT_ROUND}
WORKLOADS = ("check", "present", "census")
MAX_ROUNDS = 40


def kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def ident(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# Families: (v, s) -> operator matrix; v holds the variables a, b, c for
# Q(vars) items (None otherwise), s the seeded integers. Q(vars) entries stay
# of low degree, so those ops cost less than the n = 3 ops.
def fam_triangular(v, s):
    a, b, c = (s[0], s[1], s[2]) if v is None else (v[0] + s[0], s[1], s[2])
    return kron([[a, 1], [0, a]], [[b, c], [0, b]])


def fam_rq(v, s):
    q = s[0] * (s[1] + 1) if v is None else s[1] * v[0] + s[0]
    return [[0, -q, 0, -q * q], [0, 1, 0, q], [0, 0, 0, 0], [0, 0, 0, 0]]


def fam_projection(v, s):
    a, b = (s[0], s[1]) if v is None else (v[0] + s[0], (v[1] + s[1]) / (v[0] + s[2]))
    return kron([[1, 0], [0, 0]], [[a, 0], [0, b]])


def fam_diagonal(v, s):
    vals = s if v is None else [v[0] + s[0], v[1], v[2] + s[1], v[0] * v[1] + s[2]]
    out = [[0] * 4 for _ in range(4)]
    for i in range(4):
        out[i][i] = vals[i]
    return out


def _poly_of(f, coeffs):
    n = len(f)
    g = [[coeffs[0] * e for e in row] for row in ident(n)]
    power = ident(n)
    for c in coeffs[1:]:
        power = oracle.matmul(power, f)
        g = [[x + c * y for x, y in zip(rg, rp)] for rg, rp in zip(g, power)]
    return g


def fam_poly2(v, s):
    f = [[s[0], s[1]], [s[2], s[3]]]
    return kron(f, _poly_of(f, [s[4], s[5]]))


def fam_poly3(v, s):
    f = [s[0:3], s[3:6], s[6:9]]
    return kron(f, _poly_of(f, s[9:12]))


def fam_s3(v, s):
    return [list(row) for row in S3_SOLUTION]


# (n, name) -> (family, seeded integer count, conjugate?)
FAMILIES = {
    (2, "triangular"): (fam_triangular, 3, True), (2, "rq"): (fam_rq, 2, True),
    (2, "projection"): (fam_projection, 3, True), (2, "diagonal"): (fam_diagonal, 4, True),
    (2, "poly"): (fam_poly2, 6, False),
    (3, "s3"): (fam_s3, 0, True), (3, "poly"): (fam_poly3, 12, False),
}


def unimodular(rng, n, span):
    """(u, u^-1), integer matrices with det +-1: a signed permutation times
    unit lower and upper triangular factors with entries in -span..span."""
    lower = [[1 if i == j else (rng.randint(-span, span) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-span, span) if i < j else 0) for j in range(n)]
             for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    signed = [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
              for i in range(n)]
    u = oracle.chain(signed, lower, upper)
    return u, [[int(x) for x in row] for row in oracle.inverse(u)]


class Generator:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.dir = workdir
        self.seen = set()
        self.repeats = 0
        self.count = 0
        self.s3_module = None
        self.fields = {"Q": QQ, "F": PrimeField(P), "QV": FunctionField(VARS)}
        self.gens = self.fields["QV"].gens
        self.points = [tuple(Fraction(self.rng.randint(1, 9), self.rng.randint(1, 5))
                             for _ in VARS) for _ in range(2)]

    def path(self, suffix):
        self.count += 1
        return os.path.join(self.dir, "%s-%04d%s" % (self.workload, self.count, suffix))

    def fresh(self, key):
        if key in self.seen:
            self.repeats += 1
            if self.repeats > 10000:
                raise RuntimeError("too few distinct inputs for this many rounds")
            return False
        self.seen.add(key)
        return True

    # operators -----------------------------------------------------------
    def operator(self, kind, n, name, perturb):
        """(R, base matrices, final matrices) of a fresh operator of the
        family; the plain matrices are given at each evaluation point (a
        single one for Q and F_p). The final matrix is the base one after
        conjugation and, for a non-solution, a perturbation."""
        fam, nints, conj = FAMILIES[n, name]
        # nonzero seeds keep every op of a slot equally dense
        choices = [k for k in range(-2, 3) if k] if fam in (fam_poly2, fam_poly3) else \
            list(range(1, {"Q": 5, "F": P, "QV": 10}[kind]))
        field = self.fields[kind]
        while True:
            s = [self.rng.choice(choices) for _ in range(nints)]
            u = None
            if conj:
                # a signed permutation keeps Q(vars) entries as small as the
                # base operator's, so every Q(vars) item costs about the same
                # (entries up to 3 make many distinct conjugates mod P)
                u = (self.signed_permutation(n) if kind == "QV"
                     else unimodular(self.rng, n, 3 if kind == "F" else 2))
                if kind == "QV":
                    u = (u, [list(col) for col in zip(*u)])
            where = (self.rng.randrange(n ** 4), self.rng.randint(1, 3)) if perturb else None

            def build(v):
                base = fam(v, s)
                out = base
                if u is not None:
                    out = oracle.chain(kron(u[0], u[0]), base, kron(u[1], u[1]))
                if where is not None:
                    out = [list(row) for row in out]
                    r, c = divmod(where[0], n * n)
                    out[r][c] = out[r][c] + where[1]
                return base, out

            if kind == "QV":
                sym = build(self.gens)[1]
                evals = [build(pt) for pt in self.points]
            else:
                evals = [build(None)]
                sym = evals[0][1]
            R = EndoPair.from_rows(field, [[field.coerce(e) for e in row] for row in sym])
            key = fileio.matrix_text(R)
            if self.fresh(key):
                return R, [e[0] for e in evals], [e[1] for e in evals]

    def verdicts(self, kind, n, mats):
        """Verdicts true at every evaluation point."""
        p = P if kind == "F" else None
        per_point = [oracle.verdicts(m, n, p) for m in mats]
        return {name: all(v[name] for v in per_point) for name in oracle.VERDICTS}

    def check_op(self, kind, n, name, yes):
        while True:
            R, base, final = self.operator(kind, n, name, perturb=not yes)
            # conjugation by u (x) u keeps every verdict: solutions take those
            # of their base operator, perturbed ones are evaluated as they are
            truth = self.verdicts(kind, n, base if yes else final)
            if truth["d"] == yes:
                break
            if yes:
                raise RuntimeError("family %s gave a non-solution" % name)
        path = self.path(".txt")
        fileio.write_matrix(path, R)
        out = self.path(".out")
        lines = ["deq check", "field: %s" % R.field.header(), "n: %d" % n]
        lines += ["%s: %s" % (v, "true" if truth[v] else "false") for v in oracle.VERDICTS]
        return {"argv": ["check", path, "--out", out], "out": out,
                "expect": {"rc": 0 if yes else 1, "text": "\n".join(lines) + "\n"},
                "tags": {"n": n, "field": FIELD_NAMES[kind], "verdict": "yes" if yes else "no",
                         "family": name}}

    def present_op(self, cmd, kind, n, name):
        R, base, _ = self.operator(kind, n, name, perturb=False)
        p = P if kind == "F" else None
        # the ideal dimension and bijectivity are conjugation invariants; a
        # rank at a random point is the generic rank
        dim_i = max(oracle.ideal_dim(m, n, p) for m in base)
        bijective = any(oracle.rank(m, p) == n * n for m in base)
        path = self.path(".txt")
        fileio.write_matrix(path, R)
        out = self.path(".out")
        head = ["deq %s" % cmd, "field: %s" % R.field.header(), "n: %d" % n]
        qdim = n * n - dim_i
        if cmd == "frt":
            expect = {"rc": 0, "lines": head + ["ideal dimension: %d" % dim_i,
                                                "quotient dimension: %d" % qdim,
                                                "round trip: true"],
                      "counts": {"relation: ": dim_i, "Delta(": qdim, "eps(": qdim}}
        else:
            expect = {"rc": 0, "lines": head + [
                "quotient dimension: %d" % qdim,
                "strong: %s" % ("true" if dim_i == 0 else "false"),
                "convolution inverse: %s" % ("found" if bijective else "not bijective")],
                "counts": {"relation: ": dim_i}}
        return {"argv": [cmd, path, "--out", out], "out": out, "expect": expect,
                "tags": {"n": n, "field": FIELD_NAMES[kind], "verdict": "yes",
                         "family": name}}

    # graded modules --------------------------------------------------------
    def dimodule_op(self, round_index):
        """An S3-graded module on even rounds, a Z/6-graded one on odd rounds."""
        while True:
            if round_index % 2 == 0:
                labels, table = catalog.s3_cayley()
                act, proj = self.s3_grading(labels)
                family = "s3-module"
            else:
                labels, act, proj = self.cyclic_grading(6, 3)
                table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
                family = "z6-module"
            if self.fresh(repr((labels, act, proj))):
                break
        group, module_path = self.path(".cayley"), self.path(".module")
        fileio.write_cayley(group, labels, table)
        fileio.write_graded_module(
            module_path, labels, QQ,
            {l: Matrix(QQ, act[i]) for i, l in enumerate(labels)},
            {l: Matrix(QQ, proj[i]) for i, l in enumerate(labels)})
        out = self.path(".out")
        return {"argv": ["dimodule", group, module_path, "--out", out], "out": out,
                "expect": {"rc": 0, "text": dimodule_text(labels, act, proj)},
                "tags": {"n": 3, "field": "Q", "verdict": "yes", "family": family}}

    def signed_permutation(self, d):
        order = list(range(d))
        self.rng.shuffle(order)
        return [[self.rng.choice((-1, 1)) if j == order[i] else 0 for j in range(d)]
                for i in range(d)]

    def s3_grading(self, labels):
        """The catalog's S3 module (the sum-zero plane plus a line) with the
        line trivial or the sign representation, seeded degrees for the two
        components, and its basis under a seeded signed permutation. Both
        components are stable, so every pair is compatible."""
        if self.s3_module is None:
            self.s3_module = catalog.s3_graded_module(QQ)
        module = self.s3_module
        odd = ("t12", "t13", "t23")
        sign = self.rng.random() < 0.5
        plane, line = self.rng.randrange(6), self.rng.randrange(6)
        q = self.signed_permutation(3)
        qt = [list(col) for col in zip(*q)]
        act, proj = [], []
        for g, (label, m) in enumerate(zip(labels, module.act)):
            rows = [[int(x) for x in r] for r in m.rows]
            if sign and label in odd:
                rows[2][2] = -rows[2][2]
            act.append(oracle.chain(q, rows, qt))
            diag = [int(g == plane), int(g == plane), int(g == line)]
            proj.append(oracle.chain(q, [[diag[i] * (i == j) for j in range(3)]
                                         for i in range(3)], qt))
        return act, proj

    def cyclic_grading(self, m, d):
        """g acts by a signed permutation S with S^m = 1; each cycle of S
        spans a stable component with a seeded degree."""
        while True:
            s = self.signed_permutation(d)
            powers = [ident(d)]
            for _ in range(m):
                powers.append(oracle.matmul(powers[-1], s))
            if powers[m] == ident(d):
                break
        order = [next(j for j in range(d) if s[i][j]) for i in range(d)]
        degree = {}
        for start in range(d):
            if start not in degree:
                deg, k = self.rng.randrange(m), start
                while k not in degree:
                    degree[k] = deg
                    k = order[k]
        proj = [[[int(i == j and degree[i] == g) for j in range(d)] for i in range(d)]
                for g in range(m)]
        return ["g%d" % g for g in range(m)], powers[:m], proj

    # census ------------------------------------------------------------------
    def census_round(self, frozen):
        ops = []
        for flags in CENSUS_FILTERS:
            out = self.path(".out")
            ops.append(classify_op(flags, self.rng.randrange(10 ** 6), out, frozen))
            lo = self.rng.randrange(SPACE_23 - WINDOW)
            ops.append({"window": [lo, lo + WINDOW],
                        "expect": {"solutions": [s for s in frozen["solutions_2_3"]
                                                 if lo <= s < lo + WINDOW]},
                        "tags": {"n": 2, "field": "F_p", "verdict": "yes",
                                 "family": "window"}})
        return ops

    def round(self, index, frozen):
        if self.workload == "census":
            return self.census_round(frozen)
        ops = []
        for slot, (cmd, kind, n, family) in enumerate(ROUNDS[self.workload]):
            if cmd == "check":
                ops.append(self.check_op(kind, n, family, (index + slot) % 2 == 0))
            elif cmd == "dimodule":
                ops.append(self.dimodule_op(index))
            else:
                ops.append(self.present_op(cmd, kind, n, family))
        # interleave the fields and sizes within a round
        self.rng.shuffle(ops)
        return ops


def classify_op(flags, seed, out, frozen):
    """`deq classify --n 2 --p 2` against the frozen (2, 2) census."""
    name = "orbits" if flags == ["--orbits"] else flags[1]
    listed = frozen["listed_2_2"]["all" if name == "orbits" else name]
    counts = frozen["counts_2_2"]
    lines = ["deq classify", "field: F 2", "n: 2", "total: 65536"]
    lines += ["%s: %d" % (k, counts[k]) for k in ("solutions", "bijective", "symmetric", "qybe")]
    expect = {"rc": 0, "lines": lines, "counts": {"solution ": listed["count"]},
              "digests": {"solution ": listed["sha256"]}}
    if name == "orbits":
        expect["lines"] = lines + ["orbits: %d" % counts["orbits"], "filter: all"]
        expect["counts"]["orbit "] = counts["orbits"]
        expect["digests"]["orbit "] = frozen["orbits_2_2_sha256"]
    else:
        expect["lines"] = lines + ["filter: %s" % name]
        expect["counts"]["orbit "] = 0
    return {"argv": ["classify", "--n", "2", "--p", "2"] + flags
            + ["--seed", str(seed), "--out", out],
            "out": out, "expect": expect,
            "tags": {"n": 2, "field": "F_p", "verdict": "yes", "family": name}}


def dimodule_text(labels, act, proj):
    """The whole `deq dimodule` report for a graded module over Q whose
    components are stable: every pair is compatible, and the regenerated
    operator solves the equation."""
    d = len(act[0])
    lines = ["deq dimodule", "field: Q", "group order: %d" % len(labels),
             "module dimension: %d" % d]
    for label, m in zip(labels, act):
        lines.append("action %s:" % label)
        lines += ["  " + " ".join(str(x) for x in row) for row in m]
    for l in range(d):
        terms = []
        for w in range(d):
            for a, label in enumerate(labels):
                v = proj[a][w][l]
                if v:
                    terms.append("%sm%d (x) %s" % ("" if v == 1 else "%s*" % v, w + 1, label))
        lines.append("rho(m%d) = %s" % (l + 1, " + ".join(terms) if terms else "0"))
    lines += ["compat %s m%d: true" % (label, l + 1) for label in labels for l in range(d)]
    lines += ["compatible: true", "regenerated operator n: %d" % d, "regenerated d: true"]
    return "\n".join(lines) + "\n"


def composition(rounds):
    """Share of ops by n, by field kind, by verdict and by family."""
    ops = [op for ops in rounds for op in ops]
    out = {}
    for key in ("n", "field", "verdict", "family"):
        shares = {}
        for op in ops:
            value = str(op["tags"][key])
            shares[value] = shares.get(value, 0) + 1
        out[key] = {k: round(v / len(ops), 3) for k, v in sorted(shares.items())}
    return out


def generate(workload, seed, workdir, rounds, frozen):
    """The manifest of min(rounds, MAX_ROUNDS) rounds; input files go to workdir."""
    rounds = min(rounds, MAX_ROUNDS)
    gen = Generator(workload, seed, workdir)
    plan = [gen.round(i, frozen) for i in range(rounds)]
    return {"workload": workload, "seed": seed, "rounds": plan,
            "composition": composition(plan)}


def load_frozen():
    with open(Path(__file__).resolve().parent / "frozen.json") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    manifest = generate(args.workload, args.seed, args.dir, args.rounds, load_frozen())
    with open(os.path.join(args.dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
