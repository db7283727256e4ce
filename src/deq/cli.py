"""Command line interface: checks, presentations, D-maps, dimodules, census."""

import argparse
import functools
import os
import sys

from . import catalog, fileio
from .dimodule import GradedModule, dimodule_from_grading, group_bialgebra
from .dmap import sigma_from_r
from .fields import (DEFAULT_BUDGET, MathError, FunctionField, QQ, UsageError, positive_int,
                     read_int)
from .frt import d_bialgebra, relation_strings
from .linalg import rref
from .tensor_ops import (check_equivalent_forms, check_hopf, check_pentagon, check_qybe,
                         identity_pair)

DEFAULT_MAX_N = 4


def env_positive_int(name: str, default: int) -> int:
    """The positive integer in environment variable `name`, default when unset."""
    value = os.environ.get(name, "").strip()
    return positive_int(name, value) if value else default


def guard_n(n: int) -> None:
    """Refuse (UsageError) an n above DEQ_MAX_N; each command that reads an
    operator or a module calls it right after reading, before any work."""
    bound = env_positive_int("DEQ_MAX_N", DEFAULT_MAX_N)
    if n > bound:
        raise UsageError("n=%d exceeds the configured bound %d (set DEQ_MAX_N)" % (n, bound))


def _bool_text(value) -> str:
    return "true" if value else "false"


def _emit(args, lines, kv) -> None:
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        fileio.write_report(args.out, text, kv)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    R = fileio.read_matrix(args.matrix)
    guard_n(R.n)
    forms = check_equivalent_forms(R)
    verdicts = [
        ("d", forms.d),
        ("qybe", check_qybe(R)),
        ("hopf", check_hopf(R)),
        ("pentagon", check_pentagon(R)),
        ("form_t", forms.form_t),
        ("form_u", forms.form_u),
        ("form_w", forms.form_w),
    ]
    lines = ["deq check", "field: %s" % R.field.header(), "n: %d" % R.n]
    kv = [("field", R.field.header()), ("n", str(R.n))]
    for name, value in verdicts:
        lines.append("%s: %s" % (name, _bool_text(value)))
        kv.append((name, _bool_text(value)))
    _emit(args, lines, kv)
    return 0 if forms.d else 1


def cmd_frt(args) -> int:
    R = fileio.read_matrix(args.matrix)
    guard_n(R.n)
    pres = d_bialgebra(R)
    lines = ["deq frt", "field: %s" % R.field.header(), "n: %d" % R.n,
             "ideal dimension: %d" % pres.ideal.dim,
             "quotient dimension: %d" % pres.quotient.dim]
    for rel in pres.relations:
        lines.append("relation: %s" % rel)
    lines.append("generators: %s" % " ".join(pres.generators))
    lines.extend(pres.generator_lines())
    # FRT-type theorem: the canonical Long D(R)-dimodule gives back R
    lines.append("round trip: true")
    kv = [("field", R.field.header()), ("n", str(R.n)),
          ("ideal_dim", str(pres.ideal.dim)),
          ("quotient_dim", str(pres.quotient.dim)),
          ("relations", str(len(pres.relations))),
          ("round_trip", "true")]
    _emit(args, lines, kv)
    return 0


def cmd_dmap(args) -> int:
    R = fileio.read_matrix(args.matrix)
    guard_n(R.n)
    dm = sigma_from_r(R)
    k = R.field
    C, Q = dm.coalgebra, dm.sigma.right
    lines = ["deq dmap", "field: %s" % k.header(), "n: %d" % R.n,
             "quotient dimension: %d" % Q.dim,
             "strong: %s" % _bool_text(dm.is_strong)]
    for rel in relation_strings(dm.ideal):
        lines.append("relation: %s" % rel)
    entries = 0
    for a in range(C.dim):
        for b in range(Q.dim):
            v = dm.sigma.table[a][b]
            if not k.is_zero(v):
                lines.append("sigma(%s, %s) = %s" % (C.labels[a], Q.labels[b], k.show(v)))
                entries += 1
    # sigma_(R^-1) is the convolution inverse exactly when R is bijective,
    # that is when R's matrix has n^2 pivots
    _, pivots = rref(R.matrix().rows, k)
    inverse_status = "found" if len(pivots) == R.n ** 2 else "not bijective"
    lines.append("convolution inverse: %s" % inverse_status)
    kv = [("field", k.header()), ("n", str(R.n)),
          ("quotient_dim", str(Q.dim)),
          ("strong", _bool_text(dm.is_strong)),
          ("sigma_entries", str(entries)),
          ("convolution_inverse", inverse_status)]
    _emit(args, lines, kv)
    return 0


def cmd_dimodule(args) -> int:
    labels, table = fileio.read_cayley(args.group)
    field, action, projectors = fileio.read_graded_module(args.module, labels)
    guard_n(action[labels[0]].nrows)  # the regenerated operator's n
    H = group_bialgebra(field, labels, table)
    graded = GradedModule(H, [action[l] for l in labels],
                          [projectors[l] for l in labels])
    dim = dimodule_from_grading(graded)
    lines = ["deq dimodule", "field: %s" % field.header(),
             "group order: %d" % len(labels),
             "module dimension: %d" % graded.dim]
    for i, label in enumerate(labels):
        lines.append("action %s:" % label)
        for row in graded.act[i].rows:
            lines.append("  " + " ".join(field.show(v) for v in row))
    slices = dim.comodule.slices
    for l in range(dim.dim):
        terms = []
        for w in range(dim.dim):
            for a in range(len(labels)):
                v = slices[a].rows[w][l]
                if not field.is_zero(v):
                    coeff = "" if v == field.one else field.show(v) + "*"
                    terms.append("%sm%d (x) %s" % (coeff, w + 1, labels[a]))
        lines.append("rho(m%d) = %s" % (l + 1, " + ".join(terms) if terms else "0"))
    compatible = True
    for a in range(len(labels)):
        for l in range(dim.dim):
            ok = dim.pair_compatible(a, l)
            compatible = compatible and ok
            lines.append("compat %s m%d: %s" % (labels[a], l + 1, _bool_text(ok)))
    # a Long dimodule's R = sum_a A_a (x) P_a on M (x) M solves the D-equation
    lines.append("compatible: %s" % _bool_text(compatible))
    lines.append("regenerated operator n: %d" % graded.dim)
    lines.append("regenerated d: true")
    kv = [("field", field.header()), ("group_order", str(len(labels))),
          ("module_dim", str(graded.dim)),
          ("compatible", _bool_text(compatible)),
          ("regenerated_n", str(graded.dim)),
          ("regenerated_d", "true")]
    _emit(args, lines, kv)
    return 0 if compatible else 1


def cmd_classify(args) -> int:
    from . import classify  # numpy loads only for the census
    limit = (env_positive_int("DEQ_BUDGET", DEFAULT_BUDGET) if args.budget is None
             else positive_int("--budget", args.budget))
    report = classify.enumerate_solutions(args.n, args.p, limit=limit, seed=args.seed)
    if args.orbits:
        report.orbits = classify.orbit_reduce(report.solutions, args.n, args.p, limit)
    text = report.to_text(filter_name=args.filter)
    if args.out:
        fileio.write_report(args.out, text, report.to_kv())
    else:
        sys.stdout.write(text)
    return 0


def cmd_examples(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    fabc = FunctionField(["a", "b", "c"])
    a, b, c = fabc.gens
    fq = FunctionField(["q"])
    (q,) = fq.gens
    operators = [
        ("triangular-symbolic.txt", catalog.triangular_solution(fabc, a, b, c)),
        ("triangular-111.txt", catalog.triangular_solution(QQ, 1, 1, 1)),
        ("rq-symbolic.txt", catalog.rq(fq, q)),
        ("rq-q3.txt", catalog.rq(QQ, 3)),
        ("rq-q2.txt", catalog.rq(QQ, 2)),
        ("projection.txt", catalog.projection_solution(QQ)),
        ("yb-operator-symbolic.txt", catalog.yang_baxter_operator(fq, q)),
        ("yb-operator-q2.txt", catalog.yang_baxter_operator(QQ, 2)),
        ("s3-graded.txt", catalog.s3_graded_solution(QQ)),
        ("identity-n2.txt", identity_pair(QQ, 2)),
    ]
    written = []
    for name, R in operators:
        path = os.path.join(args.dir, name)
        fileio.write_matrix(path, R)
        written.append(path)
    labels, table = catalog.s3_cayley()
    path = os.path.join(args.dir, "s3-cayley.txt")
    fileio.write_cayley(path, labels, table)
    written.append(path)
    graded = catalog.s3_graded_module(QQ)
    path = os.path.join(args.dir, "s3-graded-module.txt")
    fileio.write_graded_module(
        path, labels, QQ,
        {label: graded.act[i] for i, label in enumerate(labels)},
        {label: graded.projectors[i] for i, label in enumerate(labels)})
    written.append(path)
    for path in written:
        print("wrote %s" % path)
    return 0


def integer(text: str) -> int:
    """An integer option, read by read_int; argparse reports its error (exit 2)."""
    return read_int(text, "integer", signed=True)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built at the first main() call of a process.
    It holds no command functions: main() looks cmd_<command> up when it
    dispatches, so a name rebound in this module later is the one called."""
    parser = argparse.ArgumentParser(
        prog="deq",
        description="Exact checks and constructions for operators R with "
                    "R12 R23 = R23 R12.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="equation verdicts for an operator file")
    p.add_argument("matrix", help="operator file")
    p.add_argument("--out", help="write the report here plus a .kv sidecar")

    p = sub.add_parser("frt", help="universal bialgebra presentation")
    p.add_argument("matrix", help="operator file (must satisfy the equation)")
    p.add_argument("--out", help="write the report here plus a .kv sidecar")

    p = sub.add_parser("dmap", help="the D-map induced by a solution")
    p.add_argument("matrix", help="operator file (must satisfy the equation)")
    p.add_argument("--out", help="write the report here plus a .kv sidecar")

    p = sub.add_parser("dimodule", help="compatibility report for a graded module")
    p.add_argument("group", help="Cayley table file")
    p.add_argument("module", help="graded module file")
    p.add_argument("--out", help="write the report here plus a .kv sidecar")

    p = sub.add_parser("classify", help="census of solutions over a prime field")
    p.add_argument("--n", type=integer, default=2, help="matrix size (default 2)")
    p.add_argument("--p", type=integer, default=2, help="field prime (default 2)")
    p.add_argument("--filter", choices=["all", "bijective", "symmetric", "qybe"],
                   default="all", help="which solutions to list")
    p.add_argument("--orbits", action="store_true",
                   help="also list conjugation orbit representatives")
    p.add_argument("--budget", default=None,
                   help="candidate and conjugate-image budget override (default %d "
                        "or DEQ_BUDGET)" % DEFAULT_BUDGET)
    p.add_argument("--seed", type=integer, default=0,
                   help="seed for the sample re-verification")
    p.add_argument("--out", help="write the report here plus a .kv sidecar")

    p = sub.add_parser("examples", help="write the bundled example files")
    p.add_argument("--dir", default="deq-examples", help="target directory")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()["cmd_" + args.command](args)
    except MathError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
