import hashlib
import os
import random
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from deq import catalog, fileio
from deq.cli import main
from deq.fields import QQ
from deq.linalg import Matrix
from deq.tensor_ops import EndoPair, diagonal_solution, identity_pair


def write_operator(tmp_path, name, R):
    path = str(tmp_path / name)
    fileio.write_matrix(path, R)
    return path


def test_check_solution(tmp_path, capsys):
    path = write_operator(tmp_path, "r.txt", catalog.triangular_solution(QQ, 1, 2, 3))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("deq check\nfield: Q\nn: 2\n")
    for line in ("d: true", "qybe: true", "hopf: false", "pentagon: false",
                 "form_t: true", "form_u: true", "form_w: true"):
        assert line + "\n" in out


def test_check_non_solution_exits_1(tmp_path, capsys):
    path = write_operator(tmp_path, "r.txt", catalog.yang_baxter_operator(QQ, 2))
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "d: false" in out and "qybe: true" in out


def test_check_out_writes_report_and_sidecar(tmp_path, capsys):
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    report = str(tmp_path / "report.txt")
    assert main(["check", path, "--out", report]) == 0
    assert capsys.readouterr().out == ""
    text = open(report).read()
    assert "d: true" in text and "hopf: true" in text
    kv = dict(line.split("=", 1) for line in open(report + ".kv").read().splitlines())
    assert kv["d"] == "true" and kv["field"] == "Q" and kv["n"] == "2"


VERDICT_NAMES = ("d", "qybe", "hopf", "pentagon", "form_t", "form_u", "form_w")
# deq check on every operator file `deq examples` writes: field, n, the seven
# verdicts in VERDICT_NAMES order (1 = true), and the exit code
CHECK_GOLDEN = {
    "identity-n2.txt": ("Q", 2, "1111111", 0),
    "projection.txt": ("Q", 2, "1100111", 0),
    "rq-q2.txt": ("Q", 2, "1111111", 0),
    "rq-q3.txt": ("Q", 2, "1111111", 0),
    "rq-symbolic.txt": ("QFUN q", 2, "1111111", 0),
    "s3-graded.txt": ("Q", 3, "1000111", 0),
    "triangular-111.txt": ("Q", 2, "1100111", 0),
    "triangular-symbolic.txt": ("QFUN a,b,c", 2, "1100111", 0),
    "yb-operator-q2.txt": ("Q", 2, "0100000", 1),
    "yb-operator-symbolic.txt": ("QFUN q", 2, "0100000", 1),
}


def test_check_golden_on_bundled_examples(tmp_path, capsys):
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    written = {os.path.basename(line.split(" ", 1)[1])
               for line in capsys.readouterr().out.splitlines()}
    assert set(CHECK_GOLDEN) == written - {"s3-cayley.txt", "s3-graded-module.txt"}
    for name, (field, n, bits, code) in CHECK_GOLDEN.items():
        assert main(["check", os.path.join(exdir, name)]) == code, name
        want = "deq check\nfield: %s\nn: %d\n" % (field, n) + "".join(
            "%s: %s\n" % (v, "true" if b == "1" else "false")
            for v, b in zip(VERDICT_NAMES, bits))
        assert capsys.readouterr().out == want, name


# sha256 of the stdout of deq frt and deq dmap on every operator file that
# `deq examples` writes, and the exit code
PRESENT_GOLDEN = {
    ('frt', 'triangular-symbolic.txt'):
        ('491f9f5fae97f2ae6f1c036b0ce93339e90e464b68d33efe166d0c0ebd9c5648', 0),
    ('frt', 'triangular-111.txt'):
        ('c028974b303ad2a4f6b3613aa095884658bdd17765b46bce5f516e0bac9098e8', 0),
    ('frt', 'rq-symbolic.txt'):
        ('99540da08d73068f448ba6cb46db62c8e8eeac05bf4c22f5d76944a53714dc69', 0),
    ('frt', 'rq-q3.txt'):
        ('4f17472e27f3aeb3d6680e4a731bfa22a16ebd1e100b4b2c2614231bef5f1866', 0),
    ('frt', 'rq-q2.txt'):
        ('98cef7b12cddef284f397da62424331e63debe8f7e1858e18d1120c099a07535', 0),
    ('frt', 'projection.txt'):
        ('db695b88c33077c59bcc9fb588593a0350e40d129c4e8e9ea1a7b9087cf04ff8', 0),
    ('frt', 'yb-operator-symbolic.txt'):
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 1),
    ('frt', 'yb-operator-q2.txt'):
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 1),
    ('frt', 's3-graded.txt'):
        ('0c30944fbc1ff961dc75b6fd4fe1a49a3df133d1b3b3d06acd754157ba8ea060', 0),
    ('frt', 'identity-n2.txt'):
        ('718bfb9d0b037cc9e7ad146f39a880f8beabbdb5d9bfef82498201e66f56aa5f', 0),
    ('dmap', 'triangular-symbolic.txt'):
        ('f3e6b4a44f218479d1b4e871ae00f406a69d048b8e98a854134a5321a5a3c809', 0),
    ('dmap', 'triangular-111.txt'):
        ('61dc132e75d4cc4a005bf6e052d7f94b9f773bcc6727b61b05d1992884fe7bf2', 0),
    ('dmap', 'rq-symbolic.txt'):
        ('29266f28dc4d25973e80e1154aebe2846c6a13e1cdba3b7b051277e3f99d60e0', 0),
    ('dmap', 'rq-q3.txt'):
        ('68edcc0992a02ad9e821e090e94fc7a5368de8eadfc48dd3a22a0fee4e24a0c4', 0),
    ('dmap', 'rq-q2.txt'):
        ('fbd0ea757c26f1dc24413501197ae8df7d0a9503c76d88f42e92be42fea94a84', 0),
    ('dmap', 'projection.txt'):
        ('1d30dad51763db5d9e97c4bf7f890dcd8bf94307a5b320736aae8d578d6b4f09', 0),
    ('dmap', 'yb-operator-symbolic.txt'):
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 1),
    ('dmap', 'yb-operator-q2.txt'):
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 1),
    ('dmap', 's3-graded.txt'):
        ('9a7d6a83b0635e6bf442d8cd0bbdf684f20b9b1dc15fd0f5d2ef5579333fbc90', 0),
    ('dmap', 'identity-n2.txt'):
        ('ed622039fa95cc7a85d94e8e72790f121ca9fc26af59b8631cdb8a2fc54a4a3d', 0),
}


def write_examples(tmp_path, capsys):
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    return exdir


def assert_present_golden(exdir, capsys, command):
    for (cmd, name), (digest, code) in PRESENT_GOLDEN.items():
        if cmd == command:
            assert main([command, os.path.join(exdir, name)]) == code, (command, name)
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, name)


def test_frt_and_dmap_golden_on_bundled_examples(tmp_path, capsys):
    exdir = write_examples(tmp_path, capsys)
    assert {name for _, name in PRESENT_GOLDEN} == set(CHECK_GOLDEN)
    for command in ("frt", "dmap"):
        assert_present_golden(exdir, capsys, command)


def refuse_everywhere(monkeypatch, name):
    """Rebind `name` to raise in every deq module that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError("%s called" % name)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "deq" and hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)
    return refuse


def test_frt_prints_the_round_trip_from_the_theorem(tmp_path, capsys, monkeypatch):
    """deq frt prints `round trip: true` as the verdict of the FRT-type
    theorem: it builds no canonical dimodule and regenerates no R, and its
    reports and exit codes stay the golden ones.
    tests/test_theorems.py checks the round trip itself."""
    from deq.frt import FrtPresentation
    exdir = write_examples(tmp_path, capsys)  # the s3 example regenerates its R
    refuse = refuse_everywhere(monkeypatch, "r_from_dimodule")
    monkeypatch.setattr(FrtPresentation, "canonical_dimodule", refuse)
    assert_present_golden(exdir, capsys, "frt")


def test_dmap_reads_bijectivity_without_forming_the_inverse_form(tmp_path, capsys,
                                                                 monkeypatch):
    """deq dmap prints its convolution inverse line from the number of
    pivots of R's matrix: it forms no sigma_(R^-1), and its reports and exit
    codes stay the golden ones."""
    exdir = write_examples(tmp_path, capsys)
    refuse_everywhere(monkeypatch, "convolution_inverse_of_sigma")
    assert_present_golden(exdir, capsys, "dmap")


def count_calls(monkeypatch, originals):
    """Counts of calls to each named function, patched in every deq module
    that binds it."""
    counts = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        wrapper = counting(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "deq" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_dmap_builds_the_presentation_once(tmp_path, capsys, monkeypatch):
    """One deq dmap run builds comatrix(n), the obstruction coideal and the
    quotient once each; on a solution the coordinate equations never run."""
    from deq import coalg, frt, tensor_ops
    counts = count_calls(monkeypatch, {"first_violation": tensor_ops.first_violation,
                                       "comatrix": coalg.comatrix,
                                       "obstruction_coideal": frt.obstruction_coideal,
                                       "QuotientCoalgebra": frt.QuotientCoalgebra})
    path = write_operator(tmp_path, "diag.txt", diagonal_solution(QQ, [[1, 2], [3, 4]]))
    assert main(["dmap", path]) == 0
    assert "convolution inverse: found" in capsys.readouterr().out
    assert counts == {"first_violation": 0, "comatrix": 1, "obstruction_coideal": 1,
                      "QuotientCoalgebra": 1}


def test_frt_builds_comatrix_once(tmp_path, capsys, monkeypatch):
    """One deq frt run builds comatrix(n) once, for the obstruction
    coideal: the canonical dimodule reads its comodule off the quotient map
    and builds no second comatrix(n)."""
    from deq import coalg
    counts = count_calls(monkeypatch, {"comatrix": coalg.comatrix})
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    for (command, name), (_, code) in PRESENT_GOLDEN.items():
        if command == "frt":
            counts["comatrix"] = 0
            assert main(["frt", os.path.join(exdir, name)]) == code, name
            assert counts == {"comatrix": 1}, name
    capsys.readouterr()


def test_frt_and_dmap_rerun_no_theorem_on_a_solution(tmp_path, capsys, monkeypatch):
    """On a solution, deq frt and deq dmap run no coordinate equation, no
    balance condition and no convolution; the tests check those theorems
    instead (the coideal check lives in tests/oracles.py alone). Neither
    inverts R: deq dmap reads its convolution inverse line off R's rank."""
    from deq import coalg, dmap, linalg, tensor_ops
    counts = count_calls(monkeypatch, {"first_violation": tensor_ops.first_violation,
                                       "is_dmap": dmap.is_dmap,
                                       "convolve": coalg.convolve,
                                       "matrix_inverse": linalg.matrix_inverse})
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    for command in ("frt", "dmap"):
        for name in ("s3-graded.txt", "rq-symbolic.txt", "triangular-symbolic.txt",
                     "projection.txt", "identity-n2.txt"):
            counts.update(dict.fromkeys(counts, 0))
            assert main([command, os.path.join(exdir, name)]) == 0, (command, name)
            assert counts == dict.fromkeys(counts, 0), (command, name)
    capsys.readouterr()


def test_frt_and_dmap_render_the_relations_once(tmp_path, capsys, monkeypatch):
    """One deq frt or deq dmap run renders the relation lines of I(R) once:
    the presentation renders them only when they are read."""
    from deq import frt
    counts = count_calls(monkeypatch, {"relation_strings": frt.relation_strings})
    exdir = write_examples(tmp_path, capsys)
    for (command, name), (_, code) in PRESENT_GOLDEN.items():
        if code == 0:
            counts["relation_strings"] = 0
            assert main([command, os.path.join(exdir, name)]) == 0, (command, name)
            assert counts == {"relation_strings": 1}, (command, name)
    capsys.readouterr()


def test_dmap_forms_no_comultiplication_and_frt_forms_it_once(tmp_path, capsys,
                                                              monkeypatch):
    """D(R)'s comultiplication is formed when it is first read, from one
    comatrix(n) table per generator: deq frt, which prints it, reads r
    tables for r generators, and deq dmap, which prints none of it, reads
    no table at all."""
    from deq.coalg import Coalgebra
    reads = []
    delta_matrix = Coalgebra.delta_matrix
    monkeypatch.setattr(Coalgebra, "delta_matrix",
                        lambda self, a: reads.append(a) or delta_matrix(self, a))
    exdir = write_examples(tmp_path, capsys)
    for (command, name), (_, code) in PRESENT_GOLDEN.items():
        if code == 0:
            reads.clear()
            assert main([command, os.path.join(exdir, name)]) == 0, (command, name)
            out = capsys.readouterr().out
            r = int(out.split("\nquotient dimension: ")[1].split("\n")[0])
            assert len(reads) == (r if command == "frt" else 0), (command, name)


def perturbed_runs(tmp_path, capsys, command, path):
    """(exit codes, sha256 of every run's exit code, stdout and stderr) of
    the command on each one-entry perturbation of the operator in path, the
    entry raised by 1, in row-major order."""
    R = fileio.read_matrix(path)
    k, rows = R.field, R.matrix().rows
    codes, digest = "", hashlib.sha256()
    for r in range(len(rows)):
        for c in range(len(rows)):
            bumped = [list(row) for row in rows]
            bumped[r][c] = k.add(bumped[r][c], k.one)
            target = str(tmp_path / "bumped.txt")
            fileio.write_matrix(target, EndoPair.from_matrix(Matrix(k, bumped)))
            code = main([command, target])
            captured = capsys.readouterr()
            codes += str(code)
            digest.update(("%d\n%s\0%s\0" % (code, captured.out, captured.err)).encode())
    return codes, digest.hexdigest()


# deq frt and deq dmap on the bundled non-solutions: exit code and sha256 of stderr
NON_SOLUTION_STDERR = {
    ('frt', 'yb-operator-q2.txt'):
        (1, 'f58f05431956f02e4b58996a1626b142a4dec9e4bef7e651a133255104d8c1b3'),
    ('frt', 'yb-operator-symbolic.txt'):
        (1, 'f58f05431956f02e4b58996a1626b142a4dec9e4bef7e651a133255104d8c1b3'),
    ('dmap', 'yb-operator-q2.txt'):
        (1, 'f58f05431956f02e4b58996a1626b142a4dec9e4bef7e651a133255104d8c1b3'),
    ('dmap', 'yb-operator-symbolic.txt'):
        (1, 'f58f05431956f02e4b58996a1626b142a4dec9e4bef7e651a133255104d8c1b3'),
}
# the same two commands on every one-entry perturbation of a bundled
# operator: perturbed_runs' exit codes and digest
PERTURBED_GOLDEN = {
    ('frt', 'triangular-111.txt'):
        ('1110111111111111',
         '4cd43192ea310ed91a508f0bfae73fa3d4fb0ff0ca559dd0fb6a1ab3e5582de4'),
    ('frt', 'rq-symbolic.txt'):
        ('1111111111111111',
         'a90db9b7d3d49f7c08ac850513e4ef2c096f49de40876fa68bf998c5fd5b5d85'),
    ('frt', 'identity-n2.txt'):
        ('0110101111010110',
         '5f8fca7f1f5d9fd30bd1b995dd582b49b1d179030ae9a4423ed1c8d1a5a50918'),
    ('frt', 's3-graded.txt'):
        ('111111111111111111110110111111111111111111111110110111111111111111111111111111110',
         '7c66d8efa256ad2d4cd6f641624496e5447560795550b567f38113dc8c7d5c79'),
    ('dmap', 'triangular-111.txt'):
        ('1110111111111111',
         'f45a0102ecfe0a9dfa53d5b000674cc53d677ccc5aa2bb7711726a666a47df59'),
    ('dmap', 'rq-symbolic.txt'):
        ('1111111111111111',
         'a90db9b7d3d49f7c08ac850513e4ef2c096f49de40876fa68bf998c5fd5b5d85'),
    ('dmap', 'identity-n2.txt'):
        ('0110101111010110',
         'e35b9add9ed9555388fcbf10fb6bd24f245746001ce0a4c1db371b779b23920b'),
    ('dmap', 's3-graded.txt'):
        ('111111111111111111110110111111111111111111111110110111111111111111111111111111110',
         'a391ef82eb2e38c180e4fc3c5dda645a5d48e636893b90a7f024b19abbbb7c12'),
}


def test_frt_and_dmap_on_non_solutions_are_frozen(tmp_path, capsys):
    """A no names its failing coordinate equation on stderr, byte for byte,
    with exit 1; perturbations that stay solutions keep their reports."""
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    for (command, name), (code, digest) in NON_SOLUTION_STDERR.items():
        assert main([command, os.path.join(exdir, name)]) == code, (command, name)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: not a D-equation")
        assert hashlib.sha256(captured.err.encode()).hexdigest() == digest, (command, name)
    for (command, name), want in PERTURBED_GOLDEN.items():
        got = perturbed_runs(tmp_path, capsys, command, os.path.join(exdir, name))
        assert got == want, (command, name)


def test_frt_and_dmap_refuse_n_above_9_before_any_equation(tmp_path, capsys, monkeypatch):
    """An n = 10 operator is refused with exit 2 before its obstruction rows
    are reduced or an equation is computed, for a solution and a
    non-solution alike: at the default bound as n=10 > 4, and at
    DEQ_MAX_N=10 by comatrix(n), whose labels are two digits."""
    import deq.frt
    n = 10
    R = diagonal_solution(QQ, [[i + j + 1 for j in range(n)] for i in range(n)])
    rows = [list(row) for row in R.matrix().rows]
    rows[0][1] = QQ.one
    paths = [write_operator(tmp_path, name, S)
             for name, S in (("sol.txt", R), ("non.txt", EndoPair.from_matrix(Matrix(QQ, rows))))]

    def refuse(*args, **kwargs):
        raise AssertionError("obstruction rows reduced or an equation computed")
    monkeypatch.setattr(deq.frt, "rref", refuse)
    monkeypatch.setattr(deq.frt, "first_violation", refuse)
    for bound, message in ((None, "n=10 exceeds the configured bound 4 (set DEQ_MAX_N)"),
                           ("10", "comatrix order must be in 1..9")):
        if bound:
            monkeypatch.setenv("DEQ_MAX_N", bound)
        for path in paths:
            for command in ("frt", "dmap"):
                assert main([command, path]) == 2, (command, path, bound)
                captured = capsys.readouterr()
                assert captured.out == "" and message in captured.err


def dense_operator(n):
    """An operator on Q^n (x) Q^n with seed-1 random entries in -9..9; it
    fails the equation."""
    rng = random.Random(1)
    return EndoPair.from_matrix(Matrix(QQ, [[rng.randint(-9, 9) for _ in range(n * n)]
                                            for _ in range(n * n)]))


def test_check_frt_and_dmap_read_one_size_bound(tmp_path, capsys, monkeypatch):
    """check, frt and dmap read DEQ_MAX_N the same way, right after reading
    the operator. At the default bound 4, dense operators at n = 5 and 6
    exit 2 before the generator table, the obstruction coideal or an
    equation is formed; at DEQ_MAX_N=6 they are a no (exit 1), shown at
    n = 5 for every command and at n = 6 for check. At DEQ_MAX_N=2 the
    n = 3 s3-graded solution exits 2 from all three, and 0 without it."""
    import deq.frt
    import deq.tensor_ops
    paths = {n: write_operator(tmp_path, "dense%d.txt" % n, dense_operator(n)) for n in (5, 6)}

    def refuse(*args):
        raise AssertionError("work done above the bound")
    for owner, name in ((deq.frt, "generator_table"), (deq.frt, "obstruction_coideal"),
                        (deq.frt, "first_violation"), (deq.tensor_ops, "first_violation")):
        monkeypatch.setattr(owner, name, refuse)
    for n, path in paths.items():
        for command in ("check", "frt", "dmap"):
            assert main([command, path]) == 2, (command, n)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: n=%d exceeds the configured bound 4 (set DEQ_MAX_N)\n" % n)
    monkeypatch.undo()
    monkeypatch.setenv("DEQ_MAX_N", "6")
    for n, command in ((5, "check"), (5, "frt"), (5, "dmap"), (6, "check")):
        assert main([command, paths[n]]) == 1, (command, n)
        captured = capsys.readouterr()
        if command == "check":
            assert "\nd: false\n" in captured.out and captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: not a D-equation solution: ")
    s3 = write_operator(tmp_path, "s3.txt", catalog.s3_graded_solution(QQ))
    for command in ("check", "frt", "dmap"):
        monkeypatch.setenv("DEQ_MAX_N", "2")
        assert main([command, s3]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=3 exceeds the configured bound 2 (set DEQ_MAX_N)\n"
        monkeypatch.delenv("DEQ_MAX_N")
        assert main([command, s3]) == 0, command
        capsys.readouterr()


def test_cli_import_does_not_load_numpy():
    """numpy is imported by the census only, on first use."""
    code = ("import sys, deq.cli, deq; deq.check_d; "
            "print(sorted(m for m in ('numpy', 'sympy', 'deq.classify') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split("\n")[0] == "[]"
    code = "import deq; deq.orbit_reduce; import sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True"


def test_hostile_function_field_literal_exits_2_quickly(tmp_path, capsys):
    for literal in ("(a+1)^3000", "((a+1)^64)^64"):
        path = str(tmp_path / "big.txt")
        with open(path, "w") as handle:
            handle.write("field QFUN a\ndim 1\n%s\n" % literal)
        start = time.monotonic()
        assert main(["check", path]) == 2
        assert time.monotonic() - start < 1.0
        assert "too large" in capsys.readouterr().err


def test_bad_max_n_environment_exits_2(tmp_path, capsys, monkeypatch):
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    for value in ("x", "2.5", "0", "-1"):
        monkeypatch.setenv("DEQ_MAX_N", value)
        for command in ("check", "frt", "dmap"):
            assert main([command, path]) == 2, (command, value)
            captured = capsys.readouterr()
            assert captured.out == "" and "DEQ_MAX_N" in captured.err


def test_bad_budget_environment_exits_2(capsys, monkeypatch):
    """DEQ_BUDGET and --budget follow one rule: a positive integer."""
    for value in ("abc", "1e6", "0", "-5"):
        assert main(["classify", "--budget", value]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget must be a positive integer, got %r" % value in captured.err
        monkeypatch.setenv("DEQ_BUDGET", value)
        assert main(["classify"]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DEQ_BUDGET must be a positive integer, got %r" % value in captured.err
    monkeypatch.setenv("DEQ_BUDGET", "20")
    assert main(["classify"]) == 2
    assert "over the budget of 20" in capsys.readouterr().err


def test_budget_environment_is_read_once_for_census_and_orbits(capsys, monkeypatch):
    """deq classify reads DEQ_BUDGET once, when --budget is absent, and
    passes it to the census and to orbit_reduce as their limit: 599 refuses
    the (2, 2) census, and at n = 1 over F_29 the 29 candidates pass while
    29 x 28 = 812 conjugate images exceed 800. Either way exit 2, with no
    unit group formed."""
    from deq import classify

    def no_units(*args):
        raise AssertionError("unit group formed")
    monkeypatch.setattr(classify, "unit_group", no_units)
    for value, argv, message in (
            ("599", ["--n", "2", "--p", "2"], "budget of 599"),
            ("800", ["--n", "1", "--p", "29"], "812 conjugate images, over the budget of 800")):
        monkeypatch.setenv("DEQ_BUDGET", value)
        assert main(["classify", "--orbits"] + argv) == 2, value
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_frt_golden_presentation(tmp_path, capsys):
    path = write_operator(tmp_path, "r.txt", catalog.triangular_solution(QQ, 1, 1, 1))
    assert main(["frt", path]) == 0
    out = capsys.readouterr().out
    assert "ideal dimension: 2\n" in out
    assert "quotient dimension: 2\n" in out
    assert "relation: c21 = 0\n" in out
    assert "relation: c22 - c11 = 0\n" in out
    assert "generators: c11~ c12~\n" in out
    assert "Delta(c12~) = c11~(x)c12~ + c12~(x)c11~\n" in out
    assert out.endswith("round trip: true\n")


def test_frt_rejects_non_solution(tmp_path, capsys):
    path = write_operator(tmp_path, "r.txt", catalog.yang_baxter_operator(QQ, 2))
    assert main(["frt", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_dmap_reports(tmp_path, capsys):
    path = write_operator(tmp_path, "id.txt", identity_pair(QQ, 2))
    assert main(["dmap", path]) == 0
    out = capsys.readouterr().out
    assert "strong: true" in out
    assert "sigma(c11, c11~) = 1\n" in out
    assert "convolution inverse: found" in out

    path = write_operator(tmp_path, "proj.txt", catalog.projection_solution(QQ))
    assert main(["dmap", path]) == 0
    out = capsys.readouterr().out
    assert "strong: false" in out
    assert "relation: c12 = 0\n" in out and "relation: c21 = 0\n" in out
    assert "sigma(c11, c11~) = 2\n" in out
    assert "convolution inverse: not bijective" in out

    path = write_operator(tmp_path, "diag.txt",
                          diagonal_solution(QQ, [[1, 2], [3, 4]]))
    assert main(["dmap", path]) == 0
    out = capsys.readouterr().out
    assert "sigma(c22, c11~) = 3\n" in out
    assert "convolution inverse: found" in out


def test_dimodule_report(tmp_path, capsys):
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    code = main(["dimodule", os.path.join(exdir, "s3-cayley.txt"),
                 os.path.join(exdir, "s3-graded-module.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "group order: 6" in out
    assert "rho(m1) = m1 (x) t12\n" in out
    assert "rho(m3) = m3 (x) t13\n" in out
    assert out.count(": true") >= 18 + 2
    assert "compatible: true\n" in out
    assert "regenerated operator n: 3\n" in out
    assert "regenerated d: true\n" in out


# sha256 of the stdout of deq dimodule on the bundled S3 example
DIMODULE_GOLDEN = "413e2d9e3f0de97078a584e9f517c753f91b8cb90e9b20888913a80b89ab42da"


def test_dimodule_golden_on_bundled_example(tmp_path, capsys):
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    assert main(["dimodule", os.path.join(exdir, "s3-cayley.txt"),
                 os.path.join(exdir, "s3-graded-module.txt")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIMODULE_GOLDEN


def test_dimodule_refuses_dimension_0_at_its_line(tmp_path, capsys):
    group, module = str(tmp_path / "z2.txt"), str(tmp_path / "m.txt")
    fileio.write_cayley(group, ["e", "g"], [[0, 1], [1, 0]])
    with open(module, "w") as handle:
        handle.write("field Q\ndim 0\naction e\naction g\n")
    assert main(["dimodule", group, module]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s:2:1: module dimension must be positive\n" % module


def test_dimodule_refuses_unstable_gradings_and_non_groups(tmp_path, capsys):
    """Each is a mathematical no: exit 1 with the reason on stderr."""
    k = QQ
    z, o = k.zero, k.one
    z2 = str(tmp_path / "z2.txt")
    fileio.write_cayley(z2, ["e", "g"], [[0, 1], [1, 0]])
    unstable = str(tmp_path / "unstable.txt")
    fileio.write_graded_module(
        unstable, ["e", "g"], k,
        {"e": Matrix.identity(k, 2), "g": Matrix(k, [[z, o], [o, z]], coerce=False)},
        {"e": Matrix(k, [[o, z], [z, z]], coerce=False),
         "g": Matrix(k, [[z, z], [z, o]], coerce=False)})
    monoid = str(tmp_path / "monoid.txt")
    fileio.write_cayley(monoid, ["e", "g"], [[0, 1], [1, 1]])
    for group, reason in ((z2, "component e is not stable under g"),
                          (monoid, "not a group: no inverse for g")):
        assert main(["dimodule", group, unstable]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err


def test_dimodule_reads_the_size_bound_before_its_work(tmp_path, capsys, monkeypatch):
    """A module of dimension above DEQ_MAX_N regenerates an operator that
    check_d refuses, so deq dimodule refuses it (exit 2) right after reading
    it, valid or not, before any GradedModule is built."""
    import deq.cli
    k = QQ
    z, o, m = k.zero, k.one, k.neg(k.one)
    group = str(tmp_path / "z2.txt")
    fileio.write_cayley(group, ["e", "g"], [[0, 1], [1, 0]])

    def diagonal(*entries):
        return Matrix(k, [[entries[r] if r == c else z for c in range(5)] for r in range(5)],
                      coerce=False)
    valid, unstable = str(tmp_path / "valid.txt"), str(tmp_path / "unstable.txt")
    fileio.write_graded_module(valid, ["e", "g"], k,
                               {"e": Matrix.identity(k, 5), "g": diagonal(o, o, o, m, m)},
                               {"e": diagonal(o, o, o, z, z), "g": diagonal(z, z, z, o, o)})
    swap = [[o if c == (r ^ 1 if r < 2 else r) else z for c in range(5)] for r in range(5)]
    fileio.write_graded_module(unstable, ["e", "g"], k,
                               {"e": Matrix.identity(k, 5), "g": Matrix(k, swap, coerce=False)},
                               {"e": diagonal(o, z, o, o, o), "g": diagonal(z, o, z, z, z)})
    built = []
    graded_module = deq.cli.GradedModule
    monkeypatch.setattr(deq.cli, "GradedModule",
                        lambda *args: built.append(args) or graded_module(*args))
    for module in (valid, unstable):
        assert main(["dimodule", group, module]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n=5 exceeds the configured bound 4 (set DEQ_MAX_N)" in captured.err
    assert built == []
    monkeypatch.setenv("DEQ_MAX_N", "5")
    assert main(["dimodule", group, valid]) == 0
    assert "regenerated operator n: 5\nregenerated d: true\n" in capsys.readouterr().out
    assert main(["dimodule", group, unstable]) == 1
    assert "component e is not stable under g" in capsys.readouterr().err
    assert len(built) == 2


def test_frt_and_dimodule_check_each_fact_once(tmp_path, capsys, monkeypatch):
    """Structures correct by construction are not re-checked: one deq frt
    and one deq dimodule run check no coalgebra, comodule, algebra or
    bialgebra axioms.
    deq dimodule tests compatibility once for each (basis element, m_l)
    pair, for its compat lines, and forms a number of matrix products that
    does not grow with the group order: S3, Z/6 and Z/12 gradings of k^3
    form the same number (each of their families is one band of the block
    kernels). Every product, Matrix.mul's and the block kernels', runs
    through Matrix._integral_mul, which counts them. Its
    stability check and its compat lines read one commutator table. deq
    frt forms none, since the canonical dimodule of a solution is
    compatible by the FRT-type theorem."""
    from deq import coalg, dimodule
    from test_dimodule import cyclic_graded_module, cyclic_table
    checks = {"Coalgebra._check_axioms": (coalg.Coalgebra, "_check_axioms"),
              "Comodule._check_axioms": (coalg.Comodule, "_check_axioms"),
              "FinAlgebra._check_algebra": (dimodule.FinAlgebra, "_check_algebra"),
              "FinBialgebra._check_bialgebra": (dimodule.FinBialgebra, "_check_bialgebra")}
    counts = dict.fromkeys(checks, 0)
    pairs = {}
    products = []
    tables = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, (owner, attr) in checks.items():
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    pair_compatible = dimodule.LongDimodule.pair_compatible
    integral_mul = Matrix._integral_mul
    commutator_columns = dimodule.commutator_columns

    def counted_pair(self, a, l):
        pairs.setdefault(self, []).append((a, l))
        return pair_compatible(self, a, l)

    def counted_mul(self, other):
        products.append(other)
        return integral_mul(self, other)

    def counted_tables(*args):
        tables.append(args)
        return commutator_columns(*args)

    monkeypatch.setattr(dimodule.LongDimodule, "pair_compatible", counted_pair)
    monkeypatch.setattr(Matrix, "_integral_mul", counted_mul)
    monkeypatch.setattr(dimodule, "commutator_columns", counted_tables)
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    runs = [["frt", os.path.join(exdir, "s3-graded.txt")],
            ["dimodule", os.path.join(exdir, "s3-cayley.txt"),
             os.path.join(exdir, "s3-graded-module.txt")]]
    for order in (6, 12):
        g = cyclic_graded_module(QQ, order)
        group, module = (str(tmp_path / ("z%d%s.txt" % (order, end))) for end in ("", "-module"))
        fileio.write_cayley(group, g.host.labels, cyclic_table(order))
        fileio.write_graded_module(module, g.host.labels, QQ, dict(zip(g.host.labels, g.act)),
                                   dict(zip(g.host.labels, g.projectors)))
        runs.append(["dimodule", group, module])
    made = []
    for argv in runs:
        counts.update(dict.fromkeys(checks, 0))
        pairs.clear()
        del products[:], tables[:]
        assert main(argv) == 0, argv
        assert counts == dict.fromkeys(checks, 0), argv
        if argv[0] == "frt":
            assert pairs == {} and tables == [], argv
            continue
        (dim, seen), = pairs.items()
        grid = [(a, l) for a in range(len(dim.act)) for l in range(dim.dim)]
        assert sorted(seen) == grid, argv
        assert len(tables) == 1, argv
        made.append(len(products))
    assert len(set(made)) == 1, made
    capsys.readouterr()


def test_classify_counts_and_filters(tmp_path, capsys):
    assert main(["classify"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 100\n" in out
    assert out.count("\nsolution ") == 100

    assert main(["classify", "--filter", "symmetric"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 100\n" in out, "counts describe the full census"
    assert out.count("\nsolution ") == 44

    assert main(["classify", "--filter", "bijective"]) == 0
    assert capsys.readouterr().out.count("\nsolution ") == 30

    report = str(tmp_path / "c.txt")
    assert main(["classify", "--orbits", "--out", report]) == 0
    text = open(report).read()
    assert text.count("\norbit ") == 32
    kv = dict(line.split("=", 1) for line in open(report + ".kv").read().splitlines())
    assert kv["orbits"] == "32" and kv["qybe"] == "100"


# sha256 of the stdout of `deq classify --n 2 --p 2` per filter, without and
# with --orbits
CLASSIFY_GOLDEN = {
    "all": ("94c28dfcd5794892634a1c16d7abc4e7e337c02a0089b7ea9634c93158094ffd",
            "ebea68734c499c3b30d274e3a278ca7516933e383c734af4385c54c7c325e254"),
    "bijective": ("590dd5b74ae00512a32e0d65dcfa6f811764516080f7f567c2c8fbc2e663c25a",
                  "50c09aff109931d8d20238070053d382756b0930813ef2e9538dabe4a199c460"),
    "symmetric": ("c6b391d6c7795708e5be1a50ede0fa148b603e2920b2698cad7559c7a0c96ee4",
                  "a49d1509953f5380ee33b225d13bb2380147e33d9f241d1c7c05491720c32b55"),
    "qybe": ("50b70c07be6067adbc80fdab1703539a3bd0c1034b50c2621a8f08eaa52bb997",
             "107ffa68f69afa98152cde2fc4a14e5d52b2cb003f84f8f44a70d351a332469e"),
}


def test_classify_golden_for_every_filter(capsys, monkeypatch):
    """deq classify reads no DEQ_MAX_N: the check_d of its 1% re-verification
    answers at every n, so DEQ_MAX_N=1 changes no report."""
    monkeypatch.setenv("DEQ_MAX_N", "1")
    for name, digests in CLASSIFY_GOLDEN.items():
        for orbits, digest in zip(([], ["--orbits"]), digests):
            assert main(["classify", "--n", "2", "--p", "2", "--filter", name] + orbits) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, orbits)


def test_classify_budget_refusal(capsys):
    assert main(["classify", "--n", "2", "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    # an explicit budget opts in; n=1 over F5 has five scalar candidates
    assert main(["classify", "--n", "1", "--p", "5", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 5" in out and "bijective: 4" in out
    # --orbits forms 5 solutions x 4 units = 20 images, within the same
    # budget; n = 1 over F_65537 forms 65,537 x 65,536, refused before any
    # unit is formed
    assert main(["classify", "--n", "1", "--p", "5", "--orbits", "--budget", "19"]) == 2
    assert "20 conjugate images, over the budget of 19" in capsys.readouterr().err
    assert main(["classify", "--n", "1", "--p", "5", "--orbits", "--budget", "20"]) == 0
    assert "orbits: 5" in capsys.readouterr().out
    assert main(["classify", "--n", "1", "--p", "65537", "--orbits"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4295032832 conjugate images, over the budget of 1000000" in captured.err


def test_classify_refuses_oversized_spaces_without_forming_them(capsys):
    """A space of p^(n^4) operators over the budget is refused with exit 2
    and a short message that names it as a power, however many digits it
    has: 2^(11^4) has 4,408."""
    for n in ("11", "60"):
        assert main(["classify", "--n", n, "--p", "2"]) == 2, n
        captured = capsys.readouterr()
        assert captured.out == "", n
        assert "over the budget of" in captured.err and len(captured.err) < 200, n
        assert "2^(%s^4)" % n in captured.err, n


def test_examples_round_trip(tmp_path, capsys):
    """Every emitted operator file reprints to the identical bytes."""
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    out = capsys.readouterr().out
    names = [line.split(" ", 1)[1] for line in out.splitlines()]
    assert len(names) == 12
    for path in names:
        base = os.path.basename(path)
        if base in ("s3-cayley.txt", "s3-graded-module.txt"):
            continue
        R = fileio.read_matrix(path)
        assert fileio.matrix_text(R) == open(path).read(), base
    labels, table = fileio.read_cayley(os.path.join(exdir, "s3-cayley.txt"))
    assert labels == catalog.S3_LABELS
    field, action, projectors = fileio.read_graded_module(
        os.path.join(exdir, "s3-graded-module.txt"), labels)
    assert field == QQ and len(action) == 6


def test_parse_error_exits_2(tmp_path, capsys):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as handle:
        handle.write("field Q\ndim 2\n1 0 zzz 0\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert ("%s:3:3:" % path) in err


def test_non_utf8_input_exits_2_with_one_error_line(tmp_path, capsys):
    """A 0xff byte in any file a command reads is an input error: exit 2
    and one `error: path:line:col: ...` line, for each file of each command."""
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    bad = str(tmp_path / "bad.txt")
    with open(bad, "wb") as handle:
        handle.write(b"field Q\ndim 1\n\xff\n")
    group, module = (os.path.join(exdir, name)
                     for name in ("s3-cayley.txt", "s3-graded-module.txt"))
    for argv in (["check", bad], ["frt", bad], ["dmap", bad],
                 ["dimodule", bad, module], ["dimodule", group, bad]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s:3:1: not valid UTF-8 (byte 0xff)\n" % bad, argv
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-m", "deq.cli", "check", bad], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_invocations_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["check"]) == 2
    assert main(["classify", "--workers", "2"]) == 2
    capsys.readouterr()


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    """A broken invariant, here the annihilation gate refusing an operator
    whose coordinate equations all hold, is neither a verdict nor a usage
    error."""
    import deq.frt
    path = write_operator(tmp_path, "r.txt", catalog.yang_baxter_operator(QQ, 2))
    monkeypatch.setattr(deq.frt, "first_violation", lambda R: None)
    assert main(["frt", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: annihilation gate and coordinate equations disagree")


def test_dimodule_reports_the_theorem_without_regenerating(tmp_path, capsys, monkeypatch):
    """deq dimodule prints the regenerated operator's n and its D verdict
    from the theorem: it builds no R and runs no check_d."""
    exdir = write_examples(tmp_path, capsys)
    for name in ("r_from_dimodule", "check_d"):
        refuse_everywhere(monkeypatch, name)
    assert main(["dimodule", os.path.join(exdir, "s3-cayley.txt"),
                 os.path.join(exdir, "s3-graded-module.txt")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIMODULE_GOLDEN


def test_check_validates_each_read_entry_a_bounded_number_of_times(tmp_path, capsys,
                                                                 monkeypatch):
    """Entries are checked where they enter; products, lifts and permuted
    matrices of checked entries are not checked again. One deq check on the
    n = 3 example parses each of its 81 entries once and validates none
    again."""
    from deq.fields import RationalField
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    capsys.readouterr()
    calls = {"parse": 0, "validate": 0}

    def counting(name):
        method = getattr(RationalField, name)

        def wrapper(self, v):
            calls[name] += 1
            return method(self, v)
        return wrapper

    for name in calls:
        monkeypatch.setattr(RationalField, name, counting(name))
    assert main(["check", os.path.join(exdir, "s3-graded.txt")]) == 0
    assert capsys.readouterr().out.startswith("deq check\nfield: Q\nn: 3\n")
    assert calls == {"parse": 3 ** 4, "validate": 0}


def test_check_forms_six_products_from_three_lifts(tmp_path, capsys, monkeypatch):
    """One deq check lifts R to R12, R13 and R23 once each and forms six
    n^3 x n^3 products: R12 R23, R23 R12, and the two QYBE words of three
    lifts, two products each. The T, U and W verdicts are the D verdict,
    so they form nothing more. A count of the work, so no wall clock enters. Over Q and Q(q) the
    six products are over the operator's integral ring, not the field; F_p
    is its own."""
    from deq import tensor_ops
    from deq.fields import FunctionField, IntegralRing, PrimeField
    products, lifts, rings = [], [], []
    mul, leg_map = Matrix.mul, tensor_ops.leg_map

    def counting_mul(self, other):
        products.append(self.nrows)
        rings.append((self.nrows, self.field))
        return mul(self, other)

    def counting_leg_map(n, slot):
        lifts.append(slot)
        return leg_map(n, slot)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    monkeypatch.setattr(tensor_ops, "leg_map", counting_leg_map)
    k5, kq = PrimeField(5), FunctionField(["q"])
    cases = [(catalog.triangular_solution(QQ, 1, 2, 3), 0), (catalog.rq(kq, kq.gens[0]), 0),
             (catalog.yang_baxter_operator(QQ, 2), 1), (catalog.s3_graded_solution(QQ), 0),
             (EndoPair.from_rows(k5, [[(r * c + r + 2) % 5 for c in range(9)]
                                      for r in range(9)]), 1)]
    for R, code in cases:
        path = write_operator(tmp_path, "op.txt", R)
        del products[:], lifts[:], rings[:]
        assert main(["check", path]) == code
        capsys.readouterr()
        assert [n for n in products if n == R.n ** 3] == [R.n ** 3] * 6, R
        assert sorted(lifts) == [12, 13, 23], R
        ring = PrimeField if R.field == k5 else IntegralRing
        assert all(isinstance(field, ring) for n, field in rings if n == R.n ** 3), R


def test_bad_entries_in_an_operator_file_exit_2(tmp_path, capsys):
    for header, entry, message in (("Q", "1.5", "bad rational literal"),
                                   ("F 13", "x", "bad integer literal"),
                                   ("QFUN a", "a/(a-a)", "division by zero"),
                                   ("F %d" % (2 ** 89 - 1), "5", "too large")):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as handle:
            handle.write("field %s\ndim 1\n%s\n" % (header, entry))
        assert main(["check", path]) == 2, header
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, header


def test_long_q_entry_exits_2(tmp_path, capsys):
    """A Q entry of 5,000 digits is over the digit bound: exit 2 with one
    error line, where Python's int conversion used to raise a ValueError."""
    path = str(tmp_path / "long.txt")
    with open(path, "w") as handle:
        handle.write("field Q\ndim 1\n%s\n" % ("7" * 5000))
    for command in ("check", "frt", "dmap"):
        assert main([command, path]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and "over the limit of 1000 digits" in captured.err


def test_long_settings_exit_2(tmp_path, capsys, monkeypatch):
    long = "1" * 5000
    assert main(["classify", "--budget", long]) == 2
    assert "--budget of 5000 digits is over the limit" in capsys.readouterr().err
    monkeypatch.setenv("DEQ_BUDGET", long)
    assert main(["classify"]) == 2
    assert "DEQ_BUDGET of 5000 digits is over the limit" in capsys.readouterr().err
    monkeypatch.delenv("DEQ_BUDGET")
    monkeypatch.setenv("DEQ_MAX_N", long)
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    assert main(["check", path]) == 2
    assert "DEQ_MAX_N of 5000 digits is over the limit" in capsys.readouterr().err


def test_non_ascii_digits_and_underscores_exit_2(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "digits.txt")
    for text in ("field Q\ndim 1\n\u0661\n", "field F 1_0_1\ndim 1\n1\n",
                 "field F \u0667\ndim 1\n1\n", "field Q\ndim 1_0\n",
                 "field F 7\ndim 1\n1_0\n"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert main(["check", path]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: %s:" % path), text
    for value in ("1_0", "\u0663"):
        assert main(["classify", "--budget", value]) == 2, value
        monkeypatch.setenv("DEQ_BUDGET", value)
        assert main(["classify"]) == 2, value
        monkeypatch.delenv("DEQ_BUDGET")
        assert "must be a positive integer" in capsys.readouterr().err
    for argv in (["--n", "\u0661"], ["--p", "1_1"], ["--seed", "\u0663"], ["--n", "1" * 5000]):
        assert main(["classify"] + argv) == 2, argv
        assert "invalid integer value" in capsys.readouterr().err


def test_trailing_rows_exit_2(tmp_path, capsys):
    path = str(tmp_path / "extra.txt")
    with open(path, "w") as handle:
        handle.write("field Q\ndim 1\n1\n2\n")
    for command in ("check", "frt", "dmap"):
        assert main([command, path]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s:4:1: unexpected content after the last row\n" % path


LONG_NUMBER = "7" * 1001
ODD_NUMBERS = ["0", "-1", "1", "10", "1_0", "\u0663", LONG_NUMBER, "x", "", "2/3"]
ODD_LITERALS = ODD_NUMBERS + ["1/0", "1e3", "q", "a*b", "(a", "q^99999", "1/" + LONG_NUMBER,
                              "\u0661/2", "e", "t12"]
ODD_HEADERS = ["field Q", "field F 4", "field F 13", "field F \u0667", "field F " + LONG_NUMBER,
               "field QFUN", "field QFUN q", "field QFUN 1x", "field Z", "group 0", "group 7",
               "group \u0663", "labels e", "dim 2", "action e", ""]


@st.composite
def mutated_lines(draw, lines):
    """The lines of a bundled file with one thing mutated: the header, the
    number of the `dim` or `group` line, one entry, an extra or a missing
    line. Entries are separated as the writers separate them."""
    lines = list(lines)
    kind = draw(st.sampled_from(["header", "size", "entry", "extra", "missing"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "header":
        lines[0] = draw(st.sampled_from(ODD_HEADERS))
    elif kind == "size":
        at = next(i for i, line in enumerate(lines) if line.split()[0] in ("dim", "group"))
        lines[at] = "%s %s" % (lines[at].split()[0], draw(st.sampled_from(ODD_NUMBERS)))
    elif kind == "entry":
        sep = ", " if ", " in lines[at] else " "
        parts = lines[at].split(sep)
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(ODD_LITERALS))
        lines[at] = sep.join(parts)
    elif kind == "extra":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    else:
        del lines[at]
    return lines


@st.composite
def near_valid_runs(draw, exdir):
    """(argv, files): a deq command on bundled example files, one of them
    mutated and written to `files`, or `deq classify` with one of --n, --p
    and --budget out of range and the others at a (2, 2) census."""
    def read(name):
        with open(os.path.join(exdir, name), encoding="utf-8") as handle:
            return handle.read().splitlines()
    kind = draw(st.sampled_from(["operator", "dimodule", "classify"]))
    if kind == "operator":
        name = draw(st.sampled_from(sorted(CHECK_GOLDEN)))
        command = draw(st.sampled_from(["check", "frt", "dmap"]))
        return [command, "{0}"], [draw(mutated_lines(read(name)))]
    if kind == "dimodule":
        files = [read("s3-cayley.txt"), read("s3-graded-module.txt")]
        which = draw(st.integers(0, 1))
        files[which] = draw(mutated_lines(files[which]))
        return ["dimodule", "{0}", "{1}"], files
    bad = draw(st.sampled_from(["--n", "--p", "--budget"]))
    values = {"--n": st.one_of(st.integers(-10 ** 6, 0), st.integers(3, 10 ** 6)),
              "--p": st.integers(-10 ** 6, 10 ** 6).filter(lambda p: p != 2),
              "--budget": st.integers(-10 ** 6, 0)}
    value = draw(st.one_of(values[bad].map(str), st.sampled_from(ODD_NUMBERS)))
    argv = {"--n": "2", "--p": "2", "--budget": "65536", bad: value}
    return ["classify"] + [word for pair in argv.items() for word in pair], []


def test_exit_codes_on_near_valid_inputs(tmp_path, capsys, monkeypatch):
    """Every near-valid input ends in exit 0, 1 or 2, and no exception but
    SystemExit leaves main: bundled example files with one thing mutated,
    and classify with an out-of-range --n, --p or --budget."""
    for name in ("DEQ_BUDGET", "DEQ_MAX_N"):
        monkeypatch.delenv(name, raising=False)
    exdir = str(tmp_path / "ex")
    assert main(["examples", "--dir", exdir]) == 0
    codes = set()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(near_valid_runs(exdir))
    def check(run):
        argv, files = run
        paths = []
        for i, lines in enumerate(files):
            paths.append(str(tmp_path / ("mutated-%d.txt" % i)))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        try:
            code = main([word.format(*paths) for word in argv])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes.add(code)
    check()
    assert codes == {0, 1, 2}


def test_main_dispatches_to_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    """The parser is built once per process and holds no command functions,
    so a cmd_* name rebound after the first call (as a tracer does) is the
    one called, and the original again once it is restored."""
    import deq.cli
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    assert main(["check", path]) == 0
    monkeypatch.setattr(deq.cli, "cmd_check", lambda args: 7)
    assert main(["check", path]) == 7
    monkeypatch.undo()
    assert main(["check", path]) == 0
    assert deq.cli._parser() is deq.cli._parser()
    capsys.readouterr()
