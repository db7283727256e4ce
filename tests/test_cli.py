import os

from deq import catalog, fileio
from deq.cli import main
from deq.fields import QQ
from deq.tensor_ops import diagonal_solution, identity_pair


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


def test_bad_max_n_environment_exits_2(tmp_path, capsys, monkeypatch):
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    for value in ("x", "2.5", "0", "-1"):
        monkeypatch.setenv("DEQ_MAX_N", value)
        assert main(["check", path]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == "" and "DEQ_MAX_N" in captured.err


def test_bad_budget_environment_exits_2(capsys, monkeypatch):
    for value in ("abc", "1e6", "0", "-5"):
        monkeypatch.setenv("DEQ_BUDGET", value)
        assert main(["classify"]) == 2, value
        captured = capsys.readouterr()
        assert captured.out == "" and "DEQ_BUDGET" in captured.err
    monkeypatch.setenv("DEQ_BUDGET", "20")
    assert main(["classify"]) == 2
    assert "over the budget of 20" in capsys.readouterr().err


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


def test_classify_budget_refusal(capsys):
    assert main(["classify", "--n", "2", "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    # an explicit budget opts in; n=1 over F5 has five scalar candidates
    assert main(["classify", "--n", "1", "--p", "5", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 5" in out and "bijective: 4" in out


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
    """A broken invariant, here the two check_d verdict paths disagreeing,
    is neither a verdict nor a usage error."""
    import deq.tensor_ops
    path = write_operator(tmp_path, "r.txt", catalog.rq(QQ, 3))
    monkeypatch.setattr(deq.tensor_ops, "first_violation", lambda R: (1, 1, 1, 1, 1, 1))
    assert main(["check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: verdict paths disagree")
