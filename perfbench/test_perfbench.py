"""Tests of the benchmark itself: its generator, oracle and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads
from deq import catalog, classify, d_bialgebra
from deq.fields import QQ, PrimeField
from deq.tensor_ops import (check_equivalent_forms, check_hopf, check_pentagon,
                            check_qybe)

ROOT = Path(__file__).resolve().parent.parent


def plain(R):
    """Entries as Fraction (Q) or int (F_p), the oracle's own types."""
    return [list(row) for row in R.matrix().rows]


def without_paths(manifest, workdir):
    """The manifest with its work directory cut out, plus the input files."""
    text = json.dumps(manifest["rounds"]).replace(str(workdir), "")
    files = sorted((name, (workdir / name).read_text()) for name in os.listdir(workdir))
    return text, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    frozen = workloads.load_frozen()
    made = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        manifest = workloads.generate(workload, seed, str(tmp_path / sub), 1, frozen)
        made.append(without_paths(manifest, tmp_path / sub))
    assert made[0] == made[1]
    assert made[0] != made[2]


def test_generated_operators_are_distinct_within_a_run(tmp_path):
    manifest = workloads.generate("check", 9, str(tmp_path), 2, workloads.load_frozen())
    texts = [Path(op["argv"][1]).read_text() for ops in manifest["rounds"] for op in ops]
    assert len(set(texts)) == len(texts)
    assert manifest["composition"]["verdict"] == {"no": 0.5, "yes": 0.5}


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_own_verdicts_match_deq_on_catalog_operators(field):
    p = getattr(field, "p", None)
    cases = [catalog.triangular_solution(field, 1, 2, 3), catalog.rq(field, 3),
             catalog.yang_baxter_operator(field, 2), catalog.projection_solution(field),
             catalog.block_family(field, 1, 2, 3, 4, 5, 6)]
    for R in cases:
        forms = check_equivalent_forms(R)
        want = {"d": forms.d, "qybe": check_qybe(R), "hopf": check_hopf(R),
                "pentagon": check_pentagon(R), "form_t": forms.form_t,
                "form_u": forms.form_u, "form_w": forms.form_w}
        assert oracle.verdicts(plain(R), R.n, p) == want
        if forms.d:
            assert oracle.ideal_dim(plain(R), R.n, p) == d_bialgebra(R).ideal.dim


def test_own_verdicts_at_n3():
    R = catalog.s3_graded_solution(QQ)
    got = oracle.verdicts(plain(R), 3)
    assert got["d"] and not got["qybe"]
    assert oracle.ideal_dim(plain(R), 3) == d_bialgebra(R).ideal.dim


def test_oracle_fails_a_flipped_verdict_or_a_wrong_exit_code():
    text = "deq check\nfield: Q\nn: 2\n" + "".join(
        "%s: true\n" % v for v in oracle.VERDICTS)
    expect = {"rc": 0, "text": text}
    assert oracle.check_report(expect, 0, text) == []
    assert oracle.check_report(expect, 0, text.replace("qybe: true", "qybe: false"))
    assert oracle.check_report(expect, 1, text)
    assert oracle.check_report(expect, 0, None)
    lines = {"rc": 0, "lines": ["deq frt", "ideal dimension: 2"],
             "counts": {"relation: ": 2}, "digests": {"solution ": oracle.lines_digest(["1"])}}
    good = "deq frt\nideal dimension: 2\nrelation: a\nrelation: b\nsolution 1\n"
    assert oracle.check_report(lines, 0, good) == []
    assert oracle.check_report(lines, 0, good.replace("dimension: 2", "dimension: 3"))
    assert oracle.check_report(lines, 0, good.replace("relation: b\n", ""))
    assert oracle.check_report(lines, 0, good.replace("solution 1", "solution 2"))


def test_a_corrupted_report_drives_failed_ratio_above_zero(tmp_path):
    import deq.cli
    manifest = workloads.generate("check", 2, str(tmp_path), 1, workloads.load_frozen())
    ops = [op for op in manifest["rounds"][0] if op["tags"]["n"] == 2
           and op["tags"]["field"] == "F_p"]
    assert run.run_rounds([ops], None, deq.cli, classify)["failures"] == []
    flipped = dict(ops[0], expect=dict(ops[0]["expect"]))
    text = flipped["expect"]["text"]
    flipped["expect"]["text"] = (text.replace("hopf: true", "hopf: false") if "hopf: true" in text
                                 else text.replace("hopf: false", "hopf: true"))
    wrong_rc = dict(ops[1], expect=dict(ops[1]["expect"], rc=1 - ops[1]["expect"]["rc"]))
    result = run.run_rounds([[flipped, wrong_rc] + ops[2:]], None, deq.cli, classify)
    assert len(result["failures"]) == 2


def test_census_window_truth_matches_operator_mask():
    frozen = workloads.load_frozen()
    lo = 20_000_000
    x = classify.candidate_block(2, 3, lo, lo + 4096)
    want = [s for s in frozen["solutions_2_3"] if lo <= s < lo + 4096]
    assert int(classify.operator_mask(x, 3).sum()) == len(want)
    got = [run.window_serial(s) for s in classify.enumerate_range(2, 3, lo, lo + 4096)]
    assert got == want


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [5.5, 8] that overlap
    tree = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
            ["b", 5.0, 9.0, 0], ["d", 5.0, 6.0, 3], ["e", 5.5, 8.0, 3]]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.5])
    agg = spans.aggregate(tree + [["c", 8.0, 8.5, 3]])
    assert agg["c"] == pytest.approx([1.5, 1.5, 2])


def test_tracing_reaches_names_bound_in_other_modules_and_is_undone(tmp_path):
    import deq.cli
    from deq import tensor_ops
    original = deq.cli.check_qybe
    path = tmp_path / "r.txt"
    from deq import fileio
    fileio.write_matrix(str(path), catalog.triangular_solution(PrimeField(13), 1, 2, 3))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert deq.cli.check_qybe is not original
        assert deq.cli.main(["check", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        restore()
    assert deq.cli.check_qybe is original and tensor_ops.check_qybe is original
    metrics = spans.layer_metrics(tracer)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "tensor_ops.check_qybe", "linalg.Matrix.mul"} <= names
    assert metrics["fields.mul_calls.F_p"] > 0 and metrics["fields.mul_calls.Q"] == 0
    assert metrics["linalg.mul_calls"] > 0 and 0 < metrics["linalg.mul_useful_ratio"] < 1
    assert metrics["classify.candidates"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics) | {"trace.overhead_ops_per_s"}


def test_tail_has_ten_samples_beyond_it():
    times = [float(t) for t in range(100)]
    value, pct, beyond = run.tail(times)
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)
