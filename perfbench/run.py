"""The deq benchmark: closed-loop workloads through `deq.cli.main(argv)`.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One client in one process sends the next
op when the previous one has finished. Inputs come from --seed and are
written to files before any timing (perfbench/workloads.py); every op's exit
code and report is checked against the benchmark's own truth
(perfbench/oracle.py). Ops run in rounds of fixed composition, and a run
starts rounds until --seconds have passed, so every run has the same mix.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(perfbench/spans.py) of a fixed number of rounds, followed by as many
untraced rounds, whose difference in ops/s is the tracing overhead.
`--workload all` runs every workload in turn.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("check", "present", "census")
# rounds per traced run; and the shortest round, in seconds, for which the
# generated pool still lasts a whole run (about a third of a round today:
# a faster program ends its run when the pool runs out)
TRACE_ROUNDS = {"check": 2, "present": 2, "census": 3}
MIN_ROUND_S = {"check": 2.5, "present": 2.0, "census": 1.2}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
SPAN_ROWS = 25
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import deq.cli; "
              "print(repr(time.perf_counter() - t))")


def measure_setup():
    """Median time to import deq.cli in a fresh interpreter, import only;
    a first, discarded import compiles the bytecode caches."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times[1:])


def generate(workload, seed, workdir, rounds):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--dir", workdir, "--rounds", str(rounds)],
                   env=env, check=True, timeout=170, stdout=subprocess.DEVNULL)
    with open(os.path.join(workdir, "manifest.json")) as handle:
        return json.load(handle)


def window_serial(digits):
    value = 0
    for d in digits:
        value = value * 3 + d
    return value


def run_op(op, cli, classify, tracer):
    """(wall seconds of the op, problems found by the oracle)."""
    clock = time.perf_counter
    if "window" in op:
        lo, hi = op["window"]
        call = lambda: classify.enumerate_range(2, 3, lo, hi)  # noqa: E731
    else:
        call = lambda: cli.main(op["argv"])  # noqa: E731
    if tracer is not None:
        call = tracer.wrap(spans.ROOT, call)
    start = clock()
    try:
        result = call()
    except Exception as exc:  # the op failed; the run goes on and counts it
        elapsed = clock() - start
        return elapsed, ["raised %r" % exc]
    elapsed = clock() - start
    if "window" in op:
        got = [window_serial(s) for s in result]
        return elapsed, ([] if got == op["expect"]["solutions"]
                         else ["window solutions differ from the frozen census"])
    try:
        with open(op["out"]) as handle:
            text = handle.read()
    except OSError:
        text = None
    return elapsed, oracle.check_report(op["expect"], result, text)


def run_rounds(rounds, seconds, cli, classify, tracer=None):
    """Run whole rounds until `seconds` have passed (all when None)."""
    clock = time.perf_counter
    times, failures, rates = [], [], []
    start = clock()
    for ops in rounds:
        begun = clock()
        if seconds is not None and begun - start >= seconds:
            break
        for op in ops:
            elapsed, problems = run_op(op, cli, classify, tracer)
            times.append(elapsed)
            if problems:
                failures.append((op.get("argv") or op.get("window"), problems))
        rates.append(len(ops) / (clock() - begun))
    return {"wall": clock() - start, "times": times, "failures": failures, "rates": rates}


def tail(times):
    """(value, percentile, samples beyond it): the highest percentile with at
    least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def environment():
    import numpy
    import sympy
    return ("python %s, numpy %s, sympy %s, nproc %d (%s); no machine setting was "
            "changed: no CPU pinning, no cache dropping, no cgroup edits"
            % (platform.python_version(), numpy.__version__, sympy.__version__,
               len(os.sched_getaffinity(0)), platform.machine()))


def describe(manifest, args):
    print("# deq benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# closed loop, 1 client, in-process through deq.cli.main(argv); "
          "single-threaded, so no layer has wait time")
    for key, shares in manifest["composition"].items():
        print("# share by %s: %s" % (key, ", ".join("%s %.3f" % kv for kv in shares.items())))


def report_failures(failures):
    for what, problems in failures[:5]:
        print("# FAILED %s: %s" % (what, "; ".join(problems)))


def end_to_end(args, rounds, cli, classify, setup_s):
    run = run_rounds(rounds, args.seconds, cli, classify)
    times = run["times"]
    value, pct, beyond = tail(times)
    failed = len(run["failures"])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(run["rates"]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB"}
    print("# %d rounds, %d ops in %.2f s; ops_per_s is the median of the rounds' "
          "rates, %.4f ops/s over the whole run" % (len(run["rates"]), len(times),
                                                   run["wall"], len(times) / run["wall"]))
    for name, v in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = "  (p%.1f of %d samples, %d beyond it)" % (pct, len(times), beyond)
        print("%-14s %12.6f %s%s" % (name, v, units[name], note))
    print("%-14s %12.6f ratio  (%d of %d ops failed)"
          % ("failed_ratio", failed / len(times), failed, len(times)))
    report_failures(run["failures"])
    return len(times), failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced(args, rounds, cli, classify):
    k = TRACE_ROUNDS[args.workload]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with_trace = run_rounds(rounds[:k], None, cli, classify, tracer)
    finally:
        restore()
    without = run_rounds(rounds[k:2 * k], None, cli, classify)
    metrics = spans.layer_metrics(tracer)
    rate_traced = statistics.median(with_trace["rates"])
    rate_plain = statistics.median(without["rates"])
    metrics["trace.overhead_ops_per_s"] = rate_traced - rate_plain
    print("# traced %d rounds (%d spans): %.4f ops/s; untraced %d further rounds: "
          "%.4f ops/s" % (k, len(tracer.spans), rate_traced, k, rate_plain))
    print("# self time is a span's duration minus what its child spans cover; "
          "the share of exact layers (%s) in all layer self time is %.4f"
          % (", ".join(spans.EXACT_LAYERS), metrics["trace.exact_self_share"]))
    print("# spans by self time: name, calls, self s, inclusive s")
    table = sorted(spans.aggregate(tracer.spans).items(), key=lambda kv: -kv[1][0])
    for name, (own, inclusive, calls) in table[:SPAN_ROWS]:
        print("#   %-44s %9d %12.6f %12.6f" % (name, calls, own, inclusive))
    for name in sorted(metrics):
        print("%-42s %16.6f %s" % (name, metrics[name], spans.unit_of(name)))
    failures = with_trace["failures"] + without["failures"]
    report_failures(failures)
    attempted = len(with_trace["times"]) + len(without["times"])
    return attempted, len(failures), {k: {"value": v, "unit": spans.unit_of(k)}
                                      for k, v in metrics.items()}


def run_workload(args):
    if not (SRC / "deq" / "cli.py").is_file():
        print("error: no deq sources under %s" % SRC, file=sys.stderr)
        return 2
    print("# env: " + environment())
    setup_s = measure_setup() if not args.trace else None
    if args.trace:
        count = 2 * TRACE_ROUNDS[args.workload]
    else:
        count = int(args.seconds / MIN_ROUND_S[args.workload]) + 1
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(HERE.parent))
    try:
        manifest = generate(args.workload, args.seed, workdir, count)
        describe(manifest, args)
        sys.path.insert(0, str(SRC))
        import deq.cli as cli
        from deq import classify
        if args.trace:
            attempted, failed, metrics = traced(args, manifest["rounds"], cli, classify)
        else:
            attempted, failed, metrics = end_to_end(args, manifest["rounds"], cli,
                                                    classify, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
