"""Per-layer tracing of deq from outside it, for the benchmark's traced run.

`install` wraps every public function and public method of each deq layer
module and rebinds the wrapper in every deq namespace that imported the
original (cli binds check_qybe and d_bialgebra directly, for one). A wrapper
keeps a span (name, start, end, parent) in memory. The scalar operations
add, mul and inv of each field kind are only counted: a span on each of
hundreds of thousands of calls would cost more than the work it times.
Everything runs in one thread, so spans nest and no layer waits.
"""

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("fields", "linalg", "tensor_ops", "coalg", "frt", "dmap", "dimodule",
          "classify", "fileio", "cli")
EXACT_LAYERS = ("fields", "linalg", "tensor_ops", "coalg", "frt", "dmap", "dimodule")
FIELD_KINDS = {"Q": "Q", "F": "F_p", "QFUN": "Q_vars"}
COUNTED_FIELD_OPS = ("add", "mul", "inv")
ROOT = "bench.op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.clock = clock

    def wrap(self, name, fn, hook=None):
        spans, stack, clock, counts = self.spans, self.stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def count(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted


def _matrix_mul_hook(counts, args, result):
    a, b = args
    zero = a.field.zero
    col_nnz = [0] * a.ncols
    for row in a.rows:
        for k, v in enumerate(row):
            if v != zero:
                col_nnz[k] += 1
    counts["linalg.mul_scalar_mults"] += a.nrows * a.ncols * b.ncols
    counts["linalg.mul_useful_mults"] += sum(
        col_nnz[k] * sum(1 for v in b.rows[k] if v != zero) for k in range(a.ncols))


def _candidate_block_hook(counts, args, result):
    counts["classify.candidates"] += result.shape[0]


def _coordinate_mask_hook(counts, args, result):
    x = args[0]
    counts["classify.mask_macs"] += 2 * x.shape[0] * x.shape[1] ** 7
    counts["classify.mask_hits"] += int(result.sum())


HOOKS = {
    "linalg.Matrix.mul": _matrix_mul_hook,
    "classify.candidate_block": _candidate_block_hook,
    "classify.coordinate_mask": _coordinate_mask_hook,
}


def install(tracer):
    """Wrap the layers of the imported deq; returns a function that undoes it."""
    patches = []
    wrappers = {}

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer in LAYERS:
        module = importlib.import_module("deq." + layer)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    key = "%s.%s" % (name, meth)
                    if layer == "fields":
                        kind = FIELD_KINDS.get(getattr(obj, "kind", None))
                        if kind and meth in COUNTED_FIELD_OPS:
                            patch(obj, meth, tracer.count(
                                "fields.%s_calls.%s" % (meth, kind), member))
                        elif meth == "parse":
                            patch(obj, meth, tracer.wrap("fields.parse", member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        patch(obj, meth, type(member)(tracer.wrap(key, member.__func__)))
                    elif inspect.isfunction(member):
                        patch(obj, meth, tracer.wrap(key, member, HOOKS.get(key)))
    for modname, module in list(sys.modules.items()):
        if modname == "deq" or modname.startswith("deq."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patch(module, attr, wrappers[obj])

    def restore():
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
    return restore


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """name -> [self time, inclusive time, calls]."""
    agg = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = agg.setdefault(name, [0.0, 0.0, 0])
        row[0] += own
        row[1] += end - start
        row[2] += 1
    return agg


def layer_metrics(tracer):
    """The per-layer metrics, by name, from one traced run."""
    agg = aggregate(tracer.spans)
    counts = tracer.counts

    def own(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def calls(name):
        return agg[name][2] if name in agg else 0

    m = {}
    for op in COUNTED_FIELD_OPS:
        for kind in FIELD_KINDS.values():
            key = "fields.%s_calls.%s" % (op, kind)
            m[key] = counts[key]
    m["fields.parse_s"] = own("fields.parse")
    scalar = counts["linalg.mul_scalar_mults"]
    m.update({
        "linalg.mul_s": own("linalg.Matrix.mul"),
        "linalg.mul_calls": calls("linalg.Matrix.mul"),
        "linalg.mul_scalar_mults": scalar,
        "linalg.mul_useful_ratio": counts["linalg.mul_useful_mults"] / scalar if scalar else 0.0,
        "linalg.kron_s": own("linalg.Matrix.kron"),
        "linalg.rref_s": own("linalg.rref"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.inverse_s": own("linalg.matrix_inverse"),
    })
    for fn in ("lift", "first_violation", "check_d", "check_qybe", "check_hopf",
               "check_pentagon", "check_equivalent_forms", "conjugate"):
        m["tensor_ops.%s_s" % fn] = own("tensor_ops." + fn)
    m["tensor_ops.lift_calls"] = calls("tensor_ops.lift")
    m.update({
        "coalg.comatrix_s": own("coalg.comatrix"),
        "coalg.coideal_s": own("coalg.coideal"),
        "coalg.quotient_s": own("coalg.quotient"),
        "coalg.convolve_s": own("coalg.convolve"),
        "coalg.pushforward_s": own("coalg.Comodule.pushforward"),
        "frt.obstruction_coideal_s": own("frt.obstruction_coideal"),
        "frt.d_bialgebra_s": own("frt.d_bialgebra"),
        "frt.require_solution_calls": calls("frt.require_solution"),
        "frt.canonical_dimodule_s": own("frt.FrtPresentation.canonical_dimodule"),
        "dmap.sigma_from_r_s": own("dmap.sigma_from_r"),
        "dmap.sigma_from_r_calls": calls("dmap.sigma_from_r"),
        "dmap.is_dmap_s": own("dmap.is_dmap"),
        "dmap.convolution_inverse_of_sigma_s": own("dmap.convolution_inverse_of_sigma"),
        "dimodule.dimodule_from_grading_s": own("dimodule.dimodule_from_grading"),
        "dimodule.r_from_dimodule_s": own("dimodule.r_from_dimodule"),
        "dimodule.pair_compatible_s": own("dimodule.LongDimodule.pair_compatible"),
    })
    candidates = counts["classify.candidates"]
    scan_s = sum(agg[n][1] for n in ("classify.enumerate_range",) if n in agg)
    m.update({
        "classify.candidates": candidates,
        "classify.coordinate_mask_s": own("classify.coordinate_mask"),
        "classify.cands_per_s": candidates / scan_s if scan_s else 0.0,
        "classify.mask_macs": counts["classify.mask_macs"],
        "classify.hit_ratio": counts["classify.mask_hits"] / candidates if candidates else 0.0,
        "classify.qybe_mask_s": own("classify.qybe_mask"),
        "classify.orbit_reduce_s": own("classify.orbit_reduce"),
        "classify.enumerate_s": own("classify.enumerate_solutions", "classify.enumerate_range"),
        "fileio.read_matrix_s": own("fileio.read_matrix"),
        "fileio.write_report_s": own("fileio.write_report"),
    })
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (own_s, _, _) in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own_s
    for layer, value in layer_self.items():
        m["%s.self_s" % layer] = value
    total = sum(layer_self.values())
    m["trace.exact_self_share"] = (sum(layer_self[l] for l in EXACT_LAYERS) / total
                                   if total else 0.0)
    return m


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"
