"""Layer spans for the traced run, taken from outside the library.

`install` rebinds, at run time and without touching `src/`:

- every public function of a cubelab module, in each namespace that holds
  it: the package, the defining module (reached by callers such as
  `verify.run_verification` or `sequences.generate`), every module that
  imports it by name (`cubelab.verify.eig_sym`) and module-level tables
  of functions (`cubelab.cli.FAMILIES`);
- the LAPACK-backed `numpy.linalg` entry points (layer `lapack`);
- `GraphMatrix.__post_init__`, the matrix validation.

A wrapped call opens a span only when it crosses into another layer.  A
call made while the innermost open span already belongs to the callee's
layer runs straight through, so calls inside a module are not split into
spans.  Validation spans are the exception: they are always taken, so
that `cubegraphs.validate_s` is measured.

A span is `[name, layer, start, end, parent, attr]`: times from
`time.perf_counter`, `parent` the index of the enclosing span or -1, and
`attr` one value recorded after the call (matrix order for LAPACK, bytes
for validation and export, the b-file source for `fetch`, the entry count
for `run_verification`).  Spans stay in memory; the worker writes them
out when it ends, and `aggregate` turns them into per-layer metrics.
"""

import functools
import importlib
import inspect
import os
import time

MODULE_LAYERS = (
    "bitspace",
    "cubegraphs",
    "spectra",
    "harmonic",
    "meshcotan",
    "predicates",
    "sequences",
    "oeisclient",
    "verify",
    "cli",
)
LAYERS = MODULE_LAYERS + ("lapack",)

# numpy.linalg routines that run a dense LAPACK factorisation; `norm` is a
# plain reduction and stays in its caller's self time.
LAPACK_FUNCS = (
    "cholesky",
    "det",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "inv",
    "lstsq",
    "matrix_rank",
    "pinv",
    "qr",
    "slogdet",
    "solve",
    "svd",
)
VALIDATE = "cubegraphs.validate"
EXPORTS = ("cubegraphs.matrix_to_csv", "cubegraphs.matrix_to_json")


def _matrix_order(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return int(a.shape[-1])


def _validated_bytes(args, kwargs, result):
    return int(args[0].entries.nbytes)


def _exported_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _bfile_source(args, kwargs, result):
    return result.source


def _entry_count(args, kwargs, result):
    return len(result.entries)


_ATTRS = {
    "cubegraphs.matrix_to_csv": _exported_bytes,
    "cubegraphs.matrix_to_json": _exported_bytes,
    "oeisclient.fetch": _bfile_source,
    "verify.run_verification": _entry_count,
}


class Tracer:
    """Span recorder; records only while `active` is set."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._wrappers = {}

    def wrap(self, fn, layer, name, attr=None, always=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (not always and stack and spans[stack[-1]][1] == layer):
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attr is not None:
                span[5] = attr(args, kwargs, result)
            return result

        return traced

    def _wrap_public(self, fn, layer_of):
        if fn not in self._wrappers:
            layer = layer_of[fn.__module__]
            name = f"{layer}.{fn.__name__}"
            self._wrappers[fn] = self.wrap(fn, layer, name, _ATTRS.get(name))
        return self._wrappers[fn]

    def install(self):
        """Rebind the layer boundaries of the imported cubelab package."""
        import numpy as np

        package = importlib.import_module("cubelab")
        modules = [importlib.import_module(f"cubelab.{m}") for m in MODULE_LAYERS]
        layer_of = {m.__name__: layer for m, layer in zip(modules, MODULE_LAYERS)}

        def public(value):
            return (
                inspect.isfunction(value)
                and value.__module__ in layer_of
                and not value.__name__.startswith("_")
            )

        for namespace in (package, *modules):
            for key, value in list(vars(namespace).items()):
                if public(value):
                    setattr(namespace, key, self._wrap_public(value, layer_of))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if isinstance(v, tuple) and any(public(x) for x in v):
                            value[k] = tuple(
                                self._wrap_public(x, layer_of) if public(x) else x for x in v
                            )

        for fname in LAPACK_FUNCS:
            fn = getattr(np.linalg, fname)
            setattr(np.linalg, fname, self.wrap(fn, "lapack", f"lapack.{fname}", _matrix_order))

        graph_matrix = importlib.import_module("cubelab.cubegraphs").GraphMatrix
        graph_matrix.__post_init__ = self.wrap(
            graph_matrix.__post_init__, "cubegraphs", VALIDATE, _validated_bytes, always=True
        )


def _per_round(total, rounds):
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def aggregate(spans, ops, rounds):
    """Per-layer metrics per round, and the tracer's check of itself.

    `ops` holds `[start, end, first_span, end_span]` for each traced op.
    Every span must lie inside its parent (or, at top level, its op) and
    after its previous sibling.  Then no self time is negative, and the
    layer self times plus the harness time (the part of each op that no
    top-level span covers) add up to the op time.  Returns
    `(metrics, accounting, problems)`; `problems` lists each violation.
    """
    problems = []
    child_time = [0.0] * len(spans)
    op_time = harness = 0.0
    for start, end, first, stop in ops:
        last_end = {}
        top_time = 0.0
        for i in range(first, stop):
            name, _, s, e, parent, _ = spans[i]
            lo, hi = (spans[parent][2], spans[parent][3]) if parent >= 0 else (start, end)
            if s < last_end.get(parent, lo) or e > hi or e < s:
                problems.append(f"span {i} ({name}) is not nested in its parent or op")
            last_end[parent] = e
            if parent >= 0:
                child_time[parent] += e - s
            else:
                top_time += e - s
        op_time += end - start
        harness += (end - start) - top_time

    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    totals = {
        "validate_s": 0.0, "bytes_built": 0, "export_s": 0.0, "export_bytes": 0,
        "n3": 0, "max_N": 0, "fetches": 0, "fixture_hits": 0, "cache_hits": 0, "entries": 0,
    }
    for i, (name, layer, start, end, _, attr) in enumerate(spans):
        duration = end - start
        self_s[layer] += duration - child_time[i]
        if name == VALIDATE:
            totals["validate_s"] += duration
            totals["bytes_built"] += attr or 0
            continue
        calls[layer] += 1
        if name in EXPORTS:
            totals["export_s"] += duration
            totals["export_bytes"] += attr or 0
        elif layer == "lapack":
            totals["n3"] += (attr or 0) ** 3
            totals["max_N"] = max(totals["max_N"], attr or 0)
        elif name == "oeisclient.fetch":
            totals["fetches"] += 1
            totals["fixture_hits"] += attr == "fixture"
            totals["cache_hits"] += attr == "cache"
        elif name == "verify.run_verification":
            totals["entries"] += attr or 0
    if totals["fixture_hits"] != totals["fetches"]:
        problems.append(
            f"{totals['fetches']} b-file fetches but {totals['fixture_hits']} served by fixtures"
        )

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (_per_round(calls[layer], rounds), "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
    metrics["cubegraphs.validate_s"] = (totals["validate_s"] / rounds, "s")
    metrics["cubegraphs.bytes_built"] = (_per_round(totals["bytes_built"], rounds), "bytes")
    metrics["cubegraphs.export_s"] = (totals["export_s"] / rounds, "s")
    metrics["cubegraphs.export_bytes"] = (_per_round(totals["export_bytes"], rounds), "bytes")
    metrics["lapack.n3"] = (_per_round(totals["n3"], rounds), "count")
    metrics["lapack.max_N"] = (totals["max_N"], "rows")
    metrics["oeisclient.fixture_hits"] = (_per_round(totals["fixture_hits"], rounds), "count")
    metrics["oeisclient.cache_hits"] = (_per_round(totals["cache_hits"], rounds), "count")
    metrics["verify.entries"] = (_per_round(totals["entries"], rounds), "count")
    accounting = {"op_s": op_time, "self_s": sum(self_s.values()), "harness_s": harness}
    return metrics, accounting, problems
