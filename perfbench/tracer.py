"""Span tracer for `qgs`, applied from outside the package.

Run as a script, it stands in for `python -m qgs.cli`:

    python perfbench/tracer.py --spans FILE --job ID -- SUBCOMMAND [flags]

It imports every `qgs` module, wraps each public function (a module-level
function whose name has no leading underscore), and rebinds every
reference to it across the `qgs.*` namespaces, since modules such as
`cli` import names directly.  Each call becomes a span; a generator
becomes one span per resumption, so it is timed across its iterations
and not at creation.  Spans stay in memory and are written to FILE when
the command ends, with the layer counters.  Importing this module does
not import `qgs`; run.py aggregates span files with `layer_totals`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "chebyshev", "spectrum", "estimates", "precision", "fusion",
          "templieb", "freewords")


class Recorder:
    """Spans of one job: rows [name_id, start, end, parent, job, error]."""

    def __init__(self, job):
        self.job = job
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counters = Counter()
        self.maxima = Counter()
        self.scans = []

    def name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id):
        idx = len(self.spans)
        span = [name_id, 0.0, 0.0, self.stack[-1], self.job, 0]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        return span

    def close(self, span, error=False):
        span[2] = perf_counter()
        self.stack.pop()
        if error:
            span[5] = 1

    def dump(self, path, extra):
        now = perf_counter()
        for span in self.spans:
            if span[2] == 0.0:
                span[2] = now
        payload = {"job": self.job, "names": self.names, "spans": self.spans,
                   "counters": dict(self.counters), "maxima": dict(self.maxima),
                   "scans": self.scans}
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _wrap_function(rec, fn, name, hook):
    name_id = rec.name_id(name)
    calls = name.split(".", 1)[0] + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[calls] += 1
        token = hook.before(args, kwargs) if hook else None
        span = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(span, error=True)
            raise
        rec.close(span)
        if hook:
            hook.after(token, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(rec, fn, name, hook):
    name_id = rec.name_id(name)

    def resumptions(gen):
        try:
            while True:
                span = rec.open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    rec.close(span)
                    return
                except BaseException:
                    rec.close(span, error=True)
                    raise
                rec.close(span)
                if hook:
                    hook.after(None, (), {}, item)
                yield item
        finally:
            gen.close()

    calls = name.split(".", 1)[0] + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[calls] += 1
        return resumptions(fn(*args, **kwargs))

    return wrapper


class _Hook:
    """Counter updates around one wrapped function; kept cheap because
    they run inside the caller's span."""

    def __init__(self, before=None, after=None):
        self._before = before
        self._after = after

    def before(self, args, kwargs):
        return self._before(args, kwargs) if self._before else None

    def after(self, token, args, kwargs, result):
        if self._after:
            self._after(token, args, kwargs, result)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hooks(rec, modules):
    c, m = rec.counters, rec.maxima

    def degree(pos):
        def after(_t, args, kwargs, _r):
            c["chebyshev.steps"] += int(_arg(args, kwargs, pos, "alpha", 0))
        return _Hook(after=after)

    precision = modules["qgs.precision"]
    original_bits = precision.precision_bits

    def bits(_t, args, kwargs, _r):
        value = _arg(args, kwargs, 0, "bits")
        m["precision.max_bits"] = max(m["precision.max_bits"],
                                      int(value if value is not None else original_bits()))

    def label(_t, _a, _k, _r):
        c["spectrum.labels"] += 1

    def scan(_t, args, kwargs, _r):
        rec.scans.append([int(_arg(args, kwargs, 1, "alpha_max")),
                          int(_arg(args, kwargs, 2, "gamma_max"))])

    def cell(_t, _a, _k, _r):
        c["estimates.cells"] += 1

    def hs_terms(_t, args, kwargs, _r):
        c["estimates.cells"] += int(_arg(args, kwargs, 2, "alpha_max")) + 1

    templieb = modules["qgs.templieb"]

    def jw_before(args, kwargs):
        return len(getattr(templieb, "_JW_CACHE", ()))

    def jw_after(size, args, kwargs, _r):
        n = int(_arg(args, kwargs, 1, "n"))
        m["templieb.max_sites"] = max(m["templieb.max_sites"], n)
        if len(getattr(templieb, "_JW_CACHE", ())) > size:
            c["templieb.jw_builds"] += 1

    def isometry(_t, args, kwargs, _r):
        c["templieb.isometries"] += 1
        sites = int(_arg(args, kwargs, 1, "alpha")) + int(_arg(args, kwargs, 2, "beta"))
        m["templieb.max_sites"] = max(m["templieb.max_sites"], sites)

    def pattern(_t, _a, _k, _r):
        c["freewords.patterns"] += 1

    def product(_t, _a, _k, result):
        c["freewords.multiply_calls"] += 1
        c["freewords.terms"] += len(result.terms)

    return {
        "qgs.chebyshev.poly_value": degree(0),
        "qgs.chebyshev.poly_value_and_derivative": degree(0),
        "qgs.chebyshev.build_poly": degree(0),
        "qgs.precision.working_precision": _Hook(after=bits),
        "qgs.spectrum.spectral_stream": _Hook(after=label),
        "qgs.spectrum.eigenvalue": _Hook(after=label),
        "qgs.estimates.gap_constant_scan": _Hook(after=scan),
        "qgs.estimates.gap": _Hook(after=cell),
        "qgs.estimates.hs_certificate": _Hook(after=hs_terms),
        "qgs.templieb.jones_wenzl": _Hook(jw_before, jw_after),
        "qgs.templieb.fusion_isometry": _Hook(after=isometry),
        "qgs.freewords.verify_boundary_expansion": _Hook(after=pattern),
        "qgs.freewords.multiply": _Hook(after=product),
    }


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(rec):
    """Wrap and rebind every public function of every qgs module; return
    the modules by name."""
    package = importlib.import_module("qgs")
    modules = {"qgs": package}
    for info in pkgutil.iter_modules(package.__path__, "qgs."):
        modules[info.name] = importlib.import_module(info.name)
    hooks = _hooks(rec, modules)
    replaced = {}
    for mod_name, module in modules.items():
        for name, fn in _public_functions(module):
            qualified = f"{mod_name}.{name}"
            layer = mod_name.rsplit(".", 1)[-1]
            hook = hooks.get(qualified)
            if inspect.isgeneratorfunction(fn):
                wrapped = _wrap_generator(rec, fn, f"{layer}.{name}", hook)
            else:
                wrapped = _wrap_function(rec, fn, f"{layer}.{name}", hook)
            replaced[id(fn)] = wrapped
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            wrapped = replaced.get(id(obj))
            if wrapped is not None:
                setattr(module, name, wrapped)
    return modules


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.  Rows are [name_id, start, end, parent, ...]."""
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_totals(payload):
    """Per-layer errors and self seconds of one job's span file."""
    names = payload["names"]
    layer_of = [n.split(".", 1)[0] for n in names]
    totals = Counter()
    for span, own in zip(payload["spans"], self_times(payload["spans"])):
        layer = layer_of[span[0]]
        totals[f"{layer}.self_s"] += own
        totals[f"{layer}.errors"] += span[5]
    return totals


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    own, cli_argv = argv[:split], argv[split + 1:]
    rec = Recorder(own[own.index("--job") + 1])
    dims = importlib.import_module("qgs.fusion").dims
    modules = install(rec)
    try:
        code = modules["qgs.cli"].main(cli_argv)
    finally:
        info = dims.cache_info()
        rec.dump(own[own.index("--spans") + 1], {"dims_cache": [info.hits, info.misses]})
    sys.exit(code)


if __name__ == "__main__":
    main()
